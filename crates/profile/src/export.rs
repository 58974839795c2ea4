//! `profile.json` emission: a machine-readable rendering of a
//! [`Profile`], written with the same number formatting as the
//! Prometheus and HTML exporters so all three agree byte-for-byte on
//! every value.

use std::fmt::Write as _;

use crate::profiler::Profile;
use crate::registry::{Histogram, MetricsRegistry, SampleValue};
use mfbc_trace::json::{esc, num, parse, Json};

/// Schema version stamped into `profile.json`.
pub const PROFILE_JSON_VERSION: u64 = 1;

/// Schema version stamped into `metrics.json`
/// ([`registry_to_json`]).
pub const METRICS_JSON_VERSION: u64 = 1;

fn push_kv(out: &mut String, indent: &str, key: &str, value: &str, last: bool) {
    let comma = if last { "" } else { "," };
    let _ = writeln!(out, "{indent}\"{key}\": {value}{comma}");
}

/// Serializes a [`Profile`] to pretty-printed JSON.
pub fn profile_to_json(p: &Profile) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    push_kv(
        &mut out,
        "  ",
        "version",
        &PROFILE_JSON_VERSION.to_string(),
        false,
    );
    push_kv(&mut out, "  ", "p", &p.p.to_string(), false);
    push_kv(&mut out, "  ", "events", &p.events.to_string(), false);
    push_kv(&mut out, "  ", "imbalance", &num(p.imbalance), false);
    let _ = writeln!(
        out,
        "  \"critical\": {{\"comm_s\": {}, \"comp_s\": {}, \"total_ops\": {}}},",
        num(p.critical_comm_s),
        num(p.critical_comp_s),
        p.total_ops
    );
    push_kv(&mut out, "  ", "setup_comm_s", &num(p.setup_comm_s), false);
    push_kv(&mut out, "  ", "wasted_s", &num(p.wasted_s), false);
    let _ = writeln!(
        out,
        "  \"autotune\": {{\"decisions\": {}, \"infeasible\": {}}},",
        p.autotune_decisions, p.autotune_infeasible
    );

    out.push_str("  \"ranks\": [\n");
    for (i, r) in p.ranks.iter().enumerate() {
        let comma = if i + 1 == p.ranks.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"rank\": {}, \"comm_s\": {}, \"comp_s\": {}, \"msgs\": {}, \"bytes\": {}, \"resident_bytes\": {}, \"peak_bytes\": {}}}{comma}",
            r.rank,
            num(r.comm_s),
            num(r.comp_s),
            r.msgs,
            r.bytes,
            r.resident_bytes,
            r.peak_bytes
        );
    }
    out.push_str("  ],\n");

    out.push_str("  \"collectives\": [\n");
    for (i, c) in p.collectives.iter().enumerate() {
        let comma = if i + 1 == p.collectives.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            out,
            "    {{\"kind\": \"{}\", \"count\": {}, \"modeled_s\": {}, \"msgs\": {}, \"bytes\": {}, \"share\": {}}}{comma}",
            esc(&c.kind),
            c.count,
            num(c.modeled_s),
            c.msgs,
            c.bytes,
            num(c.share)
        );
    }
    out.push_str("  ],\n");

    out.push_str("  \"supersteps\": [\n");
    for (i, s) in p.supersteps.iter().enumerate() {
        let comma = if i + 1 == p.supersteps.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"phase\": \"{}\", \"batch\": {}, \"step\": {}, \"frontier_nnz\": {}, \"active_rows\": {}, \"comm_s\": {}, \"collectives\": {}, \"spgemm_ops\": {}}}{comma}",
            esc(&s.phase),
            s.batch,
            s.step,
            s.frontier_nnz,
            s.active_rows,
            num(s.comm_s),
            s.collectives,
            s.spgemm_ops
        );
    }
    out.push_str("  ],\n");

    out.push_str("  \"plan_mix\": [\n");
    for (i, m) in p.plan_mix.iter().enumerate() {
        let comma = if i + 1 == p.plan_mix.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"plan\": \"{}\", \"count\": {}, \"ops\": {}, \"nnz_c\": {}, \"autotune_wins\": {}}}{comma}",
            esc(&m.plan),
            m.count,
            m.ops,
            m.nnz_c,
            m.autotune_wins
        );
    }
    out.push_str("  ],\n");

    out.push_str("  \"faults\": [\n");
    for (i, (kind, count)) in p.faults.iter().enumerate() {
        let comma = if i + 1 == p.faults.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"kind\": \"{}\", \"count\": {}}}{comma}",
            esc(kind),
            count
        );
    }
    out.push_str("  ],\n");

    out.push_str("  \"recoveries\": [\n");
    for (i, r) in p.recoveries.iter().enumerate() {
        let comma = if i + 1 == p.recoveries.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"action\": \"{}\", \"count\": {}, \"wasted_s\": {}}}{comma}",
            esc(&r.action),
            r.count,
            num(r.wasted_s)
        );
    }
    out.push_str("  ],\n");

    out.push_str("  \"pool\": [\n");
    for (i, w) in p.pool.iter().enumerate() {
        let comma = if i + 1 == p.pool.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"kernel\": \"{}\", \"calls\": {}, \"tasks\": {}, \"busy_us\": {}}}{comma}",
            esc(&w.kernel),
            w.calls,
            w.tasks,
            w.busy_us
        );
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

fn labels_obj(labels: &[(String, String)]) -> String {
    let mut s = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\": \"{}\"", esc(k), esc(v));
    }
    s.push('}');
    s
}

fn histogram_json(h: &Histogram) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "\"count\": {}, \"sum\": {}, \"overflow\": {}, \"buckets\": [",
        h.count,
        num(h.sum),
        h.overflow
    );
    for (i, n) in h.buckets.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{n}");
    }
    s.push(']');
    s
}

/// Serializes a [`MetricsRegistry`] snapshot to JSON with the same
/// exact number formatting as the Prometheus exporter, so the two
/// documents agree bit-for-bit on every value. Families with no
/// samples are omitted (matching [`crate::prometheus::render`]);
/// histogram buckets are the non-cumulative per-bucket counts with
/// implied bounds `2^i`.
pub fn registry_to_json(reg: &MetricsRegistry) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    push_kv(
        &mut out,
        "  ",
        "metrics_version",
        &METRICS_JSON_VERSION.to_string(),
        false,
    );
    out.push_str("  \"families\": [\n");
    let families: Vec<_> = reg
        .snapshot()
        .into_iter()
        .filter(|f| !f.samples.is_empty())
        .collect();
    for (i, fam) in families.iter().enumerate() {
        let comma = if i + 1 == families.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"kind\": \"{}\", \"help\": \"{}\", \"samples\": [",
            esc(&fam.name),
            fam.kind.name(),
            esc(&fam.help)
        );
        for (j, (labels, value)) in fam.samples.iter().enumerate() {
            let scomma = if j + 1 == fam.samples.len() { "" } else { "," };
            let body = match value {
                SampleValue::Counter(v) | SampleValue::Gauge(v) => {
                    format!("\"value\": {}", num(*v))
                }
                SampleValue::Histogram(h) => histogram_json(h),
            };
            let _ = writeln!(
                out,
                "      {{\"labels\": {}, {body}}}{scomma}",
                labels_obj(labels)
            );
        }
        let _ = writeln!(out, "    ]}}{comma}");
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// Parses a `profile.json` document back into the fields the tests
/// and tools need (per-rank rows). Returns `(rank, comm_s, comp_s,
/// peak_bytes)` tuples in rank order.
pub fn parse_rank_rows(doc: &str) -> Result<Vec<(usize, f64, f64, u64)>, String> {
    let v = parse(doc)?;
    let ranks = v
        .get("ranks")
        .and_then(Json::as_array)
        .ok_or("profile.json missing `ranks`")?;
    ranks
        .iter()
        .map(|r| {
            let rank = r
                .get("rank")
                .and_then(Json::as_u64)
                .ok_or("rank row missing `rank`")? as usize;
            let comm = r
                .get("comm_s")
                .and_then(Json::as_f64)
                .ok_or("rank row missing `comm_s`")?;
            let comp = r
                .get("comp_s")
                .and_then(Json::as_f64)
                .ok_or("rank row missing `comp_s`")?;
            let peak = r
                .get("peak_bytes")
                .and_then(Json::as_u64)
                .ok_or("rank row missing `peak_bytes`")?;
            Ok((rank, comm, comp, peak))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{Profile, RankProfile};

    fn sample_profile() -> Profile {
        Profile {
            p: 2,
            ranks: vec![
                RankProfile {
                    rank: 0,
                    comm_s: 0.125,
                    comp_s: 0.5,
                    msgs: 10,
                    bytes: 4096,
                    resident_bytes: 100,
                    peak_bytes: 900,
                },
                RankProfile {
                    rank: 1,
                    comm_s: 0.0625,
                    comp_s: 0.25,
                    msgs: 8,
                    bytes: 2048,
                    resident_bytes: 50,
                    peak_bytes: 700,
                },
            ],
            critical_comm_s: 0.125,
            critical_comp_s: 0.5,
            total_ops: 1234,
            imbalance: 1.2,
            ..Profile::default()
        }
    }

    #[test]
    fn json_round_trips_rank_rows_exactly() {
        let p = sample_profile();
        let doc = profile_to_json(&p);
        let rows = parse_rank_rows(&doc).unwrap();
        assert_eq!(rows.len(), 2);
        for (row, r) in rows.iter().zip(&p.ranks) {
            assert_eq!(row.0, r.rank);
            assert_eq!(row.1.to_bits(), r.comm_s.to_bits());
            assert_eq!(row.2.to_bits(), r.comp_s.to_bits());
            assert_eq!(row.3, r.peak_bytes);
        }
    }

    #[test]
    fn emitted_document_is_valid_json() {
        let doc = profile_to_json(&sample_profile());
        let v = mfbc_trace::json::parse(&doc).unwrap();
        assert_eq!(
            v.get("version").and_then(mfbc_trace::json::Json::as_u64),
            Some(1)
        );
        assert_eq!(v.get("p").and_then(mfbc_trace::json::Json::as_u64), Some(2));
        assert_eq!(
            v.get("critical")
                .and_then(|c| c.get("total_ops"))
                .and_then(mfbc_trace::json::Json::as_u64),
            Some(1234)
        );
    }
}
