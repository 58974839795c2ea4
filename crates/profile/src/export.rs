//! `profile.json` emission: a machine-readable rendering of a
//! [`Profile`], written through the report-row walk of
//! [`mfbc_trace::json`] with the same number formatting as the
//! Prometheus and HTML exporters so all three agree byte-for-byte on
//! every value.

use crate::profiler::Profile;
use mfbc_trace::json::{parse, write_doc, Row};

/// Schema version stamped into `profile.json`.
pub const PROFILE_JSON_VERSION: u64 = 1;

/// Serializes a [`Profile`] to pretty-printed JSON.
pub fn profile_to_json(p: &Profile) -> String {
    write_doc(p)
}

/// Parses a `profile.json` document back into the fields the tests
/// and tools need (per-rank rows). Returns `(rank, comm_s, comp_s,
/// peak_bytes)` tuples in rank order.
pub fn parse_rank_rows(doc: &str) -> Result<Vec<(usize, f64, f64, u64)>, String> {
    let ranks = Profile::read(&parse(doc)?)?.ranks;
    Ok(ranks
        .iter()
        .map(|r| (r.rank, r.comm_s, r.comp_s, r.peak_bytes))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{CriticalProfile, Profile, RankProfile};

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
            critical: CriticalProfile {
                comm_s: 0.125,
                comp_s: 0.5,
                total_ops: 1234,
            },
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
