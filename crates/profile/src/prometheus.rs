//! Prometheus text-exposition exporter for a [`MetricsRegistry`]
//! snapshot. The output is byte-deterministic for a given registry
//! state (families sorted by name, samples by label set), which the
//! golden tests pin exactly.

use std::fmt::Write as _;

use crate::registry::{FamilySnapshot, Histogram, Labels, MetricsRegistry, SampleValue};

/// Escapes a label value per the exposition format (`\\`, `\"`, `\n`).
fn esc_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a HELP text (`\\` and line feeds only, per the format).
fn esc_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Formats a sample value. Prometheus accepts scientific notation;
/// `{:?}` round-trips the exact f64 so the text endpoint, the JSON
/// profile, and the HTML report all print identical numbers.
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v:?}")
    }
}

/// Renders a label set, with an optional extra (`le`) label appended.
fn fmt_labels(labels: &Labels, extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", esc_label(v));
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", esc_label(v));
    }
    out.push('}');
    out
}

fn render_histogram(out: &mut String, name: &str, labels: &Labels, h: &Histogram) {
    let mut cumulative = 0u64;
    for (b, &n) in h.buckets.iter().enumerate() {
        cumulative += n;
        let bound = Histogram::bound(b).to_string();
        let _ = writeln!(
            out,
            "{name}_bucket{} {cumulative}",
            fmt_labels(labels, Some(("le", &bound)))
        );
    }
    let _ = writeln!(
        out,
        "{name}_bucket{} {}",
        fmt_labels(labels, Some(("le", "+Inf"))),
        h.count
    );
    let _ = writeln!(
        out,
        "{name}_sum{} {}",
        fmt_labels(labels, None),
        fmt_value(h.sum)
    );
    let _ = writeln!(out, "{name}_count{} {}", fmt_labels(labels, None), h.count);
}

fn render_family(out: &mut String, fam: &FamilySnapshot) {
    if fam.samples.is_empty() {
        return;
    }
    if !fam.help.is_empty() {
        let _ = writeln!(out, "# HELP {} {}", fam.name, esc_help(&fam.help));
    }
    let _ = writeln!(out, "# TYPE {} {}", fam.name, fam.kind.name());
    for (labels, value) in &fam.samples {
        match value {
            SampleValue::Counter(v) | SampleValue::Gauge(v) => {
                let _ = writeln!(
                    out,
                    "{}{} {}",
                    fam.name,
                    fmt_labels(labels, None),
                    fmt_value(*v)
                );
            }
            SampleValue::Histogram(h) => render_histogram(out, &fam.name, labels, h),
        }
    }
}

/// Renders the whole registry in Prometheus text exposition format.
/// Families with no samples (declared but never touched) are omitted.
pub fn render(registry: &MetricsRegistry) -> String {
    let mut out = String::new();
    for fam in registry.snapshot() {
        render_family(&mut out, &fam);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{MetricKind, LOG2_BUCKETS};
    use mfbc_conformance::suite::property;

    #[test]
    fn golden_counters_and_gauges() {
        let r = MetricsRegistry::new();
        r.declare(
            "mfbc_collectives_total",
            MetricKind::Counter,
            "Collective invocations by kind",
        );
        r.counter_add("mfbc_collectives_total", &[("kind", "allgather")], 3.0);
        r.counter_add("mfbc_collectives_total", &[("kind", "allreduce")], 1.0);
        r.gauge_set("mfbc_load_imbalance", &[], 1.25);
        r.gauge_set("mfbc_rank_comm_seconds", &[("rank", "0")], 0.0625);
        let expected = "\
# HELP mfbc_collectives_total Collective invocations by kind
# TYPE mfbc_collectives_total counter
mfbc_collectives_total{kind=\"allgather\"} 3.0
mfbc_collectives_total{kind=\"allreduce\"} 1.0
# TYPE mfbc_load_imbalance gauge
mfbc_load_imbalance 1.25
# TYPE mfbc_rank_comm_seconds gauge
mfbc_rank_comm_seconds{rank=\"0\"} 0.0625
";
        assert_eq!(render(&r), expected);
    }

    #[test]
    fn golden_histogram_is_cumulative() {
        let r = MetricsRegistry::new();
        r.declare("bytes", MetricKind::Histogram, "payload bytes");
        for v in [1.0, 2.0, 3.0] {
            r.observe("bytes", &[], v);
        }
        let text = render(&r);
        assert!(text.starts_with("# HELP bytes payload bytes\n# TYPE bytes histogram\n"));
        assert!(text.contains("bytes_bucket{le=\"1\"} 1\n"), "{text}");
        assert!(text.contains("bytes_bucket{le=\"2\"} 2\n"), "{text}");
        assert!(text.contains("bytes_bucket{le=\"4\"} 3\n"), "{text}");
        assert!(text.contains("bytes_bucket{le=\"+Inf\"} 3\n"), "{text}");
        assert!(text.ends_with("bytes_sum 6.0\nbytes_count 3\n"), "{text}");
        // Every finite bucket line present: LOG2_BUCKETS + the +Inf line.
        let buckets = text.matches("bytes_bucket{").count();
        assert_eq!(buckets, LOG2_BUCKETS + 1);
    }

    #[test]
    fn label_values_are_escaped() {
        let r = MetricsRegistry::new();
        r.counter_add("x_total", &[("plan", "cannon(q=4) \"odd\\name\"\n")], 1.0);
        let text = render(&r);
        assert!(
            text.contains("x_total{plan=\"cannon(q=4) \\\"odd\\\\name\\\"\\n\"} 1.0"),
            "{text}"
        );
    }

    /// For any observation sequence, the non-cumulative bucket counts
    /// (incl. overflow) sum to the histogram's observation counter,
    /// and the rendered +Inf bucket equals `_count`.
    #[test]
    fn histogram_buckets_sum_to_count() {
        property("histogram_buckets_sum_to_count", 32, |rng| {
            let values: Vec<u64> = (0..rng.below(200))
                .map(|_| rng.next_u64() % (1 << 40))
                .collect();
            let r = MetricsRegistry::new();
            for &v in &values {
                r.observe("h", &[], v as f64);
            }
            let snap = r.snapshot();
            if values.is_empty() {
                assert!(snap.is_empty() || snap[0].samples.is_empty());
            } else {
                let SampleValue::Histogram(h) = &snap[0].samples[0].1 else {
                    panic!("not a histogram");
                };
                let bucket_sum: u64 = h.buckets.iter().sum::<u64>() + h.overflow;
                assert_eq!(bucket_sum, h.count);
                assert_eq!(h.count, values.len() as u64);

                let text = render(&r);
                let inf_line = format!("h_bucket{{le=\"+Inf\"}} {}\n", h.count);
                let count_line = format!("h_count {}\n", h.count);
                assert!(text.contains(&inf_line));
                assert!(text.contains(&count_line));
            }
        });
    }
}
