//! The metrics registry: named counter / gauge / histogram families
//! with optional labels, deterministic ordering, and lock-protected
//! concurrent updates.
//!
//! Metric and label names follow the Prometheus data model
//! (`[a-zA-Z_:][a-zA-Z0-9_:]*`); families and samples are kept in
//! `BTreeMap`s so every export is byte-stable for a given sequence of
//! updates — the property the golden exporter tests pin.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Number of finite log2 buckets in a histogram: upper bounds
/// `2^0 … 2^(LOG2_BUCKETS-1)`, with one implicit `+Inf` overflow
/// bucket on top. 2³¹ comfortably covers byte counts and frontier
/// sizes at simulation scale.
pub const LOG2_BUCKETS: usize = 32;

/// What a metric family measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically accumulating sum.
    Counter,
    /// Last-write-wins sampled value.
    Gauge,
    /// Fixed-bucket log2 histogram of non-negative observations.
    Histogram,
}

impl MetricKind {
    /// Prometheus `# TYPE` name.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A log2 histogram: `buckets[b]` counts observations `v` with
/// `v <= 2^b` (and greater than the previous bound); values above
/// `2^(LOG2_BUCKETS-1)` land in the overflow bucket.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Histogram {
    /// Per-bucket (non-cumulative) observation counts.
    pub buckets: Vec<u64>,
    /// Observations above the largest finite bound (`+Inf` bucket).
    pub overflow: u64,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

impl Histogram {
    /// An empty histogram with every finite bucket at zero.
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; LOG2_BUCKETS],
            ..Histogram::default()
        }
    }

    /// The finite bucket `v` falls in — the least `b` with
    /// `v <= 2^b` — or `None` for the overflow bucket. `2^b` is an
    /// integer, so `v <= 2^b` exactly when `⌈v⌉ <= 2^b`: the bucket is
    /// the ceiling's integer `⌈log2⌉`. Negatives and NaN count as 0.
    fn bucket(v: f64) -> Option<usize> {
        let ceil = v.max(0.0).ceil();
        if ceil > Histogram::bound(LOG2_BUCKETS - 1) as f64 {
            return None;
        }
        // In 0 ..= 2^31: the cast is exact.
        let ceil = ceil as u64;
        Some((u64::BITS - ceil.saturating_sub(1).leading_zeros()) as usize)
    }

    /// Records one observation; negatives and NaN count as 0.
    pub fn observe(&mut self, v: f64) {
        let v = v.max(0.0);
        match Histogram::bucket(v) {
            Some(b) => self.buckets[b] += 1,
            None => self.overflow += 1,
        }
        self.count += 1;
        self.sum += v;
    }

    /// Upper bound of finite bucket `b` (`2^b`).
    pub fn bound(b: usize) -> u64 {
        1u64 << b
    }
}

/// One sample's value.
#[derive(Clone, Debug, PartialEq)]
pub enum SampleValue {
    /// Accumulated counter total.
    Counter(f64),
    /// Latest gauge value.
    Gauge(f64),
    /// Histogram state.
    Histogram(Histogram),
}

/// A label set, sorted by key at construction so identical sets hash
/// to the same sample regardless of call-site ordering.
pub type Labels = Vec<(String, String)>;

/// The pairs of `labels` in sorted order, whatever order the call site
/// wrote them in. Repeated selection instead of a sorted copy: label
/// sets hold a handful of pairs, and the lookup of an existing sample
/// must not allocate.
fn sorted<'a>(labels: &'a [(&'a str, &'a str)]) -> impl Iterator<Item = (&'a str, &'a str)> {
    // The position breaks ties, so repeated pairs are each visited.
    let mut last: Option<((&str, &str), usize)> = None;
    std::iter::from_fn(move || {
        last = labels
            .iter()
            .copied()
            .zip(0..)
            .filter(|pair| last.is_none_or(|last| *pair > last))
            .min();
        last.map(|(pair, _)| pair)
    })
}

#[derive(Clone, Debug)]
struct Family {
    help: String,
    kind: MetricKind,
    /// Ordered by label set: the export order, and what the lookup
    /// bisects.
    samples: Vec<(Labels, SampleValue)>,
}

impl Family {
    fn new(kind: MetricKind) -> Family {
        Family {
            help: String::new(),
            kind,
            samples: Vec::new(),
        }
    }
}

/// Snapshot of one family for export.
#[derive(Clone, Debug)]
pub struct FamilySnapshot {
    /// Metric family name.
    pub name: String,
    /// Help text (may be empty for undeclared families).
    pub help: String,
    /// Kind of every sample in the family.
    pub kind: MetricKind,
    /// Samples, ordered by label set.
    pub samples: Vec<(Labels, SampleValue)>,
}

/// A thread-safe registry of metric families.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    families: Mutex<BTreeMap<String, Family>>,
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Declares (or re-declares) a family's help text and kind.
    /// Idempotent; declaring an existing family with a *different*
    /// kind panics — that is a programming error, not runtime input.
    pub fn declare(&self, name: &str, kind: MetricKind, help: &str) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let mut fams = self.families.lock().expect("metrics registry lock");
        let fam = fams
            .entry(name.to_string())
            .or_insert_with(|| Family::new(kind));
        assert_eq!(
            fam.kind, kind,
            "metric {name:?} redeclared with a different kind"
        );
        fam.help = help.to_string();
    }

    /// Applies `f` to the sample `name{labels}`, creating family and
    /// sample on first use. An update of an existing sample — every
    /// update after the first — finds it by the borrowed name and
    /// labels and allocates nothing; names are validated where they
    /// are stored, on insertion.
    fn with_sample(
        &self,
        name: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        f: impl FnOnce(&mut SampleValue),
    ) {
        let mut fams = self.families.lock().expect("metrics registry lock");
        let fam = match fams.get_mut(name) {
            Some(fam) => fam,
            None => {
                assert!(valid_name(name), "invalid metric name {name:?}");
                fams.entry(name.to_string())
                    .or_insert_with(|| Family::new(kind))
            }
        };
        assert_eq!(fam.kind, kind, "metric {name:?} used as a different kind");
        let found = fam.samples.binary_search_by(|(stored, _)| {
            stored
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .cmp(sorted(labels))
        });
        let at = found.unwrap_or_else(|at| {
            for (k, _) in labels {
                assert!(valid_name(k), "invalid label name {k:?}");
            }
            let zero = match kind {
                MetricKind::Counter => SampleValue::Counter(0.0),
                MetricKind::Gauge => SampleValue::Gauge(0.0),
                MetricKind::Histogram => SampleValue::Histogram(Histogram::new()),
            };
            let key = sorted(labels)
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect();
            fam.samples.insert(at, (key, zero));
            at
        });
        f(&mut fam.samples[at].1);
    }

    /// Adds `delta` (must be ≥ 0) to a counter sample.
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], delta: f64) {
        debug_assert!(delta >= 0.0, "counter {name:?} decremented by {delta}");
        self.with_sample(name, MetricKind::Counter, labels, |s| {
            if let SampleValue::Counter(v) = s {
                *v += delta;
            }
        });
    }

    /// Sets a gauge sample.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.with_sample(name, MetricKind::Gauge, labels, |s| {
            if let SampleValue::Gauge(v) = s {
                *v = value;
            }
        });
    }

    /// Records one observation into a histogram sample.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.with_sample(name, MetricKind::Histogram, labels, |s| {
            if let SampleValue::Histogram(h) = s {
                h.observe(value);
            }
        });
    }

    /// Writes a finished histogram as the sample `name{labels}`,
    /// replacing whatever that sample held.
    pub fn histogram_set(&self, name: &str, labels: &[(&str, &str)], h: Histogram) {
        self.with_sample(name, MetricKind::Histogram, labels, |s| {
            *s = SampleValue::Histogram(h);
        });
    }

    /// Drops every sample, keeping the declared families.
    pub(crate) fn clear(&self) {
        let mut fams = self.families.lock().expect("metrics registry lock");
        for fam in fams.values_mut() {
            fam.samples.clear();
        }
    }

    /// Copies out every family, ordered by name, samples ordered by
    /// label set — the deterministic view the exporters render.
    pub fn snapshot(&self) -> Vec<FamilySnapshot> {
        let fams = self.families.lock().expect("metrics registry lock");
        fams.iter()
            .map(|(name, fam)| FamilySnapshot {
                name: name.clone(),
                help: fam.help.clone(),
                kind: fam.kind,
                samples: fam.samples.clone(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let r = MetricsRegistry::new();
        r.counter_add("hits_total", &[("kind", "a")], 1.0);
        r.counter_add("hits_total", &[("kind", "a")], 2.0);
        r.counter_add("hits_total", &[("kind", "b")], 5.0);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].samples.len(), 2);
        assert_eq!(snap[0].samples[0].1, SampleValue::Counter(3.0));
        assert_eq!(snap[0].samples[1].1, SampleValue::Counter(5.0));
    }

    #[test]
    fn label_order_does_not_split_samples() {
        let r = MetricsRegistry::new();
        r.counter_add("x_total", &[("a", "1"), ("b", "2")], 1.0);
        r.counter_add("x_total", &[("b", "2"), ("a", "1")], 1.0);
        let snap = r.snapshot();
        assert_eq!(snap[0].samples.len(), 1);
        assert_eq!(snap[0].samples[0].1, SampleValue::Counter(2.0));
    }

    #[test]
    fn gauges_take_last_write() {
        let r = MetricsRegistry::new();
        r.gauge_set("temp", &[], 1.0);
        r.gauge_set("temp", &[], -3.5);
        let snap = r.snapshot();
        assert_eq!(snap[0].samples[0].1, SampleValue::Gauge(-3.5));
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let r = MetricsRegistry::new();
        for v in [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 1e12] {
            r.observe("sizes", &[], v);
        }
        let snap = r.snapshot();
        let SampleValue::Histogram(h) = &snap[0].samples[0].1 else {
            panic!("not a histogram");
        };
        assert_eq!(h.buckets[0], 2); // 0, 1
        assert_eq!(h.buckets[1], 1); // 2
        assert_eq!(h.buckets[2], 2); // 3, 4
        assert_eq!(h.buckets[3], 1); // 5
        assert_eq!(h.overflow, 1); // 1e12 > 2^31
        assert_eq!(h.count, 7);
        assert_eq!(h.sum, 15.0 + 1e12);
    }

    /// The bucket search `Histogram::bucket` replaced, kept as the
    /// reference.
    fn bucket_by_search(v: f64) -> Option<usize> {
        let v = v.max(0.0);
        (0..LOG2_BUCKETS).find(|&b| v <= (1u64 << b) as f64)
    }

    #[test]
    fn direct_log2_bucket_equals_the_search_it_replaced() {
        let mut probes = vec![
            0.0,
            -0.0,
            -1.0,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            0.5,
            1.5,
            1e12,
            u64::MAX as f64,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        for b in 0..=LOG2_BUCKETS + 1 {
            let bound = (1u64 << b) as f64;
            let ulp = |x: f64, up: bool| {
                f64::from_bits(if up { x.to_bits() + 1 } else { x.to_bits() - 1 })
            };
            probes.extend([ulp(bound, false), bound, ulp(bound, true), bound * 1.5]);
        }
        for v in probes {
            assert_eq!(Histogram::bucket(v), bucket_by_search(v), "v = {v:?}");
        }
    }

    #[test]
    fn multi_label_sets_meet_in_one_sample_whatever_the_order() {
        let r = MetricsRegistry::new();
        let orders: [&[(&str, &str)]; 4] = [
            &[("rung", "stale"), ("reason", "budget"), ("zone", "a")],
            &[("zone", "a"), ("rung", "stale"), ("reason", "budget")],
            &[("reason", "budget"), ("zone", "a"), ("rung", "stale")],
            &[("reason", "budget"), ("rung", "stale"), ("zone", "a")],
        ];
        for labels in orders {
            r.counter_add("d_total", labels, 1.0);
        }
        // Neighbours on either side of it in the export order.
        r.counter_add("d_total", &[("rung", "approx"), ("reason", "budget")], 1.0);
        r.counter_add("d_total", &[("reason", "min-k"), ("rung", "stale")], 1.0);
        r.counter_add("d_total", &[], 1.0);
        let snap = r.snapshot();
        let keys: Vec<Labels> = snap[0].samples.iter().map(|s| s.0.clone()).collect();
        let mut by_ord = keys.clone();
        by_ord.sort();
        assert_eq!(keys, by_ord, "samples export in label-set order");
        assert_eq!(keys.len(), 4);
        let own = |k: &str, v: &str| (k.to_string(), v.to_string());
        let three = vec![
            own("reason", "budget"),
            own("rung", "stale"),
            own("zone", "a"),
        ];
        let at = keys
            .iter()
            .position(|k| *k == three)
            .expect("stored sorted");
        assert_eq!(snap[0].samples[at].1, SampleValue::Counter(4.0));
    }

    #[test]
    #[should_panic(expected = "invalid label name")]
    fn bad_label_names_rejected_when_the_sample_is_created() {
        let r = MetricsRegistry::new();
        r.counter_add("x_total", &[("ok", "1")], 1.0);
        r.counter_add("x_total", &[("not-ok", "1")], 1.0);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = MetricsRegistry::new();
        r.counter_add("x", &[], 1.0);
        r.gauge_set("x", &[], 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_names_rejected() {
        let r = MetricsRegistry::new();
        r.counter_add("9starts-with-digit", &[], 1.0);
    }

    #[test]
    fn a_finished_histogram_exports_as_if_observed_in_place() {
        let (live, finished) = (MetricsRegistry::new(), MetricsRegistry::new());
        let mut h = Histogram::new();
        for v in [0.5, 3.0, 1e12] {
            live.observe("h", &[("k", "a")], v);
            h.observe(v);
        }
        finished.histogram_set("h", &[("k", "a")], h);
        assert_eq!(live.snapshot()[0].samples, finished.snapshot()[0].samples);
    }

    #[test]
    fn declare_sets_help() {
        let r = MetricsRegistry::new();
        r.declare("x_total", MetricKind::Counter, "counts xs");
        r.counter_add("x_total", &[], 1.0);
        let snap = r.snapshot();
        assert_eq!(snap[0].help, "counts xs");
        assert_eq!(snap[0].kind, MetricKind::Counter);
    }
}
