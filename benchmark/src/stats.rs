//! Order statistics over repetition samples.

/// Median, quartiles and count of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Distance between the quartiles as a share of the median — the
    /// run-to-run spread a bound is judged against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `values`.
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median and quartiles as Python's `statistics.quantiles(values,
/// n=4)` gives them (the exclusive method), so numbers printed here
/// match what a reader recomputes from the samples.
pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    let n = v.len();
    let med = median(&v);
    if n < 2 {
        return Summary {
            median: med,
            q1: med,
            q3: med,
            n,
        };
    }
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        median: med,
        q1: quartile(1),
        q3: quartile(3),
        n,
    }
}

/// The `q`-quantile (nearest rank) of `values`, `q` in `[0, 1]`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn single_sample_has_no_spread() {
        let s = summarize(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.spread()), (4.0, 4.0, 4.0, 0.0));
    }

    #[test]
    fn p99_leaves_one_percent_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(percentile(&v, 0.5), 500.0);
    }
}
