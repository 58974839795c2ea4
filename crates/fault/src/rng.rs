//! The workspace's one deterministic PRNG (SplitMix64).
//!
//! Seeded fault schedules, retry jitter, the serve load stream and
//! every randomized test draw from it. It lives in this dependency-free
//! leaf because it is the lowest crate whose shipped code draws a
//! seeded stream; `mfbc_conformance::rng` re-exports it next to the
//! seed-stream derivation. The workspace's `rand` stand-ins are not an
//! option: a printed seed *is* the failing case, so the stream must be
//! bit-stable across platforms and across refactors of unrelated
//! crates. SplitMix64 (Steele, Lea & Flood, OOPSLA'14) is tiny and
//! statistically sound for this purpose.

/// SplitMix64 generator state.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed` (any value, including 0).
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `0..n`. `n` must be positive. The modulo
    /// bias is ~2⁻⁶⁰ for the tiny ranges drawn here — irrelevant, and
    /// the payoff is that one `next_u64` call per draw keeps the stream
    /// layout trivial to reason about.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform value in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// A uniform pick from a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }

    /// True with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_distinct() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut c = SplitMix64::new(43);
        assert_ne!(xs[0], c.next_u64());
    }

    #[test]
    fn known_answer() {
        // Reference values of SplitMix64 from seed 1234567: guards the
        // constants against typos, since every stored repro seed, fault
        // schedule and serve stream depends on them.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 0x599E_D017_FB08_FC85);
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            assert!(r.below(13) < 13);
            let v = r.range(3, 5);
            assert!((3..=5).contains(&v));
        }
    }
}
