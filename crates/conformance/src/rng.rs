//! The seed stream: [`SplitMix64`] (defined once, in `mfbc-fault`) and
//! the derivation of per-case seeds from a suite's name.
//!
//! Case generation must be bit-stable across platforms and across
//! refactors of unrelated crates, because a printed seed *is* the
//! failing case. SplitMix64's scrambler doubles as the hash that
//! derives per-case seeds from a suite's stream tag.

pub use mfbc_fault::SplitMix64;

/// Derives an independent stream seed from `(base, index)` — the
/// per-case seed function. One scrambler round is enough to decorrelate
/// consecutive indices.
pub fn mix(base: u64, index: u64) -> u64 {
    SplitMix64::new(base ^ index.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// A stable 64-bit hash of a suite name (FNV-1a), used as that suite's
/// stream tag so different suites draw disjoint case sequences.
pub fn stream_tag(name: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_decorrelates_indices() {
        let s: Vec<u64> = (0..100).map(|i| mix(99, i)).collect();
        let unique: std::collections::HashSet<&u64> = s.iter().collect();
        assert_eq!(unique.len(), 100);
    }
}
