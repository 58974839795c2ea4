//! Collectives as the tensor layer holds them: one [`Pending`] per
//! posted collective, plus the typed, data-moving forms that still
//! have callers.
//!
//! The tensor layer drives distributed algorithms from a "global
//! view": a distributed object is a `Vec` with one element per group
//! member, and a collective both *moves the data* between those
//! slots and charges the α–β cost to every participant's critical
//! path. Because the data movement is real, a mis-specified
//! communication pattern produces wrong results, not merely wrong
//! cost numbers — the property that makes this simulation a faithful
//! substitute for MPI executions.
//!
//! A schedule posts every collective through
//! [`Machine::post_collective`], which decides *how* it completes —
//! free on a one-rank group, in flight under overlapped accounting,
//! charged on the spot otherwise — and hands back the delivered value
//! behind a [`Pending`]; the schedule decides only *when* it posts
//! and when it waits. [`allgather`] and [`sparse_reduce`] are the
//! always-blocking typed forms: the first is the wall-clock
//! benchmark's probe, the second 1D variant C's reduction.

use crate::comm::Group;
use crate::cost::CollectiveKind;
use crate::{Machine, MachineError};
use std::sync::Arc;

/// Types that know their wire size in bytes.
pub trait Volume {
    /// Bytes this value would occupy in a message.
    fn comm_bytes(&self) -> u64;
}

impl<T: Volume> Volume for Vec<T> {
    fn comm_bytes(&self) -> u64 {
        self.iter().map(Volume::comm_bytes).sum()
    }
}

macro_rules! pod_volume {
    ($($t:ty),*) => {$(
        impl Volume for $t {
            fn comm_bytes(&self) -> u64 {
                std::mem::size_of::<$t>() as u64
            }
        }
    )*};
}

pod_volume!(u8, u64);

impl<T> Volume for mfbc_sparse::Csr<T> {
    fn comm_bytes(&self) -> u64 {
        self.payload_bytes() as u64
    }
}

/// A posted collective: the delivered value plus, while the
/// collective is in flight, the machine handle that must be waited
/// before the value may be used.
///
/// The simulated data movement happens eagerly at the post (the
/// simulated wire is in-process), so the *value* is already here —
/// but using it before the machine has waited out the handle would
/// let an algorithm consume data whose modeled transfer has not
/// completed. [`Pending::wait`] is the only way to the value: it
/// completes the collective on the machine's clocks and releases it.
#[derive(Debug)]
#[must_use = "a posted collective completes only when it is waited"]
pub struct Pending<T> {
    value: T,
    handle: Option<u64>,
}

impl<T> Pending<T> {
    /// A value with nothing in flight: a collective already charged,
    /// or none at all (a cache hit moves nothing).
    pub fn ready(value: T) -> Pending<T> {
        Pending {
            value,
            handle: None,
        }
    }

    pub(crate) fn inflight(value: T, handle: u64) -> Pending<T> {
        Pending {
            value,
            handle: Some(handle),
        }
    }

    /// Transforms the gated value without touching the handle: the
    /// result still requires the same wait before use.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Pending<U> {
        Pending {
            value: f(self.value),
            handle: self.handle,
        }
    }

    /// Waits out the collective on `m`'s clocks and releases the
    /// delivered value.
    pub fn wait(self, m: &Machine) -> Result<T, MachineError> {
        if let Some(h) = self.handle {
            m.wait_collective(h)?;
        }
        Ok(self.value)
    }
}

/// Waits out every posted collective in `posted`, in order, and
/// returns their values.
pub fn wait_all<T>(
    m: &Machine,
    posted: impl IntoIterator<Item = Pending<T>>,
) -> Result<Vec<T>, MachineError> {
    posted.into_iter().map(|p| p.wait(m)).collect()
}

/// Sparse reduce: combines one contribution per member, folded in
/// group order, into a single value delivered at the root; charged by
/// the *result* size (§5.1: "the cost of a sparse reduction where the
/// resulting array has x nonzeros is also O(β·x + α·log p)").
/// `combine` must be associative and commutative.
pub fn sparse_reduce<T: Volume>(
    m: &Machine,
    g: &Group,
    contribs: Vec<T>,
    combine: impl FnMut(T, T) -> T,
) -> Result<T, MachineError> {
    assert_eq!(contribs.len(), g.len(), "one contribution per member");
    let result = contribs
        .into_iter()
        .reduce(combine)
        .expect("group is non-empty");
    m.charge_collective(g, CollectiveKind::SparseReduce, result.comm_bytes())?;
    Ok(result)
}

/// Allgather: every member ends with all members' pieces (in group
/// order), shared behind one `Arc`.
pub fn allgather<T: Volume>(
    m: &Machine,
    g: &Group,
    parts: Vec<T>,
) -> Result<Vec<Arc<Vec<T>>>, MachineError> {
    assert_eq!(parts.len(), g.len(), "one piece per member");
    m.charge_collective(g, CollectiveKind::Allgather, parts.comm_bytes())?;
    let all = Arc::new(parts);
    Ok((0..g.len()).map(|_| Arc::clone(&all)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::MachineSpec;

    fn machine(p: usize) -> Machine {
        Machine::new(MachineSpec::test(p))
    }

    #[test]
    fn broadcast_replicates_and_charges() {
        let m = machine(4);
        let g = m.world();
        let payload = vec![1u64, 2, 3];
        let bytes = payload.comm_bytes();
        let posted = m
            .post_collective(&g, CollectiveKind::Broadcast, bytes, Arc::new(payload))
            .unwrap();
        assert_eq!(*posted.wait(&m).unwrap(), vec![1, 2, 3]);
        let r = m.report();
        assert_eq!(r.critical.bytes, 2 * 24);
    }

    #[test]
    fn reduce_folds_in_group_order() {
        let m = machine(3);
        let g = m.world();
        let out = sparse_reduce(&m, &g, vec![vec![1u64], vec![2], vec![3]], |mut a, b| {
            a.extend(b);
            a
        })
        .unwrap();
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn sparse_reduce_charges_result_size() {
        let m = machine(4);
        let g = m.world();
        // Contributions of 8 bytes each, result of 8 bytes (u64 sum).
        let _ = sparse_reduce(&m, &g, vec![1u64, 2, 3, 4], |a, b| a + b).unwrap();
        let r = m.report();
        assert_eq!(r.critical.bytes, 8);
    }

    #[test]
    fn allgather_shares_all_pieces() {
        let m = machine(3);
        let g = m.world();
        let out = allgather(&m, &g, vec![10u64, 20, 30]).unwrap();
        assert_eq!(*out[1], vec![10, 20, 30]);
        assert_eq!(m.report().critical.bytes, 24);
    }

    #[test]
    fn singleton_group_collectives_are_free() {
        let m = machine(1);
        let g = m.world();
        let posted = m
            .post_collective(&g, CollectiveKind::Broadcast, 8, 7u64)
            .unwrap();
        assert_eq!(posted.wait(&m).unwrap(), 7);
        m.charge_collective(&g, CollectiveKind::Allreduce, 8)
            .unwrap();
        let _ = sparse_reduce(&m, &g, vec![7u64], |a, _| a).unwrap();
        let _ = allgather(&m, &g, vec![7u64]).unwrap();
        assert_eq!(m.report().critical.msgs, 0);
        assert_eq!(m.report().critical.bytes, 0);
        assert_eq!(m.collective_seq(), 0, "a one-rank group ticks no clock");
    }

    #[test]
    fn nonblocking_wrappers_match_blocking_results_and_meters() {
        // Posting on an overlapped machine and waiting at once charges
        // exactly what the blocking post charges on the spot.
        let run = |overlap: bool| {
            let m = Machine::new(MachineSpec::test(3).with_overlap(overlap));
            let g = m.world();
            let mut out = Vec::new();
            for (kind, bytes) in [
                (CollectiveKind::Broadcast, 16),
                (CollectiveKind::Allgather, 24),
                (CollectiveKind::SparseReduce, 8),
            ] {
                let posted = m.post_collective(&g, kind, bytes, bytes).unwrap();
                assert_eq!(m.outstanding_collectives(), usize::from(overlap));
                out.push(posted.wait(&m).unwrap());
            }
            (out, m.report().critical, m.makespan_s().to_bits())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn singleton_nonblocking_collectives_are_free() {
        let m = Machine::new(MachineSpec::test(1).with_overlap(true));
        let g = m.world();
        let posted = m
            .post_collective(&g, CollectiveKind::Broadcast, 8, 7u64)
            .unwrap();
        assert_eq!(m.outstanding_collectives(), 0);
        assert_eq!(posted.wait(&m).unwrap(), 7);
        assert_eq!(m.report().critical.msgs, 0);
        assert_eq!(m.collective_seq(), 0);
    }

    #[test]
    fn csr_volume_counts_payload() {
        use mfbc_algebra::monoid::SumU64;
        let c = mfbc_sparse::Coo::from_triples(2, 2, vec![(0usize, 0usize, 1u64), (1, 1, 2)])
            .into_csr::<SumU64>();
        // 2 entries × (8-byte value + 4-byte index)
        assert_eq!(c.comm_bytes(), 24);
    }
}
