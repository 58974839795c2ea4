//! Rank groups: the communicator subsets collectives run over.
//!
//! Distributed matrix algorithms operate on processor-grid rows,
//! columns, and fibers; a [`Group`] names such a subset of world
//! ranks, ordered (the i-th group member holds the i-th piece of any
//! scattered/gathered payload).

use std::sync::Arc;

/// An ordered, duplicate-free set of rank ids, shared: a clone
/// allocates nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Group {
    ranks: Arc<[usize]>,
}

impl Group {
    /// The world group `0..p`.
    pub fn all(p: usize) -> Group {
        Group {
            ranks: (0..p).collect(),
        }
    }

    /// A group from explicit rank ids. User-reachable configuration
    /// (grid shapes, replication factors) flows into groups, so an
    /// empty or duplicated member list is a typed error rather than a
    /// panic.
    pub fn new(ranks: Vec<usize>) -> Result<Group, crate::MachineError> {
        if ranks.is_empty() {
            return Err(crate::MachineError::invalid("empty rank group"));
        }
        let mut seen = ranks.clone();
        seen.sort_unstable();
        seen.dedup();
        if seen.len() != ranks.len() {
            return Err(crate::MachineError::invalid(format!(
                "duplicate ranks in group {ranks:?}"
            )));
        }
        Ok(Group {
            ranks: ranks.into(),
        })
    }

    /// Member rank ids in group order.
    #[inline]
    pub fn ranks(&self) -> &[usize] {
        &self.ranks
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// Whether the group is a singleton (collectives over it are
    /// free).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// The world rank of group member `idx`.
    #[inline]
    pub fn rank_at(&self, idx: usize) -> usize {
        self.ranks[idx]
    }

    /// Position of world rank `r` within the group, if a member.
    pub fn index_of(&self, r: usize) -> Option<usize> {
        self.ranks.iter().position(|&x| x == r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_group() {
        let g = Group::all(4);
        assert_eq!(g.ranks(), &[0, 1, 2, 3]);
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn membership_lookup() {
        let g = Group::new(vec![5, 2, 9]).unwrap();
        assert_eq!(g.index_of(2), Some(1));
        assert_eq!(g.index_of(7), None);
        assert_eq!(g.rank_at(2), 9);
    }

    #[test]
    fn duplicates_rejected() {
        assert!(matches!(
            Group::new(vec![1, 2, 1]),
            Err(crate::MachineError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn empty_rejected() {
        assert!(matches!(
            Group::new(vec![]),
            Err(crate::MachineError::InvalidConfig { .. })
        ));
    }
}
