//! The residency receipt of a copy (DESIGN §5.3).

use mfbc_machine::{Machine, MachineError};

/// The `(rank, bytes)` pairs one copy a plan makes — a broadcast
/// panel, a replica, a partial, a cached form — charged, in charge
/// order; it releases exactly those. A matrix its owner holds
/// recomputes its residency from its blocks instead
/// ([`DistMat::charge_memory`](crate::DistMat::charge_memory)).
///
/// Dropping it releases nothing: a rollback drops its copies and
/// restores a memory snapshot that already undoes their charges.
#[must_use = "a copy's residency is released through its receipt"]
#[derive(Debug, Default)]
pub(crate) struct Held(Vec<(usize, u64)>);

impl Held {
    /// A receipt with `charges` charged in order. A failing charge
    /// leaves the earlier ones charged, for the caller's rollback.
    pub fn charged(
        m: &Machine,
        charges: impl IntoIterator<Item = (usize, u64)>,
    ) -> Result<Held, MachineError> {
        let mut held = Held::default();
        for (rank, bytes) in charges {
            held.charge(m, rank, bytes)?;
        }
        Ok(held)
    }

    /// Charges `bytes` on `rank` to this copy.
    pub fn charge(&mut self, m: &Machine, rank: usize, bytes: u64) -> Result<(), MachineError> {
        self.0.push((rank, bytes));
        m.charge_alloc(rank, bytes)
    }

    /// Releases everything this copy charged.
    pub fn release(self, m: &Machine) {
        for (rank, bytes) in self.0 {
            m.release(rank, bytes);
        }
    }
}

#[cfg(test)]
impl Held {
    /// The `(rank, bytes)` pairs charged, in charge order.
    pub fn charges(&self) -> &[(usize, u64)] {
        &self.0
    }
}
