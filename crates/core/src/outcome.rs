//! The result of executing a guarded (potentially incoherent) access.

use simkernel::{CoreId, Cycle};

use mem::{Addr, ServedBy};

/// Where a guarded access was ultimately served (Figure 5 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardedTarget {
    /// The data was not mapped to any SPM: the access was served by the
    /// normal cache hierarchy (cases *a* and *c*).
    GlobalMemory {
        /// Which level of the hierarchy provided the data.
        served_by: ServedBy,
    },
    /// The data was mapped to the local SPM (case *b*).
    LocalSpm {
        /// The SPM buffer holding the chunk.
        buffer: usize,
    },
    /// The data was mapped to a remote core's SPM (case *d*).
    RemoteSpm {
        /// The core whose SPM holds the chunk.
        owner: CoreId,
    },
}

/// Outcome of one guarded memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardedOutcome {
    /// Latency of the access on the issuing core's critical path.
    pub latency: Cycle,
    /// Where the access was served.
    pub target: GuardedTarget,
    /// Whether the filter lookup hit (`None` when no filter lookup happened,
    /// i.e. the local SPMDir hit first or the protocol is the ideal oracle).
    pub filter_hit: Option<bool>,
    /// The SPM virtual address the access was diverted to, when it was.
    ///
    /// The consistency mechanism of §3.4 notifies this address to the LSQ so
    /// it can re-check ordering against in-flight accesses and flush the
    /// pipeline on a violation.
    pub spm_virtual_addr: Option<Addr>,
    /// `true` when a store diverted to the local SPM also updated the
    /// global-memory copy through the cache hierarchy (the proposed
    /// protocol does, so a buffer that is never written back still leaves
    /// memory fresh; the ideal oracle does not).  The verification layer
    /// mirrors the data movement accordingly.
    pub gm_write_through: bool,
}

impl GuardedOutcome {
    /// Returns `true` if the access was diverted to an SPM (local or remote).
    pub fn diverted_to_spm(&self) -> bool {
        matches!(
            self.target,
            GuardedTarget::LocalSpm { .. } | GuardedTarget::RemoteSpm { .. }
        )
    }

    /// Returns `true` if the access was served by the cache hierarchy.
    pub fn served_by_global_memory(&self) -> bool {
        matches!(self.target, GuardedTarget::GlobalMemory { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates_follow_target() {
        let gm = GuardedOutcome {
            latency: Cycle::new(2),
            target: GuardedTarget::GlobalMemory {
                served_by: ServedBy::L1,
            },
            filter_hit: Some(true),
            spm_virtual_addr: None,
            gm_write_through: false,
        };
        assert!(gm.served_by_global_memory());
        assert!(!gm.diverted_to_spm());

        let local = GuardedOutcome {
            latency: Cycle::new(2),
            target: GuardedTarget::LocalSpm { buffer: 1 },
            filter_hit: None,
            spm_virtual_addr: Some(Addr::new(0x1000)),
            gm_write_through: false,
        };
        assert!(local.diverted_to_spm());
        assert!(!local.served_by_global_memory());

        let remote = GuardedOutcome {
            latency: Cycle::new(40),
            target: GuardedTarget::RemoteSpm {
                owner: CoreId::new(9),
            },
            filter_hit: Some(false),
            spm_virtual_addr: Some(Addr::new(0x2000)),
            gm_write_through: false,
        };
        assert!(remote.diverted_to_spm());
    }
}
