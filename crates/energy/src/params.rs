//! Per-event energies and leakage powers (22 nm ballpark figures).

/// Per-event dynamic energies (in picojoules) and per-component leakage
/// powers (in milliwatts, whole chip) used by [`crate::EnergyModel`].
///
/// The absolute values are CACTI/McPAT-class estimates for a 22 nm process;
/// what matters for reproducing the paper is their *relative* magnitude
/// (an SPM access is much cheaper than a cache access because it skips the
/// TLB and tag CAMs; a DRAM access is two orders of magnitude above an L1
/// hit; small CAMs are cheap), which these defaults preserve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// Energy per executed instruction in the core pipeline (pJ), including
    /// fetch/decode/rename/execute overheads.
    pub cpu_per_instruction_pj: f64,
    /// Extra energy burnt per stall cycle in a core (clock tree, ROB, ...).
    pub cpu_per_stall_cycle_pj: f64,
    /// Energy per L1 access (tag + data + TLB lookup), pJ.
    pub l1_access_pj: f64,
    /// Energy per L2 slice access, pJ.
    pub l2_access_pj: f64,
    /// Energy per DRAM line access, pJ.
    pub dram_access_pj: f64,
    /// Energy per SPM access (no TLB, no tag CAM), pJ.
    pub spm_access_pj: f64,
    /// Energy per DMA line moved by a DMAC, pJ (engine + queue overhead).
    pub dmac_per_line_pj: f64,
    /// Energy per NoC flit-hop (router + link), pJ.
    pub noc_flit_hop_pj: f64,
    /// Energy per lookup of a small CAM (filter, SPMDir), pJ.
    pub small_cam_lookup_pj: f64,
    /// Energy per filterDir slice lookup/update, pJ.
    pub filterdir_lookup_pj: f64,
    /// Energy per cache-directory lookup/update in the baseline protocol, pJ.
    pub cache_directory_lookup_pj: f64,

    /// Leakage power of all cores (mW).
    pub cpu_leakage_mw: f64,
    /// Leakage power of the whole cache hierarchy (mW).
    pub cache_leakage_mw: f64,
    /// Leakage power of the NoC (mW).
    pub noc_leakage_mw: f64,
    /// Leakage power of the "others" group: cache directory, DMACs, memory
    /// controllers (mW).
    pub others_leakage_mw: f64,
    /// Leakage power of all SPMs (mW).
    pub spm_leakage_mw: f64,
    /// Leakage power of the coherence-protocol structures: SPMDirs, filters,
    /// filterDir (mW).
    pub cohprot_leakage_mw: f64,
}

impl EnergyParams {
    /// Default 22 nm parameters for the 64-core machine of Table 1.
    pub fn isca2015_22nm() -> Self {
        EnergyParams {
            cpu_per_instruction_pj: 20.0,
            cpu_per_stall_cycle_pj: 6.0,
            l1_access_pj: 25.0,
            l2_access_pj: 60.0,
            dram_access_pj: 2500.0,
            spm_access_pj: 7.0,
            dmac_per_line_pj: 12.0,
            noc_flit_hop_pj: 5.0,
            small_cam_lookup_pj: 2.0,
            filterdir_lookup_pj: 6.0,
            cache_directory_lookup_pj: 6.0,
            cpu_leakage_mw: 3200.0,
            cache_leakage_mw: 2600.0,
            noc_leakage_mw: 650.0,
            others_leakage_mw: 500.0,
            spm_leakage_mw: 260.0,
            cohprot_leakage_mw: 110.0,
        }
    }

    /// Scales the per-chip leakage powers for a machine with fewer cores than
    /// the 64-core reference (leakage is proportional to instantiated
    /// hardware).
    pub fn scaled_to_cores(mut self, cores: usize) -> Self {
        let f = cores as f64 / 64.0;
        self.cpu_leakage_mw *= f;
        self.cache_leakage_mw *= f;
        self.noc_leakage_mw *= f;
        self.others_leakage_mw *= f;
        self.spm_leakage_mw *= f;
        self.cohprot_leakage_mw *= f;
        self
    }
}

impl Default for EnergyParams {
    fn default() -> Self {
        Self::isca2015_22nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_magnitudes_are_sane() {
        let p = EnergyParams::default();
        assert!(
            p.spm_access_pj < p.l1_access_pj,
            "SPM must be cheaper than L1"
        );
        assert!(p.l1_access_pj < p.l2_access_pj);
        assert!(p.l2_access_pj < p.dram_access_pj);
        assert!(p.small_cam_lookup_pj < p.l1_access_pj);
        assert!(p.noc_flit_hop_pj < p.l1_access_pj);
    }

    #[test]
    fn leakage_scales_with_cores() {
        let p = EnergyParams::default().scaled_to_cores(16);
        let full = EnergyParams::default();
        assert!((p.cpu_leakage_mw - full.cpu_leakage_mw / 4.0).abs() < 1e-9);
        assert!((p.spm_leakage_mw - full.spm_leakage_mw / 4.0).abs() < 1e-9);
    }
}
