//! SPM address-space mapping (paper Figure 2).
//!
//! The system reserves a contiguous range of the virtual (and physical)
//! address space for the scratchpads: one equally-sized window per core.
//! Every core keeps eight registers describing the global SPM range, its
//! local window and the corresponding physical ranges.  A range check on
//! every memory instruction decides whether the access targets an SPM — in
//! which case the MMU/TLB is bypassed and the physical SPM address is formed
//! directly — or regular global memory.

use simkernel::{ByteSize, CoreId};

use mem::{Addr, AddressRange};

/// Default virtual base address of the global SPM window.
///
/// The SPM window occupies a tiny fraction of the 64-bit address space far
/// away from ordinary heap/stack allocations, as in the paper.
pub const DEFAULT_SPM_VIRTUAL_BASE: u64 = 0xFFFF_8000_0000_0000;

/// Default physical base address of the SPM window.
pub const DEFAULT_SPM_PHYSICAL_BASE: u64 = 0x0000_2000_0000_0000;

/// The per-core SPM address-mapping registers and the global window layout.
///
/// # Example
///
/// ```
/// use spm::SpmAddressMap;
/// use simkernel::{ByteSize, CoreId};
///
/// let map = SpmAddressMap::new(64, ByteSize::kib(32));
/// let local = map.local_range(CoreId::new(3));
/// assert_eq!(local.len(), 32 * 1024);
/// let addr = map.spm_addr(CoreId::new(3), 0x100);
/// assert_eq!(map.owner_of(addr), Some(CoreId::new(3)));
/// assert!(map.is_spm_addr(addr));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpmAddressMap {
    cores: usize,
    spm_size: ByteSize,
    virtual_base: Addr,
    physical_base: Addr,
}

impl SpmAddressMap {
    /// Creates the mapping for `cores` scratchpads of `spm_size` each, using
    /// the default reserved window.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or `spm_size` is zero.
    pub fn new(cores: usize, spm_size: ByteSize) -> Self {
        Self::with_bases(
            cores,
            spm_size,
            Addr::new(DEFAULT_SPM_VIRTUAL_BASE),
            Addr::new(DEFAULT_SPM_PHYSICAL_BASE),
        )
    }

    /// Creates the mapping with explicit virtual and physical base addresses.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or `spm_size` is zero.
    pub fn with_bases(
        cores: usize,
        spm_size: ByteSize,
        virtual_base: Addr,
        physical_base: Addr,
    ) -> Self {
        assert!(cores > 0, "need at least one core");
        assert!(spm_size.bytes() > 0, "SPM size must be non-zero");
        SpmAddressMap {
            cores,
            spm_size,
            virtual_base,
            physical_base,
        }
    }

    /// Number of scratchpads mapped.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Size of each scratchpad.
    pub fn spm_size(&self) -> ByteSize {
        self.spm_size
    }

    /// The global virtual range covering every SPM (the "global SPM range"
    /// registers of the paper).
    pub fn global_range(&self) -> AddressRange {
        AddressRange::new(self.virtual_base, self.spm_size.bytes() * self.cores as u64)
    }

    /// The virtual range of one core's SPM (the "local SPM" registers).
    ///
    /// # Panics
    ///
    /// Panics if the core is out of range.
    pub fn local_range(&self, core: CoreId) -> AddressRange {
        assert!(core.index() < self.cores, "core {core} outside the SPM map");
        let start = self.virtual_base + self.spm_size.bytes() * core.index() as u64;
        AddressRange::new(start, self.spm_size.bytes())
    }

    /// Returns `true` if the virtual address falls inside any SPM window.
    ///
    /// This is the range check performed on every memory instruction before
    /// any MMU action takes place.
    pub fn is_spm_addr(&self, vaddr: Addr) -> bool {
        self.global_range().contains(vaddr)
    }

    /// Returns the core whose SPM contains `vaddr`, if any.
    pub fn owner_of(&self, vaddr: Addr) -> Option<CoreId> {
        if !self.is_spm_addr(vaddr) {
            return None;
        }
        let offset = vaddr - self.virtual_base;
        Some(CoreId::new((offset / self.spm_size.bytes()) as usize))
    }

    /// Returns the byte offset of `vaddr` inside its SPM, if it is an SPM address.
    pub fn offset_of(&self, vaddr: Addr) -> Option<u64> {
        self.owner_of(vaddr)
            .map(|core| vaddr - self.local_range(core).start())
    }

    /// Builds the virtual address of byte `offset` inside `core`'s SPM.
    ///
    /// # Panics
    ///
    /// Panics if the core or offset is out of range.
    pub fn spm_addr(&self, core: CoreId, offset: u64) -> Addr {
        assert!(
            offset < self.spm_size.bytes(),
            "offset {offset:#x} outside the SPM"
        );
        self.local_range(core).start() + offset
    }

    /// Translates an SPM virtual address into its physical address, bypassing
    /// the MMU (the direct mapping of Figure 2).
    ///
    /// Returns `None` for addresses outside the SPM window.
    pub fn translate(&self, vaddr: Addr) -> Option<Addr> {
        if !self.is_spm_addr(vaddr) {
            return None;
        }
        Some(self.physical_base + (vaddr - self.virtual_base))
    }

    /// Returns `true` if `vaddr` belongs to `core`'s own scratchpad.
    pub fn is_local(&self, core: CoreId, vaddr: Addr) -> bool {
        self.owner_of(vaddr) == Some(core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> SpmAddressMap {
        SpmAddressMap::new(64, ByteSize::kib(32))
    }

    #[test]
    fn global_range_covers_all_spms() {
        let m = map();
        assert_eq!(m.global_range().len(), 64 * 32 * 1024);
        assert_eq!(m.cores(), 64);
        assert_eq!(m.spm_size(), ByteSize::kib(32));
    }

    #[test]
    fn local_ranges_are_disjoint_and_contiguous() {
        let m = map();
        for i in 0..63 {
            let a = m.local_range(CoreId::new(i));
            let b = m.local_range(CoreId::new(i + 1));
            assert_eq!(a.end(), b.start(), "windows must be back to back");
            assert!(!a.overlaps(&b));
        }
    }

    #[test]
    fn range_check_identifies_spm_addresses() {
        let m = map();
        let inside = m.spm_addr(CoreId::new(10), 0x123);
        assert!(m.is_spm_addr(inside));
        assert_eq!(m.owner_of(inside), Some(CoreId::new(10)));
        assert_eq!(m.offset_of(inside), Some(0x123));
        assert!(m.is_local(CoreId::new(10), inside));
        assert!(!m.is_local(CoreId::new(11), inside));

        let outside = Addr::new(0x1000);
        assert!(!m.is_spm_addr(outside));
        assert_eq!(m.owner_of(outside), None);
        assert_eq!(m.offset_of(outside), None);
        assert_eq!(m.translate(outside), None);
    }

    #[test]
    fn boundaries_are_half_open() {
        let m = map();
        let first = m.global_range().start();
        let last = m.global_range().end();
        assert!(m.is_spm_addr(first));
        assert!(!m.is_spm_addr(last));
        assert_eq!(m.owner_of(last - 1u64), Some(CoreId::new(63)));
    }

    #[test]
    fn translation_is_a_fixed_offset() {
        let m = map();
        let v = m.spm_addr(CoreId::new(5), 0x40);
        let p = m.translate(v).unwrap();
        assert_eq!(
            p - Addr::new(DEFAULT_SPM_PHYSICAL_BASE),
            v - Addr::new(DEFAULT_SPM_VIRTUAL_BASE)
        );
    }

    #[test]
    fn custom_bases() {
        let m = SpmAddressMap::with_bases(
            2,
            ByteSize::kib(4),
            Addr::new(0x1_0000),
            Addr::new(0x9_0000),
        );
        assert_eq!(m.local_range(CoreId::new(1)).start(), Addr::new(0x1_1000));
        assert_eq!(m.translate(Addr::new(0x1_0010)), Some(Addr::new(0x9_0010)));
    }

    #[test]
    #[should_panic]
    fn offset_outside_spm_panics() {
        map().spm_addr(CoreId::new(0), 32 * 1024);
    }

    #[test]
    #[should_panic]
    fn core_outside_map_panics() {
        map().local_range(CoreId::new(64));
    }
}
