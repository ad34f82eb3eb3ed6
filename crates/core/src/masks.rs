//! Base/Offset mask configuration registers.
//!
//! All the hardware structures of the protocol track data at a fixed
//! granularity: the SPM buffer size chosen by the runtime library before the
//! loop starts (§3.1 of the paper).  That size is notified to the hardware,
//! which derives two masks used to decompose any 64-bit GM virtual address
//! into a *base address* (used as the CAM search key) and an *address offset*
//! (added to the SPM buffer base when an access is diverted).

use simkernel::ByteSize;

use mem::Addr;

/// The Base Mask / Offset Mask register pair.
///
/// The tracking granularity is the largest power of two not larger than the
/// SPM buffer size, so a single AND decomposes an address.
///
/// # Example
///
/// ```
/// use spm_coherence::AddressMasks;
/// use mem::Addr;
/// use simkernel::ByteSize;
///
/// let masks = AddressMasks::for_buffer_size(ByteSize::kib(16));
/// let (base, offset) = masks.decompose(Addr::new(0x12_3456));
/// assert_eq!(base, Addr::new(0x12_0000));
/// assert_eq!(offset, 0x3456);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddressMasks {
    granularity: u64,
}

impl AddressMasks {
    /// Derives the masks for an SPM buffer of `buffer_size` bytes.
    ///
    /// The granularity is rounded down to a power of two (and clamped to at
    /// least one cache line, 64 bytes), which is what a real implementation
    /// with simple mask registers would do.
    ///
    /// # Panics
    ///
    /// Panics if `buffer_size` is zero.
    pub fn for_buffer_size(buffer_size: ByteSize) -> Self {
        let bytes = buffer_size.bytes();
        assert!(bytes > 0, "buffer size must be non-zero");
        let granularity = if bytes.is_power_of_two() {
            bytes
        } else {
            1u64 << (63 - bytes.leading_zeros())
        };
        AddressMasks {
            granularity: granularity.max(64),
        }
    }

    /// The tracking granularity in bytes (a power of two).
    pub fn granularity(&self) -> u64 {
        self.granularity
    }

    /// The base mask (upper bits).
    pub fn base_mask(&self) -> u64 {
        !(self.granularity - 1)
    }

    /// The offset mask (lower bits).
    pub fn offset_mask(&self) -> u64 {
        self.granularity - 1
    }

    /// Splits an address into `(base address, offset)`.
    pub fn decompose(&self, addr: Addr) -> (Addr, u64) {
        (self.base(addr), addr.raw() & self.offset_mask())
    }

    /// The base address of the chunk containing `addr`.
    pub fn base(&self, addr: Addr) -> Addr {
        Addr::new(addr.raw() & self.base_mask())
    }

    /// The offset of `addr` inside its chunk.
    pub fn offset(&self, addr: Addr) -> u64 {
        addr.raw() & self.offset_mask()
    }
}

impl Default for AddressMasks {
    /// Masks for the common two-buffer partitioning of a 32 KB SPM (16 KB
    /// buffers).
    fn default() -> Self {
        Self::for_buffer_size(ByteSize::kib(16))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_of_two_buffer_is_exact() {
        let m = AddressMasks::for_buffer_size(ByteSize::kib(8));
        assert_eq!(m.granularity(), 8192);
        assert_eq!(m.base_mask() & m.offset_mask(), 0);
        assert_eq!(m.base_mask() | m.offset_mask(), u64::MAX);
    }

    #[test]
    fn non_power_of_two_rounds_down() {
        // 32 KiB / 3 buffers = 10922 bytes -> 8 KiB granularity.
        let m = AddressMasks::for_buffer_size(ByteSize::bytes_exact(10922));
        assert_eq!(m.granularity(), 8192);
    }

    #[test]
    fn tiny_buffers_clamp_to_a_line() {
        let m = AddressMasks::for_buffer_size(ByteSize::bytes_exact(80));
        assert_eq!(m.granularity(), 64);
    }

    #[test]
    fn decompose_recomposes() {
        let m = AddressMasks::for_buffer_size(ByteSize::kib(16));
        for raw in [0u64, 0x3fff, 0x4000, 0x1234_5678, 0xffff_ffff_ffff_ffff] {
            let a = Addr::new(raw);
            let (base, offset) = m.decompose(a);
            assert_eq!(base.raw() + offset, raw);
            assert_eq!(m.base(a), base);
            assert_eq!(m.offset(a), offset);
            assert!(offset < m.granularity());
            assert_eq!(base.raw() % m.granularity(), 0);
        }
    }

    #[test]
    fn addresses_in_same_chunk_share_base() {
        let m = AddressMasks::for_buffer_size(ByteSize::kib(4));
        assert_eq!(m.base(Addr::new(0x9000)), m.base(Addr::new(0x9fff)));
        assert_ne!(m.base(Addr::new(0x9000)), m.base(Addr::new(0xa000)));
    }

    #[test]
    #[should_panic]
    fn zero_buffer_size_panics() {
        let _ = AddressMasks::for_buffer_size(ByteSize::ZERO);
    }
}
