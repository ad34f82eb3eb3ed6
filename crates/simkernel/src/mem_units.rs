//! Byte-quantity helpers used by configuration structures.

use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// A quantity of bytes with convenient KiB/MiB constructors.
///
/// Configuration structures throughout the workspace (cache sizes, SPM
/// sizes, data-set sizes from Table 2 of the paper) use `ByteSize` instead of
/// raw integers so the unit is always explicit.
///
/// # Example
///
/// ```
/// use simkernel::ByteSize;
///
/// let l1 = ByteSize::kib(32);
/// let l2_slice = ByteSize::kib(256);
/// assert_eq!(l1.bytes(), 32 * 1024);
/// assert_eq!((l2_slice / l1), 8);
/// assert_eq!(ByteSize::mib(16), ByteSize::kib(16 * 1024));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Creates a size from a raw byte count.
    #[inline]
    pub const fn bytes_exact(bytes: u64) -> Self {
        ByteSize(bytes)
    }

    /// Creates a size expressed in kibibytes (1024 bytes).
    #[inline]
    pub const fn kib(kib: u64) -> Self {
        ByteSize(kib * 1024)
    }

    /// Creates a size expressed in mebibytes (1024 KiB).
    #[inline]
    pub const fn mib(mib: u64) -> Self {
        ByteSize(mib * 1024 * 1024)
    }

    /// Creates a size expressed in gibibytes (1024 MiB).
    #[inline]
    pub const fn gib(gib: u64) -> Self {
        ByteSize(gib * 1024 * 1024 * 1024)
    }

    /// Returns the raw byte count.
    #[inline]
    pub const fn bytes(self) -> u64 {
        self.0
    }

    /// Returns the size in kibibytes, rounding down.
    #[inline]
    pub const fn as_kib(self) -> u64 {
        self.0 / 1024
    }

    /// Returns the size in mebibytes, rounding down.
    #[inline]
    pub const fn as_mib(self) -> u64 {
        self.0 / (1024 * 1024)
    }

    /// Returns `true` if the size is an exact power of two.
    #[inline]
    pub const fn is_power_of_two(self) -> bool {
        self.0.is_power_of_two()
    }

    /// Number of `block`-sized blocks that fit in this size, rounding up.
    ///
    /// # Panics
    ///
    /// Panics if `block` is zero bytes.
    pub fn blocks(self, block: ByteSize) -> u64 {
        assert!(block.0 > 0, "block size must be non-zero");
        self.0.div_ceil(block.0)
    }

    /// Returns the smaller of two sizes.
    pub fn min(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.min(other.0))
    }

    /// Returns the larger of two sizes.
    pub fn max(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.max(other.0))
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= 1024 * 1024 * 1024 && b.is_multiple_of(1024 * 1024 * 1024) {
            write!(f, "{} GiB", b / (1024 * 1024 * 1024))
        } else if b >= 1024 * 1024 && b.is_multiple_of(1024 * 1024) {
            write!(f, "{} MiB", b / (1024 * 1024))
        } else if b >= 1024 && b.is_multiple_of(1024) {
            write!(f, "{} KiB", b / 1024)
        } else {
            write!(f, "{b} B")
        }
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    /// Saturating: never underflows.
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;
    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 * rhs)
    }
}

impl Div for ByteSize {
    type Output = u64;
    /// Integer ratio of two sizes (how many `rhs` fit in `self`).
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: ByteSize) -> u64 {
        self.0 / rhs.0
    }
}

impl Div<u64> for ByteSize {
    type Output = ByteSize;
    /// Divides the size into `rhs` equal parts (rounding down).
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        assert_eq!(ByteSize::kib(32).bytes(), 32768);
        assert_eq!(ByteSize::mib(16).as_kib(), 16384);
        assert_eq!(ByteSize::gib(1).as_mib(), 1024);
        assert_eq!(ByteSize::bytes_exact(64).bytes(), 64);
    }

    #[test]
    fn arithmetic() {
        let a = ByteSize::kib(32);
        let b = ByteSize::kib(32);
        assert_eq!(a + b, ByteSize::kib(64));
        assert_eq!(a - b, ByteSize::ZERO);
        assert_eq!(b - ByteSize::kib(64), ByteSize::ZERO);
        assert_eq!(a * 2, ByteSize::kib(64));
        assert_eq!(ByteSize::mib(1) / ByteSize::kib(64), 16);
        assert_eq!(ByteSize::mib(1) / 4, ByteSize::kib(256));
    }

    #[test]
    fn blocks_rounds_up() {
        assert_eq!(
            ByteSize::bytes_exact(130).blocks(ByteSize::bytes_exact(64)),
            3
        );
        assert_eq!(
            ByteSize::bytes_exact(128).blocks(ByteSize::bytes_exact(64)),
            2
        );
    }

    #[test]
    fn display_picks_sensible_unit() {
        assert_eq!(ByteSize::bytes_exact(64).to_string(), "64 B");
        assert_eq!(ByteSize::kib(32).to_string(), "32 KiB");
        assert_eq!(ByteSize::mib(16).to_string(), "16 MiB");
        assert_eq!(ByteSize::gib(2).to_string(), "2 GiB");
        assert_eq!(ByteSize::bytes_exact(1536).to_string(), "1536 B");
    }

    #[test]
    fn power_of_two_and_minmax() {
        assert!(ByteSize::kib(32).is_power_of_two());
        assert!(!ByteSize::bytes_exact(100).is_power_of_two());
        assert_eq!(ByteSize::kib(1).min(ByteSize::kib(2)), ByteSize::kib(1));
        assert_eq!(ByteSize::kib(1).max(ByteSize::kib(2)), ByteSize::kib(2));
    }

    #[test]
    #[should_panic]
    fn blocks_zero_block_panics() {
        let _ = ByteSize::kib(1).blocks(ByteSize::ZERO);
    }
}
