//! The per-core SPM directory (SPMDir).
//!
//! The SPMDir is a small CAM with one entry per SPM buffer.  When the runtime
//! library maps a chunk of global memory into buffer *i* with a `dma-get`,
//! entry *i* is updated with the chunk's GM base address.  Because the entry
//! index *is* the buffer number, no RAM array is needed to store the SPM-side
//! address (§3.1 of the paper): the SPM address of a diverted access is the
//! buffer base plus the access offset.

use mem::Addr;

/// The per-core CAM tracking which GM chunks are mapped to the local SPM.
///
/// # Example
///
/// ```
/// use spm_coherence::SpmDir;
/// use mem::Addr;
///
/// let mut dir = SpmDir::new(32);
/// dir.map(0, Addr::new(0x4_0000));
/// assert_eq!(dir.lookup(Addr::new(0x4_0000)), Some(0));
/// assert_eq!(dir.lookup(Addr::new(0x8_0000)), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpmDir {
    entries: Vec<Option<Addr>>,
    /// Bitmask of occupied entries, valid only while `capacity ≤ 64`; lets
    /// `probe` skip the scan entirely when the directory is empty, the
    /// common case for workloads that never map guarded chunks.
    occupied: u64,
    lookups: u64,
    hits: u64,
    maps: u64,
}

impl SpmDir {
    /// Creates an SPMDir with `entries` entries (32 in Table 1).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "SPMDir needs at least one entry");
        SpmDir {
            entries: vec![None; entries],
            occupied: 0,
            lookups: 0,
            hits: 0,
            maps: 0,
        }
    }

    /// Number of entries (maximum number of simultaneously mapped buffers).
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Records that SPM buffer `buffer` now holds the chunk at `gm_base`.
    ///
    /// # Panics
    ///
    /// Panics if `buffer` is outside the directory.
    pub fn map(&mut self, buffer: usize, gm_base: Addr) {
        assert!(
            buffer < self.entries.len(),
            "buffer {buffer} outside the SPMDir"
        );
        self.entries[buffer] = Some(gm_base);
        if buffer < 64 {
            self.occupied |= 1 << buffer;
        }
        self.maps += 1;
    }

    /// Clears the entry for `buffer` (the buffer no longer holds GM data).
    ///
    /// # Panics
    ///
    /// Panics if `buffer` is outside the directory.
    pub fn unmap(&mut self, buffer: usize) {
        assert!(
            buffer < self.entries.len(),
            "buffer {buffer} outside the SPMDir"
        );
        self.entries[buffer] = None;
        if buffer < 64 {
            self.occupied &= !(1 << buffer);
        }
    }

    /// Clears every entry (end of a transformed loop).
    pub fn clear(&mut self) {
        self.entries.iter_mut().for_each(|e| *e = None);
        self.occupied = 0;
    }

    /// CAM lookup: returns the buffer holding `gm_base`, if any.
    pub fn lookup(&mut self, gm_base: Addr) -> Option<usize> {
        self.lookups += 1;
        let hit = self.probe(gm_base);
        if hit.is_some() {
            self.hits += 1;
        }
        hit
    }

    /// Lookup without touching the statistics (used by oracle models/tests).
    #[inline]
    pub fn probe(&self, gm_base: Addr) -> Option<usize> {
        if self.entries.len() <= 64 {
            // Walk only the occupied entries, in ascending index order —
            // identical result to the full scan, but O(mapped) instead of
            // O(capacity), and free when nothing is mapped.
            let mut mask = self.occupied;
            while mask != 0 {
                let i = mask.trailing_zeros() as usize;
                if self.entries[i] == Some(gm_base) {
                    return Some(i);
                }
                mask &= mask - 1;
            }
            None
        } else {
            self.entries.iter().position(|e| *e == Some(gm_base))
        }
    }

    /// The GM base currently mapped to `buffer`, if any.
    pub fn mapped_base(&self, buffer: usize) -> Option<Addr> {
        self.entries.get(buffer).copied().flatten()
    }

    /// Number of buffers currently holding a mapping.
    pub fn mapped_count(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Number of CAM lookups performed (energy proxy).
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Number of lookups that hit.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of `map` operations performed.
    pub fn maps(&self) -> u64 {
        self.maps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_lookup_unmap_cycle() {
        let mut d = SpmDir::new(32);
        assert_eq!(d.capacity(), 32);
        assert_eq!(d.mapped_count(), 0);
        d.map(3, Addr::new(0x1000));
        d.map(7, Addr::new(0x2000));
        assert_eq!(d.mapped_count(), 2);
        assert_eq!(d.lookup(Addr::new(0x1000)), Some(3));
        assert_eq!(d.lookup(Addr::new(0x2000)), Some(7));
        assert_eq!(d.lookup(Addr::new(0x3000)), None);
        assert_eq!(d.mapped_base(3), Some(Addr::new(0x1000)));
        d.unmap(3);
        assert_eq!(d.lookup(Addr::new(0x1000)), None);
        assert_eq!(d.mapped_base(3), None);
        assert_eq!(d.lookups(), 4);
        assert_eq!(d.hits(), 2);
        assert_eq!(d.maps(), 2);
    }

    #[test]
    fn remapping_a_buffer_replaces_its_chunk() {
        let mut d = SpmDir::new(4);
        d.map(0, Addr::new(0xa000));
        d.map(0, Addr::new(0xb000));
        assert_eq!(d.lookup(Addr::new(0xa000)), None);
        assert_eq!(d.lookup(Addr::new(0xb000)), Some(0));
    }

    #[test]
    fn clear_removes_everything() {
        let mut d = SpmDir::new(8);
        for i in 0..8 {
            d.map(i, Addr::new(0x1000 * (i as u64 + 1)));
        }
        assert_eq!(d.mapped_count(), 8);
        d.clear();
        assert_eq!(d.mapped_count(), 0);
        assert_eq!(d.probe(Addr::new(0x1000)), None);
    }

    #[test]
    fn probe_does_not_count_stats() {
        let mut d = SpmDir::new(2);
        d.map(1, Addr::new(0x40));
        assert_eq!(d.probe(Addr::new(0x40)), Some(1));
        assert_eq!(d.lookups(), 0);
        assert_eq!(d.hits(), 0);
    }

    #[test]
    #[should_panic]
    fn map_outside_capacity_panics() {
        SpmDir::new(4).map(4, Addr::new(0x1000));
    }

    #[test]
    #[should_panic]
    fn zero_entries_panics() {
        let _ = SpmDir::new(0);
    }
}
