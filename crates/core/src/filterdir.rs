//! The filter directory (filterDir).
//!
//! The filterDir extends the cache directory with a CAM of GM base addresses
//! known not to be mapped to any SPM plus, for each, a bit-vector of the
//! cores that cache the address in their filters (§3.1 of the paper).  It is
//! physically distributed: each tile holds one slice, and a base address is
//! homed on a slice by address interleaving, just like L2 lines.
//!
//! The filterDir is involved in two flows:
//!
//! * **Filter update** (Figure 6b): a filter miss asks the home slice.  A hit
//!   means "not mapped anywhere" — the requestor is added to the sharers and
//!   can cache the address.  A miss triggers a broadcast probe of every
//!   SPMDir; only if all cores NACK is the address inserted and the requestor
//!   allowed to filter it.
//! * **Filter invalidation** (Figure 6a): when a DMA transfer maps a chunk to
//!   an SPM, the matching filterDir entry (if any) is removed and every core
//!   in its sharers list invalidates its filter entry.

use simkernel::CoreId;

use mem::Addr;

/// One entry evicted from the filterDir; its sharers must invalidate their filters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictedFilterEntry {
    /// The GM base address that is no longer tracked.
    pub base: Addr,
    /// The cores that were caching it in their filters.
    pub sharers: Vec<CoreId>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    base: Addr,
    sharers: u64,
    tick: u64,
}

impl Entry {
    fn sharer_list(&self) -> Vec<CoreId> {
        (0..64)
            .filter(|i| (self.sharers >> i) & 1 == 1)
            .map(CoreId::new)
            .collect()
    }
}

/// The distributed filter directory (4K entries total in Table 1).
///
/// # Example
///
/// ```
/// use spm_coherence::FilterDir;
/// use mem::Addr;
/// use simkernel::CoreId;
///
/// let mut fd = FilterDir::new(4096, 64);
/// assert!(!fd.contains(Addr::new(0x1000)));
/// fd.insert(Addr::new(0x1000), CoreId::new(3));
/// assert!(fd.contains(Addr::new(0x1000)));
/// let sharers = fd.invalidate(Addr::new(0x1000)).unwrap();
/// assert_eq!(sharers, vec![CoreId::new(3)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterDir {
    slices: usize,
    entries_per_slice: usize,
    slice_entries: Vec<Vec<Entry>>,
    tick: u64,
    lookups: u64,
    hits: u64,
    insertions: u64,
    invalidations: u64,
    evictions: u64,
    sharer_updates: u64,
}

impl FilterDir {
    /// Creates a filterDir with `total_entries` entries distributed over
    /// `slices` tiles.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(total_entries: usize, slices: usize) -> Self {
        assert!(total_entries > 0, "filterDir needs at least one entry");
        assert!(slices > 0, "filterDir needs at least one slice");
        let entries_per_slice = total_entries.div_ceil(slices).max(1);
        FilterDir {
            slices,
            entries_per_slice,
            slice_entries: vec![Vec::new(); slices],
            tick: 0,
            lookups: 0,
            hits: 0,
            insertions: 0,
            invalidations: 0,
            evictions: 0,
            sharer_updates: 0,
        }
    }

    /// Total capacity across all slices.
    pub fn capacity(&self) -> usize {
        self.entries_per_slice * self.slices
    }

    /// Number of slices (one per tile).
    pub fn slices(&self) -> usize {
        self.slices
    }

    /// The tile whose slice is home for a base address.
    pub fn home_slice(&self, base: Addr) -> CoreId {
        // Interleave at the tracking granularity; mix the bits a little so
        // regular strides spread over the slices.
        let chunk = base.raw() >> 6;
        CoreId::new(((chunk ^ (chunk >> 7)) % self.slices as u64) as usize)
    }

    /// Returns `true` if the base address is tracked (i.e. known not mapped).
    pub fn contains(&self, base: Addr) -> bool {
        let slice = self.home_slice(base).index();
        self.slice_entries[slice].iter().any(|e| e.base == base)
    }

    /// Directory lookup performed on behalf of a filter miss (Figure 6b
    /// step 1).  On a hit the requestor is added to the sharers list.
    ///
    /// Returns `true` on a hit.
    pub fn lookup_and_share(&mut self, base: Addr, requestor: CoreId) -> bool {
        self.lookups += 1;
        self.tick += 1;
        let tick = self.tick;
        let slice = self.home_slice(base).index();
        if let Some(entry) = self.slice_entries[slice]
            .iter_mut()
            .find(|e| e.base == base)
        {
            entry.sharers |= 1u64 << (requestor.index() % 64);
            entry.tick = tick;
            self.hits += 1;
            self.sharer_updates += 1;
            true
        } else {
            false
        }
    }

    /// Inserts a base address confirmed (by a broadcast of NACKs) to be
    /// unmapped, with `requestor` as its first sharer.
    ///
    /// Returns the evicted entry if the home slice was full; its sharers must
    /// be told to invalidate their filters (Figure 6a step 2 applied to the
    /// victim).
    pub fn insert(&mut self, base: Addr, requestor: CoreId) -> Option<EvictedFilterEntry> {
        self.tick += 1;
        let tick = self.tick;
        let slice = self.home_slice(base).index();
        if let Some(entry) = self.slice_entries[slice]
            .iter_mut()
            .find(|e| e.base == base)
        {
            entry.sharers |= 1u64 << (requestor.index() % 64);
            entry.tick = tick;
            return None;
        }
        self.insertions += 1;
        let new_entry = Entry {
            base,
            sharers: 1u64 << (requestor.index() % 64),
            tick,
        };
        if self.slice_entries[slice].len() < self.entries_per_slice {
            self.slice_entries[slice].push(new_entry);
            return None;
        }
        // Evict the pseudo-LRU entry of the slice.
        let victim_idx = self.slice_entries[slice]
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.tick)
            .map(|(i, _)| i)
            .expect("slice is full, so non-empty");
        let victim = std::mem::replace(&mut self.slice_entries[slice][victim_idx], new_entry);
        self.evictions += 1;
        Some(EvictedFilterEntry {
            base: victim.base,
            sharers: victim.sharer_list(),
        })
    }

    /// Removes the entry for `base` because a DMA transfer just mapped it to
    /// an SPM (Figure 6a).  Returns the sharers whose filters must be
    /// invalidated, or `None` if the address was not tracked.
    pub fn invalidate(&mut self, base: Addr) -> Option<Vec<CoreId>> {
        let slice = self.home_slice(base).index();
        let pos = self.slice_entries[slice]
            .iter()
            .position(|e| e.base == base)?;
        let entry = self.slice_entries[slice].swap_remove(pos);
        self.invalidations += 1;
        Some(entry.sharer_list())
    }

    /// Removes `core` from the sharers of `base` (the core evicted the entry
    /// from its filter and notified the directory).
    pub fn remove_sharer(&mut self, base: Addr, core: CoreId) {
        let slice = self.home_slice(base).index();
        if let Some(entry) = self.slice_entries[slice]
            .iter_mut()
            .find(|e| e.base == base)
        {
            entry.sharers &= !(1u64 << (core.index() % 64));
            self.sharer_updates += 1;
        }
    }

    /// The sharers currently recorded for `base`.
    pub fn sharers(&self, base: Addr) -> Vec<CoreId> {
        let slice = self.home_slice(base).index();
        self.slice_entries[slice]
            .iter()
            .find(|e| e.base == base)
            .map(|e| e.sharer_list())
            .unwrap_or_default()
    }

    /// Number of entries currently resident over all slices.
    pub fn occupancy(&self) -> usize {
        self.slice_entries.iter().map(|s| s.len()).sum()
    }

    /// Number of directory lookups.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Number of directory lookups that hit.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of insertions.
    pub fn insertions(&self) -> u64 {
        self.insertions
    }

    /// Number of entries invalidated by DMA mappings.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Number of capacity evictions.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_share() {
        let mut fd = FilterDir::new(4096, 64);
        assert_eq!(fd.capacity(), 4096);
        assert!(!fd.lookup_and_share(Addr::new(0x1000), CoreId::new(0)));
        assert!(fd.insert(Addr::new(0x1000), CoreId::new(0)).is_none());
        assert!(fd.lookup_and_share(Addr::new(0x1000), CoreId::new(5)));
        let mut sharers = fd.sharers(Addr::new(0x1000));
        sharers.sort();
        assert_eq!(sharers, vec![CoreId::new(0), CoreId::new(5)]);
        assert_eq!(fd.occupancy(), 1);
        assert_eq!(fd.hits(), 1);
        assert_eq!(fd.lookups(), 2);
    }

    #[test]
    fn invalidate_returns_sharers() {
        let mut fd = FilterDir::new(128, 4);
        fd.insert(Addr::new(0x4000), CoreId::new(1));
        fd.lookup_and_share(Addr::new(0x4000), CoreId::new(2));
        let sharers = fd.invalidate(Addr::new(0x4000)).unwrap();
        assert_eq!(sharers.len(), 2);
        assert!(!fd.contains(Addr::new(0x4000)));
        assert_eq!(fd.invalidate(Addr::new(0x4000)), None);
        assert_eq!(fd.invalidations(), 1);
    }

    #[test]
    fn remove_sharer_after_filter_eviction() {
        let mut fd = FilterDir::new(128, 4);
        fd.insert(Addr::new(0x8000), CoreId::new(3));
        fd.lookup_and_share(Addr::new(0x8000), CoreId::new(4));
        fd.remove_sharer(Addr::new(0x8000), CoreId::new(3));
        assert_eq!(fd.sharers(Addr::new(0x8000)), vec![CoreId::new(4)]);
        // Removing from an untracked base is a no-op.
        fd.remove_sharer(Addr::new(0x9000), CoreId::new(3));
    }

    #[test]
    fn slice_eviction_reports_victim_sharers() {
        // 4 entries over 1 slice: the fifth insertion evicts.
        let mut fd = FilterDir::new(4, 1);
        for i in 0..4u64 {
            assert!(fd
                .insert(Addr::new(0x1000 * (i + 1)), CoreId::new(i as usize))
                .is_none());
        }
        let evicted = fd
            .insert(Addr::new(0xf000), CoreId::new(9))
            .expect("must evict");
        assert_eq!(evicted.sharers.len(), 1);
        assert_eq!(fd.occupancy(), 4);
        assert_eq!(fd.evictions(), 1);
    }

    #[test]
    fn reinsert_merges_sharers_without_eviction() {
        let mut fd = FilterDir::new(2, 1);
        fd.insert(Addr::new(0x10), CoreId::new(0));
        fd.insert(Addr::new(0x20), CoreId::new(1));
        assert!(fd.insert(Addr::new(0x10), CoreId::new(2)).is_none());
        let mut s = fd.sharers(Addr::new(0x10));
        s.sort();
        assert_eq!(s, vec![CoreId::new(0), CoreId::new(2)]);
        assert_eq!(fd.insertions(), 2);
    }

    #[test]
    fn home_slice_is_stable_and_in_range() {
        let fd = FilterDir::new(4096, 64);
        for i in 0..1000u64 {
            let base = Addr::new(i * 0x4000);
            let a = fd.home_slice(base);
            let b = fd.home_slice(base);
            assert_eq!(a, b);
            assert!(a.index() < 64);
        }
    }

    #[test]
    fn strided_bases_spread_over_slices() {
        let fd = FilterDir::new(4096, 64);
        let mut seen = std::collections::HashSet::new();
        for i in 0..256u64 {
            seen.insert(fd.home_slice(Addr::new(i * 0x4000)).index());
        }
        assert!(
            seen.len() > 16,
            "interleaving should use many slices, got {}",
            seen.len()
        );
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let _ = FilterDir::new(0, 4);
    }
}
