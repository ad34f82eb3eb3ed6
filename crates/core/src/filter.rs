//! The per-core filter of "known not mapped" addresses.
//!
//! The filter is a small fully-associative CAM holding GM base addresses that
//! have recently been checked and found *not* to be mapped to any SPM.  A
//! filter hit lets a guarded access proceed to the cache hierarchy at full
//! speed, which is the overwhelmingly common case in the paper's workloads
//! (hit ratios of 92–99 %, Figure 8).  Misses trigger the filterDir flow of
//! Figure 6b.  Entries are replaced pseudo-LRU; an eviction must be notified
//! to the filterDir so the sharers list stays accurate.

use mem::Addr;

/// The per-core filter CAM (48 entries, fully associative, pseudoLRU in Table 1).
///
/// # Example
///
/// ```
/// use spm_coherence::Filter;
/// use mem::Addr;
///
/// let mut f = Filter::new(48);
/// assert!(!f.lookup(Addr::new(0x1000)));
/// f.insert(Addr::new(0x1000));
/// assert!(f.lookup(Addr::new(0x1000)));
/// assert!(f.hit_ratio() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Filter {
    capacity: usize,
    /// `(base address, last-use tick)` pairs; LRU approximated by the tick.
    entries: Vec<(Addr, u64)>,
    /// Index of the most recently hit entry.  Guarded accesses have strong
    /// temporal locality on their base address, so checking this slot first
    /// short-circuits the CAM scan on the common repeat-hit; verified
    /// against the stored address before use, so a stale hint only costs
    /// the fallback scan.
    mru: usize,
    tick: u64,
    lookups: u64,
    hits: u64,
    insertions: u64,
    invalidations: u64,
    evictions: u64,
    gated_off: bool,
}

impl Filter {
    /// Creates a filter with `capacity` entries (48 in Table 1).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "filter needs at least one entry");
        Filter {
            capacity,
            entries: Vec::with_capacity(capacity),
            mru: 0,
            tick: 0,
            lookups: 0,
            hits: 0,
            insertions: 0,
            invalidations: 0,
            evictions: 0,
            gated_off: false,
        }
    }

    /// Number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Power-gates the filter (used when a kernel issues no guarded accesses,
    /// as the paper does for SP).  A gated filter misses every lookup without
    /// counting statistics and rejects insertions.
    pub fn set_gated_off(&mut self, gated: bool) {
        self.gated_off = gated;
    }

    /// Returns `true` if the filter is power-gated.
    pub fn is_gated_off(&self) -> bool {
        self.gated_off
    }

    /// CAM lookup of a GM base address, updating recency and statistics.
    pub fn lookup(&mut self, gm_base: Addr) -> bool {
        if self.gated_off {
            return false;
        }
        self.lookups += 1;
        self.tick += 1;
        let tick = self.tick;
        if let Some(entry) = self.entries.get_mut(self.mru) {
            if entry.0 == gm_base {
                entry.1 = tick;
                self.hits += 1;
                return true;
            }
        }
        if let Some(idx) = self.entries.iter().position(|(a, _)| *a == gm_base) {
            self.entries[idx].1 = tick;
            self.mru = idx;
            self.hits += 1;
            true
        } else {
            false
        }
    }

    /// Lookup without updating statistics or recency.
    pub fn probe(&self, gm_base: Addr) -> bool {
        !self.gated_off && self.entries.iter().any(|(a, _)| *a == gm_base)
    }

    /// Inserts a base address known not to be mapped to any SPM.
    ///
    /// Returns the evicted base address if the filter was full — the caller
    /// must notify the filterDir so it can remove this core from the sharers
    /// list of the evicted address.
    pub fn insert(&mut self, gm_base: Addr) -> Option<Addr> {
        if self.gated_off {
            return None;
        }
        self.tick += 1;
        if let Some(entry) = self.entries.iter_mut().find(|(a, _)| *a == gm_base) {
            entry.1 = self.tick;
            return None;
        }
        self.insertions += 1;
        if self.entries.len() < self.capacity {
            self.entries.push((gm_base, self.tick));
            return None;
        }
        // Evict the least recently used entry.
        let victim_idx = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, (_, t))| *t)
            .map(|(i, _)| i)
            .expect("filter is full, so non-empty");
        let victim = self.entries[victim_idx].0;
        self.entries[victim_idx] = (gm_base, self.tick);
        self.evictions += 1;
        Some(victim)
    }

    /// Invalidates a base address (a DMA transfer just mapped it to an SPM).
    ///
    /// Returns `true` if the address was present.
    pub fn invalidate(&mut self, gm_base: Addr) -> bool {
        let before = self.entries.len();
        self.entries.retain(|(a, _)| *a != gm_base);
        let removed = self.entries.len() != before;
        if removed {
            self.invalidations += 1;
        }
        removed
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of resident entries.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Number of lookups performed.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Number of lookups that hit.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of lookups that missed.
    pub fn misses(&self) -> u64 {
        self.lookups - self.hits
    }

    /// Hit ratio over all lookups (zero when no lookup happened).
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Number of insertions (excluding refreshes of resident entries).
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
    fn miss_insert_hit() {
        let mut f = Filter::new(4);
        assert!(!f.lookup(Addr::new(0x1000)));
        assert!(f.insert(Addr::new(0x1000)).is_none());
        assert!(f.lookup(Addr::new(0x1000)));
        assert_eq!(f.lookups(), 2);
        assert_eq!(f.hits(), 1);
        assert_eq!(f.misses(), 1);
        assert!((f.hit_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(f.occupancy(), 1);
    }

    #[test]
    fn lru_eviction_returns_victim() {
        let mut f = Filter::new(2);
        assert!(f.insert(Addr::new(0x1)).is_none());
        assert!(f.insert(Addr::new(0x2)).is_none());
        // Touch 0x1 so 0x2 becomes LRU.
        assert!(f.lookup(Addr::new(0x1)));
        let victim = f.insert(Addr::new(0x3));
        assert_eq!(victim, Some(Addr::new(0x2)));
        assert!(f.probe(Addr::new(0x1)));
        assert!(f.probe(Addr::new(0x3)));
        assert!(!f.probe(Addr::new(0x2)));
        assert_eq!(f.evictions(), 1);
    }

    #[test]
    fn reinserting_resident_entry_is_a_refresh() {
        let mut f = Filter::new(2);
        f.insert(Addr::new(0x1));
        f.insert(Addr::new(0x2));
        assert!(f.insert(Addr::new(0x1)).is_none());
        assert_eq!(f.insertions(), 2, "refresh must not count as an insertion");
        // 0x2 is now LRU.
        assert_eq!(f.insert(Addr::new(0x3)), Some(Addr::new(0x2)));
    }

    #[test]
    fn invalidation_removes_entry() {
        let mut f = Filter::new(4);
        f.insert(Addr::new(0x10));
        assert!(f.invalidate(Addr::new(0x10)));
        assert!(!f.invalidate(Addr::new(0x10)));
        assert!(!f.probe(Addr::new(0x10)));
        assert_eq!(f.invalidations(), 1);
        f.insert(Addr::new(0x20));
        f.clear();
        assert_eq!(f.occupancy(), 0);
    }

    #[test]
    fn gated_filter_is_inert() {
        let mut f = Filter::new(4);
        f.set_gated_off(true);
        assert!(f.is_gated_off());
        assert!(f.insert(Addr::new(0x1)).is_none());
        assert!(!f.lookup(Addr::new(0x1)));
        assert_eq!(
            f.lookups(),
            0,
            "gated filter must not consume lookup energy"
        );
        f.set_gated_off(false);
        assert_eq!(f.occupancy(), 0);
    }

    #[test]
    fn hit_ratio_reaches_paper_levels_on_reuse() {
        // A working set that fits comfortably: 16 distinct bases looked up
        // 100 times each -> hit ratio approaches 1.
        let mut f = Filter::new(48);
        for round in 0..100 {
            for i in 0..16u64 {
                let base = Addr::new(0x1_0000 * i);
                if !f.lookup(base) {
                    f.insert(base);
                }
                let _ = round;
            }
        }
        assert!(f.hit_ratio() > 0.97, "got {}", f.hit_ratio());
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let _ = Filter::new(0);
    }
}
