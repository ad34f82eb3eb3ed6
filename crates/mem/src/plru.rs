//! Tree pseudo-LRU replacement state.
//!
//! All caches in the paper's configuration (L1 I/D, L2, and the filter of the
//! proposed coherence protocol) use pseudo-LRU replacement (Table 1).  The
//! classic tree-PLRU scheme is implemented here for any power-of-two number
//! of ways.

/// Tree pseudo-LRU state for one cache set.
///
/// The tree is stored as a flat bit array: node `0` is the root, node `i` has
/// children `2i + 1` and `2i + 2`.  A bit value of `false` means "the LRU
/// side is the left subtree", `true` means "the LRU side is the right
/// subtree".
///
/// # Example
///
/// ```
/// use mem::plru::TreePlru;
///
/// let mut plru = TreePlru::new(4);
/// plru.touch(0);
/// plru.touch(1);
/// plru.touch(2);
/// plru.touch(3);
/// // After touching every way in order, way 0 is the pseudo-LRU victim.
/// assert_eq!(plru.victim(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreePlru {
    ways: usize,
    bits: Vec<bool>,
}

impl TreePlru {
    /// Creates replacement state for a set with `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or not a power of two.
    pub fn new(ways: usize) -> Self {
        assert!(
            ways > 0 && ways.is_power_of_two(),
            "ways must be a power of two, got {ways}"
        );
        TreePlru {
            ways,
            bits: vec![false; ways.saturating_sub(1)],
        }
    }

    /// Number of ways tracked.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Marks `way` as most recently used.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range.
    pub fn touch(&mut self, way: usize) {
        assert!(
            way < self.ways,
            "way {way} out of range (ways = {})",
            self.ways
        );
        if self.ways == 1 {
            return;
        }
        // Walk from the root towards the leaf for `way`, pointing every
        // traversed node away from the path (so the path becomes MRU).
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if way < mid {
                // Went left: LRU side becomes the right subtree.
                self.bits[node] = true;
                node = 2 * node + 1;
                hi = mid;
            } else {
                // Went right: LRU side becomes the left subtree.
                self.bits[node] = false;
                node = 2 * node + 2;
                lo = mid;
            }
        }
    }

    /// Returns the pseudo-LRU victim way without modifying the state.
    pub fn victim(&self) -> usize {
        if self.ways == 1 {
            return 0;
        }
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.bits[node] {
                // LRU side is the right subtree.
                node = 2 * node + 2;
                lo = mid;
            } else {
                node = 2 * node + 1;
                hi = mid;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_way_is_trivial() {
        let mut p = TreePlru::new(1);
        assert_eq!(p.victim(), 0);
        p.touch(0);
        assert_eq!(p.victim(), 0);
    }

    #[test]
    fn victim_avoids_recently_touched_ways() {
        let mut p = TreePlru::new(4);
        for way in 0..4 {
            p.touch(way);
            assert_ne!(p.victim(), way, "victim must not be the way just touched");
        }
    }

    #[test]
    fn sequential_touch_cycles_through_victims() {
        let mut p = TreePlru::new(8);
        // Touch every way once; the victim should then be way 0 (the oldest
        // path in the tree approximation).
        for way in 0..8 {
            p.touch(way);
        }
        assert_eq!(p.victim(), 0);
    }

    #[test]
    fn repeated_touch_of_one_way_protects_it() {
        let mut p = TreePlru::new(4);
        for _ in 0..100 {
            p.touch(2);
            assert_ne!(p.victim(), 2);
        }
    }

    #[test]
    fn plru_approximates_lru_on_scan() {
        // A scan over 16 distinct blocks in a 4-way set must keep evicting;
        // this just checks the victim is always a valid way.
        let mut p = TreePlru::new(4);
        for i in 0..64 {
            let v = p.victim();
            assert!(v < 4);
            p.touch(i % 4);
        }
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_ways_panics() {
        let _ = TreePlru::new(3);
    }

    #[test]
    #[should_panic]
    fn touch_out_of_range_panics() {
        TreePlru::new(4).touch(4);
    }
}
