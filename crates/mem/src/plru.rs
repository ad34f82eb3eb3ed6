//! Tree pseudo-LRU replacement state.
//!
//! All caches in the paper's configuration (L1 I/D, L2, and the filter of the
//! proposed coherence protocol) use pseudo-LRU replacement (Table 1).  The
//! classic tree-PLRU scheme is implemented here for any power-of-two number
//! of ways up to 64.

/// Tree pseudo-LRU state for one cache set.
///
/// The tree is packed into one `u64`: bit `i` is tree node `i`, node `0` is
/// the root and node `i` has children `2i + 1` and `2i + 2`, so a set with
/// `ways` ways uses bits `0..ways - 1` and 64 ways is the limit.  A clear bit
/// means "the LRU side is the left subtree", a set bit "the LRU side is the
/// right subtree".  The leaf for way `w` is node `ways - 1 + w`, and the
/// path to it from the root reads `w`'s bits from the most significant one
/// down (0 = left).
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreePlru {
    /// `log2(ways)`: the depth of the tree.
    levels: u32,
    bits: u64,
}

impl TreePlru {
    /// The largest associativity one packed tree can track.
    pub const MAX_WAYS: usize = 64;

    /// Creates replacement state for a set with `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero, not a power of two, or above
    /// [`TreePlru::MAX_WAYS`].
    pub fn new(ways: usize) -> Self {
        assert!(
            ways > 0 && ways.is_power_of_two(),
            "ways must be a power of two, got {ways}"
        );
        assert!(
            ways <= Self::MAX_WAYS,
            "tree-PLRU packs its {} tree bits into one u64, so at most {} ways \
             are supported, got {ways}",
            ways - 1,
            Self::MAX_WAYS
        );
        TreePlru {
            levels: ways.trailing_zeros(),
            bits: 0,
        }
    }

    /// Number of ways tracked.
    pub fn ways(&self) -> usize {
        1 << self.levels
    }

    /// Marks `way` as most recently used.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range.
    #[inline]
    pub fn touch(&mut self, way: usize) {
        assert!(
            way < self.ways(),
            "way {way} out of range (ways = {})",
            self.ways()
        );
        // Walk from the root towards the leaf for `way`, pointing every
        // traversed node away from the path (so the path becomes MRU): going
        // left sets the node (LRU side right), going right clears it.
        let mut node = 0usize;
        for level in (0..self.levels).rev() {
            let right = (way >> level) & 1;
            self.bits = (self.bits & !(1u64 << node)) | (((right ^ 1) as u64) << node);
            node = 2 * node + 1 + right;
        }
    }

    /// Returns the pseudo-LRU victim way without modifying the state.
    #[inline]
    pub fn victim(&self) -> usize {
        let mut node = 0usize;
        for _ in 0..self.levels {
            node = 2 * node + 1 + ((self.bits >> node) & 1) as usize;
        }
        node + 1 - self.ways()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The original tree, one heap `bool` per node, kept as the reference
    /// the packed tree must reproduce touch for touch.
    struct ReferencePlru {
        ways: usize,
        bits: Vec<bool>,
    }

    impl ReferencePlru {
        fn new(ways: usize) -> Self {
            ReferencePlru {
                ways,
                bits: vec![false; ways - 1],
            }
        }

        fn touch(&mut self, way: usize) {
            let (mut node, mut lo, mut hi) = (0usize, 0usize, self.ways);
            while hi - lo > 1 {
                let mid = (lo + hi) / 2;
                if way < mid {
                    self.bits[node] = true;
                    node = 2 * node + 1;
                    hi = mid;
                } else {
                    self.bits[node] = false;
                    node = 2 * node + 2;
                    lo = mid;
                }
            }
        }

        fn victim(&self) -> usize {
            let (mut node, mut lo, mut hi) = (0usize, 0usize, self.ways);
            while hi - lo > 1 {
                let mid = (lo + hi) / 2;
                if self.bits[node] {
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

    #[test]
    fn packed_tree_matches_the_reference_tree() {
        // xorshift64*: deterministic random touch sequences.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for ways in (0..=6).map(|l| 1usize << l) {
            for _ in 0..64 {
                let mut packed = TreePlru::new(ways);
                let mut reference = ReferencePlru::new(ways);
                assert_eq!(packed.victim(), reference.victim());
                let touches = 1 + next() % 300;
                for _ in 0..touches {
                    let r = next();
                    // Mix uniform touches with touches of the current victim,
                    // which walk the whole tree.
                    let way = if r & 3 == 0 {
                        packed.victim()
                    } else {
                        (r >> 8) as usize % ways
                    };
                    packed.touch(way);
                    reference.touch(way);
                    assert_eq!(
                        packed.victim(),
                        reference.victim(),
                        "{ways}-way trees diverged after touching way {way}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 64 ways")]
    fn more_than_64_ways_panics() {
        let _ = TreePlru::new(128);
    }

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
