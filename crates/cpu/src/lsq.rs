//! Load/store-queue model for the consistency mechanism of §3.4.
//!
//! When a guarded access hits the SPMDir, its effective address changes from
//! a GM virtual address to an SPM virtual address.  An out-of-order core may
//! already have re-ordered it with respect to a strided access to the *same*
//! SPM address, and the LSQ would not have flagged the violation because the
//! original addresses differed.  The paper's fix is to notify the new SPM
//! address to the LSQ, re-check the ordering and flush the pipeline on a
//! violation.  [`LoadStoreQueue`] models the in-flight window and that
//! re-check.

use std::collections::VecDeque;

use mem::Addr;

/// One in-flight memory operation tracked by the LSQ window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LsqEntry {
    addr: Addr,
    is_store: bool,
    /// The data value carried by the operation, when the system tracks
    /// values (a store's written value, a load's observed value).
    value: Option<u64>,
}

/// A simplified load/store queue: the window of memory operations that may
/// still be in flight (and hence re-ordered) around the instruction being
/// executed.
///
/// # Example
///
/// ```
/// use cpu::LoadStoreQueue;
/// use mem::Addr;
///
/// let mut lsq = LoadStoreQueue::new(48, 32);
/// lsq.record(Addr::new(0x1000), true);
/// // A diverted guarded load to the same address conflicts with the store.
/// assert!(lsq.recheck(Addr::new(0x1000), false));
/// // A different address does not.
/// assert!(!lsq.recheck(Addr::new(0x2000), false));
/// ```
#[derive(Debug, Clone)]
pub struct LoadStoreQueue {
    lq_capacity: usize,
    sq_capacity: usize,
    loads: VecDeque<LsqEntry>,
    stores: VecDeque<LsqEntry>,
    rechecks: u64,
    violations: u64,
    value_forwards: u64,
}

impl LoadStoreQueue {
    /// Creates a queue with the given load/store capacities.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    pub fn new(lq_capacity: usize, sq_capacity: usize) -> Self {
        assert!(
            lq_capacity > 0 && sq_capacity > 0,
            "LSQ capacities must be non-zero"
        );
        LoadStoreQueue {
            lq_capacity,
            sq_capacity,
            loads: VecDeque::with_capacity(lq_capacity),
            stores: VecDeque::with_capacity(sq_capacity),
            rechecks: 0,
            violations: 0,
            value_forwards: 0,
        }
    }

    /// Records a memory operation entering the window, retiring the oldest
    /// one if the corresponding queue is full.
    pub fn record(&mut self, addr: Addr, is_store: bool) {
        self.record_valued(addr, is_store, None);
    }

    /// Like [`LoadStoreQueue::record`], carrying the operation's data value
    /// when the system tracks values.  A load whose observed value equals
    /// the youngest in-window store to the same address counts as a
    /// store-to-load forward.
    pub fn record_valued(&mut self, addr: Addr, is_store: bool, value: Option<u64>) {
        // Only scan the store queue when the load actually carries a value:
        // in timing-only mode every access records `None`, and the forward
        // check could never count, so the (pure) scan would be wasted work
        // on the hottest path in the simulator.
        if !is_store {
            if let Some(observed) = value {
                if self.latest_store_value(addr) == Some(observed) {
                    self.value_forwards += 1;
                }
            }
        }
        let (queue, cap) = if is_store {
            (&mut self.stores, self.sq_capacity)
        } else {
            (&mut self.loads, self.lq_capacity)
        };
        if queue.len() == cap {
            queue.pop_front();
        }
        queue.push_back(LsqEntry {
            addr,
            is_store,
            value,
        });
    }

    /// The value of the youngest in-window store to `addr`, if it carried
    /// one (the data a store-to-load forward would supply).
    pub fn latest_store_value(&self, addr: Addr) -> Option<u64> {
        self.stores
            .iter()
            .rev()
            .find(|e| e.addr == addr)
            .and_then(|e| e.value)
    }

    /// Re-checks ordering for an access whose effective address just changed
    /// to `new_addr` (a diverted guarded access).
    ///
    /// Returns `true` if a violation is detected: some in-flight operation
    /// targets the same address and at least one of the two is a store, so
    /// the pipeline must be flushed.
    pub fn recheck(&mut self, new_addr: Addr, is_store: bool) -> bool {
        self.rechecks += 1;
        let conflict = |e: &LsqEntry| e.addr == new_addr && (e.is_store || is_store);
        let violation = self.loads.iter().any(conflict) || self.stores.iter().any(conflict);
        if violation {
            self.violations += 1;
        }
        violation
    }

    /// Empties the window (pipeline flush or barrier).
    pub fn flush(&mut self) {
        self.loads.clear();
        self.stores.clear();
    }

    /// Number of in-flight operations currently tracked.
    pub fn occupancy(&self) -> usize {
        self.loads.len() + self.stores.len()
    }

    /// Number of ordering re-checks performed.
    pub fn rechecks(&self) -> u64 {
        self.rechecks
    }

    /// Number of ordering violations detected (each costs a pipeline flush).
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Number of loads whose observed value matched an in-window store to
    /// the same address (only counted when values are tracked).
    pub fn value_forwards(&self) -> u64 {
        self.value_forwards
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_conflicts_only_with_a_store_involved() {
        let mut lsq = LoadStoreQueue::new(4, 4);
        lsq.record(Addr::new(0x100), false);
        // load vs load: no violation.
        assert!(!lsq.recheck(Addr::new(0x100), false));
        // load vs store: violation.
        assert!(lsq.recheck(Addr::new(0x100), true));
        lsq.record(Addr::new(0x200), true);
        // store in window vs diverted load: violation.
        assert!(lsq.recheck(Addr::new(0x200), false));
        assert_eq!(lsq.rechecks(), 3);
        assert_eq!(lsq.violations(), 2);
    }

    #[test]
    fn window_is_bounded_and_fifo() {
        let mut lsq = LoadStoreQueue::new(2, 2);
        lsq.record(Addr::new(0x1), true);
        lsq.record(Addr::new(0x2), true);
        lsq.record(Addr::new(0x3), true);
        // 0x1 fell out of the window.
        assert!(!lsq.recheck(Addr::new(0x1), false));
        assert!(lsq.recheck(Addr::new(0x3), false));
        assert_eq!(lsq.occupancy(), 2);
    }

    #[test]
    fn flush_empties_the_window() {
        let mut lsq = LoadStoreQueue::new(4, 4);
        lsq.record(Addr::new(0x10), true);
        lsq.flush();
        assert_eq!(lsq.occupancy(), 0);
        assert!(!lsq.recheck(Addr::new(0x10), false));
    }

    #[test]
    fn wrapped_window_holds_exactly_the_last_entries() {
        let (lq, sq) = (5usize, 3usize);
        let mut lsq = LoadStoreQueue::new(lq, sq);
        // Several laps around both windows, loads and stores interleaved.
        let (loads, stores) = (4 * lq as u64 + 2, 4 * sq as u64 + 1);
        for i in 0..loads.max(stores) {
            if i < loads {
                lsq.record(Addr::new(0x1000 + i * 8), false);
            }
            if i < stores {
                lsq.record_valued(Addr::new(0x9000 + (i % 2) * 8), true, Some(i));
                lsq.record_valued(Addr::new(0x5000 + i * 8), true, Some(100 + i));
            }
        }
        assert_eq!(lsq.occupancy(), lq + sq);
        // A diverted store conflicts with a load exactly when that load is
        // among the last `lq` recorded.
        for i in 0..loads {
            let in_window = i >= loads - lq as u64;
            assert_eq!(lsq.recheck(Addr::new(0x1000 + i * 8), true), in_window);
        }
        // Stores alternate between the 0x9000 pair and a fresh 0x5000
        // address: the last `sq` stores are those of the final iterations.
        let store_addrs: Vec<Addr> = (0..stores)
            .flat_map(|i| [Addr::new(0x9000 + (i % 2) * 8), Addr::new(0x5000 + i * 8)])
            .collect();
        let window = &store_addrs[store_addrs.len() - sq..];
        for i in 0..stores {
            let addr = Addr::new(0x5000 + i * 8);
            assert_eq!(lsq.recheck(addr, false), window.contains(&addr));
        }
        // The newest store wins: the final iteration's 0x9000-pair store.
        let last = stores - 1;
        assert_eq!(
            lsq.latest_store_value(Addr::new(0x9000 + (last % 2) * 8)),
            Some(last)
        );
    }

    #[test]
    fn flush_then_refill_starts_a_fresh_window() {
        let mut lsq = LoadStoreQueue::new(2, 2);
        for i in 0..5u64 {
            lsq.record_valued(Addr::new(0x40), true, Some(i));
            lsq.record(Addr::new(0x80 + i), false);
        }
        lsq.flush();
        assert_eq!(lsq.occupancy(), 0);
        assert_eq!(lsq.latest_store_value(Addr::new(0x40)), None);
        lsq.record_valued(Addr::new(0x40), true, Some(42));
        lsq.record(Addr::new(0x200), false);
        lsq.record(Addr::new(0x300), false);
        lsq.record(Addr::new(0x400), false);
        assert_eq!(lsq.occupancy(), 3);
        assert_eq!(lsq.latest_store_value(Addr::new(0x40)), Some(42));
        assert!(
            !lsq.recheck(Addr::new(0x200), true),
            "retired by the refill"
        );
        assert!(lsq.recheck(Addr::new(0x300), true));
        assert!(!lsq.recheck(Addr::new(0x84), true), "dropped by the flush");
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let _ = LoadStoreQueue::new(0, 4);
    }

    #[test]
    fn value_carrying_entries_detect_store_to_load_forwards() {
        let mut lsq = LoadStoreQueue::new(4, 4);
        lsq.record_valued(Addr::new(0x100), true, Some(7));
        lsq.record_valued(Addr::new(0x100), true, Some(9));
        assert_eq!(lsq.latest_store_value(Addr::new(0x100)), Some(9));
        assert_eq!(lsq.latest_store_value(Addr::new(0x200)), None);
        // Load observing the youngest store's value: a forward.
        lsq.record_valued(Addr::new(0x100), false, Some(9));
        assert_eq!(lsq.value_forwards(), 1);
        // Observing something else (e.g. a remote write won the race): not
        // a forward, and not an error either.
        lsq.record_valued(Addr::new(0x100), false, Some(1));
        assert_eq!(lsq.value_forwards(), 1);
        // Value-less recording (timing-only mode) never counts.
        lsq.record(Addr::new(0x100), false);
        assert_eq!(lsq.value_forwards(), 1);
        lsq.flush();
        assert_eq!(lsq.latest_store_value(Addr::new(0x100)), None);
    }
}
