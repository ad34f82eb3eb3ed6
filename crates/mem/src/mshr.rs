//! Miss Status Holding Registers.
//!
//! The MSHR file limits how many distinct outstanding misses a cache can
//! sustain and merges secondary misses to a line that is already being
//! fetched.  The coherence protocol of the paper also uses the MSHR to park
//! the buffered L1 access of a guarded load while the filter/filterDir
//! resolution is in flight (Figure 5c/5d).

use simkernel::Cycle;

use crate::addr::LineAddr;

/// Outcome of registering a miss in the MSHR file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated; the miss must be sent to the next level.
    Allocated,
    /// The line already has an outstanding miss; this request was merged.
    Merged,
    /// No entry was free; the request must stall until one frees up.
    Full,
}

#[derive(Debug, Clone)]
struct MshrEntry {
    ready_at: Cycle,
    merged_requests: u32,
}

/// A file of Miss Status Holding Registers.
///
/// # Example
///
/// ```
/// use mem::{LineAddr, MshrFile};
/// use simkernel::Cycle;
///
/// let mut mshr = MshrFile::new(4);
/// let outcome = mshr.register(LineAddr::new(1), Cycle::new(100));
/// assert_eq!(outcome, mem::mshr::MshrOutcome::Allocated);
/// assert_eq!(mshr.outstanding(), 1);
/// mshr.retire_ready(Cycle::new(100));
/// assert_eq!(mshr.outstanding(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    /// Parallel arrays (`lines[i]` is the address of `slots[i]`): the file
    /// holds at most a handful of entries, so a linear scan over a dense
    /// line array is cheaper than hashing on the miss path.
    lines: Vec<LineAddr>,
    slots: Vec<MshrEntry>,
    merges: u64,
    allocations: u64,
    full_stalls: u64,
}

impl MshrFile {
    /// Creates an MSHR file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR file needs at least one entry");
        MshrFile {
            capacity,
            lines: Vec::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            merges: 0,
            allocations: 0,
            full_stalls: 0,
        }
    }

    #[inline]
    fn position(&self, line: LineAddr) -> Option<usize> {
        self.lines.iter().position(|&l| l == line)
    }

    /// Registers a miss for `line` whose fill completes at `ready_at`.
    pub fn register(&mut self, line: LineAddr, ready_at: Cycle) -> MshrOutcome {
        if let Some(pos) = self.position(line) {
            self.slots[pos].merged_requests += 1;
            self.merges += 1;
            return MshrOutcome::Merged;
        }
        if self.lines.len() >= self.capacity {
            self.full_stalls += 1;
            return MshrOutcome::Full;
        }
        self.lines.push(line);
        self.slots.push(MshrEntry {
            ready_at,
            merged_requests: 0,
        });
        self.allocations += 1;
        MshrOutcome::Allocated
    }

    /// Returns the fill completion time of an outstanding miss, if any.
    pub fn ready_at(&self, line: LineAddr) -> Option<Cycle> {
        self.position(line).map(|pos| self.slots[pos].ready_at)
    }

    /// Returns `true` if a miss on `line` is outstanding.
    pub fn is_outstanding(&self, line: LineAddr) -> bool {
        self.position(line).is_some()
    }

    /// Retires every entry whose fill has completed by `now`.
    pub fn retire_ready(&mut self, now: Cycle) {
        let mut i = 0;
        while i < self.lines.len() {
            if self.slots[i].ready_at > now {
                i += 1;
            } else {
                self.lines.swap_remove(i);
                self.slots.swap_remove(i);
            }
        }
    }

    /// Explicitly retires one entry (e.g. when a buffered guarded access is
    /// discarded because the data turned out to live in a remote SPM).
    pub fn retire(&mut self, line: LineAddr) -> bool {
        if let Some(pos) = self.position(line) {
            self.lines.swap_remove(pos);
            self.slots.swap_remove(pos);
            true
        } else {
            false
        }
    }

    /// Number of currently outstanding misses.
    pub fn outstanding(&self) -> usize {
        self.lines.len()
    }

    /// Total capacity of the file.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns `true` when no entry is free.
    pub fn is_full(&self) -> bool {
        self.lines.len() >= self.capacity
    }

    /// Number of merged (secondary) misses recorded.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Number of primary misses recorded.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Number of requests rejected because the file was full.
    pub fn full_stalls(&self) -> u64 {
        self.full_stalls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_merge_full() {
        let mut m = MshrFile::new(2);
        assert_eq!(
            m.register(LineAddr::new(1), Cycle::new(10)),
            MshrOutcome::Allocated
        );
        assert_eq!(
            m.register(LineAddr::new(1), Cycle::new(10)),
            MshrOutcome::Merged
        );
        assert_eq!(
            m.register(LineAddr::new(2), Cycle::new(20)),
            MshrOutcome::Allocated
        );
        assert_eq!(
            m.register(LineAddr::new(3), Cycle::new(30)),
            MshrOutcome::Full
        );
        assert!(m.is_full());
        assert_eq!(m.allocations(), 2);
        assert_eq!(m.merges(), 1);
        assert_eq!(m.full_stalls(), 1);
    }

    #[test]
    fn retire_ready_frees_entries() {
        let mut m = MshrFile::new(4);
        m.register(LineAddr::new(1), Cycle::new(10));
        m.register(LineAddr::new(2), Cycle::new(20));
        m.retire_ready(Cycle::new(15));
        assert!(!m.is_outstanding(LineAddr::new(1)));
        assert!(m.is_outstanding(LineAddr::new(2)));
        assert_eq!(m.outstanding(), 1);
        assert_eq!(m.ready_at(LineAddr::new(2)), Some(Cycle::new(20)));
    }

    #[test]
    fn explicit_retire() {
        let mut m = MshrFile::new(4);
        m.register(LineAddr::new(7), Cycle::new(5));
        assert!(m.retire(LineAddr::new(7)));
        assert!(!m.retire(LineAddr::new(7)));
        assert_eq!(m.outstanding(), 0);
        assert_eq!(m.capacity(), 4);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let _ = MshrFile::new(0);
    }
}
