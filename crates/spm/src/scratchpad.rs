//! The scratchpad memory itself and its runtime-managed buffer allocation.
//!
//! Before entering a transformed loop, the runtime library divides the SPM
//! into equally-sized buffers, one per memory reference mapped to the SPM
//! (§2.2 of the paper).  The buffer size is what the coherence protocol's
//! Base/Offset mask registers are derived from, and the buffer index is what
//! the SPMDir uses as its entry index.

use simkernel::{ByteSize, Cycle};

/// Identifies one of the equally-sized buffers the SPM is divided into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BufferId(pub usize);

impl BufferId {
    /// Returns the buffer index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Configuration of one scratchpad memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpmConfig {
    /// Capacity of the scratchpad.
    pub size: ByteSize,
    /// Access latency.
    pub latency: Cycle,
    /// Block size used for DMA transfers.
    pub block: ByteSize,
}

impl SpmConfig {
    /// The paper's configuration: 32 KB, 2-cycle access, 64-byte blocks.
    pub fn isca2015() -> Self {
        SpmConfig {
            size: ByteSize::kib(32),
            latency: Cycle::new(2),
            block: ByteSize::bytes_exact(64),
        }
    }

    /// A scaled-down scratchpad for fast tests.
    pub fn small() -> Self {
        SpmConfig {
            size: ByteSize::kib(8),
            latency: Cycle::new(2),
            block: ByteSize::bytes_exact(64),
        }
    }
}

impl Default for SpmConfig {
    fn default() -> Self {
        Self::isca2015()
    }
}

/// One per-core scratchpad memory.
///
/// The scratchpad is a timing and occupancy model: it tracks the current
/// buffer partitioning (set up by the runtime library before each loop) and
/// counts local and remote accesses for the energy model.  Data contents are
/// not stored — the simulator is trace driven.
///
/// # Example
///
/// ```
/// use spm::{Scratchpad, SpmConfig};
///
/// let mut spm = Scratchpad::new(SpmConfig::isca2015());
/// let buffers = spm.allocate_buffers(2).unwrap();
/// assert_eq!(buffers.len(), 2);
/// assert_eq!(spm.buffer_size().bytes(), 16 * 1024);
/// assert_eq!(spm.buffer_base(buffers[1]), 16 * 1024);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scratchpad {
    config: SpmConfig,
    buffers: usize,
    local_reads: u64,
    local_writes: u64,
    remote_reads: u64,
    remote_writes: u64,
    dma_fill_bytes: u64,
    dma_drain_bytes: u64,
}

impl Scratchpad {
    /// Creates an empty scratchpad.
    pub fn new(config: SpmConfig) -> Self {
        Scratchpad {
            config,
            buffers: 0,
            local_reads: 0,
            local_writes: 0,
            remote_reads: 0,
            remote_writes: 0,
            dma_fill_bytes: 0,
            dma_drain_bytes: 0,
        }
    }

    /// The scratchpad configuration.
    pub fn config(&self) -> &SpmConfig {
        &self.config
    }

    /// Access latency of the scratchpad array.
    pub fn latency(&self) -> Cycle {
        self.config.latency
    }

    /// Divides the scratchpad into `count` equally-sized buffers, replacing
    /// any previous partitioning (what `ALLOCATE_BUFFERS` does in the paper's
    /// Figure 3).
    ///
    /// Returns `None` if `count` is zero or the buffers would be smaller than
    /// one DMA block.
    pub fn allocate_buffers(&mut self, count: usize) -> Option<Vec<BufferId>> {
        if count == 0 {
            return None;
        }
        let per_buffer = self.config.size.bytes() / count as u64;
        if per_buffer < self.config.block.bytes() {
            return None;
        }
        self.buffers = count;
        Some((0..count).map(BufferId).collect())
    }

    /// Number of buffers in the current partitioning.
    pub fn buffer_count(&self) -> usize {
        self.buffers
    }

    /// Size of each buffer in the current partitioning.
    ///
    /// Returns the whole SPM size when no partitioning is active.
    pub fn buffer_size(&self) -> ByteSize {
        if self.buffers == 0 {
            self.config.size
        } else {
            self.config.size / self.buffers as u64
        }
    }

    /// Byte offset of a buffer's first element inside the SPM.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is outside the current partitioning.
    pub fn buffer_base(&self, buffer: BufferId) -> u64 {
        assert!(
            buffer.index() < self.buffers,
            "buffer {buffer:?} not allocated"
        );
        self.buffer_size().bytes() * buffer.index() as u64
    }

    /// Records a load issued by the owning core and returns its latency.
    pub fn read_local(&mut self) -> Cycle {
        self.local_reads += 1;
        self.config.latency
    }

    /// Records a store issued by the owning core and returns its latency.
    pub fn write_local(&mut self) -> Cycle {
        self.local_writes += 1;
        self.config.latency
    }

    /// Records a load arriving from a remote core (diverted guarded access).
    pub fn read_remote(&mut self) -> Cycle {
        self.remote_reads += 1;
        self.config.latency
    }

    /// Records a store arriving from a remote core (diverted guarded access).
    pub fn write_remote(&mut self) -> Cycle {
        self.remote_writes += 1;
        self.config.latency
    }

    /// Records bytes written into the SPM by a `dma-get`.
    pub fn record_dma_fill(&mut self, bytes: u64) {
        self.dma_fill_bytes += bytes;
    }

    /// Records bytes drained from the SPM by a `dma-put`.
    pub fn record_dma_drain(&mut self, bytes: u64) {
        self.dma_drain_bytes += bytes;
    }

    /// Total accesses served by the SPM array (local + remote + DMA blocks).
    pub fn total_array_accesses(&self) -> u64 {
        let block = self.config.block.bytes().max(1);
        self.local_reads
            + self.local_writes
            + self.remote_reads
            + self.remote_writes
            + self.dma_fill_bytes.div_ceil(block)
            + self.dma_drain_bytes.div_ceil(block)
    }

    /// Loads and stores issued by the owning core.
    pub fn local_accesses(&self) -> u64 {
        self.local_reads + self.local_writes
    }

    /// Loads and stores arriving from remote cores.
    pub fn remote_accesses(&self) -> u64 {
        self.remote_reads + self.remote_writes
    }

    /// Bytes moved into the SPM by DMA.
    pub fn dma_fill_bytes(&self) -> u64 {
        self.dma_fill_bytes
    }

    /// Bytes moved out of the SPM by DMA.
    pub fn dma_drain_bytes(&self) -> u64 {
        self.dma_drain_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_table1() {
        let cfg = SpmConfig::default();
        assert_eq!(cfg.size, ByteSize::kib(32));
        assert_eq!(cfg.latency, Cycle::new(2));
        assert_eq!(cfg.block, ByteSize::bytes_exact(64));
    }

    #[test]
    fn buffer_allocation_divides_evenly() {
        let mut spm = Scratchpad::new(SpmConfig::isca2015());
        assert_eq!(spm.buffer_count(), 0);
        assert_eq!(spm.buffer_size(), ByteSize::kib(32));
        let ids = spm.allocate_buffers(4).unwrap();
        assert_eq!(ids.len(), 4);
        assert_eq!(spm.buffer_count(), 4);
        assert_eq!(spm.buffer_size(), ByteSize::kib(8));
        assert_eq!(spm.buffer_base(BufferId(0)), 0);
        assert_eq!(spm.buffer_base(BufferId(3)), 24 * 1024);
    }

    #[test]
    fn reallocation_replaces_partitioning() {
        let mut spm = Scratchpad::new(SpmConfig::isca2015());
        spm.allocate_buffers(2).unwrap();
        spm.allocate_buffers(8).unwrap();
        assert_eq!(spm.buffer_count(), 8);
        assert_eq!(spm.buffer_size(), ByteSize::kib(4));
    }

    #[test]
    fn degenerate_allocations_rejected() {
        let mut spm = Scratchpad::new(SpmConfig::isca2015());
        assert!(spm.allocate_buffers(0).is_none());
        // 32 KiB / 1024 buffers = 32 B < one 64 B block.
        assert!(spm.allocate_buffers(1024).is_none());
    }

    #[test]
    fn access_counters() {
        let mut spm = Scratchpad::new(SpmConfig::small());
        assert_eq!(spm.read_local(), Cycle::new(2));
        assert_eq!(spm.write_local(), Cycle::new(2));
        assert_eq!(spm.read_remote(), Cycle::new(2));
        assert_eq!(spm.write_remote(), Cycle::new(2));
        spm.record_dma_fill(256);
        spm.record_dma_drain(64);
        assert_eq!(spm.local_accesses(), 2);
        assert_eq!(spm.remote_accesses(), 2);
        assert_eq!(spm.dma_fill_bytes(), 256);
        assert_eq!(spm.dma_drain_bytes(), 64);
        // 4 demand + 4 fill blocks + 1 drain block.
        assert_eq!(spm.total_array_accesses(), 4 + 4 + 1);
    }

    #[test]
    #[should_panic]
    fn buffer_base_outside_allocation_panics() {
        let mut spm = Scratchpad::new(SpmConfig::isca2015());
        spm.allocate_buffers(2).unwrap();
        let _ = spm.buffer_base(BufferId(2));
    }
}
