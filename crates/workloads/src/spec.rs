//! Workload specifications: the per-benchmark characteristics of Table 2.

use simkernel::ByteSize;

/// One array section traversed with a strided access pattern, private to each
/// thread — the preferred candidate for SPM mapping (§2.2 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayRef {
    /// Human-readable name of the reference (for reports).
    pub name: String,
    /// Total size of the array section across all threads.
    pub dataset: ByteSize,
    /// Size of one element (stride of the traversal).
    pub elem_bytes: u64,
    /// Whether the reference writes the section (forces `dma-put` write-backs).
    pub written: bool,
}

impl ArrayRef {
    /// A read-only strided reference.
    pub fn read(name: &str, dataset: ByteSize, elem_bytes: u64) -> Self {
        ArrayRef {
            name: name.to_owned(),
            dataset,
            elem_bytes,
            written: false,
        }
    }

    /// A written strided reference.
    pub fn written(name: &str, dataset: ByteSize, elem_bytes: u64) -> Self {
        ArrayRef {
            name: name.to_owned(),
            dataset,
            elem_bytes,
            written: true,
        }
    }
}

/// A random reference (to a data set disjoint from the strided sections in
/// all the paper's benchmarks) — either provably unaliased (a GM access) or
/// potentially incoherent (a guarded access), depending on what the alias
/// analysis can prove.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardedRef {
    /// Human-readable name of the reference.
    pub name: String,
    /// Size of the randomly accessed data set.
    pub dataset: ByteSize,
    /// Average number of accesses through this reference per loop iteration.
    pub accesses_per_iteration: f64,
    /// Fraction of those accesses that are stores.
    pub write_fraction: f64,
    /// Fraction of accesses that fall in the hot subset (temporal locality).
    pub hot_fraction: f64,
    /// Fraction of the data set forming the hot subset.
    pub hot_set_fraction: f64,
    /// Whether GCC's alias analysis can prove the reference never aliases
    /// SPM-mapped data (`true` → plain GM access, `false` → guarded access).
    pub provably_unaliased: bool,
}

impl GuardedRef {
    /// A reference the compiler cannot disambiguate (emitted guarded).
    pub fn guarded(name: &str, dataset: ByteSize, accesses_per_iteration: f64) -> Self {
        GuardedRef {
            name: name.to_owned(),
            dataset,
            accesses_per_iteration,
            write_fraction: 0.0,
            hot_fraction: 0.9,
            hot_set_fraction: 0.1,
            provably_unaliased: false,
        }
    }

    /// Sets the store fraction.
    pub fn with_writes(mut self, write_fraction: f64) -> Self {
        self.write_fraction = write_fraction;
        self
    }

    /// Sets the temporal-locality knobs.
    pub fn with_locality(mut self, hot_fraction: f64, hot_set_fraction: f64) -> Self {
        self.hot_fraction = hot_fraction;
        self.hot_set_fraction = hot_set_fraction;
        self
    }

    /// Marks the reference as provably unaliased (a plain GM access).
    pub fn unaliased(mut self) -> Self {
        self.provably_unaliased = true;
        self
    }
}

/// One parallel kernel (a transformed computational loop).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpec {
    /// Kernel name (for reports).
    pub name: String,
    /// Strided references staged through the SPMs.
    pub spm_refs: Vec<ArrayRef>,
    /// Random references (guarded or provably unaliased).
    pub random_refs: Vec<GuardedRef>,
    /// Stack accesses (spills, temporaries) per loop iteration.
    pub stack_accesses_per_iteration: f64,
    /// Non-memory instructions per loop iteration.
    pub compute_insts_per_iteration: u64,
    /// Times the whole iteration space is traversed (outer time-step loop).
    pub outer_repeats: u64,
    /// Size of the kernel's code footprint (for instruction-fetch modelling).
    pub code_footprint: ByteSize,
}

impl KernelSpec {
    /// Total loop iterations of one traversal, derived from the largest
    /// strided section (each iteration advances every strided reference by
    /// one element, wrapping the smaller ones).
    pub fn iterations_per_traversal(&self) -> u64 {
        self.spm_refs
            .iter()
            .map(|r| r.dataset.bytes() / r.elem_bytes.max(1))
            .max()
            .unwrap_or(0)
            .max(1)
    }

    /// Number of references the alias analysis could not disambiguate.
    pub fn guarded_ref_count(&self) -> usize {
        self.random_refs
            .iter()
            .filter(|r| !r.provably_unaliased)
            .count()
    }

    /// Size of the data set accessed through guarded references.
    pub fn guarded_data_size(&self) -> ByteSize {
        ByteSize::bytes_exact(
            self.random_refs
                .iter()
                .filter(|r| !r.provably_unaliased)
                .map(|r| r.dataset.bytes())
                .sum(),
        )
    }

    /// Size of the data set accessed through strided (SPM) references.
    pub fn spm_data_size(&self) -> ByteSize {
        ByteSize::bytes_exact(self.spm_refs.iter().map(|r| r.dataset.bytes()).sum())
    }
}

/// A whole benchmark: one or more kernels executed in sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkSpec {
    /// Benchmark name ("CG", "EP", ...).
    pub name: String,
    /// Input class label ("Class A", "Class B", ... possibly scaled).
    pub input: String,
    /// The kernels, executed back to back with a barrier between them.
    pub kernels: Vec<KernelSpec>,
}

impl BenchmarkSpec {
    /// Total number of strided (SPM) references over all kernels (Table 2).
    pub fn spm_ref_count(&self) -> usize {
        self.kernels.iter().map(|k| k.spm_refs.len()).sum()
    }

    /// Total number of guarded references over all kernels (Table 2).
    pub fn guarded_ref_count(&self) -> usize {
        self.kernels.iter().map(|k| k.guarded_ref_count()).sum()
    }

    /// Size of the data set accessed by SPM references (Table 2).
    ///
    /// References that appear with the same name in several kernels (e.g. the
    /// SP solver sweeps, which re-traverse the same grid arrays) are counted
    /// once.
    pub fn spm_data_size(&self) -> ByteSize {
        let mut seen = std::collections::BTreeMap::new();
        for kernel in &self.kernels {
            for r in &kernel.spm_refs {
                seen.entry(r.name.clone()).or_insert(r.dataset.bytes());
            }
        }
        ByteSize::bytes_exact(seen.values().sum())
    }

    /// Size of the data set accessed by guarded references (Table 2).
    pub fn guarded_data_size(&self) -> ByteSize {
        ByteSize::bytes_exact(
            self.kernels
                .iter()
                .map(|k| k.guarded_data_size().bytes())
                .sum(),
        )
    }

    /// Scales every data set and code footprint by `factor` (used to shrink
    /// the paper's inputs to simulation-friendly sizes while preserving the
    /// capacity relationships between data sets, caches and SPMs).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive"
        );
        let scale = |b: ByteSize| {
            let scaled = (b.bytes() as f64 * factor).round() as u64;
            // Keep at least one cache line per reference so traces stay valid.
            ByteSize::bytes_exact(scaled.max(64))
        };
        for kernel in &mut self.kernels {
            for r in &mut kernel.spm_refs {
                r.dataset = scale(r.dataset);
            }
            for r in &mut kernel.random_refs {
                r.dataset = scale(r.dataset);
            }
        }
        if factor != 1.0 {
            self.input = format!("{} (x{factor:.4} scale)", self.input);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel() -> KernelSpec {
        KernelSpec {
            name: "k".into(),
            spm_refs: vec![
                ArrayRef::read("a", ByteSize::mib(1), 8),
                ArrayRef::written("b", ByteSize::kib(512), 8),
            ],
            random_refs: vec![
                GuardedRef::guarded("ptr", ByteSize::kib(64), 1.0).with_writes(0.5),
                GuardedRef::guarded("c", ByteSize::kib(32), 0.5).unaliased(),
            ],
            stack_accesses_per_iteration: 2.0,
            compute_insts_per_iteration: 10,
            outer_repeats: 2,
            code_footprint: ByteSize::kib(16),
        }
    }

    #[test]
    fn iterations_follow_largest_ref() {
        let k = kernel();
        assert_eq!(k.iterations_per_traversal(), 1024 * 1024 / 8);
    }

    #[test]
    fn guarded_counts_exclude_unaliased_refs() {
        let k = kernel();
        assert_eq!(k.guarded_ref_count(), 1);
        assert_eq!(k.guarded_data_size(), ByteSize::kib(64));
        assert_eq!(k.spm_data_size(), ByteSize::kib(1536));
    }

    #[test]
    fn benchmark_aggregates_kernels() {
        let b = BenchmarkSpec {
            name: "X".into(),
            input: "Class T".into(),
            kernels: vec![kernel(), kernel()],
        };
        assert_eq!(b.spm_ref_count(), 4);
        assert_eq!(b.guarded_ref_count(), 2);
        // Both kernels reference the same named arrays, so the unique SPM
        // data set is counted once.
        assert_eq!(b.spm_data_size(), ByteSize::kib(1536));
        assert_eq!(b.guarded_data_size(), ByteSize::kib(128));
    }

    #[test]
    fn scaling_shrinks_datasets_but_never_below_a_line() {
        let b = BenchmarkSpec {
            name: "X".into(),
            input: "Class T".into(),
            kernels: vec![kernel()],
        };
        let s = b.clone().scaled(1.0 / 1024.0);
        assert_eq!(s.kernels[0].spm_refs[0].dataset, ByteSize::kib(1));
        // 64 KiB / 1024 = 64 B, the floor.
        assert_eq!(
            s.kernels[0].random_refs[0].dataset,
            ByteSize::bytes_exact(64)
        );
        assert!(s.input.contains("scale"));
        // Identity scaling keeps sizes and label.
        let id = b.clone().scaled(1.0);
        assert_eq!(id.kernels[0].spm_refs[0].dataset, ByteSize::mib(1));
        assert_eq!(id.input, "Class T");
    }

    #[test]
    #[should_panic]
    fn negative_scale_panics() {
        let b = BenchmarkSpec {
            name: "X".into(),
            input: "T".into(),
            kernels: vec![],
        };
        let _ = b.scaled(-1.0);
    }
}
