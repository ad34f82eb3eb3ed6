//! The compiler model: access classification and code transformation
//! parameters.
//!
//! The real system relies on the compiler to (1) identify private array
//! sections traversed with strided accesses and tile the loop so they are
//! staged through SPM buffers, (2) emit plain GM instructions for random
//! references it can prove never alias SPM-mapped data, and (3) emit guarded
//! instructions for the rest (§2.2–§2.4).  [`compile`] performs the same
//! classification on a [`BenchmarkSpec`] and fixes the concrete address
//! layout, buffer sizes and tiling parameters the trace generator needs.

use simkernel::ByteSize;

use mem::Addr;

use crate::spec::{BenchmarkSpec, KernelSpec};

/// Whether code is generated for the hybrid memory system or for the
/// cache-based baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// The original untiled loop: every reference is a plain cached access.
    CacheOnly,
    /// The transformed loop of Figure 3: strided references staged through
    /// SPM buffers, random references classified as GM or guarded.
    Hybrid,
}

/// The machine parameters the compiler needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineParams {
    /// Number of cores the loop is parallelised over (fork-join).
    pub cores: usize,
    /// Size of each core's scratchpad.
    pub spm_size: ByteSize,
}

impl MachineParams {
    /// The paper's 64-core machine with 32 KB SPMs.
    pub fn isca2015() -> Self {
        MachineParams {
            cores: 64,
            spm_size: ByteSize::kib(32),
        }
    }
}

/// A strided reference after compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledArrayRef {
    /// Name (for reports).
    pub name: String,
    /// Base GM virtual address of the whole array section.
    pub base: Addr,
    /// Bytes of the section owned by each core (its private partition).
    pub partition_bytes: u64,
    /// Element size (traversal stride).
    pub elem_bytes: u64,
    /// Whether the reference stores (requires `dma-put` write-backs).
    pub written: bool,
    /// The SPM buffer assigned to the reference in hybrid mode.
    pub buffer: usize,
    /// Static-instruction identifier (used by the stride prefetcher).
    pub reference_id: u64,
}

/// A random reference after compilation.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledRandomRef {
    /// Name (for reports).
    pub name: String,
    /// Base GM virtual address of the randomly accessed data set.
    pub base: Addr,
    /// Size of the data set in bytes.
    pub size: u64,
    /// Average accesses per loop iteration.
    pub accesses_per_iteration: f64,
    /// Fraction of accesses that are stores.
    pub write_fraction: f64,
    /// Fraction of accesses falling in the hot subset.
    pub hot_fraction: f64,
    /// Fraction of the data set forming the hot subset.
    pub hot_set_fraction: f64,
    /// `true` if the compiler emitted a guarded instruction for it.
    pub guarded: bool,
    /// Static-instruction identifier.
    pub reference_id: u64,
}

/// One kernel after compilation.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledKernel {
    /// Kernel name.
    pub name: String,
    /// The code-generation mode.
    pub mode: ExecMode,
    /// SPM buffer size chosen by the runtime (SPM size / number of buffers).
    pub buffer_size: ByteSize,
    /// Elements of each strided reference staged per tile.
    pub tile_elems: u64,
    /// Loop iterations each core executes per traversal.
    pub iterations_per_core: u64,
    /// Tiles per traversal per core.
    pub tiles_per_traversal: u64,
    /// Outer time-step repetitions of the traversal.
    pub outer_repeats: u64,
    /// The strided references (SPM-mapped in hybrid mode).
    pub spm_refs: Vec<CompiledArrayRef>,
    /// The random references (guarded or plain GM).
    pub random_refs: Vec<CompiledRandomRef>,
    /// Stack accesses per iteration.
    pub stack_accesses_per_iteration: f64,
    /// Non-memory instructions per iteration.
    pub compute_insts_per_iteration: u64,
    /// Extra runtime-library instructions per `MAP` call in the control phase.
    pub control_insts_per_map: u64,
    /// Base virtual address of the kernel's code (for instruction fetches).
    pub code_base: Addr,
    /// Code footprint in bytes.
    pub code_size: u64,
}

impl CompiledKernel {
    /// Total tiles each core executes (traversal tiles × outer repeats).
    pub fn total_tiles_per_core(&self) -> u64 {
        self.tiles_per_traversal * self.outer_repeats
    }

    /// Number of SPM buffers used by the kernel.
    pub fn buffer_count(&self) -> usize {
        self.spm_refs.len()
    }

    /// Returns `true` if the kernel issues at least one guarded access.
    pub fn has_guarded_refs(&self) -> bool {
        self.random_refs.iter().any(|r| r.guarded)
    }
}

/// A fully compiled benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledBenchmark {
    /// Benchmark name.
    pub name: String,
    /// The code-generation mode used.
    pub mode: ExecMode,
    /// The machine the code was generated for.
    pub machine: MachineParams,
    /// The compiled kernels, executed in order with a barrier between them.
    pub kernels: Vec<CompiledKernel>,
}

/// Virtual-address layout constants for the synthetic workloads.
const ARRAY_REGION_BASE: u64 = 0x0000_1000_0000_0000;
const GUARDED_REGION_GAP: u64 = 0x0000_0100_0000_0000;
const CODE_REGION_BASE: u64 = 0x0000_0000_0040_0000;
/// Per-core stack regions (1 MiB apart), far from every data region.
pub const STACK_REGION_BASE: u64 = 0x0000_7f00_0000_0000;

/// Returns the stack base address of a core.
pub fn stack_base(core: usize) -> Addr {
    Addr::new(STACK_REGION_BASE + core as u64 * 0x10_0000)
}

/// Compiles a benchmark for the given mode and machine.
///
/// The classification follows the paper: in hybrid mode every strided
/// reference gets an SPM buffer, random references the alias analysis can
/// disambiguate stay plain GM accesses and the rest become guarded accesses;
/// in cache-only mode everything is a plain cached access.
///
/// # Panics
///
/// Panics if the machine has zero cores or a kernel has more strided
/// references than fit one-per-buffer in the scratchpad at one cache line
/// per buffer.
pub fn compile(spec: &BenchmarkSpec, mode: ExecMode, machine: &MachineParams) -> CompiledBenchmark {
    assert!(machine.cores > 0, "machine needs at least one core");
    let mut next_base = ARRAY_REGION_BASE;
    let mut next_code = CODE_REGION_BASE;
    let mut next_ref_id: u64 = 1;
    // References with the same name in different kernels are the same array
    // section (SP's solver sweeps re-traverse the same grid), so they share
    // their address region.
    let mut named_regions: std::collections::HashMap<String, Addr> =
        std::collections::HashMap::new();

    let kernels = spec
        .kernels
        .iter()
        .map(|k| {
            compile_kernel(
                k,
                mode,
                machine,
                &mut next_base,
                &mut next_code,
                &mut next_ref_id,
                &mut named_regions,
            )
        })
        .collect();

    CompiledBenchmark {
        name: spec.name.clone(),
        mode,
        machine: *machine,
        kernels,
    }
}

fn compile_kernel(
    k: &KernelSpec,
    mode: ExecMode,
    machine: &MachineParams,
    next_base: &mut u64,
    next_code: &mut u64,
    next_ref_id: &mut u64,
    named_regions: &mut std::collections::HashMap<String, Addr>,
) -> CompiledKernel {
    let buffer_count = k.spm_refs.len().max(1);
    let buffer_size =
        ByteSize::bytes_exact((machine.spm_size.bytes() / buffer_count as u64).max(64));
    assert!(
        buffer_size.bytes() >= 64,
        "kernel {} needs more buffers than the SPM can provide",
        k.name
    );

    let max_elem = k
        .spm_refs
        .iter()
        .map(|r| r.elem_bytes)
        .max()
        .unwrap_or(8)
        .max(1);
    let tile_elems = (buffer_size.bytes() / max_elem).max(1);
    let iterations_per_core = (k.iterations_per_traversal() / machine.cores as u64).max(1);
    let tiles_per_traversal = iterations_per_core.div_ceil(tile_elems).max(1);

    // Keeps regions line-aligned and separated by a guard line.
    fn alloc(next_base: &mut u64, bytes: u64) -> Addr {
        let base = Addr::new(*next_base);
        *next_base += bytes.div_ceil(64) * 64 + 64;
        base
    }

    let spm_refs = k
        .spm_refs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let id = *next_ref_id;
            *next_ref_id += 1;
            let base = *named_regions
                .entry(r.name.clone())
                .or_insert_with(|| alloc(next_base, r.dataset.bytes()));
            CompiledArrayRef {
                name: r.name.clone(),
                base,
                partition_bytes: (r.dataset.bytes() / machine.cores as u64).max(r.elem_bytes),
                elem_bytes: r.elem_bytes,
                written: r.written,
                buffer: i,
                reference_id: id,
            }
        })
        .collect();

    // Guarded / GM data sets live in a disjoint region, as in the paper's
    // benchmarks ("the data sets accessed by SPM and guarded accesses are
    // disjoint, though the compiler is unable to ensure it").
    *next_base += GUARDED_REGION_GAP;
    let random_refs = k
        .random_refs
        .iter()
        .map(|r| {
            let id = *next_ref_id;
            *next_ref_id += 1;
            // A random reference whose name matches an array section really
            // does alias it (the case the guarded instructions exist for);
            // everything else gets its own disjoint region, as in the paper's
            // benchmarks.
            let base = named_regions
                .get(&r.name)
                .copied()
                .unwrap_or_else(|| alloc(next_base, r.dataset.bytes()));
            CompiledRandomRef {
                name: r.name.clone(),
                base,
                size: r.dataset.bytes().max(8),
                accesses_per_iteration: r.accesses_per_iteration,
                write_fraction: r.write_fraction,
                hot_fraction: r.hot_fraction,
                hot_set_fraction: r.hot_set_fraction,
                guarded: mode == ExecMode::Hybrid && !r.provably_unaliased,
                reference_id: id,
            }
        })
        .collect();

    let code_base = Addr::new(*next_code);
    // The transformed code plus the runtime library occupy more instruction
    // memory than the original loop (the paper measures up to 3% extra
    // instruction fetches).
    let code_size = match mode {
        ExecMode::CacheOnly => k.code_footprint.bytes(),
        ExecMode::Hybrid => k.code_footprint.bytes() + 8 * 1024,
    };
    *next_code += code_size + 4096;

    CompiledKernel {
        name: k.name.clone(),
        mode,
        buffer_size,
        tile_elems,
        iterations_per_core,
        tiles_per_traversal,
        outer_repeats: k.outer_repeats.max(1),
        spm_refs,
        random_refs,
        stack_accesses_per_iteration: k.stack_accesses_per_iteration,
        compute_insts_per_iteration: k.compute_insts_per_iteration,
        control_insts_per_map: 60,
        code_base,
        code_size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nas::NasBenchmark;

    fn machine() -> MachineParams {
        MachineParams {
            cores: 64,
            spm_size: ByteSize::kib(32),
        }
    }

    #[test]
    fn hybrid_compilation_assigns_buffers_and_guards() {
        let spec = NasBenchmark::Cg.spec_scaled(1.0 / 16.0);
        let c = compile(&spec, ExecMode::Hybrid, &machine());
        assert_eq!(c.kernels.len(), 1);
        let k = &c.kernels[0];
        assert_eq!(k.buffer_count(), 5);
        assert_eq!(k.buffer_size, ByteSize::bytes_exact(32 * 1024 / 5));
        assert!(k.has_guarded_refs());
        assert!(k.random_refs.iter().all(|r| r.guarded));
        // Buffers are assigned densely from zero.
        let buffers: Vec<usize> = k.spm_refs.iter().map(|r| r.buffer).collect();
        assert_eq!(buffers, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn cache_only_compilation_has_no_guarded_refs() {
        let spec = NasBenchmark::Is.spec_scaled(1.0 / 16.0);
        let c = compile(&spec, ExecMode::CacheOnly, &machine());
        assert!(!c.kernels[0].has_guarded_refs());
        assert!(c.kernels[0].random_refs.iter().all(|r| !r.guarded));
    }

    #[test]
    fn unaliased_refs_stay_gm_in_hybrid_mode() {
        let mut spec = NasBenchmark::Is.spec_scaled(1.0 / 16.0);
        spec.kernels[0].random_refs[1].provably_unaliased = true;
        let c = compile(&spec, ExecMode::Hybrid, &machine());
        let guarded: Vec<bool> = c.kernels[0].random_refs.iter().map(|r| r.guarded).collect();
        assert_eq!(guarded, vec![true, false]);
    }

    #[test]
    fn data_regions_are_disjoint() {
        let spec = NasBenchmark::Ft.spec_scaled(1.0 / 64.0);
        let c = compile(&spec, ExecMode::Hybrid, &machine());
        let mut regions: Vec<(u64, u64)> = Vec::new();
        for k in &c.kernels {
            for r in &k.spm_refs {
                regions.push((r.base.raw(), r.base.raw() + r.partition_bytes * 64));
            }
            for r in &k.random_refs {
                regions.push((r.base.raw(), r.base.raw() + r.size));
            }
        }
        regions.sort();
        for pair in regions.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "regions {pair:?} overlap");
        }
    }

    #[test]
    fn tiling_covers_the_whole_partition() {
        let spec = NasBenchmark::Cg.spec_scaled(1.0 / 16.0);
        let c = compile(&spec, ExecMode::Hybrid, &machine());
        let k = &c.kernels[0];
        assert!(k.tile_elems > 0);
        assert!(k.tiles_per_traversal * k.tile_elems >= k.iterations_per_core);
        assert!((k.tiles_per_traversal - 1) * k.tile_elems < k.iterations_per_core);
        assert_eq!(
            k.total_tiles_per_core(),
            k.tiles_per_traversal * k.outer_repeats
        );
    }

    #[test]
    fn hybrid_code_footprint_is_larger() {
        let spec = NasBenchmark::Mg.spec_scaled(1.0 / 64.0);
        let hybrid = compile(&spec, ExecMode::Hybrid, &machine());
        let cache = compile(&spec, ExecMode::CacheOnly, &machine());
        assert!(hybrid.kernels[0].code_size > cache.kernels[0].code_size);
    }

    #[test]
    fn stack_bases_are_per_core_and_disjoint() {
        let a = stack_base(0);
        let b = stack_base(1);
        assert!(b.raw() - a.raw() >= 0x10_0000);
    }

    #[test]
    fn every_nas_benchmark_compiles_in_both_modes() {
        for b in NasBenchmark::ALL {
            let spec = b.spec_scaled(b.recommended_scale() / 8.0);
            for mode in [ExecMode::CacheOnly, ExecMode::Hybrid] {
                let c = compile(&spec, mode, &machine());
                assert_eq!(c.kernels.len(), spec.kernels.len());
                for k in &c.kernels {
                    assert!(k.iterations_per_core > 0);
                    assert!(k.buffer_size.bytes() >= 64);
                }
            }
        }
    }
}
