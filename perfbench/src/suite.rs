//! The benchmark's workloads: explicit point lists built from the seed, and
//! the calls that simulate one point.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use noc::NocModel;
use system::verify::verification_config;
use system::{CoherenceProtocol, ExecutionEngine, Machine, MachineKind, RunResult, SystemConfig};
use workloads::litmus::{catalogue, random_program, FuzzParams};
use workloads::{BenchmarkSpec, ExecMode, MachineParams, NasBenchmark, RawKernel};

/// Fuzz programs per matrix configuration; the seed picks which 200.
pub const FUZZ_SEEDS: u64 = 200;
/// Cores of the verification machine the matrix runs on.
pub const MATRIX_CORES: usize = 4;
/// Rounds and ops per round of each fuzz program (`coherence_check`'s
/// defaults).
const FUZZ_ROUNDS: usize = 4;
const FUZZ_OPS: usize = 24;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 64-core machine: five NAS benchmarks × three machines on
    /// the default engine, NoC and protocol.
    Paper64,
    /// CG and IS × {cache-only, filterdir, directory} on 64 cores with the
    /// interleaved engine and the discrete-event NoC.
    Guarded64Des,
    /// Litmus + seeded fuzz programs under the oracle on every machine ×
    /// engine × NoC model × protocol, fanned out over the campaign executor.
    CoherenceMatrix,
}

impl Workload {
    /// Every workload; `BENCHMARK.json` declares paper64 and
    /// coherence_matrix, and guarded64_des runs on request (see the README).
    pub const ALL: [Workload; 3] = [
        Workload::Paper64,
        Workload::Guarded64Des,
        Workload::CoherenceMatrix,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper64 => "paper64",
            Workload::Guarded64Des => "guarded64_des",
            Workload::CoherenceMatrix => "coherence_matrix",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether points fan out over the campaign executor (else serial).
    pub fn parallel(self) -> bool {
        self == Workload::CoherenceMatrix
    }

    /// The NAS benchmarks the workload runs (none for the matrix).
    pub fn benchmarks(self) -> &'static [NasBenchmark] {
        // SP is left out: one SP point simulates ~171M instructions (CG:
        // 6.9M) and was 72–81% of full_eval's wall time.
        const PAPER: [NasBenchmark; 5] = [
            NasBenchmark::Cg,
            NasBenchmark::Ep,
            NasBenchmark::Ft,
            NasBenchmark::Is,
            NasBenchmark::Mg,
        ];
        // The two benchmarks with the most guarded accesses.
        const GUARDED: [NasBenchmark; 2] = [NasBenchmark::Cg, NasBenchmark::Is];
        match self {
            Workload::Paper64 => &PAPER,
            Workload::Guarded64Des => &GUARDED,
            Workload::CoherenceMatrix => &[],
        }
    }

    /// The base configuration every point of the workload starts from.
    pub fn base_config(self, seed: u64) -> SystemConfig {
        let mut cfg = match self {
            Workload::Paper64 => SystemConfig::isca2015(),
            Workload::Guarded64Des => {
                let mut cfg = SystemConfig::isca2015();
                cfg.engine = ExecutionEngine::Interleaved;
                cfg.set_noc_model(NocModel::DiscreteEvent);
                cfg
            }
            Workload::CoherenceMatrix => verification_config(MATRIX_CORES),
        };
        cfg.trace_seed = seed;
        cfg
    }

    /// Builds the workload's points from `seed`.
    ///
    /// The lists are explicit so that each distinct simulation runs once:
    /// the protocol axis applies to the proposed machine only.
    pub fn points(self, seed: u64) -> Vec<Point> {
        let base = self.base_config(seed);
        let mut points = Vec::new();
        match self {
            Workload::Paper64 => {
                for &bench in self.benchmarks() {
                    let spec = bench.spec_scaled(bench.recommended_scale());
                    for kind in MachineKind::ALL {
                        points.push(Point::new(
                            bench.name(),
                            kind,
                            base.clone(),
                            Program::Spec(spec.clone()),
                        ));
                    }
                }
            }
            Workload::Guarded64Des => {
                for &bench in self.benchmarks() {
                    let spec = bench.spec_scaled(bench.recommended_scale());
                    for (kind, protocol) in [
                        (MachineKind::CacheOnly, CoherenceProtocol::FilterDir),
                        (MachineKind::HybridProposed, CoherenceProtocol::FilterDir),
                        (MachineKind::HybridProposed, CoherenceProtocol::Directory),
                    ] {
                        let mut cfg = base.clone();
                        cfg.coherence_protocol = protocol;
                        points.push(Point::new(
                            bench.name(),
                            kind,
                            cfg,
                            Program::Spec(spec.clone()),
                        ));
                    }
                }
            }
            Workload::CoherenceMatrix => {
                for kind in MachineKind::ALL {
                    let protocols: &[CoherenceProtocol] = if kind == MachineKind::HybridProposed {
                        &CoherenceProtocol::ALL
                    } else {
                        &[CoherenceProtocol::FilterDir]
                    };
                    for &protocol in protocols {
                        for engine in ExecutionEngine::ALL {
                            for model in NocModel::ALL {
                                let mut cfg = base.clone();
                                cfg.engine = engine;
                                cfg.set_noc_model(model);
                                cfg.coherence_protocol = protocol;
                                for program in matrix_programs(kind, &cfg, seed) {
                                    let name = program.name.clone();
                                    points.push(Point::new(
                                        &name,
                                        kind,
                                        cfg.clone(),
                                        Program::Raw(program),
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }
        points
    }
}

/// The programs of one matrix configuration: the litmus catalogue (on
/// machines with scratchpads) and `FUZZ_SEEDS` fuzz programs starting at
/// `seed × FUZZ_SEEDS`.
pub fn matrix_programs(kind: MachineKind, cfg: &SystemConfig, seed: u64) -> Vec<RawKernel> {
    let buffer_size = cfg.spm.size / 2;
    let mut programs = Vec::new();
    if kind.has_spms() {
        programs.extend(
            catalogue()
                .iter()
                .map(|c| (c.build)(cfg.cores, buffer_size)),
        );
    }
    let params = FuzzParams {
        cores: cfg.cores,
        buffer_size,
        rounds: FUZZ_ROUNDS,
        ops_per_round: FUZZ_OPS,
        mode: exec_mode(kind),
    };
    let first = fuzz_seed_base(seed);
    programs.extend((first..first + FUZZ_SEEDS).map(|s| random_program(s, &params)));
    programs
}

/// The first fuzz seed of the matrix built from benchmark seed `seed`.
pub fn fuzz_seed_base(seed: u64) -> u64 {
    seed.wrapping_mul(FUZZ_SEEDS)
}

fn exec_mode(kind: MachineKind) -> ExecMode {
    if kind == MachineKind::CacheOnly {
        ExecMode::CacheOnly
    } else {
        ExecMode::Hybrid
    }
}

/// What a point runs.
#[derive(Debug, Clone)]
pub enum Program {
    /// A NAS benchmark specification.
    Spec(BenchmarkSpec),
    /// A raw litmus or fuzz program, run under the oracle.
    Raw(RawKernel),
}

/// A point's class: the machine, split by coherence backend on the
/// proposed machine.  Per-class sums key the `system.*` and `model.cycles.*`
/// metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// The cache-based baseline.
    CacheOnly,
    /// The hybrid machine with ideal coherence.
    HybridIdeal,
    /// The hybrid machine with the paper's filter/filterDir protocol.
    FilterDir,
    /// The hybrid machine with the plain home-directory baseline.
    Directory,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 4] = [
        Class::CacheOnly,
        Class::HybridIdeal,
        Class::FilterDir,
        Class::Directory,
    ];

    /// The class's position in [`Class::ALL`] and in a [`PerClass`] array.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The class's name in metric names.
    pub fn id(self) -> &'static str {
        match self {
            Class::CacheOnly => "cache-only",
            Class::HybridIdeal => "hybrid-ideal",
            Class::FilterDir => "filterdir",
            Class::Directory => "directory",
        }
    }
}

/// One value per [`Class`], in [`Class::ALL`] order.
pub type PerClass<T> = [T; 4];

/// One simulation of a workload.
#[derive(Debug, Clone)]
pub struct Point {
    /// Human-readable identity, printed when the point fails.
    pub label: String,
    /// The machine kind.
    pub kind: MachineKind,
    /// The full configuration.
    pub config: SystemConfig,
    /// What runs.
    pub program: Program,
}

impl Point {
    fn new(name: &str, kind: MachineKind, config: SystemConfig, program: Program) -> Self {
        let label = format!(
            "{name}/{}/{}/{}/{}",
            kind.id(),
            config.engine.id(),
            config.noc_model().id(),
            config.coherence_protocol.id()
        );
        Point {
            label,
            kind,
            config,
            program,
        }
    }

    /// The NAS specification the point runs.
    pub fn spec(&self) -> &BenchmarkSpec {
        match &self.program {
            Program::Spec(spec) => spec,
            Program::Raw(_) => panic!("{} is not a NAS point", self.label),
        }
    }

    /// The raw program the point runs.
    pub fn raw(&self) -> &RawKernel {
        match &self.program {
            Program::Raw(program) => program,
            Program::Spec(_) => panic!("{} is not a raw-program point", self.label),
        }
    }

    /// The point's class.
    pub fn class(&self) -> Class {
        match (self.kind, self.config.coherence_protocol) {
            (MachineKind::CacheOnly, _) => Class::CacheOnly,
            (MachineKind::HybridIdeal, _) => Class::HybridIdeal,
            (MachineKind::HybridProposed, CoherenceProtocol::FilterDir) => Class::FilterDir,
            (MachineKind::HybridProposed, CoherenceProtocol::Directory) => Class::Directory,
        }
    }

    /// Whether the point runs under the discrete-event NoC.
    pub fn is_des(&self) -> bool {
        self.config.noc_model() == NocModel::DiscreteEvent
    }

    /// A fresh machine for the point.
    pub fn machine(&self) -> Machine {
        Machine::new(self.kind, self.config.clone())
    }

    /// The workload compiler's view of the point's machine.
    pub fn machine_params(&self) -> MachineParams {
        MachineParams {
            cores: self.config.cores,
            spm_size: self.config.spm.size,
        }
    }

    /// The compiler mode of the point's machine.
    pub fn exec_mode(&self) -> ExecMode {
        exec_mode(self.kind)
    }
}

/// Oracle counters of one verified run.
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleCounts {
    /// Load values compared against the reference memory.
    pub loads_checked: u64,
    /// DMA words compared.
    pub dma_words_checked: u64,
    /// Divergences reported.
    pub divergences: u64,
}

/// The observers-off simulation of one point, as the timed pass runs it:
/// `Machine::run` for NAS points, `Machine::verify_raw` for raw programs.
pub fn simulate(point: &Point) -> (RunResult, Option<OracleCounts>) {
    let machine = point.machine();
    match &point.program {
        Program::Spec(spec) => (machine.run(spec), None),
        Program::Raw(program) => {
            let outcome = machine.verify_raw(program);
            let counts = OracleCounts {
                loads_checked: outcome.report.loads_checked,
                dma_words_checked: outcome.report.dma_words_checked,
                divergences: outcome.report.divergences.len() as u64,
            };
            (outcome.result, Some(counts))
        }
    }
}

/// Runs `f`, returning its host seconds and its value or panic message.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, Result<R, String>) {
    let start = Instant::now();
    let r = catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| e.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into())
    });
    (start.elapsed().as_secs_f64(), r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_lists_run_each_distinct_simulation_once() {
        let guarded = Workload::Guarded64Des.points(1);
        assert_eq!(guarded.len(), 6, "cache-only runs once per benchmark");
        let classes: Vec<Class> = guarded.iter().map(Point::class).collect();
        assert_eq!(
            classes,
            [Class::CacheOnly, Class::FilterDir, Class::Directory].repeat(2)
        );
        assert!(guarded.iter().all(|p| p.is_des()
            && p.config.engine == ExecutionEngine::Interleaved
            && p.config.cores == 64));

        let paper = Workload::Paper64.points(1);
        assert_eq!(paper.len(), 15);
        assert!(paper
            .iter()
            .all(|p| !p.is_des() && p.config.engine == SystemConfig::isca2015().engine));

        let matrix = Workload::CoherenceMatrix.points(1);
        let litmus = catalogue().len() as u64;
        // 4 configurations (cache-only, ideal, proposed × 2 protocols)
        // × 3 engines × 2 NoC models; litmus only on hybrid machines.
        assert_eq!(matrix.len() as u64, 24 * FUZZ_SEEDS + 18 * litmus);
        let mut labels: Vec<&str> = matrix.iter().map(|p| p.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), matrix.len(), "labels identify points");
    }

    #[test]
    fn the_seed_reaches_every_point() {
        for w in Workload::ALL {
            assert!(w.points(9).iter().all(|p| p.config.trace_seed == 9));
        }
        assert_eq!(fuzz_seed_base(3), 600);
    }

    #[test]
    fn the_seed_decides_the_digest() {
        use crate::check::point_digest;
        // A matrix fuzz point, through the workload's own point list.
        let fuzz = |seed| {
            let points = Workload::CoherenceMatrix.points(seed);
            let p = points
                .iter()
                .find(|p| p.label.starts_with("fuzz") && p.class() == Class::FilterDir)
                .expect("the matrix has proposed-machine fuzz points");
            point_digest(&simulate(p).0)
        };
        assert_eq!(fuzz(1), fuzz(1));
        assert_ne!(fuzz(1), fuzz(2));
        // A NAS point: the seed reaches the trace through `trace_seed` (a
        // shrunken input on a small machine keeps the test fast).
        let nas = |seed| {
            let mut cfg = SystemConfig::small(2);
            cfg.trace_seed = Workload::Paper64.base_config(seed).trace_seed;
            let spec = NasBenchmark::Cg.spec_scaled(1.0 / 1024.0);
            point_digest(&Machine::new(MachineKind::CacheOnly, cfg).run(&spec))
        };
        assert_eq!(nas(7), nas(7));
        assert_ne!(nas(7), nas(8));
    }

    #[test]
    fn panics_are_caught_and_named() {
        let (_, r) = timed(|| -> u32 { panic!("model broke") });
        assert_eq!(r.unwrap_err(), "model broke");
        let (s, r) = timed(|| 5);
        assert_eq!(r, Ok(5));
        assert!(s >= 0.0);
    }
}
