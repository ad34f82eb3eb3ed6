//! Per-layer metrics: counters summed from the simulated results, and the
//! traced pass plus per-layer probes whose spans give host time per layer.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use campaign::{Executor, ResultCache};
use noc::{run_synthetic, MessageClass, Noc, NocConfig, NocModel, SyntheticTraffic};
use simkernel::{CycleCategory, Json};
use system::sweep::{LoweredRun, RunContext};
use system::{ExecutionEngine, ExperimentSuite, Machine, MachineKind, RunResult};
use workloads::compile;

use crate::check::{point_digest, Evidence};
use crate::host::Host;
use crate::sample::{median, percentile};
use crate::spans::SpanLog;
use crate::suite::{
    matrix_programs, simulate, timed, Class, OracleCounts, PerClass, Point, Workload,
};
use crate::TimedPasses;

/// The paper's reported hybrid-over-cache speedup (64 cores, full inputs).
const PAPER_SPEEDUP: f64 = 1.14;
/// The paper's reported protocol time overhead over ideal coherence, in %.
const PAPER_OVERHEAD_PCT: f64 = 4.0;
/// Packets the synthetic NoC probe aims to inject per model.
const NOC_PROBE_PACKETS: f64 = 100_000.0;
/// Mesh of the synthetic NoC probe (8×8).
const NOC_PROBE_NODES: usize = 64;

/// Counters summed per class from `RunResult.stats`.
const SUMMED: [&str; 21] = [
    "cpu.instructions",
    "cpu.ifetch_lines",
    "cpu.stall_cycles",
    "mem.l1d.accesses",
    "mem.l1d.hits",
    "mem.l2.accesses",
    "mem.dram.accesses",
    "mem.invalidations",
    "dmac.lines",
    "dmac.queue_full_stalls",
    "spm.local_accesses",
    "cohprot.filter.lookups",
    "cohprot.filter.hits",
    "cohprot.filterdir.lookups",
    "cohprot.directory.requests",
    "cohprot.filter_invalidation_rounds",
    "noc.total.packets",
    "noc.total.flit_hops",
    "noc.des.inject.wait_cycles",
    "noc.des.packets.delivered",
    "noc.des.clock.regressions",
];

/// The layers the benchmark's spans are attributed to.
const SPAN_LAYERS: [&str; 6] = [
    "bench",
    "system",
    "simkernel",
    "workloads",
    "noc",
    "campaign",
];

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit| v.push((name, unit));
    add("point_ms_p99".into(), "ms");
    add("pass_wall_s".into(), "s");
    add("host.probe_ms".into(), "ms");
    for c in Class::ALL {
        add(format!("system.run_s.{}", c.id()), "s");
    }
    for c in Class::ALL {
        add(format!("system.host_ns_per_instr.{}", c.id()), "ns");
    }
    for (name, unit) in [
        ("workloads.compile_s", "s"),
        ("workloads.program_gen_s", "s"),
        ("cpu.instructions", "count"),
        ("cpu.ifetch_lines", "count"),
        ("cpu.stall_cycles", "cycles"),
        ("mem.l1d.accesses", "count"),
        ("mem.l1d.hit_ratio", "ratio"),
        ("mem.l2.accesses", "count"),
        ("mem.dram.accesses", "count"),
        ("mem.invalidations", "count"),
        ("dmac.lines", "count"),
        ("dmac.queue_full_stalls", "count"),
        ("spm.local_accesses", "count"),
        ("cohprot.filter.lookups", "count"),
        ("cohprot.filter.hit_ratio", "ratio"),
        ("cohprot.filterdir.lookups", "count"),
        ("cohprot.directory.requests", "count"),
        ("cohprot.filter_invalidation_rounds", "count"),
        ("cohprot.packets", "count"),
        ("noc.total.packets", "count"),
        ("noc.total.flit_hops", "count"),
        ("noc.des.latency.mean", "cycles"),
        ("noc.des.links.max_utilization", "ratio"),
        ("noc.des.inject.wait_cycles", "cycles"),
    ] {
        add(name.to_owned(), unit);
    }
    for e in ExecutionEngine::ALL {
        add(format!("noc.des.clock.regressions.{}", e.id()), "count");
    }
    for m in NocModel::ALL {
        add(format!("noc.host_ns_per_packet.{}", m.id()), "ns");
    }
    add("simkernel.trace_overhead".into(), "x");
    add("simkernel.accounting_overhead".into(), "x");
    for c in CycleCategory::ALL {
        add(format!("attrib.cycles.{}", c.id()), "cycles");
    }
    for (name, unit) in [
        ("oracle.verify_s", "s"),
        ("system.run_raw_s", "s"),
        ("oracle.loads_checked", "count"),
        ("oracle.dma_words_checked", "count"),
        ("oracle.divergences", "count"),
        ("campaign.executor_s", "s"),
        ("campaign.cold_s", "s"),
        ("campaign.warm_s", "s"),
        ("campaign.cache_hits", "count"),
        ("trace.overhead_s", "s"),
    ] {
        add(name.to_owned(), unit);
    }
    for layer in SPAN_LAYERS {
        add(format!("self_s.{layer}"), "s");
    }
    for (name, unit) in model_output_names() {
        add(name, unit);
    }
    v
}

/// The simulated (`model.*`) outputs with their units.
fn model_output_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Class::ALL
        .iter()
        .map(|c| (format!("model.cycles.{}", c.id()), "cycles"))
        .collect();
    for (name, unit) in [
        ("model.hybrid_speedup", "x"),
        ("model.paper_speedup_err", "%"),
        ("model.protocol_overhead_pct", "%"),
        ("model.paper_overhead_err", "pp"),
        ("model.directory_slowdown", "x"),
        ("model.cohprot_packet_ratio", "x"),
        ("model.sim_digest48", "hash"),
    ] {
        v.push((name.to_owned(), unit));
    }
    v
}

/// Sums over the first timed pass's results.
#[derive(Debug, Default)]
pub struct Totals {
    /// Points per class.
    pub points: PerClass<u64>,
    /// Simulated cycles (`execution_time`) per class.
    pub cycles: PerClass<u64>,
    /// Simulated instructions per class.
    pub instructions: PerClass<u64>,
    /// CohProt-class NoC packets per class.
    pub cohprot_packets: PerClass<u64>,
    /// The `SUMMED` counters per class.
    pub stats: PerClass<BTreeMap<&'static str, f64>>,
    /// `noc.des.clock.regressions` per engine, in `ExecutionEngine::ALL` order.
    pub regressions: [u64; 3],
    /// Σ mean DES latency × delivered packets, and Σ delivered packets.
    des_latency: (f64, f64),
    /// Highest per-point DES link utilisation.
    max_link_utilization: f64,
    /// Oracle counters over every verified point.
    pub oracle: OracleCounts,
    /// Σ packets and Σ cores × cycles: the offered NoC load.
    offered: (f64, f64),
}

impl Totals {
    /// Folds one point's result in.
    pub fn add(&mut self, point: &Point, r: &RunResult, oracle: Option<OracleCounts>) {
        let c = point.class().index();
        self.points[c] += 1;
        self.cycles[c] += r.execution_time.as_u64();
        self.instructions[c] += r.instructions;
        self.cohprot_packets[c] += r.traffic.packets(MessageClass::CohProt);
        for name in SUMMED {
            *self.stats[c].entry(name).or_insert(0.0) += r.stats.value(name);
        }
        let engine = ExecutionEngine::ALL
            .iter()
            .position(|&e| e == point.config.engine)
            .expect("every engine is listed");
        self.regressions[engine] += r.stats.count("noc.des.clock.regressions");
        let delivered = r.stats.value("noc.des.packets.delivered");
        self.des_latency.0 += r.stats.value("noc.des.latency.mean") * delivered;
        self.des_latency.1 += delivered;
        self.max_link_utilization = self
            .max_link_utilization
            .max(r.stats.value("noc.des.links.max_utilization"));
        if let Some(o) = oracle {
            self.oracle.loads_checked += o.loads_checked;
            self.oracle.dma_words_checked += o.dma_words_checked;
            self.oracle.divergences += o.divergences;
        }
        self.offered.0 += r.total_packets() as f64;
        self.offered.1 += (point.config.cores as u64 * r.execution_time.as_u64()) as f64;
    }

    /// A counter summed over every class.
    pub fn sum(&self, name: &str) -> f64 {
        self.stats.iter().filter_map(|m| m.get(name)).sum()
    }

    /// Packets per node per cycle over the workload's points.
    pub fn offered_load(&self) -> f64 {
        ratio(self.offered.0, self.offered.1)
    }
}

/// `a / b`, or 0 when `b` is 0 (a metric whose layer the workload does not
/// reach reads 0).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The simulated outputs: exact, host-independent, identical across runs
/// of the same seed.  Metrics a workload has no points for read 0.
pub fn model_outputs(
    workload: Workload,
    timed: &TimedPasses,
    evidence: &[Evidence],
) -> Vec<(String, f64)> {
    let t = &timed.totals;
    let mut v: Vec<(String, f64)> = Class::ALL
        .iter()
        .map(|&c| {
            (
                format!("model.cycles.{}", c.id()),
                t.cycles[c.index()] as f64,
            )
        })
        .collect();
    let (mut speedup, mut overhead) = (0.0, 0.0);
    if workload == Workload::Paper64 && timed.nas_results.iter().all(Option::is_some) {
        // The same averages `full_eval` prints (Figures 9 and 7).
        let mut suite = ExperimentSuite::run(&workload.base_config(0), &[], &[], 1.0);
        for r in timed.nas_results.iter().flatten() {
            suite.insert(&r.benchmark, r.kind, r.clone());
        }
        let summary = suite.summary();
        speedup = summary.average_speedup;
        overhead = (summary.protocol_time_overhead - 1.0) * 100.0;
    }
    let (paper_speedup_err, paper_overhead_err) = if speedup > 0.0 {
        (
            (speedup / PAPER_SPEEDUP - 1.0) * 100.0,
            overhead - PAPER_OVERHEAD_PCT,
        )
    } else {
        (0.0, 0.0)
    };
    let (fd, dir) = (Class::FilterDir.index(), Class::Directory.index());
    let digest = crate::check::combine(evidence.iter().map(|e| e.timed_digest.unwrap_or(0)));
    v.extend([
        ("model.hybrid_speedup".into(), speedup),
        ("model.paper_speedup_err".into(), paper_speedup_err),
        ("model.protocol_overhead_pct".into(), overhead),
        ("model.paper_overhead_err".into(), paper_overhead_err),
        (
            "model.directory_slowdown".into(),
            ratio(t.cycles[dir] as f64, t.cycles[fd] as f64),
        ),
        (
            "model.cohprot_packet_ratio".into(),
            ratio(t.cohprot_packets[dir] as f64, t.cohprot_packets[fd] as f64),
        ),
        // 48 bits fit a JSON number exactly.
        ("model.sim_digest48".into(), (digest >> 16) as f64),
    ]);
    v
}

/// The `--trace 1` pass and probes, and the spans they record.
pub struct Probe<'a> {
    workload: Workload,
    seed: u64,
    points: &'a [Point],
    executor: &'a Executor,
    spans: SpanLog,
}

/// Per-point result of a probe pass: the value or the panic message.
type ProbeResults<R> = Vec<Result<R, String>>;

impl<'a> Probe<'a> {
    /// A probe over `points`, recording spans from `epoch`.
    pub fn new(
        workload: Workload,
        seed: u64,
        points: &'a [Point],
        executor: &'a Executor,
        epoch: Instant,
    ) -> Self {
        Probe {
            workload,
            seed,
            points,
            executor,
            spans: SpanLog::new(epoch),
        }
    }

    /// Number of spans recorded.
    pub fn span_count(&self) -> usize {
        self.spans.spans().len()
    }

    /// Runs `call` on every point the way the timed pass runs points
    /// (serially, or over the executor), inside a `bench.pass` span, with a
    /// `bench.point` span and a `name` span per point.  Returns the pass's
    /// wall seconds and the per-point results in point order.
    fn pass<R: Send>(
        &mut self,
        name: &'static str,
        call: &(dyn Fn(&Point) -> R + Sync),
    ) -> (f64, ProbeResults<R>) {
        let pass = self.spans.open("bench.pass", None, None);
        let epoch = self.spans.epoch();
        let per_point = |i: usize, p: &Point| {
            let mut log = SpanLog::new(epoch);
            let point = log.open("bench.point", None, Some(i));
            let call_span = log.open(name, Some(point), Some(i));
            let (_, r) = timed(|| call(p));
            log.close(call_span);
            log.close(point);
            (log, r)
        };
        let (parent, runs) = if self.workload.parallel() {
            let fan_out = self.spans.open("campaign.executor", Some(pass), None);
            let runs = self.executor.run(self.points, per_point);
            self.spans.close(fan_out);
            (fan_out, runs)
        } else {
            let runs: Vec<_> = self
                .points
                .iter()
                .enumerate()
                .map(|(i, p)| per_point(i, p))
                .collect();
            (pass, runs)
        };
        let wall = self.spans.close(pass);
        let mut results = Vec::with_capacity(runs.len());
        for (log, r) in runs {
            self.spans.absorb(log, Some(parent));
            results.push(r);
        }
        (wall, results)
    }

    /// Runs the traced pass and every probe; returns the per-layer metrics
    /// in `per_layer_names` order and prints the per-class counters.
    pub fn run(
        &mut self,
        timed_passes: &TimedPasses,
        evidence: &mut [Evidence],
    ) -> Vec<(String, f64, &'static str)> {
        let mut v: BTreeMap<String, f64> = BTreeMap::new();
        let raw = self.workload == Workload::CoherenceMatrix;
        v.insert(
            "point_ms_p99".into(),
            percentile(&timed_passes.point_medians(), 99.0),
        );
        v.insert("pass_wall_s".into(), median(&timed_passes.walls));
        v.insert("host.probe_ms".into(), median(&timed_passes.probe_ms));

        // The traced pass: the timed pass's calls, inside spans.
        let call = if raw {
            "system.verify_raw"
        } else {
            "system.run"
        };
        let (traced_wall, runs) = self.pass(call, &|p| simulate(p).0);
        note_digests(evidence, "traced", &runs, |r| r);
        // The executor's share of the traced pass (matrix only).
        v.insert(
            "campaign.executor_s".into(),
            self.spans.total_s("campaign.executor"),
        );
        v.insert(
            "trace.overhead_s".into(),
            traced_wall - median(&timed_passes.walls),
        );
        let mut run_s = [0.0; 4];
        for s in self.spans.spans().iter().filter(|s| s.name == call) {
            let p = s.point.expect("call spans carry their point");
            run_s[self.points[p].class().index()] += s.duration_s();
        }
        let t = &timed_passes.totals;
        for c in Class::ALL {
            let i = c.index();
            v.insert(format!("system.run_s.{}", c.id()), run_s[i]);
            v.insert(
                format!("system.host_ns_per_instr.{}", c.id()),
                ratio(run_s[i] * 1e9, t.instructions[i] as f64),
            );
        }

        // workloads: the compiler (NAS) or the program generator (matrix).
        if raw {
            let base = self.workload.base_config(self.seed);
            for kind in MachineKind::ALL {
                self.spans.time("workloads.program_gen", None, None, || {
                    black_box(matrix_programs(kind, &base, self.seed));
                });
            }
        } else {
            self.pass("workloads.compile", &|p| {
                black_box(compile(p.spec(), p.exec_mode(), &p.machine_params()));
            });
        }
        v.insert(
            "workloads.compile_s".into(),
            self.spans.total_s("workloads.compile"),
        );
        v.insert(
            "workloads.program_gen_s".into(),
            self.spans.total_s("workloads.program_gen"),
        );

        // Observers: plain vs accounted vs traced, as whole passes.  Every
        // observer must leave the result — and so the digest — untouched.
        let (plain_wall, accounted_wall, observed_wall, accounted, observed);
        if raw {
            let plain;
            (plain_wall, plain) = self.pass("system.run_raw", &|p| p.machine().run_raw(p.raw()));
            note_digests(evidence, "run_raw", &plain, |r| r);
            (accounted_wall, accounted) = self.pass("system.run_raw_accounted", &|p| {
                p.machine().run_raw_accounted(p.raw())
            });
            (observed_wall, observed) = self.pass("system.run_raw_traced", &|p| {
                let mut cfg = p.config.clone();
                cfg.trace.enabled = true;
                Machine::new(p.kind, cfg).run_raw(p.raw())
            });
        } else {
            plain_wall = traced_wall;
            (accounted_wall, accounted) = self.pass("system.run_accounted", &|p| {
                p.machine().run_accounted(p.spec())
            });
            (observed_wall, observed) = self.pass("system.run_traced", &|p| {
                let (r, capture) = p.machine().run_traced(p.spec());
                black_box(capture.events());
                r
            });
        }
        note_digests(evidence, "accounted", &accounted, |r| &r.0);
        note_digests(evidence, "observer-traced", &observed, |r| r);
        v.insert(
            "simkernel.trace_overhead".into(),
            observed_wall / plain_wall,
        );
        v.insert(
            "simkernel.accounting_overhead".into(),
            accounted_wall / plain_wall,
        );
        let mut attrib = [0u64; CycleCategory::COUNT];
        for (i, r) in accounted.iter().enumerate() {
            let Ok((_, breakdown)) = r else { continue };
            let check = self
                .spans
                .time("simkernel.check_exhaustive", None, Some(i), || {
                    breakdown.check_exhaustive()
                });
            if let Err(e) = check {
                evidence[i].accounting_error.get_or_insert(e);
            }
            let totals = self
                .spans
                .time("simkernel.totals", None, Some(i), || breakdown.totals());
            for (sum, c) in attrib.iter_mut().zip(totals.counts()) {
                *sum += c;
            }
        }
        for (c, sum) in CycleCategory::ALL.iter().zip(attrib) {
            v.insert(format!("attrib.cycles.{}", c.id()), sum as f64);
        }

        // oracle: the verified pass against the plain raw pass.
        v.insert(
            "oracle.verify_s".into(),
            self.spans.total_s("system.verify_raw"),
        );
        v.insert(
            "system.run_raw_s".into(),
            self.spans.total_s("system.run_raw"),
        );
        v.insert("oracle.loads_checked".into(), t.oracle.loads_checked as f64);
        v.insert(
            "oracle.dma_words_checked".into(),
            t.oracle.dma_words_checked as f64,
        );
        v.insert("oracle.divergences".into(), t.oracle.divergences as f64);

        self.noc_probe(t.offered_load(), &mut v);
        self.campaign_probe(evidence, &mut v);

        // Simulated counters.
        for name in SUMMED {
            v.insert(name.into(), t.sum(name));
        }
        v.insert(
            "mem.l1d.hit_ratio".into(),
            ratio(t.sum("mem.l1d.hits"), t.sum("mem.l1d.accesses")),
        );
        v.insert(
            "cohprot.filter.hit_ratio".into(),
            ratio(
                t.sum("cohprot.filter.hits"),
                t.sum("cohprot.filter.lookups"),
            ),
        );
        v.insert(
            "cohprot.packets".into(),
            t.cohprot_packets.iter().sum::<u64>() as f64,
        );
        v.insert(
            "noc.des.latency.mean".into(),
            ratio(t.des_latency.0, t.des_latency.1),
        );
        v.insert(
            "noc.des.links.max_utilization".into(),
            t.max_link_utilization,
        );
        for (e, n) in ExecutionEngine::ALL.iter().zip(t.regressions) {
            v.insert(format!("noc.des.clock.regressions.{}", e.id()), n as f64);
        }
        v.extend(model_outputs(self.workload, timed_passes, evidence));

        let self_s = self.spans.self_s_by_layer();
        for layer in SPAN_LAYERS {
            v.insert(
                format!("self_s.{layer}"),
                self_s.get(layer).copied().unwrap_or(0.0),
            );
        }
        print_class_counters(t);

        per_layer_names()
            .into_iter()
            .map(|(name, unit)| {
                let value = v
                    .remove(&name)
                    .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
                (name, value, unit)
            })
            .collect()
    }

    /// `noc::run_synthetic` on an 8×8 mesh at the workload's offered load,
    /// once per NoC model: host nanoseconds per delivered packet.
    fn noc_probe(&mut self, offered_load: f64, v: &mut BTreeMap<String, f64>) {
        let rate = offered_load.clamp(1e-4, 1.0);
        let duration = (NOC_PROBE_PACKETS / (rate * NOC_PROBE_NODES as f64)).clamp(1e3, 1e6) as u64;
        let traffic = SyntheticTraffic::uniform(rate, duration, self.seed);
        println!("noc probe: {rate:.5} packets/node/cycle for {duration} cycles on an 8×8 mesh");
        for model in NocModel::ALL {
            let mut noc = Noc::new(NocConfig::isca2015(NOC_PROBE_NODES).with_model(model));
            let id = self.spans.open("noc.run_synthetic", None, None);
            let report = run_synthetic(&mut noc, &traffic);
            let s = self.spans.close(id);
            v.insert(
                format!("noc.host_ns_per_packet.{}", model.id()),
                ratio(s * 1e9, report.delivered as f64),
            );
        }
    }

    /// The paper64 points through a content-addressed result cache in a
    /// scratch directory: a cold pass that simulates and stores, then a
    /// warm pass served from the cache.  Both must reproduce the timed
    /// digests.
    fn campaign_probe(&mut self, evidence: &mut [Evidence], v: &mut BTreeMap<String, f64>) {
        let (mut cold_s, mut warm_s, mut hits) = (0.0, 0.0, 0.0);
        let clean = evidence.iter().all(|e| e.panic.is_none());
        if self.workload == Workload::Paper64 && clean {
            let dir = PathBuf::from(".perfbench").join(format!("cache-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let ctx = RunContext::new(Executor::serial(), Some(ResultCache::new(&dir)));
            let lowered: Vec<LoweredRun> = self
                .points
                .iter()
                .map(|p| (p.config.clone(), p.spec().clone(), p.kind))
                .collect();
            let id = self.spans.open("campaign.cold", None, None);
            let cold = ctx.run_lowered(&lowered);
            cold_s = self.spans.close(id);
            let id = self.spans.open("campaign.warm", None, None);
            let warm = ctx.run_lowered(&lowered);
            warm_s = self.spans.close(id);
            hits = warm.cache_hits as f64;
            for (pass, report) in [("campaign cold", cold), ("campaign warm", warm)] {
                let runs: ProbeResults<RunResult> = report.results.into_iter().map(Ok).collect();
                note_digests(evidence, pass, &runs, |r| r);
            }
            if let Err(e) = std::fs::remove_dir_all(&dir) {
                eprintln!("perfbench: cannot remove {}: {e}", dir.display());
            }
        }
        v.insert("campaign.cold_s".into(), cold_s);
        v.insert("campaign.warm_s".into(), warm_s);
        v.insert("campaign.cache_hits".into(), hits);
    }

    /// Writes the spans, with the provenance line, to
    /// `.perfbench/spans-<workload>-seed<seed>.json`; returns the path.
    pub fn write_spans(&self, host: &Host, args: &str) -> std::io::Result<String> {
        let dir = PathBuf::from(".perfbench");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!(
            "spans-{}-seed{}.json",
            self.workload.name(),
            self.seed
        ));
        let doc = Json::obj([
            ("args", Json::str(args)),
            ("git_rev", Json::str(&host.git_rev)),
            ("threads", Json::from(host.threads as u64)),
            ("cpu", Json::str(&host.cpu_model)),
            (
                "points",
                Json::Arr(self.points.iter().map(|p| Json::str(&p.label)).collect()),
            ),
            ("spans", self.spans.to_json()),
        ]);
        std::fs::write(&path, doc.dump())?;
        Ok(path.display().to_string())
    }
}

/// Records each result's digest as one more pass's, to be compared with the
/// timed digest, and each panic as a failure.
fn note_digests<R>(
    evidence: &mut [Evidence],
    pass: &'static str,
    runs: &ProbeResults<R>,
    result: impl Fn(&R) -> &RunResult,
) {
    for (ev, r) in evidence.iter_mut().zip(runs) {
        match r {
            Ok(r) => ev.later_digests.push((pass, point_digest(result(r)))),
            Err(msg) => {
                ev.panic.get_or_insert(msg.clone());
            }
        }
    }
}

fn print_class_counters(t: &Totals) {
    println!(
        "{:<36} {}",
        "counter (first timed pass)",
        Class::ALL.map(|c| format!("{:>16}", c.id())).join("")
    );
    let row = |name: &str, values: [f64; 4]| {
        println!("{name:<36} {}", values.map(|x| format!("{x:>16}")).join(""))
    };
    row("points", t.points.map(|x| x as f64));
    row("model.cycles", t.cycles.map(|x| x as f64));
    row("instructions", t.instructions.map(|x| x as f64));
    row("noc.cohprot.packets", t.cohprot_packets.map(|x| x as f64));
    for name in SUMMED {
        let per_class = [0, 1, 2, 3].map(|i| t.stats[i].get(name).copied().unwrap_or(0.0));
        row(name, per_class);
    }
}

/// Prints the per-layer metrics, one per line.
pub fn print_table(values: &[(String, f64, &'static str)]) {
    for (name, value, unit) in values {
        println!("{name:<40} {value:>18.6} {unit}");
    }
}
