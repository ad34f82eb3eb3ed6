//! `perfbench`: the simulator's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload paper64|guarded64_des|coherence_matrix
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload is a closed loop: one process simulates a fixed point set
//! back to back, pass after pass, until `--seconds` of passes have run.
//! Every host-time sample is calibrated to a reference host speed (see
//! `calib`).
//! `--trace 0` reports the end-to-end metrics; `--trace 1` also runs a
//! span-recorded pass and per-layer probes and reports the per-layer
//! metrics.  The last stdout line is one JSON object; everything above it
//! is the human-readable report.  See `perfbench/README.md`.

mod calib;
mod check;
mod host;
mod layers;
mod sample;
mod spans;
mod suite;

use std::process::ExitCode;
use std::time::Instant;

use campaign::Executor;
use simkernel::Json;
use system::RunResult;

use check::{point_digest, Evidence};
use host::Host;
use suite::{simulate, timed, OracleCounts, Point, Workload};

/// The end-to-end metrics, with their units, in `BENCHMARK.json` order.
/// (`point_ms_p99` is a per-layer metric: see the README's "Noise".)
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("sim_mips", "Minstr/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("point_ms_p50", "ms"),
    ("pass_ratio", "ratio"),
];

/// Timed passes run at least this often, so the median is robust to one
/// slow pass.
const MIN_PASSES: usize = 3;
/// Each round of set-up repeats for at least this long; a round runs before
/// the first pass and after each.
const SETUP_BUDGET_S: f64 = 0.3;

const USAGE: &str = "usage: perfbench --workload paper64|guarded64_des|coherence_matrix \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut parsed = Args {
            workload: Workload::Paper64,
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(&value).ok_or(format!("unknown workload '{value}'"))?,
                    )
                }
                "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => {
                    parsed.seconds = value.parse().map_err(|e| bad(&e))?;
                    if !(parsed.seconds.is_finite() && parsed.seconds >= 0.0) {
                        return Err(bad(&"must be a non-negative number"));
                    }
                }
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"must be 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown argument '{flag}'")),
            }
        }
        parsed.workload = workload.ok_or("--workload is required")?;
        Ok(parsed)
    }
}

/// What the timed passes measured.
#[derive(Debug, Default)]
pub struct TimedPasses {
    /// Host seconds of each pass.
    pub walls: Vec<f64>,
    /// Calibrated host milliseconds of each point, one sample per pass.
    pub point_ms: Vec<Vec<f64>>,
    /// Host milliseconds of the calibration probe, one per measurement.
    pub probe_ms: Vec<f64>,
    /// Simulated instructions of one pass.
    pub instructions: u64,
    /// Per-class and per-layer sums over the first pass's results.
    pub totals: layers::Totals,
    /// The first pass's results of the NAS workloads (the model outputs).
    pub nas_results: Vec<Option<RunResult>>,
}

impl TimedPasses {
    /// Each point's median calibrated host milliseconds over the passes.
    pub fn point_medians(&self) -> Vec<f64> {
        self.point_ms.iter().map(|v| sample::median(v)).collect()
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = Host::detect();
    let workload = args.workload;
    // One worker: a second one contends with the first for the host's
    // cores and widened the matrix's spread between runs sixfold (see the
    // README's "Noise").
    let executor = Executor::new(1);

    let mut setup_times = Vec::new();
    let points = time_setup(workload, args.seed, &mut setup_times);
    print_provenance(&host, &args, &points, &executor);

    let mut evidence = vec![Evidence::default(); points.len()];
    let timed_passes = run_timed(
        workload,
        args.seed,
        &points,
        &executor,
        args.seconds,
        &mut evidence,
        &mut setup_times,
    );
    let peak_rss_mib = host::peak_rss_mib();
    let setup_s = sample::median(&setup_times);

    let mut layer_values = None;
    if args.trace {
        let epoch = Instant::now();
        let mut probe = layers::Probe::new(workload, args.seed, &points, &executor, epoch);
        let values = probe.run(&timed_passes, &mut evidence);
        match probe.write_spans(&host, &args_line(&args)) {
            Ok(path) => println!("spans: {} written to {path}", probe.span_count()),
            Err(e) => {
                eprintln!("perfbench: cannot write spans: {e}");
                return ExitCode::FAILURE;
            }
        }
        layer_values = Some(values);
    }

    // Failures, named.
    let mut failed = 0u64;
    let mut invalid = 0u64;
    for (point, ev) in points.iter().zip(&evidence) {
        let reasons = ev.failures();
        if !reasons.is_empty() {
            failed += 1;
            invalid += u64::from(ev.output_invalid());
            println!("FAILED {}: {}", point.label, reasons.join("; "));
        }
    }
    let attempted = points.len() as u64;
    let fail_ratio = failed as f64 / attempted as f64;

    let point_ms = timed_passes.point_medians();
    let wall_s = point_ms.iter().sum::<f64>() / 1e3;
    let end_to_end = [
        wall_s,
        timed_passes.instructions as f64 / wall_s / 1e6,
        setup_s,
        peak_rss_mib,
        sample::percentile(&point_ms, 50.0),
        1.0 - fail_ratio,
    ];
    println!(
        "timed: {} pass(es) of {} points, pass walls {:?} s",
        timed_passes.walls.len(),
        points.len(),
        timed_passes.walls
    );
    println!(
        "point_ms samples: {} per-point medians, p99 {:.6} ms ({} beyond p99); set-up repeated {}×",
        point_ms.len(),
        sample::percentile(&point_ms, 99.0),
        sample::samples_beyond(point_ms.len(), 99.0),
        setup_times.len()
    );
    // Per-point lines for the serial (NAS) workloads.
    for ((point, r), ms) in points.iter().zip(&timed_passes.nas_results).zip(&point_ms) {
        let cycles = r.as_ref().map_or(0, |r| r.execution_time.as_u64());
        println!(
            "point {:<48} {cycles:>10} cycles {ms:>10.3} ms",
            point.label
        );
    }
    println!("fail_ratio = {fail_ratio} ({failed} of {attempted} points failed)");
    println!(
        "sim_digest = {:016x}",
        check::combine(evidence.iter().map(|e| e.timed_digest.unwrap_or(0)))
    );
    for ((name, unit), value) in END_TO_END.iter().zip(end_to_end) {
        println!("{name:<16} {value:>14.6} {unit}");
    }
    for (name, value) in layers::model_outputs(workload, &timed_passes, &evidence) {
        println!("{name:<32} {value:>14.6}");
    }

    let metrics: Vec<(String, f64, &str)> = match layer_values {
        None => END_TO_END
            .iter()
            .zip(end_to_end)
            .map(|(&(name, unit), v)| (name.to_owned(), v, unit))
            .collect(),
        Some(values) => {
            layers::print_table(&values);
            values
        }
    };
    println!("{}", result_line(invalid == 0, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

/// Builds the point list from the seed — the set-up a user pays before the
/// first simulation — repeatedly for at least `SETUP_BUDGET_S`, appending
/// each build's calibrated host seconds to `times`.
fn time_setup(workload: Workload, seed: u64, times: &mut Vec<f64>) -> Vec<Point> {
    let start = Instant::now();
    loop {
        let probe_s = calib::probe_s();
        let t = Instant::now();
        let points = std::hint::black_box(workload.points(seed));
        times.push(calib::calibrate(t.elapsed().as_secs_f64(), probe_s));
        if start.elapsed().as_secs_f64() >= SETUP_BUDGET_S {
            return points;
        }
    }
}

/// Runs timed passes while another pass of average length fits in
/// `seconds` (and at least `MIN_PASSES`), recording per-point evidence;
/// observers are off.  Set-up is re-timed after every pass, so its median,
/// like the passes', spans the whole run.
fn run_timed(
    workload: Workload,
    seed: u64,
    points: &[Point],
    executor: &Executor,
    seconds: f64,
    evidence: &mut [Evidence],
    setup_times: &mut Vec<f64>,
) -> TimedPasses {
    let mut out = TimedPasses {
        point_ms: vec![Vec::new(); points.len()],
        ..TimedPasses::default()
    };
    let sample = |p: &Point| {
        let probe_s = calib::probe_s();
        let (host_s, run) = timed(|| simulate(p));
        (host_s, probe_s, run)
    };
    loop {
        let start = Instant::now();
        let runs = if workload.parallel() {
            executor.run(points, |_, p| sample(p))
        } else {
            points.iter().map(sample).collect()
        };
        out.walls.push(start.elapsed().as_secs_f64());
        let first = out.walls.len() == 1;
        for (i, (host_s, probe_s, run)) in runs.into_iter().enumerate() {
            let (point, ev) = (&points[i], &mut evidence[i]);
            out.point_ms[i].push(calib::calibrate(host_s, probe_s) * 1e3);
            out.probe_ms.push(probe_s * 1e3);
            match run {
                Err(msg) => {
                    ev.panic.get_or_insert(msg);
                    if first && !workload.parallel() {
                        out.nas_results.push(None);
                    }
                }
                Ok((result, oracle)) => {
                    let digest = point_digest(&result);
                    if first {
                        ev.timed_digest = Some(digest);
                        record_first(&mut out, point, ev, &result, oracle);
                        if !workload.parallel() {
                            out.nas_results.push(Some(result));
                        }
                    } else {
                        ev.later_digests.push(("repeated timed", digest));
                    }
                }
            }
        }
        time_setup(workload, seed, setup_times);
        let spent: f64 = out.walls.iter().sum();
        let mean = spent / out.walls.len() as f64;
        if out.walls.len() >= MIN_PASSES && spent + mean > seconds {
            return out;
        }
    }
}

fn record_first(
    out: &mut TimedPasses,
    point: &Point,
    ev: &mut Evidence,
    result: &RunResult,
    oracle: Option<OracleCounts>,
) {
    out.instructions += result.instructions;
    out.totals.add(point, result, oracle);
    if let Some(o) = oracle {
        ev.divergences = o.divergences;
    }
    if point.is_des() {
        ev.des_engine = Some(point.config.engine);
        ev.clock_regressions = result.stats.count("noc.des.clock.regressions");
    }
}

fn print_provenance(host: &Host, args: &Args, points: &[Point], executor: &Executor) {
    let distinct = |f: &dyn Fn(&Point) -> String| {
        let mut v: Vec<String> = points.iter().map(f).collect();
        v.sort();
        v.dedup();
        v.join(",")
    };
    let workload = args.workload;
    let scale = match workload {
        Workload::CoherenceMatrix => format!(
            "litmus catalogue + {} fuzz programs from seed {}",
            suite::FUZZ_SEEDS,
            suite::fuzz_seed_base(args.seed)
        ),
        _ => workload
            .benchmarks()
            .iter()
            .map(|b| format!("{}×{}", b.name(), b.recommended_scale()))
            .collect::<Vec<_>>()
            .join(","),
    };
    println!("== perfbench {}", args_line(args));
    println!(
        "host: git_rev={} threads={} cpu=\"{}\" cache_line_bytes={} page_kib={}",
        host.git_rev, host.threads, host.cpu_model, host.cache_line_bytes, host.page_kib
    );
    println!(
        "workload: {} points={} cores={} engines={} noc_models={} protocols={} \
         classes={} epoch_cycles={} scale={scale} seed={} workers={}",
        workload.name(),
        points.len(),
        distinct(&|p| p.config.cores.to_string()),
        distinct(&|p| p.config.engine.id().to_owned()),
        distinct(&|p| p.config.noc_model().id().to_owned()),
        distinct(&|p| p.config.coherence_protocol.id().to_owned()),
        distinct(&|p| p.class().id().to_owned()),
        distinct(&|p| p.config.epoch_cycles.to_string()),
        args.seed,
        if workload.parallel() {
            executor.jobs()
        } else {
            1
        },
    );
}

fn args_line(args: &Args) -> String {
    format!(
        "--workload {} --seed {} --seconds {} --trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
}

/// The final stdout line.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let metrics = metrics.iter().map(|(name, value, unit)| {
        assert!(check::valid_metric_name(name), "bad metric name {name}");
        assert!(check::valid_unit(unit), "bad unit {unit}");
        assert!(value.is_finite(), "{name} is not finite");
        (
            name.clone(),
            Json::obj([("value", Json::from(*value)), ("unit", Json::str(*unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", Json::obj(metrics)),
    ])
    .dump()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload guarded64_des --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Guarded64Des);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse("--seed 1").is_err(), "workload is required");
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload paper64 --trace 2").is_err());
        assert!(parse("--workload paper64 --seconds -1").is_err());
        assert!(parse("--workload paper64 --seed").is_err());
        assert!(parse("--workload paper64 --frobnicate 1").is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 10, 1, &[("wall_s".into(), 1.25, "s")]);
        let json = Json::parse(&line).unwrap();
        let Json::Obj(members) = &json else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(
            json.get("metrics")
                .and_then(|m| m.get("wall_s"))
                .and_then(|w| w.get("value")),
            Some(&Json::Num(1.25))
        );
        assert!(!line.contains('\n'));
    }

    /// The metric lists in code and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        let per_layer: Vec<(String, String)> = layers::per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(listed("per_layer"), per_layer);
        for (name, unit) in listed("end_to_end").iter().chain(&listed("per_layer")) {
            assert!(check::valid_metric_name(name), "{name}");
            assert!(check::valid_unit(unit), "{unit}");
        }
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workload list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_owned()
            })
            .collect();
        assert!(workloads.len() >= 2);
        for name in &workloads {
            assert!(
                Workload::from_name(name).is_some(),
                "unknown workload {name}"
            );
        }
    }
}
