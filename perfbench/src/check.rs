//! Correctness checks: simulation digests, the failure rules and the
//! metric-name charset.

use system::{ExecutionEngine, RunResult};

/// The digest of one simulated point: FNV-1a over the result's canonical
/// JSON (cycles, phase split, per-class traffic, energy, protocol counters
/// and every exported statistic).  Host-speed changes must leave it alone.
pub fn point_digest(result: &RunResult) -> u64 {
    campaign::fnv1a64(result.to_json().as_bytes())
}

/// The digest of a workload: FNV-1a over its point digests, in point order.
pub fn combine(digests: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = digests.into_iter().flat_map(u64::to_le_bytes).collect();
    campaign::fnv1a64(&bytes)
}

/// Whether an engine claims to reproduce the cycle-interleaved schedule,
/// and so must never hand the discrete-event NoC clock backwards.
pub fn claims_fidelity(engine: ExecutionEngine) -> bool {
    engine != ExecutionEngine::Legacy
}

/// Everything the benchmark learnt about one point across its passes.
#[derive(Debug, Clone, Default)]
pub struct Evidence {
    /// The panic message, if a simulation of the point panicked.
    pub panic: Option<String>,
    /// Oracle divergences reported for the point.
    pub divergences: u64,
    /// The accounting invariant's error from the traced pass, if it failed.
    pub accounting_error: Option<String>,
    /// The point's digest in the first timed pass.
    pub timed_digest: Option<u64>,
    /// Digests of the point from every later pass, by pass name.
    pub later_digests: Vec<(&'static str, u64)>,
    /// `Some(engine)` when the point ran under the discrete-event NoC.
    pub des_engine: Option<ExecutionEngine>,
    /// `noc.des.clock.regressions` of the point.
    pub clock_regressions: u64,
}

impl Evidence {
    /// The reasons the point failed; empty when it passed.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        if let Some(msg) = &self.panic {
            out.push(format!("panicked: {msg}"));
        }
        if self.divergences > 0 {
            out.push(format!("{} oracle divergence(s)", self.divergences));
        }
        if let Some(e) = &self.accounting_error {
            out.push(format!("cycle accounting not exhaustive: {e}"));
        }
        if let Some(timed) = self.timed_digest {
            for (pass, d) in &self.later_digests {
                if *d != timed {
                    out.push(format!(
                        "sim_digest {d:016x} in the {pass} pass differs from {timed:016x} in the timed pass"
                    ));
                }
            }
        }
        match self.des_engine {
            Some(engine) if claims_fidelity(engine) && self.clock_regressions > 0 => {
                out.push(format!(
                    "{} DES clock regressions on the {engine} engine",
                    self.clock_regressions
                ));
            }
            _ => {}
        }
        out
    }

    /// Whether the failure shows an invalid simulation output (a panic, a
    /// divergence, a broken invariant, or a non-deterministic result), as
    /// opposed to the known schedule-fidelity defect alone.
    pub fn output_invalid(&self) -> bool {
        let clean = Evidence {
            des_engine: None,
            ..self.clone()
        };
        !clean.failures().is_empty()
    }
}

/// Whether `name` is a valid metric name: it starts with a letter or a
/// digit and has at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`, `%`,
/// `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clean_point_passes() {
        let e = Evidence {
            timed_digest: Some(7),
            later_digests: vec![("traced", 7)],
            des_engine: Some(ExecutionEngine::Interleaved),
            ..Evidence::default()
        };
        assert!(e.failures().is_empty());
        assert!(!e.output_invalid());
    }

    #[test]
    fn each_rule_fails_a_point() {
        let panicked = Evidence {
            panic: Some("boom".into()),
            ..Evidence::default()
        };
        let diverged = Evidence {
            divergences: 2,
            ..Evidence::default()
        };
        let unaccounted = Evidence {
            accounting_error: Some("core 0: 3 uncharged".into()),
            ..Evidence::default()
        };
        let nondeterministic = Evidence {
            timed_digest: Some(1),
            later_digests: vec![("timed", 1), ("traced", 2)],
            ..Evidence::default()
        };
        for e in [&panicked, &diverged, &unaccounted, &nondeterministic] {
            assert_eq!(e.failures().len(), 1, "{e:?}");
            assert!(e.output_invalid(), "{e:?}");
        }
        assert!(nondeterministic.failures()[0].contains("traced pass"));
    }

    #[test]
    fn clock_regressions_fail_only_fidelity_claiming_des_engines() {
        let on = |engine, des: bool| Evidence {
            des_engine: des.then_some(engine),
            clock_regressions: 1234,
            ..Evidence::default()
        };
        assert!(on(ExecutionEngine::Legacy, true).failures().is_empty());
        assert!(on(ExecutionEngine::Parallel, false).failures().is_empty());
        for engine in [ExecutionEngine::Interleaved, ExecutionEngine::Parallel] {
            let e = on(engine, true);
            assert_eq!(e.failures().len(), 1);
            assert!(e.failures()[0].contains("1234 DES clock regressions"));
            // The fidelity defect alone does not make the output invalid.
            assert!(!e.output_invalid());
        }
    }

    #[test]
    fn digests_combine_in_order() {
        assert_eq!(combine([1, 2, 3]), combine([1, 2, 3]));
        assert_ne!(combine([1, 2, 3]), combine([3, 2, 1]));
        assert_ne!(combine([1, 2]), combine([1, 2, 0]));
    }

    #[test]
    fn point_digest_is_stable_and_sensitive() {
        use system::{Machine, MachineKind, SystemConfig};
        let spec = workloads::NasBenchmark::Is.spec_scaled(1.0 / 1024.0);
        let machine = Machine::new(MachineKind::HybridProposed, SystemConfig::small(2));
        let a = machine.run(&spec);
        let b = machine.run(&spec);
        assert_eq!(point_digest(&a), point_digest(&b));
        let mut c = a.clone();
        c.execution_time += simkernel::Cycle::new(1);
        assert_ne!(point_digest(&a), point_digest(&c));
    }

    #[test]
    fn metric_name_charset() {
        for ok in [
            "wall_s",
            "point_ms_p99",
            "system.run_s.cache-only",
            "noc.des.clock.regressions.parallel",
            "0x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_wall", ".x", "a b", "a/b", "ü", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        for ok in ["s", "ms", "1/s", "count", "%", "MiB", "ns/instr"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "x".repeat(17).as_str()] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
