//! Shared configuration for the `bench_report` harness.
//!
//! `bench_report` re-measures the simulator's host-time hot spots on a
//! reduced machine (fewer cores, scaled-down data sets) so a full report
//! completes in minutes, and records them as the `BENCH_*.json` files at the
//! repository root.  The full-scale paper numbers come from the `system`
//! crate's `report` binary (`cargo run --release -p system --bin report --
//! full_eval`); the end-to-end benchmark declared in `BENCHMARK.json` lives
//! in `perfbench/`.

#![warn(missing_docs)]

use system::SystemConfig;

/// The machine used by the reduced-scale entries: 16 cores with the
/// Table 1 per-core parameters.
pub fn bench_config() -> SystemConfig {
    SystemConfig::with_cores(16)
}

/// The extra data-set scale multiplier used by the reduced-scale entries.
pub const BENCH_SCALE: f64 = 0.125;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_configuration_is_reduced() {
        assert_eq!(bench_config().cores, 16);
        const { assert!(BENCH_SCALE < 1.0) };
    }
}
