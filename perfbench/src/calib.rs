//! Host-speed calibration: a fixed integer probe timed beside the points.
//!
//! On a shared host the same simulation runs up to ~2× slower for minutes
//! at a time, with no steal time and no descheduling: other tenants load
//! the physical cores and caches the benchmark's vCPUs sit on.  A probe
//! that keeps several integer pipelines busy slows down with them, so each
//! host-time sample is divided by the probe's time just before it and
//! scaled to the probe's reference time.  The probe is the benchmark's own code and never
//! calls the simulator, so a change to the simulator moves the calibrated
//! time exactly as it moves the raw time.

use std::cell::Cell;
use std::time::Instant;

/// The probe's host seconds on the reference host: calibrated times are
/// host seconds on a host where one probe takes this long.
pub const REFERENCE_PROBE_S: f64 = 0.002;
/// Iterations of the probe loop (about 2 ms on a quiet 2-thread Xeon VM).
const PROBE_ITERS: u64 = 400_000;
/// A thread re-measures the probe when its last measurement is older than
/// this; samples in between share it.
const REFRESH_S: f64 = 0.05;

thread_local! {
    static LAST: Cell<Option<(Instant, f64)>> = const { Cell::new(None) };
}

/// The probe's current host seconds on this thread, re-measured when the
/// last measurement is older than `REFRESH_S`.
pub fn probe_s() -> f64 {
    LAST.with(|last| match last.get() {
        Some((at, s)) if at.elapsed().as_secs_f64() < REFRESH_S => s,
        _ => {
            let s = run_probe();
            last.set(Some((Instant::now(), s)));
            s
        }
    })
}

/// `host_s` scaled to the reference host speed, given the probe's time
/// `probe_s` when it was measured.
pub fn calibrate(host_s: f64, probe_s: f64) -> f64 {
    host_s * REFERENCE_PROBE_S / probe_s
}

/// Eight independent xorshift lanes: enough independent work to fill the
/// integer ports, so a busy sibling or neighbour slows it.
fn run_probe() -> f64 {
    let start = Instant::now();
    let mut lanes = std::hint::black_box([1u64, 2, 3, 4, 5, 6, 7, 8]);
    for _ in 0..std::hint::black_box(PROBE_ITERS) {
        for x in lanes.iter_mut() {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
        }
    }
    std::hint::black_box(lanes);
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_scales_by_the_probe() {
        assert_eq!(calibrate(1.0, REFERENCE_PROBE_S), 1.0);
        assert_eq!(calibrate(1.0, 2.0 * REFERENCE_PROBE_S), 0.5);
    }

    #[test]
    fn the_probe_is_reused_until_stale() {
        let a = probe_s();
        assert!(a > 0.0);
        assert_eq!(probe_s(), a, "a fresh measurement is shared");
    }
}
