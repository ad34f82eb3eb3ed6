//! The host the benchmark ran on: provenance and peak memory.

use std::fs;
use std::path::Path;

/// Host facts printed with every result (the hardware-topology model:
/// threads, CPU, cache-line and page sizes).
#[derive(Debug, Clone)]
pub struct Host {
    /// The source revision, from `.git` when the checkout has one.
    pub git_rev: String,
    /// `std::thread::available_parallelism`.
    pub threads: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// L1 data cache line size in bytes (0 when unknown).
    pub cache_line_bytes: u64,
    /// Base page size in KiB (0 when unknown).
    pub page_kib: u64,
}

impl Host {
    /// Reads the host facts; any fact the host does not expose reads as
    /// `unknown` or 0.
    pub fn detect() -> Self {
        Host {
            git_rev: git_rev(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
            threads: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model: fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|s| field(&s, "model name").map(str::to_owned))
                .unwrap_or_else(|| "unknown".into()),
            cache_line_bytes: read_u64(
                "/sys/devices/system/cpu/cpu0/cache/index0/coherency_line_size",
            )
            .unwrap_or(0),
            page_kib: fs::read_to_string("/proc/self/smaps")
                .ok()
                .and_then(|s| field(&s, "KernelPageSize").and_then(leading_u64))
                .unwrap_or(0),
        }
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| field(&s, "VmHWM").and_then(leading_u64))
        .map_or(f64::NAN, |kib| kib as f64 / 1024.0)
}

/// The value after `key:` on the first line starting with `key`.
fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim())
}

fn leading_u64(s: &str) -> Option<u64> {
    s.split_whitespace().next()?.parse().ok()
}

fn read_u64(path: &str) -> Option<u64> {
    fs::read_to_string(path).ok()?.trim().parse().ok()
}

/// Resolves `HEAD` in a git directory without running git.
fn git_rev(git_dir: &Path) -> Option<String> {
    let head = fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(rev) = fs::read_to_string(git_dir.join(reference)) {
        return Some(rev.trim().to_owned());
    }
    let packed = fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        l.strip_suffix(reference)?
            .strip_suffix(' ')
            .map(str::to_owned)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_style_fields() {
        let status = "Name:\tperfbench\nVmHWM:\t  123456 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(field(status, "VmHWM").and_then(leading_u64), Some(123456));
        assert_eq!(field(status, "Missing"), None);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mib() > 0.0);
    }
}
