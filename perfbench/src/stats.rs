//! Order statistics, process memory, and the environment block printed
//! with every result.

use std::process::Command;

/// Order statistics of one timing: sample count, quartiles, and the
/// tail percentiles the sample supports.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    /// Samples.
    pub n: usize,
    /// First quartile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// Third quartile.
    pub p75: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile (informational).
    pub p99: f64,
}

/// Linear-interpolated percentile of an ascending slice (`0.0` if empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted {
        [] => 0.0,
        [only] => *only,
        _ => {
            let pos = p * (sorted.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(sorted.len() - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).p50
}

/// Summarize unsorted values.
pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        n: sorted.len(),
        p25: percentile(&sorted, 0.25),
        p50: percentile(&sorted, 0.50),
        p75: percentile(&sorted, 0.75),
        p95: percentile(&sorted, 0.95),
        p99: percentile(&sorted, 0.99),
    }
}

impl Summary {
    /// `n=… p25=… p50=… p75=… p95=… p99=…` with `unit` appended.
    pub fn line(&self, unit: &str) -> String {
        format!(
            "n={} p25={:.1} p50={:.1} p75={:.1} p95={:.1} p99={:.1} {unit}",
            self.n, self.p25, self.p50, self.p75, self.p95, self.p99
        )
    }
}

/// Peak resident set of this process (`VmHWM`) in MB, load generator
/// included; `0.0` where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The environment block: cores, clients, commit, compiler, seed, window.
pub fn environment(seed: u64, seconds: f64, clients: usize) -> Vec<(&'static str, String)> {
    vec![
        ("nproc", crate::spec::nproc().to_string()),
        ("clients", clients.to_string()),
        ("git_commit", command_line("git", &["rev-parse", "HEAD"])),
        ("rustc", command_line("rustc", &["-V"])),
        ("seed", seed.to_string()),
        ("window_seconds", seconds.to_string()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.p50, s.p25, s.p75), (5, 3.0, 2.0, 4.0));
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
