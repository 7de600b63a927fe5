//! Sample statistics and process counters.

use std::time::Instant;

/// Linear-interpolation quantile (`q` in `[0, 1]`) of sorted samples.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Latency or duration samples of one operation class.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Records one sample.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The `q` quantile; panics on an empty set, which would be a bug
    /// in a workload that always runs at least one operation.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.0.is_empty(), "quantile of an empty sample set");
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        quantile_sorted(&sorted, q)
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, secs_since(start))
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// FNV-1a, for digests of generated inputs and rendered outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest, followed by a separator so
    /// `("ab", "c")` and `("a", "bc")` differ.
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut s = Samples::default();
        for v in [4.0, 1.0, 3.0, 2.0, 5.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.quantile(0.25), 2.0);
        assert!((s.quantile(0.9) - 4.6).abs() < 1e-12);
    }

    #[test]
    fn process_counters_read() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
