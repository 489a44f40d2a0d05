//! Small numeric helpers: nearest-rank quantiles, medians, a pausable
//! wall clock, and the process's peak resident set.

use std::time::{Duration, Instant};

/// Nearest-rank `q`-quantile of `samples` (sorted in place); `0.0` when
/// empty.
pub fn quantile(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil().max(1.0) as usize;
    samples[rank.min(samples.len()) - 1] as f64
}

/// The `q`-quantile of `samples` (in arrival order) taken per chunk of at
/// least 1000 consecutive samples, then the median across chunks; plain
/// [`quantile`] below three chunks. A burst of host contention then moves
/// one chunk's value, not the result.
pub fn chunked_quantile(samples: &[u64], q: f64) -> f64 {
    let chunks = samples.len() / 1000;
    if chunks < 3 {
        return quantile(&mut samples.to_vec(), q);
    }
    let size = samples.len() / chunks;
    let per_chunk: Vec<f64> = samples
        .chunks_exact(size)
        .map(|c| quantile(&mut c.to_vec(), q))
        .collect();
    median_f64(&per_chunk)
}

/// Median of floating-point samples (mean of the middle pair for an even
/// count); `0.0` when empty.
pub fn median_f64(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nanoseconds elapsed since `start`.
pub fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// A wall clock that can be paused around work the measurement must not
/// include (correctness checks, in-process layer replays).
pub struct Wall {
    start: Instant,
    paused: Duration,
}

impl Wall {
    pub fn start() -> Wall {
        Wall {
            start: Instant::now(),
            paused: Duration::ZERO,
        }
    }

    /// Runs `f` with the clock stopped.
    pub fn pause<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.paused += t.elapsed();
        out
    }

    /// Running time, excluding paused intervals.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed().saturating_sub(self.paused)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `0.0` where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Order-sensitive digest of reply bits (FNV-1a over the 8 bytes of each
/// value), used to compare the replies of two runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, bits: u64) {
        for b in bits.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// SplitMix64: derives independent sub-seeds from the run's seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn chunked_quantile_ignores_one_bad_chunk() {
        let mut v: Vec<u64> = vec![10; 3000];
        v[..1000].fill(1000);
        assert_eq!(chunked_quantile(&v, 0.5), 10.0);
        assert_eq!(chunked_quantile(&v[..1500], 0.99), 1000.0);
    }

    #[test]
    fn median_handles_even_counts() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
