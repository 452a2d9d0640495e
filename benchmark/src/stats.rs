//! Sample statistics, failure accounting and the small deterministic
//! generator every workload derives its inputs from.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Median of a sample (mean of the two middle values for even sizes).
/// Returns `None` for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Minimum number of samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the highest percentile that still has at least
/// [`TAIL_BEYOND`] samples strictly beyond its rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// The percentile it represents, `100 · rank / n`.
    pub percentile: f64,
    /// Sample count.
    pub samples: usize,
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it (nearest-rank: the sample at 1-based rank `n − 10`, which is the
/// `100 · (n − 10) / n`-th percentile). `None` when the sample has no
/// more than ten values, i.e. no percentile is supported.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        value: v[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    })
}

/// Wall metrics of a closed loop, each the median over equal
/// sub-windows of the measured window, so a burst of interference from
/// outside the benchmark moves one sub-window, not the result.
#[derive(Debug, Clone, PartialEq)]
pub struct Windowed {
    /// Completions per second.
    pub rate: f64,
    /// Median latency, seconds.
    pub p50: f64,
    /// [`tail`] latency, seconds.
    pub tail: f64,
    /// Per sub-window tails (percentile and sample count vary with the
    /// sub-window's size).
    pub tails: Vec<Tail>,
}

/// Split `(completed_at_s, latency_s)` samples of a `window_s`-second
/// loop into `parts` equal sub-windows by completion time and take the
/// median of each sub-window's rate, median latency and tail latency.
/// Completions after the window's end fall into the last sub-window.
pub fn windowed(samples: &[(f64, f64)], window_s: f64, parts: usize) -> Windowed {
    let width = window_s / parts as f64;
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); parts];
    for &(at, latency) in samples {
        let i = ((at / width) as usize).min(parts - 1);
        buckets[i].push(latency);
    }
    let rates: Vec<f64> = buckets.iter().map(|b| b.len() as f64 / width).collect();
    let p50s: Vec<f64> = buckets.iter().filter_map(|b| median(b)).collect();
    let tails: Vec<Tail> = buckets.iter().filter_map(|b| tail(b)).collect();
    let tail_values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    Windowed {
        rate: median(&rates).unwrap_or(0.0),
        p50: median(&p50s).unwrap_or(0.0),
        tail: median(&tail_values).unwrap_or(0.0),
        tails,
    }
}

/// Attempted/failed accounting for one workload. An operation fails
/// when the system returned an error for it or when its output did not
/// match the oracle; both count once per operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations issued.
    pub attempted: u64,
    /// Operations that returned an error.
    pub errors: u64,
    /// Operations whose output differed from the oracle.
    pub mismatches: u64,
}

impl Tally {
    /// Record one operation and how it ended.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => {}
            Outcome::Error => self.errors += 1,
            Outcome::Mismatch => self.mismatches += 1,
        }
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.mismatches += other.mismatches;
    }

    /// Failed operations: errors plus wrong outputs.
    pub fn failed(&self) -> u64 {
        self.errors + self.mismatches
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

/// How one checked operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served, and the output matched its oracle.
    Ok,
    /// The system returned an error.
    Error,
    /// Served, but the output differed from its oracle.
    Mismatch,
}

impl Outcome {
    /// `Ok` when a check held, `Mismatch` when it did not.
    pub fn check(held: bool) -> Outcome {
        if held {
            Outcome::Ok
        } else {
            Outcome::Mismatch
        }
    }

    /// Bit-exact comparison of an output against its oracle.
    pub fn bits(expected: &[f32], got: &[f32]) -> Outcome {
        Outcome::check(
            expected.len() == got.len()
                && expected
                    .iter()
                    .zip(got)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
        )
    }
}

/// SplitMix64: a tiny deterministic generator, so inputs depend only on
/// the workload seed and the stream a value is drawn for.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one workload seed.
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut h = rustc_hash::FxHasher::default();
        stream.hash(&mut h);
        Rng(seed ^ h.finish().rotate_left(17))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform value in `[-1, 1)`.
    pub fn unit(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
    }

    /// `len` values in `[-1, 1)`.
    pub fn values(&mut self, len: usize) -> Vec<f32> {
        (0..len).map(|_| self.unit()).collect()
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident memory read once, when a measured loop completes its
/// `at`-th operation. The serving workloads' runtimes keep growing their
/// buffer arenas with every request, so a peak read at the end of the
/// window would follow how many operations the host's speed fitted into
/// it; read at a fixed operation count, it follows the program.
#[derive(Debug)]
pub struct RssProbe {
    at: u64,
    done: AtomicU64,
    mb: OnceLock<f64>,
}

impl RssProbe {
    /// A probe that reads after `at` operations.
    pub fn new(at: u64) -> Self {
        RssProbe {
            at,
            done: AtomicU64::new(0),
            mb: OnceLock::new(),
        }
    }

    /// Count one completed operation (from any client thread).
    pub fn op_done(&self) {
        if self.done.fetch_add(1, Ordering::Relaxed) + 1 == self.at {
            let _ = self.mb.set(peak_rss_mb().unwrap_or(0.0));
        }
    }

    /// Whether the loop reached the probe's operation count.
    pub fn reached(&self) -> bool {
        self.mb.get().is_some()
    }

    /// The value read at the operation count, or, when the loop ended
    /// short of it, the peak now.
    pub fn mb(&self) -> f64 {
        self.mb.get().copied().or_else(peak_rss_mb).unwrap_or(0.0)
    }

    /// For the report.
    pub fn json(&self) -> serde_json::Value {
        serde_json::json!({"at_ops": self.at, "reached": self.reached()})
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1..=100: rank 90 is the 90th percentile, with 91..=100 beyond.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);

        // 1000 samples: the 99th percentile.
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.value, t.percentile), (990.0, 99.0));

        // Eleven samples support exactly one percentile: the minimum.
        let v: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().value, 0.0);
        // Ten or fewer support none.
        assert_eq!(tail(&v[..10]), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn windowed_takes_medians_over_sub_windows() {
        // Four 1-second sub-windows: 20, 20, 20 and 40 completions; the
        // third has one huge outlier latency that a whole-run tail
        // would report.
        let mut s = Vec::new();
        for w in 0..4 {
            let n = if w == 3 { 40 } else { 20 };
            for i in 0..n {
                let at = w as f64 + (i as f64 + 0.5) / n as f64;
                let lat = if w == 2 && i == 0 {
                    100.0
                } else {
                    1.0 + i as f64
                };
                s.push((at, lat));
            }
        }
        let r = windowed(&s, 4.0, 4);
        assert_eq!(r.rate, 20.0);
        assert_eq!(r.tails.len(), 4);
        // Sub-window tails (rank n − 10): 10, 10, 11 (the outlier only
        // shifts its window by one rank), 30 → median 10.5.
        assert_eq!(r.tail, 10.5);
        // Sub-window medians 10.5, 10.5, 11.5, 20.5 → 11.
        assert_eq!(r.p50, 11.0);
        // A late completion lands in the last sub-window.
        let r = windowed(&[(9.0, 1.0)], 4.0, 4);
        assert_eq!(r.rate, 0.0);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn error_rate_counts_a_forced_mismatch() {
        let expected = vec![1.0f32, 2.0, 3.0];
        let mut forced = expected.clone();
        // One ulp off: a bit-exact oracle must catch it.
        forced[1] = f32::from_bits(forced[1].to_bits() + 1);
        let mut t = Tally::default();
        t.record(Outcome::bits(&expected, &expected));
        t.record(Outcome::bits(&expected, &forced));
        t.record(Outcome::bits(&expected, &expected[..2]));
        t.record(Outcome::Error);
        assert_eq!(t.attempted, 4);
        assert_eq!(t.mismatches, 2);
        assert_eq!(t.errors, 1);
        assert_eq!(t.failed(), 3);
        assert_eq!(t.error_rate(), 0.75);
        assert_eq!(Tally::default().error_rate(), 0.0);
    }

    #[test]
    fn rss_probe_reads_once_at_its_operation_count() {
        let p = RssProbe::new(3);
        p.op_done();
        p.op_done();
        assert!(!p.reached());
        p.op_done();
        assert!(p.reached());
        let at = p.mb();
        p.op_done();
        assert_eq!(p.mb().to_bits(), at.to_bits());
    }

    #[test]
    fn rng_streams_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, "x").next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut x = Rng::new(7, "x");
        let mut y = Rng::new(7, "y");
        assert_ne!(x.next_u64(), y.next_u64());
        let v = Rng::new(1, "v").values(1000);
        assert!(v.iter().all(|x| (-1.0..1.0).contains(x)));
    }
}
