//! The benchmark's own statistics: percentiles, quartiles, the rate-ladder
//! search, open-loop arrivals and latency arithmetic, and the output digest.

/// Samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The percentile level actually reported when `want` (e.g. 0.99) is asked
/// of `n` samples: `want` itself when at least [`TAIL_SAMPLES`] samples lie
/// beyond it, otherwise the highest level that still has that many.
/// `None` when there are too few samples for any tail at all.
pub fn supported_level(n: usize, want: f64) -> Option<f64> {
    if n <= TAIL_SAMPLES {
        return None;
    }
    let highest = (n - TAIL_SAMPLES) as f64 / n as f64;
    Some(want.min(highest))
}

/// Nearest-rank percentile of ascending `sorted` at `level` in (0, 1]:
/// the smallest sample with at least `level` of the samples at or below it.
pub fn nearest_rank(sorted: &[u64], level: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (level * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and tail of a latency sample, by the percentile rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Samples behind the figures.
    pub n: usize,
    /// Median.
    pub p50: u64,
    /// The tail value at `level`.
    pub tail: u64,
    /// The percentile level the tail was taken at (≤ the level asked).
    pub level: f64,
}

/// Sort `samples` in place and take their median and `want` tail.
pub fn tail(samples: &mut [u64], want: f64) -> Option<Tail> {
    samples.sort_unstable();
    let level = supported_level(samples.len(), want)?;
    Some(Tail {
        n: samples.len(),
        p50: nearest_rank(samples, 0.5),
        tail: nearest_rank(samples, level),
        level,
    })
}

/// Median and tail of latencies given in due order, with the tail taken as
/// the median over `windows` consecutive slices of each slice's tail at
/// the percentile rule's level: a stall moves the one slice it falls in,
/// not the figure. The median is over all samples.
pub fn windowed_tail(in_order: &[u64], windows: usize, want: f64) -> Option<Tail> {
    let per = in_order.len() / windows.max(1);
    let level = supported_level(per, want)?;
    let tails: Vec<f64> = in_order
        .chunks(per)
        .take(windows)
        .map(|w| {
            let mut w = w.to_vec();
            w.sort_unstable();
            nearest_rank(&w, level) as f64
        })
        .collect();
    let mut all = in_order.to_vec();
    all.sort_unstable();
    Some(Tail {
        n: in_order.len(),
        p50: nearest_rank(&all, 0.5),
        tail: median(&tails) as u64,
        level,
    })
}

/// First, second and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the default "exclusive"
/// method), so the benchmark reads its spread the way its gate does.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as i64;
    let m = n + 1;
    let cut = |i: i64| {
        // Position i*m/4 (1-based), split into whole and fractional parts.
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64 / 4.0;
        let (lo, hi) = (v[(j - 1) as usize], v[j as usize]);
        lo + (hi - lo) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// A geometric ladder of offered rates: `lo * ratio^k` for `k` in
/// `0..=steps`, with `lo * ratio^steps` the last rung at or below `hi`.
#[derive(Debug, Clone, Copy)]
pub struct Ladder {
    /// Lowest rung.
    pub lo: f64,
    /// Ratio between adjacent rungs; `ratio - 1` is the resolution.
    pub ratio: f64,
    /// Index of the highest rung.
    pub steps: u32,
}

impl Ladder {
    /// The ladder from `lo` up to at most `hi`.
    pub fn new(lo: f64, hi: f64, ratio: f64) -> Self {
        assert!(lo > 0.0 && hi >= lo && ratio > 1.0, "bad ladder {lo}..{hi} x{ratio}");
        let steps = ((hi / lo).ln() / ratio.ln() + 1e-9).floor() as u32;
        Self { lo, ratio, steps }
    }

    /// The rate of rung `k`.
    pub fn rung(&self, k: u32) -> f64 {
        self.lo * self.ratio.powi(k as i32)
    }

    /// Highest rung whose probe passes, by binary search (a probe that
    /// passes at a rate is assumed to pass at every lower one). Returns
    /// the rung index and the number of probes made, or `None` when even
    /// the lowest rung fails.
    pub fn search(&self, mut probe: impl FnMut(f64) -> bool) -> (Option<u32>, u32) {
        let mut probes = 1;
        if !probe(self.rung(0)) {
            return (None, probes);
        }
        // Invariant: rung `pass` passes; every rung above `fail` fails.
        let (mut pass, mut fail) = (0u32, self.steps + 1);
        while fail - pass > 1 {
            let mid = pass + (fail - pass) / 2;
            probes += 1;
            if probe(self.rung(mid)) {
                pass = mid;
            } else {
                fail = mid;
            }
        }
        (Some(pass), probes)
    }
}

/// Open-loop arrivals of one sender: exponential gaps, i.e. a Poisson
/// process, as independent users produce. Fixed gaps would phase-lock with
/// a server's timers and make the latency depend on the alignment.
#[derive(Debug, Clone)]
pub struct Arrivals {
    mean_gap_ns: f64,
    state: u64,
    next_ns: u64,
    end_ns: u64,
}

/// The splitmix64 step: a full-period 64-bit generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Arrivals {
    /// Arrivals at `rate` req/s until `end_ns`; the same `seed` gives the
    /// same due times.
    pub fn poisson(rate: f64, seed: u64, end_ns: u64) -> Self {
        let mut state = seed;
        splitmix64(&mut state);
        let mut a = Self { mean_gap_ns: 1e9 / rate, state, next_ns: 0, end_ns };
        a.next_ns = a.gap();
        a
    }

    fn gap(&mut self) -> u64 {
        // Uniform in [0, 1) from the top 53 bits, mapped through the
        // exponential's inverse CDF.
        let u = (splitmix64(&mut self.state) >> 11) as f64 / (1u64 << 53) as f64;
        (-(1.0 - u).ln() * self.mean_gap_ns) as u64
    }

    /// When the next request is due, or `None` past the phase's end.
    pub fn peek(&self) -> Option<u64> {
        (self.next_ns < self.end_ns).then_some(self.next_ns)
    }

    /// Take the next request's due time.
    pub fn take(&mut self) -> Option<u64> {
        let due = self.peek()?;
        self.next_ns += self.gap();
        Some(due)
    }
}

/// Latency of a request, timed from when it was due (not from when it was
/// sent), so a stall also charges the requests queued behind it.
pub fn latency_ns(due: u64, done: u64) -> u64 {
    done.saturating_sub(due)
}

/// How late the generator itself sent a request: the time from its due
/// time to its write. A request held back because the sender's pipeline
/// window was full also counts as lag; the window (512 requests) fills
/// only when the tier falls that far behind a fixed rate, and then its
/// backlog grows and the run is invalid either way.
pub fn gen_lag_ns(due: u64, sent: u64) -> u64 {
    sent.saturating_sub(due)
}

/// Whether latencies (in send order) show a growing backlog: the median of
/// the last quarter exceeds the first quarter's by more than `slack_ns` and
/// by more than the first quarter's median itself.
pub fn backlog_grows(in_order: &[u64], slack_ns: u64) -> bool {
    let q = in_order.len() / 4;
    if q == 0 {
        return false;
    }
    let med = |s: &[u64]| {
        let mut v = s.to_vec();
        v.sort_unstable();
        v[v.len() / 2]
    };
    let (first, last) = (med(&in_order[..q]), med(&in_order[in_order.len() - q..]));
    last > first + slack_ns.max(first)
}

/// FNV-1a over the bits of everything a run outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold an integer.
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Fold a float's exact bits.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Fold a slice of floats.
    pub fn f64s(&mut self, xs: &[f64]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.f64(x);
        }
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        // 1000 samples support p99 exactly: 10 lie beyond rank 990.
        assert_eq!(supported_level(1000, 0.99), Some(0.99));
        // 500 samples do not; the highest level with 10 beyond is 0.98.
        assert_eq!(supported_level(500, 0.99), Some(0.98));
        assert_eq!(supported_level(10, 0.5), None);
        let sorted: Vec<u64> = (1..=500).collect();
        let v = nearest_rank(&sorted, supported_level(500, 0.99).unwrap());
        assert_eq!(v, 490);
        assert_eq!(sorted.iter().filter(|&&x| x > v).count(), TAIL_SAMPLES);
    }

    #[test]
    fn nearest_rank_median_and_extremes() {
        let sorted = [10u64, 20, 30, 40];
        assert_eq!(nearest_rank(&sorted, 0.5), 20);
        assert_eq!(nearest_rank(&sorted, 1.0), 40);
        assert_eq!(nearest_rank(&sorted, 0.01), 10);
        let mut samples: Vec<u64> = (1..=2000).rev().collect();
        let t = tail(&mut samples, 0.99).unwrap();
        assert_eq!((t.n, t.p50, t.tail, t.level), (2000, 1000, 1980, 0.99));
    }

    #[test]
    fn windowed_tail_ignores_a_stall_in_one_window() {
        // 5 windows of 1000: flat 100 except a 60-sample stall in window 2.
        let mut v = vec![100u64; 5000];
        for x in &mut v[2000..2060] {
            *x = 50_000;
        }
        let t = windowed_tail(&v, 5, 0.99).unwrap();
        assert_eq!((t.n, t.p50, t.tail, t.level), (5000, 100, 100, 0.99));
        // The plain tail over all samples reads the stall.
        assert_eq!(tail(&mut v.clone(), 0.99).unwrap().tail, 50_000);
        // Windows too small for p99 use the rule's highest supported level.
        assert_eq!(windowed_tail(&v[..1000], 5, 0.99).unwrap().level, 0.95);
        assert_eq!(windowed_tail(&v[..40], 5, 0.99), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn ladder_search_finds_highest_passing_rung() {
        let ladder = Ladder::new(1000.0, 64_000.0, 1.05);
        assert_eq!(ladder.steps, 85);
        assert!(ladder.rung(ladder.steps) <= 64_000.0);
        assert!(ladder.rung(ladder.steps + 1) > 64_000.0);
        for limit in [1000.0, 1049.0, 1050.0, 7777.0, 63_000.0, 1e9] {
            let (k, probes) = ladder.search(|r| r <= limit);
            let k = k.expect("lowest rung passes");
            assert!(ladder.rung(k) <= limit);
            assert!(k == ladder.steps || ladder.rung(k + 1) > limit, "limit {limit}");
            assert!(probes <= 8, "{probes} probes");
        }
        assert_eq!(ladder.search(|r| r < 1000.0).0, None);
    }

    #[test]
    fn arrivals_are_seeded_poisson() {
        // 500 req/s: a mean gap of 2 ms.
        let end = 200_000_000_000;
        let mut a = Arrivals::poisson(500.0, 7, end);
        let mut b = Arrivals::poisson(500.0, 7, end);
        let mut other = Arrivals::poisson(500.0, 8, end);
        let dues: Vec<u64> = (0..50_000).map(|_| a.take().unwrap()).collect();
        assert!(dues.windows(2).all(|w| w[0] <= w[1]));
        let mean_gap = dues[dues.len() - 1] as f64 / dues.len() as f64;
        assert!((mean_gap / 2e6 - 1.0).abs() < 0.02, "mean gap {mean_gap}");
        // Exponential gaps: about 1/e of them exceed the mean.
        let long = dues.windows(2).filter(|w| (w[1] - w[0]) as f64 > 2e6).count() as f64;
        assert!((long / dues.len() as f64 - (-1f64).exp()).abs() < 0.01);
        assert_eq!(b.take(), Some(dues[0]), "same seed, same schedule");
        assert_ne!(other.take(), Some(dues[0]), "another seed, another schedule");
        // Nothing is due past the phase's end.
        let mut short = Arrivals::poisson(1000.0, 7, 5_000_000);
        let n = std::iter::from_fn(|| short.take()).count();
        assert!(n < 20 && short.peek().is_none());
    }

    #[test]
    fn latency_and_lag_arithmetic() {
        // On time: due 2 ms, sent 2.05 ms, done 2.3 ms.
        assert_eq!(latency_ns(2_000_000, 2_300_000), 300_000);
        assert_eq!(gen_lag_ns(2_000_000, 2_050_000), 50_000);
        // Due at 4 ms, sent at 5.01 ms, done at 5.2 ms: latency from due
        // is lag plus round trip.
        assert_eq!(gen_lag_ns(4_000_000, 5_010_000), 1_010_000);
        assert_eq!(latency_ns(4_000_000, 5_200_000), 1_010_000 + 190_000);
        // A write the clock reads as before its due time is not late.
        assert_eq!(gen_lag_ns(4_000_000, 3_999_000), 0);
        // A reply that lands before the due time costs nothing.
        assert_eq!(latency_ns(4_000_000, 3_000_000), 0);
    }

    #[test]
    fn backlog_growth_is_detected() {
        let steady: Vec<u64> = (0..400).map(|i| 100_000 + (i % 7) * 1000).collect();
        assert!(!backlog_grows(&steady, 500_000));
        let growing: Vec<u64> = (0..400).map(|i| 100_000 + i * 20_000).collect();
        assert!(backlog_grows(&growing, 500_000));
    }

    #[test]
    fn digest_folds_exact_bits() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.f64(0.1 + 0.2);
        b.f64(0.3);
        assert_ne!(a.value(), b.value());
        let mut c = Digest::default();
        c.bytes(b"");
        assert_eq!(c.value(), 0xcbf2_9ce4_8422_2325);
        c.bytes(b"a");
        assert_eq!(c.value(), 0xaf63_dc4c_8601_ec8c);
    }
}
