//! Measurement primitives used by experiments and kernels.
//!
//! Everything here is deliberately simple and allocation-light:
//!
//! - [`Welford`] — streaming mean / variance (for latency summaries).
//! - [`Histogram`] — log-bucketed latency histogram with percentiles.
//! - [`RateSeries`] — per-interval event rates (throughput-over-time plots).

use crate::time::{SimDuration, SimTime};

/// Streaming mean and variance via Welford's algorithm.
#[derive(Clone, Copy, Debug, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation, or 0 for fewer than two samples.
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Smallest sample, or 0 if empty.
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 if empty.
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// A log-bucketed histogram for non-negative integer samples (e.g. latency
/// in nanoseconds).
///
/// Values below 32 have a bucket each; above that every power of two is
/// split into 16 buckets, so a bucket is at most [`Self::RELATIVE_ERROR`]
/// (1/16) of its lower bound wide. A quantile reports its bucket's lower
/// bound, or the exact maximum when it falls in the top occupied bucket,
/// so it is off the true sample by less than 1/16 of it. The index
/// arithmetic is integer-only, so the state is
/// bit-identical across runs, and [`merge`](Self::merge) of any sharding
/// equals recording the whole stream into one histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
    min: u64,
}

const SUB_BUCKET_BITS: u32 = 5;
const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Bound on a reported quantile's relative error: the widest bucket is
    /// 1/16 of its lower bound.
    pub const RELATIVE_ERROR: f64 = 1.0 / 16.0;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    /// Highest valid bucket index (the bucket of `u64::MAX`).
    fn last_index() -> usize {
        ((64 - SUB_BUCKET_BITS as usize) + 1) * SUB_BUCKETS as usize - 1
    }

    fn index_of(value: u64) -> usize {
        if value < SUB_BUCKETS {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros() as u64;
        let shift = msb - SUB_BUCKET_BITS as u64 + 1;
        let exp = shift as usize;
        let mantissa = ((value >> shift) - SUB_BUCKETS / 2) as usize;
        // Each exponent level above the linear range contributes half a
        // sub-bucket row of new buckets.
        SUB_BUCKETS as usize + exp * (SUB_BUCKETS as usize / 2) + mantissa
            - (SUB_BUCKETS as usize / 2)
    }

    fn value_of(index: usize) -> u64 {
        if index < SUB_BUCKETS as usize {
            return index as u64;
        }
        let rel = index - SUB_BUCKETS as usize / 2;
        let exp = rel / (SUB_BUCKETS as usize / 2);
        let mantissa = rel % (SUB_BUCKETS as usize / 2) + SUB_BUCKETS as usize / 2;
        (mantissa as u64) << exp
    }

    /// Records one sample.
    ///
    /// Bucket storage grows lazily to the highest index touched, so the
    /// histogram's cache footprint tracks its sample range instead of the
    /// full 64-octave table.
    pub fn record(&mut self, value: u64) {
        // `index_of` maps every u64 inside the bucket range; saturate
        // defensively rather than clamp-and-lie, and let `quantile`
        // report the exact tracked `max` for the top occupied bucket.
        let idx = Self::index_of(value).min(Self::last_index());
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.max = self.max.max(value);
        self.min = self.min.min(value);
    }

    /// Records a duration sample in nanoseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all samples, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact maximum sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact minimum sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// The value at quantile `q` in `[0, 1]`, to bucket precision. A
    /// quantile that resolves to the highest occupied bucket reports the
    /// exact tracked maximum (so `quantile(1.0) == max()`), rather than
    /// reconstructing that bucket's lower bound.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "invalid quantile: {q}");
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                if seen == self.count {
                    // Highest occupied bucket: the tracked max is exact.
                    return self.max;
                }
                return Self::value_of(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (p50) to bucket precision.
    pub fn median(&self) -> u64 {
        self.quantile(0.5)
    }

    /// Folds `other` into `self`: buckets are summed element-wise and the
    /// exact count/sum/min/max tracking is preserved, so the result is
    /// identical to having recorded both sample streams into one
    /// histogram. Used to fold per-CPU histograms into per-host reports.
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }
}

/// Event counts bucketed into fixed time intervals, for rate-over-time
/// series (e.g. delivered packets per second during an overload run).
#[derive(Clone, Debug)]
pub struct RateSeries {
    interval: SimDuration,
    start: SimTime,
    buckets: Vec<u64>,
}

impl RateSeries {
    /// Creates a series with the given bucketing interval.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(start: SimTime, interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "interval must be positive");
        RateSeries {
            interval,
            start,
            buckets: Vec::new(),
        }
    }

    /// Records `n` events at time `now`.
    pub fn record(&mut self, now: SimTime, n: u64) {
        let idx = (now.since(self.start).as_nanos() / self.interval.as_nanos()) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += n;
    }

    /// Per-bucket event counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Average rate over buckets `[skip..]`, events/second.
    ///
    /// Skipping leading buckets discards warm-up transients.
    pub fn steady_rate(&self, skip: usize) -> f64 {
        if self.buckets.len() <= skip {
            return 0.0;
        }
        let slice = &self.buckets[skip..];
        let total: u64 = slice.iter().sum();
        total as f64 / (slice.len() as f64 * self.interval.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_known_values() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.record(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-9);
        // Sample variance of this classic set is 32/7.
        assert!((w.stddev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-9);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
    }

    #[test]
    fn welford_empty_is_zero() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.stddev(), 0.0);
        assert_eq!(w.min(), 0.0);
        assert_eq!(w.max(), 0.0);
    }

    #[test]
    fn histogram_small_values_exact() {
        let mut h = Histogram::new();
        for v in 0..32 {
            h.record(v);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
        assert_eq!(h.quantile(1.0), 31);
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn histogram_quantiles_ordered() {
        let mut h = Histogram::new();
        let mut rng = crate::rng::SplitMix64::new(11);
        for _ in 0..10_000 {
            h.record(rng.next_below(1_000_000));
        }
        let p50 = h.quantile(0.5);
        let p90 = h.quantile(0.9);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p90 && p90 <= p99);
        // Uniform distribution: p50 should be near 500k within bucket error.
        assert!((400_000..600_000).contains(&p50), "p50 was {p50}");
    }

    #[test]
    fn histogram_mean_exact() {
        let mut h = Histogram::new();
        h.record(100);
        h.record(300);
        assert!((h.mean() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_large_value_bucket_error_bounded() {
        let mut h = Histogram::new();
        let v = 1_000_000_007;
        h.record(v);
        let q = h.quantile(0.5);
        let err = (q as f64 - v as f64).abs() / v as f64;
        assert!(err < 0.10, "bucket error {err} too large (q={q})");
    }

    #[test]
    fn rate_series_buckets() {
        let mut r = RateSeries::new(SimTime::ZERO, SimDuration::from_secs(1));
        r.record(SimTime::from_millis(100), 5);
        r.record(SimTime::from_millis(900), 5);
        r.record(SimTime::from_millis(1500), 7);
        assert_eq!(r.buckets(), &[10, 7]);
        assert!((r.steady_rate(0) - 8.5).abs() < 1e-9);
        assert!((r.steady_rate(1) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn rate_series_skip_beyond_len() {
        let r = RateSeries::new(SimTime::ZERO, SimDuration::from_secs(1));
        assert_eq!(r.steady_rate(5), 0.0);
    }

    #[test]
    fn histogram_top_bucket_quantile_is_exact_max() {
        // A single sample of 1000 lands in the bucket whose lower bound is
        // 992; p100 must still report the exact sample.
        let mut h = Histogram::new();
        h.record(1_000);
        assert_eq!(h.quantile(1.0), 1_000);
        assert_eq!(h.median(), 1_000);
        for _ in 0..99 {
            h.record(100);
        }
        assert_eq!(h.quantile(1.0), 1_000);
        assert_eq!(h.quantile(0.5), 100);
    }

    #[test]
    fn histogram_saturation_keeps_exact_max() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn histogram_merge_equals_whole_stream() {
        let mut whole = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut rng = crate::rng::SplitMix64::new(3);
        for i in 0..10_000u64 {
            let v = rng.next_below(1 << 40);
            whole.record(v);
            if i % 2 == 0 { &mut a } else { &mut b }.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        assert_eq!(a.quantile(0.99), whole.quantile(0.99));
        assert_eq!(a.mean(), whole.mean());
    }

    #[test]
    fn histogram_merge_empty_boundaries() {
        // empty.merge(empty) stays empty with min sentinel intact.
        let mut e = Histogram::new();
        e.merge(&Histogram::new());
        assert_eq!(e.count(), 0);
        assert_eq!(e.min(), 0);
        assert_eq!(e.max(), 0);
        // empty.merge(x) == x, and x.merge(empty) == x.
        let mut x = Histogram::new();
        x.record(7);
        x.record(u64::MAX);
        let mut from_empty = Histogram::new();
        from_empty.merge(&x);
        assert_eq!(from_empty, x);
        let snapshot = x.clone();
        x.merge(&Histogram::new());
        assert_eq!(x, snapshot);
        // Exact max/min tracking survives the fold.
        assert_eq!(x.max(), u64::MAX);
        assert_eq!(x.min(), 7);
        assert_eq!(x.quantile(1.0), u64::MAX);
    }

    #[test]
    fn histogram_bucket_edges_roundtrip() {
        // Every representable bucket lower edge maps back to its own
        // index, and the value just below it to the previous index.
        // Index 975 is index_of(u64::MAX), the last reachable bucket.
        for idx in 0..=975usize {
            let v = Histogram::value_of(idx);
            assert_eq!(Histogram::index_of(v), idx, "edge v={v}");
            if v > 0 {
                assert_eq!(Histogram::index_of(v - 1), idx - 1, "below edge v={v}");
            }
        }
    }

    #[test]
    fn histogram_empty_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.median(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!((h.min(), h.max()), (0, 0));
    }

    #[test]
    fn histogram_bucket_width_is_the_stated_relative_error() {
        // Every bucket above the linear range is at most 1/16 of its
        // lower bound wide, and the widest reach exactly 1/16.
        let mut widest = 0.0f64;
        for idx in SUB_BUCKETS as usize..975 {
            let (lo, hi) = (Histogram::value_of(idx), Histogram::value_of(idx + 1));
            let width = (hi - lo) as f64 / lo as f64;
            assert!(width <= Histogram::RELATIVE_ERROR, "bucket {idx}: {width}");
            widest = widest.max(width);
        }
        assert_eq!(widest, Histogram::RELATIVE_ERROR);
    }

    #[test]
    fn histogram_quantiles_within_relative_error_of_sorted_truth() {
        let mut h = Histogram::new();
        let mut vals: Vec<u64> = Vec::new();
        let mut rng = crate::rng::SplitMix64::new(42);
        for _ in 0..50_000 {
            // Heavy-tailed spread over six decades.
            let v = 1 + rng.next_below(1_000) * (1 + rng.next_below(1_000_000));
            h.record(v);
            vals.push(v);
        }
        vals.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999, 0.9999] {
            let target = ((q * vals.len() as f64).ceil() as usize).max(1);
            let truth = vals[target - 1];
            let est = h.quantile(q);
            let err = est.abs_diff(truth) as f64 / truth as f64;
            assert!(err < Histogram::RELATIVE_ERROR, "q={q}: {est} vs {truth}");
        }
    }

    #[test]
    fn histogram_shard_merge_in_any_order_is_bit_identical() {
        let mut whole = Histogram::new();
        let mut shards = vec![Histogram::new(); 4];
        let mut rng = crate::rng::SplitMix64::new(7);
        for i in 0..20_000u64 {
            let v = rng.next_below(1 << 40);
            whole.record(v);
            shards[(i % 4) as usize].record(v);
        }
        let mut merged = Histogram::new();
        for idx in [2usize, 0, 3, 1] {
            merged.merge(&shards[idx]);
        }
        assert_eq!(merged, whole);
        assert_eq!(merged.quantile(0.999), whole.quantile(0.999));
    }

    #[test]
    fn histogram_rerun_same_seed_is_bit_identical() {
        let run = |seed: u64| {
            let mut h = Histogram::new();
            let mut rng = crate::rng::SplitMix64::new(seed);
            for _ in 0..10_000 {
                h.record(rng.next_below(1 << 50));
            }
            h
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn histogram_records_durations_in_nanoseconds() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record_duration(SimDuration::from_micros(250));
        b.record(250_000);
        assert_eq!(a, b);
        assert_eq!(a.max(), 250_000);
    }

    #[test]
    fn histogram_mean_holds_samples_past_u64_sum() {
        let mut h = Histogram::new();
        for _ in 0..4 {
            h.record(u64::MAX);
        }
        assert_eq!(h.mean(), u64::MAX as f64);
    }

    #[test]
    fn histogram_merge_grows_to_the_wider_range() {
        // Lazy growth: merging a wide histogram into a narrow one must
        // extend the narrow one's buckets, and the other way round too.
        let mut narrow = Histogram::new();
        narrow.record(5);
        let mut wide = Histogram::new();
        wide.record(1 << 40);
        let mut a = narrow.clone();
        a.merge(&wide);
        let mut b = wide.clone();
        b.merge(&narrow);
        assert_eq!(a, b);
        assert_eq!((a.min(), a.max(), a.count()), (5, 1 << 40, 2));
        assert_eq!(a.quantile(0.5), 5);
    }

    #[test]
    #[should_panic(expected = "invalid quantile")]
    fn histogram_rejects_quantile_outside_unit_interval() {
        Histogram::new().quantile(1.5);
    }

    #[test]
    fn histogram_index_value_monotone() {
        // value_of(index_of(v)) must be <= v and within ~9% below it.
        for v in [0u64, 1, 31, 32, 33, 63, 64, 100, 1000, 65_535, 1 << 30] {
            let idx = Histogram::index_of(v);
            let back = Histogram::value_of(idx);
            assert!(back <= v, "v={v} back={back}");
            if v >= 32 {
                assert!((v - back) as f64 / v as f64 <= 0.07, "v={v} back={back}");
            } else {
                assert_eq!(back, v);
            }
        }
    }
}
