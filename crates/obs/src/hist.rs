//! Lock-free log-linear latency histograms.
//!
//! [`AtomicHistogram`] is the one shared distribution primitive of the
//! workspace: the serve layer records request latency, queue wait,
//! compute time and claim round-trips into it, the pull worker keeps
//! its own copies for the exit summary, and the loadtest client uses it
//! in place of its former bespoke sorted-vec percentile.
//!
//! Design constraints, in order:
//!
//! 1. **Zero allocation, no locks on the record path.** A record is a
//!    handful of `Relaxed` atomic RMWs on a fixed [`BUCKETS`]-slot
//!    array — safe to call from any thread, any signal-adjacent
//!    context, any hot loop (`tests/zero_alloc.rs` pins this).
//! 2. **Deterministic merge.** Buckets add and maxima max; both
//!    commute, so merging per-thread histograms in any order — or
//!    recording the same multiset of values from any number of threads
//!    — yields byte-identical [`HistogramSnapshot`]s (the proptests in
//!    `tests/properties.rs` pin this).
//! 3. **Bounded, known error.** Values 0–7 get a bucket each; every
//!    power of two above, `[2^k, 2^(k+1) - 1]` for `k ≥ 3`, splits into
//!    [`SUB_BUCKETS`] equal linear buckets. A reported percentile is the
//!    upper bound of its bucket: never below the true value and less
//!    than 12.5 % (one eighth) above it. `count`, `sum` and `max` are
//!    exact, and percentiles are clamped to `max`.
//!
//! Units are chosen by the call site (the serve layer records
//! microseconds; field names carry a `_us`/`_ms` suffix).

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Linear buckets per power of two (and the count of exact small
/// values, 0 to `SUB_BUCKETS - 1`).
pub const SUB_BUCKETS: usize = 8;

/// `log2(SUB_BUCKETS)`.
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();

/// Number of buckets: the exact small values, then [`SUB_BUCKETS`] for
/// each power of two from `2^3` up to `2^63`.
pub const BUCKETS: usize = SUB_BUCKETS * (u64::BITS - SUB_BITS + 1) as usize;

/// The bucket a value lands in: the value itself below
/// [`SUB_BUCKETS`]; above, its power of two picks a group of
/// [`SUB_BUCKETS`] buckets and the bits below its leading one pick the
/// bucket within the group.
#[inline]
fn bucket_of(value: u64) -> usize {
    let width = u64::BITS - value.leading_zeros();
    if width <= SUB_BITS {
        return value as usize;
    }
    let shift = width - SUB_BITS - 1;
    let sub = (value >> shift) as usize & (SUB_BUCKETS - 1);
    (((width - SUB_BITS) as usize) << SUB_BITS) | sub
}

/// The inclusive upper bound of bucket `index` (`index` itself for the
/// exact small values, `u64::MAX` for the last bucket).
pub fn bucket_bound(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        return index as u64;
    }
    let shift = (index >> SUB_BITS) - 1;
    let sub = (index & (SUB_BUCKETS - 1)) as u128;
    (((SUB_BUCKETS as u128 + sub + 1) << shift) - 1) as u64
}

/// A lock-free log-linear histogram: [`BUCKETS`] relaxed `AtomicU64`
/// bucket counters plus an exact running sum and maximum. See the
/// module docs for the guarantees.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    pub fn new() -> AtomicHistogram {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value: three relaxed atomic RMWs, no allocation, no
    /// locks. Safe from any number of threads concurrently.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Folds `other` into `self` bucket-wise. Addition and max both
    /// commute, so any merge order produces the same totals.
    pub fn merge_from(&self, other: &AtomicHistogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            let v = theirs.load(Ordering::Relaxed);
            if v != 0 {
                mine.fetch_add(v, Ordering::Relaxed);
            }
        }
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Total number of recorded values (sum of bucket counts).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// A self-consistent readout: the count is derived from the bucket
    /// counters themselves, so percentiles always agree with the bucket
    /// totals even if records land concurrently with the snapshot (the
    /// exact `sum`/`max` may then trail or lead by the in-flight
    /// records; quiescent snapshots are exact).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        let mut count = 0u64;
        for (slot, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
            count += *slot;
        }
        let max = self.max.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max,
            p50: quantile(&buckets, count, max, 0.50),
            p90: quantile(&buckets, count, max, 0.90),
            p99: quantile(&buckets, count, max, 0.99),
            buckets: buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c != 0)
                .map(|(i, &c)| BucketCount {
                    le: bucket_bound(i),
                    count: c,
                })
                .collect(),
        }
    }
}

/// The value at quantile `q`: the upper bound of the bucket holding the
/// `ceil(q * count)`-th smallest record, clamped to the exact maximum.
fn quantile(buckets: &[u64; BUCKETS], count: u64, max: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (index, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bucket_bound(index).min(max);
        }
    }
    max
}

/// One non-empty bucket of a [`HistogramSnapshot`]: `count` records
/// were `<= le` (and above the previous bucket's bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Inclusive upper bound of the bucket.
    pub le: u64,
    /// Number of records that landed in the bucket.
    pub count: u64,
}

/// A serializable point-in-time readout of an [`AtomicHistogram`]:
/// exact count/sum/max, percentiles within 12.5 % above the true value,
/// and the non-empty buckets for full-distribution dumps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Exact sum of all recorded values.
    pub sum: u64,
    /// Exact maximum recorded value (0 when empty).
    pub max: u64,
    /// Median, as the containing bucket's upper bound (see module docs
    /// for the 12.5 % error bound).
    pub p50: u64,
    /// 90th percentile, same resolution as `p50`.
    pub p90: u64,
    /// 99th percentile, same resolution as `p50`.
    pub p99: u64,
    /// The non-empty buckets, smallest bound first.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// An empty snapshot (what an untouched histogram reads).
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            max: 0,
            p50: 0,
            p90: 0,
            p99: 0,
            buckets: Vec::new(),
        }
    }

    /// Exact arithmetic mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reads_zeroes() {
        let h = AtomicHistogram::new();
        let s = h.snapshot();
        assert_eq!(s, HistogramSnapshot::empty());
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn bucket_mapping_covers_every_boundary() {
        // Exact below 16, then 8 buckets per power of two.
        for value in 0..16u64 {
            assert_eq!(bucket_of(value), value as usize);
        }
        assert_eq!(bucket_of(17), 16);
        assert_eq!(bucket_of(18), 17);
        assert_eq!(bucket_of(31), 23);
        assert_eq!(bucket_of(32), 24);
        assert_eq!(bucket_of(1023), 63);
        assert_eq!(bucket_of(1024), 64);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_bound(BUCKETS - 1), u64::MAX);
        // Every value fits under its bucket's bound and above the
        // previous bucket's, and bounds rise bucket after bucket.
        for value in [0u64, 1, 2, 7, 8, 17, 1000, 40_000, 1 << 40, u64::MAX] {
            let b = bucket_of(value);
            assert!(value <= bucket_bound(b), "{value} > bound of bucket {b}");
            if b > 0 {
                assert!(value > bucket_bound(b - 1));
            }
        }
        for b in 1..BUCKETS {
            assert!(bucket_bound(b) > bucket_bound(b - 1), "bucket {b}");
        }
    }

    #[test]
    fn percentiles_are_upper_bounds_clamped_to_the_exact_max() {
        let h = AtomicHistogram::new();
        for v in [100u64, 200, 300, 400, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!((s.count, s.sum, s.max), (5, 2000, 1000));
        // Median record is 300 (bucket [288, 319]): reported as 319.
        assert_eq!(s.p50, 319);
        // p90 and p99 land on the max record: clamped to exactly 1000.
        assert_eq!(s.p90, 1000);
        assert_eq!(s.p99, 1000);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
    }

    /// Medians 1.3x apart within one power of two read apart; a bucket
    /// per power of two reported both as 65 535.
    #[test]
    fn percentiles_resolve_a_change_under_2x() {
        let median = |value: u64| {
            let h = AtomicHistogram::new();
            for v in [value, value, value, 2 * value] {
                h.record(v);
            }
            h.snapshot().p50
        };
        assert_eq!(median(40_000), 40_959);
        assert_eq!(median(52_000), 53_247);
    }

    #[test]
    fn merge_adds_buckets_and_maxes_the_max() {
        let a = AtomicHistogram::new();
        let b = AtomicHistogram::new();
        for v in [1u64, 2, 3] {
            a.record(v);
        }
        for v in [3u64, 4000] {
            b.record(v);
        }
        a.merge_from(&b);
        let direct = AtomicHistogram::new();
        for v in [1u64, 2, 3, 3, 4000] {
            direct.record(v);
        }
        assert_eq!(a.snapshot(), direct.snapshot());
    }

    #[test]
    fn single_value_snapshot_is_exact_everywhere() {
        let h = AtomicHistogram::new();
        h.record(777);
        let s = h.snapshot();
        // One record: every percentile clamps to the exact max.
        assert_eq!((s.p50, s.p90, s.p99, s.max), (777, 777, 777, 777));
        assert_eq!(s.buckets, vec![BucketCount { le: 831, count: 1 }]);
    }

    #[test]
    fn snapshot_serde_roundtrip() {
        let h = AtomicHistogram::new();
        for v in [0u64, 5, 5, 90, 1 << 30] {
            h.record(v);
        }
        let s = h.snapshot();
        let json = serde_json::to_string(&s).unwrap();
        let back: HistogramSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
