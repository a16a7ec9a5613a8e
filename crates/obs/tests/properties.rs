//! Property and stress tests for [`ahn_obs::AtomicHistogram`]: merge
//! order and thread count must never change bucket totals or reported
//! percentiles, and percentiles must respect the 12.5 % error bound.

use ahn_obs::{AtomicHistogram, HistogramSnapshot};
use proptest::prelude::*;

/// The reference readout: record everything into one histogram,
/// single-threaded, in the given order.
fn direct_snapshot(values: &[u64]) -> HistogramSnapshot {
    let h = AtomicHistogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

/// The exact `q`-quantile of `values` (the rank-`ceil(q*n)` order
/// statistic), for bounding the histogram's bucketed answer.
fn exact_quantile(values: &[u64], q: f64) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    // Sharding values across any number of histograms, with shards and
    // merges in any order, reads back identical to one serial pass.
    #[test]
    fn merge_order_and_sharding_never_change_the_snapshot(
        values in proptest::collection::vec(0u64..1_000_000, 1..300),
        shards in 1usize..6,
        rotate in 0usize..300,
    ) {
        let parts: Vec<AtomicHistogram> =
            (0..shards).map(|_| AtomicHistogram::new()).collect();
        // Deal values round-robin starting at an arbitrary offset, so
        // shard contents shift with `rotate`.
        for (i, &v) in values.iter().enumerate() {
            parts[(i + rotate) % shards].record(v);
        }
        // Merge in rotated order into a fresh histogram.
        let merged = AtomicHistogram::new();
        for i in 0..shards {
            merged.merge_from(&parts[(i + rotate) % shards]);
        }
        prop_assert_eq!(merged.snapshot(), direct_snapshot(&values));
    }

    // Reported percentiles never undershoot the exact order statistic,
    // never exceed it by more than an eighth (8 linear buckets per power
    // of two), and never exceed the max.
    #[test]
    fn percentiles_respect_the_log2_error_bound(
        values in proptest::collection::vec(0u64..1_000_000, 1..300),
    ) {
        let snapshot = direct_snapshot(&values);
        for (q, reported) in [(0.50, snapshot.p50), (0.90, snapshot.p90), (0.99, snapshot.p99)] {
            let exact = exact_quantile(&values, q);
            prop_assert!(reported >= exact,
                "q={q}: reported {reported} < exact {exact}");
            prop_assert!(reported <= (exact + exact / 8).min(snapshot.max),
                "q={q}: reported {reported} breaks the 12.5 % bound on exact {exact}");
        }
        prop_assert_eq!(snapshot.max, *values.iter().max().unwrap());
        prop_assert_eq!(snapshot.sum, values.iter().sum::<u64>());
        prop_assert_eq!(snapshot.count, values.len() as u64);
        prop_assert!(snapshot.p50 <= snapshot.p90 && snapshot.p90 <= snapshot.p99);
    }

    // The full-distribution dump always accounts for every record.
    #[test]
    fn bucket_dump_totals_match_the_count(
        values in proptest::collection::vec(0u64..u64::MAX, 0..200),
    ) {
        let snapshot = direct_snapshot(&values);
        let bucket_total: u64 = snapshot.buckets.iter().map(|b| b.count).sum();
        prop_assert_eq!(bucket_total, snapshot.count);
        // Bounds are strictly increasing (buckets come out in order).
        for pair in snapshot.buckets.windows(2) {
            prop_assert!(pair[0].le < pair[1].le);
        }
    }
}

/// Concurrent-record stress: eight threads hammering one histogram
/// must read back exactly like one thread recording the same multiset.
#[test]
fn concurrent_records_match_a_serial_pass() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 25_000;
    let shared = AtomicHistogram::new();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let shared = &shared;
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    // A deterministic spread over several decades.
                    shared.record((t * PER_THREAD + i) % 100_000);
                }
            });
        }
    });
    let serial = AtomicHistogram::new();
    for t in 0..THREADS {
        for i in 0..PER_THREAD {
            serial.record((t * PER_THREAD + i) % 100_000);
        }
    }
    assert_eq!(shared.snapshot(), serial.snapshot());
    assert_eq!(shared.count(), THREADS * PER_THREAD);
}
