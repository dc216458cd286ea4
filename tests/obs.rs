//! Observability-subsystem integration tests.
//!
//! Three invariants from the serving-stack observability work:
//!
//! * **Bucket geometry** — every `u64` value lands in exactly one log₂
//!   histogram bucket whose inclusive bounds contain it, and every
//!   quantile of a recorded distribution is bounded by the bucket edges
//!   around the recorded values (property-tested).
//! * **Concurrent-update consistency** — a snapshot taken while writer
//!   threads are mid-flight always satisfies `count == Σ buckets`, and
//!   counts are monotone across snapshots.
//! * **Metrics are inert** — serving the same requests through an
//!   instrumented pool and a plain one renders byte-identical diagnosis
//!   lines, while the registry still counts every request.

use std::sync::Arc;

use fault_trajectory::prelude::*;
use fault_trajectory::serve::{
    bucket_bounds, bucket_index, synthetic_circuit_bank, synthetic_queries, Histogram,
    HistogramSnapshot,
};
use proptest::prelude::*;

proptest! {
    #[test]
    fn every_value_lands_in_exactly_one_bucket(exponent in 0usize..64, offset in 0i64..1_000_000) {
        let value = (1u64 << exponent).saturating_add(offset as u64);
        let index = bucket_index(value);
        let (lower, upper) = bucket_bounds(index);
        prop_assert!(lower <= value && value <= upper,
            "value {value} outside bucket {index} = [{lower}, {upper}]");
        // No other bucket's bounds contain the value.
        for other in 0..65usize {
            if other != index {
                let (lo, hi) = bucket_bounds(other);
                prop_assert!(value < lo || value > hi,
                    "value {value} also inside bucket {other} = [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn quantiles_are_bounded_by_bucket_edges(
        raw in prop::collection::vec(0i64..1_000_000, 1usize..50)
    ) {
        let values: Vec<u64> = raw.into_iter().map(|v| v as u64).collect();
        let histogram = Histogram::default();
        for &v in &values {
            histogram.record(v);
        }
        let snapshot = histogram.snapshot();
        prop_assert_eq!(snapshot.count, values.len() as u64);
        let max = *values.iter().max().expect("non-empty");
        let min = *values.iter().min().expect("non-empty");
        let (_, upper_edge) = bucket_bounds(bucket_index(max));
        let (lower_edge, _) = bucket_bounds(bucket_index(min));
        for q in [0.5, 0.9, 0.99, 1.0] {
            let est = snapshot.quantile(q);
            prop_assert!(est <= upper_edge as f64 + 1e-9,
                "q{q} = {est} above the top bucket edge {upper_edge}");
            prop_assert!(est >= lower_edge as f64 - 1e-9,
                "q{q} = {est} below the bottom bucket edge {lower_edge}");
        }
    }
}

#[test]
fn concurrent_snapshots_stay_internally_consistent() {
    const THREADS: usize = 4;
    const PER_THREAD: u64 = 10_000;
    let histogram = Arc::new(Histogram::default());
    let consistent = |s: &HistogramSnapshot| s.count == s.buckets.iter().sum::<u64>();

    let mut last_count = 0u64;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let histogram = Arc::clone(&histogram);
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    histogram.record(t as u64 * 7 + i % 1024);
                }
            });
        }
        // Snapshot while writers are genuinely mid-flight: the count
        // must always equal the bucket sum, and never go backwards.
        for _ in 0..50 {
            let snap = histogram.snapshot();
            assert!(consistent(&snap), "count != Σ buckets mid-flight");
            assert!(snap.count >= last_count, "count went backwards");
            last_count = snap.count;
        }
    });

    let final_snap = histogram.snapshot();
    assert!(consistent(&final_snap));
    assert_eq!(final_snap.count, (THREADS as u64) * PER_THREAD);
}

/// Renders a pool result the way `ftd serve` does (modulo the exact
/// line format — equality of the full debug form is strictly stronger).
fn render_all(results: &[fault_trajectory::serve::ServeResult]) -> Vec<String> {
    results
        .iter()
        .map(|r| match r {
            Ok(d) => format!("{d:?}"),
            Err(e) => format!("error\t{e}"),
        })
        .collect()
}

#[test]
fn metrics_do_not_change_served_bytes() {
    let tv = TestVector::pair(0.5, 2.0);
    let bank = synthetic_circuit_bank(2, 10.0, 9, &tv).unwrap();
    let queries = synthetic_queries(bank.trajectory_set(), 24, 11);
    let requests: Vec<DiagnosisRequest> = queries
        .into_iter()
        .map(|sig| DiagnosisRequest::new("ladder", sig))
        .collect();

    let registry = Arc::new(MetricsRegistry::new());
    let plain_store = BankStore::in_memory(EngineConfig::default());
    plain_store.insert_bank("ladder", bank.clone()).unwrap();
    // Metrics attach before the insert, so the pinned engine is
    // instrumented too.
    let metered_store = BankStore::in_memory(EngineConfig::default()).with_metrics(&registry);
    metered_store.insert_bank("ladder", bank.clone()).unwrap();

    let mut plain = ServeHandle::new(Arc::new(plain_store), 3);
    let mut metered = ServeHandle::with_metrics(Arc::new(metered_store), 3, &registry);
    plain.submit(requests.clone());
    metered.submit(requests.clone());
    let plain_out = render_all(&plain.drain_one().unwrap());
    let metered_out = render_all(&metered.drain_one().unwrap());
    assert_eq!(plain_out, metered_out, "metrics changed served output");

    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("serve_requests_total"),
        Some(requests.len() as u64)
    );
    assert_eq!(snap.counter("serve_errors_total"), Some(0));
    assert!(
        snap.histogram("engine_diagnose_latency_us")
            .map(|h| h.count)
            .unwrap_or(0)
            >= requests.len() as u64,
        "engine latency histogram missed diagnoses"
    );
}
