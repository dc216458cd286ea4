//! Serving-layer throughput: linear scan vs spatial index per query,
//! the persistent worker pool's batch throughput, plus bank codec
//! round-trip cost.
//!
//! The index's win is measured on a production-scale synthetic bank
//! (8 trajectories × 128 segments = 1024 segments — the paper CUT's
//! component count with a production-dense deviation sweep) and
//! sanity-checked on the real paper bank (56 segments), where the
//! linear scan is expected to stay competitive. The summary pass runs
//! the pool over a simulated RLC-ladder bank and writes a
//! `BENCH_serve.json` summary so CI and the README can quote one number.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ft_bench::paper_setup;
use ft_core::{Diagnoser, DiagnoserConfig, TestVector};
use ft_serve::{
    run_loadgen, synthetic_circuit_bank, synthetic_queries, synthetic_trajectory_set, BankStore,
    DiagnosisEngine, DiagnosisRequest, EngineConfig, LoadgenConfig, MetricsRegistry, NetConfig,
    NetServer, SegmentIndex, ServeHandle, TrajectoryBank,
};

/// Sustained-traffic workload for the pool: one batch of this many
/// requests, served repeatedly.
const FRONTEND_BATCH: usize = 256;

/// Median-of-N wall time of `f`, in seconds.
fn median_secs(n: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    times[times.len() / 2]
}

/// Emits `BENCH_serve.json`: sustained-traffic batch throughput of the
/// persistent worker pool, answering every request with the top-1
/// search, with and without live metrics — plus the cold-load
/// comparison of the shard load (`DiagnosisEngine::load_mapped`: the
/// trajectory section is read, checksummed and decoded, the dictionary
/// never read) against the full load on a multi-MB dictionary-heavy
/// bank.
fn emit_summary(_c: &mut Criterion) {
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(8);
    // A simulated order-3 ladder bank (5 trajectories × 320 segments)
    // behind one CUT id.
    let tv = TestVector::pair(0.5, 2.0);
    let bank = synthetic_circuit_bank(3, 0.25, 21, &tv).expect("ladder bank simulates");
    let segments = bank.trajectory_set().total_segments();
    let requests: Vec<DiagnosisRequest> =
        synthetic_queries(bank.trajectory_set(), FRONTEND_BATCH, 13)
            .into_iter()
            .map(|q| DiagnosisRequest::new("ladder", q))
            .collect();
    let store = Arc::new(BankStore::in_memory(EngineConfig::default()));
    store
        .insert_bank("ladder", bank.clone())
        .expect("valid cut id");
    let mut handle = ServeHandle::new(store, workers);
    let pooled_s = median_secs(15, || {
        handle.submit(requests.clone());
        handle.drain_one().expect("batch completes");
    });

    // The same pool with live metrics attached: the observability
    // acceptance bound says this must sit within noise of `pooled_s`.
    let registry = Arc::new(MetricsRegistry::new());
    let store = Arc::new(BankStore::in_memory(EngineConfig::default()).with_metrics(&registry));
    store
        .insert_bank("ladder", bank.clone())
        .expect("valid cut id");
    let mut instrumented = ServeHandle::with_metrics(store, workers, &registry);
    let instrumented_s = median_secs(15, || {
        instrumented.submit(requests.clone());
        instrumented.drain_one().expect("batch completes");
    });

    // Cold load: a dense dictionary (161 grid points × 320 deviations
    // per branch) makes the bank file multi-MB and dictionary-dominated,
    // the shape where out-of-core serving matters.
    let big = synthetic_circuit_bank(3, 0.25, 161, &tv).expect("dictionary-heavy bank simulates");
    let path = std::env::temp_dir().join("bench_serve_cold_load.ftb");
    big.save(&path).expect("saves cold-load bank");
    let bank_bytes = std::fs::metadata(&path).expect("stat").len();
    let config = EngineConfig::default();
    let heap_s = median_secs(9, || {
        DiagnosisEngine::load(&path, config).expect("heap load");
    });
    let mapped_s = median_secs(9, || {
        DiagnosisEngine::load_mapped(&path, config).expect("mapped load");
    });
    // Bare shard open: read the header, the section table and the
    // trajectory section, checksum and decode it — no content
    // validation, no index build. The engine load above adds both.
    let open_s = median_secs(9, || {
        ft_serve::MappedBank::open(&path).expect("v3 open");
    });
    std::fs::remove_file(&path).ok();

    // TCP tier: an in-process `NetServer` over the same ladder bank,
    // driven by the pipelined load generator at two connection counts
    // (the acceptance criterion asks for measured throughput and
    // latency percentiles at ≥2 configurations).
    let net_registry = Arc::new(MetricsRegistry::new());
    let net_store =
        Arc::new(BankStore::in_memory(EngineConfig::default()).with_metrics(&net_registry));
    net_store.insert_bank("ladder", bank).expect("valid cut id");
    let server = NetServer::bind(
        "127.0.0.1:0",
        net_store,
        &net_registry,
        NetConfig {
            workers,
            refresh_interval: Duration::ZERO,
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().expect("bound addr").to_string();
    let net_shutdown = server.shutdown_handle();
    let net_join = std::thread::spawn(move || server.run().expect("event loop"));
    const TCP_TOTAL: usize = 20_000;
    let tcp = |connections: usize| {
        run_loadgen(
            &addr,
            &requests,
            &LoadgenConfig {
                connections,
                depth: 32,
                total: TCP_TOTAL,
                capture: false,
            },
        )
        .expect("loadgen run")
    };
    let tcp2 = tcp(2);
    let tcp8 = tcp(8);
    net_shutdown.shutdown();
    net_join.join().expect("server thread");

    let json = format!(
        "{{\n  \"bank\": \"rlc-ladder-order-3\",\n  \"segments\": {segments},\n  \
         \"batch\": {FRONTEND_BATCH},\n  \"workers\": {workers},\n  \
         \"pooled_batch_s\": {pooled_s:.6e},\n  \
         \"instrumented_batch_s\": {instrumented_s:.6e},\n  \
         \"instrumented_vs_pooled\": {:.3},\n  \
         \"cold_load_bank_bytes\": {bank_bytes},\n  \
         \"heap_cold_load_s\": {heap_s:.6e},\n  \"mapped_cold_load_s\": {mapped_s:.6e},\n  \
         \"mapped_vs_heap_cold_load\": {:.3},\n  \
         \"v3_open_s\": {open_s:.6e},\n  \
         \"v3_open_vs_heap_cold_load\": {:.5},\n  \
         \"tcp_requests_per_config\": {TCP_TOTAL},\n  \"tcp_depth\": 32,\n  \
         \"tcp_2conn_rps\": {:.0},\n  \"tcp_2conn_p50_us\": {},\n  \
         \"tcp_2conn_p90_us\": {},\n  \"tcp_2conn_p99_us\": {},\n  \
         \"tcp_8conn_rps\": {:.0},\n  \"tcp_8conn_p50_us\": {},\n  \
         \"tcp_8conn_p90_us\": {},\n  \"tcp_8conn_p99_us\": {}\n}}\n",
        instrumented_s / pooled_s.max(1e-12),
        mapped_s / heap_s.max(1e-12),
        open_s / heap_s.max(1e-12),
        tcp2.rps,
        tcp2.p50_us,
        tcp2.p90_us,
        tcp2.p99_us,
        tcp8.rps,
        tcp8.p50_us,
        tcp8.p90_us,
        tcp8.p99_us,
    );
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!(
        "BENCH_serve.json: persistent pool {:.1}us per top-1 batch \
         ({FRONTEND_BATCH}-request batches, {workers} workers, {segments} segments); \
         metrics overhead {:.3}x; \
         shard cold load {:.2}x full load on a {:.1} MB bank \
         (bare MappedBank::open {:.5}x: reads and decodes the trajectory section only); \
         TCP tier {:.0} req/s at 2 conns (p50 {:.0}us p99 {:.0}us), \
         {:.0} req/s at 8 conns (p50 {:.0}us p99 {:.0}us), depth 32",
        pooled_s * 1e6,
        instrumented_s / pooled_s.max(1e-12),
        mapped_s / heap_s.max(1e-12),
        bank_bytes as f64 / (1024.0 * 1024.0),
        open_s / heap_s.max(1e-12),
        tcp2.rps,
        tcp2.p50_us,
        tcp2.p99_us,
        tcp8.rps,
        tcp8.p50_us,
        tcp8.p99_us,
    );
}

fn bench_scan_vs_index_1k(c: &mut Criterion) {
    let set = synthetic_trajectory_set(8, 64, 2, 7);
    assert!(set.total_segments() >= 1000);
    let index = SegmentIndex::build(&set);
    let queries = synthetic_queries(&set, 64, 8);
    let diagnoser = Diagnoser::new(set, DiagnoserConfig::default());

    let mut group = c.benchmark_group("serve");
    group.bench_function("linear_scan_1k_segments", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % queries.len();
            diagnoser.diagnose(black_box(&queries[i]))
        })
    });
    group.bench_function("indexed_1k_segments", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % queries.len();
            diagnoser.diagnose_with(&index, black_box(&queries[i]))
        })
    });
    group.finish();
}

fn bench_paper_bank(c: &mut Criterion) {
    let setup = paper_setup();
    let tv = TestVector::pair(0.6, 1.6);
    let bank = TrajectoryBank::build(setup.dict, &tv);
    let index = SegmentIndex::build(bank.trajectory_set());
    let queries = synthetic_queries(bank.trajectory_set(), 16, 11);
    let diagnoser = Diagnoser::new(bank.trajectory_set().clone(), DiagnoserConfig::default());

    let mut group = c.benchmark_group("serve");
    group.bench_function("linear_scan_paper_bank", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % queries.len();
            diagnoser.diagnose(black_box(&queries[i]))
        })
    });
    group.bench_function("indexed_paper_bank", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % queries.len();
            diagnoser.diagnose_with(&index, black_box(&queries[i]))
        })
    });
    group.bench_function("bank_encode_paper", |b| {
        b.iter(|| black_box(&bank).to_bytes())
    });
    let bytes = bank.to_bytes();
    group.bench_function("bank_decode_paper", |b| {
        b.iter(|| TrajectoryBank::from_bytes(black_box(&bytes)).expect("valid bank"))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_scan_vs_index_1k,
    bench_paper_bank,
    emit_summary
);
criterion_main!(benches);
