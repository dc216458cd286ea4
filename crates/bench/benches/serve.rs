//! Serving-layer cost: the bank codec round trip on the paper bank, and
//! two summary passes that write one JSON file each.
//!
//! * `BENCH_index.json` — the linear scan against the segment index's
//!   full ranking and its served top-1 search, at query and diagnose
//!   level, on five banks: the paper bank (56 segments, where the linear
//!   scan is expected to stay competitive), synthetic banks of about
//!   1k, 10k and 100k segments, and the simulated order-3 RLC-ladder
//!   bank. Every search is checked against `LinearScan` before a number
//!   is written.
//! * `BENCH_serve.json` — the persistent pool's batch throughput over
//!   the ladder bank, shard cold loads and the TCP tier.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ft_bench::paper_setup;
use ft_core::{
    Diagnoser, DiagnoserConfig, LinearScan, SegmentQuery, Signature, TestVector, TrajectorySet,
};
use ft_serve::{
    run_loadgen, synthetic_circuit_bank, synthetic_queries, synthetic_trajectory_set, BankStore,
    DiagnosisEngine, DiagnosisRequest, EngineConfig, LoadgenConfig, MetricsRegistry, NetConfig,
    NetServer, SegmentIndex, ServeHandle, TrajectoryBank,
};

/// Sustained-traffic workload for the pool: one batch of this many
/// requests, served repeatedly.
const FRONTEND_BATCH: usize = 256;

/// Queries per bank in the index pass.
const INDEX_QUERIES: usize = 100;

/// Ranking depth of the timed top-k search: `store::diagnose_on`
/// answers every served request with k = 1.
const SERVED_K: usize = 1;

/// Timed rounds per search in the index pass. Every search runs once
/// per round and its fastest round is reported: the minimum is the
/// low-noise estimator on a shared machine, and interleaving keeps a
/// slow window from landing on one search's whole sample, which would
/// bias every ratio.
const INDEX_ROUNDS: usize = 5;

/// The paper's CUT: the Tow-Thomas fault dictionary at the paper's test
/// vector, 7 trajectories × 8 segments.
fn paper_bank() -> TrajectoryBank {
    TrajectoryBank::build(paper_setup().dict, &TestVector::pair(0.6, 1.6))
}

/// A simulated order-3 ladder bank: 5 trajectories × 320 segments.
fn ladder_bank() -> TrajectoryBank {
    synthetic_circuit_bank(3, 0.25, 21, &TestVector::pair(0.5, 2.0)).expect("ladder bank simulates")
}

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
/// comparison of the served load (`DiagnosisEngine::open`: the
/// trajectory section is read, checksummed and decoded, the dictionary
/// never read) against the full load (`TrajectoryBank::load`, then
/// `DiagnosisEngine::new`) on a multi-MB dictionary-heavy bank.
fn emit_summary(_c: &mut Criterion) {
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(8);
    // The ladder bank behind one CUT id.
    let bank = ladder_bank();
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
    let big = synthetic_circuit_bank(3, 0.25, 161, &TestVector::pair(0.5, 2.0))
        .expect("dictionary-heavy bank simulates");
    let path = std::env::temp_dir().join("bench_serve_cold_load.ftb");
    big.save(&path).expect("saves cold-load bank");
    let bank_bytes = std::fs::metadata(&path).expect("stat").len();
    let config = EngineConfig::default();
    let full_s = median_secs(9, || {
        let bank = TrajectoryBank::load(&path).expect("full load");
        DiagnosisEngine::new(bank.into_trajectory_set(), config);
    });
    let served_s = median_secs(9, || {
        DiagnosisEngine::open(&path, config).expect("served load");
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
         \"full_cold_load_s\": {full_s:.6e},\n  \"served_cold_load_s\": {served_s:.6e},\n  \
         \"served_vs_full_cold_load\": {:.3},\n  \
         \"v3_open_s\": {open_s:.6e},\n  \
         \"v3_open_vs_full_cold_load\": {:.5},\n  \
         \"tcp_requests_per_config\": {TCP_TOTAL},\n  \"tcp_depth\": 32,\n  \
         \"tcp_2conn_rps\": {:.0},\n  \"tcp_2conn_p50_us\": {},\n  \
         \"tcp_2conn_p90_us\": {},\n  \"tcp_2conn_p99_us\": {},\n  \
         \"tcp_8conn_rps\": {:.0},\n  \"tcp_8conn_p50_us\": {},\n  \
         \"tcp_8conn_p90_us\": {},\n  \"tcp_8conn_p99_us\": {}\n}}\n",
        instrumented_s / pooled_s.max(1e-12),
        served_s / full_s.max(1e-12),
        open_s / full_s.max(1e-12),
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
         served cold load {:.2}x full load on a {:.1} MB bank \
         (bare MappedBank::open {:.5}x: reads and decodes the trajectory section only); \
         TCP tier {:.0} req/s at 2 conns (p50 {:.0}us p99 {:.0}us), \
         {:.0} req/s at 8 conns (p50 {:.0}us p99 {:.0}us), depth 32",
        pooled_s * 1e6,
        instrumented_s / pooled_s.max(1e-12),
        served_s / full_s.max(1e-12),
        bank_bytes as f64 / (1024.0 * 1024.0),
        open_s / full_s.max(1e-12),
        tcp2.rps,
        tcp2.p50_us,
        tcp2.p99_us,
        tcp8.rps,
        tcp8.p50_us,
        tcp8.p99_us,
    );
}

/// Runs `search` over every query and lowers `best` to the per-query
/// time in µs if this round was faster.
fn time_queries<T>(
    queries: &[Signature],
    best: &mut f64,
    search: impl FnMut(&Signature) -> T,
) -> Vec<T> {
    let t = Instant::now();
    let out: Vec<T> = queries.iter().map(search).collect();
    *best = best.min(t.elapsed().as_secs_f64() * 1e6 / queries.len() as f64);
    out
}

/// Times the linear scan, the index's full ranking and its top-1 search
/// over one bank, panicking if either search differs from `LinearScan`,
/// and returns the bank's `BENCH_index.json` row.
fn index_run(bank: &str, set: &TrajectorySet) -> String {
    let queries = synthetic_queries(set, INDEX_QUERIES, 8);
    let t = Instant::now();
    let index = SegmentIndex::build(set);
    let build_us = t.elapsed().as_secs_f64() * 1e6;
    let diagnoser = Diagnoser::new(set.clone(), DiagnoserConfig::default());
    let ratio = diagnoser.config().ambiguity_ratio;
    let oracle_top1: Vec<_> = queries
        .iter()
        .map(|q| LinearScan.topk_per_trajectory(set, q, SERVED_K, ratio))
        .collect();

    // Query level times the search alone; diagnose level adds what a
    // caller pays: candidates, the sort and the ambiguity set.
    let mut linear_q = f64::INFINITY;
    let mut flat_q = f64::INFINITY;
    let mut top1_q = f64::INFINITY;
    let mut linear_d = f64::INFINITY;
    let mut flat_d = f64::INFINITY;
    let mut top1_d = f64::INFINITY;
    let (mut examined, mut early_exits) = (0usize, 0usize);
    for _ in 0..INDEX_ROUNDS {
        let linear = time_queries(&queries, &mut linear_q, |q| {
            LinearScan.best_per_trajectory(set, q)
        });
        examined = 0;
        let flat = time_queries(&queries, &mut flat_q, |q| {
            let (best, stats) = index.query_stats(q);
            examined += stats.segments_examined;
            best
        });
        early_exits = 0;
        let top1 = time_queries(&queries, &mut top1_q, |q| {
            let (ranking, stats) = index.query_topk(q, SERVED_K, ratio);
            early_exits += usize::from(stats.early_exit);
            ranking
        });
        assert!(
            flat == linear,
            "{bank}: the full ranking diverged from the linear scan"
        );
        assert!(
            top1 == oracle_top1,
            "{bank}: the top-1 search diverged from the linear scan"
        );

        let linear = time_queries(&queries, &mut linear_d, |q| diagnoser.diagnose(q));
        let flat = time_queries(&queries, &mut flat_d, |q| {
            diagnoser.diagnose_with(&index, q)
        });
        let top1 = time_queries(&queries, &mut top1_d, |q| {
            diagnoser.diagnose_topk(&index, q, SERVED_K)
        });
        assert!(
            flat == linear,
            "{bank}: the indexed diagnosis diverged from the linear scan"
        );
        for (full, served) in linear.iter().zip(&top1) {
            let kept = served.candidates().len();
            assert!(
                served.candidates() == &full.candidates()[..kept]
                    && served.ambiguity_set() == full.ambiguity_set(),
                "{bank}: the top-1 diagnosis is not the linear ranking's prefix"
            );
        }
    }

    let speedup = |a: f64, b: f64| a / b.max(1e-12);
    println!(
        "BENCH_index.json: {bank}, {} segments: query linear {linear_q:.2}us, \
         flat {flat_q:.2}us ({:.1}x), top-1 {top1_q:.2}us ({:.1}x); identical on every search",
        set.total_segments(),
        speedup(linear_q, flat_q),
        speedup(linear_q, top1_q),
    );
    format!(
        "{{\"bank\": \"{bank}\", \"segments\": {}, \"trajectories\": {}, \"dim\": {}, \
         \"queries\": {INDEX_QUERIES}, \"topk\": {SERVED_K}, \"build_flat_us\": {build_us:.1}, \
         \"linear_query_us\": {linear_q:.3}, \"flat_query_us\": {flat_q:.3}, \
         \"topk_query_us\": {top1_q:.3}, \"flat_speedup_vs_linear\": {:.2}, \
         \"topk_speedup_vs_linear\": {:.2}, \"linear_diagnose_us\": {linear_d:.3}, \
         \"flat_diagnose_us\": {flat_d:.3}, \"topk_diagnose_us\": {top1_d:.3}, \
         \"segments_examined_frac\": {:.4}, \"topk_early_exit_rate\": {:.4}}}",
        set.total_segments(),
        set.len(),
        set.dim(),
        speedup(linear_q, flat_q),
        speedup(linear_q, top1_q),
        examined as f64 / (set.total_segments() * INDEX_QUERIES) as f64,
        early_exits as f64 / INDEX_QUERIES as f64,
    )
}

/// Emits `BENCH_index.json`: one `index_run` row per bank.
fn emit_index_summary(_c: &mut Criterion) {
    let banks = [
        ("paper", paper_bank().into_trajectory_set()),
        // 8, 78 and 781 trajectories of 128 segments each.
        ("synthetic-1k", synthetic_trajectory_set(8, 64, 2, 7)),
        ("synthetic-10k", synthetic_trajectory_set(78, 64, 2, 7)),
        ("synthetic-100k", synthetic_trajectory_set(781, 64, 2, 7)),
        ("rlc-ladder-order-3", ladder_bank().into_trajectory_set()),
    ];
    let runs: Vec<String> = banks
        .iter()
        .map(|(bank, set)| format!("    {}", index_run(bank, set)))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"scan-vs-index\",\n  \"runs\": [\n{}\n  ]\n}}\n",
        runs.join(",\n")
    );
    std::fs::write("BENCH_index.json", json).expect("write BENCH_index.json");
}

fn bench_bank_codec(c: &mut Criterion) {
    let bank = paper_bank();
    let mut group = c.benchmark_group("serve");
    group.bench_function("bank_encode_paper", |b| {
        b.iter(|| black_box(&bank).to_bytes())
    });
    let bytes = bank.to_bytes();
    group.bench_function("bank_decode_paper", |b| {
        b.iter(|| TrajectoryBank::from_bytes(black_box(&bytes)).expect("valid bank"))
    });
    group.finish();
}

criterion_group!(benches, bench_bank_codec, emit_index_summary, emit_summary);
criterion_main!(benches);
