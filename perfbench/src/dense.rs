//! `dense_serve`: the compute path. Two simulated ladder banks at 0.25%
//! deviation steps (3 520 + 2 880 segments) served in process exactly
//! as stdin `ftd serve` serves them: mapped store with a `stat` on every
//! hit, metrics off, the default worker count, batches of 64 with two in
//! flight. The index query and ranking take most of the time; the pool
//! hop is spread over 64 requests and there is no socket.

use std::path::Path;
use std::sync::Arc;

use ft_core::{count_intersections, GeometryOptions};
use ft_serve::{EngineConfig, MetricsRegistry, ServeHandle, StoreConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs::{dense_cuts, oracle_store, simulate_requests, test_vector, Cut, Request};
use crate::serving::{
    build_shards, counter_family, open_store, pool_hop, pool_phase, request_replay, shard_replay,
    Timed,
};
use crate::trace::Tracer;
use crate::util::{nproc, process_cpu_us, NoiseWitness, PeakRss, SetupTimer};
use crate::{Opts, Outcome};

/// `ftd serve`'s default `--batch`.
pub const BATCH: usize = 64;
const REQUESTS: usize = 8192;
/// Store set-ups per round; a round runs before serving, between
/// passes and after serving.
const SETUP_ROUND: usize = 40;
const PASSES: usize = 10;

pub fn run(o: &Opts, dir: &Path) -> Outcome {
    let tv = test_vector();
    let cuts: Vec<_> = dense_cuts().into_iter().map(|c| (c, tv.clone())).collect();
    let banks = build_shards(&cuts, dir);
    let geometry = GeometryOptions::default();
    let intersections: usize = banks
        .iter()
        .map(|(_, b)| count_intersections(b.trajectory_set(), &geometry))
        .sum();
    let oracle = oracle_store(&banks);
    drop(banks);
    let mut rng = StdRng::seed_from_u64(o.seed);
    let requests = simulate_requests(&cuts, &oracle, REQUESTS, &mut rng);
    drop(oracle);
    let mut out = serve_in_process(
        o,
        dir,
        &cuts,
        &requests,
        o.seconds,
        SETUP_ROUND,
        "dense_serve",
    );
    out.e2e.put("intersections", intersections as f64, "count");
    if let Some(mut tr) = out.tracer.take() {
        crate::offline::build_replay(&mut tr, &cuts, &mut out.layers);
        let (tr, mismatches) = crate::offline::ga_search_replay(tr, o.seed, &mut out.layers);
        out.failed += mismatches;
        out.attempted += 1;
        out.tracer = Some(tr);
    }
    out
}

/// Serves `requests` from the shard files under `dir` the way stdin
/// `ftd serve` does, for `seconds`, and — on a traced run — replays
/// them layer by layer. The store set-up is timed in rounds of
/// `setup_round` before serving, between passes and after serving.
/// `peak_rss_mb` covers all of that except the rounds between passes.
pub fn serve_in_process(
    o: &Opts,
    dir: &Path,
    cuts: &[(Cut, ft_core::TestVector)],
    requests: &[Request],
    seconds: f64,
    setup_round: usize,
    name: &str,
) -> Outcome {
    let mut out = Outcome::default();
    let ids: Vec<String> = cuts.iter().map(|(c, _)| c.id.clone()).collect();
    let config = StoreConfig::new(EngineConfig::default());
    let noop = Arc::new(MetricsRegistry::noop());
    let mut peak = PeakRss::start();
    let mut setup = SetupTimer::default();
    let set_up = || open_store(dir, config, &noop, &ids);
    let store = setup.time(setup_round, set_up);
    let workers = nproc();
    let mut handle = ServeHandle::with_metrics(store, workers, &noop);

    let witness = NoiseWitness::start();
    let cpu0 = process_cpu_us();
    let mut setup_cpu = 0.0;
    let timed: Timed = pool_phase(&mut handle, requests, BATCH, seconds, PASSES, &mut || {
        let c = process_cpu_us();
        peak.paused(|| {
            setup.time(setup_round, set_up);
        });
        setup_cpu += process_cpu_us() - c;
    });
    // Serving CPU only: the set-up rounds between passes are not serving.
    let cpu = process_cpu_us() - cpu0 - setup_cpu;
    drop(handle);
    setup.time(setup_round, set_up);

    out.attempted = timed.attempted;
    out.failed = timed.failed + (timed.attempted - timed.answered);
    out.report.push(format!(
        "{name}: {} shards, {} distinct requests, {workers} workers, batches of {BATCH}, two in flight",
        ids.len(),
        requests.len()
    ));
    out.report
        .push(timed.latency_report("batch submit -> drained"));
    out.report.push(setup.report("store"));
    let e = &mut out.e2e;
    e.put("setup_s", setup.cpu_s(), "s");
    e.put("peak_rss_mb", peak.mb(), "MiB");
    e.put("latency_p50_us", timed.p50_us(), "us");
    e.put("cpu_us_per_op", cpu / timed.answered.max(1) as f64, "us");
    e.put("accuracy", timed.accuracy(), "share");
    if o.trace {
        let l = &mut out.layers;
        l.put("pool.batch_mean", BATCH as f64, "count");
        l.put("pool.latency_us_mean", timed.latency.mean() / 1e3, "us");
        l.put("obs.records_per_req", 0.0, "count");
        l.put(
            "proc.cpu_us_per_req",
            cpu / timed.answered.max(1) as f64,
            "us",
        );
        l.put("host.steal_share", witness.steal_share(), "share");
        let mut tr = Tracer::new();
        let replay_store = open_store(dir, config, &noop, &ids);
        out.failed += request_replay(&mut tr, &replay_store, requests, l);
        let replayed = l.get("store.resolve_ns") + l.get("engine.diagnose_ns");
        let (worker_ns, snap, hop_failed) = pool_hop(dir, config, &ids, requests, workers, BATCH);
        l.put("pool.hop_ns", worker_ns - replayed, "ns");
        out.failed += hop_failed;
        let n = snap.counter("serve_requests_total").unwrap_or(0).max(1) as f64;
        l.put(
            "pool.jobs_per_req",
            counter_family(&snap, "pool_worker_jobs_total") as f64 / n,
            "count",
        );
        l.put(
            "store.stats_per_req",
            snap.counter("store_generation_stats_total").unwrap_or(0) as f64 / n,
            "count",
        );
        shard_replay(&mut tr, dir, config, &ids, l);
        out.tracer = Some(tr);
    }
    out.witness = Some(witness);
    out
}
