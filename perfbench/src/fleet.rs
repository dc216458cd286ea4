//! `fleet_tcp`: the wire path. 256 small Tow-Thomas shards behind an
//! in-process `NetServer` on loopback, driven by one client thread over
//! one connection with 32 requests in flight. A diagnosis on a
//! 56-segment bank costs ~1.6 µs, so the time goes to the frame codec,
//! event loop, pool hop, shard lookup, response text and metrics.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ft_core::{count_intersections, GeometryOptions};
use ft_serve::net::{decode_frame, decode_response, NetConfig, NetServer, FRAME_RESPONSE};
use ft_serve::{EngineConfig, MetricsRegistry, StoreConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs::{fleet_cuts, oracle_store, simulate_requests, test_vector, Request};
use crate::serving::{
    build_shards, counter_family, delta, histogram_records, open_store, pool_hop, request_replay,
    shard_replay, Passes, Timed,
};
use crate::trace::Tracer;
use crate::util::{
    cpu_ns_between, task_cpu_ns, task_switches, thread_id, NoiseWitness, PeakRss, SetupTimer,
};
use crate::{Opts, Outcome};

/// Requests kept in flight on the one connection.
const DEPTH: usize = 32;
/// Distinct simulated requests, cycled through for the whole run.
const REQUESTS: usize = 8192;
/// Store set-ups per round; a round runs before serving, between
/// passes and after serving.
const SETUP_ROUND: usize = 4;
const PASSES: usize = 10;

/// `ftd serve --listen`'s store: mapped shards, the per-hit `stat`
/// replaced by the 1 s refresh tick.
fn store_config() -> StoreConfig {
    StoreConfig {
        min_stat_interval: Duration::from_secs(1),
        ..StoreConfig::new(EngineConfig::default())
    }
}

pub fn run(o: &Opts, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let tv = test_vector();
    let cuts: Vec<_> = fleet_cuts().into_iter().map(|c| (c, tv.clone())).collect();
    let ids: Vec<String> = cuts.iter().map(|(c, _)| c.id.clone()).collect();

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
    let mut peak = PeakRss::start();

    let mut setup = SetupTimer::default();
    let set_up = || {
        let registry = Arc::new(MetricsRegistry::new());
        (open_store(dir, store_config(), &registry, &ids), registry)
    };
    let (store, registry) = setup.time(SETUP_ROUND, set_up);
    let server = NetServer::bind(
        "127.0.0.1:0",
        store,
        &registry,
        NetConfig {
            workers: 1,
            ..NetConfig::default()
        },
    )
    .expect("loopback bind");
    let addr = server.local_addr().expect("bound address");
    let shutdown = server.shutdown_handle();
    let (tid_tx, tid_rx) = std::sync::mpsc::channel();
    let server_thread = std::thread::spawn(move || {
        tid_tx
            .send(thread_id())
            .expect("main thread waits for the id");
        server.run()
    });
    let loop_tid = tid_rx.recv().expect("server thread reports its id");

    let witness = NoiseWitness::start();
    let client = thread_id();
    let switches0 = task_switches();
    let cpu0 = task_cpu_ns();
    let snap0 = registry.snapshot();
    let timed = tcp_phase(addr, &requests, o.seconds, &mut || {
        peak.paused(|| {
            setup.time(SETUP_ROUND, set_up);
        });
    });
    let snap = delta(&snap0, &registry.snapshot());
    let cpu1 = task_cpu_ns();
    // Server threads only: the event loop and the pool worker.
    let server_cpu_us = cpu_ns_between(&cpu0, &cpu1, Some(client)) as f64 / 1e3;
    let loop_cpu_ns =
        cpu1.get(&loop_tid).copied().unwrap_or(0) - cpu0.get(&loop_tid).copied().unwrap_or(0);
    let switches1 = task_switches();
    shutdown.shutdown();
    let summary = server_thread
        .join()
        .expect("server thread does not panic")
        .expect("server loop runs");
    setup.time(SETUP_ROUND, set_up);
    let peak_rss = peak.mb();

    out.attempted = timed.attempted;
    out.failed = timed.failed + summary.protocol_errors + (timed.attempted - timed.answered);
    out.report.push(format!(
        "fleet_tcp: {} shards, {} distinct requests, depth {DEPTH}, 1 pool worker; server: {} served, {} error lines, {} protocol errors",
        ids.len(),
        requests.len(),
        summary.served,
        summary.errors,
        summary.protocol_errors
    ));
    out.report.push(timed.latency_report("round trip"));
    out.report.push(setup.report("store"));
    let e = &mut out.e2e;
    e.put("setup_s", setup.cpu_s(), "s");
    e.put("peak_rss_mb", peak_rss, "MiB");
    e.put(
        "cpu_us_per_op",
        server_cpu_us / timed.answered.max(1) as f64,
        "us",
    );
    e.put("latency_p50_us", timed.p50_us(), "us");
    e.put("intersections", intersections as f64, "count");
    e.put("accuracy", timed.accuracy(), "share");
    if !o.trace {
        out.witness = Some(witness);
        return out;
    }

    // Traced run: server counters of the timed phase, then replays.
    let requests_served = snap.counter("net_requests_total").unwrap_or(0).max(1) as f64;
    let l = &mut out.layers;
    l.put(
        "net.bytes_in_per_req",
        snap.counter("net_bytes_in_total").unwrap_or(0) as f64 / requests_served,
        "bytes",
    );
    l.put(
        "net.bytes_out_per_req",
        snap.counter("net_bytes_out_total").unwrap_or(0) as f64 / requests_served,
        "bytes",
    );
    l.put(
        "net.wire_us_mean",
        snap.histogram("net_request_wire_us")
            .map_or(0.0, |h| h.mean()),
        "us",
    );
    l.put("net.rtt_p99_us", timed.latency.quantile(0.99) / 1e3, "us");
    l.put("net.rtt_samples", timed.latency.len() as f64, "count");
    let server_csw: u64 = switches1
        .iter()
        .filter(|(tid, _)| **tid != client)
        .map(|(tid, s)| s.0 - switches0.get(tid).map_or(0, |s0| s0.0))
        .sum();
    l.put(
        "net.csw_per_req",
        server_csw as f64 / requests_served,
        "count",
    );
    let batch_mean = snap
        .histogram("pool_batch_requests")
        .map_or(1.0, |h| h.mean());
    l.put("pool.batch_mean", batch_mean, "count");
    l.put(
        "pool.jobs_per_req",
        counter_family(&snap, "pool_worker_jobs_total") as f64 / requests_served,
        "count",
    );
    l.put(
        "pool.latency_us_mean",
        snap.histogram("serve_request_latency_us")
            .map_or(0.0, |h| h.mean()),
        "us",
    );
    l.put(
        "store.stats_per_req",
        snap.counter("store_generation_stats_total").unwrap_or(0) as f64 / requests_served,
        "count",
    );
    l.put(
        "obs.records_per_req",
        histogram_records(&snap) as f64 / requests_served,
        "count",
    );
    l.put(
        "proc.cpu_us_per_req",
        server_cpu_us / timed.answered.max(1) as f64,
        "us",
    );
    l.put("host.steal_share", witness.steal_share(), "share");
    out.witness = Some(witness);

    let mut tr = Tracer::new();
    let replay_registry = Arc::new(MetricsRegistry::new());
    let replay_store = open_store(dir, store_config(), &replay_registry, &ids);
    out.failed += request_replay(&mut tr, &replay_store, &requests, l);
    let replayed = l.get("store.resolve_ns") + l.get("engine.diagnose_ns");
    let batch = (batch_mean.round() as usize).max(1);
    let (worker_ns, _, hop_failed) = pool_hop(dir, store_config(), &ids, &requests, 1, batch);
    l.put("pool.hop_ns", worker_ns - replayed, "ns");
    out.failed += hop_failed;
    shard_replay(&mut tr, dir, store_config(), &ids, l);
    crate::offline::build_replay(&mut tr, &cuts, l);

    // Split the server's CPU per request by thread: the event loop runs
    // the frame codec and the response text, the pool worker resolves
    // and diagnoses; what the replay does not account for on each
    // thread is that thread's own layer (loop: syscalls, polling, wake
    // pipe, bookkeeping and metrics; pool: queue, wakes, reassembly).
    let answered = timed.answered.max(1) as f64;
    let per_req = |ns: f64| ns / answered;
    let loop_ns = per_req(loop_cpu_ns as f64)
        - (l.get("net.decode_ns") + l.get("net.encode_ns") + l.get("cli.format_ns"));
    let worker_ns = per_req(server_cpu_us * 1e3 - loop_cpu_ns as f64)
        - (l.get("store.resolve_ns") + l.get("engine.diagnose_ns"));
    l.put("net.loop_ns", loop_ns, "ns");
    l.put("pool.worker_self_ns", worker_ns, "ns");
    let mut layers = [
        (
            "net (event loop: syscalls, polling, wakes, metrics)",
            loop_ns,
        ),
        ("pool (worker: queue, wakes, reassembly)", worker_ns),
        (
            "net codec (decode + encode)",
            l.get("net.decode_ns") + l.get("net.encode_ns"),
        ),
        ("store (shard resolve)", l.get("store.resolve_ns")),
        ("index (segment query)", l.get("index.query_ns")),
        (
            "core (ranking, ambiguity, deviation)",
            l.get("core.rank_ns"),
        ),
        ("cli (response text)", l.get("cli.format_ns")),
    ];
    layers.sort_by(|a, b| b.1.total_cmp(&a.1));
    let server_ns = per_req(server_cpu_us * 1e3);
    out.report.push(format!(
        "fleet_tcp request: {server_ns:.0} ns of server CPU per answered request"
    ));
    for (name, ns) in &layers {
        out.report.push(format!(
            "  {name:<52} {ns:>8.0} ns  {:>5.1}%",
            100.0 * ns / server_ns
        ));
    }
    out.report.push(format!(
        "pool hop (submit -> drain beyond the replayed work, wall, batch {batch}): {:.0} ns per request",
        l.get("pool.hop_ns")
    ));
    out.report.push(format!(
        "most expensive layer of a fleet_tcp request: {}",
        layers[0].0
    ));
    out.tracer = Some(tr);
    out
}

/// One client thread, one connection, `DEPTH` requests in flight:
/// frames are encoded up front, responses decoded with the public frame
/// functions and compared with the oracle line. Between passes the
/// client lets the pipeline drain and runs `interlude` off the pass
/// clock.
fn tcp_phase(
    addr: SocketAddr,
    requests: &[Request],
    seconds: f64,
    interlude: &mut dyn FnMut(),
) -> Timed {
    let mut stream = TcpStream::connect(addr).expect("connect to the loopback server");
    stream.set_nodelay(true).expect("TCP_NODELAY");
    let mut timed = Timed::default();
    let mut clock = Passes::new(seconds, PASSES);
    let mut in_flight: VecDeque<(usize, Instant)> = VecDeque::with_capacity(DEPTH);
    let mut cursor = 0usize;
    let mut wbuf: Vec<u8> = Vec::with_capacity(DEPTH * 64);
    let mut rbuf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let mut sending = true;
    let mut pausing = false;
    loop {
        if sending && !pausing {
            let now = Instant::now();
            while in_flight.len() < DEPTH {
                wbuf.extend_from_slice(&requests[cursor].frame);
                in_flight.push_back((cursor, now));
                cursor = (cursor + 1) % requests.len();
                timed.attempted += 1;
            }
            stream.write_all(&wbuf).expect("loopback write");
            wbuf.clear();
        }
        if in_flight.is_empty() {
            if !pausing {
                break;
            }
            let t = Instant::now();
            interlude();
            clock.pause(t.elapsed());
            pausing = false;
            continue;
        }
        let n = stream.read(&mut chunk).expect("loopback read");
        if n == 0 {
            break; // server closed: missing responses count as failures
        }
        let now = Instant::now();
        rbuf.extend_from_slice(&chunk[..n]);
        let mut consumed = 0usize;
        let mut answered = 0u64;
        let measured = clock.pass_at(now).is_some_and(|p| p < PASSES);
        loop {
            match decode_frame(&rbuf[consumed..]) {
                Ok(None) => break,
                Ok(Some((kind, payload, used))) => {
                    consumed += used;
                    let (idx, sent) = in_flight.pop_front().expect("a response answers a request");
                    let r = &requests[idx];
                    match decode_response(payload) {
                        Ok((is_error, line)) if kind == FRAME_RESPONSE => {
                            timed.check(r, &line, is_error)
                        }
                        _ => {
                            timed.answered += 1;
                            timed.failed += 1;
                        }
                    }
                    if measured {
                        timed
                            .latency
                            .record_n(now.duration_since(sent).as_nanos() as u64, 1);
                    }
                    answered += 1;
                }
                Err(_) => {
                    // A corrupt stream cannot be resynchronised; what is
                    // still in flight counts as missing.
                    timed.failed += 1;
                    in_flight.clear();
                    sending = false;
                    break;
                }
            }
        }
        rbuf.drain(..consumed);
        let closed = clock.record(&mut timed, now, answered);
        if sending && clock.done(now) {
            sending = false;
        } else if closed {
            pausing = true;
        }
    }
    timed
}
