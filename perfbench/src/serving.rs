//! Shard building, store set-up, the in-process pooled serving phase,
//! and the traced replays shared by the workloads.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ft_core::TestVector;
use ft_serve::net::{decode_frame, decode_request, encode_response};
use ft_serve::{
    response_line, BankStore, MappedBank, MetricsRegistry, SegmentIndex, ServeHandle, Snapshot,
    StoreConfig, TrajectoryBank,
};

use crate::inputs::{save_bank, Cut, Request};
use crate::trace::Tracer;
use crate::util::{median, secs, LatencyHistogram, Metrics};

/// Builds every CUT's bank at its test vector, encodes it as v3 and
/// saves it under `dir` — the offline job whose output a fleet serves.
pub fn build_shards(cuts: &[(Cut, TestVector)], dir: &Path) -> Vec<(String, TrajectoryBank)> {
    cuts.iter()
        .map(|(cut, tv)| {
            let bank = TrajectoryBank::build(cut.dictionary(), tv);
            save_bank(dir, &cut.id, &bank).expect("shard directory is writable");
            (cut.id.clone(), bank)
        })
        .collect()
}

/// Opens a store over `dir` and first-touches every shard: the set-up a
/// server pays before it answers at full speed.
pub fn open_store(
    dir: &Path,
    config: StoreConfig,
    registry: &Arc<MetricsRegistry>,
    ids: &[String],
) -> Arc<BankStore> {
    let store = BankStore::open_with(dir, config)
        .expect("shard directory exists")
        .with_metrics(registry);
    for id in ids {
        store.engine(id).expect("every built shard loads");
    }
    Arc::new(store)
}

/// Latency samples and pass rates of one timed serving phase.
#[derive(Debug, Default)]
pub struct Timed {
    /// Requests answered per second, one entry per measured pass.
    pub pass_rps: Vec<f64>,
    /// Per-request latency of the measured passes.
    pub latency: LatencyHistogram,
    pub attempted: u64,
    pub failed: u64,
    pub answered: u64,
    pub hits: u64,
}

impl Timed {
    /// Median pass rate: wall-clock, so it moves with host steal.
    pub fn throughput(&self) -> f64 {
        median(&self.pass_rps)
    }

    pub fn p50_us(&self) -> f64 {
        self.latency.quantile(0.5) / 1e3
    }

    pub fn accuracy(&self) -> f64 {
        self.hits as f64 / self.answered.max(1) as f64
    }

    /// Checks one answered request against its oracle line.
    pub fn check(&mut self, r: &Request, line: &str, is_error: bool) {
        self.answered += 1;
        if is_error || line != r.expected {
            self.failed += 1;
        }
        if r.verdict_hit(line) {
            self.hits += 1;
        }
    }

    /// Median, p99 and p99.9 latency with the samples behind each.
    pub fn latency_report(&self, what: &str) -> String {
        let n = self.latency.len();
        let us = |q: f64| self.latency.quantile(q) / 1e3;
        format!(
            "{what}: p50 {:.1} us, p99 {:.1} us ({} samples beyond), p99.9 {:.1} us ({} beyond), n = {n}; \
             wall-clock throughput {:.0} req/s (median of {} passes, not gated: it moves with host steal)",
            us(0.5),
            us(0.99),
            n / 100,
            us(0.999),
            n / 1000,
            self.throughput(),
            self.pass_rps.len(),
        )
    }
}

/// Pass clock: a warm-up, then `passes` equal measured windows.
#[derive(Debug)]
pub struct Passes {
    start: Instant,
    warmup: Duration,
    pass: Duration,
    passes: usize,
    /// The measured pass being counted, and its answers so far.
    current: usize,
    count_in_pass: u64,
}

impl Passes {
    pub fn new(seconds: f64, passes: usize) -> Passes {
        Passes {
            start: Instant::now(),
            warmup: Duration::from_secs_f64(seconds * 0.1),
            pass: Duration::from_secs_f64(seconds / passes as f64),
            passes,
            current: 0,
            count_in_pass: 0,
        }
    }

    /// Index of the measured pass `now` falls in: `None` during warm-up,
    /// `Some(passes)` once the measured window is over.
    pub fn pass_at(&self, now: Instant) -> Option<usize> {
        let t = now.saturating_duration_since(self.start);
        if t < self.warmup {
            return None;
        }
        Some(
            (((t - self.warmup).as_secs_f64() / self.pass.as_secs_f64()) as usize).min(self.passes),
        )
    }

    pub fn done(&self, now: Instant) -> bool {
        self.pass_at(now) == Some(self.passes)
    }

    /// Shifts every window still to come by `d`, so a pause between
    /// passes (a set-up round) counts in no pass.
    pub fn pause(&mut self, d: Duration) {
        self.start += d;
    }

    /// Records `n` answers completed at `now`, closing passes whose
    /// window ended into `timed`. Returns whether a pass closed while
    /// more are to come: the moment for a set-up round.
    pub fn record(&mut self, timed: &mut Timed, now: Instant, n: u64) -> bool {
        let Some(p) = self.pass_at(now) else {
            return false;
        };
        let closed = self.current < p;
        while self.current < p {
            timed
                .pass_rps
                .push(self.count_in_pass as f64 / self.pass.as_secs_f64());
            self.count_in_pass = 0;
            self.current += 1;
        }
        if p < self.passes {
            self.count_in_pass += n;
        }
        closed && p < self.passes
    }
}

/// `ftd serve`'s stdin pipeline, in process: batches of `batch`
/// requests through `handle`, at most two in flight, every result
/// rendered by `response_line` and compared with its oracle line.
/// Runs a warm-up and then `passes` measured windows over `seconds`.
/// Between passes it drains what is in flight and runs `interlude`
/// off the pass clock.
pub fn pool_phase(
    handle: &mut ServeHandle,
    requests: &[Request],
    batch: usize,
    seconds: f64,
    passes: usize,
    interlude: &mut dyn FnMut(),
) -> Timed {
    let mut timed = Timed::default();
    let mut clock = Passes::new(seconds, passes);
    let mut in_flight: VecDeque<(usize, Instant, bool)> = VecDeque::new();
    let mut cursor = 0usize;
    let drain = |timed: &mut Timed,
                 in_flight: &mut VecDeque<(usize, Instant, bool)>,
                 handle: &mut ServeHandle,
                 clock: &mut Passes|
     -> bool {
        let results = handle.drain_one().expect("a batch is in flight");
        let now = Instant::now();
        let (start, submitted, measured) = in_flight.pop_front().expect("batch bookkeeping");
        for (k, result) in results.iter().enumerate() {
            let r = &requests[(start + k) % requests.len()];
            timed.check(
                r,
                &response_line(&r.request.cut_id, result),
                result.is_err(),
            );
        }
        if measured && clock.pass_at(now).is_some_and(|p| p < clock.passes) {
            let ns = now.duration_since(submitted).as_nanos() as u64;
            timed.latency.record_n(ns, results.len() as u64);
        }
        clock.record(timed, now, results.len() as u64)
    };
    let mut pause = false;
    loop {
        let now = Instant::now();
        if clock.done(now) {
            break;
        }
        if pause {
            while !in_flight.is_empty() {
                drain(&mut timed, &mut in_flight, handle, &mut clock);
            }
            let t = Instant::now();
            interlude();
            clock.pause(t.elapsed());
            pause = false;
            continue;
        }
        let chunk: Vec<_> = (0..batch)
            .map(|k| requests[(cursor + k) % requests.len()].request.clone())
            .collect();
        let measured = clock.pass_at(now).is_some();
        handle.submit(chunk);
        timed.attempted += batch as u64;
        in_flight.push_back((cursor, Instant::now(), measured));
        cursor = (cursor + batch) % requests.len();
        while in_flight.len() > 2 {
            pause |= drain(&mut timed, &mut in_flight, handle, &mut clock);
        }
    }
    while !in_flight.is_empty() {
        drain(&mut timed, &mut in_flight, handle, &mut clock);
    }
    timed
}

// ---------------------------------------------------------------------
// Traced replays
// ---------------------------------------------------------------------

/// Replays every request on one thread through the public layer calls
/// a served request crosses, one span per call, and checks each line.
/// `SegmentIndex::query_stats` runs beside `diagnose` so index time can
/// be told apart from ranking. Returns nodes and segments visited.
fn replay_traced(tr: &mut Tracer, store: &BankStore, requests: &[Request]) -> (u64, u64, u64) {
    let (mut nodes, mut segments, mut failed) = (0u64, 0u64, 0u64);
    for (i, r) in requests.iter().enumerate() {
        let id = i as u64;
        tr.span("request", id, |tr| {
            let request = tr.span("net.decode", id, |_| {
                let (_, payload, _) = decode_frame(&r.frame)
                    .expect("valid frame")
                    .expect("whole frame");
                decode_request(payload).expect("valid request")
            });
            let engine = tr.span("store.resolve", id, |_| {
                store.engine(&request.cut_id).expect("shard")
            });
            let diagnosis = tr.span("engine.diagnose", id, |_| {
                engine.diagnose(&request.signature)
            });
            let (_, stats) = tr.span("index.query", id, |_| {
                engine.index().query_stats(&request.signature)
            });
            nodes += stats.nodes_visited as u64;
            segments += stats.segments_examined as u64;
            let line = tr.span("cli.format", id, |_| {
                response_line(&request.cut_id, &Ok(diagnosis))
            });
            let frame = tr.span("net.encode", id, |_| encode_response(&line, false));
            failed += u64::from(line != r.expected || frame.is_empty());
        });
    }
    (nodes, segments, failed)
}

/// The same replay with no spans, for the tracing-overhead figure.
fn replay_plain(store: &BankStore, requests: &[Request]) -> u64 {
    let mut failed = 0u64;
    for r in requests {
        let (_, payload, _) = decode_frame(&r.frame)
            .expect("valid frame")
            .expect("whole frame");
        let request = decode_request(payload).expect("valid request");
        let engine = store.engine(&request.cut_id).expect("shard");
        let diagnosis = engine.diagnose(&request.signature);
        let (_, stats) = engine.index().query_stats(&request.signature);
        std::hint::black_box(stats);
        let line = response_line(&request.cut_id, &Ok(diagnosis));
        let frame = encode_response(&line, false);
        failed += u64::from(line != r.expected || frame.is_empty());
    }
    failed
}

/// Runs the serving replay untraced and traced, alternately, three
/// times each, and fills the per-request layer metrics (means over all
/// traced passes); returns the replay's failure count.
pub fn request_replay(
    tr: &mut Tracer,
    store: &BankStore,
    requests: &[Request],
    m: &mut Metrics,
) -> u64 {
    const PASSES: usize = 3;
    let (mut plain, mut traced) = (0.0, 0.0);
    let (mut nodes, mut segments, mut failed) = (0u64, 0u64, 0u64);
    for _ in 0..PASSES {
        let t = Instant::now();
        failed += replay_plain(store, requests);
        plain += secs(t);
        let t = Instant::now();
        let (n, s, f) = replay_traced(tr, store, requests);
        traced += secs(t);
        (nodes, segments, failed) = (nodes + n, segments + s, failed + f);
    }

    let totals = tr.totals();
    let mean = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_ns());
    let n = (requests.len() * PASSES) as f64;
    m.put("net.decode_ns", mean("net.decode"), "ns");
    m.put("net.encode_ns", mean("net.encode"), "ns");
    m.put("store.resolve_ns", mean("store.resolve"), "ns");
    m.put("engine.diagnose_ns", mean("engine.diagnose"), "ns");
    m.put("index.query_ns", mean("index.query"), "ns");
    m.put(
        "core.rank_ns",
        (mean("engine.diagnose") - mean("index.query")).max(0.0),
        "ns",
    );
    m.put("cli.format_ns", mean("cli.format"), "ns");
    m.put("index.nodes_per_query", nodes as f64 / n, "count");
    m.put("index.segments_per_query", segments as f64 / n, "count");
    m.put("trace.overhead_share", traced / plain - 1.0, "share");
    failed
}

/// Times `ServeHandle` submit → drain at `batch` requests, one batch in
/// flight, over a fresh instrumented store. Returns the worker time per
/// request (wall time × workers ÷ requests, ns) — the pool hop is what
/// it exceeds the replayed store and engine work by — the registry
/// growth for the pool and store counters, and the failure count.
pub fn pool_hop(
    dir: &Path,
    config: StoreConfig,
    ids: &[String],
    requests: &[Request],
    workers: usize,
    batch: usize,
) -> (f64, Snapshot, u64) {
    let registry = Arc::new(MetricsRegistry::new());
    let store = open_store(dir, config, &registry, ids);
    let mut handle = ServeHandle::with_metrics(store, workers, &registry);
    let before = registry.snapshot();
    let (mut wall, mut served, mut failed) = (0.0f64, 0u64, 0u64);
    for chunk in requests.chunks(batch) {
        let reqs = chunk.iter().map(|r| r.request.clone()).collect();
        let t = Instant::now();
        handle.submit(reqs);
        let results = handle.drain_one().expect("submitted batch drains");
        wall += secs(t);
        served += results.len() as u64;
        for (r, result) in chunk.iter().zip(&results) {
            failed += u64::from(response_line(&r.request.cut_id, result) != r.expected);
        }
    }
    let worker_ns = wall * 1e9 * workers as f64 / served as f64;
    (worker_ns, delta(&before, &registry.snapshot()), failed)
}

/// Opens every shard file through the mapped path step by step —
/// open, checksum, deep validation, index build — and times each per
/// shard, plus a whole first-touch load through a fresh store.
pub fn shard_replay(
    tr: &mut Tracer,
    dir: &Path,
    config: StoreConfig,
    ids: &[String],
    m: &mut Metrics,
) {
    let mut bytes = 0u64;
    for (i, id) in ids.iter().enumerate() {
        let path = dir.join(format!("{id}.ftb"));
        bytes += std::fs::metadata(&path).map_or(0, |md| md.len());
        let (mapped, set) = tr.span("bank.open", i as u64, |_| {
            MappedBank::open(&path).expect("saved shard opens")
        });
        tr.span("bank.verify", i as u64, |_| {
            mapped.verify_trajectory_payload().expect("checksum holds")
        });
        tr.span("core.validate", i as u64, |_| {
            set.validate_deep().expect("valid trajectories")
        });
        let index = tr.span("index.build", i as u64, |_| SegmentIndex::build(&set));
        std::hint::black_box(index);
    }
    let store = BankStore::open_with(dir, config).expect("shard directory exists");
    for (i, id) in ids.iter().enumerate() {
        tr.span("store.load", i as u64, |_| {
            store.engine(id).expect("shard loads")
        });
    }
    let totals = tr.totals();
    let mean_us = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_ns() / 1e3);
    m.put("bank.open_us", mean_us("bank.open"), "us");
    m.put("bank.verify_us", mean_us("bank.verify"), "us");
    m.put("core.validate_us", mean_us("core.validate"), "us");
    m.put("index.build_us", mean_us("index.build"), "us");
    m.put("store.load_us", mean_us("store.load"), "us");
    m.put("bank.bytes", bytes as f64 / ids.len() as f64, "bytes");
}

/// Counter and histogram growth between two snapshots of one registry.
pub fn delta(before: &Snapshot, after: &Snapshot) -> Snapshot {
    let mut out = after.clone();
    for (name, v) in &mut out.counters {
        *v -= before.counter(name).unwrap_or(0);
    }
    for (name, h) in &mut out.histograms {
        if let Some(b) = before.histogram(name) {
            h.count -= b.count;
            h.sum -= b.sum;
            for (x, y) in h.buckets.iter_mut().zip(&b.buckets) {
                *x -= y;
            }
        }
    }
    out
}

/// Sum of every counter whose name starts with `prefix` (labeled
/// families such as `pool_worker_jobs_total{worker="0"}`).
pub fn counter_family(s: &Snapshot, prefix: &str) -> u64 {
    s.counters
        .iter()
        .filter(|(n, _)| n.starts_with(prefix))
        .map(|(_, v)| v)
        .sum()
}

/// Histogram samples recorded across the whole registry.
pub fn histogram_records(s: &Snapshot) -> u64 {
    s.histograms.iter().map(|(_, h)| h.count).sum()
}
