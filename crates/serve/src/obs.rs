//! Serving-stack observability: lock-free counters, gauges, log₂-bucket
//! latency histograms, RAII span timers, and snapshot export as the
//! Prometheus text exposition — the one rendering every stats sink
//! prints.
//!
//! Everything is hand-rolled over `std::sync::atomic` (the vendored
//! environment has no metrics crates) and designed around two hard
//! requirements of the serving stack:
//!
//! * **Provably inert.** A [`MetricsRegistry::noop`] registry hands out
//!   fresh unregistered handles with the same call-site cost as live
//!   ones, and the instrumented layers gate every `Instant::now` behind
//!   an `Option<…Metrics>` that is `None` unless metrics were requested
//!   — so diagnosis output is byte-identical with metrics on or off
//!   (asserted by `tests/obs.rs` and the CI `cmp`).
//! * **Lock-free hot path.** Recording is a relaxed atomic add; the
//!   registry's `Mutex` is touched only at handle registration and
//!   snapshot time, never per request.
//!
//! Histograms bucket microsecond values by log₂: bucket 0 holds the
//! value 0, bucket *i* ≥ 1 holds `[2^(i−1), 2^i)`. Quantiles are read
//! back from the bucket counts by rank walk with linear interpolation
//! inside the bucket, so a reported p99 is always bounded by the edges
//! of the bucket containing the true p99 — exact to bucket resolution.
//!
//! The per-layer handle bundles (`EngineMetrics`, `StoreMetrics`,
//! `PoolMetrics`) pre-resolve every hot-path handle once at
//! attachment, so instrumented code never touches the registry map.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::store::FileGen;

/// Number of histogram buckets: one for the value 0 plus one per power
/// of two up to `u64::MAX`.
pub(crate) const HISTOGRAM_BUCKETS: usize = 65;

/// The bucket index `value` lands in: 0 for the value 0, otherwise
/// `⌊log₂ value⌋ + 1`, so bucket *i* ≥ 1 covers `[2^(i−1), 2^i)`.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros()) as usize
    }
}

/// Inclusive `(lower, upper)` value bounds of bucket `index`.
///
/// # Panics
///
/// If `index >= HISTOGRAM_BUCKETS`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < HISTOGRAM_BUCKETS, "bucket index out of range");
    match index {
        0 => (0, 0),
        64 => (1 << 63, u64::MAX),
        i => (1 << (i - 1), (1 << i) - 1),
    }
}

/// Locks `mutex`, recovering the guard rather than propagating
/// poisoning. Only for locks whose every update leaves the guarded state
/// valid: a panic while holding a registry lock leaves plain numeric
/// state, the pool's locks guard no code that can panic, and the store's
/// shard map changes only by whole slots.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A monotonically increasing `u64` metric. All operations are relaxed
/// atomics — safe and lock-free from any thread.
#[derive(Debug, Default)]
pub(crate) struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    pub(crate) fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub(crate) fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value — for mirroring a total maintained
    /// elsewhere (e.g. `ft_core`'s scratch-pool statistics) into a
    /// registry at snapshot time.
    pub(crate) fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depth, resident bytes). All
/// operations are relaxed atomics.
#[derive(Debug, Default)]
pub(crate) struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrites the value.
    pub(crate) fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub(crate) fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub(crate) fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub(crate) fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log₂ histogram of `u64` samples (microseconds, batch
/// sizes, …). Recording touches exactly two relaxed atomics; reading is
/// a [`Histogram::snapshot`] whose `count` is derived from one pass
/// over the bucket counts, so `count == Σ buckets` holds even while
/// writers race the snapshot.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` samples of the same `value` (one batch, `n`
    /// requests) with a single pair of atomic adds.
    pub(crate) fn record_n(&self, value: u64, n: u64) {
        self.buckets[bucket_index(value)].fetch_add(n, Ordering::Relaxed);
        self.sum
            .fetch_add(value.saturating_mul(n), Ordering::Relaxed);
    }

    /// Records a duration in whole microseconds (saturating).
    pub(crate) fn record_duration(&self, elapsed: Duration) {
        self.record(elapsed.as_micros().min(u64::MAX as u128) as u64);
    }

    /// A point-in-time copy of the bucket counts and running sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        // `sum` is read after the buckets, so under concurrent writes it
        // is an estimate for the mean only; `count` is exact w.r.t. the
        // buckets read above.
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time histogram state, with quantiles and the mean read
/// back from the bucket counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts, `HISTOGRAM_BUCKETS` entries.
    pub buckets: Vec<u64>,
    /// Total samples (always `Σ buckets`).
    pub count: u64,
    /// Sum of all recorded values (saturating).
    pub sum: u64,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`q` in `[0, 1]`), estimated by rank walk over
    /// the bucket counts with linear interpolation inside the bucket.
    /// The result is always within the inclusive bounds of the bucket
    /// containing the rank; returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if cumulative + n >= rank {
                let (lower, upper) = bucket_bounds(index);
                if index == 0 {
                    return 0.0;
                }
                let within = (rank - cumulative) as f64 / n as f64;
                let (lower, upper) = (lower as f64, upper as f64);
                return (lower + (upper - lower) * within).clamp(lower, upper);
            }
            cumulative += n;
        }
        bucket_bounds(HISTOGRAM_BUCKETS - 1).1 as f64
    }

    /// Mean of all recorded values; 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// RAII timing guard: records the elapsed time into its histogram (as
/// whole microseconds) when dropped.
#[derive(Debug)]
pub(crate) struct SpanTimer {
    histogram: Arc<Histogram>,
    start: Instant,
}

impl SpanTimer {
    /// Starts a span that will record into `histogram` on drop.
    pub(crate) fn start(histogram: Arc<Histogram>) -> SpanTimer {
        SpanTimer {
            histogram,
            start: Instant::now(),
        }
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        self.histogram.record_duration(self.start.elapsed());
    }
}

/// Renders `name{k="v",…}` — the registry key and Prometheus sample
/// name for a labeled metric. Label values are escaped per the text
/// exposition format (`\\`, `\"`, `\n`).
pub(crate) fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    let mut out = String::from(name);
    out.push('{');
    for (i, (key, value)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(key);
        out.push_str("=\"");
        for ch in value.chars() {
            match ch {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// A named collection of `Counter`s, `Gauge`s, and [`Histogram`]s.
///
/// Handles are `Arc`s resolved once (get-or-register under a mutex) and
/// then updated lock-free. A [`MetricsRegistry::noop`] registry never
/// registers anything: its getters hand back fresh detached handles, so
/// instrumented code runs identically but every snapshot stays empty.
#[derive(Debug)]
pub struct MetricsRegistry {
    enabled: bool,
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    fn with_enabled(enabled: bool) -> MetricsRegistry {
        MetricsRegistry {
            enabled,
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// A live registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::with_enabled(true)
    }

    /// A disabled registry: same API, but handles are never registered
    /// and snapshots are always empty.
    pub fn noop() -> MetricsRegistry {
        MetricsRegistry::with_enabled(false)
    }

    /// `false` for a [`MetricsRegistry::noop`] registry.
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The counter registered under `name`, registering it if new.
    pub(crate) fn counter(&self, name: &str) -> Arc<Counter> {
        if !self.enabled {
            return Arc::new(Counter::default());
        }
        Arc::clone(lock(&self.counters).entry(name.to_string()).or_default())
    }

    /// The gauge registered under `name`, registering it if new.
    pub(crate) fn gauge(&self, name: &str) -> Arc<Gauge> {
        if !self.enabled {
            return Arc::new(Gauge::default());
        }
        Arc::clone(lock(&self.gauges).entry(name.to_string()).or_default())
    }

    /// The histogram registered under `name`, registering it if new.
    pub(crate) fn histogram(&self, name: &str) -> Arc<Histogram> {
        if !self.enabled {
            return Arc::new(Histogram::default());
        }
        Arc::clone(lock(&self.histograms).entry(name.to_string()).or_default())
    }

    /// A point-in-time snapshot of every registered metric, sorted by
    /// name. Process-global totals maintained outside the registry
    /// (`ft_core`'s interpolation scratch pool) are mirrored in first,
    /// so they appear as ordinary counters.
    pub fn snapshot(&self) -> Snapshot {
        if self.enabled {
            let (hits, allocs) = ft_core::scratch_pool_stats();
            self.counter("core_interp_pool_hits_total").set(hits);
            self.counter("core_interp_pool_allocs_total").set(allocs);
        }
        Snapshot {
            counters: lock(&self.counters)
                .iter()
                .map(|(name, c)| (name.clone(), c.get()))
                .collect(),
            gauges: lock(&self.gauges)
                .iter()
                .map(|(name, g)| (name.clone(), g.get()))
                .collect(),
            histograms: lock(&self.histograms)
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time export of a registry. [`Snapshot::to_prometheus`]
/// renders it for every stats sink: the `--stats-file` file, a `!stats`
/// line and the TCP stats frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, state)` for every histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// The value of counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The value of gauge `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The state of histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Renders the Prometheus text exposition format: `# TYPE` lines
    /// per metric family, histograms as cumulative `_bucket{le="…"}`
    /// series (inclusive upper edges in microseconds, then `+Inf`) plus
    /// `_sum`/`_count`. Nothing derived is exported: a consumer computes
    /// rates across scrapes and ratios (such as the shard cache hit
    /// rate) from the counters.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        for (name, value) in &self.counters {
            let family = name.split('{').next().unwrap_or(name);
            if family != last_family {
                out.push_str(&format!("# TYPE {family} counter\n"));
                last_family = family.to_string();
            }
            out.push_str(&format!("{name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        }
        for (name, hist) in &self.histograms {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (index, &n) in hist.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                cumulative += n;
                out.push_str(&format!(
                    "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                    bucket_bounds(index).1
                ));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", hist.count));
            out.push_str(&format!("{name}_sum {}\n", hist.sum));
            out.push_str(&format!("{name}_count {}\n", hist.count));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Per-layer handle bundles: every hot-path handle resolved once at
// attachment, so instrumented code never touches the registry map.
// ---------------------------------------------------------------------

/// Pre-resolved handles for [`crate::DiagnosisEngine`] instrumentation.
#[derive(Debug, Clone)]
pub(crate) struct EngineMetrics {
    /// `engine_diagnose_latency_us` — per-diagnose wall time.
    pub diagnose_latency: Arc<Histogram>,
    /// `engine_diagnose_indexed_total` — diagnoses through the index.
    pub indexed: Arc<Counter>,
    /// `engine_diagnose_linear_total` — diagnoses through the linear scan.
    pub linear: Arc<Counter>,
    /// `engine_index_nodes_visited_total` — index tree nodes whose
    /// bounding box was tested, summed over every indexed query.
    pub index_nodes_visited: Arc<Counter>,
    /// `engine_index_segments_examined_total` — segments whose exact
    /// distance was computed; the gap to segments-held is the index win.
    pub index_segments_examined: Arc<Counter>,
    /// `engine_topk_early_exit_total` — top-k queries that stopped
    /// before settling the full ranking.
    pub topk_early_exits: Arc<Counter>,
}

impl EngineMetrics {
    /// Resolves the engine's handles from `registry`.
    pub(crate) fn from_registry(registry: &MetricsRegistry) -> EngineMetrics {
        EngineMetrics {
            diagnose_latency: registry.histogram("engine_diagnose_latency_us"),
            indexed: registry.counter("engine_diagnose_indexed_total"),
            linear: registry.counter("engine_diagnose_linear_total"),
            index_nodes_visited: registry.counter("engine_index_nodes_visited_total"),
            index_segments_examined: registry.counter("engine_index_segments_examined_total"),
            topk_early_exits: registry.counter("engine_topk_early_exit_total"),
        }
    }
}

/// Pre-resolved handles for [`crate::BankStore`] instrumentation.
#[derive(Debug, Clone)]
pub(crate) struct StoreMetrics {
    registry: Arc<MetricsRegistry>,
    /// `store_shard_cache_hits_total` — requests answered by a cached
    /// shard whose generation still matched.
    pub cache_hits: Arc<Counter>,
    /// `store_shard_cache_misses_total` — requests that had to load.
    pub cache_misses: Arc<Counter>,
    /// `store_shard_loads_total` — shard load attempts (decode or map).
    pub loads: Arc<Counter>,
    /// `store_shard_load_us` — wall time of each load attempt.
    pub load_latency: Arc<Histogram>,
    /// `store_shard_load_failures_total` — failed load attempts (also
    /// counted per shard via labeled counters).
    pub load_failures: Arc<Counter>,
    /// `store_shard_evictions_total` — shards evicted over budget.
    pub evictions: Arc<Counter>,
    /// `store_hot_reloads_total` — healthy shards swapped for a newer
    /// file generation.
    pub hot_reloads: Arc<Counter>,
    /// `store_generation_stats_total` — `stat(2)` probes of a resident
    /// shard's generation, by a request or by a refresh sweep. A miss
    /// stats its shard path once, so a directory-backed store's
    /// `stat(2)` calls on shard paths equal this counter plus
    /// `store_shard_cache_misses_total` (a load's `fstat` of the file it
    /// opened is the bank reader's, not counted).
    pub file_stats: Arc<Counter>,
    /// `store_resident_bytes` — bytes currently accounted against the
    /// budget.
    pub resident_bytes: Arc<Gauge>,
    /// `store_mem_budget_bytes` — the configured budget (0 = unbounded).
    pub mem_budget_bytes: Arc<Gauge>,
    /// Handles forwarded into every engine the store loads.
    pub engine: EngineMetrics,
}

impl StoreMetrics {
    /// Resolves the store's handles from `registry` (kept, for the
    /// labeled per-shard failure counters).
    pub(crate) fn from_registry(registry: &Arc<MetricsRegistry>) -> StoreMetrics {
        StoreMetrics {
            cache_hits: registry.counter("store_shard_cache_hits_total"),
            cache_misses: registry.counter("store_shard_cache_misses_total"),
            loads: registry.counter("store_shard_loads_total"),
            load_latency: registry.histogram("store_shard_load_us"),
            load_failures: registry.counter("store_shard_load_failures_total"),
            evictions: registry.counter("store_shard_evictions_total"),
            hot_reloads: registry.counter("store_hot_reloads_total"),
            file_stats: registry.counter("store_generation_stats_total"),
            resident_bytes: registry.gauge("store_resident_bytes"),
            mem_budget_bytes: registry.gauge("store_mem_budget_bytes"),
            engine: EngineMetrics::from_registry(registry),
            registry: Arc::clone(registry),
        }
    }

    /// Counts a shard-load failure, attributed to the failing shard
    /// path and the file generation the failure was observed at — the
    /// same attribution style as [`crate::CodecError::InFile`].
    pub(crate) fn record_load_failure(&self, path: &Path, generation: Option<FileGen>) {
        self.load_failures.inc();
        let generation = generation.map_or_else(|| "unknown".to_string(), |g| g.to_string());
        self.registry
            .counter(&labeled(
                "store_shard_load_failures_total",
                &[
                    ("shard", &path.display().to_string()),
                    ("generation", &generation),
                ],
            ))
            .inc();
    }
}

/// Pre-resolved handles for [`crate::ServeHandle`] instrumentation.
#[derive(Debug, Clone)]
pub(crate) struct PoolMetrics {
    registry: Arc<MetricsRegistry>,
    /// `pool_queue_depth` — batch runs submitted and not yet claimed.
    pub queue_depth: Arc<Gauge>,
    /// `pool_batch_requests` — requests per submitted batch.
    pub batch_sizes: Arc<Histogram>,
    /// `serve_request_latency_us` — submit-to-drain wall time, recorded
    /// once per request when its batch completes.
    pub request_latency: Arc<Histogram>,
    /// `serve_requests_total` — requests drained.
    pub requests: Arc<Counter>,
    /// `serve_errors_total` — drained requests that carried an error.
    pub errors: Arc<Counter>,
}

impl PoolMetrics {
    /// Resolves the pool's handles from `registry` (kept, for the
    /// labeled per-worker job counters).
    pub(crate) fn from_registry(registry: &Arc<MetricsRegistry>) -> PoolMetrics {
        PoolMetrics {
            queue_depth: registry.gauge("pool_queue_depth"),
            batch_sizes: registry.histogram("pool_batch_requests"),
            request_latency: registry.histogram("serve_request_latency_us"),
            requests: registry.counter("serve_requests_total"),
            errors: registry.counter("serve_errors_total"),
            registry: Arc::clone(registry),
        }
    }

    /// The `pool_worker_jobs_total{worker="…"}` counter for one worker.
    pub(crate) fn worker_jobs(&self, worker: usize) -> Arc<Counter> {
        self.registry.counter(&labeled(
            "pool_worker_jobs_total",
            &[("worker", &worker.to_string())],
        ))
    }
}

/// Upper bound on distinct `peer` label values in the labeled
/// `net_protocol_errors_total{peer,kind}` counters. Peers are labeled
/// by IP only (never the ephemeral port), and once this many distinct
/// addresses have been seen, further ones collapse into
/// `peer="other"` — a hostile client cycling source addresses cannot
/// grow the registry (or the stats exposition) without bound.
pub(crate) const MAX_PEER_LABELS: usize = 64;

/// Pre-resolved handles for the [`crate::NetServer`] TCP tier.
#[derive(Debug, Clone)]
pub(crate) struct NetMetrics {
    registry: Arc<MetricsRegistry>,
    /// Distinct peer IPs already used as label values, shared across
    /// clones so the [`MAX_PEER_LABELS`] cap is global.
    peer_labels: Arc<Mutex<BTreeSet<String>>>,
    /// `net_active_connections` — connections currently registered with
    /// the event loop.
    pub active_connections: Arc<Gauge>,
    /// `net_connections_accepted_total` — connections accepted.
    pub accepted: Arc<Counter>,
    /// `net_connections_closed_total` — connections torn down (clean or
    /// not).
    pub closed: Arc<Counter>,
    /// `net_requests_total` — request frames decoded off the wire.
    pub requests: Arc<Counter>,
    /// `net_request_wire_us` — frame-decoded to response-flushed wall
    /// time, per request. Distinct from the pool's end-to-end
    /// `serve_request_latency_us`: this one includes in-order response
    /// queueing on the connection but not kernel transmit time.
    pub wire_latency: Arc<Histogram>,
    /// `net_bytes_in_total` — bytes read off accepted sockets.
    pub bytes_in: Arc<Counter>,
    /// `net_bytes_out_total` — bytes written to accepted sockets.
    pub bytes_out: Arc<Counter>,
    /// `net_backpressure_stalls_total` — transitions into the stalled
    /// state (read interest dropped because the in-flight budget or the
    /// write-buffer high-water mark was hit).
    pub backpressure_stalls: Arc<Counter>,
    /// `net_protocol_errors_total` — malformed / oversized /
    /// checksum-failed frames (also counted per peer IP and kind via
    /// labeled counters, bounded by [`MAX_PEER_LABELS`]).
    pub protocol_errors: Arc<Counter>,
    /// `net_refresh_ticks_total` — periodic [`crate::BankStore::refresh`]
    /// sweeps driven off the event-loop timer.
    pub refresh_ticks: Arc<Counter>,
}

impl NetMetrics {
    /// Resolves the network tier's handles from `registry` (kept, for
    /// the labeled per-peer protocol-error counters).
    pub(crate) fn from_registry(registry: &Arc<MetricsRegistry>) -> NetMetrics {
        NetMetrics {
            active_connections: registry.gauge("net_active_connections"),
            accepted: registry.counter("net_connections_accepted_total"),
            closed: registry.counter("net_connections_closed_total"),
            requests: registry.counter("net_requests_total"),
            wire_latency: registry.histogram("net_request_wire_us"),
            bytes_in: registry.counter("net_bytes_in_total"),
            bytes_out: registry.counter("net_bytes_out_total"),
            backpressure_stalls: registry.counter("net_backpressure_stalls_total"),
            protocol_errors: registry.counter("net_protocol_errors_total"),
            refresh_ticks: registry.counter("net_refresh_ticks_total"),
            registry: Arc::clone(registry),
            peer_labels: Arc::new(Mutex::new(BTreeSet::new())),
        }
    }

    /// Counts a protocol error, attributed to the peer and the
    /// frame-error kind — the same attribution style as
    /// [`crate::CodecError::InFile`] on the storage side. The label
    /// value is the peer's IP, never its ephemeral port, and at most
    /// [`MAX_PEER_LABELS`] distinct IPs are ever registered (the rest
    /// share `peer="other"`), so misbehaving peers add bounded state no
    /// matter how many addresses they arrive from.
    pub(crate) fn record_protocol_error(&self, peer: &str, kind: &str) {
        self.protocol_errors.inc();
        // `rsplit_once` keeps bracketed IPv6 forms ("[::1]:80") whole.
        let ip = peer.rsplit_once(':').map_or(peer, |(ip, _)| ip);
        let ip = {
            let mut seen = lock(&self.peer_labels);
            if seen.contains(ip) || seen.len() < MAX_PEER_LABELS {
                seen.insert(ip.to_string());
                ip
            } else {
                "other"
            }
        };
        self.registry
            .counter(&labeled(
                "net_protocol_errors_total",
                &[("peer", ip), ("kind", kind)],
            ))
            .inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_matches_bounds() {
        for index in 0..HISTOGRAM_BUCKETS {
            let (lower, upper) = bucket_bounds(index);
            assert_eq!(bucket_index(lower), index);
            assert_eq!(bucket_index(upper), index);
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_count_and_quantiles() {
        let hist = Histogram::default();
        for v in [0u64, 1, 5, 5, 9, 100, 1000] {
            hist.record(v);
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count, 7);
        assert_eq!(snap.sum, 1120);
        assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
        // p50 rank 4 lands among the 5/5/9 values: bucket [4, 8).
        let p50 = snap.quantile(0.5);
        assert!((4.0..=7.0).contains(&p50), "p50 = {p50}");
        // p99 rank 7 is the 1000 sample: bucket [512, 1024).
        let p99 = snap.quantile(0.99);
        assert!((512.0..=1023.0).contains(&p99), "p99 = {p99}");
        assert_eq!(snap.quantile(0.0), 0.0);
    }

    #[test]
    fn protocol_error_peer_labels_are_bounded() {
        let registry = Arc::new(MetricsRegistry::new());
        let net = NetMetrics::from_registry(&registry);
        // Same IP across ephemeral ports collapses to one label.
        net.record_protocol_error("10.1.2.3:50001", "checksum");
        net.record_protocol_error("10.1.2.3:50002", "checksum");
        // Thousands of distinct source addresses...
        for i in 0..4096u32 {
            net.record_protocol_error(
                &format!("10.9.{}.{}:{}", i / 256, i % 256, 40000 + i),
                "oversized",
            );
        }
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("net_protocol_errors_total"), Some(4098));
        assert_eq!(
            snapshot.counter("net_protocol_errors_total{peer=\"10.1.2.3\",kind=\"checksum\"}"),
            Some(2),
            "ports must be stripped from the peer label"
        );
        // ...register at most MAX_PEER_LABELS distinct peer values plus
        // the shared overflow bucket.
        let labeled_variants = snapshot
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("net_protocol_errors_total{"))
            .count();
        assert!(
            labeled_variants <= MAX_PEER_LABELS + 1,
            "unbounded peer label cardinality: {labeled_variants} variants"
        );
        let overflow = snapshot
            .counter("net_protocol_errors_total{peer=\"other\",kind=\"oversized\"}")
            .expect("overflow peers share one label");
        assert!(overflow > 0);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let snap = Histogram::default().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.quantile(0.99), 0.0);
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn record_n_counts_every_sample() {
        let hist = Histogram::default();
        hist.record_n(16, 10);
        let snap = hist.snapshot();
        assert_eq!(snap.count, 10);
        assert_eq!(snap.sum, 160);
        assert_eq!(snap.buckets[bucket_index(16)], 10);
    }

    #[test]
    fn span_timer_records_on_drop() {
        let hist = Arc::new(Histogram::default());
        drop(SpanTimer::start(Arc::clone(&hist)));
        {
            let _span = SpanTimer::start(Arc::clone(&hist));
            assert_eq!(hist.snapshot().count, 1);
        }
        assert_eq!(hist.snapshot().count, 2);
    }

    #[test]
    fn noop_registry_registers_nothing() {
        let registry = MetricsRegistry::noop();
        registry.counter("a").inc();
        registry.gauge("b").set(7);
        registry.histogram("c").record(3);
        assert!(!registry.is_enabled());
        let snap = registry.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn live_registry_shares_handles_by_name() {
        let registry = MetricsRegistry::new();
        registry.counter("hits").inc();
        registry.counter("hits").add(2);
        assert_eq!(registry.counter("hits").get(), 3);
        registry.gauge("depth").add(5);
        registry.gauge("depth").sub(2);
        assert_eq!(registry.gauge("depth").get(), 3);
    }

    #[test]
    fn labeled_escapes_values() {
        assert_eq!(
            labeled("f", &[("shard", "a\"b\\c"), ("generation", "g")]),
            "f{shard=\"a\\\"b\\\\c\",generation=\"g\"}"
        );
    }

    #[test]
    fn prometheus_exposition_shape() {
        let registry = MetricsRegistry::new();
        registry.counter("serve_requests_total").add(3);
        registry.gauge("pool_queue_depth").set(1);
        let hist = registry.histogram("serve_request_latency_us");
        hist.record(3);
        hist.record(100);
        let text = registry.snapshot().to_prometheus();
        assert!(text.contains("# TYPE serve_requests_total counter\n"));
        assert!(text.contains("serve_requests_total 3\n"));
        assert!(text.contains("# TYPE pool_queue_depth gauge\n"));
        assert!(text.contains("# TYPE serve_request_latency_us histogram\n"));
        assert!(text.contains("serve_request_latency_us_bucket{le=\"3\"} 1\n"));
        assert!(text.contains("serve_request_latency_us_bucket{le=\"127\"} 2\n"));
        assert!(text.contains("serve_request_latency_us_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("serve_request_latency_us_count 2\n"));
    }
}
