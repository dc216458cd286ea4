//! Serving-stack observability: lock-free counters, gauges, log₂-bucket
//! latency histograms, RAII span timers, and snapshot export as JSON,
//! Prometheus text exposition, and greppable `name value` lines.
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
//! The per-layer handle bundles ([`EngineMetrics`], [`StoreMetrics`],
//! [`PoolMetrics`]) pre-resolve every hot-path handle once at
//! attachment, so instrumented code never touches the registry map.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::store::FileGen;

/// Number of histogram buckets: one for the value 0 plus one per power
/// of two up to `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

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

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panic while holding a registry lock leaves plain numeric state;
    // recover the guard rather than propagating poisoning.
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A monotonically increasing `u64` metric. All operations are relaxed
/// atomics — safe and lock-free from any thread.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value — for mirroring a total maintained
    /// elsewhere (e.g. `ft_core`'s scratch-pool statistics) into a
    /// registry at snapshot time.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depth, resident bytes). All
/// operations are relaxed atomics.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
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
    pub fn record_n(&self, value: u64, n: u64) {
        self.buckets[bucket_index(value)].fetch_add(n, Ordering::Relaxed);
        self.sum
            .fetch_add(value.saturating_mul(n), Ordering::Relaxed);
    }

    /// Records a duration in whole microseconds (saturating).
    pub fn record_duration(&self, elapsed: Duration) {
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

/// Point-in-time histogram state; quantiles and means are computed here
/// so a snapshot persisted as JSON reads back identically.
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
pub struct SpanTimer {
    histogram: Arc<Histogram>,
    start: Instant,
}

impl SpanTimer {
    /// Starts a span that will record into `histogram` on drop.
    pub fn start(histogram: Arc<Histogram>) -> SpanTimer {
        SpanTimer {
            histogram,
            start: Instant::now(),
        }
    }

    /// Time elapsed since the span started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Ends the span now (equivalent to dropping the guard).
    pub fn finish(self) {}
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        self.histogram.record_duration(self.start.elapsed());
    }
}

/// Renders `name{k="v",…}` — the registry key and Prometheus sample
/// name for a labeled metric. Label values are escaped per the text
/// exposition format (`\\`, `\"`, `\n`).
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
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

/// A named collection of [`Counter`]s, [`Gauge`]s, and [`Histogram`]s.
///
/// Handles are `Arc`s resolved once (get-or-register under a mutex) and
/// then updated lock-free. A [`MetricsRegistry::noop`] registry never
/// registers anything: its getters hand back fresh detached handles, so
/// instrumented code runs identically but every snapshot stays empty.
#[derive(Debug)]
pub struct MetricsRegistry {
    enabled: bool,
    started: Instant,
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
            started: Instant::now(),
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
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Time since the registry was created — the denominator for rate
    /// metrics like qps.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// The counter registered under `name`, registering it if new.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if !self.enabled {
            return Arc::new(Counter::default());
        }
        Arc::clone(lock(&self.counters).entry(name.to_string()).or_default())
    }

    /// The gauge registered under `name`, registering it if new.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if !self.enabled {
            return Arc::new(Gauge::default());
        }
        Arc::clone(lock(&self.gauges).entry(name.to_string()).or_default())
    }

    /// The histogram registered under `name`, registering it if new.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
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
            uptime_s: self.started.elapsed().as_secs_f64(),
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

/// A point-in-time export of a registry: what `--stats-file` writes (as
/// JSON), `!stats` prints (as text), and `ftd stats` reads back.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Registry uptime in seconds at snapshot time.
    pub uptime_s: f64,
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

    /// Values derived from the raw series: requests per second and the
    /// shard-cache hit rate, when their inputs are present.
    pub fn derived(&self) -> Vec<(&'static str, f64)> {
        let mut out = Vec::new();
        if let Some(requests) = self.counter("serve_requests_total") {
            if self.uptime_s > 0.0 {
                out.push(("qps", requests as f64 / self.uptime_s));
            }
        }
        if let (Some(hits), Some(misses)) = (
            self.counter("store_shard_cache_hits_total"),
            self.counter("store_shard_cache_misses_total"),
        ) {
            if hits + misses > 0 {
                out.push(("shard_cache_hit_rate", hits as f64 / (hits + misses) as f64));
            }
        }
        out
    }

    /// Serializes the snapshot as a single JSON object. Histogram
    /// buckets are `[inclusive_lower_edge_us, count]` pairs for the
    /// nonzero buckets only (lower edges are powers of two, exactly
    /// representable as JSON numbers), alongside precomputed
    /// `count`/`sum`/`mean`/`p50`/`p90`/`p99`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"uptime_s\": {},\n", json_f64(self.uptime_s)));
        out.push_str("  \"derived\": {");
        for (i, (name, value)) in self.derived().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{name}\": {}", json_f64(*value)));
        }
        out.push_str("},\n");
        out.push_str("  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {value}", json_escape(name)));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {value}", json_escape(name)));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, hist)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"mean\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [",
                json_escape(name),
                hist.count,
                hist.sum,
                json_f64(hist.mean()),
                json_f64(hist.quantile(0.50)),
                json_f64(hist.quantile(0.90)),
                json_f64(hist.quantile(0.99)),
            ));
            let mut first = true;
            for (index, &n) in hist.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                if !first {
                    out.push_str(", ");
                }
                first = false;
                out.push_str(&format!("[{}, {n}]", bucket_bounds(index).0));
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Parses a snapshot previously written by [`Snapshot::to_json`].
    /// Quantiles are recomputed from the bucket counts, so the render
    /// matches a live snapshot exactly.
    ///
    /// # Errors
    ///
    /// A description of the first structural problem found.
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let root = parse_json(text)?;
        let obj = root.as_object().ok_or("top level is not an object")?;
        let uptime_s = get(obj, "uptime_s")
            .and_then(Json::as_f64)
            .ok_or("missing numeric \"uptime_s\"")?;
        let mut counters = Vec::new();
        for (name, value) in get(obj, "counters")
            .and_then(Json::as_object)
            .ok_or("missing object \"counters\"")?
        {
            let v = value.as_f64().ok_or("non-numeric counter value")?;
            counters.push((name.clone(), v as u64));
        }
        let mut gauges = Vec::new();
        for (name, value) in get(obj, "gauges")
            .and_then(Json::as_object)
            .ok_or("missing object \"gauges\"")?
        {
            let v = value.as_f64().ok_or("non-numeric gauge value")?;
            gauges.push((name.clone(), v as i64));
        }
        let mut histograms = Vec::new();
        for (name, value) in get(obj, "histograms")
            .and_then(Json::as_object)
            .ok_or("missing object \"histograms\"")?
        {
            let hist = value
                .as_object()
                .ok_or("histogram entry is not an object")?;
            let sum = get(hist, "sum")
                .and_then(Json::as_f64)
                .ok_or("histogram missing numeric \"sum\"")? as u64;
            let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
            for pair in get(hist, "buckets")
                .and_then(Json::as_array)
                .ok_or("histogram missing array \"buckets\"")?
            {
                let pair = pair.as_array().ok_or("histogram bucket is not a pair")?;
                let (lower, n) = match pair {
                    [lower, n] => (
                        lower.as_f64().ok_or("non-numeric bucket edge")? as u64,
                        n.as_f64().ok_or("non-numeric bucket count")? as u64,
                    ),
                    _ => return Err("histogram bucket is not a pair".into()),
                };
                let index = if lower == 0 {
                    0
                } else if lower.is_power_of_two() {
                    lower.ilog2() as usize + 1
                } else {
                    return Err(format!("bucket edge {lower} is not a power of two"));
                };
                buckets[index] = n;
            }
            let count = buckets.iter().sum();
            histograms.push((
                name.clone(),
                HistogramSnapshot {
                    buckets,
                    count,
                    sum,
                },
            ));
        }
        Ok(Snapshot {
            uptime_s,
            counters,
            gauges,
            histograms,
        })
    }

    /// Renders greppable `name value` lines: uptime and derived values
    /// first, then counters, gauges, and per-histogram
    /// `_count`/`_sum`/`_mean`/`_p50`/`_p90`/`_p99` lines — the format
    /// `!stats` prints to stderr and `ftd stats` prints to stdout.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("uptime_s {}\n", json_f64(self.uptime_s)));
        for (name, value) in self.derived() {
            out.push_str(&format!("{name} {}\n", json_f64(value)));
        }
        for (name, value) in &self.counters {
            out.push_str(&format!("{name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!("{name} {value}\n"));
        }
        for (name, hist) in &self.histograms {
            out.push_str(&format!("{name}_count {}\n", hist.count));
            out.push_str(&format!("{name}_sum {}\n", hist.sum));
            out.push_str(&format!("{name}_mean {}\n", json_f64(hist.mean())));
            for (label, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
                out.push_str(&format!("{name}_{label} {}\n", json_f64(hist.quantile(q))));
            }
        }
        out
    }

    /// Renders the Prometheus text exposition format: `# TYPE` lines
    /// per metric family, histograms as cumulative `_bucket{le="…"}`
    /// series (inclusive upper edges in microseconds, then `+Inf`) plus
    /// `_sum`/`_count`. Derived values are not exported — Prometheus
    /// consumers compute rates themselves.
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

/// Formats a float as a JSON-safe number (non-finite values render as
/// 0, which JSON cannot represent otherwise).
fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------
// Minimal JSON reader — just enough for `ftd stats` to load a snapshot
// back (objects, arrays, strings with the common escapes, f64 numbers,
// booleans, null). Hand-rolled because the vendored serde is a
// marker-only shim.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn parse_json(text: &str) -> Result<Json, String> {
    let mut parser = JsonParser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing bytes at offset {}", parser.pos));
    }
    Ok(value)
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek()? == byte {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at offset {}",
                byte as char, self.pos
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let byte = *self.bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match byte {
                b'"' => return Ok(out),
                b'\\' => {
                    let escape = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                }
                _ => {
                    // Re-take the full UTF-8 character starting here.
                    self.pos -= 1;
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    let ch = rest.chars().next().ok_or("unterminated string")?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }
}

// ---------------------------------------------------------------------
// Per-layer handle bundles: every hot-path handle resolved once at
// attachment, so instrumented code never touches the registry map.
// ---------------------------------------------------------------------

/// Pre-resolved handles for [`crate::DiagnosisEngine`] instrumentation.
#[derive(Debug, Clone)]
pub struct EngineMetrics {
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
    pub fn from_registry(registry: &MetricsRegistry) -> EngineMetrics {
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
pub struct StoreMetrics {
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
    /// shard's generation, by a request or by a refresh sweep.
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
    pub fn from_registry(registry: &Arc<MetricsRegistry>) -> StoreMetrics {
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
    pub fn record_load_failure(&self, path: &Path, generation: Option<FileGen>) {
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
pub struct PoolMetrics {
    registry: Arc<MetricsRegistry>,
    /// `pool_queue_depth` — jobs submitted and not yet picked up.
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
    pub fn from_registry(registry: &Arc<MetricsRegistry>) -> PoolMetrics {
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
    pub fn worker_jobs(&self, worker: usize) -> Arc<Counter> {
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
pub const MAX_PEER_LABELS: usize = 64;

/// Pre-resolved handles for the [`crate::NetServer`] TCP tier.
#[derive(Debug, Clone)]
pub struct NetMetrics {
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
    pub fn from_registry(registry: &Arc<MetricsRegistry>) -> NetMetrics {
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
    pub fn record_protocol_error(&self, peer: &str, kind: &str) {
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
        SpanTimer::start(Arc::clone(&hist)).finish();
        {
            let span = SpanTimer::start(Arc::clone(&hist));
            assert!(span.elapsed() < Duration::from_secs(1));
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
    fn snapshot_json_round_trips() {
        let registry = MetricsRegistry::new();
        registry.counter("serve_requests_total").add(12);
        registry
            .counter(&labeled("pool_worker_jobs_total", &[("worker", "0")]))
            .add(4);
        registry.gauge("store_resident_bytes").set(4096);
        let hist = registry.histogram("serve_request_latency_us");
        for v in [0u64, 3, 17, 900, 70_000] {
            hist.record(v);
        }
        let snap = registry.snapshot();
        let parsed = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed.counters, snap.counters);
        assert_eq!(parsed.gauges, snap.gauges);
        assert_eq!(parsed.histograms, snap.histograms);
        // The re-render is identical except for floating uptime.
        let mut snap = snap;
        snap.uptime_s = parsed.uptime_s;
        assert_eq!(parsed.render_text(), snap.render_text());
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        assert!(Snapshot::from_json("").is_err());
        assert!(Snapshot::from_json("{").is_err());
        assert!(Snapshot::from_json("[1, 2]").is_err());
        assert!(Snapshot::from_json("{\"uptime_s\": 1}").is_err());
        assert!(Snapshot::from_json("not json at all").is_err());
    }

    #[test]
    fn derived_values_and_text_render() {
        let registry = MetricsRegistry::new();
        registry.counter("serve_requests_total").add(10);
        registry.counter("store_shard_cache_hits_total").add(8);
        registry.counter("store_shard_cache_misses_total").add(2);
        let snap = registry.snapshot();
        let derived = snap.derived();
        let rate = derived
            .iter()
            .find(|(name, _)| *name == "shard_cache_hit_rate")
            .map(|&(_, v)| v)
            .unwrap();
        assert!((rate - 0.8).abs() < 1e-12);
        let text = snap.render_text();
        assert!(text.contains("serve_requests_total 10\n"));
        assert!(text.contains("shard_cache_hit_rate 0.8\n"));
        assert!(text.lines().all(|l| l.split_whitespace().count() == 2));
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
