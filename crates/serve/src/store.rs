//! Multi-circuit bank sharding: one store, many banks, routed by CUT id.
//!
//! A deployment rarely serves a single circuit-under-test. [`BankStore`]
//! owns a shard per CUT — each shard a [`DiagnosisEngine`] (trajectory
//! set + spatial index + diagnoser) — and routes every
//! [`DiagnosisRequest`]`{ cut_id, signature }` to the right shard's
//! index. Shards load lazily from a directory laid out as
//! `<dir>/<cut-id>.ftb`, so opening a store over thousands of banks
//! costs nothing until a CUT is actually queried; once loaded, a shard
//! stays resident behind an `Arc` and is shared by every worker of the
//! serving front-end ([`crate::ServeHandle`]).
//!
//! ## Out-of-core operation
//!
//! The store is built to front shard sets much larger than RAM:
//!
//! * **Trajectory-section loads** — shards load through
//!   [`DiagnosisEngine::open`]: the header, the section table and the
//!   trajectory section are read, checksummed and decoded into an owned
//!   set; the dictionary payloads are never read. A shard of any format
//!   version but v3 fails to load with an attributed error.
//! * **LRU eviction** — [`StoreConfig::mem_budget`] caps the resident
//!   bytes, each shard accounted as its trajectory section's payload
//!   length, fixed at load; crossing the budget evicts whole
//!   least-recently-used shards. Eviction only drops the store's `Arc`,
//!   so in-flight diagnoses holding the engine finish unharmed, and a
//!   later request simply reloads the shard.
//! * **Hot reload** — every slot records its source file's
//!   `(mtime, len)` generation ([`FileGen`]) and when that generation
//!   was last confirmed. A request is answered from a generation the
//!   file had at some instant after the request was submitted: a slot
//!   confirmed after that probes nothing, any other slot is re-`stat`ed
//!   first, so a pool batch needs one probe per CUT (workers racing for
//!   one CUT may each take one). A probe
//!   that finds the file changed reloads it and swaps the slot, so a
//!   rebuilt bank is picked up without restarting the server while
//!   in-flight queries finish on the old engine. The same keying
//!   retires slots whose file vanished and retries cached load
//!   *failures* once the file is repaired — a transient bad copy is
//!   never replayed forever. A loaded shard is an owned copy, so a file
//!   rewritten or truncated in place keeps serving the loaded answers
//!   until a probe sees the new generation and reloads (or, for a
//!   damaged file, caches the attributed failure).

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

use ft_core::{Diagnosis, Signature};

use crate::bank::TrajectoryBank;
use crate::codec::CodecError;
use crate::engine::{DiagnosisEngine, EngineConfig};
use crate::obs::{lock, MetricsRegistry, SpanTimer, StoreMetrics};

/// A file's load generation: modification time and byte length. Two
/// observations with equal generations are treated as the same content;
/// a shard slot caches its generation so the store can detect rebuilt
/// (hot reload) or repaired (failure retry) shard files with one `stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileGen {
    mtime: SystemTime,
    len: u64,
}

impl FileGen {
    /// The generation recorded in `meta`.
    pub(crate) fn from_metadata(meta: &std::fs::Metadata) -> std::io::Result<FileGen> {
        Ok(FileGen {
            mtime: meta.modified()?,
            len: meta.len(),
        })
    }

    /// Stats `path` and returns its current generation.
    pub fn probe(path: impl AsRef<Path>) -> std::io::Result<FileGen> {
        FileGen::from_metadata(&std::fs::metadata(path)?)
    }

    /// The file length this generation was observed at.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }
}

impl fmt::Display for FileGen {
    /// Renders `mtime=<unix-secs>.<nanos>,len=<bytes>` — the form the
    /// store's failure attribution embeds in error messages and metric
    /// labels.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.mtime.duration_since(SystemTime::UNIX_EPOCH) {
            Ok(d) => write!(
                f,
                "mtime={}.{:09},len={}",
                d.as_secs(),
                d.subsec_nanos(),
                self.len
            ),
            Err(_) => write!(f, "mtime=pre-epoch,len={}", self.len),
        }
    }
}

/// One serving request: which circuit-under-test, and the observed
/// signature to diagnose against that CUT's trajectory bank.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnosisRequest {
    /// The target shard — the bank file stem under the store directory.
    pub cut_id: String,
    /// The observed signature (same dimension as the shard's bank).
    pub signature: Signature,
}

impl DiagnosisRequest {
    /// Assembles a request.
    pub fn new(cut_id: impl Into<String>, signature: Signature) -> Self {
        DiagnosisRequest {
            cut_id: cut_id.into(),
            signature,
        }
    }
}

/// Errors surfaced while routing or serving store requests.
#[derive(Debug)]
pub enum StoreError {
    /// The CUT id names no loaded bank and no `<dir>/<cut-id>.ftb`.
    UnknownCut(String),
    /// The CUT id is not a valid shard name (empty, path separators, …).
    InvalidCutId(String),
    /// The request's signature dimension does not match the shard.
    DimensionMismatch {
        /// The shard queried.
        cut_id: String,
        /// The shard's signature dimension.
        expected: usize,
        /// The request's signature dimension.
        got: usize,
    },
    /// The request's signature contains a non-finite coordinate — the
    /// diagnosis geometry is undefined on NaN/inf, so the request is
    /// rejected instead of poisoning a worker.
    NonFiniteSignature(String),
    /// Loading or decoding a shard's bank file failed (the inner error
    /// names the offending path). Shared, because a failed shard load is
    /// cached — keyed by the file's generation, so it is replayed only
    /// until the file changes — and handed to every request in between.
    Bank {
        /// The decode/I-O failure, annotated with the shard path
        /// ([`CodecError::InFile`]).
        source: Arc<CodecError>,
        /// The shard file generation the failure was observed at, when
        /// known — pinpoints *which* copy of the file failed, in the
        /// same attribution style as the path.
        generation: Option<FileGen>,
    },
    /// A diagnosis panicked inside a pool worker; the panic was caught
    /// and converted so the serving loop keeps running.
    Panicked(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownCut(id) => write!(f, "unknown CUT id `{id}`"),
            StoreError::InvalidCutId(id) => write!(
                f,
                "invalid CUT id `{id}` (want non-empty [A-Za-z0-9._-], no leading dot)"
            ),
            StoreError::DimensionMismatch {
                cut_id,
                expected,
                got,
            } => write!(
                f,
                "signature dimension {got} does not match CUT `{cut_id}` (dimension {expected})"
            ),
            StoreError::NonFiniteSignature(cut_id) => write!(
                f,
                "signature for CUT `{cut_id}` contains a non-finite coordinate"
            ),
            StoreError::Bank { source, generation } => {
                write!(f, "{source}")?;
                if let Some(generation) = generation {
                    write!(f, " (shard generation {generation})")?;
                }
                Ok(())
            }
            StoreError::Panicked(what) => write!(f, "diagnosis panicked: {what}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Bank { source, .. } => Some(&**source),
            _ => None,
        }
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Bank {
            source: Arc::new(e),
            generation: None,
        }
    }
}

/// Wraps a cached shard-load failure with the generation it was
/// observed at.
fn bank_error(generation: Option<FileGen>) -> impl FnOnce(Arc<CodecError>) -> StoreError {
    move |source| StoreError::Bank { source, generation }
}

/// `true` when `id` is a safe shard name: non-empty, ASCII
/// alphanumerics plus `-`, `_`, `.`, and no leading dot (which rules out
/// path traversal and hidden files in one stroke).
pub(crate) fn valid_cut_id(id: &str) -> bool {
    !id.is_empty()
        && !id.starts_with('.')
        && id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
}

/// Store-level configuration: how shards load and how many bytes they
/// may pin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreConfig {
    /// Engine configuration every shard is built with.
    pub engine: EngineConfig,
    /// Resident-byte budget for file-backed shards, each accounted as
    /// the payload length of its trajectory section (the only section
    /// diagnosis reads), fixed at load. `None` (default) never evicts.
    /// The budget is a target, not a hard wall: the shard being served
    /// is never evicted, so a single shard larger than the budget still
    /// serves.
    pub mem_budget: Option<u64>,
    /// How long before a request's submission a shard's generation may
    /// have been confirmed and still answer it without a `stat(2)`. The
    /// default (`Duration::ZERO`) trusts only a confirmation made after
    /// the request was submitted — one probe per CUT per pool batch, and
    /// a batch submitted after a rename completes is answered from the
    /// new file. A serving deployment that tolerates a bounded reload
    /// delay can widen it to take the syscall off the hot path (a
    /// rebuilt shard is then picked up within this interval).
    pub min_stat_interval: Duration,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            engine: EngineConfig::default(),
            mem_budget: None,
            min_stat_interval: Duration::ZERO,
        }
    }
}

impl StoreConfig {
    /// A config with the given engine settings and store defaults.
    pub fn new(engine: EngineConfig) -> Self {
        StoreConfig {
            engine,
            ..StoreConfig::default()
        }
    }
}

/// The load outcome a slot caches.
type ShardState = Result<Arc<DiagnosisEngine>, Arc<CodecError>>;

/// A resolved shard slot: the load outcome, keyed by the source file's
/// generation so a changed file invalidates it (hot reload for
/// successes, retry for failures). `generation: None` marks a pinned
/// in-memory bank ([`BankStore::insert_bank`]) that is never statted,
/// evicted, or counted against the budget.
#[derive(Debug)]
struct ShardSlot {
    state: ShardState,
    generation: Option<FileGen>,
    bytes: u64,
    last_used: u64,
    /// The instant read before the latest probe or load that found
    /// `generation`: the file had that generation at some instant after
    /// this one. Only moves forward, and only while the slot holds the
    /// generation the probe found.
    confirmed_at: Instant,
}

/// The mutex-guarded shard map plus its running resident-byte total.
#[derive(Debug, Default)]
struct ShardMap {
    slots: HashMap<String, ShardSlot>,
    resident_bytes: u64,
}

/// A sharded collection of diagnosis engines keyed by CUT id.
///
/// Thread-safe: the shard map sits behind a mutex and hands out
/// `Arc<DiagnosisEngine>` clones, so concurrent workers diagnose over
/// shared immutable shards without copying bank data. The map lock is
/// never held across disk I/O — a slow (or corrupt) shard load cannot
/// stall routing for healthy CUTs — and both outcomes of a load are
/// cached under the file's generation, so each shard file is read at
/// most once per racing loader per generation. Lock poisoning is
/// recovered from (slots are inserted whole, so the map is always
/// consistent): one panicking client thread cannot brick the store.
#[derive(Debug)]
pub struct BankStore {
    dir: Option<PathBuf>,
    config: StoreConfig,
    /// Locked through `obs::lock`, which recovers from poisoning: slots
    /// are only ever inserted or removed whole under the lock, so the
    /// map stays consistent even if a holder panicked, and one crashed
    /// client thread must not brick the store.
    shards: Mutex<ShardMap>,
    /// LRU clock: bumped on every shard touch.
    tick: AtomicU64,
    /// Observability handles ([`BankStore::with_metrics`]); `None`
    /// leaves every path entirely uninstrumented.
    metrics: Option<StoreMetrics>,
}

impl BankStore {
    /// Opens a store over a shard directory laid out as
    /// `<dir>/<cut-id>.ftb`. No bank is loaded yet.
    ///
    /// # Errors
    ///
    /// [`StoreError::Bank`] (wrapping an I/O error naming the path) when
    /// `dir` is not an existing directory.
    pub fn open(dir: impl AsRef<Path>, config: EngineConfig) -> Result<Self, StoreError> {
        BankStore::open_with(dir, StoreConfig::new(config))
    }

    /// [`BankStore::open`] with full store-level configuration (memory
    /// budget, stat interval).
    ///
    /// # Errors
    ///
    /// As [`BankStore::open`].
    pub fn open_with(dir: impl AsRef<Path>, config: StoreConfig) -> Result<Self, StoreError> {
        let dir = dir.as_ref();
        if !dir.is_dir() {
            return Err(StoreError::from(
                CodecError::Io(std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    "bank shard directory not found",
                ))
                .in_file(dir),
            ));
        }
        Ok(BankStore {
            dir: Some(dir.to_path_buf()),
            config,
            shards: Mutex::new(ShardMap::default()),
            tick: AtomicU64::new(0),
            metrics: None,
        })
    }

    /// A store with no backing directory — shards are supplied through
    /// [`BankStore::insert_bank`] (tests, benches, embedded use).
    pub fn in_memory(config: EngineConfig) -> Self {
        BankStore {
            dir: None,
            config: StoreConfig::new(config),
            shards: Mutex::new(ShardMap::default()),
            tick: AtomicU64::new(0),
            metrics: None,
        }
    }

    /// Attaches observability handles from `registry` (builder style:
    /// `BankStore::open_with(dir, cfg)?.with_metrics(&registry)`).
    /// Shard loads, cache hits/misses, evictions, hot reloads, and
    /// resident bytes are recorded from here on, and every engine the
    /// store loads is instrumented too. A [`MetricsRegistry::noop`]
    /// registry leaves the store entirely uninstrumented — results are
    /// byte-identical either way. Attach before inserting in-memory
    /// banks so their engines carry the handles as well.
    pub fn with_metrics(mut self, registry: &Arc<MetricsRegistry>) -> Self {
        if !registry.is_enabled() {
            return self;
        }
        let metrics = StoreMetrics::from_registry(registry);
        let budget = self.config.mem_budget.unwrap_or(0);
        metrics
            .mem_budget_bytes
            .set(budget.min(i64::MAX as u64) as i64);
        metrics
            .resident_bytes
            .set(self.resident_bytes().min(i64::MAX as u64) as i64);
        self.metrics = Some(metrics);
        self
    }

    /// Resident bytes currently pinned by file-backed shards (the
    /// quantity [`StoreConfig::mem_budget`] bounds).
    pub fn resident_bytes(&self) -> u64 {
        lock(&self.shards).resident_bytes
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Builds an engine over `bank`'s trajectory set and registers it
    /// under `cut_id`, replacing any previous shard with that id; the
    /// rest of the bank is dropped. In-memory banks are pinned: they
    /// carry no file generation, are never statted or evicted, and do
    /// not count against the memory budget.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidCutId`] when the id is not a valid shard
    /// name.
    pub fn insert_bank(
        &self,
        cut_id: &str,
        bank: TrajectoryBank,
    ) -> Result<Arc<DiagnosisEngine>, StoreError> {
        if !valid_cut_id(cut_id) {
            return Err(StoreError::InvalidCutId(cut_id.to_string()));
        }
        let mut engine = DiagnosisEngine::new(bank.into_trajectory_set(), self.config.engine);
        if let Some(m) = &self.metrics {
            engine.set_metrics(m.engine.clone());
        }
        let engine = Arc::new(engine);
        let slot = ShardSlot {
            state: Ok(Arc::clone(&engine)),
            generation: None,
            bytes: 0,
            last_used: self.next_tick(),
            confirmed_at: Instant::now(),
        };
        let mut map = lock(&self.shards);
        if let Some(old) = map.slots.insert(cut_id.to_string(), slot) {
            map.resident_bytes -= old.bytes;
        }
        Ok(engine)
    }

    /// Number of shards currently resident in memory (cached load
    /// failures do not count, and neither do evicted shards).
    pub fn loaded_count(&self) -> usize {
        lock(&self.shards)
            .slots
            .values()
            .filter(|slot| slot.state.is_ok())
            .count()
    }

    /// Every CUT id this store can serve: resident shards plus `*.ftb`
    /// regular files in the shard directory (the rule a first load
    /// applies), sorted and deduplicated.
    pub fn cut_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = lock(&self.shards)
            .slots
            .iter()
            .filter(|(_, slot)| slot.state.is_ok())
            .map(|(id, _)| id.clone())
            .collect();
        if let Some(dir) = &self.dir {
            if let Ok(entries) = std::fs::read_dir(dir) {
                for entry in entries.flatten() {
                    let path = entry.path();
                    if path.extension().is_some_and(|e| e == "ftb")
                        && std::fs::metadata(&path).is_ok_and(|meta| meta.is_file())
                    {
                        if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                            if valid_cut_id(stem) {
                                ids.push(stem.to_string());
                            }
                        }
                    }
                }
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The shard for `cut_id`, loading `<dir>/<cut-id>.ftb` on first
    /// touch. The map lock is released during any disk work, so two
    /// racing first requests may both load the file (the engines are
    /// identical; one wins the insert) but routing of other CUTs never
    /// waits on shard I/O.
    ///
    /// The call is its own request, submitted now, so with the default
    /// [`StoreConfig::min_stat_interval`] every hit on a file-backed
    /// slot re-`stat`s the shard file:
    ///
    /// * unchanged generation — the cached outcome (engine *or* load
    ///   failure) is served from memory, no re-read;
    /// * changed generation — the file is reloaded and the slot swapped
    ///   (hot reload; in-flight holders of the old `Arc` finish on it);
    /// * file gone — the slot is retired and the request answers
    ///   [`StoreError::UnknownCut`].
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidCutId`], [`StoreError::UnknownCut`], or
    /// [`StoreError::Bank`] (decode/I/O failure naming the shard path).
    pub fn engine(&self, cut_id: &str) -> Result<Arc<DiagnosisEngine>, StoreError> {
        self.engine_since(cut_id, Instant::now())
    }

    /// [`BankStore::engine`] for a request submitted at `since`. A slot
    /// whose generation was confirmed after `since`, less
    /// [`StoreConfig::min_stat_interval`], answers without a probe: the
    /// file had that generation at an instant after the request was
    /// submitted, which is all a probe of its own would promise. So the
    /// requests of one batch, stamped once, need one probe per CUT
    /// between them.
    pub(crate) fn engine_since(
        &self,
        cut_id: &str,
        since: Instant,
    ) -> Result<Arc<DiagnosisEngine>, StoreError> {
        if !valid_cut_id(cut_id) {
            return Err(StoreError::InvalidCutId(cut_id.to_string()));
        }
        let cached: Option<(ShardState, Option<FileGen>, bool)> = {
            let mut map = lock(&self.shards);
            match map.slots.get_mut(cut_id) {
                None => None,
                Some(slot) => {
                    slot.last_used = self.next_tick();
                    // An interval too large to add trusts the slot for
                    // good.
                    let fresh = slot
                        .confirmed_at
                        .checked_add(self.config.min_stat_interval)
                        .is_none_or(|until| until > since);
                    Some((slot.state.clone(), slot.generation, fresh))
                }
            }
        };
        match cached {
            // Pinned in-memory shard: no file to check.
            Some((state, None, _)) => {
                if let Some(m) = &self.metrics {
                    m.cache_hits.inc();
                }
                return state.map_err(bank_error(None));
            }
            Some((state, Some(generation), true)) => {
                if let Some(m) = &self.metrics {
                    m.cache_hits.inc();
                }
                return state.map_err(bank_error(Some(generation)));
            }
            Some((state, Some(generation), false)) => {
                let path = self.shard_path(cut_id)?;
                if let Some(m) = &self.metrics {
                    m.file_stats.inc();
                }
                let probed_at = Instant::now();
                match FileGen::probe(&path) {
                    Ok(current) if current == generation => {
                        self.confirm(cut_id, generation, probed_at);
                        if let Some(m) = &self.metrics {
                            m.cache_hits.inc();
                        }
                        return state.map_err(bank_error(Some(generation)));
                    }
                    Ok(current) => {
                        // File changed: reload and swap (hot reload for
                        // a good slot, retry for a cached failure).
                        if let Some(m) = &self.metrics {
                            if state.is_ok() {
                                m.hot_reloads.inc();
                            }
                        }
                        return self.load_and_install(cut_id, &path, current, probed_at);
                    }
                    Err(_) => {
                        // File gone: retire the slot.
                        self.retire_slot(cut_id, generation);
                        return Err(StoreError::UnknownCut(cut_id.to_string()));
                    }
                }
            }
            None => {
                if let Some(m) = &self.metrics {
                    m.cache_misses.inc();
                }
            }
        }
        let path = self.shard_path(cut_id)?;
        // One stat both finds the shard and stamps the load.
        let probed_at = Instant::now();
        let generation = std::fs::metadata(&path)
            .ok()
            .filter(|meta| meta.is_file())
            .and_then(|meta| FileGen::from_metadata(&meta).ok())
            .ok_or_else(|| StoreError::UnknownCut(cut_id.to_string()))?;
        self.load_and_install(cut_id, &path, generation, probed_at)
    }

    /// Records that a probe read `generation` for `cut_id`, with
    /// `probed_at` read before the probe began: stamped after it, a
    /// rename landing between the `stat` and the stamp would be hidden
    /// from a request submitted in that gap. The confirmation never
    /// moves backwards and is only recorded while the slot still holds
    /// `generation` (a racing swap must not refresh a stale slot).
    fn confirm(&self, cut_id: &str, generation: FileGen, probed_at: Instant) {
        let mut map = lock(&self.shards);
        if let Some(slot) = map.slots.get_mut(cut_id) {
            if slot.generation == Some(generation) {
                slot.confirmed_at = slot.confirmed_at.max(probed_at);
            }
        }
    }

    /// Removes `cut_id`'s slot if it still carries `generation` — the
    /// guard against retiring a slot a racing loader already swapped.
    /// Returns whether a slot was actually removed.
    fn retire_slot(&self, cut_id: &str, generation: FileGen) -> bool {
        let mut map = lock(&self.shards);
        match map.slots.get(cut_id) {
            Some(slot) if slot.generation == Some(generation) => {}
            _ => return false,
        }
        let old = map.slots.remove(cut_id).expect("checked above");
        map.resident_bytes -= old.bytes;
        let resident = map.resident_bytes;
        drop(map);
        if let Some(m) = &self.metrics {
            m.resident_bytes.set(resident.min(i64::MAX as u64) as i64);
        }
        true
    }

    /// Probes every file-backed resident shard once: unchanged
    /// generations are confirmed (restarting their freshness window),
    /// changed files are reloaded and swapped in (hot reload), and
    /// shards whose file is gone are retired — the sweep counterpart of
    /// the per-request probe in [`BankStore::engine`].
    ///
    /// `ftd serve`'s event loop calls this off a periodic timer tick, in
    /// both of its modes. Over TCP it also sets
    /// [`StoreConfig::min_stat_interval`] to the tick period, so the
    /// request hot path never touches `stat(2)` while file swaps are
    /// still picked up within one tick. Stdin serving keeps the default
    /// interval, so each batch also probes each CUT it touches once.
    /// Pinned in-memory banks have no file and are skipped.
    pub fn refresh(&self) -> RefreshSummary {
        let mut summary = RefreshSummary::default();
        let resident: Vec<(String, FileGen, bool)> = {
            let map = lock(&self.shards);
            map.slots
                .iter()
                .filter_map(|(id, slot)| {
                    slot.generation.map(|g| (id.clone(), g, slot.state.is_ok()))
                })
                .collect()
        };
        for (cut_id, generation, was_ok) in resident {
            let Ok(path) = self.shard_path(&cut_id) else {
                continue;
            };
            if let Some(m) = &self.metrics {
                m.file_stats.inc();
            }
            summary.probed += 1;
            let probed_at = Instant::now();
            match FileGen::probe(&path) {
                Ok(current) if current == generation => {
                    self.confirm(&cut_id, generation, probed_at);
                }
                Ok(current) => {
                    // Changed: reload and swap (hot reload for a good
                    // slot, retry for a cached failure). A failed load
                    // is installed and attributed in the slot exactly
                    // like a per-request reload failure would be.
                    if let Some(m) = &self.metrics {
                        if was_ok {
                            m.hot_reloads.inc();
                        }
                    }
                    summary.reloaded += 1;
                    let _ = self.load_and_install(&cut_id, &path, current, probed_at);
                }
                Err(_) => {
                    if self.retire_slot(&cut_id, generation) {
                        summary.retired += 1;
                    }
                }
            }
        }
        summary
    }

    fn shard_path(&self, cut_id: &str) -> Result<PathBuf, StoreError> {
        match &self.dir {
            Some(dir) => Ok(dir.join(format!("{cut_id}.ftb"))),
            None => Err(StoreError::UnknownCut(cut_id.to_string())),
        }
    }

    /// Loads a shard file (outside the lock) and installs the outcome.
    /// `generation` is the caller's probe of `path`, taken *before* the
    /// read, and `probed_at` the instant read before that probe (as in
    /// `confirm`). A successful load records the generation of the
    /// descriptor it read instead; a failed one keeps the probe. Either
    /// way, if the file is swapped mid-load, the next probe mismatches
    /// and retries — never the reverse.
    fn load_and_install(
        &self,
        cut_id: &str,
        path: &Path,
        generation: FileGen,
        probed_at: Instant,
    ) -> Result<Arc<DiagnosisEngine>, StoreError> {
        if let Some(m) = &self.metrics {
            m.loads.inc();
        }
        let span = self
            .metrics
            .as_ref()
            .map(|m| SpanTimer::start(Arc::clone(&m.load_latency)));
        let loaded = DiagnosisEngine::open(path, self.config.engine);
        drop(span); // record the load wall time, success or failure
        let (state, generation, bytes): (ShardState, FileGen, u64) = match loaded {
            Ok((mut engine, shard)) => {
                if let Some(m) = &self.metrics {
                    engine.set_metrics(m.engine.clone());
                }
                // A shard holds its trajectory section and nothing else
                // diagnosis reads, so that length is its accounted size
                // for as long as it stays resident.
                let bytes = shard.resident_bytes();
                (Ok(Arc::new(engine)), shard.generation(), bytes)
            }
            Err(e) => {
                if let Some(m) = &self.metrics {
                    m.record_load_failure(path, Some(generation));
                }
                (Err(Arc::new(e)), generation, 0)
            }
        };
        let slot = ShardSlot {
            state: state.clone(),
            generation: Some(generation),
            bytes,
            last_used: self.next_tick(),
            confirmed_at: probed_at,
        };

        let mut map = lock(&self.shards);
        if let Some(existing) = map.slots.get_mut(cut_id) {
            if existing.generation == Some(generation) {
                // A racing loader beat us to the same generation; its
                // engine is identical, so keep it and drop ours.
                existing.last_used = self.next_tick();
                existing.confirmed_at = existing.confirmed_at.max(probed_at);
                return existing.state.clone().map_err(bank_error(Some(generation)));
            }
        }
        if let Some(old) = map.slots.insert(cut_id.to_string(), slot) {
            map.resident_bytes -= old.bytes;
        }
        map.resident_bytes += bytes;
        self.evict_over_budget(&mut map, cut_id);
        let resident = map.resident_bytes;
        drop(map);
        if let Some(m) = &self.metrics {
            m.resident_bytes.set(resident.min(i64::MAX as u64) as i64);
        }
        state.map_err(bank_error(Some(generation)))
    }

    /// Brings the resident total back under the budget by evicting
    /// least-recently-used file-backed shards whole. Nothing is visited
    /// while the store is within budget. The shard being served (`keep`)
    /// is never evicted, so a single shard larger than the whole budget
    /// still serves; in-flight holders of an evicted engine's `Arc` keep
    /// it alive until their diagnoses finish.
    fn evict_over_budget(&self, map: &mut ShardMap, keep: &str) {
        let Some(budget) = self.config.mem_budget else {
            return;
        };
        while map.resident_bytes > budget {
            let victim = map
                .slots
                .iter()
                .filter(|(id, slot)| {
                    id.as_str() != keep && slot.generation.is_some() && slot.bytes > 0
                })
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(id, _)| id.clone());
            let Some(id) = victim else {
                break;
            };
            let old = map.slots.remove(&id).expect("victim came from the map");
            map.resident_bytes -= old.bytes;
            if let Some(m) = &self.metrics {
                m.evictions.inc();
            }
        }
    }

    /// Routes one request to its shard and answers it as every served
    /// request is answered ([`diagnose_on`]): the ranked prefix through
    /// the winner's ambiguity set, equal to
    /// [`DiagnosisEngine::diagnose_topk`] with `k = 1` on the
    /// corresponding single bank. Its rank 1 and ambiguity set are the
    /// full ranking's; callers that want every rank call
    /// [`DiagnosisEngine::diagnose`].
    ///
    /// # Errors
    ///
    /// Routing errors as [`BankStore::engine`], plus
    /// [`StoreError::DimensionMismatch`] instead of a panic when the
    /// signature does not fit the shard.
    pub fn diagnose(&self, request: &DiagnosisRequest) -> Result<Diagnosis, StoreError> {
        diagnose_on(&*self.engine(&request.cut_id)?, request)
    }
}

/// What one [`BankStore::refresh`] sweep did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RefreshSummary {
    /// File-backed resident shards whose generation was probed.
    pub probed: usize,
    /// Shards whose file changed: reloaded and swapped (or, for a
    /// cached load failure, re-attempted).
    pub reloaded: usize,
    /// Shards retired because their file is gone.
    pub retired: usize,
}

/// Ranking depth of a served answer. A served line prints rank 1, its
/// deviation and distance, and the winner's ambiguity set, and the top-k
/// prefix always carries the whole ambiguity set, so ranks past the
/// first would be computed only to be dropped.
const SERVED_K: usize = 1;

/// Diagnoses one routed request on an already-resolved shard engine —
/// the dimension-checked back half of [`BankStore::diagnose`], split out
/// so pool workers can resolve a shard once per run of same-CUT requests
/// instead of taking the shard-map lock per request. This is the one
/// call behind every served answer (`BankStore::diagnose`, the
/// [`crate::ServeHandle`] workers, stdin `ftd serve` and
/// [`crate::NetServer`]): the index's top-1 early-exit search, whose
/// [`Diagnosis`] is the full ranking's prefix through the winner's
/// ambiguity set.
pub fn diagnose_on(
    engine: &DiagnosisEngine,
    request: &DiagnosisRequest,
) -> Result<Diagnosis, StoreError> {
    let expected = engine.trajectory_set().dim();
    if request.signature.dim() != expected {
        return Err(StoreError::DimensionMismatch {
            cut_id: request.cut_id.clone(),
            expected,
            got: request.signature.dim(),
        });
    }
    // A NaN/inf coordinate makes the nearest-segment geometry panic
    // deep in the diagnoser; reject it as a routable error instead.
    if !request.signature.coords().iter().all(|x| x.is_finite()) {
        return Err(StoreError::NonFiniteSignature(request.cut_id.clone()));
    }
    Ok(engine.diagnose_topk(&request.signature, SERVED_K))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_core::TestVector;
    use ft_faults::{DeviationGrid, FaultDictionary, FaultUniverse};
    use ft_numerics::FrequencyGrid;

    fn rc_bank(r: f64) -> TrajectoryBank {
        let mut ckt = ft_circuit::Circuit::new("rc");
        ckt.voltage_source("V1", "in", "0", 1.0).unwrap();
        ckt.resistor("R1", "in", "out", r).unwrap();
        ckt.capacitor("C1", "out", "0", 1e-6).unwrap();
        let universe = FaultUniverse::new(&["R1", "C1"], DeviationGrid::paper());
        let grid = FrequencyGrid::log_space(1.0, 1e6, 15);
        let dict = FaultDictionary::build(
            &ckt,
            &universe,
            "V1",
            &ft_circuit::Probe::node("out"),
            &grid,
        )
        .unwrap();
        TrajectoryBank::build(dict, &TestVector::pair(100.0, 1e4))
    }

    /// Writes a shard and nudges its mtime into the past, so a later
    /// rewrite always lands a different `(mtime, len)` generation even
    /// on coarse-timestamp filesystems.
    fn write_shard(path: &Path, bank: &TrajectoryBank) {
        bank.save(path).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(15));
    }

    #[test]
    fn generation_distinguishes_rewrites() {
        let path = std::env::temp_dir().join("ft_store_gen_test.bin");
        std::fs::write(&path, b"first contents").unwrap();
        let before = FileGen::probe(&path).unwrap();
        assert_eq!(before.len(), 14);
        assert!(before.to_string().starts_with("mtime="));
        assert!(before.to_string().ends_with(",len=14"));
        // A different length always changes the generation, regardless
        // of filesystem timestamp granularity.
        std::fs::write(&path, b"second, longer contents").unwrap();
        let after = FileGen::probe(&path).unwrap();
        assert_ne!(before, after);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cut_id_validation() {
        for ok in ["a", "tow-thomas", "cut_07", "bank.v2", "A9"] {
            assert!(valid_cut_id(ok), "{ok} should be valid");
        }
        for bad in ["", ".", "..", ".hidden", "a/b", "a\\b", "a b", "ü"] {
            assert!(!valid_cut_id(bad), "{bad} should be invalid");
        }
    }

    #[test]
    fn in_memory_store_routes_by_cut_id() {
        let store = BankStore::in_memory(EngineConfig::default());
        let a = rc_bank(1e3);
        let b = rc_bank(2e3);
        store.insert_bank("a", a.clone()).unwrap();
        store.insert_bank("b", b.clone()).unwrap();
        assert_eq!(store.cut_ids(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(store.loaded_count(), 2);
        assert_eq!(store.resident_bytes(), 0, "pinned banks are not counted");

        let sig = Signature::new(vec![1.0, -2.0]);
        let via_a = store
            .diagnose(&DiagnosisRequest::new("a", sig.clone()))
            .unwrap();
        let via_b = store
            .diagnose(&DiagnosisRequest::new("b", sig.clone()))
            .unwrap();
        let engine_a = DiagnosisEngine::new(a.into_trajectory_set(), EngineConfig::default());
        let engine_b = DiagnosisEngine::new(b.into_trajectory_set(), EngineConfig::default());
        assert_eq!(via_a, engine_a.diagnose(&sig));
        assert_eq!(via_b, engine_b.diagnose(&sig));
        // The two CUTs genuinely differ, so routing matters.
        assert_ne!(via_a.best().distance, via_b.best().distance);
    }

    #[test]
    fn directory_store_loads_lazily() {
        let dir = std::env::temp_dir().join("ft_store_lazy_test");
        std::fs::create_dir_all(&dir).unwrap();
        rc_bank(1e3).save(dir.join("x.ftb")).unwrap();
        rc_bank(3e3).save(dir.join("y.ftb")).unwrap();

        let store = BankStore::open(&dir, EngineConfig::default()).unwrap();
        assert_eq!(store.loaded_count(), 0, "opening loads nothing");
        assert_eq!(store.cut_ids(), vec!["x".to_string(), "y".to_string()]);

        let sig = Signature::new(vec![0.5, 0.5]);
        store
            .diagnose(&DiagnosisRequest::new("x", sig.clone()))
            .unwrap();
        assert_eq!(store.loaded_count(), 1, "only the touched shard loads");
        store.diagnose(&DiagnosisRequest::new("y", sig)).unwrap();
        assert_eq!(store.loaded_count(), 2);
        assert!(store.resident_bytes() > 0, "file-backed shards are counted");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn routing_errors_are_reported_not_panicked() {
        let dir = std::env::temp_dir().join("ft_store_errors_test");
        std::fs::create_dir_all(&dir).unwrap();
        rc_bank(1e3).save(dir.join("x.ftb")).unwrap();
        let store = BankStore::open(&dir, EngineConfig::default()).unwrap();

        let sig = Signature::new(vec![0.0, 0.0]);
        assert!(matches!(
            store.diagnose(&DiagnosisRequest::new("nope", sig.clone())),
            Err(StoreError::UnknownCut(_))
        ));
        // A directory named like a shard is not one: neither listed nor
        // routed.
        std::fs::create_dir_all(dir.join("sub.ftb")).unwrap();
        assert_eq!(store.cut_ids(), vec!["x".to_string()]);
        assert!(matches!(
            store.diagnose(&DiagnosisRequest::new("sub", sig.clone())),
            Err(StoreError::UnknownCut(_))
        ));
        assert!(matches!(
            store.diagnose(&DiagnosisRequest::new("../x", sig)),
            Err(StoreError::InvalidCutId(_))
        ));
        assert!(matches!(
            store.diagnose(&DiagnosisRequest::new("x", Signature::new(vec![1.0]))),
            Err(StoreError::DimensionMismatch {
                expected: 2,
                got: 1,
                ..
            })
        ));

        // A non-finite coordinate is a routable error, not a worker
        // panic deep in the diagnosis geometry.
        assert!(matches!(
            store.diagnose(&DiagnosisRequest::new(
                "x",
                Signature::new(vec![f64::NAN, 0.0])
            )),
            Err(StoreError::NonFiniteSignature(_))
        ));

        // A corrupt shard file surfaces a Bank error naming the path.
        // The failure is cached while the file is unchanged, and the
        // slot is retired once the file disappears — a deleted shard
        // answers UnknownCut, not a stale replayed failure.
        std::fs::write(dir.join("bad.ftb"), b"FTBANK\r\ngarbage").unwrap();
        let req = DiagnosisRequest::new("bad", Signature::new(vec![0.0, 0.0]));
        let err = store.diagnose(&req).unwrap_err();
        assert!(err.to_string().contains("bad.ftb"), "{err}");
        let err = store.diagnose(&req).unwrap_err();
        assert!(
            matches!(err, StoreError::Bank { .. }),
            "cached failure: {err}"
        );
        std::fs::remove_file(dir.join("bad.ftb")).unwrap();
        assert!(matches!(
            store.diagnose(&req).unwrap_err(),
            StoreError::UnknownCut(_)
        ));
        assert_eq!(store.loaded_count(), 1, "failed shards are not 'loaded'");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transient_load_failure_retries_when_file_changes() {
        // The satellite regression: request → Bank error (file is a bad
        // partial copy) → the good shard lands → the next request
        // succeeds on the SAME store, no reopen.
        let dir = std::env::temp_dir().join("ft_store_retry_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cut.ftb");
        let bank = rc_bank(1e3);
        let good = bank.to_bytes();
        // A mid-copy prefix: valid magic, truncated body.
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();

        let store = BankStore::open(&dir, EngineConfig::default()).unwrap();
        let req = DiagnosisRequest::new("cut", Signature::new(vec![0.5, -0.5]));
        let err = store.diagnose(&req).unwrap_err();
        assert!(matches!(err, StoreError::Bank { .. }), "{err}");
        // Unchanged file: the cached failure is replayed, not re-read.
        assert!(matches!(
            store.diagnose(&req).unwrap_err(),
            StoreError::Bank { .. }
        ));

        // The full file arrives (different length ⇒ different gen).
        std::fs::write(&path, &good).unwrap();
        let diag = store.diagnose(&req).expect("repaired shard serves");
        let reference = DiagnosisEngine::new(bank.into_trajectory_set(), EngineConfig::default());
        assert_eq!(diag, reference.diagnose(&req.signature));
        assert_eq!(store.loaded_count(), 1);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hot_reload_swaps_shard_without_reopening() {
        let dir = std::env::temp_dir().join("ft_store_hot_reload_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cut.ftb");
        let bank_v1 = rc_bank(1e3);
        let bank_v2 = rc_bank(4e3);
        write_shard(&path, &bank_v1);

        let store = BankStore::open(&dir, EngineConfig::default()).unwrap();
        let sig = Signature::new(vec![0.8, -0.3]);
        let req = DiagnosisRequest::new("cut", sig.clone());
        let engine = |bank: &TrajectoryBank| {
            DiagnosisEngine::new(bank.trajectory_set().clone(), EngineConfig::default())
        };
        let ref_v1 = engine(&bank_v1).diagnose(&sig);
        let ref_v2 = engine(&bank_v2).diagnose(&sig);
        assert_ne!(ref_v1, ref_v2, "the rebuilt bank must answer differently");
        assert_eq!(store.diagnose(&req).unwrap(), ref_v1);

        // An in-flight holder resolved before the swap…
        let old_engine = store.engine("cut").unwrap();

        // …then the shard file is rebuilt (atomic rename, like a real
        // deployment would).
        let tmp = dir.join("cut.ftb.tmp");
        bank_v2.save(&tmp).unwrap();
        std::fs::rename(&tmp, &path).unwrap();

        // New requests see the new bank without reopening the store…
        assert_eq!(store.diagnose(&req).unwrap(), ref_v2);
        // …while the in-flight engine still answers on the old bank.
        assert_eq!(diagnose_on(&old_engine, &req).unwrap(), ref_v1);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lru_eviction_respects_budget_and_preserves_results() {
        let dir = std::env::temp_dir().join("ft_store_eviction_test");
        std::fs::create_dir_all(&dir).unwrap();
        let banks = [rc_bank(1e3), rc_bank(2e3), rc_bank(4e3)];
        for (i, bank) in banks.iter().enumerate() {
            bank.save(dir.join(format!("c{i}.ftb"))).unwrap();
        }
        // Budget sized so exactly one shard fits.
        let one_shard = {
            let store = BankStore::open(&dir, EngineConfig::default()).unwrap();
            store.engine("c0").unwrap();
            store.resident_bytes()
        };
        assert!(one_shard > 0);

        let unbounded = BankStore::open(&dir, EngineConfig::default()).unwrap();
        let tight = BankStore::open_with(
            &dir,
            StoreConfig {
                mem_budget: Some(one_shard),
                ..StoreConfig::default()
            },
        )
        .unwrap();

        let sig = Signature::new(vec![0.4, 0.9]);
        for round in 0..3 {
            for i in [0usize, 1, 2, 1, 0, 2] {
                let req = DiagnosisRequest::new(format!("c{i}"), sig.clone());
                assert_eq!(
                    tight.diagnose(&req).unwrap(),
                    unbounded.diagnose(&req).unwrap(),
                    "eviction changed results (round {round}, shard {i})"
                );
                assert!(
                    tight.resident_bytes() <= one_shard,
                    "budget exceeded: {} > {one_shard}",
                    tight.resident_bytes()
                );
                assert_eq!(tight.loaded_count(), 1, "budget holds one shard");
            }
        }
        assert_eq!(unbounded.loaded_count(), 3);

        // A budget smaller than any single shard still serves (the
        // active shard is never evicted), it just evicts aggressively.
        let tiny = BankStore::open_with(
            &dir,
            StoreConfig {
                mem_budget: Some(1),
                ..StoreConfig::default()
            },
        )
        .unwrap();
        let req = DiagnosisRequest::new("c0", sig.clone());
        assert_eq!(
            tiny.diagnose(&req).unwrap(),
            unbounded.diagnose(&req).unwrap()
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn directory_store_agrees_with_the_full_load() {
        let dir = std::env::temp_dir().join("ft_store_modes_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cut.ftb");
        rc_bank(1e3).save(&path).unwrap();
        let store = BankStore::open_with(&dir, StoreConfig::default()).unwrap();
        let full = TrajectoryBank::load(&path).unwrap().into_trajectory_set();
        let full = DiagnosisEngine::new(full, EngineConfig::default());
        let sig = Signature::new(vec![1.1, 0.2]);
        let req = DiagnosisRequest::new("cut", sig.clone());
        assert_eq!(store.diagnose(&req).unwrap(), full.diagnose(&sig));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_load_records_the_generation_it_read() {
        // The caller's probe can predate the read. A file replaced in
        // between must be recorded as the file that was read; a slot
        // that kept the probe would reload a current shard once more.
        let dir = std::env::temp_dir().join("ft_store_read_generation_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cut.ftb");
        write_shard(&path, &rc_bank(1e3));
        let stale = FileGen::probe(&path).unwrap();
        write_shard(&path, &rc_bank(4e3));
        let store = BankStore::open(&dir, EngineConfig::default()).unwrap();
        store
            .load_and_install("cut", &path, stale, Instant::now())
            .unwrap();
        let recorded = lock(&store.shards).slots["cut"].generation;
        assert_eq!(recorded, Some(FileGen::probe(&path).unwrap()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unsupported_bank_versions_are_attributed_on_every_read_path() {
        let dir = std::env::temp_dir().join("ft_store_version_test");
        std::fs::create_dir_all(&dir).unwrap();
        let bank = rc_bank(1e3);
        let store = BankStore::open(&dir, EngineConfig::default()).unwrap();
        // v1 and v2 (deleted formats) and v4 (unknown): an attributed
        // error on the heap, shard and store paths, each with the one
        // message. The version field sits outside every checksum, so
        // stamping it leaves an otherwise well-formed container.
        for version in [1u16, 2, 4] {
            let mut bytes = bank.to_bytes();
            bytes[8..10].copy_from_slice(&version.to_le_bytes());
            let cut = format!("old{version}");
            let path = dir.join(format!("{cut}.ftb"));
            std::fs::write(&path, &bytes).unwrap();
            let attributed = |err: &CodecError| match err {
                CodecError::InFile { path: p, source } => {
                    p == &path
                        && matches!(**source, CodecError::UnsupportedVersion { found } if found == version)
                }
                _ => false,
            };
            let heap = TrajectoryBank::load(&path).unwrap_err();
            assert!(attributed(&heap), "{heap:?}");
            let shard = crate::bank::MappedBank::open(&path).unwrap_err();
            assert!(attributed(&shard), "{shard:?}");
            let Err(StoreError::Bank { source, .. }) = store.engine(&cut) else {
                panic!("a v{version} shard must fail to load");
            };
            assert!(attributed(&source), "{source:?}");
            for err in [heap.to_string(), shard.to_string(), source.to_string()] {
                assert!(err.contains(&format!("{cut}.ftb")), "{err}");
                assert!(err.contains("reads v3 banks"), "{err}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn poisoned_lock_is_recovered_not_propagated() {
        let dir = std::env::temp_dir().join("ft_store_poison_test");
        std::fs::create_dir_all(&dir).unwrap();
        rc_bank(1e3).save(dir.join("x.ftb")).unwrap();
        let store = std::sync::Arc::new(BankStore::open(&dir, EngineConfig::default()).unwrap());
        let req = DiagnosisRequest::new("x", Signature::new(vec![0.1, 0.1]));
        let before = store.diagnose(&req).unwrap();

        // A client thread panics while holding the shard-map lock (the
        // worst case: mid-critical-section), poisoning the mutex.
        let poisoner = std::sync::Arc::clone(&store);
        let caught = std::thread::spawn(move || {
            let _guard = poisoner.shards.lock().unwrap();
            panic!("deliberate poison");
        })
        .join();
        assert!(caught.is_err(), "the poisoner must have panicked");
        assert!(store.shards.is_poisoned(), "the lock must be poisoned");

        // Diagnosis in other threads keeps working: cached shards serve,
        // new shards load, bookkeeping stays sane.
        assert_eq!(store.diagnose(&req).unwrap(), before);
        rc_bank(2e3).save(dir.join("y.ftb")).unwrap();
        let other = std::sync::Arc::clone(&store);
        let from_other_thread = std::thread::spawn(move || {
            other
                .diagnose(&DiagnosisRequest::new("y", Signature::new(vec![0.1, 0.1])))
                .map(|d| d.best().component.clone())
        })
        .join()
        .expect("no panic propagates");
        assert!(from_other_thread.is_ok());
        assert_eq!(store.loaded_count(), 2);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_missing_directory() {
        let err = BankStore::open("/nonexistent/shards", EngineConfig::default()).unwrap_err();
        assert!(err.to_string().contains("/nonexistent/shards"), "{err}");
    }

    #[test]
    fn metrics_track_cache_and_failure_attribution() {
        let dir = std::env::temp_dir().join("ft_store_metrics_test");
        std::fs::create_dir_all(&dir).unwrap();
        rc_bank(1e3).save(dir.join("good.ftb")).unwrap();

        let registry = Arc::new(MetricsRegistry::new());
        let store = BankStore::open(&dir, EngineConfig::default())
            .unwrap()
            .with_metrics(&registry);
        let req = DiagnosisRequest::new("good", Signature::new(vec![0.5, 0.5]));
        store.diagnose(&req).unwrap();
        store.diagnose(&req).unwrap();

        let snap = registry.snapshot();
        assert_eq!(snap.counter("store_shard_cache_misses_total"), Some(1));
        assert_eq!(snap.counter("store_shard_cache_hits_total"), Some(1));
        assert_eq!(snap.counter("store_shard_loads_total"), Some(1));
        assert_eq!(snap.histogram("store_shard_load_us").unwrap().count, 1);
        assert!(snap.gauge("store_resident_bytes").unwrap() > 0);
        assert_eq!(snap.gauge("store_mem_budget_bytes"), Some(0));
        // The instrumented store shares its engine metrics, so diagnose
        // latency lands in the same registry.
        assert_eq!(
            snap.histogram("engine_diagnose_latency_us").unwrap().count,
            2
        );

        // A corrupt shard attributes the failure to its path AND the
        // generation (mtime,len) the bad bytes were observed at.
        std::fs::write(dir.join("bad.ftb"), b"FTBANK\r\ngarbage").unwrap();
        let req = DiagnosisRequest::new("bad", Signature::new(vec![0.0, 0.0]));
        let err = store.diagnose(&req).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("bad.ftb"), "{msg}");
        assert!(msg.contains("shard generation mtime="), "{msg}");

        let snap = registry.snapshot();
        assert_eq!(snap.counter("store_shard_load_failures_total"), Some(1));
        let labeled = snap
            .counters
            .iter()
            .find(|(n, _)| n.starts_with("store_shard_load_failures_total{"))
            .expect("a labeled failure counter exists");
        assert!(labeled.0.contains("shard="), "{}", labeled.0);
        assert!(labeled.0.contains("bad.ftb"), "{}", labeled.0);
        assert!(labeled.0.contains("generation="), "{}", labeled.0);
        assert_eq!(labeled.1, 1);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn min_stat_interval_throttles_generation_probes() {
        let dir = std::env::temp_dir().join("ft_store_stat_interval_test");
        std::fs::create_dir_all(&dir).unwrap();
        write_shard(&dir.join("cut.ftb"), &rc_bank(1e3));
        let req = DiagnosisRequest::new("cut", Signature::new(vec![0.5, 0.5]));

        // Default config: every cache hit stats the file.
        let registry = Arc::new(MetricsRegistry::new());
        let store = BankStore::open(&dir, EngineConfig::default())
            .unwrap()
            .with_metrics(&registry);
        store.diagnose(&req).unwrap();
        store.diagnose(&req).unwrap();
        store.diagnose(&req).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("store_generation_stats_total"), Some(2));

        // A non-zero interval takes the stat off the hot path entirely
        // while the confirmation is fresh.
        let registry = Arc::new(MetricsRegistry::new());
        let store = BankStore::open_with(
            &dir,
            StoreConfig {
                min_stat_interval: Duration::from_secs(60),
                ..StoreConfig::default()
            },
        )
        .unwrap()
        .with_metrics(&registry);
        let first = store.diagnose(&req).unwrap();
        for _ in 0..10 {
            assert_eq!(store.diagnose(&req).unwrap(), first);
        }
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("store_generation_stats_total"),
            Some(0),
            "fresh hits must not stat"
        );
        assert_eq!(snap.counter("store_shard_cache_hits_total"), Some(10));
        assert_eq!(snap.counter("store_shard_loads_total"), Some(1));

        // Once the interval lapses, the next hit probes again and still
        // picks up a rebuilt shard (hot reload is delayed, not lost).
        let registry = Arc::new(MetricsRegistry::new());
        let store = BankStore::open_with(
            &dir,
            StoreConfig {
                min_stat_interval: Duration::from_millis(20),
                ..StoreConfig::default()
            },
        )
        .unwrap()
        .with_metrics(&registry);
        store.diagnose(&req).unwrap();
        write_shard(&dir.join("cut.ftb"), &rc_bank(3e3));
        std::thread::sleep(Duration::from_millis(25));
        store.diagnose(&req).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("store_hot_reloads_total"), Some(1));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn engine_since_probes_only_requests_older_than_the_confirmation() {
        let dir = std::env::temp_dir().join("ft_store_engine_since_test");
        std::fs::create_dir_all(&dir).unwrap();
        write_shard(&dir.join("cut.ftb"), &rc_bank(1e3));
        let registry = Arc::new(MetricsRegistry::new());
        let store = BankStore::open(&dir, EngineConfig::default())
            .unwrap()
            .with_metrics(&registry);
        let probes = || {
            registry
                .snapshot()
                .counter("store_generation_stats_total")
                .unwrap()
        };

        // The load confirms the generation after `submitted`.
        let submitted = Instant::now();
        store.engine("cut").unwrap();
        store.engine_since("cut", submitted).unwrap();
        assert_eq!(probes(), 0, "confirmed after submission: no probe");

        // A later submission probes once; that probe confirms the
        // generation after it, so the same stamp, or an earlier one,
        // probes no more.
        let later = Instant::now();
        store.engine_since("cut", later).unwrap();
        assert_eq!(probes(), 1, "submitted after the confirmation: probe");
        store.engine_since("cut", later).unwrap();
        store.engine_since("cut", submitted).unwrap();
        assert_eq!(probes(), 1);

        // An interval too large to add to an Instant trusts the slot
        // for good, without overflowing.
        let registry = Arc::new(MetricsRegistry::new());
        let store = BankStore::open_with(
            &dir,
            StoreConfig {
                min_stat_interval: Duration::MAX,
                ..StoreConfig::default()
            },
        )
        .unwrap()
        .with_metrics(&registry);
        store.engine("cut").unwrap();
        for _ in 0..3 {
            store.engine("cut").unwrap();
            store.engine_since("cut", Instant::now()).unwrap();
        }
        assert_eq!(
            registry.snapshot().counter("store_generation_stats_total"),
            Some(0)
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn refresh_reloads_retires_and_keeps_the_hot_path_off_stat() {
        let dir = std::env::temp_dir().join("ft_store_refresh_test");
        std::fs::create_dir_all(&dir).unwrap();
        write_shard(&dir.join("a.ftb"), &rc_bank(1e3));
        write_shard(&dir.join("b.ftb"), &rc_bank(2e3));
        let req_a = DiagnosisRequest::new("a", Signature::new(vec![0.5, 0.5]));
        let req_b = DiagnosisRequest::new("b", Signature::new(vec![0.5, 0.5]));

        // Event-loop configuration: freshness window so large that
        // request hits never stat — only refresh() probes.
        let registry = Arc::new(MetricsRegistry::new());
        let store = BankStore::open_with(
            &dir,
            StoreConfig {
                min_stat_interval: Duration::from_secs(3600),
                ..StoreConfig::default()
            },
        )
        .unwrap()
        .with_metrics(&registry);
        let first_a = store.diagnose(&req_a).unwrap();
        store.diagnose(&req_b).unwrap();

        // No-op sweep: both shards probed, nothing changed.
        let quiet = store.refresh();
        assert_eq!(
            quiet,
            RefreshSummary {
                probed: 2,
                reloaded: 0,
                retired: 0
            }
        );

        // Swap a's file and delete b's: the sweep picks both up even
        // though the per-request path is still inside its freshness window.
        write_shard(&dir.join("a.ftb"), &rc_bank(3e3));
        std::fs::remove_file(dir.join("b.ftb")).unwrap();
        let swept = store.refresh();
        assert_eq!(
            swept,
            RefreshSummary {
                probed: 2,
                reloaded: 1,
                retired: 1
            }
        );
        let reloaded_a = store.diagnose(&req_a).unwrap();
        assert_ne!(reloaded_a, first_a, "answers come from the new bank");
        let reference = BankStore::open(&dir, EngineConfig::default()).unwrap();
        assert_eq!(reloaded_a, reference.diagnose(&req_a).unwrap());
        assert!(matches!(
            store.diagnose(&req_b),
            Err(StoreError::UnknownCut(_))
        ));

        let snap = registry.snapshot();
        assert_eq!(snap.counter("store_hot_reloads_total"), Some(1));
        assert_eq!(
            snap.counter("store_generation_stats_total"),
            Some(4),
            "only the two sweeps probed"
        );

        // Pinned in-memory banks have no file: never probed or retired.
        let pinned = BankStore::in_memory(EngineConfig::default());
        pinned.insert_bank("mem", rc_bank(1e3)).unwrap();
        assert_eq!(pinned.refresh(), RefreshSummary::default());
        std::fs::remove_dir_all(&dir).ok();
    }
}
