//! The persistent serving front-end: a long-lived worker pool over a
//! shared [`BankStore`], and the crate's one concurrent executor. Stdin
//! `ftd serve`, [`crate::NetServer`] and `perfbench` all serve through
//! it.
//!
//! [`ServeHandle`] spawns its worker threads **once**, feeds them from
//! an mpsc request queue and reassembles their results into input order
//! per batch, so sustained traffic pays no per-batch thread spawn.
//! Batches pipeline — a new batch can be submitted while earlier ones
//! are still in flight, and workers drain the queue continuously.
//!
//! Each request is answered by the call behind every served answer,
//! [`diagnose_on`] (the index's top-1 early-exit search), so a result
//! is a pure function of (bank, signature): **byte-identical** at every
//! worker count — scheduling affects only timing, never values or
//! order. It is the full ranking's prefix through the winner's
//! ambiguity set, not the full ranking; its rank 1, ambiguity set and
//! rendered line equal the linear scan's
//! ([`DiagnosisEngine::diagnose_linear`]), which `ftd diagnose
//! --requests` prints. [`BankStore::diagnose_batch`] answers a batch
//! sequentially and is the pool's reference in the tests.
//!
//! [`DiagnosisEngine::diagnose_linear`]: crate::DiagnosisEngine::diagnose_linear
//! [`diagnose_on`]: crate::store::diagnose_on

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use ft_core::Diagnosis;

use crate::obs::{MetricsRegistry, PoolMetrics};
use crate::store::{BankStore, DiagnosisRequest, StoreError};

/// The outcome of one request served through the pool. The
/// [`Diagnosis`] carries the ranked prefix through the winner's
/// ambiguity set — at least one candidate, not one per trajectory
/// ([`crate::store::diagnose_on`]); callers that want every rank call
/// [`crate::DiagnosisEngine::diagnose`].
pub type ServeResult = Result<Diagnosis, StoreError>;

/// Identifies a submitted batch; batches complete in submission order.
pub type BatchId = u64;

/// One unit of queued work: a contiguous run of a batch's requests.
/// Runs (rather than single requests) keep the per-job channel and lock
/// overhead amortised across several diagnoses while still giving the
/// pool enough pieces to balance load across workers.
struct Job {
    batch: BatchId,
    start: usize,
    /// When the batch was submitted: shards resolve as of this instant
    /// ([`BankStore::engine_since`]).
    since: Instant,
    requests: Vec<DiagnosisRequest>,
    /// The batch's requests not yet published, shared by all its runs:
    /// the worker that takes it to zero runs the notifier, once per
    /// batch.
    unpublished: Arc<AtomicUsize>,
}

/// Per-batch reassembly state: filled slot count + the slots.
struct Pending {
    filled: usize,
    slots: Vec<Option<ServeResult>>,
    /// Submission instant: with metrics attached, each request's
    /// end-to-end latency is recorded against it when the batch
    /// completes.
    enqueued: Instant,
}

impl Pending {
    fn complete(&self) -> bool {
        self.filled == self.slots.len()
    }
}

/// A persistent worker pool serving [`DiagnosisRequest`]s against a
/// shared [`BankStore`].
///
/// Submit batches with [`ServeHandle::submit`]; collect them, in
/// submission order, with [`ServeHandle::drain`] or
/// [`ServeHandle::drain_one`]. Workers live until the handle drops
/// (drop closes the queue and joins every thread).
pub struct ServeHandle {
    store: Arc<BankStore>,
    workers: Vec<JoinHandle<()>>,
    jobs: Option<Sender<Job>>,
    results: Receiver<(BatchId, usize, Vec<ServeResult>)>,
    /// Set on drop so workers discard any still-queued backlog instead
    /// of diagnosing requests whose results nobody will read.
    shutdown: Arc<AtomicBool>,
    /// Undrained batches in submission order: batch `id` sits at index
    /// `id - (next_batch - pending.len())`.
    pending: VecDeque<Pending>,
    next_batch: BatchId,
    metrics: Option<PoolMetrics>,
}

impl std::fmt::Debug for ServeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeHandle")
            .field("workers", &self.workers.len())
            .field("pending_batches", &self.pending.len())
            .finish()
    }
}

impl ServeHandle {
    /// Spawns `workers` long-lived threads (at least one) over `store`.
    ///
    /// The job queue is a single mpsc channel; idle workers take turns
    /// blocking on it behind a mutex, so each job goes to exactly one
    /// worker and a free worker picks up the next job immediately.
    pub fn new(store: Arc<BankStore>, workers: usize) -> Self {
        ServeHandle::build(store, workers, None, None)
    }

    /// Like [`ServeHandle::new`], but wires the pool's counters,
    /// gauges, and latency histograms into `registry`. A disabled
    /// (noop) registry attaches nothing, so the instrumented pool is
    /// byte- and cost-identical to a plain one.
    pub fn with_metrics(
        store: Arc<BankStore>,
        workers: usize,
        registry: &Arc<MetricsRegistry>,
    ) -> Self {
        let metrics = registry
            .is_enabled()
            .then(|| PoolMetrics::from_registry(registry));
        ServeHandle::build(store, workers, metrics, None)
    }

    /// Like [`ServeHandle::with_metrics`], but additionally installs a
    /// completion notifier: `notify` runs once per batch, on the worker
    /// that publishes the batch's last run, after that run is published
    /// — so a [`ServeHandle::try_drain_one`] after the wake finds the
    /// whole batch. A non-blocking front-end (the TCP event loop) uses
    /// this to wake its poller — e.g. by writing one byte to a self-pipe
    /// registered for read interest — instead of parking on the
    /// blocking [`ServeHandle::drain_one`]. An empty batch has no runs:
    /// it is complete at submit and never notifies.
    ///
    /// `notify` runs on worker threads and must be cheap and non-blocking.
    pub fn with_notifier(
        store: Arc<BankStore>,
        workers: usize,
        registry: &Arc<MetricsRegistry>,
        notify: Arc<dyn Fn() + Send + Sync>,
    ) -> Self {
        let metrics = registry
            .is_enabled()
            .then(|| PoolMetrics::from_registry(registry));
        ServeHandle::build(store, workers, metrics, Some(notify))
    }

    fn build(
        store: Arc<BankStore>,
        workers: usize,
        metrics: Option<PoolMetrics>,
        notify: Option<Arc<dyn Fn() + Send + Sync>>,
    ) -> Self {
        let workers = workers.max(1);
        let (job_tx, job_rx) = channel::<Job>();
        let (res_tx, res_rx) = channel();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let shutdown = Arc::new(AtomicBool::new(false));
        let threads = (0..workers)
            .map(|i| {
                let job_rx = Arc::clone(&job_rx);
                let res_tx = res_tx.clone();
                let store = Arc::clone(&store);
                let shutdown = Arc::clone(&shutdown);
                let worker_metrics = metrics
                    .as_ref()
                    .map(|m| (Arc::clone(&m.queue_depth), m.worker_jobs(i)));
                let notify = notify.clone();
                std::thread::spawn(move || {
                    loop {
                        // Hold the queue lock only for the take; the
                        // diagnosis itself runs unlocked.
                        let job = {
                            let queue = job_rx.lock().expect("job queue lock poisoned");
                            queue.recv()
                        };
                        let Ok(job) = job else {
                            break; // queue closed: the handle dropped
                        };
                        // Depth decrements on take — including discarded
                        // shutdown backlog, so the gauge returns to zero.
                        if let Some((depth, _)) = &worker_metrics {
                            depth.sub(1);
                        }
                        // A dropped handle reads no more results: drain
                        // the backlog without paying for diagnoses.
                        // Acquire pairs with the Release store in Drop,
                        // so a worker that sees the flag also sees every
                        // write the dropping thread made before it.
                        if shutdown.load(Ordering::Acquire) {
                            continue;
                        }
                        // Resolve each shard once per same-CUT stretch of
                        // the run, keeping the shard-map lock off the
                        // per-request path. Each resolve is as of the
                        // batch's submission, so once one resolve has
                        // confirmed a CUT's generation, the batch's later
                        // resolves of that CUT, in any run, probe
                        // nothing. The cache names its CUT by the run
                        // position of the request that resolved it, so a
                        // CUT switch clones no id. The cached resolution
                        // is stamped with the store epoch: any slot swap
                        // (hot reload, eviction, retirement) bumps it,
                        // which forces a re-resolve so a run never keeps
                        // serving a shard the store has since replaced.
                        let mut cached: Option<(usize, u64, Arc<crate::DiagnosisEngine>)> = None;
                        let mut results: Vec<ServeResult> = Vec::with_capacity(job.requests.len());
                        for (at, request) in job.requests.iter().enumerate() {
                            let fresh = matches!(&cached, Some((from, epoch, _))
                                if job.requests[*from].cut_id == request.cut_id
                                    && store.epoch() == *epoch);
                            if !fresh {
                                // Epoch read *before* resolving: if a swap
                                // lands in between, the stamp is already
                                // stale and the next request re-resolves —
                                // the race can only cost a redundant
                                // lookup, never a stale serve.
                                let epoch = store.epoch();
                                match store.engine_since(&request.cut_id, job.since) {
                                    Ok(engine) => cached = Some((at, epoch, engine)),
                                    Err(e) => {
                                        results.push(Err(e));
                                        continue;
                                    }
                                }
                            }
                            let (_, _, engine) = cached.as_ref().expect("resolved above");
                            // A panicking diagnosis must not kill the
                            // worker: an unsent result would leave its
                            // batch slot empty and hang drain forever
                            // (unlike thread::scope, which re-raises on
                            // join). Catch and report it in-slot.
                            let result =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    crate::store::diagnose_on(engine, request)
                                }))
                                .unwrap_or_else(|panic| {
                                    let what = panic
                                        .downcast_ref::<&str>()
                                        .map(|s| s.to_string())
                                        .or_else(|| panic.downcast_ref::<String>().cloned())
                                        .unwrap_or_else(|| "non-string panic payload".into());
                                    Err(StoreError::Panicked(what))
                                });
                            results.push(result);
                        }
                        if let Some((_, jobs)) = &worker_metrics {
                            jobs.inc();
                        }
                        let published = results.len();
                        if res_tx.send((job.batch, job.start, results)).is_err() {
                            break; // handle dropped mid-flight
                        }
                        // Every run's send happens before its fetch_sub,
                        // and AcqRel orders the batch's fetch_subs, so
                        // the worker that takes the count to zero sees
                        // every run of the batch published: the caller's
                        // try_recv after this wake finds the whole batch.
                        if job.unpublished.fetch_sub(published, Ordering::AcqRel) == published {
                            if let Some(notify) = &notify {
                                notify();
                            }
                        }
                    }
                })
            })
            .collect();
        ServeHandle {
            store,
            workers: threads,
            jobs: Some(job_tx),
            results: res_rx,
            shutdown,
            pending: VecDeque::new(),
            next_batch: 0,
            metrics,
        }
    }

    /// The shared store the pool serves from.
    pub fn store(&self) -> &Arc<BankStore> {
        &self.store
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Batches submitted but not yet drained.
    pub fn pending_batches(&self) -> usize {
        self.pending.len()
    }

    /// Enqueues a batch and returns immediately — requests start being
    /// served while the caller prepares (or submits) the next batch.
    /// Results come back from [`ServeHandle::drain`] /
    /// [`ServeHandle::drain_one`] in submission order, each batch in
    /// input order.
    ///
    /// The batch is cut into roughly `4 × workers` contiguous runs (so
    /// a slow run cannot stall the batch behind one worker, yet queue
    /// overhead stays amortised); run boundaries never affect results,
    /// only scheduling.
    ///
    /// The batch is stamped with one submission instant before any run
    /// is queued, and its shards resolve as of that instant. With the
    /// default [`crate::StoreConfig::min_stat_interval`], every request
    /// is answered from a generation its shard file had after the batch
    /// was submitted — a batch submitted after a rename completes is
    /// answered from the new file — at a cost of at most one `stat(2)`
    /// per CUT per batch (workers racing for one CUT may each probe it).
    pub fn submit(&mut self, requests: Vec<DiagnosisRequest>) -> BatchId {
        let id = self.next_batch;
        self.next_batch += 1;
        if let Some(m) = &self.metrics {
            m.batch_sizes.record(requests.len() as u64);
        }
        let since = Instant::now();
        self.pending.push_back(Pending {
            filled: 0,
            slots: requests.iter().map(|_| None).collect(),
            enqueued: since,
        });
        if requests.is_empty() {
            return id;
        }
        let run = requests.len().div_ceil(self.workers.len() * 4).max(1);
        let unpublished = Arc::new(AtomicUsize::new(requests.len()));
        let jobs = self.jobs.as_ref().expect("job queue open while alive");
        let mut start = 0usize;
        let mut rest = requests;
        while !rest.is_empty() {
            let take = run.min(rest.len());
            let tail = rest.split_off(take);
            jobs.send(Job {
                batch: id,
                start,
                since,
                requests: std::mem::replace(&mut rest, tail),
                unpublished: Arc::clone(&unpublished),
            })
            .expect("workers outlive the handle");
            if let Some(m) = &self.metrics {
                m.queue_depth.add(1);
            }
            start += take;
        }
        id
    }

    /// Slots one worker run into its batch's reassembly buffer.
    fn absorb(&mut self, batch: BatchId, start: usize, results: Vec<ServeResult>) {
        let front = self.next_batch - self.pending.len() as BatchId;
        let entry = &mut self.pending[(batch - front) as usize];
        for (offset, result) in results.into_iter().enumerate() {
            debug_assert!(entry.slots[start + offset].is_none(), "slot filled twice");
            entry.slots[start + offset] = Some(result);
            entry.filled += 1;
        }
    }

    /// Pops the completed oldest batch and returns it in input order.
    fn finish_front(&mut self) -> Vec<ServeResult> {
        let entry = self.pending.pop_front().expect("completed batch present");
        let batch: Vec<ServeResult> = entry
            .slots
            .into_iter()
            .map(|slot| slot.expect("every slot filled by exactly one worker"))
            .collect();
        if let Some(m) = &self.metrics {
            m.requests.add(batch.len() as u64);
            m.errors
                .add(batch.iter().filter(|r| r.is_err()).count() as u64);
            // Every request in the batch shares the submit-to-drain wall
            // time: that is the latency a caller actually saw.
            let micros = entry.enqueued.elapsed().as_micros().min(u64::MAX as u128) as u64;
            if !batch.is_empty() {
                m.request_latency.record_n(micros, batch.len() as u64);
            }
        }
        batch
    }

    /// Blocks until the **oldest** outstanding batch completes and
    /// returns its results in input order; `None` when nothing is
    /// outstanding. Younger batches keep being served in the background
    /// while this waits.
    pub fn drain_one(&mut self) -> Option<Vec<ServeResult>> {
        while !self.pending.front()?.complete() {
            let (batch, start, results) = self
                .results
                .recv()
                .expect("workers alive while batches are outstanding");
            self.absorb(batch, start, results);
        }
        Some(self.finish_front())
    }

    /// Non-blocking [`ServeHandle::drain_one`]: absorbs every worker run
    /// already published, then returns the oldest batch **iff** it is
    /// complete. `None` means "nothing outstanding" or "oldest batch
    /// still in flight" — callers driven by a completion notifier (see
    /// [`ServeHandle::with_notifier`]) simply call again on the next
    /// wake. Never parks the calling thread.
    pub fn try_drain_one(&mut self) -> Option<Vec<ServeResult>> {
        while let Ok((batch, start, results)) = self.results.try_recv() {
            self.absorb(batch, start, results);
        }
        if !self.pending.front()?.complete() {
            return None;
        }
        Some(self.finish_front())
    }

    /// Blocks until **every** outstanding batch completes; returns them
    /// in submission order, each batch in input order.
    pub fn drain(&mut self) -> Vec<Vec<ServeResult>> {
        let mut out = Vec::with_capacity(self.pending.len());
        while let Some(batch) = self.drain_one() {
            out.push(batch);
        }
        out
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        // An mpsc receiver keeps yielding buffered messages after the
        // sender drops, so closing the queue alone would make workers
        // diagnose the whole undrained backlog first. The shutdown flag
        // turns that drain into discards: workers finish the run they
        // are on, skip everything still queued, and exit when the
        // closed queue empties — drop stays prompt even with batches in
        // flight. Release pairs with the workers' Acquire load, giving
        // the flag a synchronizing edge of its own instead of riding on
        // the channel's internal synchronization.
        self.shutdown.store(true, Ordering::Release);
        drop(self.jobs.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::TrajectoryBank;
    use crate::engine::EngineConfig;
    use crate::store::BankStore;
    use crate::synthetic::{synthetic_circuit_bank, synthetic_queries};
    use ft_core::{Signature, TestVector};

    /// Two CUTs, `a` and `b`, and `per_cut` requests for each,
    /// interleaved in one stream so every request switches CUT.
    fn two_cut_banks(per_cut: usize) -> ([TrajectoryBank; 2], Vec<DiagnosisRequest>) {
        let tv = TestVector::pair(0.5, 2.0);
        let a = synthetic_circuit_bank(2, 10.0, 9, &tv).unwrap();
        let b = synthetic_circuit_bank(3, 10.0, 9, &tv).unwrap();
        let qa = synthetic_queries(a.trajectory_set(), per_cut, 5);
        let qb = synthetic_queries(b.trajectory_set(), per_cut, 6);
        let requests = qa
            .into_iter()
            .zip(qb)
            .flat_map(|(sa, sb)| {
                [
                    DiagnosisRequest::new("a", sa),
                    DiagnosisRequest::new("b", sb),
                ]
            })
            .collect();
        ([a, b], requests)
    }

    fn two_cut_store() -> (Arc<BankStore>, Vec<DiagnosisRequest>) {
        let store = BankStore::in_memory(EngineConfig::default());
        let ([a, b], requests) = two_cut_banks(12);
        store.insert_bank("a", a).unwrap();
        store.insert_bank("b", b).unwrap();
        (Arc::new(store), requests)
    }

    #[test]
    fn pool_matches_sequential_store_at_every_worker_count() {
        let (store, requests) = two_cut_store();
        let reference: Vec<Diagnosis> = store
            .diagnose_batch(&requests)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        for workers in [1, 2, 8] {
            let mut handle = ServeHandle::new(Arc::clone(&store), workers);
            assert_eq!(handle.worker_count(), workers);
            let id = handle.submit(requests.clone());
            assert_eq!(id, 0);
            let mut batches = handle.drain();
            assert_eq!(batches.len(), 1);
            let got: Vec<Diagnosis> = batches.remove(0).into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(got, reference, "divergence at {workers} workers");
        }
    }

    #[test]
    fn batches_pipeline_and_complete_in_submission_order() {
        let (store, requests) = two_cut_store();
        let mut handle = ServeHandle::new(store, 3);
        let chunks: Vec<Vec<DiagnosisRequest>> = requests.chunks(7).map(|c| c.to_vec()).collect();
        let ids: Vec<BatchId> = chunks.iter().map(|c| handle.submit(c.clone())).collect();
        assert_eq!(ids, (0..chunks.len() as u64).collect::<Vec<_>>());
        assert_eq!(handle.pending_batches(), chunks.len());
        let drained = handle.drain();
        assert_eq!(handle.pending_batches(), 0);
        assert_eq!(drained.len(), chunks.len());
        for (chunk, batch) in chunks.iter().zip(&drained) {
            for (req, got) in chunk.iter().zip(batch) {
                let solo = handle.store().diagnose(req).unwrap();
                assert_eq!(got.as_ref().unwrap(), &solo);
            }
        }
    }

    #[test]
    fn errors_come_back_in_their_slot() {
        let (store, mut requests) = two_cut_store();
        requests.insert(
            3,
            DiagnosisRequest::new("ghost", Signature::new(vec![0.0; 2])),
        );
        let mut handle = ServeHandle::new(store, 2);
        handle.submit(requests.clone());
        let batch = handle.drain_one().unwrap();
        assert_eq!(batch.len(), requests.len());
        assert!(matches!(batch[3], Err(StoreError::UnknownCut(_))));
        assert!(batch.iter().enumerate().all(|(i, r)| i == 3 || r.is_ok()));
    }

    #[test]
    fn drop_with_undrained_backlog_neither_hangs_nor_panics() {
        for workers in [1usize, 2, 8] {
            let (store, requests) = two_cut_store();
            let mut handle = ServeHandle::new(store, workers);
            // Pile up far more work than the workers can finish, then
            // drop without draining: the shutdown flag discards the
            // backlog, so this returns promptly instead of diagnosing
            // it all.
            for _ in 0..200 {
                handle.submit(requests.clone());
            }
            // Draining one batch first guarantees the workers are mid-
            // stream when drop races them: the flag flips while runs of
            // later batches are genuinely in flight.
            let first = handle.drain_one().expect("first batch completes");
            assert_eq!(first.len(), requests.len());
            assert!(first.iter().all(|r| r.is_ok()));
            drop(handle);
        }
    }

    #[test]
    fn one_probe_per_cut_per_batch() {
        // Two file-backed CUTs and one worker: a batch of 16 requests
        // alternating the CUTs is cut into 4 runs, and every request
        // switches CUT, so a probe per resolve would cost 16 stats a
        // batch. Resolving as of the batch's submission costs 2.
        let dir = std::env::temp_dir().join("ft_pool_probe_count_test");
        std::fs::create_dir_all(&dir).unwrap();
        let ([a, b], batch) = two_cut_banks(8);
        a.save(dir.join("a.ftb")).unwrap();
        b.save(dir.join("b.ftb")).unwrap();
        let registry = Arc::new(MetricsRegistry::new());
        let store = BankStore::open(&dir, EngineConfig::default())
            .unwrap()
            .with_metrics(&registry);
        let mut handle = ServeHandle::with_metrics(Arc::new(store), 1, &registry);
        let mut serve = || {
            handle.submit(batch.clone());
            let results = handle.drain_one().unwrap();
            assert!(results.iter().all(|r| r.is_ok()));
        };
        let probes = || {
            registry
                .snapshot()
                .counter("store_generation_stats_total")
                .unwrap()
        };
        serve(); // warm-up: both shards load
        let before = probes();
        for _ in 0..5 {
            serve();
        }
        assert_eq!(probes() - before, 10, "one probe per CUT per batch");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_cache_revalidates_after_hot_reload() {
        // Two generations of one CUT, served through the pool: requests
        // drained before the swap answer on the old bank, and every
        // batch submitted after the rename — with two earlier batches
        // still in flight across it — on the new one, within one
        // long-lived handle, at every worker count.
        let tv = TestVector::pair(0.5, 2.0);
        let bank_old = synthetic_circuit_bank(2, 10.0, 9, &tv).unwrap();
        let bank_new = synthetic_circuit_bank(2, 20.0, 9, &tv).unwrap();
        // Distinct decode sizes ⇒ distinct (mtime, len) generations.
        assert_ne!(bank_old.to_bytes().len(), bank_new.to_bytes().len());

        let queries = synthetic_queries(bank_old.trajectory_set(), 6, 9);
        let requests: Vec<DiagnosisRequest> = queries
            .iter()
            .map(|q| DiagnosisRequest::new("cut", q.clone()))
            .collect();
        let ref_old = TrajectoryBank::from_bytes(&bank_old.to_bytes())
            .map(|b| crate::DiagnosisEngine::new(b, EngineConfig::default()))
            .unwrap();
        let ref_new = TrajectoryBank::from_bytes(&bank_new.to_bytes())
            .map(|b| crate::DiagnosisEngine::new(b, EngineConfig::default()))
            .unwrap();

        // A served answer is the reference engine's top-1 prefix, and
        // its verdict, ambiguity set and line are the full ranking's.
        fn served_as(
            engine: &crate::DiagnosisEngine,
            req: &DiagnosisRequest,
            got: &Diagnosis,
            what: &str,
        ) {
            assert_eq!(got, &engine.diagnose_topk(&req.signature, 1), "{what}");
            let full = engine.diagnose(&req.signature);
            assert_eq!(got.best(), full.best(), "{what}");
            assert_eq!(got.ambiguity_set(), full.ambiguity_set(), "{what}");
            assert_eq!(
                crate::cli::render_diagnosis_line(&req.cut_id, got),
                crate::cli::render_diagnosis_line(&req.cut_id, &full),
                "{what}"
            );
        }

        for workers in [1, 2, 8] {
            let dir = std::env::temp_dir().join(format!("ft_pool_reload_test_{workers}"));
            std::fs::create_dir_all(&dir).unwrap();
            bank_old.save(dir.join("cut.ftb")).unwrap();
            let store = Arc::new(BankStore::open(&dir, EngineConfig::default()).unwrap());
            let mut handle = ServeHandle::new(store, workers);
            handle.submit(requests.clone());
            let before = handle.drain_one().unwrap();
            for (req, got) in requests.iter().zip(&before) {
                served_as(
                    &ref_old,
                    req,
                    got.as_ref().unwrap(),
                    "pre-swap answers come from the old bank",
                );
            }

            // Two batches in flight, then an atomic replacement, as a
            // deployment would do it, then two more batches.
            handle.submit(requests.clone());
            handle.submit(requests.clone());
            let tmp = dir.join("cut.ftb.tmp");
            bank_new.save(&tmp).unwrap();
            std::fs::rename(&tmp, dir.join("cut.ftb")).unwrap();
            handle.submit(requests.clone());
            handle.submit(requests.clone());
            let batches = handle.drain();
            assert_eq!(batches.len(), 4);
            // A batch in flight across the rename may see either bank.
            for batch in &batches[..2] {
                for (req, got) in requests.iter().zip(batch) {
                    let got = got.as_ref().unwrap();
                    assert!(
                        got == &ref_old.diagnose_topk(&req.signature, 1)
                            || got == &ref_new.diagnose_topk(&req.signature, 1),
                        "in-flight answers come from one of the two banks"
                    );
                }
            }
            for batch in &batches[2..] {
                for (req, got) in requests.iter().zip(batch) {
                    served_as(
                        &ref_new,
                        req,
                        got.as_ref().unwrap(),
                        &format!(
                            "post-swap answers come from the rebuilt bank ({workers} workers)"
                        ),
                    );
                }
            }
            drop(handle);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn instrumented_pool_matches_plain_and_counts_traffic() {
        let (store, mut requests) = two_cut_store();
        requests.push(DiagnosisRequest::new("ghost", Signature::new(vec![0.0; 2])));

        let registry = Arc::new(MetricsRegistry::new());
        let mut plain = ServeHandle::new(Arc::clone(&store), 2);
        let mut metered = ServeHandle::with_metrics(Arc::clone(&store), 2, &registry);
        plain.submit(requests.clone());
        metered.submit(requests.clone());
        let reference = plain.drain_one().unwrap();
        let observed = metered.drain_one().unwrap();
        for (a, b) in reference.iter().zip(&observed) {
            match (a, b) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "metrics changed a diagnosis"),
                (Err(_), Err(_)) => {}
                _ => panic!("metrics changed an outcome"),
            }
        }

        let snap = registry.snapshot();
        let n = requests.len() as u64;
        assert_eq!(snap.counter("serve_requests_total"), Some(n));
        assert_eq!(snap.counter("serve_errors_total"), Some(1));
        assert_eq!(snap.gauge("pool_queue_depth"), Some(0), "queue drained");
        assert_eq!(snap.histogram("pool_batch_requests").unwrap().count, 1);
        assert_eq!(snap.histogram("serve_request_latency_us").unwrap().count, n);
        let jobs: u64 = snap
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("pool_worker_jobs_total{"))
            .map(|(_, v)| v)
            .sum();
        assert!(jobs > 0, "per-worker job counters record the runs");

        // A noop registry attaches nothing and registers nothing.
        let noop = Arc::new(MetricsRegistry::noop());
        let mut quiet = ServeHandle::with_metrics(Arc::clone(&store), 2, &noop);
        quiet.submit(requests.clone());
        quiet.drain();
        assert!(noop.snapshot().counters.is_empty());
        assert!(noop.snapshot().histograms.is_empty());
    }

    #[test]
    fn try_drain_with_notifier_matches_blocking_drain() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let (store, requests) = two_cut_store();
        // Batches of 5 are cut into several runs at either worker count
        // (3 runs at 1 worker, 5 at 3), and an empty batch sits in the
        // middle of the sequence.
        let mut chunks: Vec<Vec<DiagnosisRequest>> =
            requests.chunks(5).map(|c| c.to_vec()).collect();
        chunks.insert(2, Vec::new());
        let non_empty = chunks.iter().filter(|c| !c.is_empty()).count();
        for workers in [1, 3] {
            let mut blocking = ServeHandle::new(Arc::clone(&store), workers);
            for chunk in &chunks {
                blocking.submit(chunk.clone());
            }
            let reference = blocking.drain();

            let wakes = Arc::new(AtomicUsize::new(0));
            let registry = Arc::new(MetricsRegistry::noop());
            let counter = Arc::clone(&wakes);
            let mut handle = ServeHandle::with_notifier(
                Arc::clone(&store),
                workers,
                &registry,
                Arc::new(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                }),
            );
            assert!(handle.try_drain_one().is_none(), "nothing outstanding yet");
            for chunk in &chunks {
                handle.submit(chunk.clone());
            }
            let mut drained = Vec::new();
            while drained.len() < chunks.len() {
                match handle.try_drain_one() {
                    Some(batch) => drained.push(batch),
                    None => std::thread::yield_now(),
                }
            }
            assert!(handle.try_drain_one().is_none());
            // Dropping joins the workers, so every notify has returned.
            drop(handle);
            assert_eq!(
                wakes.load(Ordering::SeqCst),
                non_empty,
                "one wake per non-empty batch at {workers} workers"
            );
            assert_eq!(reference.len(), drained.len());
            for (a, b) in reference.iter().zip(&drained) {
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.as_ref().unwrap(), y.as_ref().unwrap());
                }
            }
        }
    }

    #[test]
    fn empty_and_repeated_drains_are_safe() {
        let (store, _) = two_cut_store();
        let mut handle = ServeHandle::new(store, 2);
        assert!(handle.drain_one().is_none());
        assert!(handle.drain().is_empty());
        let id = handle.submit(Vec::new());
        let batch = handle.drain_one().expect("empty batch completes");
        assert!(batch.is_empty(), "empty batch {id} yields no results");
        assert!(handle.drain_one().is_none());
    }
}
