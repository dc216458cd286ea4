//! The persistent serving front-end: a long-lived worker pool over a
//! shared [`BankStore`], and the crate's one concurrent executor.
//! `ftd serve`'s event loop (stdin and TCP alike) and `perfbench` both
//! serve through it.
//!
//! [`ServeHandle`] spawns its worker threads **once**, so sustained
//! traffic pays no per-batch thread spawn. A submitted batch is one
//! shared allocation holding its requests and a result slot for each,
//! queued once: workers claim contiguous runs of it through an atomic
//! cursor and write each result straight into its slot. The worker
//! whose run completes the batch wakes the drainer, once per batch.
//! Batches pipeline — a new batch can be submitted while earlier ones
//! are still in flight, and a worker moves on to the next queued batch
//! as soon as every run of the current one is claimed.
//!
//! Each request is answered by the call behind every served answer,
//! [`diagnose_on`] (the index's top-1 early-exit search), so a result
//! is a pure function of (bank, signature): **byte-identical** at every
//! worker count — scheduling affects only timing, never values or
//! order. It is the full ranking's prefix through the winner's
//! ambiguity set, not the full ranking; its rank 1, ambiguity set and
//! rendered line equal the linear scan's
//! ([`DiagnosisEngine::diagnose_linear`]), which `ftd diagnose
//! --requests` prints. [`BankStore::diagnose`] answers one request on
//! the caller's thread and is the pool's reference in the tests.
//!
//! [`DiagnosisEngine::diagnose_linear`]: crate::DiagnosisEngine::diagnose_linear
//! [`diagnose_on`]: crate::store::diagnose_on

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use ft_core::Diagnosis;

use crate::engine::DiagnosisEngine;
use crate::obs::{lock, Counter, MetricsRegistry, PoolMetrics};
use crate::store::{BankStore, DiagnosisRequest, StoreError};

/// The outcome of one request served through the pool. The
/// [`Diagnosis`] carries the ranked prefix through the winner's
/// ambiguity set — at least one candidate, not one per trajectory
/// ([`crate::store::diagnose_on`]); callers that want every rank call
/// [`crate::DiagnosisEngine::diagnose`].
pub type ServeResult = Result<Diagnosis, StoreError>;

/// Identifies a submitted batch; batches complete in submission order.
pub(crate) type BatchId = u64;

/// One submitted batch, shared by the handle and every worker serving
/// it. Workers claim contiguous runs of `run` requests rather than
/// single requests, which amortises the claim and the shard resolve
/// over several diagnoses while still giving the pool enough pieces to
/// balance load across workers.
struct Batch {
    requests: Vec<DiagnosisRequest>,
    /// When the batch was submitted: shards resolve as of this instant
    /// ([`BankStore::engine_since`]), and with metrics attached each
    /// request's end-to-end latency is recorded against it at drain.
    since: Instant,
    /// Requests per run.
    run: usize,
    /// The first request of the next unclaimed run. Each claim is one
    /// `fetch_add(run)`, so every run goes to exactly one worker; at or
    /// past `requests.len()` every run is claimed.
    next: AtomicUsize,
    /// One slot per request, filled once by the worker that claimed its
    /// run and emptied by the drain.
    slots: Box<[Mutex<Option<ServeResult>>]>,
    /// Requests whose result is not yet in its slot. The worker that
    /// takes it to zero wakes the drainer.
    unpublished: AtomicUsize,
}

impl Batch {
    /// Claims the next run of requests; `None` once every run is claimed.
    fn claim(&self) -> Option<Range<usize>> {
        // Relaxed: the cursor only has to hand out each run once; the
        // requests it indexes were published with the batch itself.
        let start = self.next.fetch_add(self.run, Ordering::Relaxed);
        let n = self.requests.len();
        (start < n).then(|| start..(start + self.run).min(n))
    }

    /// Whether more than one run is still unclaimed.
    fn has_spare_runs(&self) -> bool {
        self.next.load(Ordering::Relaxed) + self.run < self.requests.len()
    }

    /// Claims every run still unclaimed, serving none of them; returns
    /// how many runs that was.
    fn discard(&self) -> usize {
        let n = self.requests.len();
        let claimed = self.next.fetch_max(n, Ordering::Relaxed);
        n.saturating_sub(claimed).div_ceil(self.run)
    }

    /// Whether every result is in its slot. Acquire pairs with the
    /// workers' `AcqRel` count updates, so a caller that reads `true`
    /// finds every slot filled.
    fn complete(&self) -> bool {
        self.unpublished.load(Ordering::Acquire) == 0
    }
}

/// The queued batches, oldest first. Workers serve only the front one,
/// and the first worker to find it fully claimed unqueues it.
struct Queue {
    batches: VecDeque<Arc<Batch>>,
    /// Workers asleep on [`Shared::work`]: a submit signals it only when
    /// one is, since each signal is a syscall even with no waiter.
    idle: usize,
    /// Set on drop: workers exit instead of waiting for more batches.
    closed: bool,
}

/// What the handle and its workers share. Its locks recover from
/// poisoning: every update under them leaves the state valid, and
/// diagnoses, the one place a worker may panic, run with none held.
struct Shared {
    store: Arc<BankStore>,
    queue: Mutex<Queue>,
    /// Idle workers sleep here until a batch is queued or the pool
    /// closes.
    work: Condvar,
    /// Whether a blocking drain is asleep on `completed`.
    draining: Mutex<bool>,
    /// Signalled when a batch completes while a drain sleeps.
    completed: Condvar,
    notify: Option<Arc<dyn Fn() + Send + Sync>>,
    metrics: Option<PoolMetrics>,
}

/// [`diagnose_on`](crate::store::diagnose_on), with a panic reported in
/// the request's slot: a panicking diagnosis must not kill the worker,
/// or its run's slots would stay empty and the batch's drain would wait
/// forever (unlike `thread::scope`, which re-raises on join).
fn diagnose_caught(engine: &DiagnosisEngine, request: &DiagnosisRequest) -> ServeResult {
    std::panic::catch_unwind(AssertUnwindSafe(|| {
        crate::store::diagnose_on(engine, request)
    }))
    .unwrap_or_else(|panic| {
        let what = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        Err(StoreError::Panicked(what))
    })
}

impl Shared {
    /// One worker's life: claim and serve runs of the front batch, sleep
    /// while the queue is empty, return once the pool closes.
    fn work(&self, jobs: Option<Arc<Counter>>) {
        let mut queue = lock(&self.queue);
        loop {
            if queue.closed {
                return;
            }
            let Some(batch) = queue.batches.front().map(Arc::clone) else {
                queue.idle += 1;
                queue = self
                    .work
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
                queue.idle -= 1;
                continue;
            };
            // A submit wakes one sleeper; it wakes the next while the
            // batch has runs beyond the one it is about to claim.
            if queue.idle > 0 && batch.has_spare_runs() {
                self.work.notify_one();
            }
            drop(queue);
            while let Some(run) = batch.claim() {
                if let Some(m) = &self.metrics {
                    m.queue_depth.sub(1);
                }
                let len = run.len();
                self.serve_run(&batch, run);
                if let Some(jobs) = &jobs {
                    jobs.inc();
                }
                self.publish(&batch, len);
            }
            queue = lock(&self.queue);
            // Only the front batch is served, so a fully claimed batch
            // is either still the front or already unqueued.
            if queue
                .batches
                .front()
                .is_some_and(|front| Arc::ptr_eq(front, &batch))
            {
                queue.batches.pop_front();
            }
        }
    }

    /// Serves one run into its slots. Each shard resolves once per
    /// same-CUT stretch of the run, keeping the shard-map lock off the
    /// per-request path. Each resolve is as of the batch's submission,
    /// so the engine a stretch reuses is one its file had after the
    /// batch was submitted, which is all a fresh resolve would promise;
    /// and once one resolve has confirmed a CUT's generation, the
    /// batch's later resolves of that CUT, in any run, probe nothing.
    /// The cache names its CUT by the position of the request that
    /// resolved it, so a CUT switch clones no id.
    fn serve_run(&self, batch: &Batch, run: Range<usize>) {
        let mut cached: Option<(usize, Arc<DiagnosisEngine>)> = None;
        for at in run {
            let request = &batch.requests[at];
            let result = match &cached {
                Some((from, engine)) if batch.requests[*from].cut_id == request.cut_id => {
                    diagnose_caught(engine, request)
                }
                _ => match self.store.engine_since(&request.cut_id, batch.since) {
                    Ok(engine) => {
                        let result = diagnose_caught(&engine, request);
                        cached = Some((at, engine));
                        result
                    }
                    Err(e) => Err(e),
                },
            };
            let prev = lock(&batch.slots[at]).replace(result);
            debug_assert!(prev.is_none(), "slot filled twice");
        }
    }

    /// Publishes a served run of `len` requests. The worker that
    /// publishes a batch's last result wakes its drainer: the notifier,
    /// and a blocking drain if one sleeps.
    fn publish(&self, batch: &Batch, len: usize) {
        // Every slot write happens before its run's fetch_sub, and
        // AcqRel orders the batch's fetch_subs, so the worker that takes
        // the count to zero follows every slot write of the batch: a
        // drain after its wake finds the whole batch.
        if batch.unpublished.fetch_sub(len, Ordering::AcqRel) != len {
            return;
        }
        if let Some(notify) = &self.notify {
            notify();
        }
        // A blocking drain checks the count under this lock before it
        // sleeps, so by now it has either seen zero or is asleep.
        let mut draining = lock(&self.draining);
        if *draining {
            *draining = false;
            self.completed.notify_one();
        }
    }

    /// Blocks until `batch` completes.
    fn wait_for(&self, batch: &Batch) {
        if batch.complete() {
            return;
        }
        let mut draining = lock(&self.draining);
        while !batch.complete() {
            *draining = true;
            draining = self
                .completed
                .wait(draining)
                .unwrap_or_else(PoisonError::into_inner);
        }
        // A spurious wake can find the batch complete with the flag still
        // set: clear it, so no later completion signals a drain that is
        // not asleep.
        *draining = false;
    }
}

/// A persistent worker pool serving [`DiagnosisRequest`]s against a
/// shared [`BankStore`].
///
/// Submit batches with [`ServeHandle::submit`]; collect them, in
/// submission order, with [`ServeHandle::drain`] or
/// [`ServeHandle::drain_one`]. Workers live until the handle drops
/// (drop discards the unserved backlog and joins every thread).
pub struct ServeHandle {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Undrained batches in submission order.
    pending: VecDeque<Arc<Batch>>,
    next_batch: BatchId,
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
    /// Submitted batches wait in one queue, oldest first. Idle workers
    /// sleep on it; a worker claims runs of the front batch one at a
    /// time, so a free worker picks up the next run immediately and each
    /// run goes to exactly one worker.
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
    /// that publishes the batch's last result, after it is published —
    /// so a [`ServeHandle::try_drain_one`] after the wake finds the
    /// whole batch. A non-blocking front-end (the TCP event loop) uses
    /// this to wake its poller — e.g. by writing one byte to a self-pipe
    /// registered for read interest — instead of parking on the
    /// blocking [`ServeHandle::drain_one`]. An empty batch has no runs:
    /// it is complete at submit and never notifies.
    ///
    /// `notify` runs on worker threads and must be cheap and non-blocking.
    pub(crate) fn with_notifier(
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
        let shared = Arc::new(Shared {
            store,
            queue: Mutex::new(Queue {
                batches: VecDeque::new(),
                idle: 0,
                closed: false,
            }),
            work: Condvar::new(),
            draining: Mutex::new(false),
            completed: Condvar::new(),
            notify,
            metrics,
        });
        let threads = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let jobs = shared.metrics.as_ref().map(|m| m.worker_jobs(i));
                std::thread::spawn(move || shared.work(jobs))
            })
            .collect();
        ServeHandle {
            shared,
            workers: threads,
            pending: VecDeque::new(),
            next_batch: 0,
        }
    }

    /// The shared store the pool serves from.
    pub(crate) fn store(&self) -> &Arc<BankStore> {
        &self.shared.store
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues a batch and returns immediately — requests start being
    /// served while the caller prepares (or submits) the next batch.
    /// Results come back from [`ServeHandle::drain`] /
    /// [`ServeHandle::drain_one`] in submission order, each batch in
    /// input order.
    ///
    /// Workers claim the batch in runs of `ceil(n / (4 × workers))`
    /// contiguous requests (so a slow run cannot stall the batch behind
    /// one worker, yet the claims stay few); run boundaries never affect
    /// results, only scheduling.
    ///
    /// The batch is stamped with one submission instant before it is
    /// queued, and its shards resolve as of that instant. With the
    /// default [`crate::StoreConfig::min_stat_interval`], every request
    /// is answered from a generation its shard file had after the batch
    /// was submitted — a batch submitted after a rename completes is
    /// answered from the new file — at a cost of at most one `stat(2)`
    /// per CUT per batch (workers racing for one CUT may each probe it).
    pub fn submit(&mut self, requests: Vec<DiagnosisRequest>) -> BatchId {
        let id = self.next_batch;
        self.next_batch += 1;
        let n = requests.len();
        if let Some(m) = &self.shared.metrics {
            m.batch_sizes.record(n as u64);
        }
        let run = n.div_ceil(self.workers.len() * 4).max(1);
        let batch = Arc::new(Batch {
            requests,
            since: Instant::now(),
            run,
            next: AtomicUsize::new(0),
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            unpublished: AtomicUsize::new(n),
        });
        self.pending.push_back(Arc::clone(&batch));
        if n == 0 {
            return id; // no runs: complete at submit
        }
        if let Some(m) = &self.shared.metrics {
            m.queue_depth.add(n.div_ceil(run) as i64);
        }
        let mut queue = lock(&self.shared.queue);
        queue.batches.push_back(batch);
        let wake = queue.idle > 0;
        drop(queue);
        if wake {
            self.shared.work.notify_one();
        }
        id
    }

    /// Pops the completed oldest batch and returns it in input order.
    fn finish_front(&mut self) -> Vec<ServeResult> {
        let batch = self.pending.pop_front().expect("completed batch present");
        let results: Vec<ServeResult> = batch
            .slots
            .iter()
            .map(|slot| {
                lock(slot)
                    .take()
                    .expect("every slot filled before its batch completes")
            })
            .collect();
        if let Some(m) = &self.shared.metrics {
            m.requests.add(results.len() as u64);
            m.errors
                .add(results.iter().filter(|r| r.is_err()).count() as u64);
            // Every request in the batch shares the submit-to-drain wall
            // time: that is the latency a caller actually saw.
            let micros = batch.since.elapsed().as_micros().min(u64::MAX as u128) as u64;
            if !results.is_empty() {
                m.request_latency.record_n(micros, results.len() as u64);
            }
        }
        results
    }

    /// Blocks until the **oldest** outstanding batch completes and
    /// returns its results in input order; `None` when nothing is
    /// outstanding. Younger batches keep being served in the background
    /// while this waits, and the wait wakes once, when the worker that
    /// publishes a batch's last result finds it asleep.
    pub fn drain_one(&mut self) -> Option<Vec<ServeResult>> {
        self.shared.wait_for(self.pending.front()?);
        Some(self.finish_front())
    }

    /// Non-blocking [`ServeHandle::drain_one`]: returns the oldest batch
    /// **iff** it is complete. `None` means "nothing outstanding" or
    /// "oldest batch still in flight" — callers driven by a completion
    /// notifier (see [`ServeHandle::with_notifier`]) simply call again
    /// on the next wake. Never parks the calling thread.
    pub(crate) fn try_drain_one(&mut self) -> Option<Vec<ServeResult>> {
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
        // A dropped handle reads no more results: close the queue and
        // discard every unclaimed run, so workers finish the run they
        // are on and exit instead of diagnosing the backlog — drop stays
        // prompt even with batches in flight. The discarded runs leave
        // the depth gauge, so it returns to zero.
        let mut queue = lock(&self.shared.queue);
        queue.closed = true;
        for batch in queue.batches.drain(..) {
            let discarded = batch.discard();
            if let Some(m) = &self.shared.metrics {
                m.queue_depth.sub(discarded as i64);
            }
        }
        drop(queue);
        self.shared.work.notify_all();
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

    /// The sum of the `pool_worker_jobs_total{worker=…}` counters: runs
    /// served.
    fn worker_jobs(snap: &crate::obs::Snapshot) -> u64 {
        snap.counters
            .iter()
            .filter(|(name, _)| name.starts_with("pool_worker_jobs_total{"))
            .map(|(_, v)| v)
            .sum()
    }

    /// Both CUTs in one in-memory store, and `per_cut` requests for each.
    fn two_cut_store(per_cut: usize) -> (Arc<BankStore>, Vec<DiagnosisRequest>) {
        let store = BankStore::in_memory(EngineConfig::default());
        let ([a, b], requests) = two_cut_banks(per_cut);
        store.insert_bank("a", a).unwrap();
        store.insert_bank("b", b).unwrap();
        (Arc::new(store), requests)
    }

    #[test]
    fn pool_matches_sequential_store_at_every_worker_count() {
        let (store, requests) = two_cut_store(12);
        let reference: Vec<Diagnosis> = requests
            .iter()
            .map(|r| store.diagnose(r).unwrap())
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
        let (store, requests) = two_cut_store(12);
        let mut handle = ServeHandle::new(store, 3);
        let chunks: Vec<Vec<DiagnosisRequest>> = requests.chunks(7).map(|c| c.to_vec()).collect();
        let ids: Vec<BatchId> = chunks.iter().map(|c| handle.submit(c.clone())).collect();
        assert_eq!(ids, (0..chunks.len() as u64).collect::<Vec<_>>());
        assert_eq!(handle.pending.len(), chunks.len());
        let drained = handle.drain();
        assert_eq!(handle.pending.len(), 0);
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
        let (store, mut requests) = two_cut_store(12);
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
            let (store, requests) = two_cut_store(12);
            let registry = Arc::new(MetricsRegistry::new());
            // A worker that completes a batch parks in the notifier until
            // drop has discarded the backlog, so drop meets the workers
            // mid-stream and the backlog still queued.
            let park = Arc::new((Mutex::new(false), Condvar::new()));
            let parked = Arc::clone(&park);
            let mut handle = ServeHandle::with_notifier(
                store,
                workers,
                &registry,
                Arc::new(move || {
                    let (released, wake) = &*parked;
                    let mut released = lock(released);
                    while !*released {
                        released = wake.wait(released).unwrap();
                    }
                }),
            );
            for _ in 0..200 {
                handle.submit(requests.clone());
            }
            // Claims and drop's discard of the unclaimed runs both leave
            // the depth gauge, so it reads zero once drop has discarded
            // the backlog, and not before: a completion parks its worker.
            let depth = registry.gauge("pool_queue_depth");
            let releaser = std::thread::spawn(move || {
                while depth.get() != 0 {
                    std::thread::yield_now();
                }
                *lock(&park.0) = true;
                park.1.notify_all();
            });
            drop(handle);
            releaser.join().unwrap();
            // Before the discard, each completed batch parked its worker
            // and each other fully claimed batch had a run in progress on
            // a worker, so at most `workers` batches and part of the next
            // were claimed, and nothing after: the rest was discarded.
            let runs_per_batch = requests
                .len()
                .div_ceil(requests.len().div_ceil(4 * workers));
            let served = worker_jobs(&registry.snapshot());
            assert!(
                served <= ((workers + 1) * runs_per_batch) as u64,
                "drop served {served} runs at {workers} workers"
            );
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
            .map(|b| crate::DiagnosisEngine::new(b.into_trajectory_set(), EngineConfig::default()))
            .unwrap();
        let ref_new = TrajectoryBank::from_bytes(&bank_new.to_bytes())
            .map(|b| crate::DiagnosisEngine::new(b.into_trajectory_set(), EngineConfig::default()))
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
        let (store, mut requests) = two_cut_store(12);
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
        assert!(
            worker_jobs(&snap) > 0,
            "per-worker job counters record the runs"
        );

        // A noop registry attaches nothing and registers nothing.
        let noop = Arc::new(MetricsRegistry::noop());
        let mut quiet = ServeHandle::with_metrics(Arc::clone(&store), 2, &noop);
        quiet.submit(requests.clone());
        quiet.drain();
        assert!(noop.snapshot().counters.is_empty());
        assert!(noop.snapshot().histograms.is_empty());
    }

    #[test]
    fn every_batch_drains_after_its_wake() {
        // The event loop drains only after a notifier call, so a wake
        // that is lost, or that runs before its batch is complete, hangs
        // a connection. Drain only after a wake, and fail at a deadline.
        // Every tenth batch is empty: it has no runs, is complete at
        // submit and never notifies. Batches of up to 9 requests give
        // runs of 2 or 3 at 1 worker and of 2 at 2 workers, so a batch
        // whose last publish carries more than one result is counted.
        use std::sync::mpsc::channel;
        use std::time::Duration;

        let (store, requests) = two_cut_store(12);
        let reference: Vec<Diagnosis> = requests
            .iter()
            .map(|r| store.diagnose(r).unwrap())
            .collect();
        let batches: Vec<Range<usize>> = (0..200)
            .map(|k| {
                let n = k % 10;
                let start = k * 5 % (requests.len() - n + 1);
                start..start + n
            })
            .collect();
        for workers in [1, 2, 3, 8] {
            let (tx, rx) = channel();
            let registry = Arc::new(MetricsRegistry::noop());
            let mut handle = ServeHandle::with_notifier(
                Arc::clone(&store),
                workers,
                &registry,
                Arc::new(move || tx.send(()).expect("the test outlives the pool")),
            );
            assert!(handle.try_drain_one().is_none(), "nothing outstanding yet");
            let mut wakes = 0;
            let mut drained = 0;
            // Waves of 25 batches submitted back to back, each drained
            // before the next, so submits also find the workers asleep.
            for wave in batches.chunks(25) {
                for batch in wave {
                    handle.submit(requests[batch.clone()].to_vec());
                }
                let end = drained + wave.len();
                while drained < end {
                    rx.recv_timeout(Duration::from_secs(10))
                        .unwrap_or_else(|_| {
                            panic!("no wake for batch {drained} at {workers} workers")
                        });
                    wakes += 1;
                    while let Some(results) = handle.try_drain_one() {
                        let want = &reference[batches[drained].clone()];
                        assert_eq!(results.len(), want.len());
                        for (got, want) in results.iter().zip(want) {
                            assert_eq!(got.as_ref().unwrap(), want);
                        }
                        drained += 1;
                    }
                }
            }
            assert!(handle.try_drain_one().is_none());
            // Dropping joins the workers, so every notify has returned.
            drop(handle);
            wakes += rx.try_iter().count();
            let non_empty = batches.iter().filter(|b| !b.is_empty()).count();
            assert_eq!(
                wakes, non_empty,
                "one wake per non-empty batch at {workers} workers"
            );
        }
    }

    #[test]
    fn runs_cover_awkward_batch_sizes() {
        const SIZES: [usize; 10] = [0, 1, 2, 7, 8, 9, 33, 64, 65, 257];
        let (store, requests) = two_cut_store(129);
        let reference: Vec<Diagnosis> = requests
            .iter()
            .map(|r| store.diagnose(r).unwrap())
            .collect();
        for workers in [1, 2, 3, 8] {
            let registry = Arc::new(MetricsRegistry::new());
            let mut handle = ServeHandle::with_metrics(Arc::clone(&store), workers, &registry);
            let mut expected: VecDeque<&[Diagnosis]> = VecDeque::new();
            let check = |drained: Vec<Vec<ServeResult>>, expected: &mut VecDeque<_>| {
                for results in drained {
                    let want: &[Diagnosis] = expected.pop_front().expect("a batch in flight");
                    assert_eq!(results.len(), want.len(), "at {workers} workers");
                    for (got, want) in results.iter().zip(want) {
                        assert_eq!(got.as_ref().unwrap(), want, "at {workers} workers");
                    }
                }
            };
            // Up to three batches in flight, drained alternately one at
            // a time and all at once.
            let mut one_at_a_time = true;
            for (k, &n) in SIZES.iter().enumerate() {
                let start = k * 13 % (requests.len() - n + 1);
                handle.submit(requests[start..start + n].to_vec());
                expected.push_back(&reference[start..start + n]);
                if expected.len() == 3 {
                    let drained = if one_at_a_time {
                        vec![handle.drain_one().unwrap()]
                    } else {
                        handle.drain()
                    };
                    check(drained, &mut expected);
                    one_at_a_time = !one_at_a_time;
                }
            }
            check(handle.drain(), &mut expected);
            assert!(expected.is_empty());

            let snap = registry.snapshot();
            assert_eq!(
                snap.gauge("pool_queue_depth"),
                Some(0),
                "at {workers} workers"
            );
            let runs: usize = SIZES
                .iter()
                .filter(|&&n| n > 0)
                .map(|&n| n.div_ceil(n.div_ceil(4 * workers)))
                .sum();
            assert_eq!(
                worker_jobs(&snap),
                runs as u64,
                "one job per run at {workers} workers"
            );
        }
    }

    #[test]
    fn empty_and_repeated_drains_are_safe() {
        let (store, _) = two_cut_store(12);
        let mut handle = ServeHandle::new(store, 2);
        assert!(handle.drain_one().is_none());
        assert!(handle.drain().is_empty());
        let id = handle.submit(Vec::new());
        let batch = handle.drain_one().expect("empty batch completes");
        assert!(batch.is_empty(), "empty batch {id} yields no results");
        assert!(handle.drain_one().is_none());
    }
}
