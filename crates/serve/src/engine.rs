//! The online diagnosis engine: a loaded bank behind an index, serving
//! single and batched queries.
//!
//! The engine owns one immutable bank source — a fully decoded
//! [`TrajectoryBank`] or a shard's [`MappedBank`] handle — plus its
//! [`SegmentIndex`]; batched queries fan out over `std::thread::scope`
//! workers that share the engine by reference (everything inside is
//! plain immutable data, so the borrow is free) and write results into
//! disjoint output slots, preserving input order.
//!
//! A shard engine ([`DiagnosisEngine::load_mapped`]) reads only the
//! trajectory section at load; the dictionary and multi-fault sections
//! stay on disk, unread, which is what makes its cold load a fraction
//! of the full load on dictionary-heavy shards. The price:
//! [`DiagnosisEngine::bank`] is `None` for shard engines — tools that
//! need the dictionaries load the file with [`TrajectoryBank::load`].

use std::path::Path;
use std::sync::Arc;

use ft_core::{Diagnoser, DiagnoserConfig, Diagnosis, SegmentQuery, Signature, TrajectorySet};

use crate::bank::{MappedBank, TrajectoryBank};
use crate::codec::CodecError;
use crate::index::SegmentIndex;
use crate::obs::{EngineMetrics, SpanTimer};
use crate::store::FileGen;

/// Diagnoses a batch of signatures through an arbitrary query backend
/// with `std::thread::scope` workers, returning results in input order.
/// This is the engine's fan-out machinery exposed standalone so
/// benchmarks and the CLI can drive bare [`Diagnoser`] + backend pairs.
///
/// # Panics
///
/// Panics on signature dimension mismatch or if a worker panics.
pub fn diagnose_batch_with<B>(
    diagnoser: &Diagnoser,
    backend: &B,
    observed: &[Signature],
    workers: Option<usize>,
) -> Vec<Diagnosis>
where
    B: SegmentQuery + Sync + ?Sized,
{
    fan_out(observed, workers, |sig| {
        diagnoser.diagnose_with(backend, sig)
    })
}

/// [`diagnose_batch_with`] over the top-k / early-termination path:
/// each diagnosis ranks only the `k` best trajectories plus the rest of
/// the winner's ambiguity set (see [`Diagnoser::diagnose_topk`]).
///
/// # Panics
///
/// Panics if `k` is zero, on signature dimension mismatch, or if a
/// worker panics.
pub fn diagnose_batch_topk_with<B>(
    diagnoser: &Diagnoser,
    backend: &B,
    observed: &[Signature],
    k: usize,
    workers: Option<usize>,
) -> Vec<Diagnosis>
where
    B: SegmentQuery + Sync + ?Sized,
{
    fan_out(observed, workers, |sig| {
        diagnoser.diagnose_topk(backend, sig, k)
    })
}

/// Runs `diagnose` over `observed` on up to `workers` scoped threads
/// (`None`: the machine's available parallelism), one contiguous chunk
/// each, and returns the results in input order.
fn fan_out<F>(observed: &[Signature], workers: Option<usize>, diagnose: F) -> Vec<Diagnosis>
where
    F: Fn(&Signature) -> Diagnosis + Sync,
{
    let n = observed.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
        .clamp(1, n);
    let chunk = n.div_ceil(workers);
    let mut out: Vec<Option<Diagnosis>> = vec![None; n];
    let diagnose = &diagnose;
    std::thread::scope(|scope| {
        for (in_chunk, out_chunk) in observed.chunks(chunk).zip(out.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (sig, slot) in in_chunk.iter().zip(out_chunk.iter_mut()) {
                    *slot = Some(diagnose(sig));
                }
            });
        }
    });
    out.into_iter()
        .map(|d| d.expect("every batch slot is filled by exactly one worker"))
        .collect()
}

/// Engine configuration. Ranking depth is not configured:
/// [`DiagnosisEngine::diagnose`] and [`DiagnosisEngine::diagnose_batch`]
/// rank in full, and served requests take the top-1 prefix
/// ([`crate::store::diagnose_on`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EngineConfig {
    /// Diagnosis configuration (ambiguity ratio).
    pub diagnoser: DiagnoserConfig,
    /// Worker threads for batched queries; `None` uses the machine's
    /// available parallelism.
    pub workers: Option<usize>,
}

/// Where an engine's bank came from, and how much of it is decoded.
#[derive(Debug)]
enum BankSource {
    /// A fully decoded in-memory bank (built in-process or heap-loaded
    /// from a file). Boxed so the variant stays close in size to
    /// `Mapped` (a decoded bank is megabytes of owned vectors behind the
    /// box).
    Heap(Box<TrajectoryBank>),
    /// A shard read for serving; only the trajectory set is decoded
    /// (and it lives in the diagnoser, not here).
    Mapped(MappedBank),
}

/// A persistent, indexed, batched diagnosis engine over one bank.
#[derive(Debug)]
pub struct DiagnosisEngine {
    source: BankSource,
    index: SegmentIndex,
    diagnoser: Diagnoser,
    config: EngineConfig,
    metrics: Option<EngineMetrics>,
}

impl DiagnosisEngine {
    /// Builds the engine (and its spatial index) over a bank.
    ///
    /// # Panics
    ///
    /// Panics if the bank's trajectory set is empty.
    pub fn new(bank: TrajectoryBank, config: EngineConfig) -> Self {
        let index = SegmentIndex::build(bank.trajectory_set());
        let diagnoser = Diagnoser::new(bank.trajectory_set().clone(), config.diagnoser);
        DiagnosisEngine {
            source: BankSource::Heap(Box::new(bank)),
            index,
            diagnoser,
            config,
            metrics: None,
        }
    }

    /// Loads a bank file (full heap decode, every section verified) and
    /// builds the engine over it — the path of the single-bank CLI
    /// commands. The engine keeps no tie to the file: the store serves
    /// shards through [`DiagnosisEngine::load_mapped`] instead.
    ///
    /// # Errors
    ///
    /// Propagates bank I/O and decode errors, annotated with the file
    /// path ([`CodecError::InFile`]).
    pub fn load(path: impl AsRef<Path>, config: EngineConfig) -> Result<Self, CodecError> {
        Ok(DiagnosisEngine::new(TrajectoryBank::load(path)?, config))
    }

    /// Reads a bank file's trajectory section and builds the engine over
    /// it: the dictionary and multi-fault sections are never read
    /// ([`MappedBank::open`]), so [`bank`](DiagnosisEngine::bank) is
    /// `None`. The engine holds an owned copy of the trajectories, so
    /// rewriting or truncating the file afterwards cannot change its
    /// answers.
    ///
    /// Before the set serves, this checks the trajectory section's
    /// checksum, taken when `open` read it, and runs the deep content
    /// validation (finite coordinates, sound deviation ladders). A
    /// corrupt shard is therefore rejected at load.
    ///
    /// # Errors
    ///
    /// As [`DiagnosisEngine::load`]; corruption confined to sections
    /// diagnosis never reads (dictionary, multi-fault) does *not* fail
    /// the load (it surfaces when a tool loads the file with
    /// [`TrajectoryBank::load`]).
    pub fn load_mapped(path: impl AsRef<Path>, config: EngineConfig) -> Result<Self, CodecError> {
        let path = path.as_ref();
        let (mapped, set) = MappedBank::open(path)?;
        mapped.verify_trajectory_payload()?;
        set.validate_deep()
            .map_err(|msg| CodecError::Malformed(msg).in_file(path))?;
        let index = SegmentIndex::build(&set);
        let diagnoser = Diagnoser::new(set, config.diagnoser);
        Ok(DiagnosisEngine {
            source: BankSource::Mapped(mapped),
            index,
            diagnoser,
            config,
            metrics: None,
        })
    }

    /// Attaches observability handles: per-diagnose latency and path
    /// counters on this engine, and per-query work counters (nodes
    /// visited, segments examined, top-k early exits) on its index.
    /// Without this call every diagnose path is entirely uninstrumented
    /// (no clocks read, no atomics touched).
    pub fn set_metrics(&mut self, metrics: EngineMetrics) {
        self.index.set_counters(crate::index::IndexCounters {
            nodes_visited: Arc::clone(&metrics.index_nodes_visited),
            segments_examined: Arc::clone(&metrics.index_segments_examined),
            topk_early_exits: Arc::clone(&metrics.topk_early_exits),
        });
        self.metrics = Some(metrics);
    }

    /// The fully decoded bank, when this engine holds one (`None` for
    /// shard engines, which never read the dictionaries).
    #[inline]
    pub fn bank(&self) -> Option<&TrajectoryBank> {
        match &self.source {
            BankSource::Heap(bank) => Some(bank),
            BankSource::Mapped(_) => None,
        }
    }

    /// The trajectory set diagnosis runs against — always available,
    /// whatever the bank source.
    #[inline]
    pub fn trajectory_set(&self) -> &TrajectorySet {
        self.diagnoser.trajectory_set()
    }

    /// The shard file's generation at load time; `None` for heap
    /// engines, which keep no tie to a file. The store compares this
    /// against a fresh `stat` to detect rebuilt shards.
    #[inline]
    pub fn generation(&self) -> Option<FileGen> {
        match &self.source {
            BankSource::Heap(_) => None,
            BankSource::Mapped(mapped) => Some(mapped.generation()),
        }
    }

    /// Bytes this engine's shard holds resident — what the store's
    /// memory budget accounts per shard: for shard engines, the
    /// trajectory section's payload length, fixed at load (see
    /// [`MappedBank::resident_bytes`]); zero for heap engines, which the
    /// store only holds as pinned in-process banks that are never
    /// evicted or counted.
    #[inline]
    pub fn resident_bytes(&self) -> u64 {
        match &self.source {
            BankSource::Heap(_) => 0,
            BankSource::Mapped(mapped) => mapped.resident_bytes(),
        }
    }

    /// The spatial index in use.
    #[inline]
    pub fn index(&self) -> &SegmentIndex {
        &self.index
    }

    /// The engine configuration.
    #[inline]
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Diagnoses one observed signature through the spatial index,
    /// ranking every trajectory: the reference that served answers
    /// ([`DiagnosisEngine::diagnose_topk`] with `k = 1`) are compared
    /// against.
    ///
    /// # Panics
    ///
    /// Panics on signature dimension mismatch.
    pub fn diagnose(&self, observed: &Signature) -> Diagnosis {
        let _span = self.metrics.as_ref().map(|m| {
            m.indexed.inc();
            SpanTimer::start(Arc::clone(&m.diagnose_latency))
        });
        self.diagnoser.diagnose_with(&self.index, observed)
    }

    /// Diagnoses through the index's top-k / early-termination search:
    /// the ranking stops after the `k` best trajectories plus the
    /// winner's full ambiguity set, both provably identical to the full
    /// ranking's ([`Diagnoser::diagnose_topk`]). Every served request
    /// takes this path with `k = 1`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or on signature dimension mismatch.
    pub fn diagnose_topk(&self, observed: &Signature, k: usize) -> Diagnosis {
        let _span = self.metrics.as_ref().map(|m| {
            m.indexed.inc();
            SpanTimer::start(Arc::clone(&m.diagnose_latency))
        });
        self.diagnoser.diagnose_topk(&self.index, observed, k)
    }

    /// Diagnoses one observed signature with the exhaustive linear scan
    /// — the reference path the index must agree with bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics on signature dimension mismatch.
    pub fn diagnose_linear(&self, observed: &Signature) -> Diagnosis {
        let _span = self.metrics.as_ref().map(|m| {
            m.linear.inc();
            SpanTimer::start(Arc::clone(&m.diagnose_latency))
        });
        self.diagnoser.diagnose(observed)
    }

    /// Diagnoses a batch of observed signatures concurrently, returning
    /// full rankings ([`DiagnosisEngine::diagnose`]) in input order —
    /// the single-bank reference `ftd diagnose --requests` prints.
    ///
    /// # Panics
    ///
    /// Panics on signature dimension mismatch or if a worker panics.
    pub fn diagnose_batch(&self, observed: &[Signature]) -> Vec<Diagnosis> {
        self.batch(observed, true)
    }

    /// [`DiagnosisEngine::diagnose_batch`] over the linear path — kept
    /// for benchmarking the index's win under identical threading.
    ///
    /// # Panics
    ///
    /// As [`DiagnosisEngine::diagnose_batch`].
    pub fn diagnose_batch_linear(&self, observed: &[Signature]) -> Vec<Diagnosis> {
        self.batch(observed, false)
    }

    fn batch(&self, observed: &[Signature], indexed: bool) -> Vec<Diagnosis> {
        if indexed {
            diagnose_batch_with(&self.diagnoser, &self.index, observed, self.config.workers)
        } else {
            diagnose_batch_with(
                &self.diagnoser,
                &ft_core::LinearScan,
                observed,
                self.config.workers,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::synthetic_trajectory_set;
    use ft_core::TestVector;
    use ft_faults::{DeviationGrid, FaultDictionary, FaultUniverse};
    use ft_numerics::FrequencyGrid;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rc_engine(workers: Option<usize>) -> DiagnosisEngine {
        let mut ckt = ft_circuit::Circuit::new("rc");
        ckt.voltage_source("V1", "in", "0", 1.0).unwrap();
        ckt.resistor("R1", "in", "out", 1e3).unwrap();
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
        let bank = TrajectoryBank::build(dict, &TestVector::pair(100.0, 1e4));
        DiagnosisEngine::new(
            bank,
            EngineConfig {
                workers,
                ..EngineConfig::default()
            },
        )
    }

    #[test]
    fn indexed_and_linear_paths_agree() {
        let engine = rc_engine(Some(2));
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let sig = Signature::new(vec![rng.gen_range(-6.0..6.0), rng.gen_range(-6.0..6.0)]);
            assert_eq!(engine.diagnose(&sig), engine.diagnose_linear(&sig));
        }
    }

    #[test]
    fn batch_preserves_input_order() {
        let engine = rc_engine(Some(3));
        let mut rng = StdRng::seed_from_u64(6);
        let sigs: Vec<Signature> = (0..23)
            .map(|_| Signature::new(vec![rng.gen_range(-6.0..6.0), rng.gen_range(-6.0..6.0)]))
            .collect();
        let batched = engine.diagnose_batch(&sigs);
        assert_eq!(batched.len(), sigs.len());
        for (sig, got) in sigs.iter().zip(&batched) {
            assert_eq!(&engine.diagnose(sig), got, "order or result drift");
        }
        // Linear batch agrees too.
        assert_eq!(engine.diagnose_batch_linear(&sigs), batched);
    }

    #[test]
    fn batch_edge_cases() {
        let engine = rc_engine(None);
        assert!(engine.diagnose_batch(&[]).is_empty());
        let one = vec![Signature::new(vec![1.0, -1.0])];
        assert_eq!(engine.diagnose_batch(&one).len(), 1);
        // More workers than work.
        let engine = rc_engine(Some(64));
        assert_eq!(engine.diagnose_batch(&one).len(), 1);
    }

    #[test]
    fn mapped_engine_matches_heap_engine_exactly() {
        let heap = rc_engine(Some(2));
        let path = std::env::temp_dir().join("ft_serve_engine_mapped_test.ftb");
        heap.bank().expect("heap engine").save(&path).unwrap();
        let mapped = DiagnosisEngine::load_mapped(&path, heap.config()).unwrap();
        assert!(mapped.bank().is_none());
        assert_eq!(mapped.trajectory_set(), heap.trajectory_set());
        assert_eq!(mapped.generation(), Some(FileGen::probe(&path).unwrap()));
        assert!(mapped.resident_bytes() > 0);
        // Heap engines, loaded from a file or built in-process, keep no
        // tie to a file and pin nothing the store accounts.
        let loaded = DiagnosisEngine::load(&path, heap.config()).unwrap();
        for engine in [&loaded, &heap] {
            assert_eq!(engine.generation(), None);
            assert_eq!(engine.resident_bytes(), 0);
        }
        assert_eq!(loaded.trajectory_set(), heap.trajectory_set());
        std::fs::remove_file(&path).ok();

        let mut rng = StdRng::seed_from_u64(17);
        let sigs: Vec<Signature> = (0..40)
            .map(|_| Signature::new(vec![rng.gen_range(-6.0..6.0), rng.gen_range(-6.0..6.0)]))
            .collect();
        assert_eq!(mapped.diagnose_batch(&sigs), heap.diagnose_batch(&sigs));
        for sig in &sigs {
            assert_eq!(mapped.diagnose(sig), heap.diagnose(sig));
            assert_eq!(mapped.diagnose_linear(sig), heap.diagnose_linear(sig));
        }
    }

    #[test]
    fn attached_metrics_count_paths_and_preserve_output() {
        let plain = rc_engine(Some(2));
        let mut metered = rc_engine(Some(2));
        let registry = crate::obs::MetricsRegistry::new();
        metered.set_metrics(EngineMetrics::from_registry(&registry));
        let sig = Signature::new(vec![1.0, -2.0]);
        assert_eq!(plain.diagnose(&sig), metered.diagnose(&sig));
        assert_eq!(plain.diagnose_linear(&sig), metered.diagnose_linear(&sig));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("engine_diagnose_indexed_total"), Some(1));
        assert_eq!(snap.counter("engine_diagnose_linear_total"), Some(1));
        assert_eq!(
            snap.histogram("engine_diagnose_latency_us").unwrap().count,
            2
        );
    }

    #[test]
    fn topk_engine_keeps_rank1_and_ambiguity_set() {
        let full = rc_engine(Some(2));
        let mut topk = rc_engine(Some(2));
        let registry = crate::obs::MetricsRegistry::new();
        topk.set_metrics(EngineMetrics::from_registry(&registry));
        let mut rng = StdRng::seed_from_u64(21);
        let sigs: Vec<Signature> = (0..30)
            .map(|_| Signature::new(vec![rng.gen_range(-6.0..6.0), rng.gen_range(-6.0..6.0)]))
            .collect();
        let batched_full = full.diagnose_batch(&sigs);
        let batched_topk =
            diagnose_batch_topk_with(&topk.diagnoser, topk.index(), &sigs, 1, topk.config.workers);
        for ((sig, f), t) in sigs.iter().zip(&batched_full).zip(&batched_topk) {
            assert_eq!(f.best(), t.best(), "rank-1 drift at {sig}");
            assert_eq!(f.ambiguity_set(), t.ambiguity_set());
            assert_eq!(
                t.candidates(),
                &f.candidates()[..t.candidates().len()],
                "top-k is not a prefix at {sig}"
            );
            // Single-query path agrees with the batch.
            assert_eq!(&topk.diagnose_topk(sig, 1), t);
            assert_eq!(&full.diagnose_topk(sig, 1), t);
        }
        // The index counters flowed through EngineMetrics.
        let snap = registry.snapshot();
        assert!(snap.counter("engine_index_nodes_visited_total").unwrap() > 0);
        assert!(
            snap.counter("engine_index_segments_examined_total")
                .unwrap()
                > 0
        );
        // Only the single-query loop above counts here: batch accounting
        // lives in the pool layer, matching the full-ranking path.
        assert_eq!(
            snap.counter("engine_diagnose_indexed_total"),
            Some(sigs.len() as u64)
        );
    }

    #[test]
    fn batch_topk_helper_matches_single_calls() {
        let engine = rc_engine(Some(3));
        let mut rng = StdRng::seed_from_u64(22);
        let sigs: Vec<Signature> = (0..17)
            .map(|_| Signature::new(vec![rng.gen_range(-6.0..6.0), rng.gen_range(-6.0..6.0)]))
            .collect();
        let diagnoser = Diagnoser::new(engine.trajectory_set().clone(), engine.config().diagnoser);
        let batched = diagnose_batch_topk_with(&diagnoser, engine.index(), &sigs, 2, Some(3));
        assert_eq!(batched.len(), sigs.len());
        for (sig, got) in sigs.iter().zip(&batched) {
            assert_eq!(&engine.diagnose_topk(sig, 2), got);
        }
        assert!(diagnose_batch_topk_with(&diagnoser, engine.index(), &[], 2, None).is_empty());
    }

    #[test]
    fn engine_over_synthetic_bank_is_exact() {
        let set = synthetic_trajectory_set(24, 6, 2, 99);
        let idx = SegmentIndex::build(&set);
        let diag = Diagnoser::new(set, DiagnoserConfig::default());
        let mut rng = StdRng::seed_from_u64(100);
        for _ in 0..40 {
            let sig = Signature::new(vec![rng.gen_range(-8.0..8.0), rng.gen_range(-8.0..8.0)]);
            assert_eq!(diag.diagnose(&sig), diag.diagnose_with(&idx, &sig));
        }
    }
}
