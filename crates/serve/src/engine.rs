//! The online diagnosis engine: a trajectory set behind its index,
//! answering one signature per call.
//!
//! Diagnosis needs nothing but the trajectories, so an engine is a
//! [`TrajectorySet`], its [`SegmentIndex`] and a [`Diagnoser`]. It is
//! built in process ([`DiagnosisEngine::new`]) or read from a shard
//! file ([`DiagnosisEngine::open`]). Everything inside is plain
//! immutable data, so threads share an engine by reference; concurrent
//! serving is [`crate::ServeHandle`]'s job, not the engine's.
//!
//! [`DiagnosisEngine::open`] reads only the trajectory section; the
//! dictionary and multi-fault sections stay on disk, unread, which is
//! what makes a shard's cold load a fraction of the full load on
//! dictionary-heavy shards. Tools that need the dictionaries load the
//! file with [`TrajectoryBank::load`](crate::TrajectoryBank::load) and
//! keep that bank themselves.

use std::path::Path;
use std::sync::Arc;

use ft_core::{Diagnoser, DiagnoserConfig, Diagnosis, Signature, TrajectorySet};

use crate::bank::MappedBank;
use crate::codec::CodecError;
use crate::index::SegmentIndex;
use crate::obs::{EngineMetrics, SpanTimer};

/// Engine configuration. Ranking depth is not configured:
/// [`DiagnosisEngine::diagnose`] ranks in full, and served requests
/// take the top-1 prefix ([`crate::store::diagnose_on`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EngineConfig {
    /// Diagnosis configuration (ambiguity ratio).
    pub diagnoser: DiagnoserConfig,
}

/// A persistent, indexed diagnosis engine over one trajectory set.
#[derive(Debug)]
pub struct DiagnosisEngine {
    index: SegmentIndex,
    diagnoser: Diagnoser,
    metrics: Option<EngineMetrics>,
}

impl DiagnosisEngine {
    /// Builds the engine (and its spatial index) over a trajectory set.
    ///
    /// # Panics
    ///
    /// Panics if the set is empty.
    pub fn new(set: TrajectorySet, config: EngineConfig) -> Self {
        let index = SegmentIndex::build(&set);
        DiagnosisEngine {
            index,
            diagnoser: Diagnoser::new(set, config.diagnoser),
            metrics: None,
        }
    }

    /// Reads a shard file's trajectory section ([`MappedBank::open`])
    /// and builds the engine over it; the dictionary and multi-fault
    /// sections are never read. Before the set serves, this compares
    /// the section's checksum with the section table's and runs the
    /// deep content validation (finite coordinates, sound deviation
    /// ladders), so a corrupt shard is rejected here. The engine holds
    /// an owned copy of the trajectories: rewriting or truncating the
    /// file afterwards cannot change its answers.
    ///
    /// The returned handle describes the file that was read: its
    /// generation and the bytes the served shard holds.
    ///
    /// # Errors
    ///
    /// I/O, format-version, structural, checksum and content errors,
    /// annotated with the file path ([`CodecError::InFile`]).
    /// Corruption confined to sections diagnosis never reads
    /// (dictionary, multi-fault) does *not* fail the open; it surfaces
    /// when a tool loads the file with
    /// [`TrajectoryBank::load`](crate::TrajectoryBank::load).
    pub fn open(
        path: impl AsRef<Path>,
        config: EngineConfig,
    ) -> Result<(Self, MappedBank), CodecError> {
        let path = path.as_ref();
        let (shard, set) = MappedBank::open(path)?;
        shard.verify_trajectory_payload()?;
        set.validate_deep()
            .map_err(|msg| CodecError::Malformed(msg).in_file(path))?;
        Ok((DiagnosisEngine::new(set, config), shard))
    }

    /// Attaches observability handles: per-diagnose latency and path
    /// counters on this engine, and per-query work counters (nodes
    /// visited, segments examined, top-k early exits) on its index.
    /// Without this call every diagnose path is entirely uninstrumented
    /// (no clocks read, no atomics touched).
    pub(crate) fn set_metrics(&mut self, metrics: EngineMetrics) {
        self.index.set_counters(crate::index::IndexCounters {
            nodes_visited: Arc::clone(&metrics.index_nodes_visited),
            segments_examined: Arc::clone(&metrics.index_segments_examined),
            topk_early_exits: Arc::clone(&metrics.topk_early_exits),
        });
        self.metrics = Some(metrics);
    }

    /// The trajectory set diagnosis runs against.
    #[inline]
    pub fn trajectory_set(&self) -> &TrajectorySet {
        self.diagnoser.trajectory_set()
    }

    /// The spatial index in use.
    #[inline]
    pub fn index(&self) -> &SegmentIndex {
        &self.index
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::TrajectoryBank;
    use crate::store::FileGen;
    use crate::synthetic::synthetic_trajectory_set;
    use ft_core::TestVector;
    use ft_faults::{DeviationGrid, FaultDictionary, FaultUniverse};
    use ft_numerics::FrequencyGrid;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rc_bank() -> TrajectoryBank {
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
        TrajectoryBank::build(dict, &TestVector::pair(100.0, 1e4))
    }

    fn rc_engine() -> DiagnosisEngine {
        DiagnosisEngine::new(rc_bank().trajectory_set().clone(), EngineConfig::default())
    }

    #[test]
    fn indexed_and_linear_paths_agree() {
        let engine = rc_engine();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let sig = Signature::new(vec![rng.gen_range(-6.0..6.0), rng.gen_range(-6.0..6.0)]);
            assert_eq!(engine.diagnose(&sig), engine.diagnose_linear(&sig));
        }
    }

    #[test]
    fn opened_engine_matches_built_engine_exactly() {
        let built = rc_engine();
        let path = std::env::temp_dir().join("ft_serve_engine_open_test.ftb");
        rc_bank().save(&path).unwrap();
        let (opened, shard) = DiagnosisEngine::open(&path, EngineConfig::default()).unwrap();
        assert_eq!(opened.trajectory_set(), built.trajectory_set());
        // The handle describes the file that was read.
        assert_eq!(shard.generation(), FileGen::probe(&path).unwrap());
        assert!(shard.resident_bytes() > 0);
        std::fs::remove_file(&path).ok();

        let mut rng = StdRng::seed_from_u64(17);
        let sigs: Vec<Signature> = (0..40)
            .map(|_| Signature::new(vec![rng.gen_range(-6.0..6.0), rng.gen_range(-6.0..6.0)]))
            .collect();
        for sig in &sigs {
            assert_eq!(opened.diagnose(sig), built.diagnose(sig));
            assert_eq!(opened.diagnose_linear(sig), built.diagnose_linear(sig));
        }
    }

    #[test]
    fn attached_metrics_count_paths_and_preserve_output() {
        let plain = rc_engine();
        let mut metered = rc_engine();
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
        let full = rc_engine();
        let mut topk = rc_engine();
        let registry = crate::obs::MetricsRegistry::new();
        topk.set_metrics(EngineMetrics::from_registry(&registry));
        let mut rng = StdRng::seed_from_u64(21);
        let sigs: Vec<Signature> = (0..30)
            .map(|_| Signature::new(vec![rng.gen_range(-6.0..6.0), rng.gen_range(-6.0..6.0)]))
            .collect();
        for sig in &sigs {
            let f = full.diagnose(sig);
            let t = topk.diagnose_topk(sig, 1);
            assert_eq!(f.best(), t.best(), "rank-1 drift at {sig}");
            assert_eq!(f.ambiguity_set(), t.ambiguity_set());
            assert_eq!(
                t.candidates(),
                &f.candidates()[..t.candidates().len()],
                "top-k is not a prefix at {sig}"
            );
            // Metrics never change an answer.
            assert_eq!(full.diagnose_topk(sig, 1), t);
        }
        // The index counters flowed through EngineMetrics.
        let snap = registry.snapshot();
        assert!(snap.counter("engine_index_nodes_visited_total").unwrap() > 0);
        assert!(
            snap.counter("engine_index_segments_examined_total")
                .unwrap()
                > 0
        );
        // One count per top-1 call on the metered engine.
        assert_eq!(
            snap.counter("engine_diagnose_indexed_total"),
            Some(sigs.len() as u64)
        );
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
