//! Traced replays of the offline phase: fault simulation, trajectory
//! materialisation, bank encoding, and the GA test-vector search.

use std::cell::RefCell;
use std::collections::HashSet;

use ft_circuit::AcSweepEngine;
use ft_core::{
    count_intersections, evaluate_fitness, genome_to_test_vector, scratch_pool_stats,
    select_test_vector, trajectories_from_dictionary, AtpgConfig, AtpgResult, TestVector,
    TrajectorySet, TrajectorySource,
};
use ft_evolve::RealVector;
use ft_faults::FaultDictionary;
use ft_serve::TrajectoryBank;

use crate::inputs::{paper_cut, Cut};
use crate::trace::Tracer;
use crate::util::{process_cpu_us, Metrics};

/// Replays each CUT's bank build one layer call at a time: dictionary
/// build, one single-thread engine fault sweep, materialisation and v3
/// encode.
pub fn build_replay(tr: &mut Tracer, cuts: &[(Cut, TestVector)], m: &mut Metrics) {
    let mut responses = 0u64;
    for (i, (cut, tv)) in cuts.iter().enumerate() {
        let id = i as u64;
        let dict = tr.span("faults.dictionary", id, |_| cut.dictionary());
        responses += (dict.entries().len() * dict.grid().len()) as u64;
        let b = &cut.bench;
        let targets: Vec<_> = cut
            .universe
            .faults()
            .iter()
            .map(|f| f.resolve(&b.circuit).expect("universe faults resolve"))
            .collect();
        tr.span("circuit.fault_sweep", id, |_| {
            let mut engine =
                AcSweepEngine::new(&b.circuit, &b.input, &b.probe).expect("engine builds");
            let (mut golden, mut out) = (Vec::new(), Vec::new());
            engine
                .sweep_faults_into(cut.grid.frequencies(), &targets, &mut golden, &mut out)
                .expect("fault sweep runs");
            std::hint::black_box(out.len());
        });
        let bank = tr.span("core.materialize", id, |_| TrajectoryBank::build(dict, tv));
        let bytes = tr.span("codec.encode", id, |_| bank.to_bytes());
        std::hint::black_box(bytes.len());
    }
    let totals = tr.totals();
    let mean_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_ns() / 1e6);
    m.put("faults.dictionary_ms", mean_ms("faults.dictionary"), "ms");
    m.put("faults.responses", responses as f64, "count");
    m.put(
        "circuit.fault_sweep_ms",
        mean_ms("circuit.fault_sweep"),
        "ms",
    );
    m.put("core.materialize_ms", mean_ms("core.materialize"), "ms");
    m.put("codec.encode_ms", mean_ms("codec.encode"), "ms");
}

/// Runs the paper's seeded GA search (`select_test_vector`) on the
/// paper CUT untraced, for its CPU per fitness evaluation, then replays
/// it through [`ga_replay`], which must land on the same test vector and
/// `I`. Returns the tracer and how many replays disagreed.
pub fn ga_search_replay(tr: Tracer, seed: u64, m: &mut Metrics) -> (Tracer, u64) {
    let cut = paper_cut();
    let dict = cut.dictionary();
    let config = AtpgConfig::paper_seeded(cut.bench.search_band, seed);
    let cpu0 = process_cpu_us();
    let expected = select_test_vector(&dict, &config);
    m.put(
        "evolve.cpu_us_per_eval",
        (process_cpu_us() - cpu0) / expected.evaluations.max(1) as f64,
        "us",
    );
    ga_replay(tr, &[(&dict, config, &expected)], m)
}

/// A [`TrajectorySource`] that records a span around every
/// materialisation the GA asks for.
struct TracedSource<'a> {
    dict: &'a FaultDictionary,
    tracer: &'a RefCell<Tracer>,
    evaluation: &'a std::cell::Cell<u64>,
}

impl TrajectorySource for TracedSource<'_> {
    fn trajectories_at(&self, tv: &TestVector) -> TrajectorySet {
        let span = self
            .tracer
            .borrow_mut()
            .begin("core.trajectories", self.evaluation.get());
        let set = trajectories_from_dictionary(self.dict, tv);
        self.tracer.borrow_mut().end(span);
        set
    }
}

/// Replays `select_test_vector` on every dictionary through a traced
/// source and a replica of its `ft_evolve::run` call, and checks that
/// the replica lands on the same test vector and `I` as `expected`.
/// Returns how many CUTs disagreed.
fn ga_replay(
    tr: Tracer,
    dicts: &[(&FaultDictionary, AtpgConfig, &AtpgResult)],
    m: &mut Metrics,
) -> (Tracer, u64) {
    let tracer = RefCell::new(tr);
    let evaluation = std::cell::Cell::new(0u64);
    let (mut calls, mut duplicates, mut mismatches) = (0u64, 0u64, 0u64);
    let (hits0, allocs0) = scratch_pool_stats();
    for (ci, (dict, config, expected)) in dicts.iter().enumerate() {
        let source = TracedSource {
            dict,
            tracer: &tracer,
            evaluation: &evaluation,
        };
        let (lo, hi) = config.band;
        let species = RealVector::new(vec![(lo.log10(), hi.log10()); config.n_frequencies]);
        let mut seen: HashSet<Vec<u64>> = HashSet::new();
        let run_span = tracer.borrow_mut().begin("evolve.run", ci as u64);
        let result = ft_evolve::run(
            &species,
            |genome: &Vec<f64>| {
                calls += 1;
                evaluation.set(calls);
                if !seen.insert(genome.iter().map(|g| g.to_bits()).collect()) {
                    duplicates += 1;
                }
                let call = tracer.borrow_mut().begin("evolve.fitness_call", calls);
                let tv = genome_to_test_vector(genome);
                let set = source.trajectories_at(&tv);
                let span = tracer.borrow_mut().begin("core.fitness", calls);
                let fitness = evaluate_fitness(&set, config.fitness, &config.geometry);
                let mut t = tracer.borrow_mut();
                t.end(span);
                t.end(call);
                fitness
            },
            &config.ga,
        );
        tracer.borrow_mut().end(run_span);
        let tv = genome_to_test_vector(&result.best);
        let i = count_intersections(&trajectories_from_dictionary(dict, &tv), &config.geometry);
        if tv != expected.test_vector || i != expected.intersections {
            mismatches += 1;
        }
    }
    let (hits1, allocs1) = scratch_pool_stats();
    let tr = tracer.into_inner();
    let totals = tr.totals();
    let t = |name: &str| totals.get(name).copied().unwrap_or_default();
    let runs = t("evolve.run");
    m.put(
        "core.trajectories_us",
        t("core.trajectories").mean_ns() / 1e3,
        "us",
    );
    m.put("core.fitness_us", t("core.fitness").mean_ns() / 1e3, "us");
    m.put(
        "evolve.self_ms",
        runs.self_ns as f64 / runs.count.max(1) as f64 / 1e6,
        "ms",
    );
    m.put("evolve.evaluations", calls as f64, "count");
    m.put(
        "evolve.duplicate_share",
        duplicates as f64 / calls.max(1) as f64,
        "share",
    );
    let (hits, allocs) = (hits1 - hits0, allocs1 - allocs0);
    m.put(
        "core.scratch_hit_share",
        hits as f64 / (hits + allocs).max(1) as f64,
        "share",
    );
    (tr, mismatches)
}
