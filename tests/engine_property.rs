//! Engine-vs-reference property tests.
//!
//! The stamp-split [`AcSweepEngine`] is the hot path under every
//! dictionary build, trajectory materialisation, and signature sample;
//! the assemble-per-frequency path (`sweep_reference`, `transfer`) stays
//! in the tree purely as the oracle. These tests pin the two together
//! over randomized RLC ladder/chain netlists (including inductor
//! branch-current unknowns and differential probes), randomized op-amp
//! filter parameterisations, randomized faults, and randomized grids:
//!
//! * magnitude agreement to ≤ 1e-9 dB wherever the response carries
//!   diagnostic information (above the −60 dB test floor; far below it
//!   both paths agree the response has vanished and the complex values
//!   are compared absolutely instead — at −100 dB a 1e-9 dB bound would
//!   demand relative accuracy beyond what *either* floating-point path
//!   can promise of itself);
//! * complex agreement `|He − Hr| ≤ 1e-10·(1 + |Hr|)` at every point;
//! * a singular system on one path is singular on the other;
//! * the rank-1 and rank-k batch fault sweeps reproduce cloned-and-rebuilt
//!   faulty circuits, and the rank-1 sweep prices every fault
//!   **bit-for-bit** the same however the universe is chunked — the
//!   property `ftd build-bank`'s byte identity rests on.

use fault_trajectory::circuit::{
    sweep_reference, tow_thomas, AcSweepEngine, Circuit, ComponentId, Probe, TowThomasParams,
};
use fault_trajectory::faults::{
    all_pairs, sample_tuple, sampled_tuples, MultiFault, MultiFaultDictionary,
};
use fault_trajectory::numerics::{decibel, Complex64};
use fault_trajectory::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// dB floor below which agreement is asserted on the complex values
/// instead of the (information-free) dB tail.
const DB_TEST_FLOOR: f64 = -60.0;
/// dB agreement bound above the floor.
const DB_TOL: f64 = 1e-9;

/// A randomized series/shunt ladder chain: series R/L/C elements between
/// consecutive nodes, a shunt R/L/C at every internal node, and a
/// resistive termination so the network is dissipative (no exactly
/// lossless resonances on the jω axis). Inductors exercise the MNA
/// branch-current unknowns.
fn random_chain(seed: u64) -> (Circuit, Probe, Vec<String>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_stages = rng.gen_range(2..5);
    let mut ckt = Circuit::new("random-chain");
    ckt.voltage_source("V1", "in", "0", 1.0).unwrap();
    let mut faultable = Vec::new();
    let mut prev = "in".to_string();
    for k in 0..n_stages {
        let node = format!("n{k}");
        let series = format!("S{k}");
        let v = rng.gen_range(0.2..5.0);
        match rng.gen_range(0..3) {
            0 => ckt.resistor(&series, &prev, &node, v).unwrap(),
            1 => ckt.inductor(&series, &prev, &node, v).unwrap(),
            _ => ckt.capacitor(&series, &prev, &node, v).unwrap(),
        };
        let shunt = format!("P{k}");
        let sv = rng.gen_range(0.2..5.0);
        match rng.gen_range(0..3) {
            0 => ckt.resistor(&shunt, &node, "0", sv).unwrap(),
            1 => ckt.capacitor(&shunt, &node, "0", sv).unwrap(),
            _ => ckt.inductor(&shunt, &node, "0", sv).unwrap(),
        };
        faultable.push(series);
        faultable.push(shunt);
        prev = node;
    }
    ckt.resistor("RL", &prev, "0", 1.0).unwrap();
    faultable.push("RL".to_string());
    let probe = if rng.gen_range(0..4) == 0 {
        // Differential probe across part of the chain.
        Probe::differential("n0", &prev)
    } else {
        Probe::node(&prev)
    };
    (ckt, probe, faultable)
}

/// A randomized op-amp benchmark (Tow-Thomas / Sallen-Key / MFB with
/// perturbed element values) — ideal-op-amp branch equations included.
fn random_opamp_benchmark(seed: u64) -> Benchmark {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v = || rng.gen_range(0.5..2.0);
    match seed % 3 {
        0 => {
            let params = TowThomasParams {
                r1: v(),
                r2: v(),
                r3: v(),
                r4: v(),
                r5: v(),
                r6: v(),
                c1: v(),
                c2: v(),
            };
            let circuit = tow_thomas(&params).unwrap();
            let mut bench = tow_thomas_normalized(1.0).unwrap();
            bench.circuit = circuit;
            bench
        }
        1 => fault_trajectory::circuit::sallen_key_lowpass(v(), v(), v(), v()).unwrap(),
        _ => fault_trajectory::circuit::mfb_lowpass(v(), v(), v(), v(), v()).unwrap(),
    }
}

fn random_grid(rng: &mut StdRng) -> FrequencyGrid {
    let lo = rng.gen_range(0.02..0.2);
    let hi = rng.gen_range(5.0..50.0);
    let points = rng.gen_range(7..31);
    FrequencyGrid::log_space(lo, hi, points)
}

/// Asserts the engine's responses `fast` agree with the reference's
/// `oracle` at `omegas` per the module contract.
fn assert_responses_agree(omegas: &[f64], fast: &[Complex64], oracle: &[Complex64]) {
    assert_eq!(fast.len(), oracle.len());
    for ((&w, he), hr) in omegas.iter().zip(fast).zip(oracle) {
        let abs_err = (*he - *hr).abs();
        assert!(
            abs_err <= 1e-10 * (1.0 + hr.abs()),
            "complex mismatch at ω={w}: {he} vs {hr} (|Δ|={abs_err:.3e})"
        );
        let db_e = decibel::clamp_db(he.abs_db(), -300.0);
        let db_r = decibel::clamp_db(hr.abs_db(), -300.0);
        if db_r.min(db_e) > DB_TEST_FLOOR {
            assert!(
                (db_e - db_r).abs() <= DB_TOL,
                "dB mismatch at ω={w}: {db_e} vs {db_r} (Δ={:.3e} dB)",
                (db_e - db_r).abs()
            );
        }
    }
}

/// Resolves a [`MultiFault`]'s names against `circuit` into the
/// `(ComponentId, faulty value)` tuples the engine consumes.
fn resolve_multifault(circuit: &Circuit, mf: &MultiFault) -> Vec<(ComponentId, f64)> {
    mf.faults()
        .iter()
        .map(|f| f.resolve(circuit).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engine_matches_reference_on_random_chains(seed in 0usize..1_000_000) {
        let (ckt, probe, _faultable) = random_chain(seed as u64);
        let mut rng = StdRng::seed_from_u64(seed as u64 ^ 0x9e37_79b9);
        let grid = random_grid(&mut rng);
        let oracle = sweep_reference(&ckt, "V1", &probe, &grid);
        let fast = AcSweepEngine::new(&ckt, "V1", &probe)
            .and_then(|mut e| e.sweep(&grid));
        match (fast, oracle) {
            (Ok(fast), Ok(oracle)) => {
                assert_responses_agree(grid.frequencies(), fast.values(), oracle.values())
            }
            // A (measure-zero) singular grid point must be singular on
            // both paths.
            (Err(CircuitError::Singular { .. }), Err(CircuitError::Singular { .. })) => {}
            (fast, oracle) => prop_assert!(
                false,
                "paths disagree on solvability: engine {fast:?} vs reference {oracle:?}"
            ),
        }
    }

    #[test]
    fn fault_sweep_matches_rebuilt_circuit_on_random_chains(seed in 0usize..1_000_000) {
        let (ckt, probe, faultable) = random_chain(seed as u64);
        let mut rng = StdRng::seed_from_u64(seed as u64 ^ 0x51ed_270b);
        let grid = random_grid(&mut rng);
        let component = &faultable[rng.gen_range(0..faultable.len())];
        let deviation = rng.gen_range(-0.6..1.0);
        let nominal = ckt.value(component).unwrap().unwrap();

        // Reference: clone, set the value, re-assemble everything.
        let mut faulty = ckt.clone();
        faulty.set_value(component, nominal * (1.0 + deviation)).unwrap();
        let oracle = sweep_reference(&faulty, "V1", &probe, &grid);

        // Engine: one rank-1 update of the nominal system.
        let fault = (ckt.find(component).unwrap(), nominal * (1.0 + deviation));
        let fast = AcSweepEngine::new(&ckt, "V1", &probe).and_then(|mut e| {
            let (mut golden, mut out) = (Vec::new(), Vec::new());
            e.sweep_faults_into(grid.frequencies(), &[fault], &mut golden, &mut out)?;
            Ok(out)
        });
        match (fast, oracle) {
            (Ok(out), Ok(oracle)) => {
                assert_responses_agree(grid.frequencies(), &out, oracle.values())
            }
            (
                Err(CircuitError::Singular { .. } | CircuitError::SingularFault { .. }),
                Err(CircuitError::Singular { .. }),
            ) => {}
            (fast, oracle) => prop_assert!(
                false,
                "paths disagree on solvability: engine {fast:?} vs reference {oracle:?}"
            ),
        }
    }

    #[test]
    fn multifault_engine_matches_apply_on_random_chains(seed in 0usize..1_000_000) {
        let (ckt, probe, faultable) = random_chain(seed as u64);
        let mut rng = StdRng::seed_from_u64(seed as u64 ^ 0x6a09_e667);
        let grid = random_grid(&mut rng);
        // A random double or triple fault on distinct chain components.
        let order = rng.gen_range(2..4usize).min(faultable.len());
        let mut faults: Vec<ParametricFault> = Vec::with_capacity(order);
        while faults.len() < order {
            let name = &faultable[rng.gen_range(0..faultable.len())];
            if faults.iter().all(|f| f.component() != name.as_str()) {
                faults.push(ParametricFault::from_percent(
                    name.clone(),
                    rng.gen_range(-60.0..100.0),
                ));
            }
        }
        let mf = MultiFault::new(faults);

        // Oracle: clone, apply every constituent fault, re-assemble.
        let oracle = mf
            .apply(&ckt)
            .and_then(|faulty| sweep_reference(&faulty, "V1", &probe, &grid));
        // Engine: one Woodbury rank-k pass over the nominal system.
        let targets = resolve_multifault(&ckt, &mf);
        let fast = AcSweepEngine::new(&ckt, "V1", &probe).and_then(|mut e| {
            let (mut golden, mut out) = (Vec::new(), Vec::new());
            e.sweep_multifaults_into(grid.frequencies(), &[targets], &mut golden, &mut out)?;
            Ok(out)
        });
        match (fast, oracle) {
            (Ok(out), Ok(oracle)) => {
                assert_responses_agree(grid.frequencies(), &out, oracle.values())
            }
            (
                Err(CircuitError::Singular { .. } | CircuitError::SingularFault { .. }),
                Err(CircuitError::Singular { .. }),
            ) => {}
            (fast, oracle) => prop_assert!(
                false,
                "paths disagree on solvability ({mf}): engine {fast:?} vs reference {oracle:?}"
            ),
        }
    }

    #[test]
    fn multifault_engine_matches_apply_on_random_opamp_filters(seed in 0usize..1_000_000) {
        let bench = random_opamp_benchmark(seed as u64);
        let mut rng = StdRng::seed_from_u64(seed as u64 ^ 0xbb67_ae85);
        let grid = random_grid(&mut rng);
        let universe = FaultUniverse::new(&bench.fault_set, DeviationGrid::paper());
        let order = rng.gen_range(2..4usize).min(universe.components().len());
        let mf = sample_tuple(&universe, &mut rng, order, 10.0);

        let faulty = mf.apply(&bench.circuit).unwrap();
        let oracle = sweep_reference(&faulty, &bench.input, &bench.probe, &grid).unwrap();
        let targets = resolve_multifault(&bench.circuit, &mf);
        let mut engine = AcSweepEngine::new(&bench.circuit, &bench.input, &bench.probe).unwrap();
        let (mut golden, mut out) = (Vec::new(), Vec::new());
        engine
            .sweep_multifaults_into(grid.frequencies(), &[targets], &mut golden, &mut out)
            .unwrap();
        assert_responses_agree(grid.frequencies(), &out, oracle.values());
    }

    #[test]
    fn engine_matches_reference_on_random_opamp_filters(seed in 0usize..1_000_000) {
        let bench = random_opamp_benchmark(seed as u64);
        let mut rng = StdRng::seed_from_u64(seed as u64 ^ 0x2545_f491);
        let grid = random_grid(&mut rng);
        let oracle = sweep_reference(&bench.circuit, &bench.input, &bench.probe, &grid).unwrap();
        let fast = AcSweepEngine::new(&bench.circuit, &bench.input, &bench.probe)
            .unwrap()
            .sweep(&grid)
            .unwrap();
        assert_responses_agree(grid.frequencies(), fast.values(), oracle.values());
    }

    #[test]
    fn dictionary_build_matches_reference_build(seed in 0usize..1_000_000) {
        let bench = random_opamp_benchmark(seed as u64);
        let universe = FaultUniverse::new(&bench.fault_set, DeviationGrid::new(40.0, 20.0));
        let grid = FrequencyGrid::log_space(0.05, 20.0, 9);
        let fast =
            FaultDictionary::build(&bench.circuit, &universe, &bench.input, &bench.probe, &grid)
                .unwrap();
        let oracle = FaultDictionary::build_reference(
            &bench.circuit,
            &universe,
            &bench.input,
            &bench.probe,
            &grid,
        )
        .unwrap();
        for (a, b) in fast.entries().iter().zip(oracle.entries()) {
            prop_assert_eq!(a.fault(), b.fault());
            for (x, y) in a.magnitude_db().iter().zip(b.magnitude_db()) {
                if x.min(*y) > DB_TEST_FLOOR {
                    prop_assert!(
                        (x - y).abs() <= DB_TOL,
                        "{}: {} vs {} dB", a.fault(), x, y
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Determinism regressions.
// ---------------------------------------------------------------------

/// The rank-1 sweep prices every fault of the paper universe bit for bit
/// the same however the universe is chunked or ordered: split into 2, 3,
/// 8 and 56 contiguous chunks (the split `FaultDictionary::build` makes
/// for that many workers), each on a fresh engine, and reversed on an
/// engine that has already swept the whole universe. This is the
/// property `ftd build-bank`'s byte identity across worker counts rests
/// on.
#[test]
fn fault_sweep_is_bit_identical_however_the_universe_is_chunked() {
    let bench = tow_thomas_normalized(1.0).unwrap();
    let universe = FaultUniverse::new(&bench.fault_set, DeviationGrid::paper());
    let grid = FrequencyGrid::log_space(0.01, 100.0, 41);
    let omegas = grid.frequencies();
    let n = omegas.len();
    let targets: Vec<(ComponentId, f64)> = universe
        .faults()
        .iter()
        .map(|f| f.resolve(&bench.circuit).unwrap())
        .collect();
    assert_eq!(targets.len(), 56);
    let engine = || AcSweepEngine::new(&bench.circuit, &bench.input, &bench.probe).unwrap();

    let mut whole_engine = engine();
    let (mut golden, mut whole) = (Vec::new(), Vec::new());
    whole_engine
        .sweep_faults_into(omegas, &targets, &mut golden, &mut whole)
        .unwrap();
    assert_eq!(golden, engine().sweep(&grid).unwrap().values());

    let (mut g, mut out) = (Vec::new(), Vec::new());
    for workers in [2, 3, 8, 56] {
        let len = targets.len().div_ceil(workers);
        for (c, chunk) in targets.chunks(len).enumerate() {
            engine()
                .sweep_faults_into(omegas, chunk, &mut g, &mut out)
                .unwrap();
            assert_eq!(g, golden, "{workers} chunks: chunk {c} golden");
            let start = c * len * n;
            assert_eq!(
                out[..],
                whole[start..start + chunk.len() * n],
                "{workers} chunks: chunk {c}"
            );
        }
    }

    let reversed: Vec<(ComponentId, f64)> = targets.iter().rev().copied().collect();
    whole_engine
        .sweep_faults_into(omegas, &reversed, &mut g, &mut out)
        .unwrap();
    assert_eq!(g, golden, "reversed: golden");
    for (fi, priced) in out.chunks(n).rev().enumerate() {
        assert_eq!(priced, &whole[fi * n..(fi + 1) * n], "reversed: fault {fi}");
    }
}

/// Two independent dictionary builds are exactly equal (f64-for-f64),
/// regardless of how the scheduler chunks faults across workers.
#[test]
fn dictionary_builds_are_deterministic() {
    let bench = tow_thomas_normalized(1.0).unwrap();
    let universe = FaultUniverse::new(&bench.fault_set, DeviationGrid::paper());
    let grid = FrequencyGrid::log_space(0.01, 100.0, 21);
    let a = FaultDictionary::build(&bench.circuit, &universe, &bench.input, &bench.probe, &grid)
        .unwrap();
    let b = FaultDictionary::build(&bench.circuit, &universe, &bench.input, &bench.probe, &grid)
        .unwrap();
    assert_eq!(a, b);
}

/// Multi-fault dictionaries are exactly equal (f64-for-f64) for every
/// worker count: the Woodbury pass prices each tuple from the nominal
/// factorization alone, so chunking cannot leak between entries.
#[test]
fn multifault_dictionary_builds_are_byte_identical_across_worker_counts() {
    let bench = tow_thomas_normalized(1.0).unwrap();
    let universe = FaultUniverse::new(&bench.fault_set, DeviationGrid::new(40.0, 20.0));
    let pairs = all_pairs(&universe);
    assert_eq!(pairs.len(), 21 * 16); // C(7,2) component pairs × 4² deviations
    let grid = FrequencyGrid::log_space(0.01, 100.0, 11);
    let base = MultiFaultDictionary::build_with_workers(
        &bench.circuit,
        &pairs,
        &bench.input,
        &bench.probe,
        &grid,
        1,
    )
    .unwrap();
    assert_eq!(base.len(), pairs.len());
    for workers in [2, 3, 8] {
        let other = MultiFaultDictionary::build_with_workers(
            &bench.circuit,
            &pairs,
            &bench.input,
            &bench.probe,
            &grid,
            workers,
        )
        .unwrap();
        assert_eq!(base, other, "worker count {workers} changed the dictionary");
    }
    let auto =
        MultiFaultDictionary::build(&bench.circuit, &pairs, &bench.input, &bench.probe, &grid)
            .unwrap();
    assert_eq!(base, auto);
}

/// A sampled triple-fault dictionary agrees with the
/// `MultiFault::apply` + `sweep_reference` oracle to the property bound.
#[test]
fn sampled_triple_dictionary_matches_reference() {
    let bench = tow_thomas_normalized(1.0).unwrap();
    let universe = FaultUniverse::new(&bench.fault_set, DeviationGrid::paper());
    let triples = sampled_tuples(&universe, 3, 25, 42);
    let grid = FrequencyGrid::log_space(0.01, 100.0, 9);
    let fast =
        MultiFaultDictionary::build(&bench.circuit, &triples, &bench.input, &bench.probe, &grid)
            .unwrap();
    let oracle = MultiFaultDictionary::build_reference(
        &bench.circuit,
        &triples,
        &bench.input,
        &bench.probe,
        &grid,
    )
    .unwrap();
    for (a, b) in fast.entries().iter().zip(oracle.entries()) {
        assert_eq!(a.fault(), b.fault());
        for (x, y) in a.magnitude_db().iter().zip(b.magnitude_db()) {
            if x.min(*y) > DB_TEST_FLOOR {
                assert!((x - y).abs() <= DB_TOL, "{}: {x} vs {y} dB", a.fault());
            }
        }
    }
}
