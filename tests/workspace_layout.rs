//! Meta-test pinning the umbrella crate's public surface: every name the
//! examples and doc-tests rely on must stay importable from
//! `fault_trajectory::prelude`, and the per-crate module re-exports must
//! stay wired. A refactor that silently drops a re-export fails here at
//! compile time, with the few runtime asserts catching signature drift.

use fault_trajectory::prelude::*;

/// Compile-time pin: one typed binding per function the examples call.
/// Changing a signature or dropping a re-export breaks this test's build.
#[test]
fn prelude_exports_the_example_surface() {
    // Benchmark constructors.
    let _: fn(f64) -> Result<Benchmark, CircuitError> = tow_thomas_normalized;
    let _: fn() -> Result<Vec<Benchmark>, CircuitError> = all_benchmarks;

    // Measurement + trajectory pipeline entry points.
    let _: fn(&Circuit, &Circuit, &str, &Probe, &TestVector) -> Result<Signature, CircuitError> =
        measure_signature;
    let _ = trajectories_from_dictionary; // generic-free fn, existence pin
    let _ = select_test_vector;
    let _ = evaluate_classifier::<Diagnoser>;
    let _ = ambiguity_groups;

    // Core types must be nameable from the prelude.
    fn assert_named<T>() {}
    assert_named::<FaultUniverse>();
    assert_named::<FaultDictionary>();
    assert_named::<DeviationGrid>();
    assert_named::<TestVector>();
    assert_named::<Diagnoser>();
    assert_named::<DiagnoserConfig>();
    assert_named::<NnDictionary>();
    assert_named::<AtpgConfig>();
    assert_named::<EvalConfig>();
    assert_named::<FitnessKind>();
    assert_named::<GeometryOptions>();
    assert_named::<GaConfig>();
    assert_named::<Selection>();
    assert_named::<ParametricFault>();
    assert_named::<MeasurementNoise>();
    assert_named::<Tolerance>();
    assert_named::<FrequencyGrid>();
    assert_named::<TransferFunction>();
    assert_named::<Complex64>();
    assert_named::<TowThomasParams>();
    assert_named::<TransientOptions>();
    assert_named::<Waveform>();

    // Serving layer (ft-serve) surface.
    assert_named::<TrajectoryBank>();
    assert_named::<SegmentIndex>();
    assert_named::<DiagnosisEngine>();
    assert_named::<EngineConfig>();
    assert_named::<CodecError>();
    assert_named::<LinearScan>();
    let _: fn(&TrajectoryBank) -> Vec<u8> = TrajectoryBank::to_bytes;
    let _: fn(&[u8]) -> Result<TrajectoryBank, CodecError> = TrajectoryBank::from_bytes;
}

/// The per-crate module aliases (`fault_trajectory::circuit`, `::core`,
/// `::evolve`, `::faults`, `::numerics`) must each expose their crate root.
#[test]
fn module_aliases_reach_the_member_crates() {
    let _: fn(&[f64]) -> Option<f64> = fault_trajectory::numerics::stats::mean;
    let _ = fault_trajectory::circuit::parser::parse_netlist;
    let _ = fault_trajectory::faults::universe::DeviationGrid::paper;
    let _ = fault_trajectory::evolve::GaConfig::paper;
    let _ = fault_trajectory::core::fitness::evaluate_fitness;
    let _: fn(&[u8]) -> u64 = fault_trajectory::serve::codec::checksum;
}

/// The quickstart flow from `src/lib.rs` must keep running end to end
/// against the prelude alone (smaller grid for speed).
#[test]
fn prelude_quickstart_flow_runs() {
    let bench = tow_thomas_normalized(1.0).expect("benchmark builds");
    assert_eq!(bench.fault_set.len(), 7, "paper CUT has 7 passives");

    let universe = FaultUniverse::new(&bench.fault_set, DeviationGrid::paper());
    assert_eq!(universe.len(), 56, "7 passives × ±40% in 10% steps");

    let dict = FaultDictionary::build(
        &bench.circuit,
        &universe,
        &bench.input,
        &bench.probe,
        &FrequencyGrid::log_space(0.01, 100.0, 21),
    )
    .expect("dictionary builds");

    let tv = TestVector::pair(0.98, 2.5);
    let set = trajectories_from_dictionary(&dict, &tv);
    let diagnoser = Diagnoser::new(set, DiagnoserConfig::default());

    let mut faulty = bench.circuit.clone();
    faulty.set_value("R2", 1.25).expect("R2 exists");
    let sig = measure_signature(&faulty, &bench.circuit, &bench.input, &bench.probe, &tv)
        .expect("measures");
    assert_eq!(diagnoser.diagnose(&sig).best().component, "R2");
}
