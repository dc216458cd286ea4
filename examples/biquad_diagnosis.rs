//! Full paper pipeline on the Tow-Thomas CUT: dictionary → GA test vector
//! → trajectory diagnosis of a batch of unknown faults, with the
//! structural ambiguity classes ({R3,R5} and {R4,C2}) made explicit.
//!
//! ```sh
//! cargo run --release --example biquad_diagnosis
//! ```

use fault_trajectory::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = tow_thomas_normalized(1.0)?;
    let universe = FaultUniverse::new(&bench.fault_set, DeviationGrid::paper());
    let dict = FaultDictionary::build(
        &bench.circuit,
        &universe,
        &bench.input,
        &bench.probe,
        &FrequencyGrid::log_space(0.01, 100.0, 41),
    )?;

    let atpg = select_test_vector(&dict, &AtpgConfig::paper_seeded(bench.search_band, 2005));
    println!("GA test vector: {}\n", atpg.test_vector);

    // The structural ambiguity classes at this test vector.
    let groups = ambiguity_groups(&atpg.trajectories, 1e-6, &GeometryOptions::default());
    println!("ambiguity classes ({}):", groups.len());
    for g in groups.groups() {
        println!("  {{{}}}", g.join(", "));
    }
    println!();

    let diagnoser = Diagnoser::new(atpg.trajectories.clone(), DiagnoserConfig::default());

    // Diagnose one off-grid fault per component.
    let cases: Vec<(&str, f64)> = vec![
        ("R1", 25.0),
        ("R2", -15.0),
        ("R3", 33.0),
        ("R4", -22.0),
        ("R5", 18.0),
        ("C1", -35.0),
        ("C2", 27.0),
    ];
    let mut component_hits = 0;
    let mut class_hits = 0;
    println!(
        "{:<12} {:<10} {:<22} class-correct",
        "true fault", "top-1", "estimate"
    );
    for (component, pct) in &cases {
        let fault = ParametricFault::from_percent(*component, *pct);
        let faulty = fault.apply(&bench.circuit)?;
        let sig = measure_signature(
            &faulty,
            &bench.circuit,
            &bench.input,
            &bench.probe,
            &atpg.test_vector,
        )?;
        let verdict = diagnoser.diagnose(&sig);
        let best = verdict.best();
        let class_ok = groups
            .group_of(component)
            .is_some_and(|g| g.iter().any(|c| c == &best.component));
        if best.component == *component {
            component_hits += 1;
        }
        if class_ok {
            class_hits += 1;
        }
        println!(
            "{:<12} {:<10} {:<22} {}",
            format!("{fault}"),
            best.component,
            format!("{:+.1}% (true {:+.0}%)", best.deviation_pct, pct),
            if class_ok { "yes" } else { "NO" },
        );
    }
    println!(
        "\ncomponent-level: {component_hits}/{} correct; class-level: {class_hits}/{} correct",
        cases.len(),
        cases.len()
    );
    println!(
        "(faults inside {{R3,R5}} and {{R4,C2}} are provably indistinguishable \
         from a single low-pass output — see the tow_thomas_structural_ambiguity_pairs \
         test in crates/circuit/src/library.rs)"
    );
    Ok(())
}
