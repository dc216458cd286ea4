//! Regeneration of the paper's figures (Figs. 1–3 and the §2.4 GA run).
//!
//! Each function returns the printable artifact; the `repro` binary
//! writes it to stdout. Axes and series mirror the paper: magnitude
//! responses in dB over a log-frequency grid (Fig. 1), the sampling
//! transformation into XY coordinate data (Fig. 2), the R3 fault
//! trajectory with a diagnosis example (Fig. 3), and the GA fitness
//! history (§2.4).

use ft_core::{
    measure_signature, sample_response_db, trajectories_from_dictionary, Diagnoser,
    DiagnoserConfig, TestVector,
};
use ft_faults::ParametricFault;

use crate::report::{num, Table};
use crate::setup::{ga_paper_result, paper_setup, PaperSetup};

/// Figure 1: golden behaviour and the fault-dictionary items of one
/// component (the paper plots R3), over a shared setup.
///
/// Output: one row per grid frequency; columns: golden plus each
/// deviation of `component`.
pub fn fig1_with(setup: &PaperSetup, component: &str) -> Table {
    let entries = setup.dict.entries_of(component);
    let mut headers: Vec<String> = vec!["omega_rad_s".into(), "golden_dB".into()];
    for e in &entries {
        headers.push(format!("{}_dB", e.fault()));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(
        format!("Figure 1 — golden behaviour & fault dictionary items ({component})"),
        &header_refs,
    );
    for (j, &w) in setup.dict.grid().frequencies().iter().enumerate() {
        let mut row = vec![format!("{w:.5e}"), num(setup.dict.golden_db()[j], 3)];
        for e in &entries {
            row.push(num(e.magnitude_db()[j], 3));
        }
        table.push_row(row);
    }
    table
}

/// Figure 2: the transformation of two curves (golden `H`, faulty `K`)
/// sampled at `f1`, `f2` into XY coordinate points.
///
/// The faulty curve is R3 at +30% (a dictionary item). The test vector is
/// the §2.4 GA result so the figure reflects the deployed frequencies.
pub fn fig2() -> Table {
    let setup = paper_setup();
    let tv = ga_paper_result(&setup).test_vector;
    fig2_with(&setup, &tv)
}

/// [`fig2`] with explicit setup and test vector.
///
/// # Panics
///
/// Panics if the CUT cannot be simulated (never for the stock setup).
pub fn fig2_with(setup: &PaperSetup, tv: &TestVector) -> Table {
    let fault = ParametricFault::from_percent("R3", 30.0);
    let faulty = fault.apply(&setup.bench.circuit).expect("R3 exists");

    let h = sample_response_db(
        &setup.bench.circuit,
        &setup.bench.input,
        &setup.bench.probe,
        tv,
    )
    .expect("golden samples");
    let k = sample_response_db(&faulty, &setup.bench.input, &setup.bench.probe, tv)
        .expect("faulty samples");

    let mut table = Table::new(
        "Figure 2 — sampling transformation into coordinate data",
        &[
            "curve",
            "f1_rad_s",
            "f2_rad_s",
            "X_dB",
            "Y_dB",
            "X-origin_dB",
            "Y-origin_dB",
        ],
    );
    let (f1, f2) = (tv.omegas()[0], tv.omegas()[1]);
    table.push_row(vec![
        "H (golden)".into(),
        num(f1, 4),
        num(f2, 4),
        num(h[0], 3),
        num(h[1], 3),
        num(0.0, 3),
        num(0.0, 3),
    ]);
    table.push_row(vec![
        format!("K ({fault})"),
        num(f1, 4),
        num(f2, 4),
        num(k[0], 3),
        num(k[1], 3),
        num(k[0] - h[0], 3),
        num(k[1] - h[1], 3),
    ]);
    table
}

/// Figure 3 (left): every component's fault trajectory at the GA test
/// vector, as (component, deviation, X, Y) rows.
pub fn fig3_trajectories() -> Table {
    let setup = paper_setup();
    let tv = ga_paper_result(&setup).test_vector;
    fig3_trajectories_with(&setup, &tv)
}

/// [`fig3_trajectories`] with explicit setup and test vector.
pub fn fig3_trajectories_with(setup: &PaperSetup, tv: &TestVector) -> Table {
    let set = trajectories_from_dictionary(&setup.dict, tv);
    let mut table = Table::new(
        format!("Figure 3 (left) — fault trajectories at {tv}"),
        &["component", "deviation_pct", "X_dB", "Y_dB"],
    );
    for t in set.views() {
        for (dev, point) in t.deviations_pct().iter().zip(t.points()) {
            table.push_row(vec![
                t.component().to_string(),
                num(*dev, 0),
                num(point[0], 4),
                num(point[1], 4),
            ]);
        }
    }
    table
}

/// Figure 3 (right): diagnosis of an unknown fault (R3 +25%, off the
/// dictionary grid) by perpendicular distance to the trajectories.
pub fn fig3_diagnosis() -> Table {
    let setup = paper_setup();
    let tv = ga_paper_result(&setup).test_vector;
    fig3_diagnosis_with(&setup, &tv, "R3", 25.0)
}

/// [`fig3_diagnosis`] with explicit unknown fault.
///
/// # Panics
///
/// Panics if `component` is not in the CUT.
pub fn fig3_diagnosis_with(
    setup: &PaperSetup,
    tv: &TestVector,
    component: &str,
    deviation_pct: f64,
) -> Table {
    let fault = ParametricFault::from_percent(component, deviation_pct);
    let faulty = fault.apply(&setup.bench.circuit).expect("fault applies");
    let observed = measure_signature(
        &faulty,
        &setup.bench.circuit,
        &setup.bench.input,
        &setup.bench.probe,
        tv,
    )
    .expect("measurement");

    let set = trajectories_from_dictionary(&setup.dict, tv);
    let diagnoser = Diagnoser::new(set, DiagnoserConfig::default());
    let verdict = diagnoser.diagnose(&observed);

    let mut table = Table::new(
        format!(
            "Figure 3 (right) — diagnosis of unknown fault {fault}: observed point ({}, {}) dB",
            num(observed.coords()[0], 4),
            num(observed.coords()[1], 4),
        ),
        &[
            "rank",
            "component",
            "perp_distance_dB",
            "estimated_deviation_pct",
            "in_ambiguity_set",
        ],
    );
    let ambiguity: Vec<&str> = verdict.ambiguity_set();
    for (rank, c) in verdict.candidates().iter().enumerate() {
        table.push_row(vec![
            format!("{}", rank + 1),
            c.component.clone(),
            num(c.distance, 4),
            num(c.deviation_pct, 1),
            if ambiguity.contains(&c.component.as_str()) {
                "yes".into()
            } else {
                "no".into()
            },
        ]);
    }
    table
}

/// Section 2.4: the GA run itself — per-generation fitness statistics and
/// the selected test vector.
pub fn ga24() -> (Table, Table) {
    let setup = paper_setup();
    ga24_with(&setup)
}

/// [`ga24`] with a shared setup.
pub fn ga24_with(setup: &PaperSetup) -> (Table, Table) {
    let result = ga_paper_result(setup);

    let mut history = Table::new(
        "Section 2.4 — GA fitness history (128 ind., 15 gen., 50% repr., 40% mut., roulette)",
        &["generation", "best", "mean", "worst"],
    );
    for s in &result.history {
        history.push_row(vec![
            format!("{}", s.generation),
            num(s.best, 6),
            num(s.mean, 6),
            num(s.worst, 6),
        ]);
    }

    let mut summary = Table::new(
        "Section 2.4 — selected test vector",
        &[
            "f1_rad_s",
            "f2_rad_s",
            "intersections_I",
            "fitness_1/(1+I)",
            "evaluations",
        ],
    );
    summary.push_row(vec![
        num(result.test_vector.omegas()[0], 4),
        num(result.test_vector.omegas()[1], 4),
        format!("{}", result.intersections),
        num(result.fitness, 6),
        format!("{}", result.evaluations),
    ]);
    (history, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::DICT_GRID_POINTS;

    #[test]
    fn fig1_shape() {
        let setup = paper_setup();
        let t = fig1_with(&setup, "R3");
        assert_eq!(t.len(), DICT_GRID_POINTS);
        let text = t.to_text();
        assert!(text.contains("R3+40%"));
        assert!(text.contains("golden_dB"));
    }

    #[test]
    fn fig2_has_golden_and_faulty_rows() {
        let setup = paper_setup();
        let tv = TestVector::pair(0.6, 1.6);
        let t = fig2_with(&setup, &tv);
        assert_eq!(t.len(), 2);
        let text = t.to_text();
        assert!(text.contains("H (golden)"));
        assert!(text.contains("K (R3+30%)"));
        // Golden origin-shifted coordinates are zero.
        assert!(text.contains("0.000"));
    }

    #[test]
    fn fig3_trajectory_rows() {
        let setup = paper_setup();
        let tv = TestVector::pair(0.6, 1.6);
        let t = fig3_trajectories_with(&setup, &tv);
        // 7 components × 9 points.
        assert_eq!(t.len(), 63);
    }

    #[test]
    fn fig3_diagnosis_ranks_all_components() {
        let setup = paper_setup();
        let tv = TestVector::pair(0.6, 1.6);
        let t = fig3_diagnosis_with(&setup, &tv, "R2", 25.0);
        assert_eq!(t.len(), 7);
        // R2 is a singleton class: it must be rank 1.
        let text = t.to_text();
        let first_row = text.lines().nth(3).unwrap();
        assert!(first_row.contains("R2"), "{first_row}");
    }

    #[test]
    fn ga24_tables() {
        let setup = paper_setup();
        let (history, summary) = ga24_with(&setup);
        assert_eq!(history.len(), 16);
        assert_eq!(summary.len(), 1);
    }
}
