//! Smoke tests over the experiment harness: every figure and table of the
//! paper regenerates with the expected shape and internally consistent
//! numbers, and each table regenerated here matches the committed paper
//! pin (`crates/bench/REPRO_all.csv`) byte for byte.

use ft_bench::{figures, paper_setup, tables, Table, PAPER_SEED};

/// The paper pin: every table `repro all --csv` prints, byte for byte.
const PINNED: &str = include_str!("../crates/bench/REPRO_all.csv");

/// Asserts that `t` regenerates exactly as pinned.
fn assert_pinned(t: &Table) {
    let csv = t.to_csv();
    assert!(PINNED.contains(&csv), "not in REPRO_all.csv:\n{csv}");
}

#[test]
fn fig1_regenerates() {
    let setup = paper_setup();
    let t = figures::fig1_with(&setup, "R3");
    assert_eq!(t.len(), 41);
    assert_pinned(&t);
    let csv = t.to_csv();
    assert!(csv.contains("golden_db") || csv.contains("golden_dB"));
    assert!(csv.contains("R3-40%"));
    assert!(csv.contains("R3+40%"));
}

#[test]
fn fig2_and_fig3_regenerate() {
    // These run the full seeded GA internally; keep to one test for time.
    let t2 = figures::fig2();
    assert_eq!(t2.len(), 2);
    let t3a = figures::fig3_trajectories();
    assert_eq!(t3a.len(), 7 * 9);
    let t3b = figures::fig3_diagnosis();
    assert_eq!(t3b.len(), 7);
    for t in [&t2, &t3a, &t3b] {
        assert_pinned(t);
    }
    // The diagnosed unknown (R3 +25%) must rank its class first.
    let text = t3b.to_text();
    let first = text.lines().nth(3).expect("first data row");
    assert!(
        first.contains("R3") || first.contains("R5"),
        "top rank should be the R3/R5 class: {first}"
    );
}

#[test]
fn ga24_history_is_consistent() {
    let setup = paper_setup();
    let (history, summary) = figures::ga24_with(&setup);
    assert_eq!(history.len(), 16); // initial + 15 generations
    assert_eq!(summary.len(), 1);
    assert_pinned(&history);
    assert_pinned(&summary);
    // With elitism the best column never decreases.
    let text = history.to_csv();
    let bests: Vec<f64> = text
        .lines()
        .skip(2)
        .map(|l| l.split(',').nth(1).unwrap().parse().unwrap())
        .collect();
    for w in bests.windows(2) {
        assert!(w[1] >= w[0] - 1e-12, "best degraded: {w:?}");
    }
}

#[test]
fn table_accuracy_has_expected_rows() {
    let t = tables::table_accuracy();
    assert_eq!(t.len(), 4); // GA + 3 baselines
    assert_pinned(&t);
    let csv = t.to_csv();
    assert!(csv.contains("GA (paper 2.4)"));
    assert!(csv.contains("random"));
    assert!(csv.contains("grid"));
    assert!(csv.contains("sensitivity"));
}

#[test]
fn table_noise_row_count() {
    let t = tables::table_noise();
    assert_eq!(t.len(), 5 * 3); // 5 noise levels × 3 tolerances
    assert_pinned(&t);
}

#[test]
fn table_methods_compares_two_classifiers() {
    let t = tables::table_diagnosis_methods();
    assert_eq!(t.len(), 2);
    assert_pinned(&t);
    let csv = t.to_csv();
    assert!(csv.contains("fault trajectory"));
    assert!(csv.contains("nearest-neighbour"));
}

#[test]
fn table_multiprobe_adds_classes() {
    let t = tables::table_multiprobe();
    assert_eq!(t.len(), 3);
    assert_pinned(&t);
    let csv = t.to_csv();
    // Single probe: 5 classes; all three probes: 6 (R3/R5 split).
    let rows: Vec<&str> = csv.lines().skip(2).collect();
    let classes: Vec<usize> = rows
        .iter()
        .map(|r| r.split(',').nth(1).unwrap().parse().unwrap())
        .collect();
    assert_eq!(classes[0], 5);
    assert_eq!(classes[2], 6);
}

#[test]
fn table_encoding_rows() {
    let t = tables::table_encoding();
    assert_eq!(t.len(), 3);
    assert_pinned(&t);
    let csv = t.to_csv();
    assert!(csv.contains("real (BLX-0.5)"));
    assert!(csv.contains("binary 8-bit"));
    assert!(csv.contains("binary 16-bit"));
}

#[test]
fn table_double_faults_shows_degradation() {
    let t = tables::table_double_faults();
    assert_eq!(t.len(), 2);
    assert_pinned(&t);
    let csv = t.to_csv();
    let rows: Vec<&str> = csv.lines().skip(2).collect();
    let residual = |row: &str| -> f64 { row.split(',').nth(4).unwrap().parse().unwrap() };
    // Double-fault residual distance is far larger than single-fault:
    // the trajectory model detects its own assumption violation.
    assert!(residual(rows[1]) > 10.0 * residual(rows[0]));
}

#[test]
fn structural_classes_stable_for_straddling_vectors() {
    // For test vectors straddling ω₀ the class structure is the
    // circuit's: 5 classes with {R3,R5} and {R4,C2} merged.
    let setup = paper_setup();
    for lo in [0.3, 0.5, 0.8] {
        let tv = ft_core::TestVector::pair(lo, 3.0);
        let classes = tables::structural_classes(&setup.dict, &tv);
        assert_eq!(classes.len(), 5, "lo = {lo}: {:?}", classes.groups());
    }
    let _ = PAPER_SEED;
}

#[test]
fn asymptotic_vectors_nearly_merge_gain_and_frequency_faults() {
    // With both frequencies far above ω₀, |H| → 1/(R1·C1·R4·C2·ω²):
    // gain faults (R1) and ω₀ faults (C1) collapse onto the same dB
    // diagonal up to O(ω₀²/ω²) corrections. The pair separation shrinks
    // by orders of magnitude relative to a straddling test vector —
    // the quantitative reason the paper optimises frequency placement.
    use ft_core::{pair_separation, trajectories_from_dictionary, GeometryOptions, TestVector};
    let setup = paper_setup();
    let opts = GeometryOptions::default();

    let straddling = TestVector::pair(0.8, 3.0);
    let set = trajectories_from_dictionary(&setup.dict, &straddling);
    let good_sep = pair_separation(&set, "R1", "C1", &opts).unwrap();

    let asymptotic = TestVector::pair(20.0, 60.0);
    let set = trajectories_from_dictionary(&setup.dict, &asymptotic);
    let bad_sep = pair_separation(&set, "R1", "C1", &opts).unwrap();

    assert!(
        bad_sep < good_sep / 10.0,
        "asymptotic separation {bad_sep} should be ≪ straddling {good_sep}"
    );
    assert!(
        bad_sep < 0.1,
        "R1/C1 nearly coincide in the asymptote: {bad_sep} dB"
    );
}
