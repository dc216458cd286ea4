//! Extended experiment tables (T-A … T-G of DESIGN.md).
//!
//! The paper's evaluation is qualitative (figures); these tables quantify
//! its claims: GA versus baseline selectors, number of test frequencies,
//! behaviour across circuits, fitness-formulation ablation, dictionary
//! resolution, noise robustness, and trajectory versus nearest-neighbour
//! diagnosis.

use ft_circuit::all_benchmarks;
use ft_core::{
    ambiguity_groups, evaluate_classifier, grid_search, random_search, select_test_vector,
    sensitivity_heuristic, trajectories_from_dictionary, AccuracyReport, AmbiguityGroups,
    AtpgConfig, ConfusionMatrix, Diagnoser, DiagnoserConfig, EvalConfig, FitnessKind,
    GeometryOptions, NnDictionary, SignatureClassifier, TestVector,
};
use ft_faults::{DeviationGrid, FaultDictionary, FaultUniverse, MeasurementNoise, Tolerance};
use ft_numerics::FrequencyGrid;

use crate::report::{num, pct, Table};
use crate::setup::{ga_paper_result, paper_setup, PaperSetup, DICT_GRID_POINTS, PAPER_SEED};

/// Monte Carlo trials used by the accuracy tables.
pub(crate) const TRIALS: usize = 200;

/// Accuracy of predictions counted at ambiguity-class granularity: a
/// prediction is correct when it lands in the true component's group.
pub(crate) fn class_accuracy(confusion: &ConfusionMatrix, groups: &AmbiguityGroups) -> f64 {
    let mut correct = 0usize;
    let mut total = 0usize;
    for t in confusion.components() {
        let Some(group) = groups.group_of(t) else {
            continue;
        };
        for p in confusion.components() {
            let count = confusion.count(t, p);
            total += count;
            if group.iter().any(|g| g == p) {
                correct += count;
            }
        }
    }
    if total == 0 {
        f64::NAN
    } else {
        correct as f64 / total as f64
    }
}

/// Structural ambiguity classes of a trajectory set: groups whose
/// pairwise separation is numerically zero (coincident pathways).
pub fn structural_classes(dict: &FaultDictionary, tv: &TestVector) -> AmbiguityGroups {
    let set = trajectories_from_dictionary(dict, tv);
    ambiguity_groups(&set, 1e-6, &GeometryOptions::default())
}

fn evaluate_tv(
    setup: &PaperSetup,
    tv: &TestVector,
    config: &EvalConfig,
) -> (AccuracyReport, AmbiguityGroups) {
    let set = trajectories_from_dictionary(&setup.dict, tv);
    let diagnoser = Diagnoser::new(set, DiagnoserConfig::default());
    let report = evaluate_classifier(
        &setup.bench.circuit,
        &setup.universe,
        &diagnoser,
        &setup.bench.input,
        &setup.bench.probe,
        config,
    )
    .expect("evaluation runs");
    let classes = structural_classes(&setup.dict, tv);
    (report, classes)
}

fn accuracy_row(
    method: &str,
    tv: &TestVector,
    intersections: usize,
    fitness: f64,
    evaluations: usize,
    report: &AccuracyReport,
    classes: &AmbiguityGroups,
) -> Vec<String> {
    vec![
        method.to_string(),
        num(tv.omegas()[0], 4),
        num(tv.omegas().get(1).copied().unwrap_or(f64::NAN), 4),
        format!("{intersections}"),
        num(fitness, 4),
        format!("{evaluations}"),
        pct(report.top1),
        pct(report.top2),
        pct(class_accuracy(&report.confusion, classes)),
        num(report.mean_deviation_error_pct, 1),
    ]
}

/// T-A: GA versus baseline test-vector selectors, clean conditions.
pub fn table_accuracy() -> Table {
    let setup = paper_setup();
    let eval = EvalConfig::clean(TRIALS, PAPER_SEED);
    let geo = GeometryOptions::default();
    let band = setup.bench.search_band;

    let mut table = Table::new(
        "T-A — test-vector selectors on the Tow-Thomas CUT (clean measurements)",
        &[
            "method",
            "f1_rad_s",
            "f2_rad_s",
            "I",
            "fitness",
            "evals",
            "top1",
            "top2",
            "class_acc",
            "dev_err_pct",
        ],
    );

    let ga = ga_paper_result(&setup);
    let (report, classes) = evaluate_tv(&setup, &ga.test_vector, &eval);
    table.push_row(accuracy_row(
        "GA (paper 2.4)",
        &ga.test_vector,
        ga.intersections,
        ga.fitness,
        ga.evaluations,
        &report,
        &classes,
    ));

    let random = random_search(
        &setup.dict,
        2,
        band,
        ga.evaluations,
        FitnessKind::Paper,
        &geo,
        PAPER_SEED,
    );
    let (report, classes) = evaluate_tv(&setup, &random.test_vector, &eval);
    table.push_row(accuracy_row(
        "random (same budget)",
        &random.test_vector,
        random.intersections,
        random.fitness,
        random.evaluations,
        &report,
        &classes,
    ));

    let grid = grid_search(&setup.dict, 2, band, 20, FitnessKind::Paper, &geo);
    let (report, classes) = evaluate_tv(&setup, &grid.test_vector, &eval);
    table.push_row(accuracy_row(
        "grid 20pt exhaustive",
        &grid.test_vector,
        grid.intersections,
        grid.fitness,
        grid.evaluations,
        &report,
        &classes,
    ));

    let sens = sensitivity_heuristic(&setup.dict, 2, band, 20, &geo);
    let (report, classes) = evaluate_tv(&setup, &sens.test_vector, &eval);
    table.push_row(accuracy_row(
        "sensitivity heuristic",
        &sens.test_vector,
        sens.intersections,
        sens.fitness,
        sens.evaluations,
        &report,
        &classes,
    ));

    table
}

/// T-B: accuracy versus the number of test frequencies.
pub fn table_nfreq() -> Table {
    let setup = paper_setup();
    let eval = EvalConfig::clean(TRIALS, PAPER_SEED);
    let mut table = Table::new(
        "T-B — number of test frequencies",
        &[
            "n_freqs",
            "I",
            "fitness",
            "classes",
            "top1",
            "top2",
            "class_acc",
            "dev_err_pct",
        ],
    );
    for n in 1..=4 {
        let mut cfg = AtpgConfig::paper_seeded(setup.bench.search_band, PAPER_SEED + n as u64);
        cfg.n_frequencies = n;
        let result = select_test_vector(&setup.dict, &cfg);
        let (report, classes) = evaluate_tv(&setup, &result.test_vector, &eval);
        table.push_row(vec![
            format!("{n}"),
            format!("{}", result.intersections),
            num(result.fitness, 4),
            format!("{}", classes.len()),
            pct(report.top1),
            pct(report.top2),
            pct(class_accuracy(&report.confusion, &classes)),
            num(report.mean_deviation_error_pct, 1),
        ]);
    }
    table
}

/// T-C: the method across the benchmark circuit library.
pub fn table_circuits() -> Table {
    let mut table = Table::new(
        "T-C — fault-trajectory diagnosis across circuits",
        &[
            "circuit",
            "faults",
            "classes",
            "I",
            "fitness",
            "top1",
            "top2",
            "class_acc",
        ],
    );
    for bench in all_benchmarks().expect("stock benchmarks build") {
        let universe = FaultUniverse::new(&bench.fault_set, DeviationGrid::paper());
        let grid =
            FrequencyGrid::log_space(bench.search_band.0, bench.search_band.1, DICT_GRID_POINTS);
        let dict =
            FaultDictionary::build(&bench.circuit, &universe, &bench.input, &bench.probe, &grid)
                .expect("dictionary builds");
        let cfg = AtpgConfig::paper_seeded(bench.search_band, PAPER_SEED);
        let result = select_test_vector(&dict, &cfg);

        let set = trajectories_from_dictionary(&dict, &result.test_vector);
        let diagnoser = Diagnoser::new(set, DiagnoserConfig::default());
        let report = evaluate_classifier(
            &bench.circuit,
            &universe,
            &diagnoser,
            &bench.input,
            &bench.probe,
            &EvalConfig::clean(TRIALS, PAPER_SEED),
        )
        .expect("evaluation runs");
        let classes = structural_classes(&dict, &result.test_vector);
        table.push_row(vec![
            bench.circuit.name().to_string(),
            format!("{}", bench.fault_set.len()),
            format!("{}", classes.len()),
            format!("{}", result.intersections),
            num(result.fitness, 4),
            pct(report.top1),
            pct(report.top2),
            pct(class_accuracy(&report.confusion, &classes)),
        ]);
    }
    table
}

/// T-D: fitness-formulation ablation.
pub fn table_fitness() -> Table {
    let setup = paper_setup();
    let eval = EvalConfig::clean(TRIALS, PAPER_SEED);
    let mut table = Table::new(
        "T-D — fitness formulation ablation",
        &[
            "fitness_kind",
            "I",
            "min_sep_dB",
            "top1",
            "top2",
            "class_acc",
        ],
    );
    let kinds: [(&str, FitnessKind); 3] = [
        ("paper 1/(1+I)", FitnessKind::Paper),
        ("margin", FitnessKind::Margin { scale: 1.0 }),
        ("hybrid (w=0.5)", FitnessKind::Hybrid { margin_weight: 0.5 }),
    ];
    for (name, kind) in kinds {
        let mut cfg = AtpgConfig::paper_seeded(setup.bench.search_band, PAPER_SEED);
        cfg.fitness = kind;
        let result = select_test_vector(&setup.dict, &cfg);
        let set = trajectories_from_dictionary(&setup.dict, &result.test_vector);
        let sep = ft_core::min_separation(&set, &cfg.geometry);
        let (report, classes) = evaluate_tv(&setup, &result.test_vector, &eval);
        table.push_row(vec![
            name.to_string(),
            format!("{}", result.intersections),
            num(sep, 4),
            pct(report.top1),
            pct(report.top2),
            pct(class_accuracy(&report.confusion, &classes)),
        ]);
    }
    table
}

/// T-E: dictionary deviation range/step ablation.
pub fn table_step() -> Table {
    let bench = ft_circuit::tow_thomas_normalized(1.0).expect("benchmark builds");
    let mut table = Table::new(
        "T-E — dictionary deviation grid ablation",
        &[
            "range_pct",
            "step_pct",
            "dict_size",
            "I",
            "top1",
            "top2",
            "class_acc",
        ],
    );
    for (range, step) in [
        (40.0, 5.0),
        (40.0, 10.0),
        (40.0, 20.0),
        (20.0, 10.0),
        (20.0, 5.0),
    ] {
        let universe = FaultUniverse::new(&bench.fault_set, DeviationGrid::new(range, step));
        let grid =
            FrequencyGrid::log_space(bench.search_band.0, bench.search_band.1, DICT_GRID_POINTS);
        let dict =
            FaultDictionary::build(&bench.circuit, &universe, &bench.input, &bench.probe, &grid)
                .expect("dictionary builds");
        let cfg = AtpgConfig::paper_seeded(bench.search_band, PAPER_SEED);
        let result = select_test_vector(&dict, &cfg);
        let set = trajectories_from_dictionary(&dict, &result.test_vector);
        let diagnoser = Diagnoser::new(set, DiagnoserConfig::default());
        let eval = EvalConfig {
            min_fault_pct: (step / 2.0).max(5.0),
            ..EvalConfig::clean(TRIALS, PAPER_SEED)
        };
        let report = evaluate_classifier(
            &bench.circuit,
            &universe,
            &diagnoser,
            &bench.input,
            &bench.probe,
            &eval,
        )
        .expect("evaluation runs");
        let classes = structural_classes(&dict, &result.test_vector);
        table.push_row(vec![
            num(range, 0),
            num(step, 0),
            format!("{}", universe.len()),
            format!("{}", result.intersections),
            pct(report.top1),
            pct(report.top2),
            pct(class_accuracy(&report.confusion, &classes)),
        ]);
    }
    table
}

/// T-F: robustness to measurement noise and component tolerance.
pub fn table_noise() -> Table {
    let setup = paper_setup();
    let tv = ga_paper_result(&setup).test_vector;
    let mut table = Table::new(
        "T-F — noise & tolerance robustness at the GA test vector",
        &[
            "noise_sigma_dB",
            "tolerance_pct",
            "top1",
            "top2",
            "class_acc",
            "dev_err_pct",
        ],
    );
    for sigma in [0.0, 0.1, 0.5, 1.0, 2.0] {
        for tol in [0.0, 1.0, 5.0] {
            let eval = EvalConfig {
                noise: MeasurementNoise::new(sigma),
                tolerance: Tolerance::new(tol),
                ..EvalConfig::clean(TRIALS, PAPER_SEED)
            };
            let (report, classes) = evaluate_tv(&setup, &tv, &eval);
            table.push_row(vec![
                num(sigma, 1),
                num(tol, 0),
                pct(report.top1),
                pct(report.top2),
                pct(class_accuracy(&report.confusion, &classes)),
                num(report.mean_deviation_error_pct, 1),
            ]);
        }
    }
    table
}

/// T-G: trajectory diagnosis versus classic nearest-neighbour dictionary
/// lookup at the same test vector.
pub fn table_diagnosis_methods() -> Table {
    let setup = paper_setup();
    let tv = ga_paper_result(&setup).test_vector;
    let eval = EvalConfig::clean(TRIALS, PAPER_SEED);

    let mut table = Table::new(
        "T-G — trajectory classifier vs nearest-neighbour dictionary",
        &["method", "top1", "top2", "class_acc", "dev_err_pct"],
    );

    let set = trajectories_from_dictionary(&setup.dict, &tv);
    let trajectory = Diagnoser::new(set, DiagnoserConfig::default());
    let nn = NnDictionary::build(&setup.dict, &tv);
    let classes = structural_classes(&setup.dict, &tv);

    let mut push = |name: &str, classifier: &dyn DynClassifier| {
        let report = classifier.eval(&setup, &eval);
        table.push_row(vec![
            name.to_string(),
            pct(report.top1),
            pct(report.top2),
            pct(class_accuracy(&report.confusion, &classes)),
            num(report.mean_deviation_error_pct, 1),
        ]);
    };
    push("fault trajectory (paper)", &trajectory);
    push("nearest-neighbour dictionary", &nn);
    table
}

/// T-H: multi-probe observation — the extension that lifts the CUT's
/// structural ambiguity ceiling. Clean measurements; the probe stacks
/// grow from the paper's single LP output to all three op-amp outputs.
pub fn table_multiprobe() -> Table {
    use ft_circuit::Probe;
    use ft_core::ProbeBank;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let setup = paper_setup();
    let grid = FrequencyGrid::log_space(
        setup.bench.search_band.0,
        setup.bench.search_band.1,
        DICT_GRID_POINTS,
    );
    let tv = ga_paper_result(&setup).test_vector;

    let mut table = Table::new(
        "T-H — multi-probe observation at the GA test vector (clean)",
        &[
            "probes",
            "classes",
            "I",
            "top1",
            "top2",
            "class_acc",
            "dev_err_pct",
        ],
    );

    let probe_stacks: Vec<(&str, Vec<Probe>)> = vec![
        ("lp (paper)", vec![Probe::node("lp")]),
        ("lp+bp", vec![Probe::node("lp"), Probe::node("bp")]),
        (
            "lp+bp+inv",
            vec![Probe::node("lp"), Probe::node("bp"), Probe::node("inv")],
        ),
    ];

    for (label, probes) in probe_stacks {
        let bank = ProbeBank::build(
            &setup.bench.circuit,
            &setup.universe,
            &setup.bench.input,
            &probes,
            &grid,
        )
        .expect("bank builds");
        let set = bank.trajectories(&tv);
        let intersections = ft_core::count_intersections(&set, &GeometryOptions::default());
        let classes = ambiguity_groups(&set, 1e-6, &GeometryOptions::default());
        let diagnoser = Diagnoser::new(set, DiagnoserConfig::default());

        // Clean Monte Carlo over the stacked measurement path.
        let mut rng = StdRng::seed_from_u64(PAPER_SEED);
        let mut confusion = ConfusionMatrix::new(setup.universe.components().to_vec());
        let (mut top1, mut top2, mut dev_err_sum, mut dev_err_n) = (0usize, 0usize, 0.0, 0usize);
        for _ in 0..TRIALS {
            let fault = setup.universe.sample_unknown(&mut rng, 10.0);
            let faulty = fault.apply(&setup.bench.circuit).expect("applies");
            let sig = bank
                .measure(&faulty, &setup.bench.circuit, &tv)
                .expect("measures");
            let verdict = diagnoser.diagnose(&sig);
            confusion.record(fault.component(), &verdict.best().component);
            if verdict.best().component == fault.component() {
                top1 += 1;
                dev_err_sum += (verdict.best().deviation_pct - fault.percent()).abs();
                dev_err_n += 1;
            }
            if verdict
                .candidates()
                .iter()
                .take(2)
                .any(|c| c.component == fault.component())
            {
                top2 += 1;
            }
        }
        table.push_row(vec![
            label.to_string(),
            format!("{}", classes.len()),
            format!("{intersections}"),
            pct(top1 as f64 / TRIALS as f64),
            pct(top2 as f64 / TRIALS as f64),
            pct(class_accuracy(&confusion, &classes)),
            num(
                if dev_err_n > 0 {
                    dev_err_sum / dev_err_n as f64
                } else {
                    f64::NAN
                },
                1,
            ),
        ]);
    }
    table
}

/// T-I: genome-encoding ablation — real-coded BLX-α versus the canonical
/// Holland binary encoding the paper cites.
pub fn table_encoding() -> Table {
    use ft_core::select_test_vector_binary;

    let setup = paper_setup();
    let eval = EvalConfig::clean(TRIALS, PAPER_SEED);
    let mut table = Table::new(
        "T-I — GA genome encoding ablation (paper §2.4 parameters)",
        &[
            "encoding", "f1_rad_s", "f2_rad_s", "I", "fitness", "top1", "top2",
        ],
    );

    let cfg = AtpgConfig::paper_seeded(setup.bench.search_band, PAPER_SEED);
    let real = select_test_vector(&setup.dict, &cfg);
    let (report, _) = evaluate_tv(&setup, &real.test_vector, &eval);
    table.push_row(vec![
        "real (BLX-0.5)".into(),
        num(real.test_vector.omegas()[0], 4),
        num(real.test_vector.omegas()[1], 4),
        format!("{}", real.intersections),
        num(real.fitness, 4),
        pct(report.top1),
        pct(report.top2),
    ]);

    for bits in [8usize, 16] {
        let result = select_test_vector_binary(&setup.dict, &cfg, bits);
        let (report, _) = evaluate_tv(&setup, &result.test_vector, &eval);
        table.push_row(vec![
            format!("binary {bits}-bit"),
            num(result.test_vector.omegas()[0], 4),
            num(result.test_vector.omegas()[1], 4),
            format!("{}", result.intersections),
            num(result.fitness, 4),
            pct(report.top1),
            pct(report.top2),
        ]);
    }
    table
}

/// T-J: double faults against the single-fault trajectory model — the
/// paper's "one component faulty at a time" assumption quantified.
pub fn table_double_faults() -> Table {
    use ft_core::measure_signature;
    use ft_faults::sample_double;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let setup = paper_setup();
    let tv = ga_paper_result(&setup).test_vector;
    let set = trajectories_from_dictionary(&setup.dict, &tv);
    let classes = structural_classes(&setup.dict, &tv);
    let diagnoser = Diagnoser::new(set, DiagnoserConfig::default());

    let mut table = Table::new(
        "T-J — double faults vs the single-fault trajectory model",
        &[
            "fault_order",
            "top1_any_true",
            "top2_any_true",
            "class_any_true",
            "mean_residual_dB",
        ],
    );

    let mut rng = StdRng::seed_from_u64(PAPER_SEED);

    // Reference: single faults through the same scoring.
    let mut single = (0usize, 0usize, 0usize, 0.0f64);
    for _ in 0..TRIALS {
        let fault = setup.universe.sample_unknown(&mut rng, 10.0);
        let faulty = fault.apply(&setup.bench.circuit).expect("applies");
        let sig = measure_signature(
            &faulty,
            &setup.bench.circuit,
            &setup.bench.input,
            &setup.bench.probe,
            &tv,
        )
        .expect("measures");
        let verdict = diagnoser.diagnose(&sig);
        score_any(&mut single, &verdict, &[fault.component()], &classes);
    }
    push_any_row(&mut table, "single (reference)", single, TRIALS);

    let mut double = (0usize, 0usize, 0usize, 0.0f64);
    for _ in 0..TRIALS {
        let mf = sample_double(&setup.universe, &mut rng, 10.0);
        let faulty = mf.apply(&setup.bench.circuit).expect("applies");
        let sig = measure_signature(
            &faulty,
            &setup.bench.circuit,
            &setup.bench.input,
            &setup.bench.probe,
            &tv,
        )
        .expect("measures");
        let verdict = diagnoser.diagnose(&sig);
        let components = mf.components();
        score_any(&mut double, &verdict, &components, &classes);
    }
    push_any_row(&mut table, "double", double, TRIALS);
    table
}

fn score_any(
    acc: &mut (usize, usize, usize, f64),
    verdict: &ft_core::Diagnosis,
    truths: &[&str],
    classes: &AmbiguityGroups,
) {
    let best = verdict.best();
    if truths.contains(&best.component.as_str()) {
        acc.0 += 1;
    }
    if verdict
        .candidates()
        .iter()
        .take(2)
        .any(|c| truths.contains(&c.component.as_str()))
    {
        acc.1 += 1;
    }
    let class_hit = truths.iter().any(|t| {
        classes
            .group_of(t)
            .is_some_and(|g| g.iter().any(|m| m == &best.component))
    });
    if class_hit {
        acc.2 += 1;
    }
    acc.3 += best.distance;
}

fn push_any_row(table: &mut Table, label: &str, acc: (usize, usize, usize, f64), trials: usize) {
    table.push_row(vec![
        label.to_string(),
        pct(acc.0 as f64 / trials as f64),
        pct(acc.1 as f64 / trials as f64),
        pct(acc.2 as f64 / trials as f64),
        num(acc.3 / trials as f64, 4),
    ]);
}

/// Object-safe evaluation shim for [`table_diagnosis_methods`].
trait DynClassifier {
    fn eval(&self, setup: &PaperSetup, config: &EvalConfig) -> AccuracyReport;
}

impl<C: SignatureClassifier> DynClassifier for C {
    fn eval(&self, setup: &PaperSetup, config: &EvalConfig) -> AccuracyReport {
        evaluate_classifier(
            &setup.bench.circuit,
            &setup.universe,
            self,
            &setup.bench.input,
            &setup.bench.probe,
            config,
        )
        .expect("evaluation runs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_accuracy_counts_groups() {
        let mut m =
            ConfusionMatrix::new(vec!["R3".to_string(), "R5".to_string(), "R2".to_string()]);
        m.record("R3", "R5"); // same class: counts as correct
        m.record("R3", "R3");
        m.record("R2", "R3"); // wrong class
        m.record("R2", "R2");
        let groups = AmbiguityGroups::from_groups(
            vec![
                vec!["R3".to_string(), "R5".to_string()],
                vec!["R2".to_string()],
            ],
            1e-6,
        );
        let acc = class_accuracy(&m, &groups);
        assert!((acc - 0.75).abs() < 1e-12, "{acc}");
    }

    #[test]
    fn structural_classes_match_algebra() {
        let setup = paper_setup();
        let tv = TestVector::pair(0.6, 1.6);
        let classes = structural_classes(&setup.dict, &tv);
        // Expect exactly 5 classes: {R1} {R2} {C1} {R3,R5} {R4,C2}.
        assert_eq!(classes.len(), 5, "{:?}", classes.groups());
        let r3 = classes.group_of("R3").unwrap();
        assert!(r3.contains(&"R5".to_string()));
        let r4 = classes.group_of("R4").unwrap();
        assert!(r4.contains(&"C2".to_string()));
        assert_eq!(classes.group_of("R1").unwrap().len(), 1);
        assert_eq!(classes.group_of("R2").unwrap().len(), 1);
        assert_eq!(classes.group_of("C1").unwrap().len(), 1);
    }
}
