//! Monte Carlo diagnosis-accuracy evaluation.
//!
//! The paper argues its test vectors "distinguish the highest number of
//! fault components"; these metrics quantify that: random unknown faults
//! (off the dictionary grid), optional component tolerances and
//! measurement noise, and a classifier under test. Reported are top-1 /
//! top-2 component identification rates, deviation-estimation error, and
//! the full confusion matrix.

use ft_circuit::{Circuit, CircuitError, Probe};
use ft_faults::{measure_faulty, FaultUniverse, MeasurementNoise, Tolerance};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::baselines::NnDictionary;
use crate::diagnosis::{Candidate, Diagnoser};
use crate::signature::{sample_response_db, signature_from_db, Signature, TestVector};

/// Anything that ranks fault candidates from an observed signature.
///
/// Implemented by the trajectory [`Diagnoser`] and the nearest-neighbour
/// dictionary baseline, so both evaluate through the same Monte Carlo
/// harness.
pub trait SignatureClassifier {
    /// The test vector whose frequencies the classifier expects.
    fn test_vector(&self) -> &TestVector;

    /// Ranked candidates, best first.
    fn classify(&self, observed: &Signature) -> Vec<Candidate>;
}

impl SignatureClassifier for Diagnoser {
    fn test_vector(&self) -> &TestVector {
        self.trajectory_set().test_vector()
    }

    fn classify(&self, observed: &Signature) -> Vec<Candidate> {
        self.diagnose(observed).candidates().to_vec()
    }
}

impl SignatureClassifier for NnDictionary {
    fn test_vector(&self) -> &TestVector {
        NnDictionary::test_vector(self)
    }

    fn classify(&self, observed: &Signature) -> Vec<Candidate> {
        NnDictionary::classify(self, observed)
    }
}

/// Monte Carlo evaluation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalConfig {
    /// Number of random unknown faults.
    pub trials: usize,
    /// Minimum |deviation| of injected faults in percent (tiny faults
    /// are indistinguishable from tolerance by definition).
    pub min_fault_pct: f64,
    /// Tolerance spread applied to healthy components.
    pub tolerance: Tolerance,
    /// Measurement noise on dB magnitudes.
    pub noise: MeasurementNoise,
    /// RNG seed.
    pub seed: u64,
}

impl EvalConfig {
    /// Noise-free evaluation with `trials` unknown faults of at least
    /// ±10%.
    pub fn clean(trials: usize, seed: u64) -> Self {
        EvalConfig {
            trials,
            min_fault_pct: 10.0,
            tolerance: Tolerance::exact(),
            noise: MeasurementNoise::none(),
            seed,
        }
    }
}

/// Component-level confusion matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    components: Vec<String>,
    /// `counts[true][predicted]`.
    counts: Vec<Vec<usize>>,
}

impl ConfusionMatrix {
    /// Creates an empty matrix over the given component labels.
    pub fn new(components: Vec<String>) -> Self {
        let n = components.len();
        ConfusionMatrix {
            components,
            counts: vec![vec![0; n]; n],
        }
    }

    /// Records one (true, predicted) observation; unknown labels are
    /// ignored.
    pub fn record(&mut self, true_comp: &str, predicted: &str) {
        let t = self.index_of(true_comp);
        let p = self.index_of(predicted);
        if let (Some(t), Some(p)) = (t, p) {
            self.counts[t][p] += 1;
        }
    }

    /// Index of a component in the matrix.
    pub(crate) fn index_of(&self, component: &str) -> Option<usize> {
        self.components.iter().position(|c| c == component)
    }

    /// Component labels.
    pub fn components(&self) -> &[String] {
        &self.components
    }

    /// Count of (true, predicted) pairs.
    pub fn count(&self, true_comp: &str, predicted: &str) -> usize {
        match (self.index_of(true_comp), self.index_of(predicted)) {
            (Some(t), Some(p)) => self.counts[t][p],
            _ => 0,
        }
    }
}

/// Aggregate accuracy results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccuracyReport {
    /// Trials evaluated.
    pub trials: usize,
    /// Fraction with the true component ranked first.
    pub top1: f64,
    /// Fraction with the true component in the first two ranks.
    pub top2: f64,
    /// Mean |estimated − true| deviation error (percentage points) over
    /// trials where the top-1 component was correct.
    pub mean_deviation_error_pct: f64,
    /// Confusion matrix over components.
    pub confusion: ConfusionMatrix,
}

/// Runs the Monte Carlo evaluation of `classifier` on `circuit`.
///
/// Each trial: draw an unknown off-grid fault from `universe`, spread
/// healthy fault-set components within tolerance, measure the (noisy)
/// response at the classifier's test frequencies, subtract the stored
/// golden response, classify, and score.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn evaluate_classifier<C: SignatureClassifier>(
    circuit: &Circuit,
    universe: &FaultUniverse,
    classifier: &C,
    input: &str,
    probe: &Probe,
    config: &EvalConfig,
) -> Result<AccuracyReport, CircuitError> {
    assert!(config.trials > 0, "need at least one trial");
    let tv = classifier.test_vector();
    let golden_db = sample_response_db(circuit, input, probe, tv)?;
    let tolerance_set: Vec<String> = universe.components().to_vec();

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut confusion = ConfusionMatrix::new(universe.components().to_vec());
    let mut top1_hits = 0usize;
    let mut top2_hits = 0usize;
    let mut dev_err_sum = 0.0;
    let mut dev_err_count = 0usize;

    for _ in 0..config.trials {
        let fault = universe.sample_unknown(&mut rng, config.min_fault_pct);
        let measured_db = measure_faulty(
            circuit,
            &fault,
            &tolerance_set,
            config.tolerance,
            config.noise,
            input,
            probe,
            tv.omegas(),
            &mut rng,
        )?;
        let observed = signature_from_db(&measured_db, &golden_db);
        let ranked = classifier.classify(&observed);
        debug_assert!(!ranked.is_empty());

        let truth = fault.component();
        confusion.record(truth, &ranked[0].component);
        if ranked[0].component == truth {
            top1_hits += 1;
            dev_err_sum += (ranked[0].deviation_pct - fault.percent()).abs();
            dev_err_count += 1;
        }
        if ranked.iter().take(2).any(|c| c.component == truth) {
            top2_hits += 1;
        }
    }

    Ok(AccuracyReport {
        trials: config.trials,
        top1: top1_hits as f64 / config.trials as f64,
        top2: top2_hits as f64 / config.trials as f64,
        mean_deviation_error_pct: if dev_err_count > 0 {
            dev_err_sum / dev_err_count as f64
        } else {
            f64::NAN
        },
        confusion,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnosis::DiagnoserConfig;
    use crate::signature::TestVector;
    use crate::trajectory::trajectories_from_dictionary;
    use ft_circuit::tow_thomas_normalized;
    use ft_faults::{DeviationGrid, FaultDictionary};
    use ft_numerics::FrequencyGrid;

    fn setup() -> (ft_circuit::Benchmark, FaultUniverse, FaultDictionary) {
        let bench = tow_thomas_normalized(1.0).unwrap();
        let universe = FaultUniverse::new(&bench.fault_set, DeviationGrid::paper());
        let grid = FrequencyGrid::log_space(0.01, 100.0, 41);
        let dict =
            FaultDictionary::build(&bench.circuit, &universe, &bench.input, &bench.probe, &grid)
                .unwrap();
        (bench, universe, dict)
    }

    #[test]
    fn confusion_matrix_mechanics() {
        let mut m = ConfusionMatrix::new(vec!["R1".into(), "C1".into()]);
        m.record("R1", "R1");
        m.record("R1", "C1");
        m.record("C1", "C1");
        assert_eq!(m.count("R1", "R1"), 1);
        assert_eq!(m.count("R1", "C1"), 1);
        assert_eq!(m.count("C1", "C1"), 1);
        assert_eq!(m.count("C1", "R1"), 0);
        // Unknown labels are ignored gracefully.
        m.record("X", "R1");
        assert_eq!(m.count("X", "R1"), 0);
    }

    #[test]
    fn clean_evaluation_diagnoses_well() {
        let (bench, universe, dict) = setup();
        // A reasonable hand-picked test vector near the corner.
        let tv = TestVector::pair(0.6, 1.6);
        let set = trajectories_from_dictionary(&dict, &tv);
        let diagnoser = Diagnoser::new(set, DiagnoserConfig::default());
        let report = evaluate_classifier(
            &bench.circuit,
            &universe,
            &diagnoser,
            &bench.input,
            &bench.probe,
            &EvalConfig::clean(60, 42),
        )
        .unwrap();
        assert_eq!(report.trials, 60);
        assert!(report.top2 >= report.top1);
        // Noise-free with exact components: the method should work more
        // often than chance (1/7 ≈ 14%); expect far better.
        assert!(report.top1 > 0.4, "top1 {}", report.top1);
        // Deviation estimates in the right ballpark.
        assert!(
            report.mean_deviation_error_pct < 15.0,
            "dev err {}",
            report.mean_deviation_error_pct
        );
    }

    #[test]
    fn noise_degrades_accuracy() {
        let (bench, universe, dict) = setup();
        let tv = TestVector::pair(0.6, 1.6);
        let set = trajectories_from_dictionary(&dict, &tv);
        let diagnoser = Diagnoser::new(set, DiagnoserConfig::default());
        let clean = evaluate_classifier(
            &bench.circuit,
            &universe,
            &diagnoser,
            &bench.input,
            &bench.probe,
            &EvalConfig::clean(50, 7),
        )
        .unwrap();
        let noisy_cfg = EvalConfig {
            noise: MeasurementNoise::new(3.0),
            ..EvalConfig::clean(50, 7)
        };
        let noisy = evaluate_classifier(
            &bench.circuit,
            &universe,
            &diagnoser,
            &bench.input,
            &bench.probe,
            &noisy_cfg,
        )
        .unwrap();
        assert!(
            noisy.top1 <= clean.top1 + 0.1,
            "noise should not improve accuracy: {} vs {}",
            noisy.top1,
            clean.top1
        );
    }

    #[test]
    fn seeded_evaluation_reproducible() {
        let (bench, universe, dict) = setup();
        let tv = TestVector::pair(0.6, 1.6);
        let set = trajectories_from_dictionary(&dict, &tv);
        let diagnoser = Diagnoser::new(set, DiagnoserConfig::default());
        let cfg = EvalConfig::clean(20, 3);
        let a = evaluate_classifier(
            &bench.circuit,
            &universe,
            &diagnoser,
            &bench.input,
            &bench.probe,
            &cfg,
        )
        .unwrap();
        let b = evaluate_classifier(
            &bench.circuit,
            &universe,
            &diagnoser,
            &bench.input,
            &bench.probe,
            &cfg,
        )
        .unwrap();
        assert_eq!(a.top1, b.top1);
        assert_eq!(a.confusion, b.confusion);
    }

    #[test]
    fn nn_baseline_evaluates_through_same_harness() {
        let (bench, universe, dict) = setup();
        let tv = TestVector::pair(0.6, 1.6);
        let nn = NnDictionary::build(&dict, &tv);
        let report = evaluate_classifier(
            &bench.circuit,
            &universe,
            &nn,
            &bench.input,
            &bench.probe,
            &EvalConfig::clean(40, 5),
        )
        .unwrap();
        assert!(report.top1 > 0.2, "nn top1 {}", report.top1);
    }
}
