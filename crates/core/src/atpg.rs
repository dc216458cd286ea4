//! GA-driven test-vector generation (paper §2.4).
//!
//! The genome is the test vector itself — `n` frequencies encoded in
//! log₁₀(ω) (the natural metric for filter responses). Each evaluation
//! rebuilds the fault trajectories from the dictionary at the candidate
//! frequencies and scores them with the configured fitness
//! (`1/(1+I)` by default).

use ft_evolve::{run, BinaryString, GaConfig, GenerationStats, RealVector};
use ft_faults::FaultDictionary;
use serde::{Deserialize, Serialize};

use crate::fitness::{count_intersections, evaluate_fitness, FitnessKind, GeometryOptions};
use crate::signature::TestVector;
use crate::trajectory::{trajectories_from_dictionary, TrajectorySet};

/// ATPG configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AtpgConfig {
    /// Number of test frequencies (the paper uses 2).
    pub n_frequencies: usize,
    /// Search band `(ω_min, ω_max)` in rad/s.
    pub band: (f64, f64),
    /// GA hyper-parameters.
    pub ga: GaConfig,
    /// Fitness formulation.
    pub fitness: FitnessKind,
    /// Geometric tolerances.
    pub geometry: GeometryOptions,
}

impl AtpgConfig {
    /// The paper's setup: two frequencies, §2.4 GA parameters, fitness
    /// `1/(1+I)`.
    pub(crate) fn paper(band: (f64, f64)) -> Self {
        assert!(
            band.0 > 0.0 && band.1 > band.0,
            "band must satisfy 0 < ω_min < ω_max"
        );
        AtpgConfig {
            n_frequencies: 2,
            band,
            ga: GaConfig::paper(),
            fitness: FitnessKind::Paper,
            geometry: GeometryOptions::default(),
        }
    }

    /// Paper setup with a fixed GA seed (reproducible).
    pub fn paper_seeded(band: (f64, f64), seed: u64) -> Self {
        let mut cfg = AtpgConfig::paper(band);
        cfg.ga.seed = Some(seed);
        cfg
    }
}

/// Result of one ATPG run.
#[derive(Debug, Clone)]
pub struct AtpgResult {
    /// The selected test vector (frequencies ascending).
    pub test_vector: TestVector,
    /// Its fitness under the configured formulation.
    pub fitness: f64,
    /// Its raw trajectory-intersection count `I`.
    pub intersections: usize,
    /// The trajectory set at the selected test vector.
    pub trajectories: TrajectorySet,
    /// GA statistics per generation.
    pub history: Vec<GenerationStats>,
    /// Total fitness evaluations spent.
    pub evaluations: usize,
}

/// Decodes a log₁₀-frequency genome into a test vector (frequencies
/// sorted ascending).
pub fn genome_to_test_vector(genome: &[f64]) -> TestVector {
    let mut omegas: Vec<f64> = genome.iter().map(|g| 10f64.powf(*g)).collect();
    omegas.sort_by(|a, b| a.partial_cmp(b).expect("finite frequencies"));
    TestVector::new(omegas)
}

/// Anything that can materialise fault trajectories at a candidate test
/// vector: a single-probe [`FaultDictionary`] or a multi-probe
/// [`crate::multiprobe::ProbeBank`].
pub trait TrajectorySource {
    /// Builds the trajectory set at `tv`.
    fn trajectories_at(&self, tv: &TestVector) -> TrajectorySet;
}

impl TrajectorySource for FaultDictionary {
    fn trajectories_at(&self, tv: &TestVector) -> TrajectorySet {
        trajectories_from_dictionary(self, tv)
    }
}

impl TrajectorySource for crate::multiprobe::ProbeBank {
    fn trajectories_at(&self, tv: &TestVector) -> TrajectorySet {
        self.trajectories(tv)
    }
}

/// Runs the GA search for the best test vector over a fault dictionary.
///
/// # Panics
///
/// Panics on invalid configuration (zero frequencies, bad band) — the
/// dictionary itself was validated at construction.
pub fn select_test_vector(dict: &FaultDictionary, config: &AtpgConfig) -> AtpgResult {
    select_test_vector_from(dict, config)
}

/// [`select_test_vector`] generalised over any [`TrajectorySource`]
/// (single dictionary or multi-probe bank).
///
/// # Panics
///
/// Panics on invalid configuration (zero frequencies, bad band).
pub(crate) fn select_test_vector_from<S: TrajectorySource>(
    source: &S,
    config: &AtpgConfig,
) -> AtpgResult {
    assert!(config.n_frequencies >= 1, "need at least one frequency");
    let (lo, hi) = config.band;
    assert!(lo > 0.0 && hi > lo, "band must satisfy 0 < ω_min < ω_max");

    let species = RealVector::new(vec![(lo.log10(), hi.log10()); config.n_frequencies]);
    let ga_result = run(
        &species,
        |genome| {
            let tv = genome_to_test_vector(genome);
            let set = source.trajectories_at(&tv);
            evaluate_fitness(&set, config.fitness, &config.geometry)
        },
        &config.ga,
    );

    let test_vector = genome_to_test_vector(&ga_result.best);
    let trajectories = source.trajectories_at(&test_vector);
    let intersections = count_intersections(&trajectories, &config.geometry);
    AtpgResult {
        test_vector,
        fitness: ga_result.best_fitness,
        intersections,
        trajectories,
        history: ga_result.history,
        evaluations: ga_result.evaluations,
    }
}

/// Binary-encoded variant of the search: each frequency is a
/// `bits_per_freq`-bit fixed-point number over the log band — the
/// canonical Holland (1975) encoding the paper cites. Provided for the
/// encoding ablation (T-I).
///
/// # Panics
///
/// Panics on invalid configuration or `bits_per_freq` outside `4..=24`.
pub fn select_test_vector_binary<S: TrajectorySource>(
    source: &S,
    config: &AtpgConfig,
    bits_per_freq: usize,
) -> AtpgResult {
    assert!(
        (4..=24).contains(&bits_per_freq),
        "bits_per_freq must be in 4..=24"
    );
    assert!(config.n_frequencies >= 1, "need at least one frequency");
    let (lo, hi) = config.band;
    assert!(lo > 0.0 && hi > lo, "band must satisfy 0 < ω_min < ω_max");
    let (l0, l1) = (lo.log10(), hi.log10());

    let decode = move |genome: &Vec<bool>| -> TestVector {
        let mut omegas: Vec<f64> = genome
            .chunks(bits_per_freq)
            .map(|chunk| 10f64.powf(BinaryString::decode_real(chunk, l0, l1)))
            .collect();
        omegas.sort_by(|a, b| a.partial_cmp(b).expect("finite frequencies"));
        TestVector::new(omegas)
    };

    let species = BinaryString::new(bits_per_freq * config.n_frequencies);
    let ga_result = run(
        &species,
        |genome| {
            let tv = decode(genome);
            let set = source.trajectories_at(&tv);
            evaluate_fitness(&set, config.fitness, &config.geometry)
        },
        &config.ga,
    );

    let test_vector = decode(&ga_result.best);
    let trajectories = source.trajectories_at(&test_vector);
    let intersections = count_intersections(&trajectories, &config.geometry);
    AtpgResult {
        test_vector,
        fitness: ga_result.best_fitness,
        intersections,
        trajectories,
        history: ga_result.history,
        evaluations: ga_result.evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_circuit::tow_thomas_normalized;
    use ft_faults::{DeviationGrid, FaultUniverse};
    use ft_numerics::FrequencyGrid;

    fn small_dict() -> FaultDictionary {
        let bench = tow_thomas_normalized(1.0).unwrap();
        let universe = FaultUniverse::new(&bench.fault_set, DeviationGrid::paper());
        let grid = FrequencyGrid::log_space(0.01, 100.0, 31);
        FaultDictionary::build(&bench.circuit, &universe, &bench.input, &bench.probe, &grid)
            .unwrap()
    }

    #[test]
    fn genome_decoding_sorts() {
        let tv = genome_to_test_vector(&[1.0, -1.0]);
        assert_eq!(tv.omegas(), &[0.1, 10.0]);
    }

    #[test]
    fn paper_config_shape() {
        let cfg = AtpgConfig::paper((0.01, 100.0));
        assert_eq!(cfg.n_frequencies, 2);
        assert_eq!(cfg.ga.population, 128);
        assert_eq!(cfg.ga.generations, 15);
        assert_eq!(cfg.fitness, FitnessKind::Paper);
    }

    #[test]
    #[should_panic(expected = "band")]
    fn bad_band_rejected() {
        let _ = AtpgConfig::paper((1.0, 0.5));
    }

    #[test]
    fn atpg_finds_low_intersection_vector() {
        let dict = small_dict();
        // Down-sized GA for test speed.
        let mut cfg = AtpgConfig::paper_seeded((0.01, 100.0), 11);
        cfg.ga.population = 24;
        cfg.ga.generations = 8;
        let result = select_test_vector(&dict, &cfg);
        assert_eq!(result.test_vector.len(), 2);
        assert_eq!(result.history.len(), 9);
        assert!(result.evaluations >= 24);
        // Fitness is consistent with the intersection count.
        assert!((result.fitness - 1.0 / (1.0 + result.intersections as f64)).abs() < 1e-12);
        // The Tow-Thomas CUT has two structurally coincident trajectory
        // pairs ({R3,R5} and {R4,C2} enter the LP response only as
        // products), which puts a floor of ~20 overlap intersections
        // under every test vector. The GA must not do worse than a
        // deliberately bad vector (two nearly equal frequencies, which
        // collapses the signature space to a line).
        let bad = TestVector::pair(1.0, 1.0001);
        let bad_set = trajectories_from_dictionary(&dict, &bad);
        let bad_i = count_intersections(&bad_set, &cfg.geometry);
        assert!(
            result.intersections <= bad_i,
            "GA result I = {} worse than degenerate vector I = {bad_i}",
            result.intersections
        );
        // Frequencies within the band.
        for &w in result.test_vector.omegas() {
            assert!((0.01..=100.0).contains(&w));
        }
    }

    #[test]
    fn ga_beats_or_matches_initial_generation() {
        let dict = small_dict();
        let mut cfg = AtpgConfig::paper_seeded((0.01, 100.0), 5);
        cfg.ga.population = 20;
        cfg.ga.generations = 6;
        let result = select_test_vector(&dict, &cfg);
        let first = result.history.first().unwrap().best;
        let last = result.history.last().unwrap().best;
        assert!(last >= first - 1e-12, "GA regressed: {first} → {last}");
    }

    #[test]
    fn seeded_runs_reproduce() {
        let dict = small_dict();
        let mut cfg = AtpgConfig::paper_seeded((0.01, 100.0), 99);
        cfg.ga.population = 16;
        cfg.ga.generations = 4;
        let a = select_test_vector(&dict, &cfg);
        let b = select_test_vector(&dict, &cfg);
        assert_eq!(a.test_vector, b.test_vector);
        assert_eq!(a.fitness, b.fitness);
    }

    #[test]
    fn single_frequency_search_works() {
        let dict = small_dict();
        let mut cfg = AtpgConfig::paper_seeded((0.01, 100.0), 2);
        cfg.n_frequencies = 1;
        cfg.ga.population = 12;
        cfg.ga.generations = 3;
        let result = select_test_vector(&dict, &cfg);
        assert_eq!(result.test_vector.len(), 1);
        // In 1-D every pair of trajectories overlaps along the line:
        // intersections abound, fitness low — but the run completes.
        assert!(result.fitness > 0.0);
    }
}
