//! Baseline test-vector selectors and a baseline diagnosis method.
//!
//! The paper motivates the GA by the size of the search space; these
//! baselines quantify that claim: random search with the same evaluation
//! budget, exhaustive search over a coarse grid, and a sensitivity-spread
//! heuristic. A classic nearest-neighbour fault-dictionary lookup serves
//! as the diagnosis baseline against the trajectory classifier.

use ft_faults::FaultDictionary;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::diagnosis::Candidate;
use crate::fitness::{count_intersections, evaluate_fitness, FitnessKind, GeometryOptions};
use crate::signature::{Signature, TestVector};
use crate::trajectory::trajectories_from_dictionary;

/// Result of a baseline test-vector search.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// The selected test vector.
    pub test_vector: TestVector,
    /// Its fitness under the given formulation.
    pub fitness: f64,
    /// Its trajectory-intersection count.
    pub intersections: usize,
    /// Fitness evaluations spent.
    pub evaluations: usize,
}

fn score(
    dict: &FaultDictionary,
    tv: &TestVector,
    kind: FitnessKind,
    geo: &GeometryOptions,
) -> (f64, usize) {
    let set = trajectories_from_dictionary(dict, tv);
    (
        evaluate_fitness(&set, kind, geo),
        count_intersections(&set, geo),
    )
}

/// Uniform random search in log-frequency space with a fixed evaluation
/// budget — the fairness-matched comparison for the GA.
///
/// # Panics
///
/// Panics if `evaluations` is zero or the band is invalid.
pub fn random_search(
    dict: &FaultDictionary,
    n_frequencies: usize,
    band: (f64, f64),
    evaluations: usize,
    kind: FitnessKind,
    geo: &GeometryOptions,
    seed: u64,
) -> BaselineResult {
    assert!(evaluations > 0, "need a positive evaluation budget");
    assert!(band.0 > 0.0 && band.1 > band.0, "invalid band");
    let mut rng = StdRng::seed_from_u64(seed);
    let (l0, l1) = (band.0.log10(), band.1.log10());
    let mut best: Option<BaselineResult> = None;
    for _ in 0..evaluations {
        let mut omegas: Vec<f64> = (0..n_frequencies)
            .map(|_| 10f64.powf(rng.gen_range(l0..=l1)))
            .collect();
        omegas.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let tv = TestVector::new(omegas);
        let (fitness, intersections) = score(dict, &tv, kind, geo);
        if best.as_ref().is_none_or(|b| fitness > b.fitness) {
            best = Some(BaselineResult {
                test_vector: tv,
                fitness,
                intersections,
                evaluations,
            });
        }
    }
    best.expect("at least one evaluation")
}

/// Exhaustive search over all unordered `n`-combinations of a coarse
/// logarithmic grid. For `n = 2` and a `g`-point grid this evaluates
/// `g·(g−1)/2` pairs.
///
/// # Panics
///
/// Panics if the grid is smaller than `n_frequencies` or the band is
/// invalid.
pub fn grid_search(
    dict: &FaultDictionary,
    n_frequencies: usize,
    band: (f64, f64),
    grid_points: usize,
    kind: FitnessKind,
    geo: &GeometryOptions,
) -> BaselineResult {
    assert!(band.0 > 0.0 && band.1 > band.0, "invalid band");
    assert!(
        grid_points >= n_frequencies,
        "grid must have at least n_frequencies points"
    );
    let (l0, l1) = (band.0.log10(), band.1.log10());
    let step = (l1 - l0) / (grid_points - 1) as f64;
    let freqs: Vec<f64> = (0..grid_points)
        .map(|i| 10f64.powf(l0 + step * i as f64))
        .collect();

    let mut best: Option<BaselineResult> = None;
    let mut evaluations = 0;
    let mut indices: Vec<usize> = (0..n_frequencies).collect();
    loop {
        let omegas: Vec<f64> = indices.iter().map(|&i| freqs[i]).collect();
        let tv = TestVector::new(omegas);
        let (fitness, intersections) = score(dict, &tv, kind, geo);
        evaluations += 1;
        if best.as_ref().is_none_or(|b| fitness > b.fitness) {
            best = Some(BaselineResult {
                test_vector: tv,
                fitness,
                intersections,
                evaluations: 0,
            });
        }
        // Advance the combination (lexicographic).
        let mut k = n_frequencies;
        loop {
            if k == 0 {
                let mut result = best.expect("non-empty grid");
                result.evaluations = evaluations;
                return result;
            }
            k -= 1;
            if indices[k] < grid_points - (n_frequencies - k) {
                indices[k] += 1;
                for j in (k + 1)..n_frequencies {
                    indices[j] = indices[j - 1] + 1;
                }
                break;
            }
        }
    }
}

/// Sensitivity-spread heuristic: on a coarse grid, choose the frequency
/// combination maximising the worst-case angular separation between the
/// components' small-deviation signature directions. No trajectory
/// geometry is evaluated — this is the "testability textbook" shortcut.
///
/// # Panics
///
/// Panics if the grid is smaller than `n_frequencies`.
pub fn sensitivity_heuristic(
    dict: &FaultDictionary,
    n_frequencies: usize,
    band: (f64, f64),
    grid_points: usize,
    geo: &GeometryOptions,
) -> BaselineResult {
    assert!(band.0 > 0.0 && band.1 > band.0, "invalid band");
    assert!(grid_points >= n_frequencies, "grid too small");
    let (l0, l1) = (band.0.log10(), band.1.log10());
    let step = (l1 - l0) / (grid_points - 1) as f64;
    let freqs: Vec<f64> = (0..grid_points)
        .map(|i| 10f64.powf(l0 + step * i as f64))
        .collect();

    // Smallest positive deviation per component approximates the
    // sensitivity direction.
    let components = dict.universe().components();
    let direction_fault: Vec<usize> = components
        .iter()
        .map(|c| {
            dict.universe()
                .faults()
                .iter()
                .enumerate()
                .filter(|(_, f)| f.component() == c.as_str() && f.percent() > 0.0)
                .min_by(|a, b| {
                    a.1.percent()
                        .partial_cmp(&b.1.percent())
                        .expect("finite percents")
                })
                .map(|(i, _)| i)
                .expect("every component has a positive deviation")
        })
        .collect();

    let spread = |omegas: &[f64]| -> f64 {
        // Signature direction of each component at its smallest positive
        // deviation; objective = minimal pairwise angle.
        let dirs: Vec<Vec<f64>> = direction_fault
            .iter()
            .map(|&idx| {
                omegas
                    .iter()
                    .map(|&w| dict.entry_db_at(idx, w) - dict.golden_db_at(w))
                    .collect()
            })
            .collect();
        let mut min_angle = f64::INFINITY;
        for i in 0..dirs.len() {
            for j in (i + 1)..dirs.len() {
                let dot: f64 = dirs[i].iter().zip(&dirs[j]).map(|(a, b)| a * b).sum();
                let na: f64 = dirs[i].iter().map(|x| x * x).sum::<f64>().sqrt();
                let nb: f64 = dirs[j].iter().map(|x| x * x).sum::<f64>().sqrt();
                if na < 1e-12 || nb < 1e-12 {
                    return 0.0; // unobservable component at these frequencies
                }
                let angle = (dot / (na * nb)).clamp(-1.0, 1.0).acos();
                min_angle = min_angle.min(angle);
            }
        }
        min_angle
    };

    let mut best_tv: Option<TestVector> = None;
    let mut best_spread = f64::NEG_INFINITY;
    let mut evaluations = 0;
    let mut indices: Vec<usize> = (0..n_frequencies).collect();
    loop {
        let omegas: Vec<f64> = indices.iter().map(|&i| freqs[i]).collect();
        let s = spread(&omegas);
        evaluations += 1;
        if s > best_spread {
            best_spread = s;
            best_tv = Some(TestVector::new(omegas));
        }
        let mut k = n_frequencies;
        loop {
            if k == 0 {
                let tv = best_tv.expect("non-empty grid");
                let (fitness, intersections) = score(dict, &tv, FitnessKind::Paper, geo);
                return BaselineResult {
                    test_vector: tv,
                    fitness,
                    intersections,
                    evaluations,
                };
            }
            k -= 1;
            if indices[k] < grid_points - (n_frequencies - k) {
                indices[k] += 1;
                for j in (k + 1)..n_frequencies {
                    indices[j] = indices[j - 1] + 1;
                }
                break;
            }
        }
    }
}

/// Classic fault-dictionary diagnosis: nearest stored signature wins.
///
/// Stores one signature per dictionary fault at the deployed test
/// frequencies; classification ranks components by their closest stored
/// point (no interpolation along trajectories — the key difference from
/// the trajectory method).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NnDictionary {
    test_vector: TestVector,
    /// (component, deviation %, signature) triples.
    points: Vec<(String, f64, Signature)>,
}

impl NnDictionary {
    /// Builds the lookup table at `tv` from a fault dictionary.
    pub fn build(dict: &FaultDictionary, tv: &TestVector) -> Self {
        let omegas = tv.omegas();
        let golden: Vec<f64> = omegas.iter().map(|&w| dict.golden_db_at(w)).collect();
        let points = dict
            .universe()
            .faults()
            .iter()
            .enumerate()
            .map(|(idx, fault)| {
                let measured: Vec<f64> = omegas.iter().map(|&w| dict.entry_db_at(idx, w)).collect();
                let sig = crate::signature::signature_from_db(&measured, &golden);
                (fault.component().to_string(), fault.percent(), sig)
            })
            .collect();
        NnDictionary {
            test_vector: tv.clone(),
            points,
        }
    }

    /// The test vector the table was built for.
    pub(crate) fn test_vector(&self) -> &TestVector {
        &self.test_vector
    }

    /// Ranks components by the distance of their nearest stored point.
    /// Equal distances keep dictionary order (the order in which each
    /// component first appears), so ties break first-wins, as in
    /// [`Diagnosis::from_candidates`](crate::Diagnosis::from_candidates).
    ///
    /// # Panics
    ///
    /// Panics on signature dimension mismatch.
    pub fn classify(&self, observed: &Signature) -> Vec<Candidate> {
        assert_eq!(
            observed.dim(),
            self.test_vector.len(),
            "signature dimension mismatch"
        );
        let mut candidates: Vec<Candidate> = Vec::new();
        for (comp, dev, sig) in &self.points {
            let d = observed.distance(sig);
            let slot = match candidates.iter().position(|c| c.component == *comp) {
                Some(i) => &mut candidates[i],
                None => {
                    candidates.push(Candidate {
                        component: comp.clone(),
                        distance: f64::INFINITY,
                        deviation_pct: 0.0,
                    });
                    candidates.last_mut().expect("just pushed")
                }
            };
            if d < slot.distance {
                slot.distance = d;
                slot.deviation_pct = *dev;
            }
        }
        candidates.sort_by(|a, b| a.distance.partial_cmp(&b.distance).expect("finite"));
        candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_circuit::tow_thomas_normalized;
    use ft_faults::{DeviationGrid, FaultUniverse};
    use ft_numerics::FrequencyGrid;

    fn dict() -> FaultDictionary {
        let bench = tow_thomas_normalized(1.0).unwrap();
        let universe = FaultUniverse::new(&bench.fault_set, DeviationGrid::paper());
        let grid = FrequencyGrid::log_space(0.01, 100.0, 31);
        FaultDictionary::build(&bench.circuit, &universe, &bench.input, &bench.probe, &grid)
            .unwrap()
    }

    #[test]
    fn random_search_improves_with_budget() {
        let d = dict();
        let geo = GeometryOptions::default();
        let small = random_search(&d, 2, (0.01, 100.0), 5, FitnessKind::Paper, &geo, 1);
        let large = random_search(&d, 2, (0.01, 100.0), 60, FitnessKind::Paper, &geo, 1);
        assert!(large.fitness >= small.fitness);
        assert_eq!(small.evaluations, 5);
        assert_eq!(large.evaluations, 60);
    }

    #[test]
    fn random_search_deterministic_per_seed() {
        let d = dict();
        let geo = GeometryOptions::default();
        let a = random_search(&d, 2, (0.01, 100.0), 10, FitnessKind::Paper, &geo, 7);
        let b = random_search(&d, 2, (0.01, 100.0), 10, FitnessKind::Paper, &geo, 7);
        assert_eq!(a.test_vector, b.test_vector);
    }

    #[test]
    fn grid_search_counts_combinations() {
        let d = dict();
        let geo = GeometryOptions::default();
        let result = grid_search(&d, 2, (0.01, 100.0), 8, FitnessKind::Paper, &geo);
        assert_eq!(result.evaluations, 8 * 7 / 2);
        assert!(result.fitness > 0.0);
        // Frequencies come from the grid and are ascending.
        let w = result.test_vector.omegas();
        assert!(w[0] < w[1]);
    }

    #[test]
    fn sensitivity_heuristic_produces_valid_vector() {
        let d = dict();
        let geo = GeometryOptions::default();
        let result = sensitivity_heuristic(&d, 2, (0.01, 100.0), 8, &geo);
        assert_eq!(result.test_vector.len(), 2);
        assert!(result.fitness > 0.0);
        assert_eq!(result.evaluations, 28);
    }

    #[test]
    fn nn_dictionary_classifies_known_faults() {
        let d = dict();
        let tv = TestVector::pair(0.5, 2.0);
        let nn = NnDictionary::build(&d, &tv);
        assert_eq!(nn.test_vector(), &tv);
        // Use a dictionary fault's own signature: distance 0, correct
        // component, correct deviation.
        let golden: Vec<f64> = tv.omegas().iter().map(|&w| d.golden_db_at(w)).collect();
        let idx = 10; // some fault
        let fault = &d.universe().faults()[idx];
        let measured: Vec<f64> = tv.omegas().iter().map(|&w| d.entry_db_at(idx, w)).collect();
        let sig = crate::signature::signature_from_db(&measured, &golden);
        let ranked = nn.classify(&sig);
        assert_eq!(ranked[0].component, fault.component());
        assert!(ranked[0].distance < 1e-12);
        assert_eq!(ranked[0].deviation_pct, fault.percent());
        // One candidate per component.
        assert_eq!(ranked.len(), d.universe().components().len());
    }

    #[test]
    fn nn_dictionary_ties_keep_dictionary_order() {
        // Two components share a stored point, so every query ties them.
        // The order must not depend on per-process hash state.
        let at = |x: f64, y: f64| Signature::new(vec![x, y]);
        let nn = NnDictionary {
            test_vector: TestVector::pair(0.5, 2.0),
            points: vec![
                ("Z9".to_string(), 10.0, at(1.0, -2.0)),
                ("A1".to_string(), 20.0, at(1.0, -2.0)),
                ("M5".to_string(), 30.0, at(9.0, 9.0)),
            ],
        };
        for _ in 0..64 {
            let ranked = nn.classify(&at(1.5, -2.0));
            let order: Vec<&str> = ranked.iter().map(|c| c.component.as_str()).collect();
            assert_eq!(order, ["Z9", "A1", "M5"]);
            assert_eq!(ranked[0].deviation_pct, 10.0);
            assert_eq!(ranked[0].distance, ranked[1].distance);
        }
    }

    #[test]
    #[should_panic(expected = "budget")]
    fn zero_budget_rejected() {
        let d = dict();
        let _ = random_search(
            &d,
            2,
            (0.01, 100.0),
            0,
            FitnessKind::Paper,
            &GeometryOptions::default(),
            1,
        );
    }
}
