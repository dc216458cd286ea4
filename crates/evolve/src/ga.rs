//! The generational GA engine.
//!
//! Configured to reproduce the paper's Section 2.4 setup by default: 128
//! individuals, 15 generations, 50% reproduction rate, 40% mutation rate,
//! roulette-wheel selection, generation count as the stop criterion.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::selection::Selection;
use crate::species::Species;

/// GA hyper-parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaConfig {
    /// Population size.
    pub population: usize,
    /// Number of generations (the stop criterion).
    pub generations: usize,
    /// Fraction of the population replaced by offspring each generation.
    pub reproduction_rate: f64,
    /// Probability that each offspring is mutated.
    pub mutation_rate: f64,
    /// Parent-selection strategy.
    pub selection: Selection,
    /// Number of top individuals copied unchanged into the next
    /// generation.
    pub elitism: usize,
    /// RNG seed; `None` seeds from entropy.
    pub seed: Option<u64>,
}

impl GaConfig {
    /// The paper's Section 2.4 configuration: 128 individuals, 15
    /// generations, 50% reproduction, 40% mutation, roulette wheel,
    /// one elite.
    pub fn paper() -> Self {
        GaConfig {
            population: 128,
            generations: 15,
            reproduction_rate: 0.5,
            mutation_rate: 0.4,
            selection: Selection::RouletteWheel,
            elitism: 1,
            seed: None,
        }
    }

    fn validate(&self) {
        assert!(self.population >= 2, "population must be at least 2");
        assert!(self.generations >= 1, "need at least one generation");
        assert!(
            (0.0..=1.0).contains(&self.reproduction_rate),
            "reproduction rate must be in [0,1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.mutation_rate),
            "mutation rate must be in [0,1]"
        );
        assert!(
            self.elitism < self.population,
            "elitism must leave room for offspring"
        );
    }
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig::paper()
    }
}

/// Per-generation summary statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GenerationStats {
    /// Generation index (0 = initial population).
    pub generation: usize,
    /// Best fitness in the population.
    pub best: f64,
    /// Mean fitness.
    pub mean: f64,
    /// Worst fitness.
    pub worst: f64,
}

/// Result of a GA run.
#[derive(Debug, Clone)]
pub struct GaResult<G> {
    /// Best genome ever seen.
    pub best: G,
    /// Its fitness.
    pub best_fitness: f64,
    /// Statistics per generation (index 0 = initial population).
    pub history: Vec<GenerationStats>,
    /// Total number of fitness evaluations performed.
    pub evaluations: usize,
}

/// Runs a generational GA maximising `fitness` over `species`.
///
/// `fitness` must return finite values; higher is better. Roulette-wheel
/// selection additionally expects non-negative values (the engine shifts
/// negatives, but fitness functions like the paper's `1/(1+I)` are
/// naturally in `(0, 1]`).
///
/// # Panics
///
/// Panics on invalid configuration (see [`GaConfig`]) or NaN fitness.
pub fn run<S, F>(species: &S, mut fitness: F, config: &GaConfig) -> GaResult<S::Genome>
where
    S: Species,
    F: FnMut(&S::Genome) -> f64,
{
    config.validate();
    let mut rng: StdRng = match config.seed {
        Some(s) => StdRng::seed_from_u64(s),
        None => StdRng::from_entropy(),
    };

    let mut population: Vec<S::Genome> = (0..config.population)
        .map(|_| species.random(&mut rng))
        .collect();
    let mut scores: Vec<f64> = population.iter().map(&mut fitness).collect();
    let mut evaluations = population.len();
    assert!(scores.iter().all(|s| !s.is_nan()), "fitness returned NaN");

    let mut history = Vec::with_capacity(config.generations + 1);
    let (mut best, mut best_fitness) = snapshot(&population, &scores);
    history.push(stats(0, &scores));

    for generation in 1..=config.generations {
        // --- Survivor / offspring split. ---
        let n_offspring = ((config.population as f64 * config.reproduction_rate).round() as usize)
            .clamp(0, config.population - config.elitism);
        let n_survivors = config.population - n_offspring;

        // Order indices best-first.
        let mut order: Vec<usize> = (0..config.population).collect();
        order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).expect("no NaN"));

        let mut next_pop: Vec<S::Genome> = Vec::with_capacity(config.population);
        let mut next_scores: Vec<f64> = Vec::with_capacity(config.population);

        // Elites plus best survivors keep their (already known) scores.
        for &idx in order.iter().take(n_survivors) {
            next_pop.push(population[idx].clone());
            next_scores.push(scores[idx]);
        }

        // Offspring from selected parents.
        while next_pop.len() < config.population {
            let pa = config.selection.pick(&scores, &mut rng);
            let pb = config.selection.pick(&scores, &mut rng);
            let (mut c1, mut c2) = species.crossover(&population[pa], &population[pb], &mut rng);
            if rng.gen::<f64>() < config.mutation_rate {
                species.mutate(&mut c1, &mut rng);
            }
            if rng.gen::<f64>() < config.mutation_rate {
                species.mutate(&mut c2, &mut rng);
            }
            for child in [c1, c2] {
                if next_pop.len() >= config.population {
                    break;
                }
                let score = fitness(&child);
                assert!(!score.is_nan(), "fitness returned NaN");
                evaluations += 1;
                next_pop.push(child);
                next_scores.push(score);
            }
        }

        population = next_pop;
        scores = next_scores;

        let (gen_best, gen_best_fitness) = snapshot(&population, &scores);
        if gen_best_fitness > best_fitness {
            best = gen_best;
            best_fitness = gen_best_fitness;
        }
        history.push(stats(generation, &scores));
    }

    GaResult {
        best,
        best_fitness,
        history,
        evaluations,
    }
}

fn snapshot<G: Clone>(population: &[G], scores: &[f64]) -> (G, f64) {
    let (idx, &score) = scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
        .expect("non-empty population");
    (population[idx].clone(), score)
}

fn stats(generation: usize, scores: &[f64]) -> GenerationStats {
    let best = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let worst = scores.iter().copied().fold(f64::INFINITY, f64::min);
    let mean = scores.iter().sum::<f64>() / scores.len() as f64;
    GenerationStats {
        generation,
        best,
        mean,
        worst,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::species::{BinaryString, RealVector};

    #[test]
    fn paper_config_values() {
        let c = GaConfig::paper();
        assert_eq!(c.population, 128);
        assert_eq!(c.generations, 15);
        assert_eq!(c.reproduction_rate, 0.5);
        assert_eq!(c.mutation_rate, 0.4);
        assert_eq!(c.selection, Selection::RouletteWheel);
        assert_eq!(GaConfig::default(), c);
    }

    #[test]
    fn maximises_sphere_inverse() {
        // f(x) = 1/(1 + Σx²) peaks at the origin.
        let species = RealVector::new(vec![(-10.0, 10.0); 3]);
        let config = GaConfig {
            population: 60,
            generations: 60,
            seed: Some(42),
            ..GaConfig::paper()
        };
        let result = run(
            &species,
            |g| 1.0 / (1.0 + g.iter().map(|x| x * x).sum::<f64>()),
            &config,
        );
        assert!(
            result.best_fitness > 0.9,
            "best {} at {:?}",
            result.best_fitness,
            result.best
        );
        assert!(result.best.iter().all(|x| x.abs() < 0.5));
    }

    #[test]
    fn solves_onemax() {
        let species = BinaryString::new(48);
        let config = GaConfig {
            population: 80,
            generations: 80,
            mutation_rate: 0.6,
            selection: Selection::Tournament(3),
            elitism: 2,
            seed: Some(7),
            ..GaConfig::paper()
        };
        let result = run(
            &species,
            |g| g.iter().filter(|&&b| b).count() as f64 / 48.0,
            &config,
        );
        assert!(
            result.best_fitness >= 46.0 / 48.0,
            "onemax best {}",
            result.best_fitness
        );
    }

    #[test]
    fn history_is_monotone_in_best_with_elitism() {
        let species = RealVector::new(vec![(-5.0, 5.0); 2]);
        let config = GaConfig {
            population: 40,
            generations: 30,
            elitism: 1,
            seed: Some(3),
            ..GaConfig::paper()
        };
        let result = run(
            &species,
            |g| 1.0 / (1.0 + g.iter().map(|x| x * x).sum::<f64>()),
            &config,
        );
        assert_eq!(result.history.len(), 31);
        for w in result.history.windows(2) {
            assert!(
                w[1].best >= w[0].best - 1e-12,
                "best degraded: {} → {}",
                w[0].best,
                w[1].best
            );
        }
        // Stats are internally consistent.
        for s in &result.history {
            assert!(s.worst <= s.mean && s.mean <= s.best);
        }
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let species = RealVector::new(vec![(-1.0, 1.0); 2]);
        let config = GaConfig {
            population: 20,
            generations: 10,
            seed: Some(123),
            ..GaConfig::paper()
        };
        let f = |g: &Vec<f64>| 1.0 / (1.0 + g.iter().map(|x| x * x).sum::<f64>());
        let a = run(&species, f, &config);
        let b = run(&species, f, &config);
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_fitness, b.best_fitness);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn evaluation_count_accounting() {
        let species = RealVector::new(vec![(-1.0, 1.0); 2]);
        let config = GaConfig {
            population: 10,
            generations: 4,
            reproduction_rate: 0.5,
            seed: Some(1),
            ..GaConfig::paper()
        };
        let mut calls = 0usize;
        let result = run(
            &species,
            |g| {
                calls += 1;
                -g[0].abs()
            },
            &config,
        );
        // 10 initial + 5 offspring × 4 generations... offspring created
        // in pairs, so either 5 or 6 evals/gen depending on truncation;
        // just check the engine's own count matches the closure's.
        assert_eq!(result.evaluations, calls);
    }

    #[test]
    fn negative_fitness_supported() {
        let species = RealVector::new(vec![(-3.0, 3.0)]);
        let config = GaConfig {
            population: 30,
            generations: 40,
            seed: Some(5),
            ..GaConfig::paper()
        };
        // Maximise −x²: optimum 0 at x = 0.
        let result = run(&species, |g| -(g[0] * g[0]), &config);
        assert!(result.best_fitness > -0.05, "{}", result.best_fitness);
    }

    #[test]
    #[should_panic(expected = "population must be at least 2")]
    fn tiny_population_rejected() {
        let species = RealVector::new(vec![(0.0, 1.0)]);
        let config = GaConfig {
            population: 1,
            ..GaConfig::paper()
        };
        let _ = run(&species, |_| 0.0, &config);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_fitness_rejected() {
        let species = RealVector::new(vec![(0.0, 1.0)]);
        let config = GaConfig {
            population: 4,
            generations: 1,
            seed: Some(1),
            ..GaConfig::paper()
        };
        let _ = run(&species, |_| f64::NAN, &config);
    }
}
