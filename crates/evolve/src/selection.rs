//! Parent-selection ("mining") methods.
//!
//! The paper uses roulette-wheel selection; tournament and linear-rank
//! selection are provided for the ablation experiments.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parent-selection strategy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Selection {
    /// Fitness-proportionate sampling (requires non-negative fitness;
    /// negative values are shifted before sampling).
    #[default]
    RouletteWheel,
    /// Best of `k` uniformly drawn contestants.
    Tournament(usize),
    /// Linear ranking with selection pressure `sp` in `[1, 2]`.
    Rank {
        /// Selection pressure: 1 = uniform, 2 = maximal.
        pressure: f64,
    },
}

impl Selection {
    /// Picks one parent index given the population's fitness values
    /// (higher is better).
    ///
    /// # Panics
    ///
    /// Panics if `fitness` is empty, contains NaN, or the strategy
    /// parameters are invalid (`Tournament(0)`, pressure outside
    /// `[1, 2]`).
    pub(crate) fn pick<R: Rng + ?Sized>(&self, fitness: &[f64], rng: &mut R) -> usize {
        assert!(
            !fitness.is_empty(),
            "cannot select from an empty population"
        );
        assert!(
            fitness.iter().all(|f| !f.is_nan()),
            "fitness must not contain NaN"
        );
        match *self {
            Selection::RouletteWheel => roulette(fitness, rng),
            Selection::Tournament(k) => {
                assert!(k > 0, "tournament size must be positive");
                let mut best = rng.gen_range(0..fitness.len());
                for _ in 1..k {
                    let challenger = rng.gen_range(0..fitness.len());
                    if fitness[challenger] > fitness[best] {
                        best = challenger;
                    }
                }
                best
            }
            Selection::Rank { pressure } => {
                assert!(
                    (1.0..=2.0).contains(&pressure),
                    "rank pressure must be in [1, 2]"
                );
                rank_select(fitness, pressure, rng)
            }
        }
    }
}

fn roulette<R: Rng + ?Sized>(fitness: &[f64], rng: &mut R) -> usize {
    let min = fitness.iter().copied().fold(f64::INFINITY, f64::min);
    let shift = if min < 0.0 { -min } else { 0.0 };
    let total: f64 = fitness.iter().map(|f| f + shift).sum();
    if total <= 0.0 || !total.is_finite() {
        // Degenerate wheel (all zero/identical negative): uniform pick.
        return rng.gen_range(0..fitness.len());
    }
    let mut spin = rng.gen::<f64>() * total;
    for (i, f) in fitness.iter().enumerate() {
        spin -= f + shift;
        if spin <= 0.0 {
            return i;
        }
    }
    fitness.len() - 1
}

fn rank_select<R: Rng + ?Sized>(fitness: &[f64], pressure: f64, rng: &mut R) -> usize {
    let n = fitness.len();
    // ranks[i] = index of the i-th worst individual.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| fitness[a].partial_cmp(&fitness[b]).expect("no NaN"));
    // Linear ranking weights: worst gets 2−sp, best gets sp.
    let weights: Vec<f64> = (0..n)
        .map(|rank| 2.0 - pressure + 2.0 * (pressure - 1.0) * rank as f64 / (n.max(2) - 1) as f64)
        .collect();
    let total: f64 = weights.iter().sum();
    let mut spin = rng.gen::<f64>() * total;
    for (rank, w) in weights.iter().enumerate() {
        spin -= w;
        if spin <= 0.0 {
            return order[rank];
        }
    }
    order[n - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pick_histogram(sel: Selection, fitness: &[f64], trials: usize) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(99);
        let mut counts = vec![0usize; fitness.len()];
        for _ in 0..trials {
            counts[sel.pick(fitness, &mut rng)] += 1;
        }
        counts
    }

    #[test]
    fn roulette_prefers_fit_individuals() {
        let fitness = [1.0, 3.0, 6.0];
        let counts = pick_histogram(Selection::RouletteWheel, &fitness, 30_000);
        // Expected proportions 0.1 / 0.3 / 0.6.
        assert!((counts[0] as f64 / 30_000.0 - 0.1).abs() < 0.02);
        assert!((counts[1] as f64 / 30_000.0 - 0.3).abs() < 0.02);
        assert!((counts[2] as f64 / 30_000.0 - 0.6).abs() < 0.02);
    }

    #[test]
    fn roulette_handles_negative_and_zero() {
        let counts = pick_histogram(Selection::RouletteWheel, &[-1.0, 0.0, 1.0], 10_000);
        // After shifting: weights 0, 1, 2 → index 0 never chosen.
        assert_eq!(counts[0], 0);
        assert!(counts[2] > counts[1]);
        // All-equal wheel degrades to uniform.
        let counts = pick_histogram(Selection::RouletteWheel, &[0.0, 0.0], 10_000);
        assert!(counts[0] > 4_000 && counts[1] > 4_000);
    }

    #[test]
    fn tournament_pressure_grows_with_k() {
        let fitness = [1.0, 2.0, 3.0, 4.0];
        let k2 = pick_histogram(Selection::Tournament(2), &fitness, 20_000);
        let k4 = pick_histogram(Selection::Tournament(4), &fitness, 20_000);
        // Larger tournaments pick the best more often.
        assert!(k4[3] > k2[3]);
        // Best is most popular in both.
        assert!(k2[3] > k2[0]);
    }

    #[test]
    fn tournament_one_is_uniform() {
        let counts = pick_histogram(Selection::Tournament(1), &[1.0, 100.0], 20_000);
        assert!((counts[0] as f64 / 20_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    fn rank_ignores_fitness_scale() {
        // Huge fitness gaps don't change rank selection probabilities.
        let a = pick_histogram(Selection::Rank { pressure: 1.8 }, &[1.0, 2.0, 3.0], 30_000);
        let b = pick_histogram(Selection::Rank { pressure: 1.8 }, &[1.0, 1e6, 1e12], 30_000);
        for (x, y) in a.iter().zip(&b) {
            assert!(
                ((*x as f64) - (*y as f64)).abs() / 30_000.0 < 0.02,
                "{a:?} vs {b:?}"
            );
        }
        // Best preferred over worst.
        assert!(a[2] > a[0]);
    }

    #[test]
    #[should_panic(expected = "empty population")]
    fn empty_population_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = Selection::RouletteWheel.pick(&[], &mut rng);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_fitness_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = Selection::RouletteWheel.pick(&[1.0, f64::NAN], &mut rng);
    }

    #[test]
    #[should_panic(expected = "tournament size")]
    fn zero_tournament_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = Selection::Tournament(0).pick(&[1.0], &mut rng);
    }

    #[test]
    #[should_panic(expected = "pressure")]
    fn bad_rank_pressure_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = Selection::Rank { pressure: 3.0 }.pick(&[1.0, 2.0], &mut rng);
    }
}
