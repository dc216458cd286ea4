//! Genome representations and their variation operators.
//!
//! A [`Species`] bundles a genome type with its initialisation, crossover
//! and mutation operators. Two classic representations are provided: the
//! bounded real vector (used by the test-frequency search in log-frequency
//! space) and the binary string (the canonical Holland GA encoding).

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A genome representation plus its variation operators.
pub trait Species {
    /// The genome type evolved by the GA.
    type Genome: Clone + Send + Sync;

    /// Draws a random genome.
    fn random<R: Rng + ?Sized>(&self, rng: &mut R) -> Self::Genome;

    /// Recombines two parents into two offspring.
    fn crossover<R: Rng + ?Sized>(
        &self,
        a: &Self::Genome,
        b: &Self::Genome,
        rng: &mut R,
    ) -> (Self::Genome, Self::Genome);

    /// Mutates a genome in place.
    fn mutate<R: Rng + ?Sized>(&self, genome: &mut Self::Genome, rng: &mut R);
}

/// Bounded real-vector species with BLX-α crossover and Gaussian
/// mutation.
///
/// # Examples
///
/// ```
/// use ft_evolve::RealVector;
/// use ft_evolve::Species;
/// use rand::SeedableRng;
///
/// let species = RealVector::new(vec![(-1.0, 1.0); 3]);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let g = species.random(&mut rng);
/// assert_eq!(g.len(), 3);
/// assert!(g.iter().all(|x| (-1.0..=1.0).contains(x)));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RealVector {
    bounds: Vec<(f64, f64)>,
}

/// BLX-α blending parameter of [`RealVector`]'s crossover.
const BLX_ALPHA: f64 = 0.5;

/// [`RealVector`]'s mutation σ as a fraction of the mutated gene's range.
const MUTATION_SIGMA_REL: f64 = 0.1;

impl RealVector {
    /// Creates a species over the given per-gene bounds, with BLX-0.5
    /// crossover and Gaussian mutation of σ = 10% of the gene's range.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or any `(lo, hi)` has `lo >= hi` or a
    /// non-finite endpoint.
    pub fn new(bounds: Vec<(f64, f64)>) -> Self {
        assert!(!bounds.is_empty(), "need at least one gene");
        for &(lo, hi) in &bounds {
            assert!(
                lo.is_finite() && hi.is_finite() && lo < hi,
                "bad gene bounds ({lo}, {hi})"
            );
        }
        RealVector { bounds }
    }

    fn clamp(&self, i: usize, x: f64) -> f64 {
        let (lo, hi) = self.bounds[i];
        x.clamp(lo, hi)
    }
}

impl Species for RealVector {
    type Genome = Vec<f64>;

    fn random<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        self.bounds
            .iter()
            .map(|&(lo, hi)| rng.gen_range(lo..=hi))
            .collect()
    }

    fn crossover<R: Rng + ?Sized>(
        &self,
        a: &Vec<f64>,
        b: &Vec<f64>,
        rng: &mut R,
    ) -> (Vec<f64>, Vec<f64>) {
        let mut c1 = Vec::with_capacity(a.len());
        let mut c2 = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let (lo, hi) = (a[i].min(b[i]), a[i].max(b[i]));
            let span = (hi - lo).max(f64::MIN_POSITIVE);
            let ext_lo = lo - BLX_ALPHA * span;
            let ext_hi = hi + BLX_ALPHA * span;
            c1.push(self.clamp(i, rng.gen_range(ext_lo..=ext_hi)));
            c2.push(self.clamp(i, rng.gen_range(ext_lo..=ext_hi)));
        }
        (c1, c2)
    }

    fn mutate<R: Rng + ?Sized>(&self, genome: &mut Vec<f64>, rng: &mut R) {
        // Gaussian creep on one uniformly chosen gene (per-call), the
        // fine-search operator matched to low-dimensional genomes.
        let i = rng.gen_range(0..genome.len());
        let (lo, hi) = self.bounds[i];
        let sigma = MUTATION_SIGMA_REL * (hi - lo);
        let n = crate::gaussian(rng);
        genome[i] = self.clamp(i, genome[i] + sigma * n);
    }
}

/// Fixed-length binary-string species with one-point crossover and
/// per-bit flip mutation — the canonical Holland (1975) encoding cited by
/// the paper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinaryString {
    bits: usize,
}

impl BinaryString {
    /// A species of `bits`-long strings with per-bit flip probability
    /// `1/bits`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero.
    pub fn new(bits: usize) -> Self {
        assert!(bits > 0, "need at least one bit");
        BinaryString { bits }
    }

    /// Decodes a bit-slice as an unsigned integer scaled into `[lo, hi]`
    /// — the classic fixed-point decoding of real parameters.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty or longer than 63.
    pub fn decode_real(bits: &[bool], lo: f64, hi: f64) -> f64 {
        assert!(!bits.is_empty() && bits.len() <= 63, "1–63 bits supported");
        let mut v: u64 = 0;
        for &b in bits {
            v = (v << 1) | u64::from(b);
        }
        let max = (1u64 << bits.len()) - 1;
        lo + (hi - lo) * (v as f64) / (max as f64)
    }
}

impl Species for BinaryString {
    type Genome = Vec<bool>;

    fn random<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<bool> {
        (0..self.bits).map(|_| rng.gen()).collect()
    }

    fn crossover<R: Rng + ?Sized>(
        &self,
        a: &Vec<bool>,
        b: &Vec<bool>,
        rng: &mut R,
    ) -> (Vec<bool>, Vec<bool>) {
        if self.bits < 2 {
            return (a.clone(), b.clone());
        }
        let point = rng.gen_range(1..self.bits);
        let mut c1 = a.clone();
        let mut c2 = b.clone();
        c1[point..].copy_from_slice(&b[point..]);
        c2[point..].copy_from_slice(&a[point..]);
        (c1, c2)
    }

    fn mutate<R: Rng + ?Sized>(&self, genome: &mut Vec<bool>, rng: &mut R) {
        let flip_prob = 1.0 / self.bits as f64;
        for bit in genome.iter_mut() {
            if rng.gen::<f64>() < flip_prob {
                *bit = !*bit;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn real_vector_random_within_bounds() {
        let sp = RealVector::new(vec![(0.0, 1.0), (-5.0, 5.0)]);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let g = sp.random(&mut rng);
            assert!((0.0..=1.0).contains(&g[0]));
            assert!((-5.0..=5.0).contains(&g[1]));
        }
    }

    #[test]
    fn real_vector_crossover_respects_bounds() {
        let sp = RealVector::new(vec![(0.0, 1.0); 4]);
        let mut rng = StdRng::seed_from_u64(2);
        let a = sp.random(&mut rng);
        let b = sp.random(&mut rng);
        for _ in 0..50 {
            let (c1, c2) = sp.crossover(&a, &b, &mut rng);
            for g in [&c1, &c2] {
                assert!(g.iter().all(|x| (0.0..=1.0).contains(x)), "{g:?}");
            }
        }
    }

    #[test]
    fn real_vector_mutation_changes_one_gene() {
        let sp = RealVector::new(vec![(0.0, 100.0); 5]);
        let mut rng = StdRng::seed_from_u64(3);
        let original = vec![50.0; 5];
        let mut changed_total = 0;
        for _ in 0..50 {
            let mut g = original.clone();
            sp.mutate(&mut g, &mut rng);
            let changed = g
                .iter()
                .zip(&original)
                .filter(|(a, b)| (*a - *b).abs() > 1e-12)
                .count();
            assert!(changed <= 1);
            changed_total += changed;
        }
        assert!(changed_total > 25, "mutation almost never fired");
    }

    #[test]
    #[should_panic(expected = "bad gene bounds")]
    fn degenerate_bounds_rejected() {
        let _ = RealVector::new(vec![(1.0, 1.0)]);
    }

    #[test]
    fn binary_random_and_mutation() {
        let sp = BinaryString::new(64);
        let mut rng = StdRng::seed_from_u64(4);
        let g = sp.random(&mut rng);
        assert_eq!(g.len(), 64);
        // A one-bit string flips with probability 1/1: always.
        let mut bit = vec![true];
        BinaryString::new(1).mutate(&mut bit, &mut rng);
        assert_eq!(bit, [false]);
    }

    #[test]
    fn binary_one_point_crossover() {
        let sp = BinaryString::new(16);
        let mut rng = StdRng::seed_from_u64(5);
        let a = vec![true; 16];
        let b = vec![false; 16];
        let (c1, c2) = sp.crossover(&a, &b, &mut rng);
        // Each child is a prefix of one parent and suffix of the other.
        let switches1 = c1.windows(2).filter(|w| w[0] != w[1]).count();
        let switches2 = c2.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(switches1, 1);
        assert_eq!(switches2, 1);
        assert!(c1[0] && !c1[15]);
        assert!(!c2[0] && c2[15]);
    }

    #[test]
    fn binary_decoding() {
        assert_eq!(BinaryString::decode_real(&[false, false], 0.0, 3.0), 0.0);
        assert_eq!(BinaryString::decode_real(&[true, true], 0.0, 3.0), 3.0);
        assert_eq!(BinaryString::decode_real(&[false, true], 0.0, 3.0), 1.0);
        assert_eq!(BinaryString::decode_real(&[true, false], 0.0, 3.0), 2.0);
    }

    #[test]
    #[should_panic(expected = "1–63 bits")]
    fn decode_length_checked() {
        let _ = BinaryString::decode_real(&[], 0.0, 1.0);
    }
}
