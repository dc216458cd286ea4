//! Frequency grids for AC sweeps and dictionary sampling.
//!
//! Test-frequency search happens in log space (the natural metric for
//! filter responses); this module provides linear and logarithmic grids
//! over angular frequency (rad/s).

use serde::{Deserialize, Serialize};

/// Spacing rule of a frequency grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Spacing {
    /// Equal steps in frequency.
    Linear,
    /// Equal steps in log₁₀(frequency) — decades.
    Logarithmic,
}

/// An ordered grid of angular frequencies (rad/s).
///
/// # Examples
///
/// ```
/// use ft_numerics::FrequencyGrid;
///
/// let grid = FrequencyGrid::log_space(0.01, 100.0, 5);
/// let w = grid.frequencies();
/// assert_eq!(w.len(), 5);
/// assert!((w[0] - 0.01).abs() < 1e-12);
/// assert!((w[4] - 100.0).abs() < 1e-9);
/// assert!((w[2] - 1.0).abs() < 1e-9); // geometric midpoint
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrequencyGrid {
    freqs: Vec<f64>,
    spacing: Spacing,
}

impl FrequencyGrid {
    /// Logarithmically spaced grid of `n` points from `w_min` to `w_max`
    /// rad/s, inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `w_min <= 0`, `w_max <= w_min`, or `n < 2`.
    pub fn log_space(w_min: f64, w_max: f64, n: usize) -> Self {
        assert!(w_min > 0.0, "log grid requires positive start");
        assert!(w_max > w_min, "w_max must exceed w_min");
        assert!(n >= 2, "grid needs at least two points");
        let (l0, l1) = (w_min.log10(), w_max.log10());
        let step = (l1 - l0) / (n - 1) as f64;
        let freqs = (0..n).map(|i| 10f64.powf(l0 + step * i as f64)).collect();
        FrequencyGrid {
            freqs,
            spacing: Spacing::Logarithmic,
        }
    }

    /// Linearly spaced grid of `n` points from `w_min` to `w_max` rad/s,
    /// inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `w_max <= w_min` or `n < 2`.
    pub fn lin_space(w_min: f64, w_max: f64, n: usize) -> Self {
        assert!(w_max > w_min, "w_max must exceed w_min");
        assert!(n >= 2, "grid needs at least two points");
        let step = (w_max - w_min) / (n - 1) as f64;
        let freqs = (0..n).map(|i| w_min + step * i as f64).collect();
        FrequencyGrid {
            freqs,
            spacing: Spacing::Linear,
        }
    }

    /// Creates a grid from explicit angular frequencies.
    ///
    /// # Panics
    ///
    /// Panics if `freqs` is empty, unsorted, or contains non-positive or
    /// non-finite entries.
    pub(crate) fn from_frequencies(freqs: Vec<f64>) -> Self {
        assert!(!freqs.is_empty(), "grid must not be empty");
        assert!(
            freqs.iter().all(|w| w.is_finite() && *w > 0.0),
            "frequencies must be finite and positive"
        );
        assert!(
            freqs.windows(2).all(|w| w[0] < w[1]),
            "frequencies must be strictly increasing"
        );
        FrequencyGrid {
            freqs,
            spacing: Spacing::Linear,
        }
    }

    /// Reassembles a grid from persisted parts (frequencies plus the
    /// spacing rule they were generated with) — the deserialisation
    /// counterpart of [`FrequencyGrid::frequencies`] /
    /// [`FrequencyGrid::spacing`], used by the `ft-serve` bank codec.
    ///
    /// # Panics
    ///
    /// As `FrequencyGrid::from_frequencies`: panics if `freqs` is
    /// empty, unsorted, or contains non-positive or non-finite entries.
    pub fn from_parts(freqs: Vec<f64>, spacing: Spacing) -> Self {
        let mut grid = FrequencyGrid::from_frequencies(freqs);
        grid.spacing = spacing;
        grid
    }

    /// The angular frequencies (rad/s), strictly increasing.
    #[inline]
    pub fn frequencies(&self) -> &[f64] {
        &self.freqs
    }

    /// Number of grid points.
    #[inline]
    pub fn len(&self) -> usize {
        self.freqs.len()
    }

    /// `true` when the grid has no points (never for constructed grids).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.freqs.is_empty()
    }

    /// Spacing rule used to build the grid.
    #[inline]
    pub fn spacing(&self) -> Spacing {
        self.spacing
    }

    /// Iterator over the angular frequencies.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, f64>> {
        self.freqs.iter().copied()
    }
}

impl<'a> IntoIterator for &'a FrequencyGrid {
    type Item = f64;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, f64>>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_parts_round_trips_spacing() {
        let g = FrequencyGrid::log_space(0.01, 100.0, 9);
        let back = FrequencyGrid::from_parts(g.frequencies().to_vec(), g.spacing());
        assert_eq!(g, back);
        let lin = FrequencyGrid::lin_space(1.0, 10.0, 4);
        let back = FrequencyGrid::from_parts(lin.frequencies().to_vec(), lin.spacing());
        assert_eq!(lin, back);
    }

    #[test]
    fn log_space_endpoints_and_midpoint() {
        let g = FrequencyGrid::log_space(1.0, 100.0, 3);
        let w = g.frequencies();
        assert!((w[0] - 1.0).abs() < 1e-12);
        assert!((w[1] - 10.0).abs() < 1e-9);
        assert!((w[2] - 100.0).abs() < 1e-9);
        assert_eq!(g.spacing(), Spacing::Logarithmic);
    }

    #[test]
    fn lin_space_uniform() {
        let g = FrequencyGrid::lin_space(0.0, 10.0, 6);
        let w = g.frequencies();
        assert_eq!(w.len(), 6);
        for (i, v) in w.iter().enumerate() {
            assert!((v - 2.0 * i as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn explicit_frequencies_validated() {
        let g = FrequencyGrid::from_frequencies(vec![1.0, 5.0, 9.0]);
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
        assert_eq!(g.frequencies(), [1.0, 5.0, 9.0]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_rejected() {
        let _ = FrequencyGrid::from_frequencies(vec![1.0, 0.5]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn nonpositive_rejected() {
        let _ = FrequencyGrid::from_frequencies(vec![0.0, 1.0]);
    }

    #[test]
    fn iteration() {
        let g = FrequencyGrid::lin_space(1.0, 3.0, 3);
        let collected: Vec<f64> = (&g).into_iter().collect();
        assert_eq!(collected, vec![1.0, 2.0, 3.0]);
    }
}
