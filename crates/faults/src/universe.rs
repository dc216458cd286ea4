//! Fault universes: the systematic enumeration of dictionary faults.
//!
//! The paper builds its dictionary by deviating each passive component
//! from 60% to 140% of nominal in 10% steps (zero = golden). A
//! [`DeviationGrid`] captures that rule; a [`FaultUniverse`] is the grid
//! applied to a component list.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::model::ParametricFault;

/// Symmetric deviation grid: `±max_pct` in steps of `step_pct`, excluding
/// zero (the golden circuit is handled separately).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviationGrid {
    max_pct: f64,
    step_pct: f64,
}

impl DeviationGrid {
    /// The paper's grid: 60%–140% of nominal in 10% steps, i.e. ±40%.
    pub fn paper() -> Self {
        DeviationGrid {
            max_pct: 40.0,
            step_pct: 10.0,
        }
    }

    /// Custom symmetric grid.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < step_pct <= max_pct < 100`.
    pub fn new(max_pct: f64, step_pct: f64) -> Self {
        assert!(
            step_pct > 0.0 && step_pct <= max_pct && max_pct < 100.0,
            "need 0 < step_pct <= max_pct < 100"
        );
        DeviationGrid { max_pct, step_pct }
    }

    /// Maximum absolute deviation in percent.
    #[inline]
    pub fn max_pct(&self) -> f64 {
        self.max_pct
    }

    /// Step size in percent.
    #[inline]
    pub fn step_pct(&self) -> f64 {
        self.step_pct
    }

    /// The deviation percentages, negative to positive, zero excluded:
    /// for the paper grid `[-40, -30, -20, -10, +10, +20, +30, +40]`.
    pub(crate) fn percentages(&self) -> Vec<f64> {
        let n = (self.max_pct / self.step_pct).round() as i64;
        let mut out = Vec::with_capacity(2 * n as usize);
        for k in -n..=n {
            if k == 0 {
                continue;
            }
            out.push(k as f64 * self.step_pct);
        }
        out
    }

    /// Draws a uniformly random *off-grid* deviation in the covered range
    /// with magnitude at least `min_abs_pct` — the unknown faults of the
    /// Monte Carlo diagnosis experiments.
    pub(crate) fn sample_off_grid<R: Rng + ?Sized>(&self, rng: &mut R, min_abs_pct: f64) -> f64 {
        loop {
            let p = rng.gen_range(-self.max_pct..=self.max_pct);
            if p.abs() < min_abs_pct {
                continue;
            }
            // Reject (rare) exact grid hits so the fault is truly unseen.
            let on_grid = (p / self.step_pct - (p / self.step_pct).round()).abs() < 1e-9;
            if !on_grid {
                return p;
            }
        }
    }
}

impl Default for DeviationGrid {
    fn default() -> Self {
        DeviationGrid::paper()
    }
}

/// The full fault list of a circuit under a deviation grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultUniverse {
    components: Vec<String>,
    grid: DeviationGrid,
    faults: Vec<ParametricFault>,
}

impl FaultUniverse {
    /// Enumerates `grid` over `components` (insertion order preserved:
    /// all deviations of component 0, then component 1, …).
    pub fn new<S: AsRef<str>>(components: &[S], grid: DeviationGrid) -> Self {
        let components: Vec<String> = components.iter().map(|s| s.as_ref().to_string()).collect();
        let mut faults = Vec::new();
        for comp in &components {
            for pct in grid.percentages() {
                faults.push(ParametricFault::from_percent(comp.clone(), pct));
            }
        }
        FaultUniverse {
            components,
            grid,
            faults,
        }
    }

    /// The component names covered.
    #[inline]
    pub fn components(&self) -> &[String] {
        &self.components
    }

    /// The deviation grid in force.
    #[inline]
    pub fn grid(&self) -> &DeviationGrid {
        &self.grid
    }

    /// All faults, grouped by component.
    #[inline]
    pub fn faults(&self) -> &[ParametricFault] {
        &self.faults
    }

    /// Number of faults.
    #[inline]
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// `true` when no faults are enumerated.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Draws a random unknown fault: uniformly chosen component, off-grid
    /// deviation of magnitude ≥ `min_abs_pct`.
    pub fn sample_unknown<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        min_abs_pct: f64,
    ) -> ParametricFault {
        let comp = &self.components[rng.gen_range(0..self.components.len())];
        let pct = self.grid.sample_off_grid(rng, min_abs_pct);
        ParametricFault::from_percent(comp.clone(), pct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_grid_percentages() {
        let g = DeviationGrid::paper();
        assert_eq!(
            g.percentages(),
            vec![-40.0, -30.0, -20.0, -10.0, 10.0, 20.0, 30.0, 40.0]
        );
    }

    #[test]
    fn custom_grid() {
        let g = DeviationGrid::new(20.0, 5.0);
        assert_eq!(g.percentages().len(), 8);
        assert_eq!(g.max_pct(), 20.0);
        assert_eq!(g.step_pct(), 5.0);
    }

    #[test]
    #[should_panic(expected = "step_pct")]
    fn invalid_grid_rejected() {
        let _ = DeviationGrid::new(10.0, 20.0);
    }

    #[test]
    fn universe_enumeration() {
        let u = FaultUniverse::new(&["R1", "C1"], DeviationGrid::paper());
        // 2 components × 8 deviations.
        assert_eq!(u.len(), 16);
        assert!(!u.is_empty());
        assert_eq!(u.components(), &["R1".to_string(), "C1".to_string()]);
        // Grouped ordering: first 8 faults are R1.
        assert!(u.faults()[..8].iter().all(|f| f.component() == "R1"));
        assert!(u.faults()[8..].iter().all(|f| f.component() == "C1"));
        // Within a component, deviations ascend.
        let devs: Vec<f64> = u.faults()[..8].iter().map(|f| f.percent()).collect();
        assert_eq!(devs, DeviationGrid::paper().percentages());
    }

    #[test]
    fn paper_universe_size_matches_paper() {
        // Seven passives × 8 deviations = 56 faulty circuits.
        let comps = ["R1", "R2", "R3", "R4", "R5", "C1", "C2"];
        let u = FaultUniverse::new(&comps, DeviationGrid::paper());
        assert_eq!(u.len(), 56);
    }

    #[test]
    fn off_grid_sampling() {
        let g = DeviationGrid::paper();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let p = g.sample_off_grid(&mut rng, 5.0);
            assert!(p.abs() >= 5.0 && p.abs() <= 40.0, "{p}");
            let ratio = p / g.step_pct();
            assert!((ratio - ratio.round()).abs() > 1e-9, "on-grid {p}");
        }
    }

    #[test]
    fn sample_unknown_covers_components() {
        let u = FaultUniverse::new(&["R1", "R2", "R3"], DeviationGrid::paper());
        let mut rng = StdRng::seed_from_u64(42);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let f = u.sample_unknown(&mut rng, 5.0);
            seen.insert(f.component().to_string());
        }
        assert_eq!(seen.len(), 3, "all components should be sampled");
    }
}
