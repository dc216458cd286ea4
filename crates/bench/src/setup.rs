//! Shared experiment setup: the paper's CUT, fault universe, dictionary,
//! and the seeded Section 2.4 GA run reused by several experiments.

use ft_circuit::{tow_thomas_normalized, Benchmark};
use ft_core::{select_test_vector, AtpgConfig, AtpgResult};
use ft_faults::{DeviationGrid, FaultDictionary, FaultUniverse};
use ft_numerics::FrequencyGrid;

/// Deterministic seed used by every headline experiment (the year of the
/// paper).
pub const PAPER_SEED: u64 = 2005;

/// Number of grid points in the dictionary sweep.
pub(crate) const DICT_GRID_POINTS: usize = 41;

/// Everything needed to run the paper's experiments on the CUT.
#[derive(Debug, Clone)]
pub struct PaperSetup {
    /// The CUT packaged with input/probe/fault set.
    pub bench: Benchmark,
    /// The 56-fault universe (7 components × ±40% in 10% steps).
    pub universe: FaultUniverse,
    /// The fault dictionary on a 41-point log grid over the search band.
    pub dict: FaultDictionary,
}

/// Builds the paper setup: normalized Tow-Thomas (Q = 1), paper deviation
/// grid, dictionary over 0.01–100 rad/s.
///
/// # Panics
///
/// Panics only on internal inconsistency (the stock benchmark always
/// builds).
pub fn paper_setup() -> PaperSetup {
    let bench = tow_thomas_normalized(1.0).expect("stock benchmark builds");
    let universe = FaultUniverse::new(&bench.fault_set, DeviationGrid::paper());
    let grid = FrequencyGrid::log_space(bench.search_band.0, bench.search_band.1, DICT_GRID_POINTS);
    let dict = FaultDictionary::build(&bench.circuit, &universe, &bench.input, &bench.probe, &grid)
        .expect("dictionary builds for the stock benchmark");
    PaperSetup {
        bench,
        universe,
        dict,
    }
}

/// Runs the paper's GA (§2.4 parameters, seeded) on a setup.
pub(crate) fn ga_paper_result(setup: &PaperSetup) -> AtpgResult {
    let config = AtpgConfig::paper_seeded(setup.bench.search_band, PAPER_SEED);
    select_test_vector(&setup.dict, &config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_builds_paper_universe() {
        let s = paper_setup();
        assert_eq!(s.universe.len(), 56);
        assert_eq!(s.dict.entries().len(), 56);
        assert_eq!(s.dict.grid().len(), DICT_GRID_POINTS);
        assert_eq!(s.bench.fault_set.len(), 7);
    }

    #[test]
    fn ga_run_is_reproducible() {
        let s = paper_setup();
        let a = ga_paper_result(&s);
        let b = ga_paper_result(&s);
        assert_eq!(a.test_vector, b.test_vector);
        assert_eq!(a.intersections, b.intersections);
        assert_eq!(a.history.len(), 16); // initial + 15 generations
    }
}
