//! Deterministic synthetic trajectory sets for stress tests and
//! benchmarks.
//!
//! Real banks for the paper's CUT hold 7 trajectories × 8 segments; the
//! index only shows its worth at production scale. Two generators are
//! provided: a geometric one ([`synthetic_trajectory_set`]) that builds
//! plausible sets of arbitrary size — every trajectory passes through the
//! origin (the 0% point, as real fault trajectories do), radiates outward
//! with a per-component direction, and bends slightly so segments are not
//! collinear — and a circuit-backed one ([`synthetic_circuit_bank`]) that
//! actually simulates an RLC-ladder CUT of configurable order on the
//! stamp-split AC sweep engine, so serving benchmarks can exercise the
//! full offline pipeline at scale.

use ft_circuit::{rlc_ladder_lowpass, CircuitError};
use ft_core::{FaultTrajectory, Signature, TestVector, TrajectorySet};
use ft_faults::{DeviationGrid, FaultDictionary, FaultUniverse};
use ft_numerics::FrequencyGrid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::bank::TrajectoryBank;

/// Signature-space radius the synthetic trajectories extend to (dB).
const EXTENT_DB: f64 = 6.0;

/// Builds a synthetic trajectory set: `components` trajectories of
/// `2 * points_per_branch` segments each (deviations from −40% to +40%
/// through the 0% origin) in a `dim`-dimensional signature space,
/// seeded deterministically.
///
/// # Panics
///
/// Panics if `components == 0`, `points_per_branch == 0`, or `dim == 0`.
pub fn synthetic_trajectory_set(
    components: usize,
    points_per_branch: usize,
    dim: usize,
    seed: u64,
) -> TrajectorySet {
    assert!(components > 0, "need at least one component");
    assert!(points_per_branch > 0, "need at least one point per branch");
    assert!(dim > 0, "signature space needs at least one dimension");
    let mut rng = StdRng::seed_from_u64(seed);
    let n = points_per_branch as i64;

    let mut trajectories = Vec::with_capacity(components);
    for c in 0..components {
        // Random primary direction, unit length.
        let mut u: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let norm = u.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-9);
        u.iter_mut().for_each(|x| *x /= norm);
        // Curvature direction bends the polyline so segments differ.
        let v: Vec<f64> = (0..dim).map(|_| rng.gen_range(-0.3..0.3)).collect();

        let devs: Vec<f64> = (-n..=n).map(|k| k as f64 * (40.0 / n as f64)).collect();
        let points: Vec<Signature> = (-n..=n)
            .map(|k| {
                let t = k as f64 / n as f64; // −1 ‥ +1, 0 at the origin
                let r = t * EXTENT_DB;
                let bend = t * t * EXTENT_DB;
                Signature::new((0..dim).map(|d| u[d] * r + v[d] * bend).collect())
            })
            .collect();
        trajectories.push(FaultTrajectory::new(format!("C{c}"), devs, points));
    }

    let tv = TestVector::new((1..=dim).map(|k| k as f64).collect());
    TrajectorySet::new(tv, trajectories)
}

/// Builds a complete, deterministic [`TrajectoryBank`] by *simulating* a
/// doubly-terminated Butterworth RLC ladder of the given order: the full
/// offline pipeline — engine-backed fault-dictionary build over the
/// paper's deviation grid, trajectory materialisation at `tv` — on a CUT
/// whose size scales with `order` (passives: `order + 2`, with inductor
/// branch-current unknowns in the MNA system).
///
/// Unlike [`synthetic_trajectory_set`], the responses here are real
/// circuit physics, so the bank also exercises the simulation layers in
/// serving benchmarks.
///
/// # Errors
///
/// Propagates simulation errors (none occur for supported orders).
///
/// # Panics
///
/// Panics if `order` is outside the ladder library's 1–9 range, if
/// `deviation_step_pct` does not satisfy `0 < step ≤ 40`, or if
/// `grid_points < 2`.
pub fn synthetic_circuit_bank(
    order: usize,
    deviation_step_pct: f64,
    grid_points: usize,
    tv: &TestVector,
) -> Result<TrajectoryBank, CircuitError> {
    assert!(grid_points >= 2, "need at least two grid points");
    let bench = rlc_ladder_lowpass(order)?;
    let universe = FaultUniverse::new(
        &bench.fault_set,
        DeviationGrid::new(40.0, deviation_step_pct),
    );
    let grid = FrequencyGrid::log_space(bench.search_band.0, bench.search_band.1, grid_points);
    let dict =
        FaultDictionary::build(&bench.circuit, &universe, &bench.input, &bench.probe, &grid)?;
    Ok(TrajectoryBank::build(dict, tv))
}

/// Draws `count` query signatures near the set's trajectories (random
/// trajectory point plus jitter) — realistic observations for
/// benchmarking, seeded deterministically. Reads the set through
/// borrowed views, so a packed set (one read from a bank file) is never
/// copied, and draws the same queries from either storage.
pub fn synthetic_queries(set: &TrajectorySet, count: usize, seed: u64) -> Vec<Signature> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let t = set.view(rng.gen_range(0..set.len()));
            let p = t.point(rng.gen_range(0..t.point_count()));
            Signature::new(
                p.iter()
                    .map(|&x| x + rng.gen_range(-0.25..0.25))
                    .collect::<Vec<f64>>(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_determinism() {
        let set = synthetic_trajectory_set(64, 8, 2, 7);
        assert_eq!(set.len(), 64);
        assert_eq!(set.dim(), 2);
        assert_eq!(set.total_segments(), 64 * 16);
        assert!(set.total_segments() >= 1000, "bench-scale bank");
        // Every trajectory passes through the origin.
        for t in set.trajectories() {
            let oi = t.deviations_pct().iter().position(|d| *d == 0.0).unwrap();
            assert!(t.points()[oi].norm() < 1e-12);
        }
        // Same seed, same set; different seed, different geometry.
        assert_eq!(set, synthetic_trajectory_set(64, 8, 2, 7));
        assert_ne!(set, synthetic_trajectory_set(64, 8, 2, 8));
    }

    #[test]
    fn queries_are_deterministic_and_well_shaped() {
        let set = synthetic_trajectory_set(8, 4, 3, 1);
        let qs = synthetic_queries(&set, 10, 2);
        assert_eq!(qs.len(), 10);
        assert!(qs.iter().all(|q| q.dim() == 3));
        assert_eq!(qs, synthetic_queries(&set, 10, 2));
    }

    #[test]
    fn queries_from_a_packed_set_equal_the_owned_sets() {
        let tv = TestVector::pair(0.5, 2.0);
        let built = synthetic_circuit_bank(3, 10.0, 11, &tv).unwrap();
        let read = TrajectoryBank::from_bytes(&built.to_bytes()).unwrap();
        assert!(!built.trajectory_set().is_packed());
        assert!(read.trajectory_set().is_packed());
        assert_eq!(
            synthetic_queries(read.trajectory_set(), 40, 9),
            synthetic_queries(built.trajectory_set(), 40, 9)
        );
    }

    #[test]
    fn higher_dimensional_sets_build() {
        let set = synthetic_trajectory_set(4, 3, 4, 3);
        assert_eq!(set.dim(), 4);
        assert_eq!(set.channels(), 1);
    }

    #[test]
    fn circuit_bank_simulates_and_round_trips() {
        let tv = TestVector::pair(0.5, 2.0);
        let bank = synthetic_circuit_bank(3, 10.0, 11, &tv).unwrap();
        // Order-3 ladder: RS, C1, L2, C3, RL = 5 passives × 8 deviations.
        assert_eq!(bank.trajectory_set().len(), 5);
        assert_eq!(bank.dictionary().entries().len(), 40);
        assert_eq!(bank.test_vector(), &tv);
        // Deterministic (the engine path is chunking-invariant) and
        // codec-round-trippable like any real bank.
        let again = synthetic_circuit_bank(3, 10.0, 11, &tv).unwrap();
        assert_eq!(bank.to_bytes(), again.to_bytes());
        let back = TrajectoryBank::from_bytes(&bank.to_bytes()).unwrap();
        assert_eq!(bank, back);
    }

    #[test]
    fn circuit_bank_scales_with_step() {
        let tv = TestVector::pair(0.5, 2.0);
        let dense = synthetic_circuit_bank(2, 5.0, 9, &tv).unwrap();
        // 4 passives × 16 deviations at a 5% step.
        assert_eq!(dense.dictionary().entries().len(), 64);
        assert!(dense.trajectory_set().total_segments() > 60);
    }
}
