//! The separation rules behind ambiguity grouping and the GA's margin
//! fitness, on hand-built trajectories through the public API.

use fault_trajectory::core::{min_separation, pair_separation, FaultTrajectory, TrajectorySet};
use fault_trajectory::prelude::*;

/// A straight trajectory through the origin along `(dx, dy)`: the point
/// of deviation `pct` sits at `pct / 10 · (dx, dy)`.
fn line(name: &str, (dx, dy): (f64, f64), pcts: &[f64]) -> FaultTrajectory {
    let points = pcts
        .iter()
        .map(|p| Signature::new(vec![p / 10.0 * dx, p / 10.0 * dy]))
        .collect();
    FaultTrajectory::new(name, pcts.to_vec(), points)
}

#[test]
fn a_weakly_observable_component_is_separated_at_its_own_scale() {
    let pcts = [-20.0, 0.0, 20.0];
    let set = TrajectorySet::new(
        TestVector::pair(1.0, 2.0),
        vec![
            line("A", (1.0, 0.0), &pcts),
            line("B", (0.0, 1.0), &pcts),
            line("T", (0.0, -0.05), &pcts), // reach 0.1, inside the ball
        ],
    );
    // T is compared within its own radius (0.05), not swallowed by the
    // default 0.5 exclusion ball.
    let weak = pair_separation(&set, "A", "T", &GeometryOptions::default()).unwrap();
    assert!((weak - 0.05 * 2f64.sqrt()).abs() < 1e-12, "{weak}");
}

#[test]
fn an_unobservable_trajectory_makes_min_separation_zero() {
    // `C` never leaves the origin ball: indistinguishable from anything.
    let pcts = [-20.0, -10.0, 0.0, 10.0, 20.0];
    let c = FaultTrajectory::new(
        "C",
        vec![-10.0, 0.0, 10.0],
        vec![
            Signature::new(vec![-0.1, 0.1]),
            Signature::new(vec![0.0, 0.0]),
            Signature::new(vec![0.1, -0.1]),
        ],
    );
    let set = TrajectorySet::new(
        TestVector::pair(1.0, 2.0),
        vec![
            line("A", (1.0, 0.0), &pcts),
            line("B", (0.0, 1.0), &pcts),
            c,
        ],
    );
    assert_eq!(min_separation(&set, &GeometryOptions::default()), 0.0);
}
