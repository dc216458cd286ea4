//! Test-vector fitness (paper §2.3–2.4).
//!
//! The paper's fitness for a test vector is `1/(1+I)` where `I` counts
//! "common pathways, and intersections among the fault trajectories"
//! (§2.4). Both are implemented: a segment pair from different
//! trajectories contributes to `I` when it crosses **or** runs within
//! [`GeometryOptions::pathway_eps`] of the other — near-collinear shared
//! pathways are exactly as damaging to diagnosability as crossings, and
//! without the pathway term the fitness landscape has a large degenerate
//! plateau at low frequencies where every trajectory collapses onto the
//! gain diagonal.
//!
//! Because *every* trajectory passes through the golden origin (the 0%
//! point), counting happens on segments clipped against an exclusion
//! ball around the origin (radius configurable, ablated in the
//! experiments).
//!
//! Two refinements are provided for the ablation study: a continuous
//! separation-margin fitness (gradient where the integer count plateaus)
//! and a hybrid of both.

use serde::{Deserialize, Serialize};

use crate::geometry::{norm, segment_segment_distance, segments_intersect_2d};
use crate::trajectory::{TrajectorySet, TrajectoryView};

/// Geometric tolerances for trajectory analysis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeometryOptions {
    /// Radius (dB) of the exclusion ball around the golden origin inside
    /// which contact is not counted: all trajectories meet at the origin
    /// by construction.
    pub origin_exclusion: f64,
    /// Tolerance used for intersection predicates and, in dimensions
    /// other than 2, the distance below which segments count as
    /// intersecting.
    pub eps: f64,
    /// Distance (dB) below which two non-crossing segments count as a
    /// *common pathway* (§2.4's second criterion). Must be smaller than
    /// `origin_exclusion`, or ball-adjacent segments of every pair would
    /// register.
    pub pathway_eps: f64,
}

impl Default for GeometryOptions {
    fn default() -> Self {
        GeometryOptions {
            origin_exclusion: 0.5,
            eps: 1e-9,
            pathway_eps: 0.05,
        }
    }
}

/// Clips segment `(p0, p1)` against the origin ball of radius `r`,
/// returning the part outside the ball (or `None` when fully inside).
pub(crate) fn clip_segment_outside_ball(
    p0: &[f64],
    p1: &[f64],
    r: f64,
) -> Option<(Vec<f64>, Vec<f64>)> {
    let inside0 = norm(p0) < r;
    let inside1 = norm(p1) < r;
    if !inside0 && !inside1 {
        return Some((p0.to_vec(), p1.to_vec()));
    }
    if inside0 && inside1 {
        return None;
    }
    // Exactly one endpoint inside: solve |p0 + t·(p1−p0)|² = r².
    let n = p0.len();
    let mut d = vec![0.0; n];
    for i in 0..n {
        d[i] = p1[i] - p0[i];
    }
    let a: f64 = d.iter().map(|x| x * x).sum();
    let b: f64 = 2.0 * p0.iter().zip(&d).map(|(x, y)| x * y).sum::<f64>();
    let c: f64 = p0.iter().map(|x| x * x).sum::<f64>() - r * r;
    let disc = b * b - 4.0 * a * c;
    if disc <= 0.0 || a == 0.0 {
        // Tangent/degenerate: treat as fully outside to stay conservative.
        return Some((p0.to_vec(), p1.to_vec()));
    }
    let sqrt_disc = disc.sqrt();
    let t1 = (-b - sqrt_disc) / (2.0 * a);
    let t2 = (-b + sqrt_disc) / (2.0 * a);
    let boundary = |t: f64| -> Vec<f64> { (0..n).map(|i| p0[i] + t * d[i]).collect() };
    if inside0 {
        // Keep [t_exit, 1].
        let t = if (0.0..=1.0).contains(&t2) { t2 } else { t1 };
        Some((boundary(t.clamp(0.0, 1.0)), p1.to_vec()))
    } else {
        // Keep [0, t_enter].
        let t = if (0.0..=1.0).contains(&t1) { t1 } else { t2 };
        Some((p0.to_vec(), boundary(t.clamp(0.0, 1.0))))
    }
}

/// A segment's part outside the origin ball, as its two endpoints.
pub(crate) type ClippedSegment = (Vec<f64>, Vec<f64>);

/// Each trajectory's segments clipped, once, against the origin ball of
/// radius `r`. Segments wholly inside the ball are dropped, so an empty
/// entry is a trajectory that never leaves the ball.
pub(crate) fn clip_outside_ball<'a>(
    trajectories: impl IntoIterator<Item = TrajectoryView<'a>>,
    r: f64,
) -> Vec<Vec<ClippedSegment>> {
    let clip = |t: TrajectoryView<'a>| {
        t.segments()
            .filter_map(|(_, p0, _, p1)| clip_segment_outside_ball(p0, p1, r))
            .collect()
    };
    trajectories.into_iter().map(clip).collect()
}

/// Closest approach of two clipped trajectories: the least distance
/// between their segments. A trajectory with no segment outside the
/// ball is unobservable, indistinguishable from anything: 0.
pub(crate) fn closest_approach(a: &[ClippedSegment], b: &[ClippedSegment]) -> f64 {
    let mut best = f64::INFINITY;
    for (a0, a1) in a {
        for (b0, b1) in b {
            best = best.min(segment_segment_distance(a0, a1, b0, b1));
        }
    }
    if best.is_finite() {
        best
    } else {
        0.0
    }
}

/// Counts intersections *and common pathways* between segments of
/// different trajectories, with origin-ball clipping (the paper's `I`).
///
/// A segment pair contributes when it properly crosses or when the two
/// segments run within [`GeometryOptions::pathway_eps`] of each other.
pub fn count_intersections(set: &TrajectorySet, opts: &GeometryOptions) -> usize {
    let clipped = clip_outside_ball(set.views(), opts.origin_exclusion);
    let mut count = 0;
    for (i, a) in clipped.iter().enumerate() {
        for b in &clipped[i + 1..] {
            for (ca0, ca1) in a {
                for (cb0, cb1) in b {
                    // Common pathway: closer than pathway_eps anywhere.
                    let mut hit = segment_segment_distance(ca0, ca1, cb0, cb1)
                        < opts.pathway_eps.max(opts.eps);
                    // Exact crossing predicate adds robustness in 2-D.
                    if !hit && set.dim() == 2 {
                        hit = segments_intersect_2d(
                            [ca0[0], ca0[1]],
                            [ca1[0], ca1[1]],
                            [cb0[0], cb0[1]],
                            [cb1[0], cb1[1]],
                            opts.eps,
                        );
                    }
                    if hit {
                        count += 1;
                    }
                }
            }
        }
    }
    count
}

/// Per-pair minimum separations between trajectories (one entry per
/// unordered pair of distinct trajectories), clipped against the origin
/// ball. A coincident pair reports ~0, and so does a pair in which one
/// trajectory never leaves the ball; well-separated pairs report their
/// closest approach in dB.
pub(crate) fn pairwise_separations(set: &TrajectorySet, opts: &GeometryOptions) -> Vec<f64> {
    let clipped = clip_outside_ball(set.views(), opts.origin_exclusion);
    let mut out = Vec::new();
    for (i, a) in clipped.iter().enumerate() {
        for b in &clipped[i + 1..] {
            out.push(closest_approach(a, b));
        }
    }
    out
}

/// The least of `pairwise_separations`: 0 when any pair intersects or
/// any trajectory never leaves the origin ball (and for fewer than two
/// trajectories), large when trajectories are well separated.
pub fn min_separation(set: &TrajectorySet, opts: &GeometryOptions) -> f64 {
    let seps = pairwise_separations(set, opts);
    seps.into_iter().reduce(f64::min).unwrap_or(0.0)
}

/// The fitness formulation used to score a test vector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum FitnessKind {
    /// The paper's `1/(1+I)`.
    #[default]
    Paper,
    /// Continuous separation margin. Structurally coincident pairs (like
    /// the CUT's `{R3,R5}` and `{R4,C2}`) would pin a naive minimum at
    /// zero forever, so the margin is the *separable fraction* of pairs
    /// times `m/(m+scale)` over the smallest separable separation `m`.
    Margin {
        /// Distance (dB) at which the margin term reaches ½.
        scale: f64,
    },
    /// `1/(1+I)` multiplied by a margin term — the intersection count
    /// dominates, the margin breaks plateaus.
    Hybrid {
        /// Weight of the margin term in `[0, 1]`.
        margin_weight: f64,
    },
}

/// Scores a trajectory set; higher is better, always in `(0, 1]`.
pub fn evaluate_fitness(set: &TrajectorySet, kind: FitnessKind, opts: &GeometryOptions) -> f64 {
    match kind {
        FitnessKind::Paper => {
            let i = count_intersections(set, opts);
            1.0 / (1.0 + i as f64)
        }
        FitnessKind::Margin { scale } => margin_term(set, opts, scale),
        FitnessKind::Hybrid { margin_weight } => {
            let w = margin_weight.clamp(0.0, 1.0);
            let i = count_intersections(set, opts);
            let m = margin_term(set, opts, 1.0);
            (1.0 / (1.0 + i as f64)) * ((1.0 - w) + w * m)
        }
    }
}

/// Separable-fraction margin: pairs closer than `pathway_eps` are treated
/// as lost (structurally coincident); the remaining pairs contribute
/// their smallest separation through a saturating map.
fn margin_term(set: &TrajectorySet, opts: &GeometryOptions, scale: f64) -> f64 {
    let seps = pairwise_separations(set, opts);
    if seps.is_empty() {
        return 1.0;
    }
    let separable: Vec<f64> = seps
        .iter()
        .copied()
        .filter(|s| *s > opts.pathway_eps)
        .collect();
    let frac = separable.len() as f64 / seps.len() as f64;
    if separable.is_empty() {
        return 0.0;
    }
    let m = separable.iter().copied().fold(f64::INFINITY, f64::min);
    frac * m / (m + scale.max(f64::MIN_POSITIVE))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::{Signature, TestVector};
    use crate::trajectory::FaultTrajectory;

    fn sig(x: f64, y: f64) -> Signature {
        Signature::new(vec![x, y])
    }

    /// A straight trajectory through the origin along `(dx, dy)`.
    fn line(name: &str, (dx, dy): (f64, f64)) -> FaultTrajectory {
        FaultTrajectory::new(
            name,
            vec![-20.0, -10.0, 0.0, 10.0, 20.0],
            vec![
                sig(-2.0 * dx, -2.0 * dy),
                sig(-dx, -dy),
                sig(0.0, 0.0),
                sig(dx, dy),
                sig(2.0 * dx, 2.0 * dy),
            ],
        )
    }

    /// Two straight trajectories through the origin along given
    /// directions.
    fn line_set(dir_a: (f64, f64), dir_b: (f64, f64)) -> TrajectorySet {
        TrajectorySet::new(
            TestVector::pair(1.0, 2.0),
            vec![line("A", dir_a), line("B", dir_b)],
        )
    }

    #[test]
    fn clipping_outside_ball() {
        // Fully outside: unchanged.
        let (a, b) = clip_segment_outside_ball(&[1.0, 0.0], &[2.0, 0.0], 0.5).unwrap();
        assert_eq!(a, vec![1.0, 0.0]);
        assert_eq!(b, vec![2.0, 0.0]);
        // Fully inside: removed.
        assert!(clip_segment_outside_ball(&[0.1, 0.0], &[0.0, 0.1], 0.5).is_none());
        // One endpoint at the origin: clipped to the ball boundary.
        let (a, b) = clip_segment_outside_ball(&[0.0, 0.0], &[2.0, 0.0], 0.5).unwrap();
        assert!((a[0] - 0.5).abs() < 1e-12);
        assert_eq!(b, vec![2.0, 0.0]);
    }

    #[test]
    fn orthogonal_lines_do_not_intersect_outside_origin() {
        // Both lines pass through the origin, but clipping removes the
        // shared point: I = 0 and fitness = 1.
        let set = line_set((1.0, 0.0), (0.0, 1.0));
        let opts = GeometryOptions::default();
        assert_eq!(count_intersections(&set, &opts), 0);
        assert_eq!(evaluate_fitness(&set, FitnessKind::Paper, &opts), 1.0);
    }

    #[test]
    fn coincident_lines_intersect_heavily() {
        let set = line_set((1.0, 1.0), (1.0, 1.0));
        let opts = GeometryOptions::default();
        let i = count_intersections(&set, &opts);
        assert!(i > 0, "shared pathway must count");
        let fit = evaluate_fitness(&set, FitnessKind::Paper, &opts);
        assert!(fit < 1.0);
        assert!((fit - 1.0 / (1.0 + i as f64)).abs() < 1e-12);
    }

    #[test]
    fn crossing_away_from_origin_detected() {
        // A horizontal line and a vee whose arm crosses it at x = 1.5.
        let a = FaultTrajectory::new(
            "A",
            vec![-10.0, 0.0, 10.0],
            vec![sig(-2.0, 1.0), sig(0.0, 0.0), sig(2.0, 1.0)],
        );
        let b = FaultTrajectory::new(
            "B",
            vec![-10.0, 0.0, 10.0],
            vec![sig(-2.0, 0.5), sig(0.0, 0.0), sig(2.0, 0.5)],
        );
        // A rises to y=1 at x=2; B rises to 0.5: they do not cross.
        let set = TrajectorySet::new(TestVector::pair(1.0, 2.0), vec![a, b]);
        let opts = GeometryOptions::default();
        assert_eq!(count_intersections(&set, &opts), 0);

        // A multi-segment trajectory that bends back down is crossed by a
        // straight one that overtakes it away from the origin. (Two
        // straight rays from the origin can never cross again — the bend
        // is what creates a genuine crossing.)
        let a = FaultTrajectory::new(
            "A",
            vec![0.0, 10.0, 20.0],
            vec![sig(0.0, 0.0), sig(1.0, 1.0), sig(2.0, 0.5)],
        );
        let b = FaultTrajectory::new("B", vec![0.0, 10.0], vec![sig(0.0, 0.0), sig(2.0, 1.4)]);
        let set = TrajectorySet::new(TestVector::pair(1.0, 2.0), vec![a, b]);
        assert_eq!(count_intersections(&set, &opts), 1);
    }

    #[test]
    fn min_separation_behaviour() {
        let opts = GeometryOptions::default();
        // Orthogonal: separation equals the clip radius circle gap —
        // distance between clipped segment endpoints near origin is
        // ~r·√2 at minimum... just require it to be positive and less
        // than the far-field distance.
        let set = line_set((1.0, 0.0), (0.0, 1.0));
        let m = min_separation(&set, &opts);
        assert!(m > 0.0 && m < 1.0, "separation {m}");
        // Coincident: zero.
        let set = line_set((1.0, 1.0), (1.0, 1.0));
        assert!(min_separation(&set, &opts) < 1e-12);
        // Nearly parallel: small but nonzero.
        let set = line_set((1.0, 0.0), (1.0, 0.05));
        let m2 = min_separation(&set, &opts);
        assert!(m2 > 0.0 && m2 < m, "near-parallel {m2} vs orthogonal {m}");
    }

    #[test]
    fn min_separation_is_zero_with_an_unobservable_trajectory() {
        // `C` never leaves the origin ball: indistinguishable from anything.
        let opts = GeometryOptions::default();
        let c = vec![sig(-0.1, 0.1), sig(0.0, 0.0), sig(0.1, -0.1)];
        let c = FaultTrajectory::new("C", vec![-10.0, 0.0, 10.0], c);
        let lines = vec![line("A", (1.0, 0.0)), line("B", (0.0, 1.0)), c];
        let set = TrajectorySet::new(TestVector::pair(1.0, 2.0), lines);
        let seps = pairwise_separations(&set, &opts);
        assert!(seps[0] > 0.0 && seps[1..] == [0.0, 0.0], "{seps:?}");
        assert_eq!(min_separation(&set, &opts), 0.0);
    }

    #[test]
    fn fitness_kinds_ordering() {
        let opts = GeometryOptions::default();
        let good = line_set((1.0, 0.0), (0.0, 1.0));
        let bad = line_set((1.0, 1.0), (1.0, 1.0));
        for kind in [
            FitnessKind::Paper,
            FitnessKind::Margin { scale: 1.0 },
            FitnessKind::Hybrid { margin_weight: 0.5 },
        ] {
            let fg = evaluate_fitness(&good, kind, &opts);
            let fb = evaluate_fitness(&bad, kind, &opts);
            assert!(fg > fb, "{kind:?}: good {fg} should beat bad {fb}");
            assert!((0.0..=1.0).contains(&fg));
            assert!((0.0..=1.0).contains(&fb));
        }
    }

    #[test]
    fn margin_fitness_is_continuous_in_angle() {
        // Rotating one trajectory away from another increases margin
        // fitness monotonically — gradient where Paper plateaus at 1.
        let opts = GeometryOptions::default();
        let kind = FitnessKind::Margin { scale: 0.5 };
        let mut last = -1.0;
        for &angle_deg in &[5.0f64, 15.0, 30.0, 60.0, 90.0] {
            let rad = angle_deg.to_radians();
            let set = line_set((1.0, 0.0), (rad.cos(), rad.sin()));
            let f = evaluate_fitness(&set, kind, &opts);
            assert!(f > last, "fitness not increasing at {angle_deg}°: {f}");
            last = f;
        }
    }

    #[test]
    fn default_options() {
        let o = GeometryOptions::default();
        assert_eq!(o.origin_exclusion, 0.5);
        assert_eq!(o.pathway_eps, 0.05);
        assert!(
            o.pathway_eps < o.origin_exclusion,
            "pathway threshold must stay inside the origin ball radius"
        );
        assert_eq!(FitnessKind::default(), FitnessKind::Paper);
    }

    #[test]
    fn near_parallel_pathway_counted() {
        // Segments that never cross but share a pathway (within the
        // pathway threshold) must count toward I — §2.4's criterion.
        let opts = GeometryOptions::default();
        let tight = line_set((1.0, 0.0), (1.0, 0.0001)); // ~0.006° apart
        assert!(
            count_intersections(&tight, &opts) > 0,
            "coincident-pathway pair must register"
        );
        let wide = line_set((1.0, 0.0), (0.0, 1.0));
        assert_eq!(count_intersections(&wide, &opts), 0);
    }
}
