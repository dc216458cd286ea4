//! Computational geometry for trajectory analysis.
//!
//! The fitness of a test vector is driven by how the fault trajectories
//! relate geometrically: crossings and shared pathways destroy
//! diagnosability; wide separation enables it. This module supplies exact
//! 2-D segment intersection (orientation predicates with an ε guard),
//! point-to-segment distance/projection in any dimension, and minimum
//! segment-to-segment distance in any dimension.

/// Numerical tolerance for orientation and containment predicates.
pub const GEOM_EPS: f64 = 1e-12;

/// `true` when every value is finite — the content gate packed
/// trajectory storage runs over its whole deviation/coordinate runs
/// before serving from them.
#[inline]
pub(crate) fn all_finite(xs: &[f64]) -> bool {
    xs.iter().all(|x| x.is_finite())
}

/// A 2-D point.
pub(crate) type P2 = [f64; 2];

/// Signed area orientation: > 0 counter-clockwise, < 0 clockwise,
/// ≈ 0 collinear (within `eps` scaled by the operand magnitude).
pub(crate) fn orientation(a: P2, b: P2, c: P2, eps: f64) -> i8 {
    let v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]);
    let scale = (b[0] - a[0])
        .abs()
        .max((b[1] - a[1]).abs())
        .max((c[0] - a[0]).abs().max((c[1] - a[1]).abs()));
    let tol = eps * scale.max(1.0);
    if v > tol {
        1
    } else if v < -tol {
        -1
    } else {
        0
    }
}

fn on_segment(a: P2, b: P2, p: P2, eps: f64) -> bool {
    p[0] >= a[0].min(b[0]) - eps
        && p[0] <= a[0].max(b[0]) + eps
        && p[1] >= a[1].min(b[1]) - eps
        && p[1] <= a[1].max(b[1]) + eps
}

/// `true` when segments `(a1, a2)` and `(b1, b2)` intersect, including
/// endpoint contact and collinear overlap (a shared pathway *is* an
/// intersection for diagnosability purposes).
pub fn segments_intersect_2d(a1: P2, a2: P2, b1: P2, b2: P2, eps: f64) -> bool {
    let o1 = orientation(a1, a2, b1, eps);
    let o2 = orientation(a1, a2, b2, eps);
    let o3 = orientation(b1, b2, a1, eps);
    let o4 = orientation(b1, b2, a2, eps);

    if o1 != o2 && o3 != o4 {
        return true;
    }
    // Collinear special cases.
    (o1 == 0 && on_segment(a1, a2, b1, eps))
        || (o2 == 0 && on_segment(a1, a2, b2, eps))
        || (o3 == 0 && on_segment(b1, b2, a1, eps))
        || (o4 == 0 && on_segment(b1, b2, a2, eps))
}

/// Distance from point `p` to segment `(a, b)` in n dimensions, plus the
/// clamped projection parameter `t ∈ [0, 1]` of the closest point
/// (`t = 0` at `a`).
///
/// This is the "perpendicular from the trajectory" of Fig. 3, with the
/// foot clamped to the segment.
///
/// # Panics
///
/// Panics on dimension mismatch.
pub fn point_segment_distance(p: &[f64], a: &[f64], b: &[f64]) -> (f64, f64) {
    assert_eq!(p.len(), a.len(), "dimension mismatch");
    assert_eq!(p.len(), b.len(), "dimension mismatch");
    let mut ab2 = 0.0;
    let mut ap_ab = 0.0;
    for i in 0..p.len() {
        let d = b[i] - a[i];
        ab2 += d * d;
        ap_ab += (p[i] - a[i]) * d;
    }
    let t = if ab2 < GEOM_EPS * GEOM_EPS {
        0.0
    } else {
        (ap_ab / ab2).clamp(0.0, 1.0)
    };
    let mut dist2 = 0.0;
    for i in 0..p.len() {
        let closest = a[i] + t * (b[i] - a[i]);
        dist2 += (p[i] - closest).powi(2);
    }
    (dist2.sqrt(), t)
}

/// [`point_segment_distance`] without the final square root: returns the
/// *squared* distance and the same clamped parameter `t`. Every
/// intermediate operation is the twin's, in the twin's order, so
/// `point_segment_distance2(..).0.sqrt()` is bit-identical to
/// `point_segment_distance(..).0` — hot loops can rank candidates in the
/// squared domain and pay one square root for the winner. Any edit here
/// must be mirrored in the twin (and vice versa); the
/// `squared_twin_is_bit_identical` test pins the pair together.
///
/// # Panics
///
/// Panics on dimension mismatch.
pub fn point_segment_distance2(p: &[f64], a: &[f64], b: &[f64]) -> (f64, f64) {
    assert_eq!(p.len(), a.len(), "dimension mismatch");
    assert_eq!(p.len(), b.len(), "dimension mismatch");
    if p.len() == 2 {
        // Hand-unrolled two-dimensional path — the common signature
        // dimensionality. Same accumulators, same operation order as the
        // loop below, so the results are identical to the last bit; only
        // the loop and bounds-check overhead is gone.
        let d0 = b[0] - a[0];
        let d1 = b[1] - a[1];
        let mut ab2 = 0.0;
        ab2 += d0 * d0;
        ab2 += d1 * d1;
        let mut ap_ab = 0.0;
        ap_ab += (p[0] - a[0]) * d0;
        ap_ab += (p[1] - a[1]) * d1;
        let t = if ab2 < GEOM_EPS * GEOM_EPS {
            0.0
        } else {
            (ap_ab / ab2).clamp(0.0, 1.0)
        };
        let c0 = a[0] + t * (b[0] - a[0]);
        let c1 = a[1] + t * (b[1] - a[1]);
        let mut dist2 = 0.0;
        dist2 += (p[0] - c0).powi(2);
        dist2 += (p[1] - c1).powi(2);
        return (dist2, t);
    }
    let mut ab2 = 0.0;
    let mut ap_ab = 0.0;
    for i in 0..p.len() {
        let d = b[i] - a[i];
        ab2 += d * d;
        ap_ab += (p[i] - a[i]) * d;
    }
    let t = if ab2 < GEOM_EPS * GEOM_EPS {
        0.0
    } else {
        (ap_ab / ab2).clamp(0.0, 1.0)
    };
    let mut dist2 = 0.0;
    for i in 0..p.len() {
        let closest = a[i] + t * (b[i] - a[i]);
        dist2 += (p[i] - closest).powi(2);
    }
    (dist2, t)
}

/// Minimum distance between two segments in n dimensions (0 when they
/// touch or cross). Uses the standard clamped closed-form for the pair of
/// lines, falling back to endpoint checks for degenerate cases.
///
/// # Panics
///
/// Panics on dimension mismatch.
pub fn segment_segment_distance(a1: &[f64], a2: &[f64], b1: &[f64], b2: &[f64]) -> f64 {
    assert_eq!(a1.len(), a2.len(), "dimension mismatch");
    assert_eq!(a1.len(), b1.len(), "dimension mismatch");
    assert_eq!(a1.len(), b2.len(), "dimension mismatch");
    let n = a1.len();
    let mut d1 = vec![0.0; n];
    let mut d2 = vec![0.0; n];
    let mut r = vec![0.0; n];
    for i in 0..n {
        d1[i] = a2[i] - a1[i];
        d2[i] = b2[i] - b1[i];
        r[i] = a1[i] - b1[i];
    }
    let a = dot(&d1, &d1);
    let e = dot(&d2, &d2);
    let f = dot(&d2, &r);

    let (mut s, mut t);
    if a <= GEOM_EPS && e <= GEOM_EPS {
        // Both segments are points.
        return norm_diff(a1, b1);
    }
    if a <= GEOM_EPS {
        s = 0.0;
        t = (f / e).clamp(0.0, 1.0);
    } else {
        let c = dot(&d1, &r);
        if e <= GEOM_EPS {
            t = 0.0;
            s = (-c / a).clamp(0.0, 1.0);
        } else {
            let b = dot(&d1, &d2);
            let denom = a * e - b * b;
            s = if denom > GEOM_EPS {
                ((b * f - c * e) / denom).clamp(0.0, 1.0)
            } else {
                0.0
            };
            t = (b * s + f) / e;
            if t < 0.0 {
                t = 0.0;
                s = (-c / a).clamp(0.0, 1.0);
            } else if t > 1.0 {
                t = 1.0;
                s = ((b - c) / a).clamp(0.0, 1.0);
            }
        }
    }
    let mut dist2 = 0.0;
    for i in 0..n {
        let pa = a1[i] + s * d1[i];
        let pb = b1[i] + t * d2[i];
        dist2 += (pa - pb).powi(2);
    }
    dist2.sqrt()
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean distance between two points.
pub(crate) fn norm_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).powi(2))
        .sum::<f64>()
        .sqrt()
}

/// Euclidean norm of a point (distance from the origin).
pub fn norm(p: &[f64]) -> f64 {
    dot(p, p).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squared_twin_is_bit_identical() {
        // A spread of regular, degenerate, clamped, and near-parallel
        // cases, plus a deterministic pseudo-random sweep: the squared
        // twin must agree with `point_segment_distance` to the last bit
        // after one square root.
        let cases: Vec<([f64; 2], [f64; 2], [f64; 2])> = vec![
            ([0.5, 1.0], [0.0, 0.0], [1.0, 0.0]),
            ([2.0, 3.0], [1.0, 1.0], [1.0, 1.0]), // zero-length segment
            ([-4.0, 0.3], [0.1, 0.2], [0.1, 0.2000000001]),
            ([1e-9, -1e-9], [0.0, 0.0], [1e3, 1e3]),
            ([7.25, -3.5], [-2.0, 4.0], [9.0, -1.0]),
        ];
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64 * 20.0 - 10.0
        };
        let sweep: Vec<_> = (0..200)
            .map(|_| ([next(), next()], [next(), next()], [next(), next()]))
            .collect();
        for (p, a, b) in cases.into_iter().chain(sweep) {
            let (d, t) = point_segment_distance(&p, &a, &b);
            let (d2, t2) = point_segment_distance2(&p, &a, &b);
            assert_eq!(d.to_bits(), d2.sqrt().to_bits());
            assert_eq!(t.to_bits(), t2.to_bits());
        }
    }

    #[test]
    fn orientation_signs() {
        assert_eq!(orientation([0.0, 0.0], [1.0, 0.0], [0.5, 1.0], GEOM_EPS), 1);
        assert_eq!(
            orientation([0.0, 0.0], [1.0, 0.0], [0.5, -1.0], GEOM_EPS),
            -1
        );
        assert_eq!(orientation([0.0, 0.0], [1.0, 0.0], [2.0, 0.0], GEOM_EPS), 0);
    }

    #[test]
    fn crossing_segments_intersect() {
        assert!(segments_intersect_2d(
            [0.0, 0.0],
            [1.0, 1.0],
            [0.0, 1.0],
            [1.0, 0.0],
            GEOM_EPS
        ));
    }

    #[test]
    fn disjoint_segments_do_not_intersect() {
        assert!(!segments_intersect_2d(
            [0.0, 0.0],
            [1.0, 0.0],
            [0.0, 1.0],
            [1.0, 1.0],
            GEOM_EPS
        ));
        assert!(!segments_intersect_2d(
            [0.0, 0.0],
            [1.0, 1.0],
            [2.0, 2.1],
            [3.0, 2.0],
            GEOM_EPS
        ));
    }

    #[test]
    fn endpoint_touch_counts_as_intersection() {
        assert!(segments_intersect_2d(
            [0.0, 0.0],
            [1.0, 0.0],
            [1.0, 0.0],
            [2.0, 1.0],
            GEOM_EPS
        ));
    }

    #[test]
    fn collinear_overlap_counts_as_intersection() {
        // Shared pathway — the paper penalises these too.
        assert!(segments_intersect_2d(
            [0.0, 0.0],
            [2.0, 0.0],
            [1.0, 0.0],
            [3.0, 0.0],
            GEOM_EPS
        ));
        // Collinear but disjoint: no intersection.
        assert!(!segments_intersect_2d(
            [0.0, 0.0],
            [1.0, 0.0],
            [2.0, 0.0],
            [3.0, 0.0],
            GEOM_EPS
        ));
    }

    #[test]
    fn intersection_symmetry() {
        let cases = [
            ([0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]),
            ([0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]),
        ];
        for (a1, a2, b1, b2) in cases {
            assert_eq!(
                segments_intersect_2d(a1, a2, b1, b2, GEOM_EPS),
                segments_intersect_2d(b1, b2, a1, a2, GEOM_EPS),
            );
        }
    }

    #[test]
    fn point_segment_distance_cases() {
        // Perpendicular foot inside the segment.
        let (d, t) = point_segment_distance(&[0.5, 1.0], &[0.0, 0.0], &[1.0, 0.0]);
        assert!((d - 1.0).abs() < 1e-12);
        assert!((t - 0.5).abs() < 1e-12);
        // Foot clamped to endpoint a.
        let (d, t) = point_segment_distance(&[-1.0, 1.0], &[0.0, 0.0], &[1.0, 0.0]);
        assert!((d - 2f64.sqrt()).abs() < 1e-12);
        assert_eq!(t, 0.0);
        // Foot clamped to endpoint b.
        let (d, t) = point_segment_distance(&[2.0, 0.0], &[0.0, 0.0], &[1.0, 0.0]);
        assert!((d - 1.0).abs() < 1e-12);
        assert_eq!(t, 1.0);
        // Degenerate segment (a == b).
        let (d, t) = point_segment_distance(&[1.0, 1.0], &[0.0, 0.0], &[0.0, 0.0]);
        assert!((d - 2f64.sqrt()).abs() < 1e-12);
        assert_eq!(t, 0.0);
    }

    #[test]
    fn point_segment_distance_3d() {
        let (d, t) = point_segment_distance(&[0.0, 1.0, 0.0], &[0.0, 0.0, -1.0], &[0.0, 0.0, 1.0]);
        assert!((d - 1.0).abs() < 1e-12);
        assert!((t - 0.5).abs() < 1e-12);
    }

    #[test]
    fn segment_segment_distances() {
        // Parallel horizontal segments 1 apart.
        let d = segment_segment_distance(&[0.0, 0.0], &[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]);
        assert!((d - 1.0).abs() < 1e-12);
        // Crossing segments → 0.
        let d = segment_segment_distance(&[0.0, 0.0], &[1.0, 1.0], &[0.0, 1.0], &[1.0, 0.0]);
        assert!(d < 1e-9);
        // Skew 3-D segments: distance along z.
        let d = segment_segment_distance(
            &[0.0, 0.0, 0.0],
            &[1.0, 0.0, 0.0],
            &[0.5, -1.0, 1.0],
            &[0.5, 1.0, 1.0],
        );
        assert!((d - 1.0).abs() < 1e-12);
        // Disjoint along the common line.
        let d = segment_segment_distance(&[0.0, 0.0], &[1.0, 0.0], &[3.0, 0.0], &[4.0, 0.0]);
        assert!((d - 2.0).abs() < 1e-12);
        // Point-point degenerate.
        let d = segment_segment_distance(&[0.0, 0.0], &[0.0, 0.0], &[3.0, 4.0], &[3.0, 4.0]);
        assert!((d - 5.0).abs() < 1e-12);
    }

    #[test]
    fn distance_agrees_with_intersection_predicate() {
        // Randomised consistency: segments intersect iff min distance ~ 0.
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for _ in 0..500 {
            let rnd = |r: &mut rand::rngs::StdRng| -> P2 {
                [r.gen_range(-1.0..1.0), r.gen_range(-1.0..1.0)]
            };
            let (a1, a2, b1, b2) = (rnd(&mut rng), rnd(&mut rng), rnd(&mut rng), rnd(&mut rng));
            let hit = segments_intersect_2d(a1, a2, b1, b2, GEOM_EPS);
            let dist = segment_segment_distance(&a1, &a2, &b1, &b2);
            if hit {
                assert!(dist < 1e-9, "intersecting but distance {dist}");
            } else {
                assert!(dist > 1e-9, "disjoint but distance {dist}");
            }
        }
    }

    #[test]
    fn norm_helper() {
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
        assert_eq!(norm(&[0.0; 4]), 0.0);
    }
}
