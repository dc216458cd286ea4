//! Property-based tests (proptest) over the numerical substrate, circuit
//! invariants, trajectory geometry, and GA machinery.

use fault_trajectory::core::geometry::{
    norm, point_segment_distance, segment_segment_distance, segments_intersect_2d, GEOM_EPS,
};
use fault_trajectory::numerics::{solve, Complex64, Lu, RMatrix};
use fault_trajectory::prelude::*;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Complex field axioms.
// ---------------------------------------------------------------------

fn arb_complex() -> impl Strategy<Value = Complex64> {
    (-1e6f64..1e6, -1e6f64..1e6).prop_map(|(re, im)| Complex64::new(re, im))
}

proptest! {
    #[test]
    fn complex_addition_commutes(a in arb_complex(), b in arb_complex()) {
        prop_assert!(((a + b) - (b + a)).abs() < 1e-9);
    }

    #[test]
    fn complex_multiplication_distributes(
        a in arb_complex(), b in arb_complex(), c in arb_complex()
    ) {
        let lhs = a * (b + c);
        let rhs = a * b + a * c;
        let scale = a.abs() * (b.abs() + c.abs()) + 1.0;
        prop_assert!((lhs - rhs).abs() / scale < 1e-12);
    }

    #[test]
    fn complex_reciprocal_inverts(a in arb_complex()) {
        prop_assume!(a.abs() > 1e-6);
        prop_assert!((a * a.recip() - Complex64::ONE).abs() < 1e-9);
    }

    #[test]
    fn complex_polar_round_trip(a in arb_complex()) {
        prop_assume!(a.abs() > 1e-9);
        let back = Complex64::from_polar(a.abs(), a.arg());
        prop_assert!((a - back).abs() / a.abs() < 1e-12);
    }

    #[test]
    fn conjugate_multiplication_is_norm(a in arb_complex()) {
        let p = a * a.conj();
        prop_assert!(p.im.abs() <= 1e-6 * (1.0 + p.re.abs()));
        prop_assert!((p.re - a.norm_sqr()).abs() <= 1e-9 * (1.0 + a.norm_sqr()));
    }
}

// ---------------------------------------------------------------------
// LU solver: residuals on random well-conditioned systems.
// ---------------------------------------------------------------------

fn arb_spd_matrix(n: usize) -> impl Strategy<Value = RMatrix> {
    proptest::collection::vec(-1.0f64..1.0, n * n).prop_map(move |data| {
        // A·Aᵀ + n·I is symmetric positive definite → well conditioned.
        let a = RMatrix::from_rows(n, n, data);
        let mut m = a.mul_mat(&a.transpose());
        for i in 0..n {
            m[(i, i)] += n as f64;
        }
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_residual_small(
        m in arb_spd_matrix(6),
        b in proptest::collection::vec(-10.0f64..10.0, 6)
    ) {
        let x = solve(&m, &b).expect("SPD systems are nonsingular");
        let back = m.mul_vec(&x);
        for (bi, yi) in b.iter().zip(&back) {
            prop_assert!((bi - yi).abs() < 1e-8, "residual {} vs {}", bi, yi);
        }
    }

    #[test]
    fn lu_determinant_of_product(
        m in arb_spd_matrix(4)
    ) {
        // det(M) > 0 for SPD matrices.
        let lu = Lu::factor(&m).expect("nonsingular");
        prop_assert!(lu.det() > 0.0);
    }
}

// ---------------------------------------------------------------------
// Geometry: predicates consistent with distances.
// ---------------------------------------------------------------------

fn arb_point() -> impl Strategy<Value = [f64; 2]> {
    (-10.0f64..10.0, -10.0f64..10.0).prop_map(|(x, y)| [x, y])
}

proptest! {
    #[test]
    fn intersection_predicate_symmetric(
        a1 in arb_point(), a2 in arb_point(),
        b1 in arb_point(), b2 in arb_point()
    ) {
        let ab = segments_intersect_2d(a1, a2, b1, b2, GEOM_EPS);
        let ba = segments_intersect_2d(b1, b2, a1, a2, GEOM_EPS);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn intersection_iff_zero_distance(
        a1 in arb_point(), a2 in arb_point(),
        b1 in arb_point(), b2 in arb_point()
    ) {
        let hit = segments_intersect_2d(a1, a2, b1, b2, GEOM_EPS);
        let d = segment_segment_distance(&a1, &a2, &b1, &b2);
        if hit {
            prop_assert!(d < 1e-7, "intersecting but d = {d}");
        } else {
            prop_assert!(d > 1e-9, "disjoint but d = {d}");
        }
    }

    #[test]
    fn point_segment_distance_bounds(
        p in arb_point(), a in arb_point(), b in arb_point()
    ) {
        let (d, t) = point_segment_distance(&p, &a, &b);
        prop_assert!((0.0..=1.0).contains(&t));
        // Distance never exceeds distance to either endpoint.
        let da = ((p[0]-a[0]).powi(2) + (p[1]-a[1]).powi(2)).sqrt();
        let db = ((p[0]-b[0]).powi(2) + (p[1]-b[1]).powi(2)).sqrt();
        prop_assert!(d <= da + 1e-12);
        prop_assert!(d <= db + 1e-12);
    }

    #[test]
    fn translation_invariance_of_segment_distance(
        a1 in arb_point(), a2 in arb_point(),
        b1 in arb_point(), b2 in arb_point(),
        dx in -5.0f64..5.0, dy in -5.0f64..5.0
    ) {
        let d0 = segment_segment_distance(&a1, &a2, &b1, &b2);
        let shift = |p: [f64; 2]| [p[0] + dx, p[1] + dy];
        let d1 = segment_segment_distance(
            &shift(a1), &shift(a2), &shift(b1), &shift(b2),
        );
        prop_assert!((d0 - d1).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------
// Circuit invariants on randomly valued RC low-pass ladders.
// ---------------------------------------------------------------------

fn rc_ladder(rs: &[f64], cs: &[f64]) -> Circuit {
    let mut ckt = Circuit::new("rc-ladder");
    ckt.voltage_source("V1", "n0", "0", 1.0).unwrap();
    for (i, (&r, &c)) in rs.iter().zip(cs).enumerate() {
        let a = format!("n{i}");
        let b = format!("n{}", i + 1);
        ckt.resistor(&format!("R{i}"), &a, &b, r).unwrap();
        ckt.capacitor(&format!("C{i}"), &b, "0", c).unwrap();
    }
    ckt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rc_ladder_gain_bounded_and_decreasing(
        rs in proptest::collection::vec(10.0f64..1e5, 1..5),
        cs in proptest::collection::vec(1e-9f64..1e-5, 1..5),
        w in 1.0f64..1e7
    ) {
        prop_assume!(rs.len() == cs.len());
        let ckt = rc_ladder(&rs, &cs);
        let out = format!("n{}", rs.len());
        let probe = Probe::node(&out);
        let h = transfer(&ckt, "V1", &probe, w).expect("solves");
        // Passive RC networks never amplify.
        prop_assert!(h.abs() <= 1.0 + 1e-9, "|H| = {}", h.abs());
        // And the low-pass ladder is monotone in frequency.
        let h2 = transfer(&ckt, "V1", &probe, w * 2.0).expect("solves");
        prop_assert!(h2.abs() <= h.abs() + 1e-9);
    }

    #[test]
    fn rc_ladder_dc_gain_unity(
        rs in proptest::collection::vec(10.0f64..1e5, 1..5),
        cs in proptest::collection::vec(1e-9f64..1e-5, 1..5)
    ) {
        prop_assume!(rs.len() == cs.len());
        let ckt = rc_ladder(&rs, &cs);
        let out = format!("n{}", rs.len());
        // Probe far below the slowest possible corner (Elmore delay of
        // the worst-case ladder is ~10 s → deviation (ωτ)²/2 ≈ 5e-9).
        let h = transfer(&ckt, "V1", &Probe::node(&out), 1e-5).expect("solves");
        prop_assert!((h.abs() - 1.0).abs() < 1e-6);
    }
}

// ---------------------------------------------------------------------
// Fault model round trips.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn fault_multiplier_round_trip(pct in -99.0f64..400.0) {
        let f = ParametricFault::from_percent("R1", pct);
        prop_assert!((f.percent() - pct).abs() < 1e-9);
        prop_assert!((f.multiplier() - (1.0 + pct / 100.0)).abs() < 1e-12);
    }

    #[test]
    fn fault_injection_reversible(
        pct in prop::sample::select(vec![-40.0, -20.0, 15.0, 35.0])
    ) {
        let bench = tow_thomas_normalized(1.0).expect("builds");
        let fault = ParametricFault::from_percent("R2", pct);
        let faulty = fault.apply(&bench.circuit).expect("applies");
        // Undo by the inverse multiplier: response returns to golden.
        let mut undone = faulty.clone();
        let v = undone.value("R2").unwrap().unwrap();
        undone.set_value("R2", v / (1.0 + pct / 100.0)).unwrap();
        let a = transfer(&bench.circuit, "V1", &bench.probe, 1.0).expect("solves");
        let b = transfer(&undone, "V1", &bench.probe, 1.0).expect("solves");
        prop_assert!((a - b).abs() < 1e-12);
    }
}

// ---------------------------------------------------------------------
// Signature/trajectory invariants on the real CUT.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn trajectory_construction_invariants_hold(
        lf1 in -1.5f64..1.5, lf2 in -1.5f64..1.5
    ) {
        prop_assume!((lf1 - lf2).abs() > 0.05);
        let bench = tow_thomas_normalized(1.0).expect("builds");
        let universe = FaultUniverse::new(&bench.fault_set, DeviationGrid::paper());
        let dict = FaultDictionary::build(
            &bench.circuit, &universe, &bench.input, &bench.probe,
            &FrequencyGrid::log_space(0.01, 100.0, 41),
        ).expect("builds");
        let (a, b) = (10f64.powf(lf1), 10f64.powf(lf2));
        let tv = TestVector::pair(a.min(b), a.max(b));
        let set = trajectories_from_dictionary(&dict, &tv);
        prop_assert_eq!(set.len(), 7);
        for t in set.views() {
            // 9 points, deviations ascending, origin exactly at 0%.
            prop_assert_eq!(t.point_count(), 9);
            let origin_idx = t.deviations_pct().iter().position(|d| *d == 0.0).unwrap();
            prop_assert!(norm(t.point(origin_idx)) < 1e-12);
            // Every point finite; total length finite and positive.
            for p in t.points() {
                prop_assert!(p.iter().all(|x| x.is_finite()));
            }
            prop_assert!(t.length().is_finite());
            prop_assert!(t.length() > 0.0);
        }
    }
}

/// The paper assumes trajectories are "smooth and monotonic" (§2.3).
/// Near the resonance this fails: deviating R3 shifts ω₀ through a probe
/// frequency and the response rises then falls. This deterministic
/// counterexample documents the limit of the assumption (see
/// EXPERIMENTS.md).
#[test]
fn monotonicity_assumption_has_counterexamples_near_resonance() {
    let bench = tow_thomas_normalized(1.0).expect("builds");
    let universe = FaultUniverse::new(&bench.fault_set, DeviationGrid::paper());
    let dict = FaultDictionary::build(
        &bench.circuit,
        &universe,
        &bench.input,
        &bench.probe,
        &FrequencyGrid::log_space(0.01, 100.0, 41),
    )
    .expect("builds");

    // Benign vector (straddling, away from the peak): all monotonic.
    let benign = TestVector::pair(0.7, 1.8);
    let set = trajectories_from_dictionary(&dict, &benign);
    assert!(set.views().all(|t| t.is_monotonic()));

    // Near-resonance vector: at least one trajectory bends back.
    let resonant = TestVector::pair(1.0909, 20.6847);
    let set = trajectories_from_dictionary(&dict, &resonant);
    assert!(
        set.views().any(|t| !t.is_monotonic()),
        "expected a non-monotonic trajectory at {resonant}"
    );
}
