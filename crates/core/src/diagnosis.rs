//! Fault diagnosis by nearest trajectory segment (paper §2.4, Fig. 3
//! right).
//!
//! An observed signature (the `*` of Fig. 3) is assigned to the
//! piecewise-linear segment at minimal perpendicular distance; the
//! projection parameter along that segment linearly interpolates the
//! deviation estimate. Candidates are ranked by distance, and a
//! runner-up within `ambiguity_ratio` of the winner marks the diagnosis
//! ambiguous.

use crate::geometry::point_segment_distance;
use crate::signature::Signature;
use crate::trajectory::TrajectorySet;

/// One ranked diagnosis candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Suspected component.
    pub component: String,
    /// Perpendicular distance from the observed point to this
    /// component's trajectory (dB).
    pub distance: f64,
    /// Estimated parametric deviation in percent, from the projection
    /// onto the nearest segment.
    pub deviation_pct: f64,
}

/// A complete ranked diagnosis.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnosis {
    candidates: Vec<Candidate>,
    ambiguity_ratio: f64,
}

impl Diagnosis {
    /// Ranked candidates, best (smallest distance) first.
    #[inline]
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// The top candidate.
    ///
    /// # Panics
    ///
    /// Never panics: a diagnosis always holds at least one candidate.
    pub fn best(&self) -> &Candidate {
        &self.candidates[0]
    }

    /// Components whose distance is within `ambiguity_ratio` × best
    /// distance — the ambiguity set containing the true suspect.
    pub fn ambiguity_set(&self) -> Vec<&str> {
        self.ambiguity_iter().collect()
    }

    /// [`Diagnosis::ambiguity_set`] in the same order, without
    /// collecting it.
    pub fn ambiguity_iter(&self) -> impl Iterator<Item = &str> {
        let threshold = ambiguity_threshold(self.best().distance, self.ambiguity_ratio);
        self.candidates
            .iter()
            .filter(move |c| c.distance <= threshold)
            .map(|c| c.component.as_str())
    }

    /// Assembles a diagnosis from unranked candidates, sorting by
    /// distance (stable, so equal distances keep their input order).
    ///
    /// This is the single ranking path shared by every query backend:
    /// two backends that produce identical per-candidate distances are
    /// guaranteed identical rankings.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty or contains a non-finite distance.
    pub fn from_candidates(mut candidates: Vec<Candidate>, ambiguity_ratio: f64) -> Self {
        assert!(
            !candidates.is_empty(),
            "a diagnosis needs at least one candidate"
        );
        candidates.sort_by(|a, b| {
            a.distance
                .partial_cmp(&b.distance)
                .expect("finite distances")
        });
        Diagnosis {
            candidates,
            ambiguity_ratio,
        }
    }
}

/// A ranked prefix of the full per-trajectory distance ranking, as
/// produced by [`SegmentQuery::topk_per_trajectory`].
///
/// `ranked` holds `(trajectory_index, distance, deviation_pct)` sorted
/// by `(distance, trajectory_index)` — exactly the order a full ranking
/// built from [`SegmentQuery::best_per_trajectory`] and stable-sorted by
/// distance would produce, so a `TopkRanking` is always a **prefix** of
/// the full ranking. The prefix is guaranteed to cover at least
/// `min(k, n)` entries *and* the entire ambiguity set of the winner
/// (every trajectory within `ambiguity_ratio × best distance`), so the
/// rank-1 verdict and the reported ambiguity set are identical to a full
/// diagnosis.
#[derive(Debug, Clone, PartialEq)]
pub struct TopkRanking {
    /// `(trajectory_index, distance, deviation_pct)`, best first.
    pub ranked: Vec<(usize, f64, f64)>,
    /// `true` when the ranking was cut short of the full trajectory
    /// universe (for index backends: work was actually saved).
    pub early_exit: bool,
}

/// A pluggable nearest-segment search strategy.
///
/// Given an observed signature, a backend reports, for every trajectory
/// of the set **in trajectory order**, the minimal perpendicular distance
/// over that trajectory's segments together with the interpolated
/// deviation estimate at the closest point. [`LinearScan`] is the
/// exhaustive reference; `ft-serve` supplies a spatial index that must
/// reproduce its results exactly.
pub trait SegmentQuery {
    /// Best `(distance, deviation_pct)` per trajectory, in set order.
    ///
    /// Ties between segments of one trajectory must resolve to the
    /// lowest segment index (the order `TrajectoryView::segments`
    /// iterates), so that all backends agree bit-for-bit.
    ///
    fn best_per_trajectory(&self, set: &TrajectorySet, observed: &Signature) -> Vec<(f64, f64)>;

    /// The `k` best trajectories (plus however many more the ambiguity
    /// set needs), sorted by `(distance, trajectory_index)`.
    ///
    /// The default implementation ranks the full
    /// [`best_per_trajectory`](SegmentQuery::best_per_trajectory) result
    /// and truncates — the semantic oracle every backend must match.
    /// Backends with spatial structure override this to *stop
    /// searching* once the prefix is provably settled; their `ranked`
    /// must be bit-identical to this default's on the same inputs.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    fn topk_per_trajectory(
        &self,
        set: &TrajectorySet,
        observed: &Signature,
        k: usize,
        ambiguity_ratio: f64,
    ) -> TopkRanking {
        assert!(k > 0, "top-k needs k >= 1");
        let best = self.best_per_trajectory(set, observed);
        let n = best.len();
        let mut ranked: Vec<(usize, f64, f64)> = best
            .into_iter()
            .enumerate()
            .map(|(i, (dist, dev))| (i, dist, dev))
            .collect();
        ranked.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .expect("finite distances")
                .then(a.0.cmp(&b.0))
        });
        let keep = topk_prefix_len(&ranked, k, ambiguity_ratio);
        ranked.truncate(keep);
        TopkRanking {
            early_exit: ranked.len() < n,
            ranked,
        }
    }
}

/// The largest distance inside the ambiguity set of a winner at
/// distance `best`: `best`, floored at 1e-12, times `ambiguity_ratio`.
/// [`Diagnosis::ambiguity_set`], [`topk_prefix_len`] and the bounds of
/// every top-k search that stops early apply this one rule, so a search
/// cannot stop short of the set it must return.
#[inline]
pub fn ambiguity_threshold(best: f64, ambiguity_ratio: f64) -> f64 {
    best.max(1e-12) * ambiguity_ratio
}

/// Length of the prefix a top-k ranking must keep: at least `min(k, n)`
/// entries and every entry inside the winner's ambiguity set (distance
/// at most [`ambiguity_threshold`] of the winner's). `ranked` is sorted
/// by `(distance, trajectory_index)`.
///
/// The [`SegmentQuery::topk_per_trajectory`] oracle and every backend
/// that overrides it trim with this one function, so they cannot
/// disagree on the prefix.
pub fn topk_prefix_len(ranked: &[(usize, f64, f64)], k: usize, ambiguity_ratio: f64) -> usize {
    let n = ranked.len();
    if n == 0 {
        return 0;
    }
    let threshold = ambiguity_threshold(ranked[0].1, ambiguity_ratio);
    let mut keep = k.min(n);
    while keep < n && ranked[keep].1 <= threshold {
        keep += 1;
    }
    keep
}

/// The exhaustive backend: scans every segment of every trajectory
/// through borrowed views.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinearScan;

impl SegmentQuery for LinearScan {
    fn best_per_trajectory(&self, set: &TrajectorySet, observed: &Signature) -> Vec<(f64, f64)> {
        set.views()
            .map(|v| {
                let mut best_dist = f64::INFINITY;
                let mut best_dev = 0.0;
                for (d0, p0, d1, p1) in v.segments() {
                    let (dist, tpar) = point_segment_distance(observed.coords(), p0, p1);
                    if dist < best_dist {
                        best_dist = dist;
                        best_dev = d0 + tpar * (d1 - d0);
                    }
                }
                (best_dist, best_dev)
            })
            .collect()
    }
}

/// Diagnosis engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiagnoserConfig {
    /// Runner-up distance ratio below which the diagnosis is reported
    /// ambiguous.
    pub ambiguity_ratio: f64,
}

impl Default for DiagnoserConfig {
    fn default() -> Self {
        DiagnoserConfig {
            ambiguity_ratio: 1.5,
        }
    }
}

/// The nearest-segment classifier over a trajectory set.
#[derive(Debug, Clone)]
pub struct Diagnoser {
    set: TrajectorySet,
    config: DiagnoserConfig,
}

impl Diagnoser {
    /// Builds a diagnoser from the trajectory set of the deployed test
    /// vector.
    ///
    /// # Panics
    ///
    /// Panics if `set` is empty.
    pub fn new(set: TrajectorySet, config: DiagnoserConfig) -> Self {
        assert!(!set.is_empty(), "cannot diagnose with zero trajectories");
        Diagnoser { set, config }
    }

    /// The trajectory set in use.
    #[inline]
    pub fn trajectory_set(&self) -> &TrajectorySet {
        &self.set
    }

    /// The configuration in force.
    #[inline]
    pub fn config(&self) -> DiagnoserConfig {
        self.config
    }

    /// Diagnoses an observed signature with the exhaustive
    /// [`LinearScan`] backend.
    ///
    /// # Panics
    ///
    /// Panics if the signature dimension does not match the test vector.
    pub fn diagnose(&self, observed: &Signature) -> Diagnosis {
        self.diagnose_with(&LinearScan, observed)
    }

    /// Diagnoses an observed signature through a pluggable query
    /// backend. Any backend honouring the [`SegmentQuery`] contract
    /// yields results identical to [`Diagnoser::diagnose`].
    ///
    /// # Panics
    ///
    /// Panics if the signature dimension does not match the test vector
    /// or the backend does not report one result per trajectory.
    pub fn diagnose_with<B: SegmentQuery + ?Sized>(
        &self,
        backend: &B,
        observed: &Signature,
    ) -> Diagnosis {
        assert_eq!(
            observed.dim(),
            self.set.dim(),
            "signature dimension must match the trajectory set"
        );
        let best = backend.best_per_trajectory(&self.set, observed);
        assert_eq!(
            best.len(),
            self.set.len(),
            "backend must report one result per trajectory"
        );
        let candidates: Vec<Candidate> = best
            .into_iter()
            .enumerate()
            .map(|(ti, (distance, deviation_pct))| Candidate {
                component: self.set.component(ti).to_string(),
                distance,
                deviation_pct,
            })
            .collect();
        Diagnosis::from_candidates(candidates, self.config.ambiguity_ratio)
    }

    /// Diagnoses through a backend's top-k / early-termination path:
    /// the returned [`Diagnosis`] ranks only the `k` best trajectories
    /// (plus the rest of the winner's ambiguity set), so its rank-1
    /// verdict, its [`Diagnosis::ambiguity_set`], and every candidate it
    /// *does* carry are identical to the full [`Diagnoser::diagnose_with`]
    /// ranking — only the deep tail of the candidate list is absent.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero, on signature dimension mismatch, or if the
    /// backend returns an empty or oversized ranking.
    pub fn diagnose_topk<B: SegmentQuery + ?Sized>(
        &self,
        backend: &B,
        observed: &Signature,
        k: usize,
    ) -> Diagnosis {
        assert_eq!(
            observed.dim(),
            self.set.dim(),
            "signature dimension must match the trajectory set"
        );
        let topk = backend.topk_per_trajectory(&self.set, observed, k, self.config.ambiguity_ratio);
        assert!(
            !topk.ranked.is_empty() && topk.ranked.len() <= self.set.len(),
            "backend must rank between 1 and n trajectories"
        );
        let candidates: Vec<Candidate> = topk
            .ranked
            .into_iter()
            .map(|(ti, distance, deviation_pct)| Candidate {
                component: self.set.component(ti).to_string(),
                distance,
                deviation_pct,
            })
            .collect();
        Diagnosis::from_candidates(candidates, self.config.ambiguity_ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::TestVector;
    use crate::trajectory::FaultTrajectory;

    fn sig(x: f64, y: f64) -> Signature {
        Signature::new(vec![x, y])
    }

    /// Two trajectories: A along +x/−x, B along +y/−y.
    fn cross_set() -> TrajectorySet {
        let a = FaultTrajectory::new(
            "A",
            vec![-20.0, -10.0, 0.0, 10.0, 20.0],
            vec![
                sig(-4.0, 0.0),
                sig(-2.0, 0.0),
                sig(0.0, 0.0),
                sig(2.0, 0.0),
                sig(4.0, 0.0),
            ],
        );
        let b = FaultTrajectory::new(
            "B",
            vec![-20.0, -10.0, 0.0, 10.0, 20.0],
            vec![
                sig(0.0, -4.0),
                sig(0.0, -2.0),
                sig(0.0, 0.0),
                sig(0.0, 2.0),
                sig(0.0, 4.0),
            ],
        );
        TrajectorySet::new(TestVector::pair(1.0, 2.0), vec![a, b])
    }

    #[test]
    fn nearest_trajectory_wins() {
        let diag = Diagnoser::new(cross_set(), DiagnoserConfig::default());
        // Point near A's positive branch.
        let d = diag.diagnose(&sig(3.0, 0.2));
        assert_eq!(d.best().component, "A");
        assert!(d.best().distance < 0.3);
        assert_eq!(d.candidates()[1].component, "B");
        assert_eq!(d.ambiguity_set(), ["A"]);
    }

    #[test]
    fn deviation_estimate_interpolates() {
        let diag = Diagnoser::new(cross_set(), DiagnoserConfig::default());
        // x = 3 is halfway between the +10% point (x=2) and +20% (x=4).
        let d = diag.diagnose(&sig(3.0, 0.0));
        assert_eq!(d.best().component, "A");
        assert!((d.best().deviation_pct - 15.0).abs() < 1e-9);
        // Negative branch.
        let d = diag.diagnose(&sig(-2.0, 0.0));
        assert!((d.best().deviation_pct + 10.0).abs() < 1e-9);
        // Beyond the last point: clamped to the end of the trajectory.
        let d = diag.diagnose(&sig(10.0, 0.0));
        assert!((d.best().deviation_pct - 20.0).abs() < 1e-9);
    }

    #[test]
    fn equidistant_point_is_ambiguous() {
        let diag = Diagnoser::new(cross_set(), DiagnoserConfig::default());
        let d = diag.diagnose(&sig(1.0, 1.0));
        let set = d.ambiguity_set();
        assert_eq!(set.len(), 2);
        assert!(set.contains(&"A") && set.contains(&"B"));
    }

    #[test]
    fn ambiguity_ratio_controls_set() {
        let tight = Diagnoser::new(
            cross_set(),
            DiagnoserConfig {
                ambiguity_ratio: 1.01,
            },
        );
        // Clearly closer to A, but not by a factor > 1.5.
        let point = sig(2.0, 1.5);
        let d = tight.diagnose(&point);
        assert_eq!(d.ambiguity_set().len(), 1);
        let loose = Diagnoser::new(
            cross_set(),
            DiagnoserConfig {
                ambiguity_ratio: 10.0,
            },
        );
        let d = loose.diagnose(&point);
        assert!(d.ambiguity_set().len() > 1);
    }

    #[test]
    fn candidates_are_sorted() {
        let diag = Diagnoser::new(cross_set(), DiagnoserConfig::default());
        let d = diag.diagnose(&sig(0.5, 3.0));
        let dists: Vec<f64> = d.candidates().iter().map(|c| c.distance).collect();
        assert!(dists.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(d.candidates().len(), 2);
    }

    #[test]
    #[should_panic(expected = "dimension must match")]
    fn dimension_checked() {
        let diag = Diagnoser::new(cross_set(), DiagnoserConfig::default());
        let _ = diag.diagnose(&Signature::new(vec![1.0]));
    }

    /// A backend that mislabels everything — proves `diagnose_with`
    /// really routes through the supplied backend.
    struct ConstantBackend;

    impl SegmentQuery for ConstantBackend {
        fn best_per_trajectory(&self, set: &TrajectorySet, _: &Signature) -> Vec<(f64, f64)> {
            (0..set.len()).map(|i| (i as f64, 7.0)).collect()
        }
    }

    #[test]
    fn diagnose_with_uses_the_backend() {
        let diag = Diagnoser::new(cross_set(), DiagnoserConfig::default());
        let d = diag.diagnose_with(&ConstantBackend, &sig(3.0, 0.2));
        assert_eq!(d.best().component, "A");
        assert_eq!(d.best().distance, 0.0);
        assert_eq!(d.best().deviation_pct, 7.0);
    }

    #[test]
    fn linear_scan_backend_matches_diagnose() {
        let diag = Diagnoser::new(cross_set(), DiagnoserConfig::default());
        for point in [sig(3.0, 0.2), sig(-1.0, 2.5), sig(0.3, -0.1)] {
            assert_eq!(
                diag.diagnose(&point),
                diag.diagnose_with(&LinearScan, &point)
            );
        }
    }

    #[test]
    fn from_candidates_sorts_stably() {
        let mk = |name: &str, d: f64| Candidate {
            component: name.to_string(),
            distance: d,
            deviation_pct: 0.0,
        };
        let diag = Diagnosis::from_candidates(vec![mk("X", 2.0), mk("Y", 1.0), mk("Z", 1.0)], 1.5);
        let order: Vec<&str> = diag
            .candidates()
            .iter()
            .map(|c| c.component.as_str())
            .collect();
        // Y and Z tie; stable sort keeps Y (earlier in trajectory order) first.
        assert_eq!(order, ["Y", "Z", "X"]);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn from_candidates_rejects_empty() {
        let _ = Diagnosis::from_candidates(vec![], 1.5);
    }

    #[test]
    #[should_panic(expected = "zero trajectories")]
    fn empty_set_rejected() {
        let set = TrajectorySet::new(TestVector::pair(1.0, 2.0), vec![]);
        let _ = Diagnoser::new(set, DiagnoserConfig::default());
    }

    /// Four well-separated parallel trajectories at increasing distance
    /// from the origin — an unambiguous ranking D < C < B < A for a
    /// query near D.
    fn ladder_set() -> TrajectorySet {
        let mk = |name: &str, y: f64| {
            FaultTrajectory::new(
                name,
                vec![-10.0, 0.0, 10.0],
                vec![sig(-3.0, y), sig(0.0, y), sig(3.0, y)],
            )
        };
        TrajectorySet::new(
            TestVector::pair(1.0, 2.0),
            vec![mk("A", 30.0), mk("B", 20.0), mk("C", 10.0), mk("D", 0.0)],
        )
    }

    #[test]
    fn default_topk_is_a_prefix_of_the_full_ranking() {
        let set = ladder_set();
        let q = sig(0.5, 0.1);
        let full = LinearScan.topk_per_trajectory(&set, &q, usize::MAX, 1.5);
        assert!(!full.early_exit);
        assert_eq!(full.ranked.len(), 4);
        // Distances strictly increase away from the query.
        assert!(full.ranked.windows(2).all(|w| w[0].1 < w[1].1));
        for k in 1..=4 {
            let topk = LinearScan.topk_per_trajectory(&set, &q, k, 1.5);
            assert_eq!(topk.ranked, full.ranked[..k.min(4)]);
            assert_eq!(topk.early_exit, k < 4);
        }
    }

    #[test]
    fn default_topk_extends_to_cover_the_ambiguity_set() {
        let set = cross_set();
        // Equidistant from A and B: k = 1 must still keep both, because
        // both fall inside the winner's ambiguity set.
        let topk = LinearScan.topk_per_trajectory(&set, &sig(1.0, 1.0), 1, 1.5);
        assert_eq!(topk.ranked.len(), 2);
        assert!(!topk.early_exit);
        // Ties rank by trajectory index, matching the stable full sort.
        assert_eq!(topk.ranked[0].0, 0);
        assert_eq!(topk.ranked[1].0, 1);
    }

    #[test]
    fn diagnose_topk_matches_full_prefix_and_ambiguity_set() {
        let diag = Diagnoser::new(ladder_set(), DiagnoserConfig::default());
        for q in [sig(0.5, 0.1), sig(-2.0, 12.0), sig(4.0, 29.0)] {
            let full = diag.diagnose(&q);
            for k in 1..=4 {
                let topk = diag.diagnose_topk(&LinearScan, &q, k);
                assert_eq!(topk.best(), full.best(), "rank-1 drift at {q} k={k}");
                assert_eq!(
                    topk.ambiguity_set(),
                    full.ambiguity_set(),
                    "ambiguity drift at {q} k={k}"
                );
                assert_eq!(
                    topk.candidates(),
                    &full.candidates()[..topk.candidates().len()],
                    "prefix drift at {q} k={k}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn topk_rejects_k_zero() {
        let set = cross_set();
        let _ = LinearScan.topk_per_trajectory(&set, &sig(1.0, 1.0), 0, 1.5);
    }
}
