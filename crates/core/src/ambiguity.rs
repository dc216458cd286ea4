//! Ambiguity groups: components a test vector cannot tell apart.
//!
//! Two components whose trajectories stay within a distance threshold of
//! each other are mutually indistinguishable at that test vector; the
//! transitive closure of that relation partitions the fault set into
//! *ambiguity groups* — a standard notion in analog diagnosis that makes
//! the paper's "independent pathways" requirement quantitative.

use serde::{Deserialize, Serialize};

use crate::fitness::{clip_outside_ball, closest_approach, GeometryOptions};
use crate::geometry::norm;
use crate::trajectory::{TrajectorySet, TrajectoryView};

/// Partition of the fault set into groups indistinguishable at a test
/// vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AmbiguityGroups {
    groups: Vec<Vec<String>>,
    threshold: f64,
}

impl AmbiguityGroups {
    /// Creates groups from an explicit partition (used when the grouping
    /// comes from algebraic knowledge rather than trajectory geometry).
    pub fn from_groups(groups: Vec<Vec<String>>, threshold: f64) -> Self {
        AmbiguityGroups { groups, threshold }
    }

    /// The groups, each sorted, largest group first.
    #[inline]
    pub fn groups(&self) -> &[Vec<String>] {
        &self.groups
    }

    /// Number of groups (= number of distinguishable fault classes).
    #[inline]
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// `true` when there are no groups (empty trajectory set).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The group containing `component`, if any.
    pub fn group_of(&self, component: &str) -> Option<&[String]> {
        self.groups
            .iter()
            .find(|g| g.iter().any(|c| c == component))
            .map(Vec::as_slice)
    }

    /// `true` when every candidate falls inside a single group — the
    /// diagnosis has narrowed the fault down as far as this test vector
    /// can ever distinguish, so further ranking cannot split the set.
    ///
    /// This is what makes "isolated" computable mid-query: a top-k
    /// search can stop as soon as its settled ambiguity set resolves to
    /// one static group. An empty candidate list or a candidate outside
    /// every group reports `false`.
    pub fn is_resolved<S: AsRef<str>>(&self, candidates: &[S]) -> bool {
        let Some(first) = candidates.first() else {
            return false;
        };
        let Some(group) = self.group_of(first.as_ref()) else {
            return false;
        };
        candidates
            .iter()
            .all(|c| group.iter().any(|m| m == c.as_ref()))
    }
}

/// Minimum inter-trajectory distance for a specific pair, clipped against
/// an origin ball whose radius *adapts to the pair*: the smaller of the
/// configured radius and half the shorter trajectory's reach. A weakly
/// observable component (tiny trajectory) is then compared at its own
/// scale instead of being swallowed by the global exclusion ball, and a
/// fully unobservable component (zero-length trajectory) reports zero
/// separation — it is indistinguishable from anything.
pub fn pair_separation(
    set: &TrajectorySet,
    a: &str,
    b: &str,
    opts: &GeometryOptions,
) -> Option<f64> {
    let find = |name: &str| set.views().find(|t| t.component() == name);
    let (ta, tb) = (find(a)?, find(b)?);
    let reach = |t: TrajectoryView<'_>| t.points().map(norm).fold(0.0f64, f64::max);
    let radius = opts.origin_exclusion.min(0.5 * reach(ta).min(reach(tb)));
    if radius <= 0.0 {
        // At least one trajectory never leaves the origin: unobservable.
        return Some(0.0);
    }
    let clipped = clip_outside_ball([ta, tb], radius);
    Some(closest_approach(&clipped[0], &clipped[1]))
}

/// Computes ambiguity groups: components whose pairwise trajectory
/// separation falls below `threshold` (dB) are merged (transitively).
pub fn ambiguity_groups(
    set: &TrajectorySet,
    threshold: f64,
    opts: &GeometryOptions,
) -> AmbiguityGroups {
    let names: Vec<&str> = set.views().map(|t| t.component()).collect();
    let n = names.len();
    let mut parent: Vec<usize> = (0..n).collect();

    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }

    for (i, name_i) in names.iter().enumerate() {
        for (j, name_j) in names.iter().enumerate().skip(i + 1) {
            let sep = pair_separation(set, name_i, name_j, opts).unwrap_or(0.0);
            if sep < threshold {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    parent[ri] = rj;
                }
            }
        }
    }

    let mut by_root: std::collections::HashMap<usize, Vec<String>> =
        std::collections::HashMap::new();
    for (i, name) in names.iter().enumerate() {
        let root = find(&mut parent, i);
        by_root.entry(root).or_default().push(name.to_string());
    }
    let mut groups: Vec<Vec<String>> = by_root.into_values().collect();
    for g in &mut groups {
        g.sort();
    }
    groups.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a[0].cmp(&b[0])));
    AmbiguityGroups { groups, threshold }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::{Signature, TestVector};
    use crate::trajectory::FaultTrajectory;

    fn sig(x: f64, y: f64) -> Signature {
        Signature::new(vec![x, y])
    }

    fn straight(name: &str, dx: f64, dy: f64) -> FaultTrajectory {
        FaultTrajectory::new(
            name,
            vec![-20.0, 0.0, 20.0],
            vec![
                sig(-2.0 * dx, -2.0 * dy),
                sig(0.0, 0.0),
                sig(2.0 * dx, 2.0 * dy),
            ],
        )
    }

    /// Near the origin all trajectories converge, so pair separations are
    /// bounded by `origin_exclusion · sin(angle)`; the tests use a wide
    /// exclusion ball to keep angular separation visible.
    fn wide_ball() -> GeometryOptions {
        GeometryOptions {
            origin_exclusion: 1.0,
            ..GeometryOptions::default()
        }
    }

    #[test]
    fn well_separated_components_form_singletons() {
        let set = TrajectorySet::new(
            TestVector::pair(1.0, 2.0),
            vec![
                straight("A", 1.0, 0.0),
                straight("B", 0.0, 1.0),
                straight("C", -1.0, 0.3),
            ],
        );
        let groups = ambiguity_groups(&set, 0.05, &wide_ball());
        assert_eq!(groups.len(), 3);
        assert!(!groups.is_empty());
        assert_eq!(groups.group_of("A").unwrap(), &["A".to_string()]);
    }

    #[test]
    fn coincident_components_merge() {
        let set = TrajectorySet::new(
            TestVector::pair(1.0, 2.0),
            vec![
                straight("A", 1.0, 1.0),
                straight("B", 1.0, 1.0), // identical pathway
                straight("C", -1.0, 1.0),
            ],
        );
        let groups = ambiguity_groups(&set, 0.05, &wide_ball());
        assert_eq!(groups.len(), 2);
        let ab = groups.group_of("A").unwrap();
        assert!(ab.contains(&"B".to_string()));
        assert_eq!(groups.group_of("C").unwrap().len(), 1);
        // Largest group first.
        assert_eq!(groups.groups()[0].len(), 2);
    }

    #[test]
    fn transitive_merging() {
        // A ≈ B and B ≈ C ⇒ {A, B, C} even though A–C are farther apart.
        let set = TrajectorySet::new(
            TestVector::pair(1.0, 2.0),
            vec![
                straight("A", 1.0, 0.00),
                straight("B", 1.0, 0.02),
                straight("C", 1.0, 0.04),
            ],
        );
        let groups = ambiguity_groups(&set, 0.06, &GeometryOptions::default());
        assert_eq!(groups.len(), 1);
        assert_eq!(groups.groups()[0].len(), 3);
    }

    #[test]
    fn pair_separation_values() {
        let set = TrajectorySet::new(
            TestVector::pair(1.0, 2.0),
            vec![
                straight("A", 1.0, 0.0),
                straight("B", 0.0, 1.0),
                straight("T", 0.0, -0.05), // reach 0.1, inside the ball
            ],
        );
        let opts = GeometryOptions::default();
        let sep = pair_separation(&set, "A", "B", &opts).unwrap();
        assert!(sep > 0.0);
        assert!(pair_separation(&set, "A", "Z", &opts).is_none());
        // Separation is symmetric.
        let sep2 = pair_separation(&set, "B", "A", &opts).unwrap();
        assert!((sep - sep2).abs() < 1e-12);
        // A weakly observable component is compared at its own scale
        // (radius 0.05), not swallowed by the 0.5 exclusion ball.
        let weak = pair_separation(&set, "A", "T", &opts).unwrap();
        assert!((weak - 0.05 * 2f64.sqrt()).abs() < 1e-12, "{weak}");
    }

    #[test]
    fn is_resolved_checks_group_membership() {
        let set = TrajectorySet::new(
            TestVector::pair(1.0, 2.0),
            vec![
                straight("A", 1.0, 1.0),
                straight("B", 1.0, 1.0), // identical pathway to A
                straight("C", -1.0, 1.0),
            ],
        );
        let groups = ambiguity_groups(&set, 0.05, &wide_ball());
        // {A, B} is one static group: a diagnosis narrowed to it is done.
        assert!(groups.is_resolved(&["A", "B"]));
        assert!(groups.is_resolved(&["A"]));
        assert!(groups.is_resolved(&["C"]));
        // Candidates spanning two groups are not yet isolated.
        assert!(!groups.is_resolved(&["A", "C"]));
        // Degenerate inputs resolve to false.
        assert!(!groups.is_resolved::<&str>(&[]));
        assert!(!groups.is_resolved(&["Z"]));
    }

    #[test]
    fn threshold_stored() {
        let set = TrajectorySet::new(TestVector::pair(1.0, 2.0), vec![straight("A", 1.0, 0.0)]);
        let groups = ambiguity_groups(&set, 0.25, &GeometryOptions::default());
        assert_eq!(groups.threshold, 0.25);
        assert_eq!(groups.len(), 1);
    }
}
