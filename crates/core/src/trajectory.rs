//! Fault trajectories (paper §2.3, Fig. 3).
//!
//! For one component, the signature points of its deviation sweep —
//! ordered from the most negative deviation through the origin (0%) to
//! the most positive — connect into a piecewise-linear curve: the
//! *component parametric fault trajectory*. A [`TrajectorySet`] holds one
//! trajectory per fault-set component for a given test vector.
//!
//! ## Storage and views
//!
//! A [`TrajectorySet`] stores its trajectories one way,
//! [`PackedTrajectories`]: one contiguous deviation run and one
//! point-major coordinate run, the layout a bank file's trajectory
//! section stores and its reader decodes into. [`FaultTrajectory`] is
//! the builders' validated input, which [`TrajectorySet::new`] packs;
//! bank readers hand their decoded runs to [`TrajectorySet::from_packed`].
//!
//! Every reader — diagnosis, indexing, the fitness count, the ambiguity
//! groups — consumes [`TrajectoryView`]s ([`TrajectorySet::view`],
//! [`TrajectorySet::all_segments`]), which slice the runs without
//! copying.

use ft_circuit::{AcSweepEngine, Circuit, CircuitError, Probe};
use ft_faults::{FaultDictionary, ParametricFault};
use ft_numerics::decibel;
use serde::{Deserialize, Serialize};

use crate::geometry::{all_finite, norm, norm_diff};
use crate::signature::{signature_from_db, Signature, TestVector, DB_FLOOR};

/// One component's fault trajectory in signature space, as a builder
/// assembles it: the validated input [`TrajectorySet::new`] packs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultTrajectory {
    component: String,
    /// Deviations in percent, strictly ascending, containing 0.
    deviations_pct: Vec<f64>,
    /// Signature per deviation; the 0% entry is the origin.
    points: Vec<Signature>,
}

impl FaultTrajectory {
    /// Assembles a trajectory from per-deviation signatures.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ, fewer than two points are given, the
    /// deviations are not strictly ascending, or 0% is missing.
    pub fn new(
        component: impl Into<String>,
        deviations_pct: Vec<f64>,
        points: Vec<Signature>,
    ) -> Self {
        assert_eq!(
            deviations_pct.len(),
            points.len(),
            "deviation/point count mismatch"
        );
        assert!(points.len() >= 2, "a trajectory needs at least two points");
        assert!(
            deviations_pct.windows(2).all(|w| w[0] < w[1]),
            "deviations must be strictly ascending"
        );
        assert!(
            deviations_pct.contains(&0.0),
            "trajectory must contain the 0% (origin) point"
        );
        let dim = points[0].dim();
        assert!(
            points.iter().all(|p| p.dim() == dim),
            "all points must share one dimension"
        );
        FaultTrajectory {
            component: component.into(),
            deviations_pct,
            points,
        }
    }

    /// Signature-space dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.points[0].dim()
    }
}

/// A borrowed view of one trajectory of a [`TrajectorySet`]: component
/// name, deviation grid, and point coordinates as plain `f64` slices of
/// the set's packed runs.
#[derive(Debug, Clone, Copy)]
pub struct TrajectoryView<'a> {
    component: &'a str,
    deviations_pct: &'a [f64],
    /// Point coordinates, point-major (`point_count() * dim`).
    coords: &'a [f64],
    dim: usize,
}

impl<'a> TrajectoryView<'a> {
    /// The component this trajectory belongs to.
    #[inline]
    pub fn component(&self) -> &'a str {
        self.component
    }

    /// Deviations in percent, ascending, aligned with the points.
    #[inline]
    pub fn deviations_pct(&self) -> &'a [f64] {
        self.deviations_pct
    }

    /// Signature-space dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of points.
    #[inline]
    pub fn point_count(&self) -> usize {
        self.deviations_pct.len()
    }

    /// Coordinates of the `i`-th point.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn point(&self, i: usize) -> &'a [f64] {
        &self.coords[i * self.dim..(i + 1) * self.dim]
    }

    /// Iterator over the coordinates of every point, in deviation order.
    pub fn points(self) -> impl Iterator<Item = &'a [f64]> {
        self.coords.chunks_exact(self.dim)
    }

    /// Number of piecewise-linear segments.
    #[inline]
    pub fn segment_count(&self) -> usize {
        self.point_count() - 1
    }

    /// The `i`-th segment as (start deviation, start coordinates, end
    /// deviation, end coordinates).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub(crate) fn segment(&self, i: usize) -> (f64, &'a [f64], f64, &'a [f64]) {
        (
            self.deviations_pct[i],
            self.point(i),
            self.deviations_pct[i + 1],
            self.point(i + 1),
        )
    }

    /// Iterator over all segments.
    pub(crate) fn segments(self) -> impl Iterator<Item = (f64, &'a [f64], f64, &'a [f64])> {
        (0..self.segment_count()).map(move |i| self.segment(i))
    }

    /// Total polyline length (a proxy for fault observability: longer
    /// trajectories are easier to resolve).
    pub fn length(&self) -> f64 {
        self.segments()
            .map(|(_, p0, _, p1)| norm_diff(p0, p1))
            .sum()
    }

    /// `true` when the displacement from the origin grows monotonically
    /// with |deviation| on both branches — the "smooth and monotonic"
    /// assumption of §2.3.
    ///
    /// # Panics
    ///
    /// Panics if the deviations hold no 0% point, which
    /// [`TrajectorySet::validate_deep`] rules out.
    pub fn is_monotonic(&self) -> bool {
        let origin_idx = self
            .deviations_pct
            .iter()
            .position(|d| *d == 0.0)
            .expect("a trajectory holds its 0% origin point");
        let norms: Vec<f64> = self.points().map(norm).collect();
        let pos_ok = norms[origin_idx..].windows(2).all(|w| w[1] >= w[0] - 1e-12);
        let neg_ok = norms[..=origin_idx]
            .windows(2)
            .all(|w| w[0] >= w[1] - 1e-12);
        pos_ok && neg_ok
    }
}

/// A [`PackedTrajectories`] shape that does not describe a trajectory
/// set: no trajectories, a zero dimension, a malformed point-offset
/// table, or runs whose lengths disagree with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedLayoutError(String);

impl std::fmt::Display for PackedLayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "packed trajectory layout: {}", self.0)
    }
}

impl std::error::Error for PackedLayoutError {}

/// Trajectories stored as two contiguous `f64` runs, the way a v3 bank's
/// trajectory section lays them out: per-trajectory component names and
/// point ranges, the concatenated deviation grid, and the point-major
/// coordinate run. Views slice the runs; nothing is copied per query.
///
/// Construction checks shapes only (offset table, run lengths).
/// [`TrajectorySet::validate_deep`] runs the content checks
/// (finiteness, deviation ordering, the 0% origin) a decoder must apply
/// before serving the set.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct PackedTrajectories {
    components: Vec<String>,
    /// Prefix sums of per-trajectory point counts; `len() + 1` entries.
    point_offsets: Vec<u32>,
    /// Deviations of every trajectory, concatenated (`total_points`).
    devs: Vec<f64>,
    /// Point coordinates, point-major (`total_points * dim`).
    coords: Vec<f64>,
    dim: usize,
}

impl std::fmt::Debug for PackedTrajectories {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedTrajectories")
            .field("trajectories", &self.components.len())
            .field("total_points", &self.total_points())
            .field("dim", &self.dim)
            .finish_non_exhaustive()
    }
}

impl PackedTrajectories {
    /// Assembles packed storage. `point_offsets` are prefix sums of
    /// per-trajectory point counts (first 0, increasing by at least 2 —
    /// every trajectory needs two points); `devs` holds one deviation
    /// per point and `coords` `dim` coordinates per point.
    ///
    /// # Errors
    ///
    /// Returns [`PackedLayoutError`] when the shapes disagree.
    pub fn new(
        components: Vec<String>,
        point_offsets: Vec<u32>,
        devs: Vec<f64>,
        coords: Vec<f64>,
        dim: usize,
    ) -> Result<Self, PackedLayoutError> {
        let err = |msg: &str| Err(PackedLayoutError(msg.to_string()));
        if components.is_empty() {
            return err("no trajectories");
        }
        if dim == 0 {
            return err("zero signature dimension");
        }
        if point_offsets.len() != components.len() + 1 || point_offsets[0] != 0 {
            return err("point offset table shape mismatch");
        }
        if !point_offsets
            .windows(2)
            .all(|w| u64::from(w[0]) + 2 <= u64::from(w[1]))
        {
            return err("point offsets must grow by at least two per trajectory");
        }
        let total_points = point_offsets[components.len()] as usize;
        if devs.len() != total_points || Some(coords.len()) != total_points.checked_mul(dim) {
            return err("deviation or coordinate run does not match the point offsets");
        }
        Ok(PackedTrajectories {
            components,
            point_offsets,
            devs,
            coords,
            dim,
        })
    }

    /// Number of trajectories.
    #[inline]
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// `true` when the storage holds no trajectories: never for storage
    /// from [`PackedTrajectories::new`], only for the empty set
    /// [`TrajectorySet::new`] packs from no trajectories.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Signature-space dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total points across all trajectories.
    #[inline]
    pub(crate) fn total_points(&self) -> usize {
        self.devs.len()
    }

    /// Borrowed view of trajectory `ti`.
    ///
    /// # Panics
    ///
    /// Panics if `ti` is out of range.
    #[inline]
    pub fn view(&self, ti: usize) -> TrajectoryView<'_> {
        let lo = self.point_offsets[ti] as usize;
        let hi = self.point_offsets[ti + 1] as usize;
        TrajectoryView {
            component: &self.components[ti],
            deviations_pct: &self.devs[lo..hi],
            coords: &self.coords[lo * self.dim..hi * self.dim],
            dim: self.dim,
        }
    }

    /// Full content validation — everything construction leaves to the
    /// caller: deviations finite, strictly ascending, containing the 0%
    /// origin; coordinates finite.
    fn validate_deep(&self) -> Result<(), String> {
        if !all_finite(&self.coords) {
            return Err("trajectory coordinates must be finite".to_string());
        }
        for ti in 0..self.len() {
            let devs = self.view(ti).deviations_pct();
            if !all_finite(devs) {
                return Err(format!("trajectory {ti}: deviations must be finite"));
            }
            if !devs.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("trajectory {ti}: deviations must be ascending"));
            }
            if !devs.contains(&0.0) {
                return Err(format!("trajectory {ti}: missing 0% origin deviation"));
            }
        }
        Ok(())
    }
}

/// All fault trajectories of a CUT for one test vector, packed (see the
/// module docs). Two sets are equal when their test vectors and packed
/// runs are.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrajectorySet {
    test_vector: TestVector,
    packed: PackedTrajectories,
}

impl TrajectorySet {
    /// Packs trajectories with the test vector that produced them. An
    /// empty set takes the test-vector length as its dimension.
    ///
    /// With a single probe the signature dimension equals the number of
    /// test frequencies; multi-probe observation stacks one block of
    /// frequencies per probe, so the dimension must be a positive
    /// multiple of the test-vector length.
    ///
    /// # Panics
    ///
    /// Panics if any trajectory's dimension is not the same positive
    /// multiple of the test-vector length, or if the set holds more than
    /// `u32::MAX` points.
    pub fn new(test_vector: TestVector, trajectories: Vec<FaultTrajectory>) -> Self {
        let dim = trajectories
            .first()
            .map_or(test_vector.len(), FaultTrajectory::dim);
        assert!(
            trajectories.iter().all(|t| t.dim() == dim),
            "all trajectories must share one dimension"
        );
        let total_points: usize = trajectories.iter().map(|t| t.points.len()).sum();
        let mut packed = PackedTrajectories {
            components: Vec::with_capacity(trajectories.len()),
            point_offsets: Vec::with_capacity(trajectories.len() + 1),
            devs: Vec::with_capacity(total_points),
            coords: Vec::with_capacity(total_points * dim),
            dim,
        };
        packed.point_offsets.push(0);
        for t in trajectories {
            packed.devs.extend_from_slice(&t.deviations_pct);
            for p in &t.points {
                packed.coords.extend_from_slice(p.coords());
            }
            let end = u32::try_from(packed.devs.len()).expect("at most u32::MAX points");
            packed.point_offsets.push(end);
            packed.components.push(t.component);
        }
        TrajectorySet::from_packed(test_vector, packed)
    }

    /// Packages packed trajectories with the test vector that produced
    /// them — what the bank readers return.
    ///
    /// # Panics
    ///
    /// Panics if the packed dimension is not a positive multiple of the
    /// test-vector length (the same contract as [`TrajectorySet::new`]).
    pub fn from_packed(test_vector: TestVector, packed: PackedTrajectories) -> Self {
        let dim = packed.dim();
        assert!(
            dim > 0 && dim.is_multiple_of(test_vector.len()),
            "trajectory dimension must be a positive multiple of the test-vector length"
        );
        TrajectorySet {
            test_vector,
            packed,
        }
    }

    /// The test vector.
    #[inline]
    pub fn test_vector(&self) -> &TestVector {
        &self.test_vector
    }

    /// Signature-space dimension (test frequencies × observation
    /// channels). An empty set reports the test-vector length.
    #[inline]
    pub fn dim(&self) -> usize {
        self.packed.dim()
    }

    /// Number of observation channels (probes) stacked into the
    /// signature.
    #[inline]
    pub fn channels(&self) -> usize {
        self.dim() / self.test_vector.len()
    }

    /// Component name of trajectory `ti`.
    ///
    /// # Panics
    ///
    /// Panics if `ti` is out of range.
    #[inline]
    pub(crate) fn component(&self, ti: usize) -> &str {
        &self.packed.components[ti]
    }

    /// Borrowed view of trajectory `ti`.
    ///
    /// # Panics
    ///
    /// Panics if `ti` is out of range.
    #[inline]
    pub fn view(&self, ti: usize) -> TrajectoryView<'_> {
        self.packed.view(ti)
    }

    /// Iterator over borrowed views of all trajectories, in order.
    pub fn views(&self) -> impl Iterator<Item = TrajectoryView<'_>> + '_ {
        (0..self.len()).map(move |ti| self.view(ti))
    }

    /// Number of trajectories.
    #[inline]
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// `true` when the set holds no trajectories.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of piecewise-linear segments across all trajectories
    /// — the size of the search space a diagnosis query scans.
    pub fn total_segments(&self) -> usize {
        self.packed.total_points() - self.packed.len()
    }

    /// Flat iterator over every segment of every trajectory as
    /// `(trajectory index, segment index, start deviation, start point
    /// coordinates, end deviation, end point coordinates)`, in
    /// trajectory-major order — the enumeration spatial index builders
    /// consume. Nothing is copied.
    pub fn all_segments(
        &self,
    ) -> impl Iterator<Item = (usize, usize, f64, &[f64], f64, &[f64])> + '_ {
        self.views().enumerate().flat_map(|(ti, v)| {
            v.segments()
                .enumerate()
                .map(move |(si, (d0, p0, d1, p1))| (ti, si, d0, p0, d1, p1))
        })
    }

    /// Full content validation: finite, ascending deviation grids
    /// containing the 0% origin, and finite coordinates. Every bank
    /// reader runs this before a set it decoded serves, so a file's bytes
    /// can never put a NaN in a diagnosis.
    pub fn validate_deep(&self) -> Result<(), String> {
        self.packed.validate_deep()
    }
}

/// A component's trajectory from its (deviation, signature) samples in
/// any order, the 0% origin among them.
fn sorted_trajectory(component: &str, mut samples: Vec<(f64, Signature)>) -> FaultTrajectory {
    // Sort by deviation (origin lands in the middle).
    samples.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite deviations"));
    let (devs, points) = samples.into_iter().unzip();
    FaultTrajectory::new(component, devs, points)
}

/// Builds the trajectory set from a fault dictionary by interpolating
/// each dictionary response at the test frequencies — the fast path used
/// inside the GA loop.
///
/// The signature of each faulty circuit is its interpolated dB response
/// minus the golden response; the 0% origin point is inserted explicitly.
pub fn trajectories_from_dictionary(dict: &FaultDictionary, tv: &TestVector) -> TrajectorySet {
    let omegas = tv.omegas();
    // The GA loop calls this thousands of times per run; both dB
    // buffers come from the thread-local scratch pool so the hot path
    // allocates only on its first call per thread.
    let mut golden = crate::scratch::DbScratch::acquire();
    golden.extend(omegas.iter().map(|&w| dict.golden_db_at(w)));
    let mut measured = crate::scratch::DbScratch::acquire();

    let mut trajectories = Vec::new();
    for component in dict.universe().components() {
        let mut samples = vec![(0.0, Signature::origin(tv.len()))];
        for (idx, fault) in dict.universe().faults().iter().enumerate() {
            if fault.component() != component {
                continue;
            }
            measured.clear();
            measured.extend(omegas.iter().map(|&w| dict.entry_db_at(idx, w)));
            samples.push((fault.percent(), signature_from_db(&measured, &golden)));
        }
        trajectories.push(sorted_trajectory(component, samples));
    }
    TrajectorySet::new(tv.clone(), trajectories)
}

/// Builds the trajectory set by exact re-simulation of every fault at the
/// test frequencies — the verification path (no interpolation error).
///
/// One [`AcSweepEngine`] serves the whole set: each fault is a delta
/// restamp, a sample at the test frequencies, and a bit-exact reset — no
/// circuit clones and no per-frequency reassembly.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn trajectories_exact(
    circuit: &Circuit,
    faults: &[ParametricFault],
    components: &[String],
    input: &str,
    probe: &Probe,
    tv: &TestVector,
) -> Result<TrajectorySet, CircuitError> {
    let mut engine = AcSweepEngine::new(circuit, input, probe)?;
    let mut samples = Vec::with_capacity(tv.len());

    let sample_db = |engine: &mut AcSweepEngine,
                     samples: &mut Vec<ft_numerics::Complex64>|
     -> Result<Vec<f64>, CircuitError> {
        engine.sweep_into(tv.omegas(), samples)?;
        Ok(samples
            .iter()
            .map(|v| decibel::clamp_db(v.abs_db(), DB_FLOOR))
            .collect())
    };

    let golden = sample_db(&mut engine, &mut samples)?;
    let mut trajectories = Vec::new();
    for component in components {
        let mut points = vec![(0.0, Signature::origin(tv.len()))];
        for fault in faults
            .iter()
            .filter(|f| f.component() == component.as_str())
        {
            let id = circuit
                .find(fault.component())
                .ok_or_else(|| CircuitError::UnknownComponent(fault.component().into()))?;
            let nominal = engine
                .value_of(id)
                .ok_or_else(|| CircuitError::InvalidValue {
                    component: fault.component().into(),
                    value: f64::NAN,
                    reason: "component has no principal value to deviate",
                })?;
            engine.restamp_component(id, nominal * fault.multiplier())?;
            let measured = sample_db(&mut engine, &mut samples);
            engine.reset();
            points.push((fault.percent(), signature_from_db(&measured?, &golden)));
        }
        trajectories.push(sorted_trajectory(component, points));
    }
    Ok(TrajectorySet::new(tv.clone(), trajectories))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_circuit::tow_thomas_normalized;
    use ft_faults::{DeviationGrid, FaultUniverse};
    use ft_numerics::FrequencyGrid;

    fn paper_setup() -> (ft_circuit::Benchmark, FaultDictionary) {
        let bench = tow_thomas_normalized(1.0).unwrap();
        let universe = FaultUniverse::new(&bench.fault_set, DeviationGrid::paper());
        let grid = FrequencyGrid::log_space(0.01, 100.0, 41);
        let dict =
            FaultDictionary::build(&bench.circuit, &universe, &bench.input, &bench.probe, &grid)
                .unwrap();
        (bench, dict)
    }

    /// `t` packed alone into a set over a test vector of its dimension.
    fn single(t: FaultTrajectory) -> TrajectorySet {
        let tv = TestVector::new((1..=t.dim()).map(|i| i as f64).collect());
        TrajectorySet::new(tv, vec![t])
    }

    #[test]
    fn trajectory_constructor_validates() {
        let p = |x: f64, y: f64| Signature::new(vec![x, y]);
        let t = FaultTrajectory::new(
            "R1",
            vec![-10.0, 0.0, 10.0],
            vec![p(-1.0, -1.0), p(0.0, 0.0), p(1.0, 1.0)],
        );
        assert_eq!(t.component, "R1");
        assert_eq!(t.dim(), 2);
        let set = single(t);
        let v = set.view(0);
        assert_eq!(v.segment_count(), 2);
        assert_eq!(v.dim(), 2);
        assert!((v.length() - 2.0 * 2f64.sqrt()).abs() < 1e-12);
        assert!(v.is_monotonic());
        let (d0, p0, d1, _p1) = v.segment(0);
        assert_eq!(d0, -10.0);
        assert_eq!(d1, 0.0);
        assert_eq!(p0, &[-1.0, -1.0]);
        assert_eq!(v.segments().count(), 2);
    }

    #[test]
    fn flat_segment_enumeration_covers_the_set() {
        let p = |x: f64, y: f64| Signature::new(vec![x, y]);
        let a = FaultTrajectory::new(
            "A",
            vec![-10.0, 0.0, 10.0],
            vec![p(-1.0, 0.0), p(0.0, 0.0), p(1.0, 0.0)],
        );
        let b = FaultTrajectory::new("B", vec![0.0, 10.0], vec![p(0.0, 0.0), p(0.0, 2.0)]);
        let set = TrajectorySet::new(TestVector::pair(1.0, 2.0), vec![a, b]);
        assert_eq!(set.total_segments(), 3);
        let flat: Vec<(usize, usize, f64, f64)> = set
            .all_segments()
            .map(|(ti, si, d0, _, d1, _)| (ti, si, d0, d1))
            .collect();
        assert_eq!(
            flat,
            vec![(0, 0, -10.0, 0.0), (0, 1, 0.0, 10.0), (1, 0, 0.0, 10.0),]
        );
    }

    #[test]
    #[should_panic(expected = "origin")]
    fn missing_origin_rejected() {
        let p = |x: f64| Signature::new(vec![x]);
        let _ = FaultTrajectory::new("R1", vec![-10.0, 10.0], vec![p(-1.0), p(1.0)]);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_deviations_rejected() {
        let p = |x: f64| Signature::new(vec![x]);
        let _ = FaultTrajectory::new("R1", vec![10.0, 0.0, -10.0], vec![p(1.0), p(0.0), p(-1.0)]);
    }

    #[test]
    fn non_monotonic_detected() {
        let p = |x: f64| Signature::new(vec![x]);
        let t = FaultTrajectory::new(
            "R1",
            vec![-10.0, 0.0, 10.0, 20.0],
            vec![p(-1.0), p(0.0), p(2.0), p(1.0)],
        );
        assert!(!single(t).view(0).is_monotonic());
    }

    #[test]
    fn dictionary_trajectories_shape() {
        let (bench, dict) = paper_setup();
        let tv = TestVector::pair(0.5, 2.0);
        let set = trajectories_from_dictionary(&dict, &tv);
        assert_eq!(set.len(), bench.fault_set.len());
        assert_eq!(set.test_vector(), &tv);
        let names: Vec<&str> = set.views().map(|v| v.component()).collect();
        assert_eq!(names, bench.fault_set);
        for v in set.views() {
            // 8 dictionary deviations + origin.
            assert_eq!(v.point_count(), 9);
            assert_eq!(v.dim(), 2);
            // Origin present and exactly zero.
            let origin_idx = v.deviations_pct().iter().position(|d| *d == 0.0).unwrap();
            assert_eq!(origin_idx, 4);
            assert!(norm(v.point(origin_idx)) < 1e-12);
        }
    }

    #[test]
    fn exact_and_interpolated_agree_on_grid_frequencies() {
        let (bench, dict) = paper_setup();
        // Pick test frequencies that are exact grid points: interpolation
        // error vanishes and both paths must agree.
        let grid_freqs = dict.grid().frequencies();
        let tv = TestVector::pair(grid_freqs[10], grid_freqs[30]);
        let interp = trajectories_from_dictionary(&dict, &tv);
        let exact = trajectories_exact(
            &bench.circuit,
            dict.universe().faults(),
            &bench.fault_set,
            &bench.input,
            &bench.probe,
            &tv,
        )
        .unwrap();
        for (a, b) in interp.views().zip(exact.views()) {
            assert_eq!(a.component(), b.component());
            for (pa, pb) in a.points().zip(b.points()) {
                assert!(
                    norm_diff(pa, pb) < 1e-9,
                    "{}: {pa:?} vs {pb:?}",
                    a.component()
                );
            }
        }
    }

    #[test]
    fn trajectories_are_monotonic_for_the_cut() {
        // §2.3: smooth/monotonic responses for linear continuous-time
        // circuits — verify for the paper CUT at a generic test vector.
        let (_bench, dict) = paper_setup();
        let tv = TestVector::pair(0.7, 1.8);
        let set = trajectories_from_dictionary(&dict, &tv);
        for v in set.views() {
            assert!(v.is_monotonic(), "{} not monotonic", v.component());
        }
    }

    #[test]
    fn different_components_have_distinct_trajectories() {
        let (_bench, dict) = paper_setup();
        let tv = TestVector::pair(0.5, 2.0);
        let set = trajectories_from_dictionary(&dict, &tv);
        // R3 and C1 endpoints differ markedly.
        let end = |name: &str| {
            let v = set.views().find(|v| v.component() == name).unwrap();
            v.point(v.point_count() - 1)
        };
        let d = norm_diff(end("R3"), end("C1"));
        assert!(d > 0.05, "endpoint distance {d}");
    }

    #[test]
    #[should_panic(expected = "positive multiple")]
    fn set_dimension_checked() {
        let p = |x: f64| Signature::new(vec![x]);
        let t = FaultTrajectory::new("R1", vec![-10.0, 0.0], vec![p(-1.0), p(0.0)]);
        let _ = TrajectorySet::new(TestVector::pair(1.0, 2.0), vec![t]);
    }

    #[test]
    fn stacked_dimension_and_channels() {
        // A 4-D trajectory over a 2-frequency test vector = 2 channels.
        let p = |x: f64| Signature::new(vec![x, x, -x, 2.0 * x]);
        let t = FaultTrajectory::new("R1", vec![-10.0, 0.0], vec![p(-1.0), p(0.0)]);
        let set = TrajectorySet::new(TestVector::pair(1.0, 2.0), vec![t]);
        assert_eq!(set.dim(), 4);
        assert_eq!(set.channels(), 2);
        // Empty set falls back to the test-vector length.
        let empty = TrajectorySet::new(TestVector::pair(1.0, 2.0), vec![]);
        assert!(empty.is_empty());
        assert_eq!(empty.total_segments(), 0);
        assert_eq!(empty.dim(), 2);
        assert_eq!(empty.channels(), 1);
    }

    /// Packed storage for the two-trajectory layout of [`built_pair`]
    /// (`R1` with two points, `C2` with three), over the given runs.
    fn packed_pair(devs: &[f64], coords: &[f64]) -> PackedTrajectories {
        PackedTrajectories::new(
            vec!["R1".into(), "C2".into()],
            vec![0, 2, 5],
            devs.to_vec(),
            coords.to_vec(),
            2,
        )
        .unwrap()
    }

    fn built_pair() -> TrajectorySet {
        let p = |x: f64, y: f64| Signature::new(vec![x, y]);
        let t1 = FaultTrajectory::new("R1", vec![-10.0, 0.0], vec![p(-1.0, -2.0), p(0.0, 0.0)]);
        let t2 = FaultTrajectory::new(
            "C2",
            vec![-5.0, 0.0, 5.0],
            vec![p(1.0, 2.0), p(0.0, 0.0), p(3.0, 4.0)],
        );
        TrajectorySet::new(TestVector::pair(1.0, 2.0), vec![t1, t2])
    }

    #[test]
    fn new_packs_what_a_reader_decodes() {
        let built = built_pair();
        let devs = [-10.0, 0.0, -5.0, 0.0, 5.0];
        let coords = [-1.0, -2.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 3.0, 4.0];
        let set =
            TrajectorySet::from_packed(TestVector::pair(1.0, 2.0), packed_pair(&devs, &coords));

        // `new` lays the trajectories out as the hand-packed runs.
        assert_eq!(set, built);
        assert_eq!(set.len(), 2);
        assert_eq!(set.dim(), 2);
        assert_eq!(set.total_segments(), 3);
        assert_eq!(set.component(1), "C2");
        let c2 = set.view(1);
        assert_eq!(c2.deviations_pct(), &[-5.0, 0.0, 5.0]);
        assert_eq!(
            c2.points().collect::<Vec<_>>(),
            [[1.0, 2.0], [0.0, 0.0], [3.0, 4.0]]
        );
        set.validate_deep().unwrap();
        built.validate_deep().unwrap();
        // A clone stays equal; a different run does not.
        assert_eq!(set.clone(), built);
        let mut moved = coords;
        moved[9] = 4.5;
        assert_ne!(
            TrajectorySet::from_packed(TestVector::pair(1.0, 2.0), packed_pair(&devs, &moved)),
            built
        );
    }

    #[test]
    fn packed_storage_rejects_bad_layouts() {
        let devs = [-10.0, 0.0, -5.0, 0.0, 5.0];
        let coords = [-1.0, -2.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 3.0, 4.0];
        let comps = || vec!["R1".to_string(), "C2".to_string()];
        let mk = |offsets: Vec<u32>, devs: &[f64], coords: &[f64], dim: usize| {
            PackedTrajectories::new(comps(), offsets, devs.to_vec(), coords.to_vec(), dim)
        };
        // Runs shorter or longer than the offset table declares.
        for (d, c) in [
            (&devs[..4], &coords[..]),
            (&devs[..], &coords[..9]),
            (&devs[..], &[coords.as_slice(), &[0.0, 0.0]].concat()[..]),
        ] {
            assert!(mk(vec![0, 2, 5], d, c, 2)
                .unwrap_err()
                .to_string()
                .contains("does not match"));
        }
        // Offset table shape and monotonicity.
        assert!(mk(vec![0, 2], &devs, &coords, 2).is_err());
        assert!(mk(vec![1, 2, 5], &devs, &coords, 2).is_err());
        assert!(mk(vec![0, 1, 5], &devs, &coords, 2).is_err());
        // Single-point "trajectory" (offsets step of 1) is rejected.
        assert!(mk(vec![0, 4, 5], &devs, &coords, 2).is_err());
        // An offset near u32::MAX must not wrap the growth check.
        assert!(mk(vec![0, u32::MAX - 1, 5], &devs, &coords, 2).is_err());
        // Degenerate dims.
        assert!(mk(vec![0, 2, 5], &devs, &coords, 0).is_err());
        assert!(PackedTrajectories::new(vec![], vec![0], vec![], vec![], 2).is_err());
    }

    #[test]
    fn packed_validate_deep_flags_bad_regions() {
        // Same layout as the equality test but with a NaN coordinate
        // and a deviation ladder missing 0.0 — structural parsing
        // accepts it (finite-ness is content, not layout), deep
        // validation rejects it.
        let devs = [-10.0, 0.0, -5.0, 1.0, 5.0]; // second traj skips 0.0
        let coords = [-1.0, f64::NAN, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 3.0, 4.0];
        let set =
            TrajectorySet::from_packed(TestVector::pair(1.0, 2.0), packed_pair(&devs, &coords));
        let msg = set.validate_deep().unwrap_err();
        assert!(!msg.is_empty());
    }
}
