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
//! A [`TrajectorySet`] hides one of two storages behind the same
//! accessor surface:
//!
//! * **owned** — the classic `Vec<FaultTrajectory>` the offline pipeline
//!   builds, each point its own [`Signature`];
//! * **packed** — [`PackedTrajectories`]: one contiguous deviation run
//!   and one point-major coordinate run, the layout a bank file's
//!   trajectory section stores and its reader decodes into. Every set
//!   read from a bank file is packed.
//!
//! Hot paths consume [`TrajectoryView`]s ([`TrajectorySet::view`],
//! [`TrajectorySet::all_segments`]), which read either storage without
//! copying. The legacy [`TrajectorySet::trajectories`] accessor still
//! works on packed sets by materialising owned trajectories once, on
//! first use — cold introspection paths keep working, but they pay the
//! per-point copy the hot paths avoid.

use std::sync::OnceLock;

use ft_circuit::{AcSweepEngine, Circuit, CircuitError, Probe};
use ft_faults::{FaultDictionary, ParametricFault};
use ft_numerics::decibel;
use serde::{Deserialize, Serialize};

use crate::geometry::all_finite;
use crate::signature::{signature_from_db, Signature, TestVector, DB_FLOOR};

/// One component's fault trajectory in signature space.
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

    /// The component this trajectory belongs to.
    #[inline]
    pub fn component(&self) -> &str {
        &self.component
    }

    /// Deviations in percent, ascending.
    #[inline]
    pub fn deviations_pct(&self) -> &[f64] {
        &self.deviations_pct
    }

    /// Signature points, aligned with [`deviations_pct`].
    ///
    /// [`deviations_pct`]: FaultTrajectory::deviations_pct
    #[inline]
    pub fn points(&self) -> &[Signature] {
        &self.points
    }

    /// Signature-space dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.points[0].dim()
    }

    /// Number of piecewise-linear segments.
    #[inline]
    pub fn segment_count(&self) -> usize {
        self.points.len() - 1
    }

    /// The `i`-th segment as (start deviation, start point, end
    /// deviation, end point).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn segment(&self, i: usize) -> (f64, &Signature, f64, &Signature) {
        (
            self.deviations_pct[i],
            &self.points[i],
            self.deviations_pct[i + 1],
            &self.points[i + 1],
        )
    }

    /// Iterator over all segments.
    pub fn segments(&self) -> impl Iterator<Item = (f64, &Signature, f64, &Signature)> + '_ {
        (0..self.segment_count()).map(move |i| self.segment(i))
    }

    /// This trajectory as a storage-agnostic borrowed [`TrajectoryView`].
    #[inline]
    pub fn view(&self) -> TrajectoryView<'_> {
        TrajectoryView {
            component: &self.component,
            deviations_pct: &self.deviations_pct,
            points: PointsRef::Owned(&self.points),
            dim: self.dim(),
        }
    }

    /// Total polyline length (a proxy for fault observability: longer
    /// trajectories are easier to resolve).
    pub fn length(&self) -> f64 {
        self.points.windows(2).map(|w| w[0].distance(&w[1])).sum()
    }

    /// `true` when the displacement from the origin grows monotonically
    /// with |deviation| on both branches — the "smooth and monotonic"
    /// assumption of §2.3.
    pub fn is_monotonic(&self) -> bool {
        let origin_idx = self
            .deviations_pct
            .iter()
            .position(|d| *d == 0.0)
            .expect("constructor guarantees an origin point");
        let norms: Vec<f64> = self.points.iter().map(Signature::norm).collect();
        let pos_ok = norms[origin_idx..].windows(2).all(|w| w[1] >= w[0] - 1e-12);
        let neg_ok = norms[..=origin_idx]
            .windows(2)
            .all(|w| w[0] >= w[1] - 1e-12);
        pos_ok && neg_ok
    }
}

/// A borrowed, storage-agnostic view of one trajectory: component name,
/// deviation grid, and point coordinates exposed as plain `f64` slices.
/// Owned and packed [`TrajectorySet`] storages produce the same view
/// type, so diagnosis and indexing code written against it runs
/// unchanged over sets built in process and sets read from bank files.
#[derive(Debug, Clone, Copy)]
pub struct TrajectoryView<'a> {
    component: &'a str,
    deviations_pct: &'a [f64],
    points: PointsRef<'a>,
    dim: usize,
}

/// Point coordinates behind a view: per-point [`Signature`]s for owned
/// storage, one contiguous point-major `f64` run for packed storage.
#[derive(Debug, Clone, Copy)]
enum PointsRef<'a> {
    Owned(&'a [Signature]),
    Packed(&'a [f64]),
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
        match self.points {
            PointsRef::Owned(points) => points[i].coords(),
            PointsRef::Packed(coords) => &coords[i * self.dim..(i + 1) * self.dim],
        }
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
    pub fn segment(&self, i: usize) -> (f64, &'a [f64], f64, &'a [f64]) {
        (
            self.deviations_pct[i],
            self.point(i),
            self.deviations_pct[i + 1],
            self.point(i + 1),
        )
    }

    /// Iterator over all segments.
    pub fn segments(self) -> impl Iterator<Item = (f64, &'a [f64], f64, &'a [f64])> {
        (0..self.segment_count()).map(move |i| self.segment(i))
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
#[derive(Clone)]
pub struct PackedTrajectories {
    components: Vec<String>,
    /// Prefix sums of per-trajectory point counts; `len() + 1` entries.
    point_offsets: Vec<u32>,
    /// Deviations of every trajectory, concatenated (`total_points`).
    devs: Vec<f64>,
    /// Point coordinates, point-major (`total_points * dim`).
    coords: Vec<f64>,
    dim: usize,
    /// Owned trajectories, built once if a legacy accessor needs them.
    materialized: OnceLock<Vec<FaultTrajectory>>,
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
            materialized: OnceLock::new(),
        })
    }

    /// Number of trajectories.
    #[inline]
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// `true` when the storage holds no trajectories (never, for
    /// successfully constructed storage).
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
    pub fn total_points(&self) -> usize {
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
            points: PointsRef::Packed(&self.coords[lo * self.dim..hi * self.dim]),
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

    /// Owned trajectories, built from the packed runs once and cached —
    /// the compatibility path for cold accessors.
    fn materialized(&self) -> &[FaultTrajectory] {
        self.materialized.get_or_init(|| {
            (0..self.len())
                .map(|ti| {
                    let v = self.view(ti);
                    // Constructed directly (not via the asserting
                    // `FaultTrajectory::new`): packed content is only
                    // proven well-formed after `validate_deep`, and
                    // materialisation must not panic before a caller had
                    // the chance to run it.
                    FaultTrajectory {
                        component: v.component().to_string(),
                        deviations_pct: v.deviations_pct().to_vec(),
                        points: (0..v.point_count())
                            .map(|i| Signature::new(v.point(i).to_vec()))
                            .collect(),
                    }
                })
                .collect()
        })
    }
}

/// All fault trajectories of a CUT for one test vector, over owned or
/// packed storage (see the module docs).
#[derive(Debug, Clone)]
pub struct TrajectorySet {
    test_vector: TestVector,
    storage: TrajectoryStorage,
}

#[derive(Debug, Clone)]
enum TrajectoryStorage {
    Owned(Vec<FaultTrajectory>),
    Packed(PackedTrajectories),
}

// The vendored serde is a marker-only shim (see vendor/serde); with the
// storage enum the derives are spelled out by hand.
impl Serialize for TrajectorySet {}
impl<'de> Deserialize<'de> for TrajectorySet {}

/// Equality is over content, not storage: a packed set equals the owned
/// set holding the same trajectories — what the tests comparing sets
/// read from files with the sets they were built from lean on.
impl PartialEq for TrajectorySet {
    fn eq(&self, other: &Self) -> bool {
        if self.test_vector != other.test_vector || self.len() != other.len() {
            return false;
        }
        (0..self.len()).all(|ti| {
            let (a, b) = (self.view(ti), other.view(ti));
            a.component() == b.component()
                && a.deviations_pct() == b.deviations_pct()
                && a.dim() == b.dim()
                && (0..a.point_count()).all(|i| a.point(i) == b.point(i))
        })
    }
}

impl TrajectorySet {
    /// Packages trajectories with the test vector that produced them.
    ///
    /// With a single probe the signature dimension equals the number of
    /// test frequencies; multi-probe observation stacks one block of
    /// frequencies per probe, so the dimension must be a positive
    /// multiple of the test-vector length.
    ///
    /// # Panics
    ///
    /// Panics if any trajectory's dimension is not the same positive
    /// multiple of the test-vector length.
    pub fn new(test_vector: TestVector, trajectories: Vec<FaultTrajectory>) -> Self {
        if let Some(first) = trajectories.first() {
            let dim = first.dim();
            assert!(
                dim > 0 && dim.is_multiple_of(test_vector.len()),
                "trajectory dimension must be a positive multiple of the test-vector length"
            );
            assert!(
                trajectories.iter().all(|t| t.dim() == dim),
                "all trajectories must share one dimension"
            );
        }
        TrajectorySet {
            test_vector,
            storage: TrajectoryStorage::Owned(trajectories),
        }
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
            storage: TrajectoryStorage::Packed(packed),
        }
    }

    /// `true` when the set holds packed storage (it was read from a bank
    /// file).
    #[inline]
    pub fn is_packed(&self) -> bool {
        matches!(self.storage, TrajectoryStorage::Packed(_))
    }

    /// The test vector.
    #[inline]
    pub fn test_vector(&self) -> &TestVector {
        &self.test_vector
    }

    /// Signature-space dimension (test frequencies × observation
    /// channels). Falls back to the test-vector length for an empty set.
    #[inline]
    pub fn dim(&self) -> usize {
        match &self.storage {
            TrajectoryStorage::Owned(trajectories) => trajectories
                .first()
                .map_or(self.test_vector.len(), FaultTrajectory::dim),
            TrajectoryStorage::Packed(packed) => packed.dim(),
        }
    }

    /// Number of observation channels (probes) stacked into the
    /// signature.
    #[inline]
    pub fn channels(&self) -> usize {
        self.dim() / self.test_vector.len()
    }

    /// All trajectories as owned values. On packed storage this decodes
    /// once and caches — cold accessors and legacy callers only; hot
    /// paths use [`TrajectorySet::views`].
    #[inline]
    pub fn trajectories(&self) -> &[FaultTrajectory] {
        match &self.storage {
            TrajectoryStorage::Owned(trajectories) => trajectories,
            TrajectoryStorage::Packed(packed) => packed.materialized(),
        }
    }

    /// Component name of trajectory `ti` without materialising anything.
    ///
    /// # Panics
    ///
    /// Panics if `ti` is out of range.
    #[inline]
    pub fn component(&self, ti: usize) -> &str {
        match &self.storage {
            TrajectoryStorage::Owned(trajectories) => trajectories[ti].component(),
            TrajectoryStorage::Packed(packed) => &packed.components[ti],
        }
    }

    /// Borrowed view of trajectory `ti` — no copy on either storage.
    ///
    /// # Panics
    ///
    /// Panics if `ti` is out of range.
    #[inline]
    pub fn view(&self, ti: usize) -> TrajectoryView<'_> {
        match &self.storage {
            TrajectoryStorage::Owned(trajectories) => trajectories[ti].view(),
            TrajectoryStorage::Packed(packed) => packed.view(ti),
        }
    }

    /// Iterator over borrowed views of all trajectories, in order.
    pub fn views(&self) -> impl Iterator<Item = TrajectoryView<'_>> + '_ {
        (0..self.len()).map(move |ti| self.view(ti))
    }

    /// Trajectory of a named component (owned; materialises packed
    /// storage — use [`TrajectorySet::views`] on hot paths).
    pub fn trajectory_of(&self, component: &str) -> Option<&FaultTrajectory> {
        self.trajectories()
            .iter()
            .find(|t| t.component() == component)
    }

    /// Number of trajectories.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.storage {
            TrajectoryStorage::Owned(trajectories) => trajectories.len(),
            TrajectoryStorage::Packed(packed) => packed.len(),
        }
    }

    /// `true` when the set holds no trajectories.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of piecewise-linear segments across all trajectories
    /// — the size of the search space a diagnosis query scans.
    pub fn total_segments(&self) -> usize {
        match &self.storage {
            TrajectoryStorage::Owned(trajectories) => trajectories
                .iter()
                .map(FaultTrajectory::segment_count)
                .sum(),
            TrajectoryStorage::Packed(packed) => packed.total_points() - packed.len(),
        }
    }

    /// Flat iterator over every segment of every trajectory as
    /// `(trajectory index, segment index, start deviation, start point
    /// coordinates, end deviation, end point coordinates)`, in
    /// trajectory-major order — the enumeration spatial index builders
    /// consume. No copy on either storage.
    pub fn all_segments(
        &self,
    ) -> impl Iterator<Item = (usize, usize, f64, &[f64], f64, &[f64])> + '_ {
        self.views().enumerate().flat_map(|(ti, v)| {
            v.segments()
                .enumerate()
                .map(move |(si, (d0, p0, d1, p1))| (ti, si, d0, p0, d1, p1))
        })
    }

    /// Full content validation of packed storage (finite, ascending
    /// deviation grids containing the 0% origin; finite coordinates).
    /// Owned storage was validated at construction and returns `Ok`
    /// immediately. Every bank reader runs this before a set it decoded
    /// serves, so a file's bytes can never put a NaN in a diagnosis.
    pub fn validate_deep(&self) -> Result<(), String> {
        match &self.storage {
            TrajectoryStorage::Owned(_) => Ok(()),
            TrajectoryStorage::Packed(packed) => packed.validate_deep(),
        }
    }
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
        let mut devs: Vec<f64> = vec![0.0];
        let mut points: Vec<Signature> = vec![Signature::origin(tv.len())];
        for (idx, fault) in dict.universe().faults().iter().enumerate() {
            if fault.component() != component {
                continue;
            }
            measured.clear();
            measured.extend(omegas.iter().map(|&w| dict.entry_db_at(idx, w)));
            devs.push(fault.percent());
            points.push(signature_from_db(&measured, &golden));
        }
        // Sort by deviation (origin lands in the middle).
        let mut order: Vec<usize> = (0..devs.len()).collect();
        order.sort_by(|&a, &b| devs[a].partial_cmp(&devs[b]).expect("finite deviations"));
        let devs: Vec<f64> = order.iter().map(|&i| devs[i]).collect();
        let points: Vec<Signature> = order.iter().map(|&i| points[i].clone()).collect();
        trajectories.push(FaultTrajectory::new(component.clone(), devs, points));
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
        let mut devs: Vec<f64> = vec![0.0];
        let mut points: Vec<Signature> = vec![Signature::origin(tv.len())];
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
            devs.push(fault.percent());
            points.push(signature_from_db(&measured?, &golden));
        }
        let mut order: Vec<usize> = (0..devs.len()).collect();
        order.sort_by(|&a, &b| devs[a].partial_cmp(&devs[b]).expect("finite deviations"));
        let devs: Vec<f64> = order.iter().map(|&i| devs[i]).collect();
        let points: Vec<Signature> = order.iter().map(|&i| points[i].clone()).collect();
        trajectories.push(FaultTrajectory::new(component.clone(), devs, points));
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

    #[test]
    fn trajectory_constructor_validates() {
        let p = |x: f64, y: f64| Signature::new(vec![x, y]);
        let t = FaultTrajectory::new(
            "R1",
            vec![-10.0, 0.0, 10.0],
            vec![p(-1.0, -1.0), p(0.0, 0.0), p(1.0, 1.0)],
        );
        assert_eq!(t.component(), "R1");
        assert_eq!(t.segment_count(), 2);
        assert_eq!(t.dim(), 2);
        assert!((t.length() - 2.0 * 2f64.sqrt()).abs() < 1e-12);
        assert!(t.is_monotonic());
        let (d0, p0, d1, _p1) = t.segment(0);
        assert_eq!(d0, -10.0);
        assert_eq!(d1, 0.0);
        assert_eq!(p0.coords(), &[-1.0, -1.0]);
        assert_eq!(t.segments().count(), 2);
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
        assert!(!t.is_monotonic());
    }

    #[test]
    fn dictionary_trajectories_shape() {
        let (bench, dict) = paper_setup();
        let tv = TestVector::pair(0.5, 2.0);
        let set = trajectories_from_dictionary(&dict, &tv);
        assert_eq!(set.len(), bench.fault_set.len());
        assert_eq!(set.test_vector(), &tv);
        for t in set.trajectories() {
            // 8 dictionary deviations + origin.
            assert_eq!(t.points().len(), 9);
            assert_eq!(t.dim(), 2);
            // Origin present and exactly zero.
            let origin_idx = t.deviations_pct().iter().position(|d| *d == 0.0).unwrap();
            assert_eq!(origin_idx, 4);
            assert!(t.points()[origin_idx].norm() < 1e-12);
        }
        assert!(set.trajectory_of("R3").is_some());
        assert!(set.trajectory_of("R99").is_none());
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
        for (a, b) in interp.trajectories().iter().zip(exact.trajectories()) {
            assert_eq!(a.component(), b.component());
            for (pa, pb) in a.points().iter().zip(b.points()) {
                assert!(pa.distance(pb) < 1e-9, "{}: {pa} vs {pb}", a.component());
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
        for t in set.trajectories() {
            assert!(t.is_monotonic(), "{} not monotonic", t.component());
        }
    }

    #[test]
    fn different_components_have_distinct_trajectories() {
        let (_bench, dict) = paper_setup();
        let tv = TestVector::pair(0.5, 2.0);
        let set = trajectories_from_dictionary(&dict, &tv);
        // R3 and C1 endpoints differ markedly.
        let r3 = set.trajectory_of("R3").unwrap();
        let c1 = set.trajectory_of("C1").unwrap();
        let d = r3
            .points()
            .last()
            .unwrap()
            .distance(c1.points().last().unwrap());
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
        assert_eq!(empty.dim(), 2);
        assert_eq!(empty.channels(), 1);
    }

    /// Packed storage for the two-trajectory layout of [`owned_pair`]
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

    fn owned_pair() -> TrajectorySet {
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
    fn packed_storage_matches_owned_everywhere() {
        let owned = owned_pair();
        let devs = [-10.0, 0.0, -5.0, 0.0, 5.0];
        let coords = [-1.0, -2.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 3.0, 4.0];
        let set =
            TrajectorySet::from_packed(TestVector::pair(1.0, 2.0), packed_pair(&devs, &coords));

        assert!(set.is_packed());
        assert!(!owned.is_packed());
        // Content equality crosses storage kinds.
        assert_eq!(set, owned);
        assert_eq!(set.len(), 2);
        assert_eq!(set.dim(), 2);
        assert_eq!(set.total_segments(), owned.total_segments());
        assert_eq!(
            set.all_segments().collect::<Vec<_>>(),
            owned.all_segments().collect::<Vec<_>>()
        );
        // Views agree point-for-point and segment-for-segment.
        for (pv, ov) in set.views().zip(owned.views()) {
            assert_eq!(pv.component(), ov.component());
            assert_eq!(pv.deviations_pct(), ov.deviations_pct());
            assert_eq!(pv.point_count(), ov.point_count());
            for i in 0..pv.point_count() {
                assert_eq!(pv.point(i), ov.point(i));
            }
            assert_eq!(
                pv.segments().collect::<Vec<_>>(),
                ov.segments().collect::<Vec<_>>()
            );
        }
        // Materialization produces the very same owned trajectories.
        assert_eq!(set.trajectories(), owned.trajectories());
        assert_eq!(
            set.trajectory_of("C2").unwrap(),
            owned.trajectory_of("C2").unwrap()
        );
        set.validate_deep().unwrap();
        // A clone stays equal.
        assert_eq!(set.clone(), owned);
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

    #[test]
    fn packed_set_diagnoses_without_building_an_owned_copy() {
        use crate::diagnosis::{Diagnoser, DiagnoserConfig, LinearScan};
        let devs = [-10.0, 0.0, -5.0, 0.0, 5.0];
        let coords = [-1.0, -2.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 3.0, 4.0];
        let diag = Diagnoser::new(
            TrajectorySet::from_packed(TestVector::pair(1.0, 2.0), packed_pair(&devs, &coords)),
            DiagnoserConfig::default(),
        );
        let reference = Diagnoser::new(owned_pair(), DiagnoserConfig::default());
        for q in [[0.5, 1.2], [-0.8, -1.5], [2.0, 3.0]] {
            let q = Signature::new(q.to_vec());
            assert_eq!(diag.diagnose(&q), reference.diagnose(&q));
            assert_eq!(
                diag.diagnose_with(&LinearScan, &q),
                reference.diagnose_with(&LinearScan, &q)
            );
            assert_eq!(
                diag.diagnose_topk(&LinearScan, &q, 1),
                reference.diagnose_topk(&LinearScan, &q, 1)
            );
        }
        let TrajectoryStorage::Packed(packed) = &diag.trajectory_set().storage else {
            panic!("the diagnoser keeps the packed storage");
        };
        assert!(
            packed.materialized.get().is_none(),
            "diagnosis built an owned copy of the packed trajectories"
        );
    }
}
