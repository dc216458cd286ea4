//! Multiple simultaneous parametric faults.
//!
//! The paper's diagnosis assumes "just one circuit's component is faulty
//! at a time"; this module provides the machinery to *break* that
//! assumption on purpose: inject two (or more) concurrent deviations and
//! measure how the single-fault trajectory model degrades (experiment
//! T-J).
//!
//! [`MultiFaultDictionary`] scales that experiment up: a fault dictionary
//! over an order-k multi-fault universe (all pairs of a
//! [`FaultUniverse`], or sampled k-tuples), built on the engine's
//! Woodbury rank-k batch sweep
//! ([`AcSweepEngine::sweep_multifaults_into`]) with one engine per
//! worker — one factorization per grid point, one solve per distinct
//! component, one k×k dense solve per multi-fault.
//! [`MultiFault::apply`] (clone + reassemble) stays as the oracle via
//! [`MultiFaultDictionary::build_reference`].

use std::fmt;

use ft_circuit::{AcSweepEngine, Circuit, CircuitError, ComponentId, MnaLayout, Probe};
use ft_numerics::{decibel, Complex64, FrequencyGrid};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::model::ParametricFault;
use crate::universe::FaultUniverse;

/// A set of simultaneous parametric faults on distinct components.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiFault {
    faults: Vec<ParametricFault>,
}

impl MultiFault {
    /// Creates a multi-fault.
    ///
    /// # Panics
    ///
    /// Panics if `faults` is empty or two faults target the same
    /// component.
    pub fn new(faults: Vec<ParametricFault>) -> Self {
        assert!(!faults.is_empty(), "multi-fault needs at least one fault");
        for i in 0..faults.len() {
            for j in (i + 1)..faults.len() {
                assert_ne!(
                    faults[i].component(),
                    faults[j].component(),
                    "duplicate component in multi-fault"
                );
            }
        }
        MultiFault { faults }
    }

    /// Convenience constructor for a double fault.
    pub(crate) fn double(a: ParametricFault, b: ParametricFault) -> Self {
        MultiFault::new(vec![a, b])
    }

    /// The constituent faults.
    #[inline]
    pub fn faults(&self) -> &[ParametricFault] {
        &self.faults
    }

    /// The faulted component names.
    pub fn components(&self) -> Vec<&str> {
        self.faults.iter().map(ParametricFault::component).collect()
    }

    /// Applies every constituent fault to a clone of `circuit`.
    ///
    /// # Errors
    ///
    /// Propagates injection errors.
    pub fn apply(&self, circuit: &Circuit) -> Result<Circuit, CircuitError> {
        let mut faulty = circuit.clone();
        for f in &self.faults {
            f.apply_in_place(&mut faulty)?;
        }
        Ok(faulty)
    }
}

impl fmt::Display for MultiFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, fault) in self.faults.iter().enumerate() {
            if i > 0 {
                write!(f, " & ")?;
            }
            write!(f, "{fault}")?;
        }
        Ok(())
    }
}

/// Draws a random double fault from a universe: two distinct components,
/// off-grid deviations of magnitude ≥ `min_abs_pct`.
pub fn sample_double<R: Rng + ?Sized>(
    universe: &FaultUniverse,
    rng: &mut R,
    min_abs_pct: f64,
) -> MultiFault {
    sample_tuple(universe, rng, 2, min_abs_pct)
}

/// Draws a random order-`order` multi-fault: distinct components,
/// off-grid deviations of magnitude ≥ `min_abs_pct` — the unknown
/// multi-faults of the Monte Carlo experiments (generalises
/// [`sample_double`]).
///
/// # Panics
///
/// Panics when `order` is zero or exceeds the universe's component
/// count.
pub fn sample_tuple<R: Rng + ?Sized>(
    universe: &FaultUniverse,
    rng: &mut R,
    order: usize,
    min_abs_pct: f64,
) -> MultiFault {
    assert!(
        (1..=universe.components().len()).contains(&order),
        "multi-fault order must be in 1..=component count"
    );
    let mut faults: Vec<ParametricFault> = Vec::with_capacity(order);
    while faults.len() < order {
        let f = universe.sample_unknown(rng, min_abs_pct);
        if faults.iter().all(|g| g.component() != f.component()) {
            faults.push(f);
        }
    }
    MultiFault::new(faults)
}

/// Enumerates every unordered pair of universe faults on *distinct*
/// components — the exhaustive order-2 multi-fault universe of a CUT
/// (`n·(n−1)/2 · d²` pairs for `n` components × `d` grid deviations),
/// in a deterministic order (universe enumeration order, first fault
/// major).
pub fn all_pairs(universe: &FaultUniverse) -> Vec<MultiFault> {
    let faults = universe.faults();
    let mut out = Vec::new();
    for i in 0..faults.len() {
        for j in (i + 1)..faults.len() {
            if faults[i].component() != faults[j].component() {
                out.push(MultiFault::double(faults[i].clone(), faults[j].clone()));
            }
        }
    }
    out
}

/// Draws `count` random order-`order` multi-faults with *on-grid*
/// deviations — the sampled k-tuple universe for dictionaries where the
/// full enumeration would explode combinatorially. Deterministic in
/// `seed` (the same arguments always enumerate the same tuples).
///
/// # Panics
///
/// As [`sample_tuple`].
pub fn sampled_tuples(
    universe: &FaultUniverse,
    order: usize,
    count: usize,
    seed: u64,
) -> Vec<MultiFault> {
    assert!(
        (1..=universe.components().len()).contains(&order),
        "multi-fault order must be in 1..=component count"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let faults = universe.faults();
    (0..count)
        .map(|_| {
            let mut tuple: Vec<ParametricFault> = Vec::with_capacity(order);
            while tuple.len() < order {
                let f = &faults[rng.gen_range(0..faults.len())];
                if tuple.iter().all(|g| g.component() != f.component()) {
                    tuple.push(f.clone());
                }
            }
            MultiFault::new(tuple)
        })
        .collect()
}

/// One multi-fault dictionary item: a [`MultiFault`] and its sampled
/// magnitude response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiFaultEntry {
    fault: MultiFault,
    magnitude_db: Vec<f64>,
}

impl MultiFaultEntry {
    /// Assembles an entry from its parts.
    pub fn new(fault: MultiFault, magnitude_db: Vec<f64>) -> Self {
        MultiFaultEntry {
            fault,
            magnitude_db,
        }
    }

    /// The multi-fault this entry describes.
    #[inline]
    pub fn fault(&self) -> &MultiFault {
        &self.fault
    }

    /// Magnitude response in dB on the dictionary grid.
    #[inline]
    pub fn magnitude_db(&self) -> &[f64] {
        &self.magnitude_db
    }
}

/// A fault dictionary over simultaneous (order-k) deviations — the
/// multi-fault sibling of [`crate::FaultDictionary`].
///
/// Construction parallelises across multi-faults with std scoped
/// threads; each worker owns one [`AcSweepEngine`] and drives its
/// Woodbury rank-k batch sweep, so per grid point the nominal system is
/// factored once, each distinct component costs one extra solve, and
/// each multi-fault one k×k dense complex solve. Entries are
/// byte-identical regardless of worker count or chunking.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiFaultDictionary {
    grid: FrequencyGrid,
    golden_db: Vec<f64>,
    entries: Vec<MultiFaultEntry>,
    input: String,
    probe: Probe,
}

impl MultiFaultDictionary {
    /// Builds the dictionary by pricing every multi-fault on `grid`, in
    /// parallel across `available_parallelism` workers.
    ///
    /// # Errors
    ///
    /// Propagates the first simulation error; a singular *deviated*
    /// system surfaces as [`CircuitError::SingularFault`] with the
    /// multi-fault's index into `multifaults` — healthy entries are
    /// never blamed, matching [`MultiFaultDictionary::build_reference`]'s
    /// failing entry.
    pub fn build(
        circuit: &Circuit,
        multifaults: &[MultiFault],
        input: &str,
        probe: &Probe,
        grid: &FrequencyGrid,
    ) -> Result<Self, CircuitError> {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::build_with_workers(circuit, multifaults, input, probe, grid, workers)
    }

    /// [`MultiFaultDictionary::build`] with an explicit worker count —
    /// results are exactly equal (f64-for-f64) for every count, which
    /// the determinism tests and the CI `cmp` smoke pin down.
    ///
    /// # Errors
    ///
    /// As [`MultiFaultDictionary::build`].
    pub fn build_with_workers(
        circuit: &Circuit,
        multifaults: &[MultiFault],
        input: &str,
        probe: &Probe,
        grid: &FrequencyGrid,
        workers: usize,
    ) -> Result<Self, CircuitError> {
        let layout = MnaLayout::new(circuit)?;
        let golden_db = AcSweepEngine::with_layout(circuit, &layout, input, probe)?
            .sweep(grid)?
            .magnitude_db();

        // Resolve every deviation to (component id, faulty value) up
        // front: name-index lookups stay off the workers, and universe
        // errors surface before any thread spawns.
        let targets: Vec<Vec<(ComponentId, f64)>> = multifaults
            .iter()
            .map(|mf| {
                mf.faults()
                    .iter()
                    .map(|fault| fault.resolve(circuit))
                    .collect::<Result<_, CircuitError>>()
            })
            .collect::<Result<_, CircuitError>>()?;

        let entries =
            crate::dictionary::parallel_chunks(multifaults.len(), workers, |start, len| {
                let mut engine = AcSweepEngine::with_layout(circuit, &layout, input, probe)?;
                let mut golden: Vec<Complex64> = Vec::new();
                let mut responses: Vec<Complex64> = Vec::new();
                engine.sweep_multifaults_into(
                    grid.frequencies(),
                    &targets[start..start + len],
                    &mut golden,
                    &mut responses,
                )?;
                let n = grid.len();
                Ok(multifaults[start..start + len]
                    .iter()
                    .enumerate()
                    .map(|(fi, mf)| MultiFaultEntry {
                        fault: mf.clone(),
                        magnitude_db: responses[fi * n..(fi + 1) * n]
                            .iter()
                            .map(|v| decibel::clamp_db(v.abs_db(), -300.0))
                            .collect(),
                    })
                    .collect())
            })?;

        Ok(MultiFaultDictionary {
            grid: grid.clone(),
            golden_db,
            entries,
            input: input.to_string(),
            probe: probe.clone(),
        })
    }

    /// Builds the exhaustive pair dictionary of a single-fault universe:
    /// [`all_pairs`] fed through [`MultiFaultDictionary::build`].
    ///
    /// # Errors
    ///
    /// As [`MultiFaultDictionary::build`].
    pub fn build_pairs(
        circuit: &Circuit,
        universe: &FaultUniverse,
        input: &str,
        probe: &Probe,
        grid: &FrequencyGrid,
    ) -> Result<Self, CircuitError> {
        Self::build(circuit, &all_pairs(universe), input, probe, grid)
    }

    /// [`MultiFaultDictionary::build`] on the reference path: every
    /// multi-fault is [`MultiFault::apply`]'d to a clone of the circuit
    /// and swept with [`ft_circuit::sweep_reference`] (assemble + fresh
    /// LU per frequency). Slow — the oracle the Woodbury path is
    /// property-tested and benchmarked against.
    ///
    /// # Errors
    ///
    /// As [`MultiFaultDictionary::build`] (a singular deviated circuit
    /// surfaces as [`CircuitError::Singular`] from the failing entry).
    pub fn build_reference(
        circuit: &Circuit,
        multifaults: &[MultiFault],
        input: &str,
        probe: &Probe,
        grid: &FrequencyGrid,
    ) -> Result<Self, CircuitError> {
        let golden_db = ft_circuit::sweep_reference(circuit, input, probe, grid)?.magnitude_db();
        let mut entries = Vec::with_capacity(multifaults.len());
        for mf in multifaults {
            let faulty = mf.apply(circuit)?;
            let response = ft_circuit::sweep_reference(&faulty, input, probe, grid)?;
            entries.push(MultiFaultEntry {
                fault: mf.clone(),
                magnitude_db: response.magnitude_db(),
            });
        }
        Ok(MultiFaultDictionary {
            grid: grid.clone(),
            golden_db,
            entries,
            input: input.to_string(),
            probe: probe.clone(),
        })
    }

    /// Reassembles a dictionary from persisted parts without
    /// re-simulating anything — the deserialisation counterpart of the
    /// public accessors, used by the `ft-serve` bank codec's multi-fault
    /// section.
    ///
    /// # Panics
    ///
    /// Panics when the parts are mutually inconsistent: the golden
    /// response and every entry's response must match the grid length.
    /// (Per-entry fault validity — non-empty, distinct components — is
    /// enforced by [`MultiFault::new`] when the entries were built.)
    pub fn from_parts(
        grid: FrequencyGrid,
        golden_db: Vec<f64>,
        entries: Vec<MultiFaultEntry>,
        input: String,
        probe: Probe,
    ) -> Self {
        assert_eq!(
            golden_db.len(),
            grid.len(),
            "golden response length must match the grid"
        );
        for entry in &entries {
            assert_eq!(
                entry.magnitude_db.len(),
                grid.len(),
                "entry response length must match the grid"
            );
        }
        MultiFaultDictionary {
            grid,
            golden_db,
            entries,
            input,
            probe,
        }
    }

    /// The dictionary's frequency grid.
    #[inline]
    pub fn grid(&self) -> &FrequencyGrid {
        &self.grid
    }

    /// Golden magnitude response (dB) on the grid.
    #[inline]
    pub fn golden_db(&self) -> &[f64] {
        &self.golden_db
    }

    /// All entries, in the order the multi-faults were given.
    #[inline]
    pub fn entries(&self) -> &[MultiFaultEntry] {
        &self.entries
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the dictionary holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The test input source name.
    #[inline]
    pub fn input(&self) -> &str {
        &self.input
    }

    /// The observation probe.
    #[inline]
    pub fn probe(&self) -> &Probe {
        &self.probe
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::DeviationGrid;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rc() -> Circuit {
        let mut ckt = Circuit::new("rc");
        ckt.voltage_source("V1", "in", "0", 1.0).unwrap();
        ckt.resistor("R1", "in", "out", 1e3).unwrap();
        ckt.capacitor("C1", "out", "0", 1e-6).unwrap();
        ckt
    }

    #[test]
    fn construction_and_accessors() {
        let mf = MultiFault::double(
            ParametricFault::from_percent("R1", 20.0),
            ParametricFault::from_percent("C1", -30.0),
        );
        assert_eq!(mf.faults().len(), 2);
        assert_eq!(mf.components(), vec!["R1", "C1"]);
        assert_eq!(mf.to_string(), "R1+20% & C1-30%");
    }

    #[test]
    #[should_panic(expected = "duplicate component")]
    fn duplicate_component_rejected() {
        let _ = MultiFault::double(
            ParametricFault::from_percent("R1", 20.0),
            ParametricFault::from_percent("R1", -20.0),
        );
    }

    #[test]
    #[should_panic(expected = "at least one fault")]
    fn empty_rejected() {
        let _ = MultiFault::new(vec![]);
    }

    #[test]
    fn apply_compounds_both_faults() {
        let ckt = rc();
        let mf = MultiFault::double(
            ParametricFault::from_percent("R1", 20.0),
            ParametricFault::from_percent("C1", -30.0),
        );
        let faulty = mf.apply(&ckt).unwrap();
        assert!((faulty.value("R1").unwrap().unwrap() - 1.2e3).abs() < 1e-9);
        assert!((faulty.value("C1").unwrap().unwrap() - 0.7e-6).abs() < 1e-15);
        // Original untouched.
        assert_eq!(ckt.value("R1").unwrap(), Some(1e3));
    }

    #[test]
    fn sample_double_distinct_components() {
        let u = FaultUniverse::new(&["R1", "C1", "R2"], DeviationGrid::paper());
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let mf = sample_double(&u, &mut rng, 10.0);
            assert_eq!(mf.faults().len(), 2);
            assert_ne!(mf.faults()[0].component(), mf.faults()[1].component());
            for f in mf.faults() {
                assert!(f.percent().abs() >= 10.0);
            }
        }
    }

    #[test]
    fn sample_tuple_order_and_distinctness() {
        let u = FaultUniverse::new(&["R1", "C1", "R2", "C2"], DeviationGrid::paper());
        let mut rng = StdRng::seed_from_u64(11);
        for order in 1..=4 {
            let mf = sample_tuple(&u, &mut rng, order, 5.0);
            assert_eq!(mf.faults().len(), order);
            let mut comps = mf.components();
            comps.sort_unstable();
            comps.dedup();
            assert_eq!(comps.len(), order);
        }
    }

    #[test]
    #[should_panic(expected = "order must be")]
    fn sample_tuple_rejects_oversized_order() {
        let u = FaultUniverse::new(&["R1", "C1"], DeviationGrid::paper());
        let mut rng = StdRng::seed_from_u64(0);
        let _ = sample_tuple(&u, &mut rng, 3, 5.0);
    }

    #[test]
    fn all_pairs_enumeration() {
        let u = FaultUniverse::new(&["R1", "C1"], DeviationGrid::paper());
        let pairs = all_pairs(&u);
        // 8 R1 deviations × 8 C1 deviations; never two on one component.
        assert_eq!(pairs.len(), 64);
        for p in &pairs {
            assert_eq!(p.faults().len(), 2);
            assert_ne!(p.faults()[0].component(), p.faults()[1].component());
        }
        // Deterministic order: first-fault major, universe order.
        assert_eq!(pairs[0].to_string(), "R1-40% & C1-40%");
        assert_eq!(pairs[63].to_string(), "R1+40% & C1+40%");
    }

    #[test]
    fn sampled_tuples_are_deterministic_and_on_grid() {
        let u = FaultUniverse::new(&["R1", "C1", "R2"], DeviationGrid::paper());
        let a = sampled_tuples(&u, 3, 20, 7);
        let b = sampled_tuples(&u, 3, 20, 7);
        assert_eq!(a, b);
        let c = sampled_tuples(&u, 3, 20, 8);
        assert_ne!(a, c, "different seeds should draw different tuples");
        for mf in &a {
            assert_eq!(mf.faults().len(), 3);
            for f in mf.faults() {
                assert!(u.faults().contains(f), "{f} is off-grid");
            }
        }
    }

    #[test]
    fn pair_dictionary_matches_apply_oracle() {
        let ckt = rc();
        let universe = FaultUniverse::new(&["R1", "C1"], DeviationGrid::new(40.0, 20.0));
        let grid = FrequencyGrid::log_space(1.0, 1e6, 13);
        let probe = Probe::node("out");
        let pairs = all_pairs(&universe);
        assert_eq!(pairs.len(), 16);
        let fast = MultiFaultDictionary::build_pairs(&ckt, &universe, "V1", &probe, &grid).unwrap();
        let oracle =
            MultiFaultDictionary::build_reference(&ckt, &pairs, "V1", &probe, &grid).unwrap();
        assert_eq!(fast.len(), oracle.len());
        assert_eq!(fast.grid(), oracle.grid());
        for (a, b) in fast.entries().iter().zip(oracle.entries()) {
            assert_eq!(a.fault(), b.fault());
            for (x, y) in a.magnitude_db().iter().zip(b.magnitude_db()) {
                assert!((x - y).abs() < 1e-9, "{}: {x} vs {y} dB", a.fault());
            }
        }
        for (x, y) in fast.golden_db().iter().zip(oracle.golden_db()) {
            assert!((x - y).abs() < 1e-9, "golden {x} vs {y} dB");
        }
    }

    #[test]
    fn dictionary_accessors() {
        let ckt = rc();
        let universe = FaultUniverse::new(&["R1", "C1"], DeviationGrid::new(40.0, 40.0));
        let grid = FrequencyGrid::log_space(1.0, 1e3, 5);
        let dict =
            MultiFaultDictionary::build_pairs(&ckt, &universe, "V1", &Probe::node("out"), &grid)
                .unwrap();
        assert_eq!(dict.len(), 4);
        assert!(!dict.is_empty());
        assert_eq!(dict.input(), "V1");
    }

    #[test]
    fn from_parts_round_trips_the_accessors() {
        let ckt = rc();
        let universe = FaultUniverse::new(&["R1", "C1"], DeviationGrid::new(40.0, 40.0));
        let grid = FrequencyGrid::log_space(1.0, 1e3, 5);
        let dict =
            MultiFaultDictionary::build_pairs(&ckt, &universe, "V1", &Probe::node("out"), &grid)
                .unwrap();
        let back = MultiFaultDictionary::from_parts(
            dict.grid().clone(),
            dict.golden_db().to_vec(),
            dict.entries().to_vec(),
            dict.input().to_string(),
            dict.probe().clone(),
        );
        assert_eq!(dict, back);
    }

    #[test]
    #[should_panic(expected = "golden response length")]
    fn from_parts_rejects_mismatched_golden() {
        let grid = FrequencyGrid::log_space(1.0, 1e3, 5);
        let _ = MultiFaultDictionary::from_parts(
            grid,
            vec![0.0; 3],
            Vec::new(),
            "V1".into(),
            Probe::node("out"),
        );
    }

    #[test]
    fn dictionary_build_rejects_unknown_component() {
        let ckt = rc();
        let mf = MultiFault::double(
            ParametricFault::from_percent("R1", 20.0),
            ParametricFault::from_percent("R9", 20.0),
        );
        let grid = FrequencyGrid::log_space(1.0, 1e3, 5);
        assert!(matches!(
            MultiFaultDictionary::build(&ckt, &[mf], "V1", &Probe::node("out"), &grid).unwrap_err(),
            CircuitError::UnknownComponent(_)
        ));
    }
}
