//! Fault dictionary construction — the paper's fault-simulation (FS)
//! process.
//!
//! For every fault in a [`FaultUniverse`], the faulty circuit's magnitude
//! response (dB) is computed on a frequency grid and stored together with
//! the golden response. Construction parallelises across faults with std
//! scoped threads. Each worker owns one
//! [`AcSweepEngine`] and drives its rank-1
//! batch fault sweep: per grid point the nominal system is factored
//! once, each distinct component costs one extra solve, and every
//! deviation of it is answered in O(1) by a Sherman–Morrison update —
//! with per-fault results independent of how faults are chunked across
//! workers, so rebuilt dictionaries are byte-identical.
//! [`FaultDictionary::build_reference`] keeps the clone-and-reassemble
//! path as the verification oracle.

use ft_circuit::{AcSweepEngine, Circuit, CircuitError, ComponentId, MnaLayout, Probe};
use ft_numerics::interp::PiecewiseLinear;
use ft_numerics::{decibel, Complex64, FrequencyGrid};
use serde::{Deserialize, Serialize};

use crate::model::ParametricFault;
use crate::universe::FaultUniverse;

/// One dictionary item: a fault and its sampled magnitude response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DictionaryEntry {
    fault: ParametricFault,
    magnitude_db: Vec<f64>,
}

impl DictionaryEntry {
    /// Assembles an entry from its parts — the deserialisation
    /// counterpart of [`DictionaryEntry::fault`] /
    /// [`DictionaryEntry::magnitude_db`], used by the `ft-serve` bank
    /// codec.
    pub fn new(fault: ParametricFault, magnitude_db: Vec<f64>) -> Self {
        DictionaryEntry {
            fault,
            magnitude_db,
        }
    }

    /// The fault this entry describes.
    #[inline]
    pub fn fault(&self) -> &ParametricFault {
        &self.fault
    }

    /// Magnitude response in dB on the dictionary grid.
    #[inline]
    pub fn magnitude_db(&self) -> &[f64] {
        &self.magnitude_db
    }
}

/// A complete fault dictionary for one circuit / input / probe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultDictionary {
    grid: FrequencyGrid,
    golden_db: Vec<f64>,
    entries: Vec<DictionaryEntry>,
    universe: FaultUniverse,
    input: String,
    probe: Probe,
}

impl FaultDictionary {
    /// Builds the dictionary by simulating the golden circuit and every
    /// fault in `universe` on `grid`, in parallel.
    ///
    /// Each worker thread drives one AC sweep engine through the rank-1
    /// batch fault sweep ([`AcSweepEngine::sweep_faults_into`]): one
    /// factorization per grid point, one solve per distinct component,
    /// O(1) per deviation. Entry values are independent of the worker
    /// count and chunking.
    ///
    /// # Errors
    ///
    /// Propagates the first simulation error (unknown component in the
    /// universe, singular faulty circuit, bad probe). A singular
    /// *deviated* circuit surfaces as [`CircuitError::SingularFault`]
    /// with the fault's index into [`FaultUniverse::faults`] — always a
    /// genuinely singular entry (and with a single sick deviation, the
    /// same entry the reference path fails at); healthy entries are
    /// never blamed for a sick one.
    pub fn build(
        circuit: &Circuit,
        universe: &FaultUniverse,
        input: &str,
        probe: &Probe,
        grid: &FrequencyGrid,
    ) -> Result<Self, CircuitError> {
        let layout = MnaLayout::new(circuit)?;
        Self::build_with_layout(circuit, &layout, universe, input, probe, grid)
    }

    /// [`FaultDictionary::build`] with a pre-built MNA layout, shared
    /// across dictionaries of the same circuit — e.g. one layout for a
    /// whole multi-probe bank, with one engine per probe per worker.
    ///
    /// # Errors
    ///
    /// As [`FaultDictionary::build`].
    pub fn build_with_layout(
        circuit: &Circuit,
        layout: &MnaLayout,
        universe: &FaultUniverse,
        input: &str,
        probe: &Probe,
        grid: &FrequencyGrid,
    ) -> Result<Self, CircuitError> {
        let golden_db = AcSweepEngine::with_layout(circuit, layout, input, probe)?
            .sweep(grid)?
            .magnitude_db();

        let faults = universe.faults();
        // Resolve every fault to its component id and faulty value once,
        // up front — workers then never touch the name indices, and
        // universe errors surface before any thread spawns.
        let targets: Vec<(ComponentId, f64)> = faults
            .iter()
            .map(|fault| fault.resolve(circuit))
            .collect::<Result<_, CircuitError>>()?;

        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let entries = parallel_chunks(faults.len(), workers, |start, len| {
            let mut engine = AcSweepEngine::with_layout(circuit, layout, input, probe)?;
            let mut golden: Vec<Complex64> = Vec::new();
            let mut responses: Vec<Complex64> = Vec::new();
            engine.sweep_faults_into(
                grid.frequencies(),
                &targets[start..start + len],
                &mut golden,
                &mut responses,
            )?;
            let n = grid.len();
            Ok(faults[start..start + len]
                .iter()
                .enumerate()
                .map(|(fi, fault)| DictionaryEntry {
                    fault: fault.clone(),
                    magnitude_db: responses[fi * n..(fi + 1) * n]
                        .iter()
                        .map(|v| decibel::clamp_db(v.abs_db(), -300.0))
                        .collect(),
                })
                .collect())
        })?;

        Ok(FaultDictionary {
            grid: grid.clone(),
            golden_db,
            entries,
            universe: universe.clone(),
            input: input.to_string(),
            probe: probe.clone(),
        })
    }

    /// [`FaultDictionary::build`] on the reference simulation path: every
    /// fault is applied to a clone of the circuit and swept with
    /// [`ft_circuit::sweep_reference`] (assemble + fresh LU per
    /// frequency). Slow, but free of engine stamp bookkeeping — the
    /// oracle the engine path is benchmarked and property-tested against.
    ///
    /// # Errors
    ///
    /// As [`FaultDictionary::build`].
    pub fn build_reference(
        circuit: &Circuit,
        universe: &FaultUniverse,
        input: &str,
        probe: &Probe,
        grid: &FrequencyGrid,
    ) -> Result<Self, CircuitError> {
        let golden_db = ft_circuit::sweep_reference(circuit, input, probe, grid)?.magnitude_db();
        let mut entries = Vec::with_capacity(universe.len());
        for fault in universe.faults() {
            let faulty = fault.apply(circuit)?;
            let response = ft_circuit::sweep_reference(&faulty, input, probe, grid)?;
            entries.push(DictionaryEntry {
                fault: fault.clone(),
                magnitude_db: response.magnitude_db(),
            });
        }
        Ok(FaultDictionary {
            grid: grid.clone(),
            golden_db,
            entries,
            universe: universe.clone(),
            input: input.to_string(),
            probe: probe.clone(),
        })
    }

    /// Reassembles a dictionary from persisted parts without
    /// re-simulating anything — the deserialisation counterpart of the
    /// public accessors, used by the `ft-serve` bank codec.
    ///
    /// # Panics
    ///
    /// Panics when the parts are mutually inconsistent: golden/entry
    /// response lengths must match the grid, and the entries must mirror
    /// the universe's fault enumeration one-to-one, in order.
    pub fn from_parts(
        grid: FrequencyGrid,
        golden_db: Vec<f64>,
        entries: Vec<DictionaryEntry>,
        universe: FaultUniverse,
        input: String,
        probe: Probe,
    ) -> Self {
        assert_eq!(
            golden_db.len(),
            grid.len(),
            "golden response length must match the grid"
        );
        assert_eq!(
            entries.len(),
            universe.len(),
            "entry count must match the universe"
        );
        for (entry, fault) in entries.iter().zip(universe.faults()) {
            assert_eq!(
                &entry.fault, fault,
                "entries must mirror the universe's fault order"
            );
            assert_eq!(
                entry.magnitude_db.len(),
                grid.len(),
                "entry response length must match the grid"
            );
        }
        FaultDictionary {
            grid,
            golden_db,
            entries,
            universe,
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

    /// All entries, ordered as the universe enumerates faults.
    #[inline]
    pub fn entries(&self) -> &[DictionaryEntry] {
        &self.entries
    }

    /// The fault universe the dictionary covers.
    #[inline]
    pub fn universe(&self) -> &FaultUniverse {
        &self.universe
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

    /// Entries describing faults of one component, ordered by deviation.
    pub fn entries_of(&self, component: &str) -> Vec<&DictionaryEntry> {
        self.entries
            .iter()
            .filter(|e| e.fault.component() == component)
            .collect()
    }

    /// Interpolates the golden response (dB) at angular frequency `omega`
    /// (log-frequency linear interpolation, Bode-style).
    pub fn golden_db_at(&self, omega: f64) -> f64 {
        interp_log(&self.grid, &self.golden_db, omega)
    }

    /// Interpolates entry `index`'s response (dB) at `omega`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn entry_db_at(&self, index: usize, omega: f64) -> f64 {
        interp_log(&self.grid, &self.entries[index].magnitude_db, omega)
    }

    /// Interpolated responses of every entry at a set of frequencies:
    /// `result[i][j]` = entry `i` at `omegas[j]`. The golden response is
    /// returned alongside.
    pub fn sample_all(&self, omegas: &[f64]) -> (Vec<f64>, Vec<Vec<f64>>) {
        let golden = omegas.iter().map(|&w| self.golden_db_at(w)).collect();
        let per_entry = self
            .entries
            .iter()
            .map(|e| {
                omegas
                    .iter()
                    .map(|&w| interp_log(&self.grid, &e.magnitude_db, w))
                    .collect()
            })
            .collect();
        (golden, per_entry)
    }
}

/// Runs `run(start, len)` over contiguous chunks of `0..total` on std
/// scoped threads (at most `workers` of them) and concatenates the
/// per-chunk entries in order — the shared build loop of
/// [`FaultDictionary`] and [`crate::MultiFaultDictionary`].
///
/// A chunk-local [`CircuitError::SingularFault`] index is re-based by
/// its chunk's `start`, so the error names the caller's entry no matter
/// how the batch was chunked; results are independent of `workers`.
pub(crate) fn parallel_chunks<E, F>(
    total: usize,
    workers: usize,
    run: F,
) -> Result<Vec<E>, CircuitError>
where
    E: Send,
    F: Fn(usize, usize) -> Result<Vec<E>, CircuitError> + Sync,
{
    let workers = workers.max(1).min(total.max(1));
    let chunk = total.div_ceil(workers).max(1);
    let results: Vec<(usize, Result<Vec<E>, CircuitError>)> = std::thread::scope(|scope| {
        let run = &run;
        let mut handles = Vec::new();
        let mut start = 0;
        while start < total {
            let len = chunk.min(total - start);
            handles.push((start, scope.spawn(move || run(start, len))));
            start += len;
        }
        handles
            .into_iter()
            .map(|(s, h)| (s, h.join().expect("fault-sim worker panicked")))
            .collect()
    });
    let mut entries = Vec::with_capacity(total);
    for (start, r) in results {
        match r {
            Ok(chunk_entries) => entries.extend(chunk_entries),
            Err(CircuitError::SingularFault { fault, omega }) => {
                return Err(CircuitError::SingularFault {
                    fault: fault + start,
                    omega,
                })
            }
            Err(e) => return Err(e),
        }
    }
    Ok(entries)
}

fn interp_log(grid: &FrequencyGrid, ys: &[f64], omega: f64) -> f64 {
    debug_assert_eq!(grid.len(), ys.len());
    let log_xs: Vec<f64> = grid.frequencies().iter().map(|w| w.log10()).collect();
    let pl = PiecewiseLinear::new(log_xs, ys.to_vec()).expect("grid is a valid knot set");
    pl.eval(omega.log10())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::DeviationGrid;
    use ft_circuit::sweep;

    fn rc() -> Circuit {
        let mut ckt = Circuit::new("rc");
        ckt.voltage_source("V1", "in", "0", 1.0).unwrap();
        ckt.resistor("R1", "in", "out", 1e3).unwrap();
        ckt.capacitor("C1", "out", "0", 1e-6).unwrap();
        ckt
    }

    fn build_rc_dictionary() -> FaultDictionary {
        let ckt = rc();
        let universe = FaultUniverse::new(&["R1", "C1"], DeviationGrid::paper());
        let grid = FrequencyGrid::log_space(1.0, 1e6, 25);
        FaultDictionary::build(&ckt, &universe, "V1", &Probe::node("out"), &grid).unwrap()
    }

    #[test]
    fn builds_all_entries() {
        let dict = build_rc_dictionary();
        assert_eq!(dict.entries().len(), 16);
        assert_eq!(dict.golden_db().len(), 25);
        assert_eq!(dict.entries_of("R1").len(), 8);
        assert_eq!(dict.input(), "V1");
        // Entry order matches the universe.
        for (e, f) in dict.entries().iter().zip(dict.universe().faults()) {
            assert_eq!(e.fault(), f);
        }
    }

    #[test]
    fn from_parts_reassembles_identically() {
        let dict = build_rc_dictionary();
        let back = FaultDictionary::from_parts(
            dict.grid().clone(),
            dict.golden_db().to_vec(),
            dict.entries().to_vec(),
            dict.universe().clone(),
            dict.input().to_string(),
            dict.probe().clone(),
        );
        assert_eq!(dict, back);
    }

    #[test]
    #[should_panic(expected = "fault order")]
    fn from_parts_rejects_shuffled_entries() {
        let dict = build_rc_dictionary();
        let mut entries = dict.entries().to_vec();
        entries.reverse();
        let _ = FaultDictionary::from_parts(
            dict.grid().clone(),
            dict.golden_db().to_vec(),
            entries,
            dict.universe().clone(),
            dict.input().to_string(),
            dict.probe().clone(),
        );
    }

    #[test]
    fn engine_build_agrees_with_reference_build() {
        let ckt = rc();
        let universe = FaultUniverse::new(&["R1", "C1"], DeviationGrid::paper());
        let grid = FrequencyGrid::log_space(1.0, 1e6, 25);
        let probe = Probe::node("out");
        let fast = FaultDictionary::build(&ckt, &universe, "V1", &probe, &grid).unwrap();
        let oracle =
            FaultDictionary::build_reference(&ckt, &universe, "V1", &probe, &grid).unwrap();
        assert_eq!(fast.entries().len(), oracle.entries().len());
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
    fn golden_matches_direct_sweep() {
        let dict = build_rc_dictionary();
        let direct = sweep(
            &rc(),
            "V1",
            &Probe::node("out"),
            &FrequencyGrid::log_space(1.0, 1e6, 25),
        )
        .unwrap()
        .magnitude_db();
        assert_eq!(dict.golden_db(), &direct[..]);
    }

    #[test]
    fn faulty_entries_differ_from_golden() {
        let dict = build_rc_dictionary();
        for e in dict.entries() {
            let max_delta = e
                .magnitude_db()
                .iter()
                .zip(dict.golden_db())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(
                max_delta > 0.1,
                "{} indistinguishable from golden",
                e.fault()
            );
        }
    }

    #[test]
    fn interpolation_exact_on_grid_points() {
        let dict = build_rc_dictionary();
        let w = dict.grid().frequencies()[7];
        assert!((dict.golden_db_at(w) - dict.golden_db()[7]).abs() < 1e-9);
        assert!((dict.entry_db_at(3, w) - dict.entries()[3].magnitude_db()[7]).abs() < 1e-9);
    }

    #[test]
    fn interpolation_between_points_is_sane() {
        let dict = build_rc_dictionary();
        // At the corner (1000 rad/s) the golden response is −3.01 dB;
        // log-interp on 25 points/6 decades is within a couple tenths.
        let v = dict.golden_db_at(1000.0);
        assert!((v + 3.01).abs() < 0.3, "interp {v}");
    }

    #[test]
    fn sample_all_shapes() {
        let dict = build_rc_dictionary();
        let (golden, per_entry) = dict.sample_all(&[10.0, 1e3, 1e5]);
        assert_eq!(golden.len(), 3);
        assert_eq!(per_entry.len(), 16);
        assert!(per_entry.iter().all(|r| r.len() == 3));
        // High frequency: −40% R1 (faster corner... actually higher
        // corner) attenuates less than golden.
        let idx_minus40 = dict
            .universe()
            .faults()
            .iter()
            .position(|f| f.component() == "R1" && f.percent() == -40.0)
            .unwrap();
        assert!(per_entry[idx_minus40][2] > golden[2]);
    }

    /// VCVS positive-feedback stage, singular exactly at gain 3 (node x
    /// sees `(3 − K)·v_x = v_in`): with K nominal 2.5, the universe's
    /// +20% deviation of E1 is ill-posed while every other entry is
    /// healthy.
    fn feedback_circuit() -> Circuit {
        let mut ckt = Circuit::new("feedback");
        ckt.voltage_source("V1", "in", "0", 1.0).unwrap();
        ckt.resistor("R1", "in", "x", 1.0).unwrap();
        ckt.resistor("R2", "x", "0", 1.0).unwrap();
        ckt.vcvs("E1", "y", "0", "x", "0", 2.5).unwrap();
        ckt.resistor("R3", "y", "x", 1.0).unwrap();
        ckt
    }

    #[test]
    fn singular_deviation_fails_like_the_reference_with_attribution() {
        let ckt = feedback_circuit();
        let universe = FaultUniverse::new(&["R1", "E1"], DeviationGrid::paper());
        let grid = FrequencyGrid::log_space(0.1, 10.0, 5);
        let probe = Probe::node("x");

        // Both paths refuse the universe containing the sick entry…
        let reference = FaultDictionary::build_reference(&ckt, &universe, "V1", &probe, &grid);
        assert!(matches!(
            reference.unwrap_err(),
            CircuitError::Singular { .. }
        ));
        let sick_idx = universe
            .faults()
            .iter()
            .position(|f| f.component() == "E1" && f.percent() == 20.0)
            .unwrap();
        // …but the engine path names the offending universe entry and
        // frequency instead of a fabricated `Singular { column: 0 }`.
        match FaultDictionary::build(&ckt, &universe, "V1", &probe, &grid).unwrap_err() {
            CircuitError::SingularFault { fault, omega } => {
                assert_eq!(fault, sick_idx);
                assert!(grid.frequencies().contains(&omega));
            }
            other => panic!("expected SingularFault, got {other:?}"),
        }

        // Without the sick deviation the same circuit builds fine on
        // both paths and they agree.
        let healthy = FaultUniverse::new(&["R1", "E1"], DeviationGrid::new(40.0, 40.0));
        let fast = FaultDictionary::build(&ckt, &healthy, "V1", &probe, &grid).unwrap();
        let oracle = FaultDictionary::build_reference(&ckt, &healthy, "V1", &probe, &grid).unwrap();
        for (a, b) in fast.entries().iter().zip(oracle.entries()) {
            for (x, y) in a.magnitude_db().iter().zip(b.magnitude_db()) {
                assert!((x - y).abs() < 1e-9, "{}: {x} vs {y} dB", a.fault());
            }
        }
    }

    #[test]
    fn build_with_layout_matches_build() {
        let ckt = rc();
        let universe = FaultUniverse::new(&["R1", "C1"], DeviationGrid::paper());
        let grid = FrequencyGrid::log_space(1.0, 1e6, 11);
        let probe = Probe::node("out");
        let layout = MnaLayout::new(&ckt).unwrap();
        let a = FaultDictionary::build_with_layout(&ckt, &layout, &universe, "V1", &probe, &grid)
            .unwrap();
        let b = FaultDictionary::build(&ckt, &universe, "V1", &probe, &grid).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_component_in_universe_errors() {
        let ckt = rc();
        let universe = FaultUniverse::new(&["R9"], DeviationGrid::paper());
        let grid = FrequencyGrid::log_space(1.0, 1e3, 5);
        assert!(FaultDictionary::build(&ckt, &universe, "V1", &Probe::node("out"), &grid).is_err());
    }
}
