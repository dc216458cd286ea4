//! Multi-probe observation — the natural extension of the paper.
//!
//! A single output pins diagnosability to the output's transfer
//! function: the CUT's `{R3,R5}` and `{R4,C2}` products are provably
//! indistinguishable from the low-pass node alone. Observing a second
//! node (e.g. the band-pass output, which most biquads expose anyway)
//! stacks another block of coordinates onto every signature, splitting
//! classes the single probe cannot. The trajectory geometry, fitness,
//! and diagnosis already operate in arbitrary dimension, so the
//! extension is purely a data-path concern handled here.
//!
//! The whole data path is engine-backed: [`ProbeBank::build`] shares one
//! MNA layout across the per-probe dictionary builds (each of which
//! drives one [`AcSweepEngine`] per worker through the rank-1 batch
//! sweep), and [`ProbeBank::measure`] sweeps one engine per probe instead
//! of re-assembling the system at every test frequency.

use ft_circuit::{AcSweepEngine, Circuit, CircuitError, MnaLayout, Probe};
use ft_faults::{FaultDictionary, FaultUniverse};
use ft_numerics::{Complex64, FrequencyGrid};
use serde::{Deserialize, Serialize};

use crate::signature::{signature_from_db, Signature, TestVector, DB_FLOOR};
use crate::trajectory::{trajectories_from_dictionary, FaultTrajectory, TrajectorySet};

/// One fault dictionary per observation probe, all sharing a circuit,
/// input, universe, and grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProbeBank {
    input: String,
    probes: Vec<Probe>,
    dicts: Vec<FaultDictionary>,
}

impl ProbeBank {
    /// Builds one dictionary per probe, sharing a single MNA layout: the
    /// netlist is walked once, and every per-probe build drives one
    /// [`AcSweepEngine`] per worker through the rank-1 batch fault sweep
    /// — no circuit clones and no per-frequency reassembly anywhere in
    /// the bank build.
    ///
    /// # Errors
    ///
    /// Propagates dictionary-construction errors (unknown probe node,
    /// singular faulty circuit).
    ///
    /// # Panics
    ///
    /// Panics if `probes` is empty.
    pub fn build(
        circuit: &Circuit,
        universe: &FaultUniverse,
        input: &str,
        probes: &[Probe],
        grid: &FrequencyGrid,
    ) -> Result<Self, CircuitError> {
        assert!(!probes.is_empty(), "need at least one probe");
        let layout = MnaLayout::new(circuit)?;
        let dicts = probes
            .iter()
            .map(|p| FaultDictionary::build_with_layout(circuit, &layout, universe, input, p, grid))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ProbeBank {
            input: input.to_string(),
            probes: probes.to_vec(),
            dicts,
        })
    }

    /// Number of observation channels.
    #[inline]
    pub(crate) fn channels(&self) -> usize {
        self.probes.len()
    }

    /// Builds the stacked trajectory set at `tv` by interpolating each
    /// probe's dictionary: each trajectory point concatenates the
    /// golden-relative dB coordinates of every probe (probe-major,
    /// frequency-minor).
    ///
    /// # Panics
    ///
    /// Panics when the per-probe dictionaries are misaligned (different
    /// component order or deviation grids) — impossible for a bank built
    /// by [`ProbeBank::build`], where every dictionary enumerates one
    /// shared universe, but checked for real in release builds too: a
    /// misaligned stack would silently corrupt every stacked signature.
    pub fn trajectories(&self, tv: &TestVector) -> TrajectorySet {
        let per_probe: Vec<TrajectorySet> = self
            .dicts
            .iter()
            .map(|d| trajectories_from_dictionary(d, tv))
            .collect();
        stack_aligned(per_probe, tv, self.channels())
    }

    /// Measures the stacked signature of `circuit` against `golden` at
    /// the test frequencies: one [`AcSweepEngine`] sweep per probe per
    /// circuit, instead of re-assembling and re-factoring the MNA system
    /// at every frequency.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn measure(
        &self,
        circuit: &Circuit,
        golden: &Circuit,
        tv: &TestVector,
    ) -> Result<Signature, CircuitError> {
        // One netlist walk per circuit, shared across every probe's
        // engine — not one per (circuit, probe) pair.
        let measured_layout = MnaLayout::new(circuit)?;
        let golden_layout = MnaLayout::new(golden)?;
        let mut coords = Vec::with_capacity(tv.len() * self.channels());
        let mut samples: Vec<Complex64> = Vec::with_capacity(tv.len());
        let sweep_db = |ckt: &Circuit,
                        layout: &MnaLayout,
                        probe: &Probe,
                        samples: &mut Vec<Complex64>|
         -> Result<Vec<f64>, CircuitError> {
            let mut engine = AcSweepEngine::with_layout(ckt, layout, &self.input, probe)?;
            engine.sweep_into(tv.omegas(), samples)?;
            Ok(samples
                .iter()
                .map(|v| ft_numerics::decibel::clamp_db(v.abs_db(), DB_FLOOR))
                .collect())
        };
        for probe in &self.probes {
            let m_db = sweep_db(circuit, &measured_layout, probe, &mut samples)?;
            let g_db = sweep_db(golden, &golden_layout, probe, &mut samples)?;
            coords.extend_from_slice(signature_from_db(&m_db, &g_db).coords());
        }
        Ok(Signature::new(coords))
    }
}

/// Stacks per-probe trajectory sets into one multi-probe set,
/// asserting (for real, release builds included) that every probe's
/// set enumerates the same components and deviations in the same order.
fn stack_aligned(per_probe: Vec<TrajectorySet>, tv: &TestVector, channels: usize) -> TrajectorySet {
    let first = &per_probe[0];
    let mut stacked = Vec::with_capacity(first.len());
    for (idx, t0) in first.views().enumerate() {
        let devs = t0.deviations_pct();
        let mut points: Vec<Vec<f64>> = vec![Vec::with_capacity(tv.len() * channels); devs.len()];
        for set in &per_probe {
            let t = set.view(idx);
            assert_eq!(
                t.component(),
                t0.component(),
                "per-probe trajectory stacks disagree on component order"
            );
            assert_eq!(
                t.deviations_pct(),
                devs,
                "per-probe trajectory stacks disagree on deviations"
            );
            for (k, p) in t.points().enumerate() {
                points[k].extend_from_slice(p);
            }
        }
        stacked.push(FaultTrajectory::new(
            t0.component(),
            devs.to_vec(),
            points.into_iter().map(Signature::new).collect(),
        ));
    }
    TrajectorySet::new(tv.clone(), stacked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ambiguity::ambiguity_groups;
    use crate::diagnosis::{Diagnoser, DiagnoserConfig};
    use crate::fitness::GeometryOptions;
    use crate::geometry::{norm, norm_diff};
    use ft_circuit::tow_thomas_normalized;
    use ft_faults::{DeviationGrid, ParametricFault};

    fn bank() -> (ft_circuit::Benchmark, FaultUniverse, ProbeBank) {
        let bench = tow_thomas_normalized(1.0).unwrap();
        let universe = FaultUniverse::new(&bench.fault_set, DeviationGrid::paper());
        let grid = FrequencyGrid::log_space(0.01, 100.0, 41);
        let probes = vec![Probe::node("lp"), Probe::node("bp"), Probe::node("inv")];
        let bank =
            ProbeBank::build(&bench.circuit, &universe, &bench.input, &probes, &grid).unwrap();
        (bench, universe, bank)
    }

    #[test]
    fn bank_builds_per_probe_dictionaries() {
        let (_, universe, bank) = bank();
        assert_eq!(bank.channels(), 3);
        assert_eq!(bank.dicts.len(), 3);
        for d in &bank.dicts {
            assert_eq!(d.entries().len(), universe.len());
        }
        assert_eq!(bank.input, "V1");
    }

    #[test]
    fn stacked_trajectories_have_stacked_dimension() {
        let (_, _, bank) = bank();
        let tv = TestVector::pair(0.6, 1.6);
        let set = bank.trajectories(&tv);
        assert_eq!(set.dim(), 6); // 2 freqs × 3 probes
        assert_eq!(set.channels(), 3);
        assert_eq!(set.len(), 7);
        // Origin still the origin.
        for t in set.views() {
            let origin = t.deviations_pct().iter().position(|d| *d == 0.0).unwrap();
            assert!(norm(t.point(origin)) < 1e-12);
        }
    }

    #[test]
    fn first_block_matches_single_probe() {
        let (bench, universe, bank) = bank();
        let tv = TestVector::pair(0.6, 1.6);
        let stacked = bank.trajectories(&tv);
        let single = trajectories_from_dictionary(
            &FaultDictionary::build(
                &bench.circuit,
                &universe,
                &bench.input,
                &Probe::node("lp"),
                &FrequencyGrid::log_space(0.01, 100.0, 41),
            )
            .unwrap(),
            &tv,
        );
        for (s, t) in stacked.views().zip(single.views()) {
            for (ps, pt) in s.points().zip(t.points()) {
                assert!((ps[0] - pt[0]).abs() < 1e-12);
                assert!((ps[1] - pt[1]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn multi_probe_splits_r3_r5() {
        // The headline: with the inverter output observed, R5 separates
        // from R3 (only their product reaches the LP node, but R5 also
        // scales the inverter gain directly).
        let (_, _, bank) = bank();
        let tv = TestVector::pair(0.6, 1.6);
        let set = bank.trajectories(&tv);
        let groups = ambiguity_groups(&set, 1e-6, &GeometryOptions::default());
        let r3_group = groups.group_of("R3").unwrap();
        assert!(
            !r3_group.contains(&"R5".to_string()),
            "multi-probe should split R3/R5: {:?}",
            groups.groups()
        );
    }

    #[test]
    fn multi_probe_diagnoses_r5_correctly() {
        let (bench, _, bank) = bank();
        let tv = TestVector::pair(0.6, 1.6);
        let set = bank.trajectories(&tv);
        let diagnoser = Diagnoser::new(set, DiagnoserConfig::default());

        let fault = ParametricFault::from_percent("R5", 25.0);
        let faulty = fault.apply(&bench.circuit).unwrap();
        let sig = bank.measure(&faulty, &bench.circuit, &tv).unwrap();
        assert_eq!(sig.dim(), 6);
        let verdict = diagnoser.diagnose(&sig);
        assert_eq!(
            verdict.best().component,
            "R5",
            "single-probe cannot do this: {:?}",
            verdict.candidates()
        );
        assert!((verdict.best().deviation_pct - 25.0).abs() < 5.0);
    }

    #[test]
    fn exact_stacked_trajectories_agree_with_interpolated_on_grid_frequencies() {
        let (bench, universe, bank) = bank();
        // Test frequencies on exact grid points: interpolation error
        // vanishes, so each probe's block of the stack must match that
        // probe's engine-swept trajectories.
        let grid_freqs: Vec<f64> = bank.dicts[0].grid().frequencies().to_vec();
        let tv = TestVector::pair(grid_freqs[10], grid_freqs[30]);
        let interp = bank.trajectories(&tv);
        assert_eq!(interp.dim(), 6);
        for (k, probe) in bank.probes.iter().enumerate() {
            let exact = crate::trajectory::trajectories_exact(
                &bench.circuit,
                universe.faults(),
                universe.components(),
                &bank.input,
                probe,
                &tv,
            )
            .unwrap();
            for (a, b) in interp.views().zip(exact.views()) {
                assert_eq!(a.component(), b.component());
                for (pa, pb) in a.points().zip(b.points()) {
                    let block = &pa[2 * k..2 * k + 2];
                    assert!(
                        norm_diff(block, pb) < 1e-9,
                        "{} probe {k}: {block:?} vs {pb:?}",
                        a.component()
                    );
                }
            }
        }
    }

    #[test]
    fn measure_matches_reference_simulation() {
        let (bench, _, bank) = bank();
        let tv = TestVector::pair(0.6, 1.6);
        let fault = ParametricFault::from_percent("C1", -30.0);
        let faulty = fault.apply(&bench.circuit).unwrap();
        let sig = bank.measure(&faulty, &bench.circuit, &tv).unwrap();
        // The pre-engine construction: assemble + solve per frequency.
        let mut coords = Vec::new();
        for probe in &bank.probes {
            let db = |ckt: &ft_circuit::Circuit| -> Vec<f64> {
                ft_circuit::sample_at(ckt, &bank.input, probe, tv.omegas())
                    .unwrap()
                    .iter()
                    .map(|v| ft_numerics::decibel::clamp_db(v.abs_db(), DB_FLOOR))
                    .collect()
            };
            coords.extend_from_slice(signature_from_db(&db(&faulty), &db(&bench.circuit)).coords());
        }
        for (a, b) in sig.coords().iter().zip(&coords) {
            assert!((a - b).abs() < 1e-9, "engine {a} vs reference {b}");
        }
    }

    #[test]
    fn golden_measures_as_origin() {
        let (bench, _, bank) = bank();
        let tv = TestVector::pair(0.6, 1.6);
        let sig = bank.measure(&bench.circuit, &bench.circuit, &tv).unwrap();
        assert!(sig.norm() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one probe")]
    fn empty_probe_list_rejected() {
        let bench = tow_thomas_normalized(1.0).unwrap();
        let universe = FaultUniverse::new(&bench.fault_set, DeviationGrid::paper());
        let _ = ProbeBank::build(
            &bench.circuit,
            &universe,
            "V1",
            &[],
            &FrequencyGrid::log_space(0.01, 100.0, 11),
        );
    }
}
