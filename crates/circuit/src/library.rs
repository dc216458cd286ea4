//! Benchmark circuit library.
//!
//! Circuits used by the experiments, each packaged as a [`Benchmark`]
//! (netlist + input source + output probe + fault set + search band).
//!
//! The paper's CUT (a "normalized biquad negative feedback low-pass
//! filter" with seven passive components, per the FFM reference) is the
//! Tow-Thomas two-integrator loop of [`tow_thomas_normalized`]. The
//! physical netlist carries eight passives (the inverter needs two
//! resistors), but the inverter pair enters the transfer function only
//! through the ratio `R6/R5`, so faults on `R5` and `R6` are inherently
//! indistinguishable from the response: the circuit has exactly **seven**
//! independently diagnosable passive parameters — `R1, R2, R3, R4, R5,
//! C1, C2` — which is the fault set the benchmark exposes.

use serde::{Deserialize, Serialize};

use crate::analysis::ac::Probe;
use crate::error::Result;
use crate::netlist::Circuit;

/// A circuit packaged for the diagnosis experiments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Benchmark {
    /// The netlist.
    pub circuit: Circuit,
    /// Name of the independent source that is the test input.
    pub input: String,
    /// Observation point.
    pub probe: Probe,
    /// Components whose faults the experiments diagnose.
    pub fault_set: Vec<String>,
    /// Human-readable description.
    pub description: String,
    /// Suggested test-frequency search band `(ω_min, ω_max)` in rad/s.
    pub search_band: (f64, f64),
}

/// Parameters of a Tow-Thomas biquad.
///
/// Transfer function to the low-pass output (`lp` node):
///
/// ```text
///                (1/(R1·C1·R4·C2))
/// H(s) = ───────────────────────────────────,  k = R6/R5
///         s² + s/(R2·C1) + k/(R3·R4·C1·C2)
/// ```
///
/// giving `ω₀ = √(k/(R3·R4·C1·C2))`, `Q = R2·C1·ω₀`, and DC gain
/// `R3·R5/(R1·R6)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TowThomasParams {
    /// Input resistor (Ω).
    pub r1: f64,
    /// Damping resistor setting Q (Ω).
    pub r2: f64,
    /// Loop-feedback resistor (Ω).
    pub r3: f64,
    /// Second-integrator input resistor (Ω).
    pub r4: f64,
    /// Inverter input resistor (Ω).
    pub r5: f64,
    /// Inverter feedback resistor (Ω).
    pub r6: f64,
    /// First-integrator capacitor (F).
    pub c1: f64,
    /// Second-integrator capacitor (F).
    pub c2: f64,
}

impl TowThomasParams {
    /// Normalized design: ω₀ = 1 rad/s, DC gain 1, the given `q`.
    pub fn normalized(q: f64) -> Self {
        TowThomasParams {
            r1: 1.0,
            r2: q,
            r3: 1.0,
            r4: 1.0,
            r5: 1.0,
            r6: 1.0,
            c1: 1.0,
            c2: 1.0,
        }
    }
}

impl Default for TowThomasParams {
    fn default() -> Self {
        TowThomasParams::normalized(1.0)
    }
}

/// Builds a Tow-Thomas biquad with ideal op amps.
///
/// Nodes: `in` (input), `bp` (band-pass output, U1), `lp` (low-pass
/// output, U2), `inv` (inverter output, U3).
///
/// # Errors
///
/// Propagates builder errors for out-of-range parameter values.
pub fn tow_thomas(params: &TowThomasParams) -> Result<Circuit> {
    let mut ckt = Circuit::new("tow-thomas-biquad");
    ckt.voltage_source("V1", "in", "0", 1.0)?;
    // U1: summing lossy integrator (virtual ground n1).
    ckt.resistor("R1", "in", "n1", params.r1)?;
    ckt.resistor("R2", "bp", "n1", params.r2)?;
    ckt.capacitor("C1", "bp", "n1", params.c1)?;
    ckt.resistor("R3", "inv", "n1", params.r3)?;
    ckt.ideal_opamp("U1", "0", "n1", "bp")?;
    // U2: inverting integrator.
    ckt.resistor("R4", "bp", "n2", params.r4)?;
    ckt.capacitor("C2", "lp", "n2", params.c2)?;
    ckt.ideal_opamp("U2", "0", "n2", "lp")?;
    // U3: unity inverter closing the loop.
    ckt.resistor("R5", "lp", "n3", params.r5)?;
    ckt.resistor("R6", "inv", "n3", params.r6)?;
    ckt.ideal_opamp("U3", "0", "n3", "inv")?;
    Ok(ckt)
}

/// The paper's CUT: normalized Tow-Thomas low-pass (ω₀ = 1 rad/s) with
/// the seven-component fault set.
///
/// # Errors
///
/// Never fails for the normalized parameters; the `Result` mirrors the
/// builder API.
pub fn tow_thomas_normalized(q: f64) -> Result<Benchmark> {
    let params = TowThomasParams::normalized(q);
    let circuit = tow_thomas(&params)?;
    Ok(Benchmark {
        circuit,
        input: "V1".into(),
        probe: Probe::node("lp"),
        fault_set: ["R1", "R2", "R3", "R4", "R5", "C1", "C2"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        description: format!(
            "Normalized Tow-Thomas negative-feedback biquad low-pass, \
             ω₀ = 1 rad/s, Q = {q}; seven independently diagnosable passives \
             (R6 is the matched inverter partner of R5)"
        ),
        search_band: (0.01, 100.0),
    })
}

/// Unity-gain Sallen-Key low-pass.
///
/// `H(s) = 1 / (s²·R1·R2·C1·C2 + s·C2·(R1+R2) + 1)` — note the unity-gain
/// topology has `C1` as the positive-feedback capacitor.
///
/// # Errors
///
/// Propagates builder errors for out-of-range parameter values.
pub fn sallen_key_lowpass(r1: f64, r2: f64, c1: f64, c2: f64) -> Result<Benchmark> {
    let mut ckt = Circuit::new("sallen-key-lowpass");
    ckt.voltage_source("V1", "in", "0", 1.0)?;
    ckt.resistor("R1", "in", "a", r1)?;
    ckt.resistor("R2", "a", "b", r2)?;
    ckt.capacitor("C1", "a", "out", c1)?;
    ckt.capacitor("C2", "b", "0", c2)?;
    // Voltage follower: in+ = b, in− = out.
    ckt.ideal_opamp("U1", "b", "out", "out")?;
    Ok(Benchmark {
        circuit: ckt,
        input: "V1".into(),
        probe: Probe::node("out"),
        fault_set: ["R1", "R2", "C1", "C2"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        description: "Unity-gain Sallen-Key second-order low-pass".into(),
        search_band: (0.01, 100.0),
    })
}

/// Normalized unity-gain Sallen-Key Butterworth low-pass (ω₀ = 1 rad/s,
/// Q = 1/√2): R1 = R2 = 1 Ω, C1 = √2 F, C2 = 1/√2 F.
///
/// # Errors
///
/// Never fails for the normalized parameters.
pub fn sallen_key_normalized() -> Result<Benchmark> {
    sallen_key_lowpass(
        1.0,
        1.0,
        std::f64::consts::SQRT_2,
        1.0 / std::f64::consts::SQRT_2,
    )
}

/// Multiple-feedback (infinite-gain negative-feedback) low-pass.
///
/// `H(s) = −(1/(R1·R3·C1·C2)) / (s² + s·(1/C1)(1/R1 + 1/R2 + 1/R3) +
/// 1/(R2·R3·C1·C2))`, DC gain `−R2/R1`.
///
/// # Errors
///
/// Propagates builder errors for out-of-range parameter values.
pub fn mfb_lowpass(r1: f64, r2: f64, r3: f64, c1: f64, c2: f64) -> Result<Benchmark> {
    let mut ckt = Circuit::new("mfb-lowpass");
    ckt.voltage_source("V1", "in", "0", 1.0)?;
    ckt.resistor("R1", "in", "a", r1)?;
    ckt.capacitor("C1", "a", "0", c1)?;
    ckt.resistor("R2", "a", "out", r2)?;
    ckt.resistor("R3", "a", "b", r3)?;
    ckt.capacitor("C2", "b", "out", c2)?;
    ckt.ideal_opamp("U1", "0", "b", "out")?;
    Ok(Benchmark {
        circuit: ckt,
        input: "V1".into(),
        probe: Probe::node("out"),
        fault_set: ["R1", "R2", "R3", "C1", "C2"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        description: "Multiple-feedback (infinite-gain) second-order low-pass".into(),
        search_band: (0.01, 100.0),
    })
}

/// Normalized MFB low-pass with ω₀ = 1 rad/s, Q = 1, DC gain −1:
/// R1 = R2 = R3 = 1 Ω, C1 = 3 F, C2 = 1/3 F.
///
/// # Errors
///
/// Never fails for the normalized parameters.
pub fn mfb_normalized() -> Result<Benchmark> {
    mfb_lowpass(1.0, 1.0, 1.0, 3.0, 1.0 / 3.0)
}

/// Kerwin–Huelsman–Newcomb (KHN) state-variable filter; the benchmark
/// probes the low-pass output.
///
/// Uses the canonical topology: summer (R1 input, R2 loop feedback to the
/// inverting input, RF summer feedback; RQ1/RQ2 divider into the
/// non-inverting input from the band-pass output) followed by two
/// inverting integrators (R5·C1, R6·C2).
///
/// # Errors
///
/// Propagates builder errors for out-of-range parameter values.
pub fn khn_state_variable(q: f64) -> Result<Benchmark> {
    let mut ckt = Circuit::new("khn-state-variable");
    ckt.voltage_source("V1", "in", "0", 1.0)?;
    // Summer U1 — inverting side.
    ckt.resistor("R1", "in", "ns", 1.0)?;
    ckt.resistor("R2", "lp", "ns", 1.0)?;
    ckt.resistor("RF", "hp", "ns", 1.0)?;
    // Non-inverting side: BP through the Q divider.
    let rq2 = 2.0 * q - 1.0;
    ckt.resistor("RQ1", "bp", "ps", 1.0)?;
    ckt.resistor("RQ2", "ps", "0", rq2.max(1e-6))?;
    ckt.ideal_opamp("U1", "ps", "ns", "hp")?;
    // Integrators.
    ckt.resistor("R5", "hp", "n2", 1.0)?;
    ckt.capacitor("C1", "bp", "n2", 1.0)?;
    ckt.ideal_opamp("U2", "0", "n2", "bp")?;
    ckt.resistor("R6", "bp", "n3", 1.0)?;
    ckt.capacitor("C2", "lp", "n3", 1.0)?;
    ckt.ideal_opamp("U3", "0", "n3", "lp")?;
    Ok(Benchmark {
        circuit: ckt,
        input: "V1".into(),
        probe: Probe::node("lp"),
        fault_set: ["R1", "R2", "RF", "RQ1", "RQ2", "R5", "R6", "C1", "C2"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        description: format!("KHN state-variable filter, normalized, Q = {q}"),
        search_band: (0.01, 100.0),
    })
}

/// Doubly-terminated passive LC-ladder Butterworth low-pass of the given
/// order (ω₀ = 1 rad/s, 1 Ω terminations) — the all-passive benchmark.
///
/// # Errors
///
/// Propagates builder errors.
///
/// # Panics
///
/// Panics if `order` is zero or greater than 9.
pub fn rlc_ladder_lowpass(order: usize) -> Result<Benchmark> {
    assert!((1..=9).contains(&order), "supported ladder orders: 1–9");
    let mut ckt = Circuit::new("rlc-ladder-lowpass");
    ckt.voltage_source("V1", "in", "0", 1.0)?;
    ckt.resistor("RS", "in", "n1", 1.0)?;
    let mut fault_set = vec!["RS".to_string()];
    // Butterworth g-values: g_k = 2·sin((2k−1)π/2n).
    let mut prev = "n1".to_string();
    for k in 1..=order {
        let g = 2.0 * ((2.0 * k as f64 - 1.0) * std::f64::consts::PI / (2.0 * order as f64)).sin();
        if k % 2 == 1 {
            // Shunt capacitor at the current node.
            let name = format!("C{k}");
            ckt.capacitor(&name, &prev, "0", g)?;
            fault_set.push(name);
        } else {
            // Series inductor to the next node.
            let next = format!("n{}", k / 2 + 1);
            let name = format!("L{k}");
            ckt.inductor(&name, &prev, &next, g)?;
            fault_set.push(name);
            prev = next;
        }
    }
    ckt.resistor("RL", &prev, "0", 1.0)?;
    fault_set.push("RL".to_string());
    let probe = Probe::node(&prev);
    Ok(Benchmark {
        circuit: ckt,
        input: "V1".into(),
        probe,
        fault_set,
        description: format!("Doubly-terminated Butterworth LC ladder, order {order}"),
        search_band: (0.01, 100.0),
    })
}

/// Twin-T notch filter (normalized: notch at ω = 1 rad/s with R = 1 Ω,
/// C = 1 F), buffered by a follower.
///
/// # Errors
///
/// Propagates builder errors.
pub fn twin_t_notch() -> Result<Benchmark> {
    let mut ckt = Circuit::new("twin-t-notch");
    ckt.voltage_source("V1", "in", "0", 1.0)?;
    // T1: series resistors with centre cap to ground.
    ckt.resistor("R1", "in", "t1", 1.0)?;
    ckt.resistor("R2", "t1", "out", 1.0)?;
    ckt.capacitor("C3", "t1", "0", 2.0)?;
    // T2: series caps with centre resistor to ground.
    ckt.capacitor("C1", "in", "t2", 1.0)?;
    ckt.capacitor("C2", "t2", "out", 1.0)?;
    ckt.resistor("R3", "t2", "0", 0.5)?;
    // Buffer so the notch node is observable without loading.
    ckt.resistor("RL", "out", "0", 1e9)?;
    Ok(Benchmark {
        circuit: ckt,
        input: "V1".into(),
        probe: Probe::node("out"),
        fault_set: ["R1", "R2", "R3", "C1", "C2", "C3"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        description: "Passive twin-T notch, normalized to ω₀ = 1 rad/s".into(),
        search_band: (0.01, 100.0),
    })
}

/// Every benchmark in the library at its normalized design point, for
/// cross-circuit experiments.
///
/// # Errors
///
/// Propagates builder errors (none occur for the stock parameters).
pub fn all_benchmarks() -> Result<Vec<Benchmark>> {
    Ok(vec![
        tow_thomas_normalized(1.0)?,
        sallen_key_normalized()?,
        mfb_normalized()?,
        khn_state_variable(1.0)?,
        rlc_ladder_lowpass(5)?,
        twin_t_notch()?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::ac::{sweep, transfer};
    use ft_numerics::FrequencyGrid;

    #[test]
    fn tow_thomas_matches_analytic_descriptors() {
        let params = TowThomasParams::normalized(1.0);
        let ckt = tow_thomas(&params).unwrap();
        let probe = Probe::node("lp");
        // ω₀ = √(R6/(R5·R3·R4·C1·C2)), Q = R2·C1·ω₀, |H(0)| = R3·R5/(R1·R6).
        let w0 = (params.r6 / params.r5 / (params.r3 * params.r4 * params.c1 * params.c2)).sqrt();
        let q = params.r2 * params.c1 * w0;
        let dc_gain = params.r3 * params.r5 / (params.r1 * params.r6);
        // DC gain.
        let dc = transfer(&ckt, "V1", &probe, 1e-6).unwrap();
        assert!((dc.abs() - dc_gain).abs() < 1e-6, "dc {}", dc.abs());
        // At ω₀ the low-pass magnitude equals Q·|H(0)|.
        let at_w0 = transfer(&ckt, "V1", &probe, w0).unwrap();
        assert!(
            (at_w0.abs() - q * dc_gain).abs() < 1e-9,
            "at w0: {}",
            at_w0.abs()
        );
        // Two decades above: −40 dB/decade → ≈ −80 dB relative.
        let hf = transfer(&ckt, "V1", &probe, 100.0).unwrap();
        assert!((hf.abs_db() - (-80.0)).abs() < 0.1, "hf {}", hf.abs_db());
    }

    #[test]
    fn tow_thomas_q_parameter() {
        for &q in &[0.6, 1.0, 3.0] {
            let params = TowThomasParams::normalized(q);
            let ckt = tow_thomas(&params).unwrap();
            let at_w0 = transfer(&ckt, "V1", &Probe::node("lp"), 1.0).unwrap();
            assert!((at_w0.abs() - q).abs() < 1e-9);
        }
    }

    #[test]
    fn tow_thomas_bandpass_output() {
        let ckt = tow_thomas(&TowThomasParams::normalized(2.0)).unwrap();
        let bp = Probe::node("bp");
        // Band-pass: response at ω₀ beats responses a decade either side.
        let lo = transfer(&ckt, "V1", &bp, 0.1).unwrap().abs();
        let mid = transfer(&ckt, "V1", &bp, 1.0).unwrap().abs();
        let hi = transfer(&ckt, "V1", &bp, 10.0).unwrap().abs();
        assert!(mid > 3.0 * lo);
        assert!(mid > 3.0 * hi);
    }

    #[test]
    fn tow_thomas_r5_r6_enter_as_ratio_only() {
        // Scaling R5 and R6 together leaves the response unchanged —
        // the formal justification for the seven-component fault set.
        let probe = Probe::node("lp");
        let base = tow_thomas(&TowThomasParams::normalized(1.0)).unwrap();
        let mut scaled_params = TowThomasParams::normalized(1.0);
        scaled_params.r5 *= 3.7;
        scaled_params.r6 *= 3.7;
        let scaled = tow_thomas(&scaled_params).unwrap();
        for &w in &[0.05, 0.5, 1.0, 5.0, 50.0] {
            let a = transfer(&base, "V1", &probe, w).unwrap();
            let b = transfer(&scaled, "V1", &probe, w).unwrap();
            assert!((a - b).abs() < 1e-9, "mismatch at {w}");
        }
    }

    #[test]
    fn tow_thomas_structural_ambiguity_pairs() {
        // The LP transfer function depends on R3 and R5 only through the
        // product R3·R5, and on R4 and C2 only through R4·C2: deviating
        // one while compensating the other leaves the response identical.
        // These pairs are therefore inherent ambiguity groups of any
        // single-output diagnosis of this CUT — a floor on the paper's
        // intersection count I documented in DESIGN.md.
        let probe = Probe::node("lp");
        let base = tow_thomas(&TowThomasParams::normalized(1.0)).unwrap();
        for (inc, dec) in [("R3", "R5"), ("R4", "C2")] {
            let mut faulty = base.clone();
            faulty.set_value(inc, 1.3).unwrap();
            faulty.set_value(dec, 1.0 / 1.3).unwrap();
            for &w in &[0.05, 0.5, 1.0, 5.0, 50.0] {
                let a = transfer(&base, "V1", &probe, w).unwrap();
                let b = transfer(&faulty, "V1", &probe, w).unwrap();
                assert!(
                    (a - b).abs() < 1e-9,
                    "({inc},{dec}) compensation broke at ω = {w}"
                );
            }
        }
    }

    #[test]
    fn paper_cut_packaging() {
        let bench = tow_thomas_normalized(1.0).unwrap();
        assert_eq!(bench.fault_set.len(), 7);
        assert_eq!(bench.input, "V1");
        assert!(bench.description.contains("Tow-Thomas"));
        assert_eq!(bench.circuit.name(), "tow-thomas-biquad");
        bench.circuit.validate().unwrap();
    }

    #[test]
    fn sallen_key_butterworth_response() {
        let bench = sallen_key_normalized().unwrap();
        // Butterworth: |H(j1)| = 1/√2, flat DC, −40 dB/dec.
        let dc = transfer(&bench.circuit, "V1", &bench.probe, 1e-5).unwrap();
        assert!((dc.abs() - 1.0).abs() < 1e-6);
        let corner = transfer(&bench.circuit, "V1", &bench.probe, 1.0).unwrap();
        assert!((corner.abs() - 1.0 / 2f64.sqrt()).abs() < 1e-9);
        let hf = transfer(&bench.circuit, "V1", &bench.probe, 100.0).unwrap();
        assert!((hf.abs_db() + 80.0).abs() < 0.1);
    }

    #[test]
    fn mfb_descriptors() {
        let bench = mfb_normalized().unwrap();
        let dc = transfer(&bench.circuit, "V1", &bench.probe, 1e-6).unwrap();
        assert!((dc.abs() - 1.0).abs() < 1e-6); // |−R2/R1| = 1
        let at_w0 = transfer(&bench.circuit, "V1", &bench.probe, 1.0).unwrap();
        // Q = 1 → |H(jω₀)| = Q·|H(0)| = 1.
        assert!((at_w0.abs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn khn_lowpass_shape() {
        let bench = khn_state_variable(1.0).unwrap();
        bench.circuit.validate().unwrap();
        let dc = transfer(&bench.circuit, "V1", &bench.probe, 1e-5).unwrap();
        let hf = transfer(&bench.circuit, "V1", &bench.probe, 100.0).unwrap();
        assert!(dc.abs() > 0.5, "KHN LP output should pass DC: {}", dc.abs());
        assert!(
            hf.abs() < dc.abs() / 100.0,
            "KHN LP should roll off: {} vs {}",
            hf.abs(),
            dc.abs()
        );
    }

    #[test]
    fn ladder_butterworth_cutoff() {
        for order in [2, 3, 5] {
            let bench = rlc_ladder_lowpass(order).unwrap();
            bench.circuit.validate().unwrap();
            let sw = sweep(
                &bench.circuit,
                "V1",
                &bench.probe,
                &FrequencyGrid::log_space(0.01, 100.0, 41),
            )
            .unwrap();
            let mags: Vec<f64> = sw.values().iter().map(|v| v.abs()).collect();
            // Doubly-terminated: DC gain = 1/2.
            assert!((mags[0] - 0.5).abs() < 1e-3, "order {order}: {}", mags[0]);
            // −3 dB (relative) at ω = 1.
            let at_1 = transfer(&bench.circuit, "V1", &bench.probe, 1.0).unwrap();
            let rel_db = 20.0 * (at_1.abs() / 0.5).log10();
            assert!(
                (rel_db + 3.0103).abs() < 0.05,
                "order {order}: rel dB {rel_db}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "ladder orders")]
    fn ladder_order_range_checked() {
        let _ = rlc_ladder_lowpass(0);
    }

    #[test]
    fn twin_t_notches_at_unity() {
        let bench = twin_t_notch().unwrap();
        let at_notch = transfer(&bench.circuit, "V1", &bench.probe, 1.0).unwrap();
        assert!(at_notch.abs() < 1e-9, "notch depth {}", at_notch.abs());
        let dc = transfer(&bench.circuit, "V1", &bench.probe, 1e-4).unwrap();
        assert!((dc.abs() - 1.0).abs() < 1e-3);
        let hf = transfer(&bench.circuit, "V1", &bench.probe, 1e4).unwrap();
        assert!((hf.abs() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn all_benchmarks_valid() {
        let benches = all_benchmarks().unwrap();
        assert_eq!(benches.len(), 6);
        for b in &benches {
            b.circuit.validate().unwrap();
            assert!(!b.fault_set.is_empty());
            // Every fault-set member exists and is faultable.
            for name in &b.fault_set {
                assert!(
                    b.circuit.value(name).unwrap().is_some(),
                    "{}: {name} not faultable",
                    b.circuit.name()
                );
            }
            // The probe is readable.
            let h = transfer(&b.circuit, &b.input, &b.probe, 1.0).unwrap();
            assert!(h.is_finite());
        }
    }
}
