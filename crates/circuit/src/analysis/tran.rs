//! Transient analysis with trapezoidal integration.
//!
//! Reactive elements are replaced by their trapezoidal companion models
//! (Norton form for capacitors, branch form for inductors). With a fixed
//! timestep the conductance matrix is constant, so it is LU-factored once
//! and only the right-hand side is rebuilt per step — the standard fast
//! path for linear circuits.
//!
//! This is the workspace's *measurement path*: the multi-tone test
//! stimulus of the fault-trajectory method can be applied in the time
//! domain and the per-frequency response recovered with
//! [`ft_numerics::dsp::goertzel`], exactly as a bench instrument would.

use ft_numerics::{Lu, RMatrix};

use crate::element::Element;
use crate::error::{CircuitError, Result};
use crate::mna::MnaLayout;
use crate::netlist::{Circuit, ComponentId, NodeId};

/// Transient run configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientOptions {
    /// Total simulated time in seconds.
    pub t_stop: f64,
    /// Fixed timestep in seconds; every step is recorded.
    pub dt: f64,
}

impl TransientOptions {
    /// Creates options with validation.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidValue`] when `t_stop` or `dt` is not
    /// positive/finite, or `dt` exceeds `t_stop`.
    pub fn new(t_stop: f64, dt: f64) -> Result<Self> {
        if !t_stop.is_finite() || t_stop <= 0.0 {
            return Err(CircuitError::InvalidValue {
                component: "transient".into(),
                value: t_stop,
                reason: "t_stop must be positive and finite",
            });
        }
        if !dt.is_finite() || dt <= 0.0 || dt > t_stop {
            return Err(CircuitError::InvalidValue {
                component: "transient".into(),
                value: dt,
                reason: "dt must be positive, finite, and not exceed t_stop",
            });
        }
        Ok(TransientOptions { t_stop, dt })
    }
}

/// Recorded transient waveforms.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientResult {
    times: Vec<f64>,
    /// `voltages[node_id][sample]`.
    voltages: Vec<Vec<f64>>,
    dt_effective: f64,
}

impl TransientResult {
    /// Sampling interval of the recorded points (seconds).
    #[inline]
    pub fn sample_interval(&self) -> f64 {
        self.dt_effective
    }

    /// Effective sampling rate of the recorded points (Hz).
    #[inline]
    pub fn sample_rate(&self) -> f64 {
        1.0 / self.dt_effective
    }

    /// Waveform of a node by id.
    #[inline]
    pub(crate) fn node(&self, id: NodeId) -> &[f64] {
        &self.voltages[id.index()]
    }

    /// Waveform of a node by name.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownNode`] when absent.
    pub fn node_by_name(&self, circuit: &Circuit, name: &str) -> Result<&[f64]> {
        let id = circuit
            .find_node(name)
            .ok_or_else(|| CircuitError::UnknownNode(name.to_string()))?;
        Ok(self.node(id))
    }
}

struct CapState {
    p: NodeId,
    n: NodeId,
    geq: f64,
    v_prev: f64,
    i_prev: f64,
}

struct IndState {
    branch_row: usize,
    p: NodeId,
    n: NodeId,
    req: f64,
    i_prev: f64,
    v_prev: f64,
}

/// Source value at time `t` for transient purposes: the waveform when one
/// is attached, otherwise the DC value.
fn tran_source_value(element: &Element, t: f64) -> f64 {
    match element {
        Element::VoltageSource { dc, waveform, .. }
        | Element::CurrentSource { dc, waveform, .. } => {
            waveform.as_ref().map_or(*dc, |w| w.eval(t))
        }
        _ => 0.0,
    }
}

/// Runs a transient simulation from the DC operating point at `t = 0`.
///
/// # Errors
///
/// Returns [`CircuitError::Singular`] for ill-posed circuits, plus layout
/// errors for bad controlled-source references.
pub fn transient(circuit: &Circuit, options: &TransientOptions) -> Result<TransientResult> {
    let layout = MnaLayout::new(circuit)?;
    let dim = layout.dim();
    let h = options.dt;

    // --- Initial condition: DC operating point with sources at t = 0. ---
    let op = {
        let mut at0 = circuit.clone();
        for comp in circuit.components() {
            if let Element::VoltageSource {
                waveform: Some(_), ..
            }
            | Element::CurrentSource {
                waveform: Some(_), ..
            } = comp.element()
            {
                let v0 = tran_source_value(comp.element(), 0.0);
                at0.set_source_dc(comp.name(), v0)?;
            }
        }
        super::dc::operating_point_with_layout(&at0, &layout)?
    };

    // --- Assemble the constant conductance matrix. ---
    let mut g = RMatrix::zeros(dim, dim);
    let mut caps = Vec::new();
    let mut inds = Vec::new();
    // (component, branch row) pairs for V sources, re-evaluated per step.
    let mut vsources = Vec::new();
    let mut isources = Vec::new();

    for (idx, comp) in circuit.components().iter().enumerate() {
        let id = ComponentId(idx);
        let nodes = comp.nodes();
        match comp.element() {
            Element::Resistor { r } => {
                stamp_conductance(&mut g, &layout, nodes[0], nodes[1], 1.0 / r);
            }
            Element::Capacitor { c } => {
                let geq = 2.0 * c / h;
                stamp_conductance(&mut g, &layout, nodes[0], nodes[1], geq);
                let v_prev = op.voltage(nodes[0]) - op.voltage(nodes[1]);
                caps.push(CapState {
                    p: nodes[0],
                    n: nodes[1],
                    geq,
                    v_prev,
                    i_prev: 0.0,
                });
            }
            Element::Inductor { l } => {
                let k = layout.branch_row(id).expect("inductor branch");
                stamp_branch(&mut g, &layout, nodes[0], nodes[1], k);
                let req = 2.0 * l / h;
                g[(k, k)] -= req;
                let i_prev = op.current(id).unwrap_or(0.0);
                inds.push(IndState {
                    branch_row: k,
                    p: nodes[0],
                    n: nodes[1],
                    req,
                    i_prev,
                    v_prev: 0.0,
                });
            }
            Element::VoltageSource { .. } => {
                let k = layout.branch_row(id).expect("vsource branch");
                stamp_branch(&mut g, &layout, nodes[0], nodes[1], k);
                vsources.push((id, k));
            }
            Element::CurrentSource { .. } => {
                isources.push((id, nodes[0], nodes[1]));
            }
            Element::Vcvs { gain } => {
                let k = layout.branch_row(id).expect("vcvs branch");
                stamp_branch(&mut g, &layout, nodes[0], nodes[1], k);
                if let Some(cp) = layout.node_row(nodes[2]) {
                    g[(k, cp)] -= gain;
                }
                if let Some(cn) = layout.node_row(nodes[3]) {
                    g[(k, cn)] += gain;
                }
            }
            Element::Vccs { gm } => {
                let (op_, on) = (layout.node_row(nodes[0]), layout.node_row(nodes[1]));
                let (cp, cn) = (layout.node_row(nodes[2]), layout.node_row(nodes[3]));
                for (out, so) in [(op_, 1.0), (on, -1.0)] {
                    let Some(o) = out else { continue };
                    for (ctl, si) in [(cp, 1.0), (cn, -1.0)] {
                        let Some(c) = ctl else { continue };
                        g[(o, c)] += gm * so * si;
                    }
                }
            }
            Element::Cccs { gain, control } => {
                let ctrl = circuit.find(control).expect("validated");
                let j = layout.branch_row(ctrl).expect("control branch");
                if let Some(o) = layout.node_row(nodes[0]) {
                    g[(o, j)] += gain;
                }
                if let Some(o) = layout.node_row(nodes[1]) {
                    g[(o, j)] -= gain;
                }
            }
            Element::Ccvs { r, control } => {
                let ctrl = circuit.find(control).expect("validated");
                let j = layout.branch_row(ctrl).expect("control branch");
                let k = layout.branch_row(id).expect("ccvs branch");
                stamp_branch(&mut g, &layout, nodes[0], nodes[1], k);
                g[(k, j)] -= r;
            }
            Element::IdealOpAmp => {
                let k = layout.branch_row(id).expect("opamp branch");
                if let Some(o) = layout.node_row(nodes[2]) {
                    g[(o, k)] += 1.0;
                }
                if let Some(ip) = layout.node_row(nodes[0]) {
                    g[(k, ip)] += 1.0;
                }
                if let Some(inn) = layout.node_row(nodes[1]) {
                    g[(k, inn)] -= 1.0;
                }
            }
        }
    }

    let lu = Lu::factor(&g).map_err(CircuitError::from)?;

    // --- Time march. ---
    let n_steps = (options.t_stop / h).round() as usize;
    let n_nodes = circuit.node_count();
    let mut times = Vec::new();
    let mut voltages: Vec<Vec<f64>> = vec![Vec::new(); n_nodes];

    // Record initial point.
    times.push(0.0);
    for (node_idx, v) in voltages.iter_mut().enumerate() {
        v.push(op.voltage(NodeId(node_idx)));
    }

    let mut rhs = vec![0.0f64; dim];
    for step in 1..=n_steps {
        let t = step as f64 * h;
        rhs.fill(0.0);

        for &(id, k) in &vsources {
            rhs[k] = tran_source_value(circuit.component(id).element(), t);
        }
        for &(id, p, n) in &isources {
            let i = tran_source_value(circuit.component(id).element(), t);
            if let Some(r) = layout.node_row(p) {
                rhs[r] -= i;
            }
            if let Some(r) = layout.node_row(n) {
                rhs[r] += i;
            }
        }
        for cap in &caps {
            // Norton companion: source geq·v_prev + i_prev into node p.
            let i_eq = cap.geq * cap.v_prev + cap.i_prev;
            if let Some(r) = layout.node_row(cap.p) {
                rhs[r] += i_eq;
            }
            if let Some(r) = layout.node_row(cap.n) {
                rhs[r] -= i_eq;
            }
        }
        for ind in &inds {
            rhs[ind.branch_row] = -(ind.req * ind.i_prev + ind.v_prev);
        }

        let x = lu.solve(&rhs);

        // State updates.
        let node_v = |node: NodeId| -> f64 { layout.node_row(node).map_or(0.0, |r| x[r]) };
        for cap in &mut caps {
            let v_new = node_v(cap.p) - node_v(cap.n);
            let i_new = cap.geq * (v_new - cap.v_prev) - cap.i_prev;
            cap.v_prev = v_new;
            cap.i_prev = i_new;
        }
        for ind in &mut inds {
            let i_new = x[ind.branch_row];
            let v_new = node_v(ind.p) - node_v(ind.n);
            ind.i_prev = i_new;
            ind.v_prev = v_new;
        }

        times.push(t);
        voltages[0].push(0.0);
        for (node_idx, v) in voltages.iter_mut().enumerate().skip(1) {
            let r = layout
                .node_row(NodeId(node_idx))
                .expect("non-ground node has a row");
            v.push(x[r]);
        }
    }

    Ok(TransientResult {
        times,
        voltages,
        dt_effective: h,
    })
}

fn stamp_conductance(g: &mut RMatrix, layout: &MnaLayout, p: NodeId, n: NodeId, y: f64) {
    let (rp, rn) = (layout.node_row(p), layout.node_row(n));
    if let Some(i) = rp {
        g[(i, i)] += y;
    }
    if let Some(i) = rn {
        g[(i, i)] += y;
    }
    if let (Some(i), Some(j)) = (rp, rn) {
        g[(i, j)] -= y;
        g[(j, i)] -= y;
    }
}

fn stamp_branch(g: &mut RMatrix, layout: &MnaLayout, p: NodeId, n: NodeId, k: usize) {
    if let Some(i) = layout.node_row(p) {
        g[(i, k)] += 1.0;
        g[(k, i)] += 1.0;
    }
    if let Some(i) = layout.node_row(n) {
        g[(i, k)] -= 1.0;
        g[(k, i)] -= 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Waveform;

    #[test]
    fn options_validated() {
        assert!(TransientOptions::new(-1.0, 0.1).is_err());
        assert!(TransientOptions::new(1.0, 0.0).is_err());
        assert!(TransientOptions::new(1.0, 2.0).is_err());
        assert!(TransientOptions::new(1.0, 0.1).is_ok());
    }

    #[test]
    fn rc_step_response() {
        // Step 0→1 V into R=1k, C=1µF: v(t) = 1 − e^{−t/τ}, τ = 1 ms.
        let mut ckt = Circuit::new("rc-step");
        ckt.voltage_source_full(
            "V1",
            "in",
            "0",
            0.0,
            1.0,
            0.0,
            Some(Waveform::Step {
                low: 0.0,
                high: 1.0,
                t0: 0.0 + 1e-9,
            }),
        )
        .unwrap();
        ckt.resistor("R1", "in", "out", 1e3).unwrap();
        ckt.capacitor("C1", "out", "0", 1e-6).unwrap();
        let opt = TransientOptions::new(5e-3, 1e-6).unwrap();
        let result = transient(&ckt, &opt).unwrap();
        let v = result.node_by_name(&ckt, "out").unwrap();
        let t = &result.times;
        // Compare at t = τ and t = 3τ.
        for &(t_check, expect) in &[(1e-3, 1.0 - (-1.0f64).exp()), (3e-3, 1.0 - (-3.0f64).exp())] {
            let idx = t
                .iter()
                .position(|&x| (x - t_check).abs() < 1e-9)
                .expect("time point exists");
            assert!(
                (v[idx] - expect).abs() < 1e-3,
                "v({t_check}) = {} expected {expect}",
                v[idx]
            );
        }
    }

    #[test]
    fn sine_steady_state_amplitude_matches_ac() {
        // RC low-pass driven at the corner: steady-state amplitude 1/√2.
        let mut ckt = Circuit::new("rc-sine");
        let f_hz = 1000.0 / std::f64::consts::TAU; // ω = 1000 rad/s
        ckt.voltage_source_full(
            "V1",
            "in",
            "0",
            0.0,
            1.0,
            0.0,
            Some(Waveform::Sine {
                offset: 0.0,
                amplitude: 1.0,
                freq_hz: f_hz,
                phase_rad: 0.0,
            }),
        )
        .unwrap();
        ckt.resistor("R1", "in", "out", 1e3).unwrap();
        ckt.capacitor("C1", "out", "0", 1e-6).unwrap();

        let period = 1.0 / f_hz;
        // Simulate 12 periods; measure the last 4.
        let dt = period / 200.0;
        let opt = TransientOptions::new(12.0 * period, dt).unwrap();
        let result = transient(&ckt, &opt).unwrap();
        let v = result.node_by_name(&ckt, "out").unwrap();
        let tail = &v[v.len() - 800..];
        let amp = ft_numerics::dsp::tone_amplitude(
            tail,
            f_hz,
            result.sample_rate(),
            ft_numerics::dsp::Window::Rectangular,
        );
        assert!(
            (amp - 1.0 / 2f64.sqrt()).abs() < 2e-3,
            "steady-state amplitude {amp}"
        );
    }

    #[test]
    fn lc_tank_oscillates_with_energy_conservation() {
        // Series RLC with tiny R: damped oscillation at ω ≈ 1/√(LC).
        let mut ckt = Circuit::new("rlc");
        ckt.voltage_source_full(
            "V1",
            "in",
            "0",
            1.0,
            1.0,
            0.0,
            Some(Waveform::Step {
                low: 1.0,
                high: 0.0,
                t0: 1e-9,
            }),
        )
        .unwrap();
        ckt.resistor("R1", "in", "a", 1.0).unwrap();
        ckt.inductor("L1", "a", "b", 1e-3).unwrap();
        ckt.capacitor("C1", "b", "0", 1e-6).unwrap();
        let opt = TransientOptions::new(2e-3, 1e-7).unwrap();
        let result = transient(&ckt, &opt).unwrap();
        let v = result.node_by_name(&ckt, "b").unwrap();
        // ω0 = 1/√(LC) ≈ 31623 rad/s → f ≈ 5033 Hz; count zero crossings.
        let mut crossings = 0;
        for w in v.windows(2) {
            if w[0].signum() != w[1].signum() {
                crossings += 1;
            }
        }
        // 2 ms × 5033 Hz ≈ 10 periods → ≈ 20 crossings.
        assert!(
            (15..=25).contains(&crossings),
            "unexpected crossing count {crossings}"
        );
    }

    #[test]
    fn initial_condition_from_dc() {
        // Source held at 2 V: output should start (and stay) at 2 V.
        let mut ckt = Circuit::new("hold");
        ckt.voltage_source("V1", "in", "0", 2.0).unwrap();
        ckt.resistor("R1", "in", "out", 1e3).unwrap();
        ckt.capacitor("C1", "out", "0", 1e-6).unwrap();
        ckt.resistor("R2", "out", "0", 1e9).unwrap();
        let opt = TransientOptions::new(1e-3, 1e-5).unwrap();
        let result = transient(&ckt, &opt).unwrap();
        let v = result.node_by_name(&ckt, "out").unwrap();
        // The bleeder divider sets the exact level: 2·1e9/(1e9 + 1e3).
        let expected = 2.0 * 1e9 / (1e9 + 1e3);
        for &sample in v {
            assert!((sample - expected).abs() < 1e-9, "drift: {sample}");
        }
    }
}
