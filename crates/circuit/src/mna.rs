//! Modified nodal analysis: layout, stamping, and solving.
//!
//! The MNA unknown vector is `[v₁ … v_N | i₁ … i_M]`: node voltages for
//! every non-ground node followed by branch currents for every element
//! that needs one (voltage sources, inductors, VCVS, CCVS, ideal op amps).
//! Stamps follow the standard formulation (Ho, Ruehli, Brennan 1975), with
//! the complex Laplace variable `s = jω` supplied at assembly time so the
//! same code serves DC (`s = 0`) and AC analysis.

use std::collections::HashMap;

use ft_numerics::{CMatrix, Complex64, Lu};

use crate::element::Element;
use crate::error::{CircuitError, Result};
use crate::netlist::{Circuit, ComponentId, NodeId};

/// Which values independent sources contribute to the right-hand side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Excitation {
    /// DC values (operating point).
    Dc,
    /// Single-input transfer-function mode: the source with this id
    /// contributes exactly `1∠0` and every other independent source is
    /// zeroed. The solved output then *is* the transfer function to that
    /// input. Build with [`Excitation::ac_unit`], which resolves and
    /// validates the source name once — per-frequency callers then pay no
    /// lookup or allocation.
    AcUnit(ComponentId),
}

impl Excitation {
    /// Resolves `input` to its [`ComponentId`] and validates that it is an
    /// independent source, yielding the single-input transfer-function
    /// excitation. Resolve once per sweep, not per frequency.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownComponent`] when `input` does not
    /// exist and [`CircuitError::NotASource`] when it is not an
    /// independent V or I source.
    pub(crate) fn ac_unit(circuit: &Circuit, input: &str) -> Result<Self> {
        let id = circuit
            .find(input)
            .ok_or_else(|| CircuitError::UnknownComponent(input.to_string()))?;
        if !circuit.component(id).element().is_independent_source() {
            return Err(CircuitError::NotASource(input.to_string()));
        }
        Ok(Excitation::AcUnit(id))
    }
}

/// Precomputed index map from circuit structure to MNA rows/columns.
#[derive(Debug, Clone)]
pub struct MnaLayout {
    /// Matrix dimension: non-ground nodes + branch currents.
    dim: usize,
    /// Non-ground node count.
    n_nodes: usize,
    /// Branch row (offset from `n_nodes`) per component needing one.
    branch_of: HashMap<ComponentId, usize>,
}

impl MnaLayout {
    /// Builds the layout for a circuit, validating controlled-source
    /// references.
    ///
    /// # Errors
    ///
    /// Returns an error when an F/H element references a missing or
    /// non-voltage-source control.
    pub fn new(circuit: &Circuit) -> Result<Self> {
        let mut branch_of = HashMap::new();
        let mut next_branch = 0usize;
        for (idx, comp) in circuit.components().iter().enumerate() {
            let id = ComponentId(idx);
            if comp.element().needs_branch_current() {
                branch_of.insert(id, next_branch);
                next_branch += 1;
            }
            match comp.element() {
                Element::Cccs { control, .. } | Element::Ccvs { control, .. } => {
                    let ctrl_id = circuit
                        .find(control)
                        .ok_or_else(|| CircuitError::UnknownComponent(control.clone()))?;
                    if !matches!(
                        circuit.component(ctrl_id).element(),
                        Element::VoltageSource { .. }
                    ) {
                        return Err(CircuitError::InvalidControl {
                            component: comp.name().to_string(),
                            control: control.clone(),
                        });
                    }
                }
                _ => {}
            }
        }
        let n_nodes = circuit.node_count() - 1;
        Ok(MnaLayout {
            dim: n_nodes + next_branch,
            n_nodes,
            branch_of,
        })
    }

    /// Total system dimension.
    #[inline]
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// Matrix row/column of a node voltage; `None` for ground.
    #[inline]
    pub(crate) fn node_row(&self, node: NodeId) -> Option<usize> {
        if node.is_ground() {
            None
        } else {
            Some(node.index() - 1)
        }
    }

    /// Matrix row/column of a component's branch current.
    #[inline]
    pub(crate) fn branch_row(&self, id: ComponentId) -> Option<usize> {
        self.branch_of.get(&id).map(|b| self.n_nodes + b)
    }
}

/// Assembled complex MNA system at one frequency.
#[derive(Debug, Clone)]
pub(crate) struct MnaSystem {
    /// System matrix.
    pub matrix: CMatrix,
    /// Right-hand side.
    pub rhs: Vec<Complex64>,
}

/// Assembles the complex MNA system of `circuit` at Laplace point `s`.
///
/// # Errors
///
/// Returns an error for invalid controlled-source references (via
/// [`MnaLayout::new`]) or an unknown `AcUnit` input name.
pub(crate) fn assemble(
    circuit: &Circuit,
    layout: &MnaLayout,
    s: Complex64,
    excitation: &Excitation,
) -> Result<MnaSystem> {
    if let Excitation::AcUnit(input) = excitation {
        if input.index() >= circuit.component_count() {
            return Err(CircuitError::UnknownComponent(format!(
                "component #{}",
                input.index()
            )));
        }
        if !circuit.component(*input).element().is_independent_source() {
            return Err(CircuitError::NotASource(
                circuit.component(*input).name().to_string(),
            ));
        }
    }

    let mut a = CMatrix::zeros(layout.dim(), layout.dim());
    let mut z = vec![Complex64::ZERO; layout.dim()];

    for (idx, comp) in circuit.components().iter().enumerate() {
        let id = ComponentId(idx);
        let nodes = comp.nodes();
        match comp.element() {
            Element::Resistor { r } => {
                stamp_admittance(
                    &mut a,
                    layout,
                    nodes[0],
                    nodes[1],
                    Complex64::from_real(1.0 / r),
                );
            }
            Element::Capacitor { c } => {
                stamp_admittance(&mut a, layout, nodes[0], nodes[1], s.scale(*c));
            }
            Element::Inductor { l } => {
                let k = layout.branch_row(id).expect("inductor has branch");
                stamp_branch_voltage(&mut a, layout, nodes[0], nodes[1], k);
                a[(k, k)] -= s.scale(*l);
            }
            Element::VoltageSource { dc, .. } => {
                let k = layout.branch_row(id).expect("vsource has branch");
                stamp_branch_voltage(&mut a, layout, nodes[0], nodes[1], k);
                z[k] = source_value(id, *dc, excitation);
            }
            Element::CurrentSource { dc, .. } => {
                let i = source_value(id, *dc, excitation);
                // Positive current flows p→n through the source: it leaves
                // node p and enters node n.
                if let Some(rp) = layout.node_row(nodes[0]) {
                    z[rp] -= i;
                }
                if let Some(rn) = layout.node_row(nodes[1]) {
                    z[rn] += i;
                }
            }
            Element::Vcvs { gain } => {
                let k = layout.branch_row(id).expect("vcvs has branch");
                stamp_branch_voltage(&mut a, layout, nodes[0], nodes[1], k);
                let g = Complex64::from_real(*gain);
                if let Some(cp) = layout.node_row(nodes[2]) {
                    a[(k, cp)] -= g;
                }
                if let Some(cn) = layout.node_row(nodes[3]) {
                    a[(k, cn)] += g;
                }
            }
            Element::Vccs { gm } => {
                let g = Complex64::from_real(*gm);
                let (op, on) = (layout.node_row(nodes[0]), layout.node_row(nodes[1]));
                let (cp, cn) = (layout.node_row(nodes[2]), layout.node_row(nodes[3]));
                for (out, sign_out) in [(op, 1.0), (on, -1.0)] {
                    let Some(o) = out else { continue };
                    for (ctl, sign_in) in [(cp, 1.0), (cn, -1.0)] {
                        let Some(c) = ctl else { continue };
                        a[(o, c)] += g.scale(sign_out * sign_in);
                    }
                }
            }
            Element::Cccs { gain, control } => {
                let ctrl_id = circuit.find(control).expect("validated by layout");
                let j = layout
                    .branch_row(ctrl_id)
                    .expect("control vsource has branch");
                let g = Complex64::from_real(*gain);
                if let Some(op) = layout.node_row(nodes[0]) {
                    a[(op, j)] += g;
                }
                if let Some(on) = layout.node_row(nodes[1]) {
                    a[(on, j)] -= g;
                }
            }
            Element::Ccvs { r, control } => {
                let ctrl_id = circuit.find(control).expect("validated by layout");
                let j = layout
                    .branch_row(ctrl_id)
                    .expect("control vsource has branch");
                let k = layout.branch_row(id).expect("ccvs has branch");
                stamp_branch_voltage(&mut a, layout, nodes[0], nodes[1], k);
                a[(k, j)] -= Complex64::from_real(*r);
            }
            Element::IdealOpAmp => {
                // nodes = [in_p, in_n, out]; branch = output current.
                let k = layout.branch_row(id).expect("opamp has branch");
                if let Some(o) = layout.node_row(nodes[2]) {
                    a[(o, k)] += Complex64::ONE;
                }
                if let Some(ip) = layout.node_row(nodes[0]) {
                    a[(k, ip)] += Complex64::ONE;
                }
                if let Some(inn) = layout.node_row(nodes[1]) {
                    a[(k, inn)] -= Complex64::ONE;
                }
            }
        }
    }

    Ok(MnaSystem { matrix: a, rhs: z })
}

fn source_value(id: ComponentId, dc: f64, excitation: &Excitation) -> Complex64 {
    match excitation {
        Excitation::Dc => Complex64::from_real(dc),
        Excitation::AcUnit(input) => {
            if id == *input {
                Complex64::ONE
            } else {
                Complex64::ZERO
            }
        }
    }
}

/// Stamps the conductance pattern of a two-terminal admittance `y`.
fn stamp_admittance(a: &mut CMatrix, layout: &MnaLayout, p: NodeId, n: NodeId, y: Complex64) {
    let (rp, rn) = (layout.node_row(p), layout.node_row(n));
    if let Some(i) = rp {
        a[(i, i)] += y;
    }
    if let Some(i) = rn {
        a[(i, i)] += y;
    }
    if let (Some(i), Some(j)) = (rp, rn) {
        a[(i, j)] -= y;
        a[(j, i)] -= y;
    }
}

/// Stamps the branch-voltage pattern shared by V sources, inductors,
/// VCVS, and CCVS: the branch current enters the node equations and the
/// node voltages enter the branch equation.
fn stamp_branch_voltage(a: &mut CMatrix, layout: &MnaLayout, p: NodeId, n: NodeId, k: usize) {
    if let Some(i) = layout.node_row(p) {
        a[(i, k)] += Complex64::ONE;
        a[(k, i)] += Complex64::ONE;
    }
    if let Some(i) = layout.node_row(n) {
        a[(i, k)] -= Complex64::ONE;
        a[(k, i)] -= Complex64::ONE;
    }
}

/// Solution of one MNA solve: node voltages and branch currents.
#[derive(Debug, Clone)]
pub(crate) struct MnaSolution {
    /// Node voltages indexed by [`NodeId::index`]; entry 0 (ground) is 0.
    voltages: Vec<Complex64>,
    /// Branch currents for components that have them.
    currents: HashMap<ComponentId, Complex64>,
}

impl MnaSolution {
    /// Voltage at a node (ground reads 0).
    #[inline]
    pub(crate) fn voltage(&self, node: NodeId) -> Complex64 {
        self.voltages[node.index()]
    }

    /// Differential voltage `V(p) − V(n)`.
    #[inline]
    pub(crate) fn voltage_between(&self, p: NodeId, n: NodeId) -> Complex64 {
        self.voltage(p) - self.voltage(n)
    }

    /// Branch current of a component, if it has a branch unknown.
    #[inline]
    pub(crate) fn current(&self, id: ComponentId) -> Option<Complex64> {
        self.currents.get(&id).copied()
    }
}

/// Assembles and solves the circuit at Laplace point `s`.
///
/// # Errors
///
/// Returns [`CircuitError::Singular`] for ill-posed circuits (floating
/// nodes, source loops) and reference errors per [`assemble`].
pub(crate) fn solve(
    circuit: &Circuit,
    layout: &MnaLayout,
    s: Complex64,
    excitation: &Excitation,
) -> Result<MnaSolution> {
    let system = assemble(circuit, layout, s, excitation)?;
    let lu = Lu::factor(&system.matrix)?;
    let x = lu.solve(&system.rhs);

    let mut voltages = vec![Complex64::ZERO; circuit.node_count()];
    voltages[1..].copy_from_slice(&x[..circuit.node_count() - 1]);
    let mut currents = HashMap::new();
    for (idx, _) in circuit.components().iter().enumerate() {
        let id = ComponentId(idx);
        if let Some(row) = layout.branch_row(id) {
            currents.insert(id, x[row]);
        }
    }
    Ok(MnaSolution { voltages, currents })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn divider() -> (Circuit, MnaLayout) {
        let mut ckt = Circuit::new("divider");
        ckt.voltage_source("V1", "in", "0", 10.0).unwrap();
        ckt.resistor("R1", "in", "mid", 1e3).unwrap();
        ckt.resistor("R2", "mid", "0", 1e3).unwrap();
        let layout = MnaLayout::new(&ckt).unwrap();
        (ckt, layout)
    }

    #[test]
    fn layout_dimensions() {
        let (ckt, layout) = divider();
        // 2 non-ground nodes + 1 vsource branch.
        assert_eq!(layout.dim(), 3);
        let v1 = ckt.find("V1").unwrap();
        assert_eq!(layout.branch_row(v1), Some(2));
        assert_eq!(layout.node_row(NodeId(0)), None);
    }

    #[test]
    fn resistive_divider_dc() {
        let (ckt, layout) = divider();
        let sol = solve(&ckt, &layout, Complex64::ZERO, &Excitation::Dc).unwrap();
        let mid = ckt.find_node("mid").unwrap();
        assert!((sol.voltage(mid).re - 5.0).abs() < 1e-9);
        assert!(sol.voltage(mid).im.abs() < 1e-12);
        // Source current: 10V across 2k = 5 mA, flowing out of the + pin
        // means the branch current is −5 mA by the p→n convention.
        let i = sol.current(ckt.find("V1").unwrap()).unwrap();
        assert!((i.re + 5e-3).abs() < 1e-9, "source current {i}");
    }

    #[test]
    fn current_source_direction() {
        // 1 A from ground into node a (I1 n=a? convention check):
        // current flows p→n through the source. With p=0, n=a, current
        // enters node a: V(a) = I·R = 5 V.
        let mut ckt = Circuit::new("isrc");
        ckt.current_source("I1", "0", "a", 1.0).unwrap();
        ckt.resistor("R1", "a", "0", 5.0).unwrap();
        let layout = MnaLayout::new(&ckt).unwrap();
        let sol = solve(&ckt, &layout, Complex64::ZERO, &Excitation::Dc).unwrap();
        let a = ckt.find_node("a").unwrap();
        assert!((sol.voltage(a).re - 5.0).abs() < 1e-9);
    }

    #[test]
    fn rc_lowpass_ac() {
        // R = 1 kΩ, C = 1 µF → ωc = 1000 rad/s.
        let mut ckt = Circuit::new("rc");
        ckt.voltage_source("V1", "in", "0", 1.0).unwrap();
        ckt.resistor("R1", "in", "out", 1e3).unwrap();
        ckt.capacitor("C1", "out", "0", 1e-6).unwrap();
        let layout = MnaLayout::new(&ckt).unwrap();
        let excitation = Excitation::ac_unit(&ckt, "V1").unwrap();
        let out = ckt.find_node("out").unwrap();

        let sol = solve(&ckt, &layout, Complex64::jw(1000.0), &excitation).unwrap();
        let h = sol.voltage(out);
        assert!((h.abs() - 1.0 / 2f64.sqrt()).abs() < 1e-9);
        assert!((h.arg_deg() + 45.0).abs() < 1e-9);

        let sol = solve(&ckt, &layout, Complex64::jw(10.0), &excitation).unwrap();
        assert!((sol.voltage(out).abs() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn inductor_dc_short_ac_blocks() {
        // V1 -- L -- out -- R -- gnd: at DC the inductor is a short.
        let mut ckt = Circuit::new("rl");
        ckt.voltage_source("V1", "in", "0", 2.0).unwrap();
        ckt.inductor("L1", "in", "out", 1.0).unwrap();
        ckt.resistor("R1", "out", "0", 100.0).unwrap();
        let layout = MnaLayout::new(&ckt).unwrap();
        let out = ckt.find_node("out").unwrap();

        let dc = solve(&ckt, &layout, Complex64::ZERO, &Excitation::Dc).unwrap();
        assert!((dc.voltage(out).re - 2.0).abs() < 1e-9);
        // Inductor branch current = 2/100 = 20 mA.
        let il = dc.current(ckt.find("L1").unwrap()).unwrap();
        assert!((il.re - 0.02).abs() < 1e-9);

        // At ω = 10⁶ rad/s, |Z_L| = 10⁶ ≫ R: output ≈ 0.
        let hf = solve(
            &ckt,
            &layout,
            Complex64::jw(1e6),
            &Excitation::ac_unit(&ckt, "V1").unwrap(),
        )
        .unwrap();
        assert!(hf.voltage(out).abs() < 1e-3);
    }

    #[test]
    fn vcvs_gain() {
        let mut ckt = Circuit::new("e");
        ckt.voltage_source("V1", "in", "0", 1.0).unwrap();
        ckt.resistor("Rl", "in", "0", 1e6).unwrap();
        ckt.vcvs("E1", "out", "0", "in", "0", 5.0).unwrap();
        ckt.resistor("Ro", "out", "0", 1e3).unwrap();
        let layout = MnaLayout::new(&ckt).unwrap();
        let sol = solve(&ckt, &layout, Complex64::ZERO, &Excitation::Dc).unwrap();
        let out = ckt.find_node("out").unwrap();
        assert!((sol.voltage(out).re - 5.0).abs() < 1e-9);
    }

    #[test]
    fn vccs_transconductance() {
        let mut ckt = Circuit::new("g");
        ckt.voltage_source("V1", "in", "0", 2.0).unwrap();
        // 0.1 S from (in,0) driving current out of node "out" into ground;
        // out node load 50 Ω. I = gm·V(in) = 0.2 A from out→gnd through G.
        ckt.vccs("G1", "out", "0", "in", "0", 0.1).unwrap();
        ckt.resistor("Rl", "out", "0", 50.0).unwrap();
        let layout = MnaLayout::new(&ckt).unwrap();
        let sol = solve(&ckt, &layout, Complex64::ZERO, &Excitation::Dc).unwrap();
        let out = ckt.find_node("out").unwrap();
        // KCL at out: gm·Vin + Vout/R = 0 → Vout = −gm·Vin·R = −10.
        assert!((sol.voltage(out).re + 10.0).abs() < 1e-9);
    }

    #[test]
    fn cccs_mirrors_current() {
        // V1 drives 1 mA through R1 (1 V / 1 kΩ). F1 mirrors ×2 into R2.
        let mut ckt = Circuit::new("f");
        ckt.voltage_source("V1", "a", "0", 1.0).unwrap();
        ckt.resistor("R1", "a", "0", 1e3).unwrap();
        ckt.cccs("F1", "b", "0", "V1", 2.0).unwrap();
        ckt.resistor("R2", "b", "0", 1e3).unwrap();
        let layout = MnaLayout::new(&ckt).unwrap();
        let sol = solve(&ckt, &layout, Complex64::ZERO, &Excitation::Dc).unwrap();
        let b = ckt.find_node("b").unwrap();
        // Control current (through V1, p→n) is −1 mA; F1 injects
        // gain·i_ctrl into node b: V(b) = −(−2 mA·1 kΩ)… sign check:
        // the magnitude must be 2 V.
        assert!((sol.voltage(b).re.abs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn ccvs_transresistance() {
        let mut ckt = Circuit::new("h");
        ckt.voltage_source("V1", "a", "0", 1.0).unwrap();
        ckt.resistor("R1", "a", "0", 1e3).unwrap();
        ckt.ccvs("H1", "b", "0", "V1", 500.0).unwrap();
        ckt.resistor("R2", "b", "0", 1e3).unwrap();
        let layout = MnaLayout::new(&ckt).unwrap();
        let sol = solve(&ckt, &layout, Complex64::ZERO, &Excitation::Dc).unwrap();
        let b = ckt.find_node("b").unwrap();
        // |V(b)| = r·|i_ctrl| = 500 · 1 mA = 0.5 V.
        assert!((sol.voltage(b).re.abs() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn ideal_opamp_inverting_amplifier() {
        // Classic inverting amp: gain = −R2/R1 = −10.
        let mut ckt = Circuit::new("inv");
        ckt.voltage_source("V1", "in", "0", 1.0).unwrap();
        ckt.resistor("R1", "in", "sum", 1e3).unwrap();
        ckt.resistor("R2", "sum", "out", 1e4).unwrap();
        ckt.ideal_opamp("U1", "0", "sum", "out").unwrap();
        let layout = MnaLayout::new(&ckt).unwrap();
        let sol = solve(&ckt, &layout, Complex64::ZERO, &Excitation::Dc).unwrap();
        let out = ckt.find_node("out").unwrap();
        assert!((sol.voltage(out).re + 10.0).abs() < 1e-9);
        // Virtual ground at the summing node.
        let sum = ckt.find_node("sum").unwrap();
        assert!(sol.voltage(sum).abs() < 1e-9);
    }

    #[test]
    fn floating_node_is_singular() {
        // A node reached only through a capacitor has no DC path: at
        // s = 0 its matrix row is all-zero and elimination must fail.
        let mut ckt = Circuit::new("bad");
        ckt.voltage_source("V1", "in", "0", 1.0).unwrap();
        ckt.capacitor("C1", "in", "out", 1e-6).unwrap();
        let layout = MnaLayout::new(&ckt).unwrap();
        let err = solve(&ckt, &layout, Complex64::ZERO, &Excitation::Dc).unwrap_err();
        assert!(matches!(err, CircuitError::Singular { .. }));
    }

    #[test]
    fn dangling_resistor_node_carries_no_current() {
        // A node connected by a single resistor is well-posed: zero
        // current flows, so it floats up to the driving voltage.
        let mut ckt = Circuit::new("dangling");
        ckt.voltage_source("V1", "in", "0", 1.0).unwrap();
        ckt.resistor("R1", "in", "out", 1e3).unwrap();
        let layout = MnaLayout::new(&ckt).unwrap();
        let sol = solve(&ckt, &layout, Complex64::ZERO, &Excitation::Dc).unwrap();
        let out = ckt.find_node("out").unwrap();
        assert!((sol.voltage(out).re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ac_unit_selects_input() {
        let mut ckt = Circuit::new("two-src");
        ckt.voltage_source("V1", "a", "0", 3.0).unwrap();
        ckt.voltage_source_full("V2", "b", "0", 7.0, 7.0, 0.0, None)
            .unwrap();
        ckt.resistor("R1", "a", "c", 1e3).unwrap();
        ckt.resistor("R2", "b", "c", 1e3).unwrap();
        ckt.resistor("R3", "c", "0", 1e30).unwrap();
        let layout = MnaLayout::new(&ckt).unwrap();
        let c = ckt.find_node("c").unwrap();
        // With V1 as unit input and V2 zeroed, superposition gives 0.5.
        let sol = solve(
            &ckt,
            &layout,
            Complex64::jw(1.0),
            &Excitation::ac_unit(&ckt, "V1").unwrap(),
        )
        .unwrap();
        assert!((sol.voltage(c).abs() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn ac_unit_unknown_source_rejected() {
        let (ckt, _layout) = divider();
        let err = Excitation::ac_unit(&ckt, "V99").unwrap_err();
        assert!(matches!(err, CircuitError::UnknownComponent(_)));
        let err = Excitation::ac_unit(&ckt, "R1").unwrap_err();
        assert!(matches!(err, CircuitError::NotASource(_)));
    }

    #[test]
    fn assemble_rejects_foreign_excitation_ids() {
        // An AcUnit id resolved against a *different* circuit must not
        // silently excite the wrong component here.
        let (ckt, layout) = divider();
        let mut other = Circuit::new("other");
        other.resistor("Ra", "a", "0", 1.0).unwrap();
        other.resistor("Rb", "a", "b", 1.0).unwrap();
        other.resistor("Rc", "b", "0", 1.0).unwrap();
        other.resistor("Rd", "b", "c", 1.0).unwrap();
        other.voltage_source("Vx", "c", "0", 1.0).unwrap();
        let foreign = Excitation::ac_unit(&other, "Vx").unwrap();
        // Id 4 is out of range for the 3-component divider.
        let err = assemble(&ckt, &layout, Complex64::ZERO, &foreign).unwrap_err();
        assert!(matches!(err, CircuitError::UnknownComponent(_)));
        // An in-range id that is not a source is rejected too.
        let not_source = Excitation::AcUnit(ComponentId(1)); // R1
        let err = assemble(&ckt, &layout, Complex64::ZERO, &not_source).unwrap_err();
        assert!(matches!(err, CircuitError::NotASource(_)));
    }

    #[test]
    fn voltage_between_nodes() {
        let (ckt, layout) = divider();
        let sol = solve(&ckt, &layout, Complex64::ZERO, &Excitation::Dc).unwrap();
        let input = ckt.find_node("in").unwrap();
        let mid = ckt.find_node("mid").unwrap();
        let d = sol.voltage_between(input, mid);
        assert!((d.re - 5.0).abs() < 1e-9);
    }
}
