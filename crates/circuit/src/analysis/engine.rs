//! The stamp-split AC sweep engine — the hot path of the workspace.
//!
//! # The `G + jω·B` decomposition
//!
//! Every element this simulator knows stamps entries into the MNA system
//! matrix `A(s)` that are either frequency-independent (resistor
//! conductances, source/op-amp branch patterns, controlled-source gains)
//! or *linear in `s`* (capacitor admittances `s·C`, inductor branch
//! impedances `−s·L`). The whole system therefore splits exactly as
//!
//! ```text
//! A(ω) = G + jω·B
//! ```
//!
//! with `G` and `B` stamped **once** per circuit. A sweep then forms
//! `A(ω)` per grid point by a copy plus an axpy into a reused workspace,
//! refactors it in place ([`Lu::factor_into`]), and solves into a reused
//! buffer ([`Lu::solve_into`]) — zero heap allocation after warm-up,
//! where the reference path ([`crate::sweep_reference`], `assemble` +
//! [`Lu::factor`]) re-walks the netlist and allocates a fresh matrix,
//! factorisation, and solution at every frequency.
//!
//! # The delta restamp path
//!
//! A parametric fault deviates one component's principal value. Each
//! value enters its stamps through a single scalar (`1/R` for resistors,
//! the value itself for everything else), so
//! [`AcSweepEngine::restamp_component`] updates only the handful of
//! touched entries instead of cloning and re-walking the whole circuit.
//! The prior entry values are kept on an undo log and
//! [`AcSweepEngine::reset`] restores them **verbatim**, so a
//! fault → sweep → reset cycle returns bit-for-bit to the golden
//! response: dictionary builds are reproducible byte-identically no
//! matter how faults are chunked across worker threads.
//!
//! # The rank-1 batch fault sweep
//!
//! Every single-component deviation is a rank-1 update of the nominal
//! system (the stamp patterns factor as `u·vᵀ` for all ten element
//! kinds), so [`AcSweepEngine::sweep_faults_into`] prices a whole fault
//! universe with **one factorization per grid point plus one solve per
//! distinct component**, answering each deviation in O(1) via the
//! Sherman–Morrison identity — the closed form of the delta path, and
//! the reason `FaultDictionary::build` beats the pre-refactor
//! clone-and-reassemble build by an order of magnitude even on one core.
//!
//! # When the reference path is still used
//!
//! The engine serves the single-input transfer-function workload
//! (`AcUnit` excitation). DC operating points, transient stepping, and
//! full multi-source AC excitation keep using `assemble`/`solve`, and
//! [`crate::transfer`] / [`crate::sweep_reference`] remain the oracle the
//! engine is property-tested against (`tests/engine_property.rs`).

use ft_numerics::{CMatrix, Complex64, FrequencyGrid, Lu};

use crate::analysis::ac::{AcSweep, Probe};
use crate::element::Element;
use crate::error::{CircuitError, Result};
use crate::mna::MnaLayout;
use crate::netlist::{Circuit, ComponentId, NodeId};

/// How a component's principal value enters its matrix entries.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ValueMap {
    /// Entries scale with `1/value` (resistors).
    Inverse,
    /// Entries scale with `value` (C, L, and controlled-source gains).
    Linear,
}

/// The value-dependent entries of one component's stamp.
///
/// For every element kind this simulator knows, the value-dependent part
/// of the stamp is the **rank-1** outer product `m(value) · u · vᵀ` of
/// two sparse sign vectors (e.g. `u = v = e_p − e_n` for a two-terminal
/// admittance, `u = e_k, v = e_cn − e_cp` for a VCVS): `entries` is that
/// outer product materialised for the delta restamp path, while `u`/`v`
/// feed the Sherman–Morrison batch fault sweep.
#[derive(Debug, Clone)]
struct ValueStamp {
    /// `true` when the entries live in the susceptance part `B`
    /// (capacitors, inductors); `false` for the conductance part `G`.
    in_b: bool,
    map: ValueMap,
    /// Sparse row factor of the rank-1 stamp, as `(row, sign)`.
    u: Vec<(usize, f64)>,
    /// Sparse column factor, as `(col, sign)`.
    v: Vec<(usize, f64)>,
    /// `(row, col, sign)` positions the mapped value accumulates into —
    /// the outer product `u ⊗ v`.
    entries: Vec<(usize, usize, f64)>,
}

impl ValueStamp {
    fn from_factors(in_b: bool, map: ValueMap, u: Vec<(usize, f64)>, v: Vec<(usize, f64)>) -> Self {
        let mut entries = Vec::with_capacity(u.len() * v.len());
        for &(row, su) in &u {
            for &(col, sv) in &v {
                entries.push((row, col, su * sv));
            }
        }
        ValueStamp {
            in_b,
            map,
            u,
            v,
            entries,
        }
    }

    fn empty() -> Self {
        ValueStamp::from_factors(false, ValueMap::Linear, Vec::new(), Vec::new())
    }
}

/// Sparse `e_p − e_n` over the matrix rows of two nodes (grounds drop
/// out).
fn node_pair(layout: &MnaLayout, p: NodeId, n: NodeId) -> Vec<(usize, f64)> {
    let mut out = Vec::with_capacity(2);
    if let Some(i) = layout.node_row(p) {
        out.push((i, 1.0));
    }
    if let Some(j) = layout.node_row(n) {
        out.push((j, -1.0));
    }
    out
}

/// Sparse dot product `Σ sign·x[row]`.
fn sparse_dot(sparse: &[(usize, f64)], x: &[Complex64]) -> Complex64 {
    let mut acc = Complex64::ZERO;
    for &(row, sign) in sparse {
        acc += x[row].scale(sign);
    }
    acc
}

/// Per-component restamp metadata.
#[derive(Debug, Clone)]
struct EngineComponent {
    name: String,
    /// Current principal value; `None` for sources and ideal op amps.
    value: Option<f64>,
    /// R/C/L values must stay positive (mirrors `Circuit::set_value`).
    must_be_positive: bool,
    stamp: ValueStamp,
}

/// One saved matrix entry of the undo log.
#[derive(Debug, Clone, Copy)]
struct UndoEntry {
    in_b: bool,
    row: usize,
    col: usize,
    prev: Complex64,
}

/// One [`AcSweepEngine::restamp_component`] call of the undo log.
#[derive(Debug, Clone, Copy)]
struct UndoFrame {
    component: usize,
    prev_value: f64,
    entries_from: usize,
}

/// A reusable, allocation-free AC sweep pipeline for one
/// circuit / input / probe triple (see the [module docs](self)).
///
/// # Examples
///
/// ```
/// use ft_circuit::{AcSweepEngine, Circuit, Probe};
///
/// let mut ckt = Circuit::new("rc");
/// ckt.voltage_source("V1", "in", "0", 1.0)?;
/// ckt.resistor("R1", "in", "out", 1_000.0)?;
/// ckt.capacitor("C1", "out", "0", 1e-6)?;
///
/// let mut engine = AcSweepEngine::new(&ckt, "V1", &Probe::node("out"))?;
/// let h = engine.response_at(1_000.0)?;
/// assert!((h.abs() - 1.0 / 2f64.sqrt()).abs() < 1e-9);
///
/// // Delta path: deviate R1 by +50% without touching the netlist…
/// let r1 = ckt.find("R1").unwrap();
/// let nominal = engine.restamp_component(r1, 1_500.0)?;
/// assert_eq!(nominal, 1_000.0);
/// assert!(engine.response_at(1_000.0)?.abs() < h.abs());
/// // …and return to the golden circuit bit-for-bit.
/// engine.reset();
/// assert_eq!(engine.response_at(1_000.0)?, h);
/// # Ok::<(), ft_circuit::CircuitError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AcSweepEngine {
    /// Frequency-independent (conductance) part of the system matrix.
    g: CMatrix,
    /// Susceptance part; the assembled system is `G + jω·B`.
    b: CMatrix,
    /// Right-hand side under unit excitation of the input source.
    rhs: Vec<Complex64>,
    /// Probe rows: `V(probe) = x[pos] − x[neg]` (`None` reads ground).
    probe_pos: Option<usize>,
    probe_neg: Option<usize>,
    components: Vec<EngineComponent>,
    // --- reused workspaces (warm after the first solve) ---------------
    work: CMatrix,
    lu: Lu<Complex64>,
    x: Vec<Complex64>,
    // --- restamp undo log ---------------------------------------------
    undo_entries: Vec<UndoEntry>,
    undo_frames: Vec<UndoFrame>,
}

impl AcSweepEngine {
    /// Builds an engine for `circuit`, driving `input` with `1∠0` and
    /// observing `probe`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownComponent`] / [`CircuitError::NotASource`]
    /// for a bad input, [`CircuitError::UnknownNode`] for a bad probe, and
    /// layout errors per [`MnaLayout::new`].
    pub fn new(circuit: &Circuit, input: &str, probe: &Probe) -> Result<Self> {
        let layout = MnaLayout::new(circuit)?;
        Self::with_layout(circuit, &layout, input, probe)
    }

    /// [`AcSweepEngine::new`] with a pre-built layout (shared across
    /// engines of the same circuit, e.g. one per worker thread).
    ///
    /// # Errors
    ///
    /// As [`AcSweepEngine::new`].
    pub fn with_layout(
        circuit: &Circuit,
        layout: &MnaLayout,
        input: &str,
        probe: &Probe,
    ) -> Result<Self> {
        let dim = layout.dim();
        let mut g = CMatrix::zeros(dim, dim);
        let mut b = CMatrix::zeros(dim, dim);
        let mut rhs = vec![Complex64::ZERO; dim];

        let input_id = circuit
            .find(input)
            .ok_or_else(|| CircuitError::UnknownComponent(input.to_string()))?;
        if !circuit
            .component(input_id)
            .element()
            .is_independent_source()
        {
            return Err(CircuitError::NotASource(input.to_string()));
        }

        let (probe_pos, probe_neg) = resolve_probe(circuit, layout, probe)?;

        let mut components = Vec::with_capacity(circuit.component_count());
        for (idx, comp) in circuit.components().iter().enumerate() {
            let id = ComponentId(idx);
            let nodes = comp.nodes();
            let value = comp.element().principal_value();
            let mut must_be_positive = false;
            let mut stamp = ValueStamp::empty();
            match comp.element() {
                Element::Resistor { .. } => {
                    must_be_positive = true;
                    let pair = node_pair(layout, nodes[0], nodes[1]);
                    stamp = ValueStamp::from_factors(false, ValueMap::Inverse, pair.clone(), pair);
                }
                Element::Capacitor { .. } => {
                    must_be_positive = true;
                    let pair = node_pair(layout, nodes[0], nodes[1]);
                    stamp = ValueStamp::from_factors(true, ValueMap::Linear, pair.clone(), pair);
                }
                Element::Inductor { .. } => {
                    must_be_positive = true;
                    let k = layout.branch_row(id).expect("inductor has branch");
                    branch_voltage_pattern(&mut g, layout, nodes[0], nodes[1], k);
                    stamp = ValueStamp::from_factors(
                        true,
                        ValueMap::Linear,
                        vec![(k, 1.0)],
                        vec![(k, -1.0)],
                    );
                }
                Element::VoltageSource { .. } => {
                    let k = layout.branch_row(id).expect("vsource has branch");
                    branch_voltage_pattern(&mut g, layout, nodes[0], nodes[1], k);
                    if id == input_id {
                        rhs[k] = Complex64::ONE;
                    }
                }
                Element::CurrentSource { .. } => {
                    if id == input_id {
                        // Positive current flows p→n through the source.
                        if let Some(rp) = layout.node_row(nodes[0]) {
                            rhs[rp] -= Complex64::ONE;
                        }
                        if let Some(rn) = layout.node_row(nodes[1]) {
                            rhs[rn] += Complex64::ONE;
                        }
                    }
                }
                Element::Vcvs { .. } => {
                    let k = layout.branch_row(id).expect("vcvs has branch");
                    branch_voltage_pattern(&mut g, layout, nodes[0], nodes[1], k);
                    stamp = ValueStamp::from_factors(
                        false,
                        ValueMap::Linear,
                        vec![(k, 1.0)],
                        node_pair(layout, nodes[3], nodes[2]),
                    );
                }
                Element::Vccs { .. } => {
                    stamp = ValueStamp::from_factors(
                        false,
                        ValueMap::Linear,
                        node_pair(layout, nodes[0], nodes[1]),
                        node_pair(layout, nodes[2], nodes[3]),
                    );
                }
                Element::Cccs { control, .. } => {
                    let ctrl_id = circuit.find(control).expect("validated by layout");
                    let j = layout
                        .branch_row(ctrl_id)
                        .expect("control vsource has branch");
                    stamp = ValueStamp::from_factors(
                        false,
                        ValueMap::Linear,
                        node_pair(layout, nodes[0], nodes[1]),
                        vec![(j, 1.0)],
                    );
                }
                Element::Ccvs { control, .. } => {
                    let ctrl_id = circuit.find(control).expect("validated by layout");
                    let j = layout
                        .branch_row(ctrl_id)
                        .expect("control vsource has branch");
                    let k = layout.branch_row(id).expect("ccvs has branch");
                    branch_voltage_pattern(&mut g, layout, nodes[0], nodes[1], k);
                    stamp = ValueStamp::from_factors(
                        false,
                        ValueMap::Linear,
                        vec![(k, 1.0)],
                        vec![(j, -1.0)],
                    );
                }
                Element::IdealOpAmp => {
                    // nodes = [in_p, in_n, out]; branch = output current.
                    let k = layout.branch_row(id).expect("opamp has branch");
                    if let Some(o) = layout.node_row(nodes[2]) {
                        g[(o, k)] += Complex64::ONE;
                    }
                    if let Some(ip) = layout.node_row(nodes[0]) {
                        g[(k, ip)] += Complex64::ONE;
                    }
                    if let Some(inn) = layout.node_row(nodes[1]) {
                        g[(k, inn)] -= Complex64::ONE;
                    }
                }
            }
            // Apply the value-dependent entries at the nominal value.
            // (A component whose entries all land on ground keeps its
            // value — restamping it is then a tracked no-op, matching
            // `Circuit::set_value` semantics.)
            if let Some(v) = value {
                let mapped = match stamp.map {
                    ValueMap::Inverse => 1.0 / v,
                    ValueMap::Linear => v,
                };
                let target = if stamp.in_b { &mut b } else { &mut g };
                for &(row, col, sign) in &stamp.entries {
                    target[(row, col)] += Complex64::from_real(sign * mapped);
                }
            }
            components.push(EngineComponent {
                name: comp.name().to_string(),
                value,
                must_be_positive,
                stamp,
            });
        }

        Ok(AcSweepEngine {
            work: CMatrix::zeros(dim, dim),
            lu: Lu::workspace(dim),
            x: Vec::with_capacity(dim),
            g,
            b,
            rhs,
            probe_pos,
            probe_neg,
            components,
            undo_entries: Vec::new(),
            undo_frames: Vec::new(),
        })
    }

    /// System dimension (non-ground nodes + branch currents).
    #[inline]
    pub(crate) fn dim(&self) -> usize {
        self.g.rows()
    }

    /// Current principal value of a component, if it has one.
    pub fn value_of(&self, id: ComponentId) -> Option<f64> {
        self.components.get(id.index()).and_then(|c| c.value)
    }

    /// Complex transfer function `probe / input` at angular frequency
    /// `omega` (rad/s): assembles `G + jω·B` into the reused workspace,
    /// refactors in place, and solves — no heap allocation after the
    /// first call.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Singular`] for an ill-posed system at this
    /// frequency.
    pub fn response_at(&mut self, omega: f64) -> Result<Complex64> {
        self.work.copy_from(&self.g);
        self.work.add_scaled(&self.b, Complex64::jw(omega));
        self.lu.factor_into(&self.work)?;
        self.lu.solve_into(&self.rhs, &mut self.x);
        let vp = self.probe_pos.map_or(Complex64::ZERO, |r| self.x[r]);
        let vn = self.probe_neg.map_or(Complex64::ZERO, |r| self.x[r]);
        Ok(vp - vn)
    }

    /// Sweeps `omegas` into a caller-owned buffer (cleared first): the
    /// bulk entry point that keeps the whole pipeline allocation-free.
    ///
    /// # Errors
    ///
    /// As [`AcSweepEngine::response_at`]; a singular system at any point
    /// aborts the sweep.
    pub fn sweep_into(&mut self, omegas: &[f64], out: &mut Vec<Complex64>) -> Result<()> {
        out.clear();
        out.reserve(omegas.len());
        for &w in omegas {
            out.push(self.response_at(w)?);
        }
        Ok(())
    }

    /// Sweeps a frequency grid into a fresh [`AcSweep`].
    ///
    /// # Errors
    ///
    /// As [`AcSweepEngine::sweep_into`].
    pub fn sweep(&mut self, grid: &FrequencyGrid) -> Result<AcSweep> {
        let mut values = Vec::with_capacity(grid.len());
        self.sweep_into(grid.frequencies(), &mut values)?;
        Ok(AcSweep::from_raw(grid.frequencies().to_vec(), values))
    }

    /// Sweeps a whole batch of single-component deviations in one pass —
    /// the offline-phase hot loop behind `FaultDictionary::build`.
    ///
    /// Every parametric deviation of one component is a **rank-1 update**
    /// `A(ω) + c(ω)·u·vᵀ` of the nominal system (the `u`/`v` factors are
    /// the component's stamp pattern, `c(ω)` its mapped value delta, times
    /// `jω` for reactive elements). Per grid point this method therefore
    /// factors the nominal system **once**, takes one extra solve per
    /// *distinct component*, and prices every deviation of that component
    /// in O(1) by the Sherman–Morrison identity
    ///
    /// ```text
    /// H = s₀ − c·(vᵀx₀) / (1 + c·vᵀA⁻¹u) · (pᵀA⁻¹u)
    /// ```
    ///
    /// (`x₀` the nominal solution, `p` the probe read vector). For the
    /// paper's 7-component × 8-deviation universe that is 8 solves per
    /// grid point instead of 56 factorizations. The result is
    /// algebraically identical to restamp-and-solve and agrees with the
    /// reference path within the property-test bound; outputs are
    /// deterministic and independent of how callers chunk `faults`.
    ///
    /// `golden` receives the nominal response at every frequency; `out`
    /// is filled fault-major (`out[f * omegas.len() + w]`). Outstanding
    /// restamps are respected: deviations are relative to the engine's
    /// *current* values.
    ///
    /// # Errors
    ///
    /// Validates every fault as [`AcSweepEngine::restamp_component`]
    /// does; returns [`CircuitError::Singular`] when the *nominal* system
    /// is singular at some grid point and [`CircuitError::SingularFault`]
    /// (identifying the batch index and frequency) when a *deviated*
    /// system is — healthy entries are never blamed for a sick one.
    pub fn sweep_faults_into(
        &mut self,
        omegas: &[f64],
        faults: &[(ComponentId, f64)],
        golden: &mut Vec<Complex64>,
        out: &mut Vec<Complex64>,
    ) -> Result<()> {
        let dim = self.dim();
        // Validate faults; map each to (unique-component slot, mapped
        // value delta, reactive?).
        let mut uniq: Vec<usize> = Vec::new();
        let mut fault_info: Vec<(usize, f64, bool)> = Vec::with_capacity(faults.len());
        for &(id, value) in faults {
            let (idx, m, in_b) = self.fault_update(id, value)?;
            let slot = uniq.iter().position(|&c| c == idx).unwrap_or_else(|| {
                uniq.push(idx);
                uniq.len() - 1
            });
            fault_info.push((slot, m, in_b));
        }

        // Dense u columns, one per distinct component (frequency-free).
        // Accumulated, not assigned: a degenerate stamp with both
        // terminals on one node (e.g. a VCCS output across `d`,`d`) has
        // u-entries that must cancel to zero, as they do in the outer-
        // product entries the restamp path uses.
        let mut ucols = vec![Complex64::ZERO; uniq.len() * dim];
        for (slot, &idx) in uniq.iter().enumerate() {
            for &(row, sign) in &self.components[idx].stamp.u {
                ucols[slot * dim + row] += Complex64::from_real(sign);
            }
        }

        golden.clear();
        golden.reserve(omegas.len());
        out.clear();
        out.resize(faults.len() * omegas.len(), Complex64::ZERO);
        let mut y: Vec<Complex64> = Vec::with_capacity(dim);
        // Per-slot (s₁, s₂, s₃) scalars of the current frequency.
        let mut scalars = vec![(Complex64::ZERO, Complex64::ZERO, Complex64::ZERO); uniq.len()];

        for (wi, &w) in omegas.iter().enumerate() {
            self.work.copy_from(&self.g);
            self.work.add_scaled(&self.b, Complex64::jw(w));
            self.lu.factor_into(&self.work)?;
            self.lu.solve_into(&self.rhs, &mut self.x);
            let s0 = self.probe_pos.map_or(Complex64::ZERO, |r| self.x[r])
                - self.probe_neg.map_or(Complex64::ZERO, |r| self.x[r]);
            golden.push(s0);
            for (slot, &idx) in uniq.iter().enumerate() {
                self.lu
                    .solve_into(&ucols[slot * dim..(slot + 1) * dim], &mut y);
                let v = &self.components[idx].stamp.v;
                let s3 = self.probe_pos.map_or(Complex64::ZERO, |r| y[r])
                    - self.probe_neg.map_or(Complex64::ZERO, |r| y[r]);
                scalars[slot] = (sparse_dot(v, &self.x), sparse_dot(v, &y), s3);
            }
            for (fi, &(slot, m, in_b)) in fault_info.iter().enumerate() {
                let c = if in_b {
                    Complex64::jw(w).scale(m)
                } else {
                    Complex64::from_real(m)
                };
                let (s1, s2, s3) = scalars[slot];
                let denom = Complex64::ONE + c * s2;
                if denom.abs() <= 1e-13 * (1.0 + (c * s2).abs()) {
                    // The deviated system is (numerically) singular here;
                    // identify the offending batch entry instead of
                    // poisoning the whole batch with a blind error.
                    return Err(CircuitError::SingularFault {
                        fault: fi,
                        omega: w,
                    });
                }
                out[fi * omegas.len() + wi] = s0 - c * s1 / denom * s3;
            }
        }
        Ok(())
    }

    /// Validates one batch deviation exactly as
    /// [`AcSweepEngine::restamp_component`] does and maps it to its
    /// update data: the component index, the mapped value delta `m`
    /// (`1/value − 1/old` for resistors, `value − old` otherwise), and
    /// whether the stamp lives in the susceptance part `B`.
    fn fault_update(&self, id: ComponentId, value: f64) -> Result<(usize, f64, bool)> {
        let idx = id.index();
        let Some(comp) = self.components.get(idx) else {
            return Err(CircuitError::UnknownComponent(format!("component #{idx}")));
        };
        let Some(old) = comp.value else {
            return Err(CircuitError::InvalidValue {
                component: comp.name.clone(),
                value,
                reason: "component has no principal value to deviate",
            });
        };
        if !value.is_finite() || (comp.must_be_positive && value <= 0.0) {
            return Err(CircuitError::InvalidValue {
                component: comp.name.clone(),
                value,
                reason: if comp.must_be_positive {
                    "value must be positive and finite"
                } else {
                    "value must be finite"
                },
            });
        }
        let m = match comp.stamp.map {
            ValueMap::Inverse => 1.0 / value - 1.0 / old,
            ValueMap::Linear => value - old,
        };
        Ok((idx, m, comp.stamp.in_b))
    }

    /// Sweeps a whole batch of **multi-faults** (simultaneous deviations
    /// of `k` distinct components) in one pass — the Woodbury (rank-k)
    /// generalisation of [`AcSweepEngine::sweep_faults_into`] and the
    /// offline-phase hot loop behind multi-fault dictionaries.
    ///
    /// An order-`k` multi-fault deviates the nominal system by a rank-k
    /// update `A(ω) + U·C·Vᵀ` (`U`/`V` the stamp factors of the touched
    /// components, `C = diag(c₁…c_k)` the mapped value deltas, times `jω`
    /// for reactive elements). Per grid point this method factors the
    /// nominal system **once**, takes one extra solve per *distinct
    /// component across the whole batch* (the shared `U`-columns), and
    /// prices each multi-fault with one k×k dense complex solve of the
    /// Woodbury capacitance system
    ///
    /// ```text
    /// (I_k + C·Vᵀ A⁻¹ U) · w = C·Vᵀ x₀,   H = s₀ − pᵀ A⁻¹ U · w
    /// ```
    ///
    /// (`x₀` the nominal solution, `p` the probe read vector, the k×k
    /// solve via [`Lu::solve_dense_into`]). For k = 1 this reduces
    /// algebraically to the Sherman–Morrison identity of the rank-1
    /// sweep. `MultiFault::apply` (clone + reassemble, in `ft-faults`)
    /// stays as the oracle this path is property-tested against.
    ///
    /// `golden` receives the nominal response at every frequency; `out`
    /// is filled fault-major (`out[f * omegas.len() + w]`). An empty
    /// tuple is priced as the golden response (a rank-0 update).
    /// Outstanding restamps are respected, and outputs are deterministic
    /// and independent of how callers chunk `multifaults`.
    ///
    /// # Errors
    ///
    /// Validates every deviation as [`AcSweepEngine::restamp_component`]
    /// does, plus [`CircuitError::InvalidValue`] when one tuple deviates
    /// the same component twice; returns [`CircuitError::Singular`] when
    /// the nominal system is singular at some grid point and
    /// [`CircuitError::SingularFault`] (batch index + frequency) when a
    /// deviated system is.
    pub fn sweep_multifaults_into(
        &mut self,
        omegas: &[f64],
        multifaults: &[Vec<(ComponentId, f64)>],
        golden: &mut Vec<Complex64>,
        out: &mut Vec<Complex64>,
    ) -> Result<()> {
        let dim = self.dim();
        // Validate every deviation; map each tuple to (unique-component
        // slot, mapped value delta, reactive?) triples.
        let mut uniq: Vec<usize> = Vec::new();
        let mut tuples: Vec<Vec<(usize, f64, bool)>> = Vec::with_capacity(multifaults.len());
        for mf in multifaults {
            let mut infos = Vec::with_capacity(mf.len());
            for (j, &(id, value)) in mf.iter().enumerate() {
                let (idx, m, in_b) = self.fault_update(id, value)?;
                if mf[..j].iter().any(|&(prev, _)| prev == id) {
                    return Err(CircuitError::InvalidValue {
                        component: self.components[idx].name.clone(),
                        value,
                        reason: "duplicate component in multi-fault",
                    });
                }
                let slot = uniq.iter().position(|&c| c == idx).unwrap_or_else(|| {
                    uniq.push(idx);
                    uniq.len() - 1
                });
                infos.push((slot, m, in_b));
            }
            tuples.push(infos);
        }
        let k_u = uniq.len();

        // Dense U columns, one per distinct component (accumulated so
        // degenerate same-node stamps cancel — see sweep_faults_into).
        let mut ucols = vec![Complex64::ZERO; k_u * dim];
        for (slot, &idx) in uniq.iter().enumerate() {
            for &(row, sign) in &self.components[idx].stamp.u {
                ucols[slot * dim + row] += Complex64::from_real(sign);
            }
        }

        golden.clear();
        golden.reserve(omegas.len());
        out.clear();
        out.resize(multifaults.len() * omegas.len(), Complex64::ZERO);

        // Per-frequency slot data: y_s = A⁻¹u_s (stacked in `ys`), probe
        // reads p_s = pᵀy_s, projections t_s = v_sᵀx₀, and the Gram
        // matrix S[i·k_u + j] = v_iᵀ y_j.
        let mut ys = vec![Complex64::ZERO; k_u * dim];
        let mut y: Vec<Complex64> = Vec::with_capacity(dim);
        let mut p = vec![Complex64::ZERO; k_u];
        let mut t = vec![Complex64::ZERO; k_u];
        let mut gram = vec![Complex64::ZERO; k_u * k_u];
        // Reused k×k Woodbury capacitance systems, one per tuple order
        // seen, so mixed-order batches also stay allocation-free after
        // the first frequency.
        let max_k = tuples.iter().map(Vec::len).max().unwrap_or(0);
        let mut cap_ws: Vec<Option<(CMatrix, Lu<Complex64>)>> = vec![None; max_k + 1];
        let mut rhs_small: Vec<Complex64> = Vec::new();
        let mut w_small: Vec<Complex64> = Vec::new();

        for (wi, &w) in omegas.iter().enumerate() {
            self.work.copy_from(&self.g);
            self.work.add_scaled(&self.b, Complex64::jw(w));
            self.lu.factor_into(&self.work)?;
            self.lu.solve_into(&self.rhs, &mut self.x);
            let s0 = self.probe_pos.map_or(Complex64::ZERO, |r| self.x[r])
                - self.probe_neg.map_or(Complex64::ZERO, |r| self.x[r]);
            golden.push(s0);
            for (slot, &idx) in uniq.iter().enumerate() {
                self.lu
                    .solve_into(&ucols[slot * dim..(slot + 1) * dim], &mut y);
                p[slot] = self.probe_pos.map_or(Complex64::ZERO, |r| y[r])
                    - self.probe_neg.map_or(Complex64::ZERO, |r| y[r]);
                t[slot] = sparse_dot(&self.components[idx].stamp.v, &self.x);
                ys[slot * dim..(slot + 1) * dim].copy_from_slice(&y);
            }
            for (i, &idx) in uniq.iter().enumerate() {
                let v = &self.components[idx].stamp.v;
                for j in 0..k_u {
                    gram[i * k_u + j] = sparse_dot(v, &ys[j * dim..(j + 1) * dim]);
                }
            }
            for (fi, infos) in tuples.iter().enumerate() {
                let k = infos.len();
                if k == 0 {
                    out[fi * omegas.len() + wi] = s0;
                    continue;
                }
                let (cap, cap_lu) =
                    cap_ws[k].get_or_insert_with(|| (CMatrix::zeros(k, k), Lu::workspace(k)));
                rhs_small.clear();
                // Conditioning scale: Π over rows of (1 + Σ|c_a·S_ab|),
                // the rank-k analogue of the Sherman–Morrison check
                // |1 + c·s₂| ≤ 1e-13·(1 + |c·s₂|) (equal to it at k=1).
                let mut scale = 1.0_f64;
                for (a, &(slot_a, m, in_b)) in infos.iter().enumerate() {
                    let c = if in_b {
                        Complex64::jw(w).scale(m)
                    } else {
                        Complex64::from_real(m)
                    };
                    let mut row_mag = 1.0_f64;
                    for (b, &(slot_b, _, _)) in infos.iter().enumerate() {
                        let cs = c * gram[slot_a * k_u + slot_b];
                        row_mag += cs.abs();
                        let delta = if a == b {
                            Complex64::ONE
                        } else {
                            Complex64::ZERO
                        };
                        cap[(a, b)] = delta + cs;
                    }
                    scale *= row_mag;
                    rhs_small.push(c * t[slot_a]);
                }
                let solved = cap_lu.solve_dense_into(cap, &rhs_small, &mut w_small);
                if solved.is_err() || cap_lu.det().abs() <= 1e-13 * scale {
                    // The deviated system is (numerically) singular here:
                    // det(A + U·C·Vᵀ) = det(A)·det(I + C·VᵀA⁻¹U).
                    return Err(CircuitError::SingularFault {
                        fault: fi,
                        omega: w,
                    });
                }
                let mut h = s0;
                for (&(slot_a, _, _), &wa) in infos.iter().zip(&w_small) {
                    h -= p[slot_a] * wa;
                }
                out[fi * omegas.len() + wi] = h;
            }
        }
        Ok(())
    }

    /// Sets component `id`'s principal value to `value` by updating only
    /// its touched stamp entries — the parametric-fault delta path.
    /// Returns the previous value. Restamps compose; [`AcSweepEngine::reset`]
    /// undoes all of them exactly.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownComponent`] for an id that is not
    /// part of this engine's circuit and [`CircuitError::InvalidValue`]
    /// for components without a principal value or out-of-range values
    /// (R/C/L must stay positive), mirroring `Circuit::set_value`.
    pub fn restamp_component(&mut self, id: ComponentId, value: f64) -> Result<f64> {
        let (idx, delta, in_b) = self.fault_update(id, value)?;
        let old = self.components[idx]
            .value
            .expect("validated by fault_update");
        let entries_from = self.undo_entries.len();
        for i in 0..self.components[idx].stamp.entries.len() {
            let (row, col, sign) = self.components[idx].stamp.entries[i];
            let target = if in_b { &mut self.b } else { &mut self.g };
            let prev = target[(row, col)];
            self.undo_entries.push(UndoEntry {
                in_b,
                row,
                col,
                prev,
            });
            target[(row, col)] = prev + Complex64::from_real(sign * delta);
        }
        self.undo_frames.push(UndoFrame {
            component: idx,
            prev_value: old,
            entries_from,
        });
        self.components[idx].value = Some(value);
        Ok(old)
    }

    /// Undoes every outstanding [`AcSweepEngine::restamp_component`],
    /// restoring the saved matrix entries verbatim (bit-for-bit) in
    /// reverse order — the engine is then exactly the one built from the
    /// original circuit, regardless of how many faults it has simulated.
    pub fn reset(&mut self) {
        while let Some(frame) = self.undo_frames.pop() {
            for i in (frame.entries_from..self.undo_entries.len()).rev() {
                let e = self.undo_entries[i];
                let target = if e.in_b { &mut self.b } else { &mut self.g };
                target[(e.row, e.col)] = e.prev;
            }
            self.undo_entries.truncate(frame.entries_from);
            self.components[frame.component].value = Some(frame.prev_value);
        }
    }
}

/// Resolves a probe to its matrix rows (`None` = ground, reads 0).
fn resolve_probe(
    circuit: &Circuit,
    layout: &MnaLayout,
    probe: &Probe,
) -> Result<(Option<usize>, Option<usize>)> {
    let node_of = |name: &str| {
        circuit
            .find_node(name)
            .ok_or_else(|| CircuitError::UnknownNode(name.to_string()))
    };
    match probe {
        Probe::Node(name) => Ok((layout.node_row(node_of(name)?), None)),
        Probe::Differential(p, n) => {
            Ok((layout.node_row(node_of(p)?), layout.node_row(node_of(n)?)))
        }
    }
}

/// Stamps the constant branch-voltage pattern shared by V sources,
/// inductors, VCVS, and CCVS into `g`.
fn branch_voltage_pattern(g: &mut CMatrix, layout: &MnaLayout, p: NodeId, n: NodeId, k: usize) {
    if let Some(i) = layout.node_row(p) {
        g[(i, k)] += Complex64::ONE;
        g[(k, i)] += Complex64::ONE;
    }
    if let Some(i) = layout.node_row(n) {
        g[(i, k)] -= Complex64::ONE;
        g[(k, i)] -= Complex64::ONE;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::ac::{sweep_reference, transfer};
    use crate::library::{tow_thomas_normalized, twin_t_notch};
    use ft_numerics::FrequencyGrid;

    /// The engine's response at `omegas`.
    fn sample(engine: &mut AcSweepEngine, omegas: &[f64]) -> Vec<Complex64> {
        let mut out = Vec::new();
        engine.sweep_into(omegas, &mut out).unwrap();
        out
    }

    fn rc() -> Circuit {
        let mut ckt = Circuit::new("rc");
        ckt.voltage_source("V1", "in", "0", 1.0).unwrap();
        ckt.resistor("R1", "in", "out", 1e3).unwrap();
        ckt.capacitor("C1", "out", "0", 1e-6).unwrap();
        ckt
    }

    #[test]
    fn engine_matches_analytic_rc() {
        let ckt = rc();
        let mut engine = AcSweepEngine::new(&ckt, "V1", &Probe::node("out")).unwrap();
        for &w in &[1.0, 100.0, 1000.0, 1e4, 1e6] {
            let h = engine.response_at(w).unwrap();
            let expected = Complex64::ONE / (Complex64::ONE + Complex64::jw(w * 1e-3));
            assert!((h - expected).abs() < 1e-12, "mismatch at ω={w}");
        }
    }

    #[test]
    fn engine_matches_reference_on_biquad() {
        let bench = tow_thomas_normalized(1.0).unwrap();
        let grid = FrequencyGrid::log_space(0.01, 100.0, 61);
        let mut engine = AcSweepEngine::new(&bench.circuit, &bench.input, &bench.probe).unwrap();
        let fast = engine.sweep(&grid).unwrap();
        let oracle = sweep_reference(&bench.circuit, &bench.input, &bench.probe, &grid).unwrap();
        for (a, b) in fast.values().iter().zip(oracle.values()) {
            assert!((*a - *b).abs() <= 1e-12 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn engine_handles_notch_and_differential_probe() {
        let bench = twin_t_notch().unwrap();
        let mut engine = AcSweepEngine::new(&bench.circuit, "V1", &bench.probe).unwrap();
        assert!(engine.response_at(1.0).unwrap().abs() < 1e-9);
        let mut diff =
            AcSweepEngine::new(&bench.circuit, "V1", &Probe::differential("in", "out")).unwrap();
        let h_in_out = diff.response_at(3.0).unwrap();
        let h_out = engine.response_at(3.0).unwrap();
        assert!((h_in_out - (Complex64::ONE - h_out)).abs() < 1e-12);
    }

    #[test]
    fn restamp_matches_rebuilt_circuit() {
        let bench = tow_thomas_normalized(1.0).unwrap();
        let r2 = bench.circuit.find("R2").unwrap();
        let mut engine = AcSweepEngine::new(&bench.circuit, &bench.input, &bench.probe).unwrap();
        let old = engine.restamp_component(r2, 1.3).unwrap();
        assert_eq!(old, 1.0);
        assert_eq!(engine.value_of(r2), Some(1.3));
        assert!(!engine.undo_frames.is_empty());

        let mut faulty = bench.circuit.clone();
        faulty.set_value("R2", 1.3).unwrap();
        for &w in &[0.1, 0.7, 1.0, 1.4, 10.0] {
            let a = engine.response_at(w).unwrap();
            let b = transfer(&faulty, &bench.input, &bench.probe, w).unwrap();
            assert!((a - b).abs() < 1e-12, "ω={w}: {a} vs {b}");
        }
    }

    #[test]
    fn reset_round_trips_bit_exactly() {
        let bench = tow_thomas_normalized(1.0).unwrap();
        let grid = FrequencyGrid::log_space(0.01, 100.0, 31);
        let mut engine = AcSweepEngine::new(&bench.circuit, &bench.input, &bench.probe).unwrap();
        let golden = engine.sweep(&grid).unwrap();
        // Stack several deviations (including two on the same component)
        // and undo them all.
        for (name, value) in [("R2", 1.3), ("C1", 0.6), ("R2", 0.9), ("R4", 2.0)] {
            let id = bench.circuit.find(name).unwrap();
            engine.restamp_component(id, value).unwrap();
        }
        assert!(!engine.undo_frames.is_empty());
        engine.reset();
        assert!(engine.undo_frames.is_empty());
        let back = engine.sweep(&grid).unwrap();
        // Bit-for-bit, not just within tolerance.
        assert_eq!(golden.values(), back.values());
    }

    #[test]
    fn batch_fault_sweep_matches_restamp_path() {
        // Exercise every element kind with a principal value: R, C, L,
        // E (VCVS), G (VCCS), F (CCCS), H (CCVS).
        let mut ckt = Circuit::new("menagerie");
        ckt.voltage_source("V1", "in", "0", 1.0).unwrap();
        ckt.resistor("R1", "in", "a", 1.0).unwrap();
        ckt.capacitor("C1", "a", "0", 0.5).unwrap();
        ckt.inductor("L1", "a", "b", 0.7).unwrap();
        ckt.resistor("R2", "b", "0", 2.0).unwrap();
        ckt.vcvs("E1", "c", "0", "b", "0", 1.5).unwrap();
        ckt.resistor("R3", "c", "d", 1.0).unwrap();
        ckt.vccs("G1", "d", "0", "a", "0", 0.3).unwrap();
        ckt.cccs("F1", "d", "0", "V1", 0.2).unwrap();
        ckt.ccvs("H1", "e", "0", "V1", 0.8).unwrap();
        ckt.resistor("R4", "e", "0", 1.0).unwrap();
        ckt.resistor("R5", "d", "0", 3.0).unwrap();
        let probe = Probe::node("d");

        let omegas = [0.3, 1.0, 4.0];
        let faults: Vec<(ComponentId, f64)> = [
            ("R1", 1.4),
            ("C1", 0.3),
            ("L1", 1.0),
            ("E1", 1.8),
            ("G1", 0.45),
            ("F1", 0.1),
            ("H1", 1.2),
            ("R1", 0.6), // second deviation of the same component
        ]
        .iter()
        .map(|&(name, value)| (ckt.find(name).unwrap(), value))
        .collect();

        let mut engine = AcSweepEngine::new(&ckt, "V1", &probe).unwrap();
        let mut golden = Vec::new();
        let mut out = Vec::new();
        engine
            .sweep_faults_into(&omegas, &faults, &mut golden, &mut out)
            .unwrap();
        assert_eq!(golden.len(), omegas.len());
        assert_eq!(out.len(), faults.len() * omegas.len());
        assert_eq!(golden, sample(&mut engine, &omegas));

        for (fi, &(id, value)) in faults.iter().enumerate() {
            engine.restamp_component(id, value).unwrap();
            let exact = sample(&mut engine, &omegas);
            engine.reset();
            for (wi, (a, b)) in out[fi * omegas.len()..(fi + 1) * omegas.len()]
                .iter()
                .zip(&exact)
                .enumerate()
            {
                assert!(
                    (*a - *b).abs() <= 1e-11 * (1.0 + b.abs()),
                    "fault {fi} at ω={}: {a} vs {b}",
                    omegas[wi]
                );
            }
        }
        // The batch sweep leaves the engine at nominal.
        assert!(engine.undo_frames.is_empty());
    }

    #[test]
    fn batch_fault_sweep_cancels_degenerate_same_node_stamps() {
        // A VCCS whose output terminals land on the same node stamps
        // nothing (its outer-product entries cancel); the batch sweep's
        // dense u column must cancel the same way, so deviating it
        // changes nothing on either path.
        let mut ckt = Circuit::new("degenerate");
        ckt.voltage_source("V1", "in", "0", 1.0).unwrap();
        ckt.resistor("R1", "in", "d", 1.0).unwrap();
        ckt.resistor("R2", "d", "0", 2.0).unwrap();
        ckt.vccs("G1", "d", "d", "in", "0", 0.3).unwrap();
        let mut engine = AcSweepEngine::new(&ckt, "V1", &Probe::node("d")).unwrap();
        let omegas = [0.5, 2.0];
        let nominal = sample(&mut engine, &omegas);
        let g1 = ckt.find("G1").unwrap();
        let (mut golden, mut out) = (Vec::new(), Vec::new());
        engine
            .sweep_faults_into(&omegas, &[(g1, 0.9)], &mut golden, &mut out)
            .unwrap();
        assert_eq!(golden, nominal);
        assert_eq!(out, nominal, "degenerate deviation must be a no-op");
        engine.restamp_component(g1, 0.9).unwrap();
        assert_eq!(sample(&mut engine, &omegas), nominal);
    }

    /// The menagerie circuit of `batch_fault_sweep_matches_restamp_path`:
    /// every element kind with a principal value.
    fn menagerie() -> (Circuit, Probe) {
        let mut ckt = Circuit::new("menagerie");
        ckt.voltage_source("V1", "in", "0", 1.0).unwrap();
        ckt.resistor("R1", "in", "a", 1.0).unwrap();
        ckt.capacitor("C1", "a", "0", 0.5).unwrap();
        ckt.inductor("L1", "a", "b", 0.7).unwrap();
        ckt.resistor("R2", "b", "0", 2.0).unwrap();
        ckt.vcvs("E1", "c", "0", "b", "0", 1.5).unwrap();
        ckt.resistor("R3", "c", "d", 1.0).unwrap();
        ckt.vccs("G1", "d", "0", "a", "0", 0.3).unwrap();
        ckt.cccs("F1", "d", "0", "V1", 0.2).unwrap();
        ckt.ccvs("H1", "e", "0", "V1", 0.8).unwrap();
        ckt.resistor("R4", "e", "0", 1.0).unwrap();
        ckt.resistor("R5", "d", "0", 3.0).unwrap();
        (ckt, Probe::node("d"))
    }

    #[test]
    fn multifault_sweep_matches_restamp_path() {
        let (ckt, probe) = menagerie();
        let omegas = [0.3, 1.0, 4.0];
        let tuple = |names: &[(&str, f64)]| -> Vec<(ComponentId, f64)> {
            names
                .iter()
                .map(|&(n, v)| (ckt.find(n).unwrap(), v))
                .collect()
        };
        // Doubles, a triple, a quad across G and B stamps, a rank-1
        // tuple, a tuple reusing components of earlier tuples, and an
        // empty tuple (priced as golden).
        let multifaults: Vec<Vec<(ComponentId, f64)>> = vec![
            tuple(&[("R1", 1.4), ("C1", 0.3)]),
            tuple(&[("L1", 1.0), ("E1", 1.8)]),
            tuple(&[("R2", 2.6), ("G1", 0.45), ("H1", 1.2)]),
            tuple(&[("R1", 0.6), ("C1", 0.7), ("L1", 0.5), ("F1", 0.1)]),
            tuple(&[("R5", 2.2)]),
            tuple(&[]),
        ];

        let mut engine = AcSweepEngine::new(&ckt, "V1", &probe).unwrap();
        let (mut golden, mut out) = (Vec::new(), Vec::new());
        engine
            .sweep_multifaults_into(&omegas, &multifaults, &mut golden, &mut out)
            .unwrap();
        assert_eq!(golden.len(), omegas.len());
        assert_eq!(out.len(), multifaults.len() * omegas.len());
        assert_eq!(golden, sample(&mut engine, &omegas));
        assert!(engine.undo_frames.is_empty());

        for (fi, mf) in multifaults.iter().enumerate() {
            for &(id, value) in mf {
                engine.restamp_component(id, value).unwrap();
            }
            let exact = sample(&mut engine, &omegas);
            engine.reset();
            for (wi, (a, b)) in out[fi * omegas.len()..(fi + 1) * omegas.len()]
                .iter()
                .zip(&exact)
                .enumerate()
            {
                assert!(
                    (*a - *b).abs() <= 1e-11 * (1.0 + b.abs()),
                    "multi-fault {fi} at ω={}: {a} vs {b}",
                    omegas[wi]
                );
            }
        }
    }

    #[test]
    fn multifault_sweep_reduces_to_rank1() {
        let (ckt, probe) = menagerie();
        let omegas = [0.5, 2.0];
        let faults: Vec<(ComponentId, f64)> = [("R1", 1.3), ("C1", 0.4), ("E1", 1.1)]
            .iter()
            .map(|&(n, v)| (ckt.find(n).unwrap(), v))
            .collect();
        let singles: Vec<Vec<(ComponentId, f64)>> = faults.iter().map(|&f| vec![f]).collect();
        let mut engine = AcSweepEngine::new(&ckt, "V1", &probe).unwrap();
        let (mut g1, mut rank1) = (Vec::new(), Vec::new());
        engine
            .sweep_faults_into(&omegas, &faults, &mut g1, &mut rank1)
            .unwrap();
        let (mut g2, mut rankk) = (Vec::new(), Vec::new());
        engine
            .sweep_multifaults_into(&omegas, &singles, &mut g2, &mut rankk)
            .unwrap();
        assert_eq!(g1, g2);
        for (a, b) in rank1.iter().zip(&rankk) {
            assert!(
                (*a - *b).abs() <= 1e-12 * (1.0 + b.abs()),
                "rank-1 vs Woodbury k=1: {a} vs {b}"
            );
        }
    }

    #[test]
    fn multifault_sweep_validates_like_restamp() {
        let ckt = rc();
        let mut engine = AcSweepEngine::new(&ckt, "V1", &Probe::node("out")).unwrap();
        let r1 = ckt.find("R1").unwrap();
        let c1 = ckt.find("C1").unwrap();
        let v1 = ckt.find("V1").unwrap();
        let (mut golden, mut out) = (Vec::new(), Vec::new());
        // Duplicate component within one tuple.
        assert!(matches!(
            engine
                .sweep_multifaults_into(
                    &[1.0],
                    &[vec![(r1, 2e3), (r1, 3e3)]],
                    &mut golden,
                    &mut out
                )
                .unwrap_err(),
            CircuitError::InvalidValue { .. }
        ));
        // Out-of-range value, no principal value, unknown component.
        assert!(matches!(
            engine
                .sweep_multifaults_into(
                    &[1.0],
                    &[vec![(r1, -2.0), (c1, 1e-6)]],
                    &mut golden,
                    &mut out
                )
                .unwrap_err(),
            CircuitError::InvalidValue { .. }
        ));
        assert!(matches!(
            engine
                .sweep_multifaults_into(&[1.0], &[vec![(v1, 1.0)]], &mut golden, &mut out)
                .unwrap_err(),
            CircuitError::InvalidValue { .. }
        ));
        assert!(matches!(
            engine
                .sweep_multifaults_into(
                    &[1.0],
                    &[vec![(ComponentId(42), 1.0)]],
                    &mut golden,
                    &mut out
                )
                .unwrap_err(),
            CircuitError::UnknownComponent(_)
        ));
        // The same component in *different* tuples is fine.
        engine
            .sweep_multifaults_into(
                &[1.0],
                &[vec![(r1, 2e3)], vec![(r1, 3e3), (c1, 2e-6)]],
                &mut golden,
                &mut out,
            )
            .unwrap();
    }

    /// A VCVS positive-feedback stage that is singular exactly at gain 3:
    /// node x sees `(3 − K)·v_x = v_in` with R1 = R2 = R3 = 1.
    fn feedback_gain_circuit(k: f64) -> Circuit {
        let mut ckt = Circuit::new("feedback");
        ckt.voltage_source("V1", "in", "0", 1.0).unwrap();
        ckt.resistor("R1", "in", "x", 1.0).unwrap();
        ckt.resistor("R2", "x", "0", 1.0).unwrap();
        ckt.vcvs("E1", "y", "0", "x", "0", k).unwrap();
        ckt.resistor("R3", "y", "x", 1.0).unwrap();
        // A load on the (ideal) VCVS output: its current is absorbed by
        // the E1 branch equation, so deviating R4 never moves the
        // singular point — handy for multi-fault tuples.
        ckt.resistor("R4", "y", "0", 1.0).unwrap();
        ckt
    }

    #[test]
    fn singular_deviation_is_attributed_to_its_batch_entry() {
        let ckt = feedback_gain_circuit(2.5);
        let e1 = ckt.find("E1").unwrap();
        let r1 = ckt.find("R1").unwrap();
        let mut engine = AcSweepEngine::new(&ckt, "V1", &Probe::node("x")).unwrap();
        // Healthy entries before and after the sick one (E1 → 3.0).
        let faults = [(r1, 1.2), (e1, 3.0), (r1, 0.8)];
        let (mut golden, mut out) = (Vec::new(), Vec::new());
        let err = engine
            .sweep_faults_into(&[1.0, 2.0], &faults, &mut golden, &mut out)
            .unwrap_err();
        assert_eq!(
            err,
            CircuitError::SingularFault {
                fault: 1,
                omega: 1.0
            }
        );
        // Same attribution through the Woodbury path (tuple #1 is sick:
        // R4 rides along but cannot move the singular point).
        let r4 = ckt.find("R4").unwrap();
        let multifaults = vec![vec![(r1, 1.2)], vec![(r4, 1.3), (e1, 3.0)]];
        let err = engine
            .sweep_multifaults_into(&[2.0], &multifaults, &mut golden, &mut out)
            .unwrap_err();
        assert!(
            matches!(err, CircuitError::SingularFault { fault: 1, .. }),
            "wrong attribution: {err:?}"
        );
        // The sweep errored out cleanly: the engine still answers.
        assert!(engine.undo_frames.is_empty());
        engine.response_at(1.0).unwrap();
    }

    #[test]
    fn batch_fault_sweep_validates_like_restamp() {
        let ckt = rc();
        let mut engine = AcSweepEngine::new(&ckt, "V1", &Probe::node("out")).unwrap();
        let r1 = ckt.find("R1").unwrap();
        let v1 = ckt.find("V1").unwrap();
        let (mut golden, mut out) = (Vec::new(), Vec::new());
        assert!(matches!(
            engine
                .sweep_faults_into(&[1.0], &[(r1, -2.0)], &mut golden, &mut out)
                .unwrap_err(),
            CircuitError::InvalidValue { .. }
        ));
        assert!(matches!(
            engine
                .sweep_faults_into(&[1.0], &[(v1, 1.0)], &mut golden, &mut out)
                .unwrap_err(),
            CircuitError::InvalidValue { .. }
        ));
        assert!(matches!(
            engine
                .sweep_faults_into(&[1.0], &[(ComponentId(42), 1.0)], &mut golden, &mut out)
                .unwrap_err(),
            CircuitError::UnknownComponent(_)
        ));
    }

    #[test]
    fn restamp_validation_mirrors_set_value() {
        let ckt = rc();
        let mut engine = AcSweepEngine::new(&ckt, "V1", &Probe::node("out")).unwrap();
        let r1 = ckt.find("R1").unwrap();
        let v1 = ckt.find("V1").unwrap();
        assert!(matches!(
            engine.restamp_component(r1, -1.0).unwrap_err(),
            CircuitError::InvalidValue { .. }
        ));
        assert!(matches!(
            engine.restamp_component(r1, f64::NAN).unwrap_err(),
            CircuitError::InvalidValue { .. }
        ));
        assert!(matches!(
            engine.restamp_component(v1, 2.0).unwrap_err(),
            CircuitError::InvalidValue { .. }
        ));
        assert!(matches!(
            engine.restamp_component(ComponentId(99), 1.0).unwrap_err(),
            CircuitError::UnknownComponent(_)
        ));
        // Failed restamps leave the engine untouched.
        assert!(engine.undo_frames.is_empty());
    }

    #[test]
    fn engine_rejects_bad_input_and_probe() {
        let ckt = rc();
        assert!(matches!(
            AcSweepEngine::new(&ckt, "V9", &Probe::node("out")).unwrap_err(),
            CircuitError::UnknownComponent(_)
        ));
        assert!(matches!(
            AcSweepEngine::new(&ckt, "R1", &Probe::node("out")).unwrap_err(),
            CircuitError::NotASource(_)
        ));
        assert!(matches!(
            AcSweepEngine::new(&ckt, "V1", &Probe::node("zz")).unwrap_err(),
            CircuitError::UnknownNode(_)
        ));
    }

    #[test]
    fn current_source_input_excites() {
        let mut ckt = Circuit::new("norton");
        ckt.current_source("I1", "0", "a", 1.0).unwrap();
        ckt.resistor("R1", "a", "0", 5.0).unwrap();
        let mut engine = AcSweepEngine::new(&ckt, "I1", &Probe::node("a")).unwrap();
        let h = engine.response_at(1.0).unwrap();
        assert!((h - Complex64::from_real(5.0)).abs() < 1e-12);
    }

    #[test]
    fn singular_at_frequency_reports_singular() {
        // A floating capacitor node is singular at every frequency in
        // this formulation only at DC; drive ω = 0 equivalent via a
        // disconnected node: easiest is an L-C tank resonance with zero
        // damping measured exactly at resonance (matrix stays regular),
        // so instead build a true source loop.
        let mut ckt = Circuit::new("loop");
        ckt.voltage_source("V1", "a", "0", 1.0).unwrap();
        ckt.voltage_source("V2", "a", "0", 1.0).unwrap();
        ckt.resistor("R1", "a", "0", 1.0).unwrap();
        let mut engine = AcSweepEngine::new(&ckt, "V1", &Probe::node("a")).unwrap();
        assert!(matches!(
            engine.response_at(1.0).unwrap_err(),
            CircuitError::Singular { .. }
        ));
    }
}
