//! Circuit representation and builder API.
//!
//! A [`Circuit`] owns a set of named nodes (node `"0"` is ground) and named
//! components. Builder methods create nodes on first use, so a netlist is
//! written linearly, SPICE-style:
//!
//! ```
//! use ft_circuit::Circuit;
//!
//! let mut ckt = Circuit::new("rc-lowpass");
//! ckt.voltage_source("V1", "in", "0", 1.0)?;
//! ckt.resistor("R1", "in", "out", 1_000.0)?;
//! ckt.capacitor("C1", "out", "0", 1e-6)?;
//! assert_eq!(ckt.component_count(), 3);
//! # Ok::<(), ft_circuit::CircuitError>(())
//! ```

use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::element::{Element, Waveform};
use crate::error::{CircuitError, Result};

/// Identifier of a node within one [`Circuit`]. Index 0 is ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Raw index (0 = ground).
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0
    }

    /// `true` for the ground node.
    #[inline]
    pub(crate) fn is_ground(self) -> bool {
        self.0 == 0
    }
}

/// Identifier of a component within one [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ComponentId(pub(crate) usize);

impl ComponentId {
    /// Raw index into the circuit's component list.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// A named, placed element.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Component {
    name: String,
    element: Element,
    nodes: Vec<NodeId>,
}

impl Component {
    /// Component name (unique within the circuit).
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The element kind and parameters.
    #[inline]
    pub fn element(&self) -> &Element {
        &self.element
    }

    /// Connected nodes in element-specific order.
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }
}

/// A complete circuit: nodes, components, and name indices.
///
/// Node `"0"` (alias `"gnd"`) is the ground reference and always exists.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Circuit {
    name: String,
    /// Node names; index 0 is ground.
    nodes: Vec<String>,
    #[serde(skip)]
    node_index: HashMap<String, NodeId>,
    components: Vec<Component>,
    #[serde(skip)]
    component_index: HashMap<String, ComponentId>,
    /// Counter for auto-generated internal node names.
    internal_counter: usize,
}

impl Circuit {
    /// Creates an empty circuit with only the ground node.
    pub fn new(name: impl Into<String>) -> Self {
        let mut node_index = HashMap::new();
        node_index.insert("0".to_string(), NodeId(0));
        Circuit {
            name: name.into(),
            nodes: vec!["0".to_string()],
            node_index,
            components: Vec::new(),
            component_index: HashMap::new(),
            internal_counter: 0,
        }
    }

    /// Circuit name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes including ground.
    #[inline]
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of components.
    #[inline]
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// All components in insertion order.
    #[inline]
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Resolves a node name (creating it if new). `"0"`, `"gnd"` and
    /// `"GND"` all map to ground.
    pub(crate) fn node(&mut self, name: &str) -> NodeId {
        let canonical = Self::canonical_node_name(name);
        if let Some(&id) = self.node_index.get(canonical.as_ref()) {
            return id;
        }
        let id = NodeId(self.nodes.len());
        self.nodes.push(canonical.to_string());
        self.node_index.insert(canonical.into_owned(), id);
        id
    }

    /// Looks up an existing node by name.
    pub(crate) fn find_node(&self, name: &str) -> Option<NodeId> {
        let canonical = Self::canonical_node_name(name);
        self.node_index.get(canonical.as_ref()).copied()
    }

    /// Name of a node.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.nodes[id.0]
    }

    fn canonical_node_name(name: &str) -> std::borrow::Cow<'_, str> {
        if name.eq_ignore_ascii_case("gnd") {
            std::borrow::Cow::Borrowed("0")
        } else {
            std::borrow::Cow::Borrowed(name)
        }
    }

    fn insert(&mut self, name: &str, element: Element, nodes: Vec<NodeId>) -> Result<ComponentId> {
        if self.component_index.contains_key(name) {
            return Err(CircuitError::DuplicateComponent(name.to_string()));
        }
        let expected = element.terminal_count();
        let actual = nodes.len();
        if expected != actual {
            return Err(CircuitError::TerminalMismatch {
                component: name.to_string(),
                expected,
                actual,
            });
        }
        let id = ComponentId(self.components.len());
        self.components.push(Component {
            name: name.to_string(),
            element,
            nodes,
        });
        self.component_index.insert(name.to_string(), id);
        Ok(id)
    }

    fn check_positive(name: &str, value: f64, what: &'static str) -> Result<()> {
        if !value.is_finite() || value <= 0.0 {
            return Err(CircuitError::InvalidValue {
                component: name.to_string(),
                value,
                reason: what,
            });
        }
        Ok(())
    }

    fn check_finite(name: &str, value: f64, what: &'static str) -> Result<()> {
        if !value.is_finite() {
            return Err(CircuitError::InvalidValue {
                component: name.to_string(),
                value,
                reason: what,
            });
        }
        Ok(())
    }

    /// Adds a resistor of `r` ohms between `p` and `n`.
    ///
    /// # Errors
    ///
    /// Returns an error if the name is taken or `r` is not positive/finite.
    pub fn resistor(&mut self, name: &str, p: &str, n: &str, r: f64) -> Result<ComponentId> {
        Self::check_positive(name, r, "resistance must be positive and finite")?;
        let nodes = vec![self.node(p), self.node(n)];
        self.insert(name, Element::Resistor { r }, nodes)
    }

    /// Adds a capacitor of `c` farads between `p` and `n`.
    ///
    /// # Errors
    ///
    /// Returns an error if the name is taken or `c` is not positive/finite.
    pub fn capacitor(&mut self, name: &str, p: &str, n: &str, c: f64) -> Result<ComponentId> {
        Self::check_positive(name, c, "capacitance must be positive and finite")?;
        let nodes = vec![self.node(p), self.node(n)];
        self.insert(name, Element::Capacitor { c }, nodes)
    }

    /// Adds an inductor of `l` henries between `p` and `n`.
    ///
    /// # Errors
    ///
    /// Returns an error if the name is taken or `l` is not positive/finite.
    pub fn inductor(&mut self, name: &str, p: &str, n: &str, l: f64) -> Result<ComponentId> {
        Self::check_positive(name, l, "inductance must be positive and finite")?;
        let nodes = vec![self.node(p), self.node(n)];
        self.insert(name, Element::Inductor { l }, nodes)
    }

    /// Adds an independent voltage source with equal DC and AC magnitude
    /// `value` (the common test-bench case).
    ///
    /// # Errors
    ///
    /// Returns an error if the name is taken or `value` is not finite.
    pub fn voltage_source(
        &mut self,
        name: &str,
        p: &str,
        n: &str,
        value: f64,
    ) -> Result<ComponentId> {
        Self::check_finite(name, value, "source value must be finite")?;
        let nodes = vec![self.node(p), self.node(n)];
        self.insert(
            name,
            Element::VoltageSource {
                dc: value,
                ac_mag: value,
                ac_phase: 0.0,
                waveform: None,
            },
            nodes,
        )
    }

    /// Adds an independent voltage source with distinct DC / AC settings
    /// and an optional transient waveform.
    ///
    /// # Errors
    ///
    /// Returns an error if the name is taken or any value is not finite.
    #[allow(clippy::too_many_arguments)]
    pub fn voltage_source_full(
        &mut self,
        name: &str,
        p: &str,
        n: &str,
        dc: f64,
        ac_mag: f64,
        ac_phase: f64,
        waveform: Option<Waveform>,
    ) -> Result<ComponentId> {
        Self::check_finite(name, dc, "source DC value must be finite")?;
        Self::check_finite(name, ac_mag, "source AC magnitude must be finite")?;
        Self::check_finite(name, ac_phase, "source AC phase must be finite")?;
        let nodes = vec![self.node(p), self.node(n)];
        self.insert(
            name,
            Element::VoltageSource {
                dc,
                ac_mag,
                ac_phase,
                waveform,
            },
            nodes,
        )
    }

    /// Adds an independent current source; positive current flows from
    /// `p` through the source to `n`.
    ///
    /// # Errors
    ///
    /// Returns an error if the name is taken or `value` is not finite.
    pub(crate) fn current_source(
        &mut self,
        name: &str,
        p: &str,
        n: &str,
        value: f64,
    ) -> Result<ComponentId> {
        Self::check_finite(name, value, "source value must be finite")?;
        let nodes = vec![self.node(p), self.node(n)];
        self.insert(
            name,
            Element::CurrentSource {
                dc: value,
                ac_mag: value,
                ac_phase: 0.0,
                waveform: None,
            },
            nodes,
        )
    }

    /// Adds a voltage-controlled voltage source (`out_p/out_n` driven by
    /// `gain · (V(ctrl_p) − V(ctrl_n))`).
    ///
    /// # Errors
    ///
    /// Returns an error if the name is taken or `gain` is not finite.
    pub fn vcvs(
        &mut self,
        name: &str,
        out_p: &str,
        out_n: &str,
        ctrl_p: &str,
        ctrl_n: &str,
        gain: f64,
    ) -> Result<ComponentId> {
        Self::check_finite(name, gain, "gain must be finite")?;
        let nodes = vec![
            self.node(out_p),
            self.node(out_n),
            self.node(ctrl_p),
            self.node(ctrl_n),
        ];
        self.insert(name, Element::Vcvs { gain }, nodes)
    }

    /// Adds a voltage-controlled current source (transconductance `gm`).
    ///
    /// # Errors
    ///
    /// Returns an error if the name is taken or `gm` is not finite.
    pub(crate) fn vccs(
        &mut self,
        name: &str,
        out_p: &str,
        out_n: &str,
        ctrl_p: &str,
        ctrl_n: &str,
        gm: f64,
    ) -> Result<ComponentId> {
        Self::check_finite(name, gm, "transconductance must be finite")?;
        let nodes = vec![
            self.node(out_p),
            self.node(out_n),
            self.node(ctrl_p),
            self.node(ctrl_n),
        ];
        self.insert(name, Element::Vccs { gm }, nodes)
    }

    /// Adds a current-controlled current source; the control current is
    /// the branch current of voltage source `control`.
    ///
    /// # Errors
    ///
    /// Returns an error if the name is taken or `gain` is not finite. The
    /// control reference is validated at analysis time.
    pub(crate) fn cccs(
        &mut self,
        name: &str,
        out_p: &str,
        out_n: &str,
        control: &str,
        gain: f64,
    ) -> Result<ComponentId> {
        Self::check_finite(name, gain, "gain must be finite")?;
        let nodes = vec![self.node(out_p), self.node(out_n)];
        self.insert(
            name,
            Element::Cccs {
                gain,
                control: control.to_string(),
            },
            nodes,
        )
    }

    /// Adds a current-controlled voltage source (transresistance `r`).
    ///
    /// # Errors
    ///
    /// Returns an error if the name is taken or `r` is not finite.
    pub(crate) fn ccvs(
        &mut self,
        name: &str,
        out_p: &str,
        out_n: &str,
        control: &str,
        r: f64,
    ) -> Result<ComponentId> {
        Self::check_finite(name, r, "transresistance must be finite")?;
        let nodes = vec![self.node(out_p), self.node(out_n)];
        self.insert(
            name,
            Element::Ccvs {
                r,
                control: control.to_string(),
            },
            nodes,
        )
    }

    /// Adds an ideal op amp (`in_p`, `in_n`, `out`): zero input current,
    /// virtual short between the inputs, unlimited output drive.
    ///
    /// # Errors
    ///
    /// Returns an error if the name is taken.
    pub fn ideal_opamp(
        &mut self,
        name: &str,
        in_p: &str,
        in_n: &str,
        out: &str,
    ) -> Result<ComponentId> {
        let nodes = vec![self.node(in_p), self.node(in_n), self.node(out)];
        self.insert(name, Element::IdealOpAmp, nodes)
    }

    /// Looks up a component by name.
    pub fn find(&self, name: &str) -> Option<ComponentId> {
        self.component_index.get(name).copied()
    }

    /// Component by id.
    pub(crate) fn component(&self, id: ComponentId) -> &Component {
        &self.components[id.0]
    }

    /// Component by name.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownComponent`] when absent.
    pub fn component_by_name(&self, name: &str) -> Result<&Component> {
        self.find(name)
            .map(|id| self.component(id))
            .ok_or_else(|| CircuitError::UnknownComponent(name.to_string()))
    }

    /// Principal value of a named component (see
    /// `Element::principal_value`).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownComponent`] when absent.
    pub fn value(&self, name: &str) -> Result<Option<f64>> {
        Ok(self.component_by_name(name)?.element.principal_value())
    }

    /// Overwrites the principal value of a named component — the fault
    /// injection primitive.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownComponent`] when the component does
    /// not exist, and [`CircuitError::InvalidValue`] when it has no
    /// principal value or `value` is not finite (R/C/L must stay
    /// positive).
    pub fn set_value(&mut self, name: &str, value: f64) -> Result<()> {
        let id = self
            .find(name)
            .ok_or_else(|| CircuitError::UnknownComponent(name.to_string()))?;
        let element = &mut self.components[id.0].element;
        let must_be_positive = matches!(
            element,
            Element::Resistor { .. } | Element::Capacitor { .. } | Element::Inductor { .. }
        );
        if !value.is_finite() || (must_be_positive && value <= 0.0) {
            return Err(CircuitError::InvalidValue {
                component: name.to_string(),
                value,
                reason: if must_be_positive {
                    "value must be positive and finite"
                } else {
                    "value must be finite"
                },
            });
        }
        if !element.set_principal_value(value) {
            return Err(CircuitError::InvalidValue {
                component: name.to_string(),
                value,
                reason: "element has no principal value to set",
            });
        }
        Ok(())
    }

    /// Overwrites the DC value of an independent source (used, e.g., to
    /// pin the `t = 0` operating point before a transient run).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownComponent`] when absent and
    /// [`CircuitError::NotASource`] for non-source components.
    pub(crate) fn set_source_dc(&mut self, name: &str, value: f64) -> Result<()> {
        let id = self
            .find(name)
            .ok_or_else(|| CircuitError::UnknownComponent(name.to_string()))?;
        match &mut self.components[id.0].element {
            Element::VoltageSource { dc, .. } | Element::CurrentSource { dc, .. } => {
                *dc = value;
                Ok(())
            }
            _ => Err(CircuitError::NotASource(name.to_string())),
        }
    }

    /// Names of passive (R/C/L) components, in insertion order — the
    /// fault set used by the paper's CUT.
    pub fn passive_components(&self) -> Vec<&str> {
        self.components
            .iter()
            .filter(|c| {
                matches!(
                    c.element,
                    Element::Resistor { .. } | Element::Capacitor { .. } | Element::Inductor { .. }
                )
            })
            .map(|c| c.name())
            .collect()
    }

    /// Structural sanity checks: a ground connection exists, every node is
    /// touched by at least one component, controlled sources reference
    /// voltage sources.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<()> {
        let mut touched = vec![false; self.nodes.len()];
        for comp in &self.components {
            for node in &comp.nodes {
                touched[node.0] = true;
            }
            match &comp.element {
                Element::Cccs { control, .. } | Element::Ccvs { control, .. } => {
                    let ctrl = self
                        .find(control)
                        .ok_or_else(|| CircuitError::UnknownComponent(control.clone()))?;
                    if !matches!(self.component(ctrl).element, Element::VoltageSource { .. }) {
                        return Err(CircuitError::InvalidControl {
                            component: comp.name.clone(),
                            control: control.clone(),
                        });
                    }
                }
                _ => {}
            }
        }
        if !touched[0] {
            return Err(CircuitError::NoGround);
        }
        if let Some(idx) = touched.iter().skip(1).position(|t| !t) {
            return Err(CircuitError::UnknownNode(self.nodes[idx + 1].clone()));
        }
        Ok(())
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "* {} — {} nodes, {} components",
            self.name,
            self.node_count(),
            self.component_count()
        )?;
        for c in &self.components {
            let nodes: Vec<&str> = c.nodes.iter().map(|&n| self.node_name(n)).collect();
            writeln!(
                f,
                "{:<10} {:<4} [{}] {:?}",
                c.name,
                c.element.kind(),
                nodes.join(" "),
                c.element.principal_value()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rc() -> Circuit {
        let mut ckt = Circuit::new("rc");
        ckt.voltage_source("V1", "in", "0", 1.0).unwrap();
        ckt.resistor("R1", "in", "out", 1e3).unwrap();
        ckt.capacitor("C1", "out", "0", 1e-6).unwrap();
        ckt
    }

    #[test]
    fn builder_creates_nodes_on_demand() {
        let ckt = rc();
        assert_eq!(ckt.node_count(), 3); // 0, in, out
        assert_eq!(ckt.component_count(), 3);
        assert!(ckt.find_node("in").is_some());
        assert!(ckt.find_node("nope").is_none());
    }

    #[test]
    fn ground_aliases() {
        let mut ckt = Circuit::new("g");
        let a = ckt.node("gnd");
        let b = ckt.node("GND");
        let c = ckt.node("0");
        assert_eq!(a, NodeId(0));
        assert_eq!(b, NodeId(0));
        assert_eq!(c, NodeId(0));
        assert!(a.is_ground());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut ckt = rc();
        let err = ckt.resistor("R1", "a", "b", 1.0).unwrap_err();
        assert_eq!(err, CircuitError::DuplicateComponent("R1".into()));
    }

    #[test]
    fn invalid_values_rejected() {
        let mut ckt = Circuit::new("bad");
        assert!(ckt.resistor("R1", "a", "0", -5.0).is_err());
        assert!(ckt.resistor("R2", "a", "0", 0.0).is_err());
        assert!(ckt.resistor("R3", "a", "0", f64::NAN).is_err());
        assert!(ckt.capacitor("C1", "a", "0", -1e-9).is_err());
        assert!(ckt.inductor("L1", "a", "0", f64::INFINITY).is_err());
        assert!(ckt.voltage_source("V1", "a", "0", f64::NAN).is_err());
    }

    #[test]
    fn value_read_and_write() {
        let mut ckt = rc();
        assert_eq!(ckt.value("R1").unwrap(), Some(1e3));
        ckt.set_value("R1", 1.2e3).unwrap();
        assert_eq!(ckt.value("R1").unwrap(), Some(1.2e3));
        // Sources have no principal value.
        assert_eq!(ckt.value("V1").unwrap(), None);
        assert!(ckt.set_value("V1", 2.0).is_err());
        // R must stay positive.
        assert!(ckt.set_value("R1", -1.0).is_err());
        // Unknown name.
        assert!(matches!(
            ckt.set_value("R99", 1.0),
            Err(CircuitError::UnknownComponent(_))
        ));
    }

    #[test]
    fn passive_list_skips_controlled_sources() {
        let mut ckt = rc();
        ckt.vcvs("E1", "x", "0", "out", "0", 2.0).unwrap();
        assert_eq!(ckt.passive_components(), vec!["R1", "C1"]);
    }

    #[test]
    fn validate_passes_for_good_circuit() {
        rc().validate().unwrap();
    }

    #[test]
    fn validate_flags_missing_ground() {
        let mut ckt = Circuit::new("floating");
        ckt.resistor("R1", "a", "b", 1.0).unwrap();
        assert_eq!(ckt.validate().unwrap_err(), CircuitError::NoGround);
    }

    #[test]
    fn validate_flags_bad_control() {
        let mut ckt = rc();
        ckt.cccs("F1", "x", "0", "R1", 2.0).unwrap();
        assert!(matches!(
            ckt.validate().unwrap_err(),
            CircuitError::InvalidControl { .. }
        ));
        let mut ckt2 = rc();
        ckt2.cccs("F1", "x", "0", "V9", 2.0).unwrap();
        assert!(matches!(
            ckt2.validate().unwrap_err(),
            CircuitError::UnknownComponent(_)
        ));
    }

    #[test]
    fn ideal_opamp_added() {
        let mut ckt = Circuit::new("oa");
        ckt.ideal_opamp("U1", "inp", "inn", "out").unwrap();
        let c = ckt.component_by_name("U1").unwrap();
        assert_eq!(c.element(), &Element::IdealOpAmp);
        assert_eq!(c.nodes().len(), 3);
    }

    #[test]
    fn display_contains_components() {
        let s = rc().to_string();
        assert!(s.contains("R1"));
        assert!(s.contains("C1"));
        assert!(s.contains("rc"));
    }

    #[test]
    fn serde_round_trip_with_rebuild() {
        // Serialize via Debug-equality proxy: use serde internally.
        let ckt = rc();
        let json = serde_json_like(&ckt);
        assert!(json.contains("R1"));
    }

    // The offline set has no serde_json; the Debug rendering stands in.
    fn serde_json_like(c: &Circuit) -> String {
        format!("{c:?}")
    }

    #[test]
    fn terminal_mismatch_detected() {
        let mut ckt = Circuit::new("tm");
        let nodes = vec![ckt.node("a")];
        let err = ckt
            .insert("R1", Element::Resistor { r: 1.0 }, nodes)
            .unwrap_err();
        assert!(matches!(err, CircuitError::TerminalMismatch { .. }));
    }
}
