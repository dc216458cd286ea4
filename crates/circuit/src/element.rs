//! Circuit element kinds and source waveforms.

use serde::{Deserialize, Serialize};

/// Time-domain waveform of an independent source (transient analysis).
///
/// AC analysis ignores the waveform: it drives the swept input with a unit
/// phasor and zeroes every other source. DC analysis uses the DC value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// `offset + amplitude·sin(2π·freq_hz·t + phase_rad)`.
    Sine {
        /// DC offset.
        offset: f64,
        /// Peak amplitude.
        amplitude: f64,
        /// Frequency in hertz.
        freq_hz: f64,
        /// Phase in radians.
        phase_rad: f64,
    },
    /// Sum of sinusoids — the multi-frequency test stimulus of the
    /// fault-trajectory method.
    MultiTone {
        /// Per-tone peak amplitudes.
        amplitudes: Vec<f64>,
        /// Per-tone frequencies in hertz.
        freqs_hz: Vec<f64>,
        /// Per-tone phases in radians.
        phases_rad: Vec<f64>,
    },
    /// Ideal step: `low` before `t0`, `high` at and after `t0`.
    Step {
        /// Value before the step.
        low: f64,
        /// Value from `t0` on.
        high: f64,
        /// Step instant in seconds.
        t0: f64,
    },
    /// Piecewise-linear waveform over `(t, v)` points; flat extrapolation
    /// outside the range.
    Pwl(Vec<(f64, f64)>),
}

impl Waveform {
    /// Evaluates the waveform at time `t` (seconds).
    pub(crate) fn eval(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Sine {
                offset,
                amplitude,
                freq_hz,
                phase_rad,
            } => offset + amplitude * (std::f64::consts::TAU * freq_hz * t + phase_rad).sin(),
            Waveform::MultiTone {
                amplitudes,
                freqs_hz,
                phases_rad,
            } => amplitudes
                .iter()
                .zip(freqs_hz)
                .zip(phases_rad)
                .map(|((&a, &f), &p)| a * (std::f64::consts::TAU * f * t + p).sin())
                .sum(),
            Waveform::Step { low, high, t0 } => {
                if t < *t0 {
                    *low
                } else {
                    *high
                }
            }
            Waveform::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                if t >= points[points.len() - 1].0 {
                    return points[points.len() - 1].1;
                }
                for w in points.windows(2) {
                    let ((t0, v0), (t1, v1)) = (w[0], w[1]);
                    if t >= t0 && t <= t1 {
                        if t1 == t0 {
                            return v1;
                        }
                        return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
                    }
                }
                points[points.len() - 1].1
            }
        }
    }
}

/// The element kind of a circuit component.
///
/// Two-terminal elements connect `[p, n]`; controlled sources connect
/// `[out_p, out_n, ctrl_p, ctrl_n]` (voltage-controlled) or `[out_p,
/// out_n]` plus a named control source (current-controlled); the ideal op
/// amp connects `[in_p, in_n, out]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Element {
    /// Resistor, value in ohms.
    Resistor {
        /// Resistance in ohms (> 0).
        r: f64,
    },
    /// Capacitor, value in farads.
    Capacitor {
        /// Capacitance in farads (> 0).
        c: f64,
    },
    /// Inductor, value in henries. Always formulated with a branch
    /// current so DC analysis (where it is a short) stays well-posed.
    Inductor {
        /// Inductance in henries (> 0).
        l: f64,
    },
    /// Independent voltage source.
    VoltageSource {
        /// DC value in volts.
        dc: f64,
        /// AC magnitude as written in the netlist (the AC sweeps drive
        /// their input with a unit phasor instead).
        ac_mag: f64,
        /// AC phase in radians.
        ac_phase: f64,
        /// Optional transient waveform; falls back to `dc` when absent.
        waveform: Option<Waveform>,
    },
    /// Independent current source; positive current flows from `p`
    /// through the source to `n`.
    CurrentSource {
        /// DC value in amperes.
        dc: f64,
        /// AC magnitude.
        ac_mag: f64,
        /// AC phase in radians.
        ac_phase: f64,
        /// Optional transient waveform; falls back to `dc` when absent.
        waveform: Option<Waveform>,
    },
    /// Voltage-controlled voltage source (SPICE `E`).
    Vcvs {
        /// Voltage gain.
        gain: f64,
    },
    /// Voltage-controlled current source (SPICE `G`).
    Vccs {
        /// Transconductance in siemens.
        gm: f64,
    },
    /// Current-controlled current source (SPICE `F`); the control current
    /// is the branch current of the named voltage source.
    Cccs {
        /// Current gain.
        gain: f64,
        /// Name of the controlling voltage source.
        control: String,
    },
    /// Current-controlled voltage source (SPICE `H`).
    Ccvs {
        /// Transresistance in ohms.
        r: f64,
        /// Name of the controlling voltage source.
        control: String,
    },
    /// Ideal op amp (nullor): infinite gain, zero input current, enforced
    /// virtual short between the inputs.
    IdealOpAmp,
}

impl Element {
    /// Number of terminals the element connects.
    pub(crate) fn terminal_count(&self) -> usize {
        match self {
            Element::Resistor { .. }
            | Element::Capacitor { .. }
            | Element::Inductor { .. }
            | Element::VoltageSource { .. }
            | Element::CurrentSource { .. }
            | Element::Cccs { .. }
            | Element::Ccvs { .. } => 2,
            Element::Vcvs { .. } | Element::Vccs { .. } => 4,
            Element::IdealOpAmp => 3,
        }
    }

    /// `true` when MNA needs a branch-current unknown for this element.
    pub(crate) fn needs_branch_current(&self) -> bool {
        matches!(
            self,
            Element::VoltageSource { .. }
                | Element::Inductor { .. }
                | Element::Vcvs { .. }
                | Element::Ccvs { .. }
                | Element::IdealOpAmp
        )
    }

    /// The *principal value* of the element — the single parameter that a
    /// parametric fault deviates (resistance, capacitance, inductance,
    /// gain, transconductance, transresistance). Independent sources and
    /// ideal op amps have none.
    pub(crate) fn principal_value(&self) -> Option<f64> {
        match self {
            Element::Resistor { r } => Some(*r),
            Element::Capacitor { c } => Some(*c),
            Element::Inductor { l } => Some(*l),
            Element::Vcvs { gain } => Some(*gain),
            Element::Vccs { gm } => Some(*gm),
            Element::Cccs { gain, .. } => Some(*gain),
            Element::Ccvs { r, .. } => Some(*r),
            Element::VoltageSource { .. } | Element::CurrentSource { .. } | Element::IdealOpAmp => {
                None
            }
        }
    }

    /// Replaces the principal value; returns `false` for elements without
    /// one.
    pub(crate) fn set_principal_value(&mut self, value: f64) -> bool {
        match self {
            Element::Resistor { r } => *r = value,
            Element::Capacitor { c } => *c = value,
            Element::Inductor { l } => *l = value,
            Element::Vcvs { gain } => *gain = value,
            Element::Vccs { gm } => *gm = value,
            Element::Cccs { gain, .. } => *gain = value,
            Element::Ccvs { r, .. } => *r = value,
            Element::VoltageSource { .. } | Element::CurrentSource { .. } | Element::IdealOpAmp => {
                return false
            }
        }
        true
    }

    /// `true` for independent (V or I) sources.
    pub(crate) fn is_independent_source(&self) -> bool {
        matches!(
            self,
            Element::VoltageSource { .. } | Element::CurrentSource { .. }
        )
    }

    /// Short human-readable kind name (`"R"`, `"C"`, `"L"`, …).
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Element::Resistor { .. } => "R",
            Element::Capacitor { .. } => "C",
            Element::Inductor { .. } => "L",
            Element::VoltageSource { .. } => "V",
            Element::CurrentSource { .. } => "I",
            Element::Vcvs { .. } => "E",
            Element::Vccs { .. } => "G",
            Element::Cccs { .. } => "F",
            Element::Ccvs { .. } => "H",
            Element::IdealOpAmp => "OA",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waveform_dc() {
        assert_eq!(Waveform::Dc(3.0).eval(0.0), 3.0);
        assert_eq!(Waveform::Dc(3.0).eval(1e9), 3.0);
    }

    #[test]
    fn waveform_sine() {
        let w = Waveform::Sine {
            offset: 1.0,
            amplitude: 2.0,
            freq_hz: 1.0,
            phase_rad: 0.0,
        };
        assert!((w.eval(0.0) - 1.0).abs() < 1e-12);
        assert!((w.eval(0.25) - 3.0).abs() < 1e-12);
        assert!((w.eval(0.75) - (-1.0)).abs() < 1e-12);
    }

    #[test]
    fn waveform_multitone_sums() {
        let w = Waveform::MultiTone {
            amplitudes: vec![1.0, 1.0],
            freqs_hz: vec![1.0, 3.0],
            phases_rad: vec![0.0, 0.0],
        };
        let expected =
            (std::f64::consts::TAU * 0.1).sin() + (std::f64::consts::TAU * 3.0 * 0.1).sin();
        assert!((w.eval(0.1) - expected).abs() < 1e-12);
    }

    #[test]
    fn waveform_step() {
        let w = Waveform::Step {
            low: 0.0,
            high: 5.0,
            t0: 1.0,
        };
        assert_eq!(w.eval(0.999), 0.0);
        assert_eq!(w.eval(1.0), 5.0);
        assert_eq!(w.eval(2.0), 5.0);
    }

    #[test]
    fn waveform_pwl() {
        let w = Waveform::Pwl(vec![(0.0, 0.0), (1.0, 10.0), (2.0, 10.0)]);
        assert_eq!(w.eval(-1.0), 0.0);
        assert_eq!(w.eval(0.5), 5.0);
        assert_eq!(w.eval(1.5), 10.0);
        assert_eq!(w.eval(5.0), 10.0);
        assert_eq!(Waveform::Pwl(vec![]).eval(1.0), 0.0);
    }

    #[test]
    fn terminal_counts() {
        assert_eq!(Element::Resistor { r: 1.0 }.terminal_count(), 2);
        assert_eq!(Element::Vcvs { gain: 1.0 }.terminal_count(), 4);
        assert_eq!(Element::IdealOpAmp.terminal_count(), 3);
        assert_eq!(
            Element::Cccs {
                gain: 1.0,
                control: "V1".into()
            }
            .terminal_count(),
            2
        );
    }

    #[test]
    fn branch_current_requirements() {
        assert!(Element::Inductor { l: 1.0 }.needs_branch_current());
        assert!(Element::IdealOpAmp.needs_branch_current());
        assert!(Element::Vcvs { gain: 2.0 }.needs_branch_current());
        assert!(!Element::Resistor { r: 1.0 }.needs_branch_current());
        assert!(!Element::Vccs { gm: 1.0 }.needs_branch_current());
    }

    #[test]
    fn principal_values() {
        let mut r = Element::Resistor { r: 100.0 };
        assert_eq!(r.principal_value(), Some(100.0));
        assert!(r.set_principal_value(120.0));
        assert_eq!(r.principal_value(), Some(120.0));

        let mut oa = Element::IdealOpAmp;
        assert_eq!(oa.principal_value(), None);
        assert!(!oa.set_principal_value(1.0));

        let v = Element::VoltageSource {
            dc: 1.0,
            ac_mag: 1.0,
            ac_phase: 0.0,
            waveform: None,
        };
        assert_eq!(v.principal_value(), None);
        assert!(v.is_independent_source());
    }

    #[test]
    fn kind_names() {
        assert_eq!(Element::Resistor { r: 1.0 }.kind(), "R");
        assert_eq!(Element::IdealOpAmp.kind(), "OA");
        assert_eq!(
            Element::Ccvs {
                r: 1.0,
                control: "V1".into()
            }
            .kind(),
            "H"
        );
    }
}
