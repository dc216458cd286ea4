//! Rational transfer-function fitting (Levy's complex least squares).
//!
//! Recovers a closed-form `H(s) = N(s)/D(s)` from sampled frequency
//! response data — the bridge from simulated (or measured) sweeps back to
//! poles, zeros, ω₀ and Q. Levy's linearisation minimises
//! `Σ |N(jωk) − Hk·D(jωk)|²` with `D` monic, which is linear in the
//! unknown coefficients; frequencies are normalised by their geometric
//! mean before solving so the Vandermonde-like normal equations stay well
//! conditioned over multi-decade sweeps.

use ft_numerics::{Complex64, Lu, Poly, RMatrix, TransferFunction};

use crate::analysis::ac::Probe;
use crate::error::Result;
use crate::netlist::Circuit;

/// Error from rational fitting.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FitError {
    /// Fewer samples than free coefficients.
    TooFewSamples {
        /// Samples provided.
        samples: usize,
        /// Coefficients to determine.
        needed: usize,
    },
    /// The normal equations were singular (over-parameterised fit or
    /// degenerate data).
    Singular,
    /// Input slices differ in length or contain non-finite values.
    BadInput,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::TooFewSamples { samples, needed } => write!(
                f,
                "need at least {needed} samples for the requested orders, got {samples}"
            ),
            FitError::Singular => write!(f, "normal equations are singular"),
            FitError::BadInput => write!(f, "invalid sample data"),
        }
    }
}

impl std::error::Error for FitError {}

/// Fits `H(s) = N(s)/D(s)` with `deg N = num_order`, `deg D = den_order`
/// (monic denominator) to samples `values[k] = H(jω_k)`.
///
/// # Errors
///
/// Returns [`FitError`] on inconsistent input, insufficient samples, or
/// singular normal equations.
pub(crate) fn fit_rational(
    omegas: &[f64],
    values: &[Complex64],
    num_order: usize,
    den_order: usize,
) -> std::result::Result<TransferFunction, FitError> {
    if omegas.len() != values.len()
        || omegas.iter().any(|w| !w.is_finite() || *w <= 0.0)
        || values.iter().any(|v| !v.is_finite())
    {
        return Err(FitError::BadInput);
    }
    let n_params = (num_order + 1) + den_order;
    // Each complex sample yields two real equations.
    if 2 * omegas.len() < n_params {
        return Err(FitError::TooFewSamples {
            samples: omegas.len(),
            needed: n_params.div_ceil(2),
        });
    }

    // Normalise frequencies by the geometric mean for conditioning.
    let log_mean = omegas.iter().map(|w| w.ln()).sum::<f64>() / omegas.len() as f64;
    let w_scale = log_mean.exp();

    // Normal equations AᵀA·x = Aᵀy assembled sample by sample.
    let mut ata = RMatrix::zeros(n_params, n_params);
    let mut aty = vec![0.0; n_params];
    let mut row = vec![Complex64::ZERO; n_params];

    for (&w, &h) in omegas.iter().zip(values) {
        let s = Complex64::jw(w / w_scale);
        // Numerator columns: s^i.
        let mut p = Complex64::ONE;
        for item in row.iter_mut().take(num_order + 1) {
            *item = p;
            p *= s;
        }
        // Denominator columns: −H·s^i for i = 0..den_order−1.
        let mut p = Complex64::ONE;
        for item in row.iter_mut().skip(num_order + 1) {
            *item = -(h * p);
            p *= s;
        }
        // RHS: H·s^den_order.
        let y = h * s.powi(den_order as i32);

        for i in 0..n_params {
            for j in i..n_params {
                // Re(conj(a_i)·a_j) accumulates both real/imag rows.
                let v = row[i].re * row[j].re + row[i].im * row[j].im;
                ata[(i, j)] += v;
                if i != j {
                    ata[(j, i)] += v;
                }
            }
            aty[i] += row[i].re * y.re + row[i].im * y.im;
        }
    }

    let lu = Lu::factor(&ata).map_err(|_| FitError::Singular)?;
    let x = lu.solve(&aty);

    // De-normalise: coefficient of s^i was fitted against (s/w_scale)^i.
    let mut num_coeffs: Vec<f64> = x[..=num_order]
        .iter()
        .enumerate()
        .map(|(i, &c)| c / w_scale.powi(i as i32))
        .collect();
    let mut den_coeffs: Vec<f64> = x[num_order + 1..]
        .iter()
        .enumerate()
        .map(|(i, &c)| c / w_scale.powi(i as i32))
        .collect();
    den_coeffs.push(1.0 / w_scale.powi(den_order as i32)); // monic in scaled domain

    // Rescale so the true denominator is monic.
    let lead = *den_coeffs.last().expect("non-empty");
    for c in &mut num_coeffs {
        *c /= lead;
    }
    for c in &mut den_coeffs {
        *c /= lead;
    }

    Ok(TransferFunction::new(
        Poly::new(num_coeffs),
        Poly::new(den_coeffs),
    ))
}

/// Simulates `circuit` on `omegas` and fits a rational function to the
/// response — closed-form recovery from the MNA simulator.
///
/// # Errors
///
/// Propagates simulation errors; fit errors are reported as
/// [`crate::CircuitError::InvalidValue`] with the fit message.
pub fn fit_circuit(
    circuit: &Circuit,
    input: &str,
    probe: &Probe,
    omegas: &[f64],
    num_order: usize,
    den_order: usize,
) -> Result<TransferFunction> {
    let samples = crate::analysis::ac::sample_at(circuit, input, probe, omegas)?;
    fit_rational(omegas, &samples, num_order, den_order).map_err(|e| {
        crate::error::CircuitError::InvalidValue {
            component: "rational-fit".into(),
            value: f64::NAN,
            reason: match e {
                FitError::TooFewSamples { .. } => "too few samples for fit",
                FitError::Singular => "fit normal equations singular",
                FitError::BadInput => "invalid fit input",
            },
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::{tow_thomas, tow_thomas_normalized, TowThomasParams};
    use ft_numerics::FrequencyGrid;

    fn grid() -> Vec<f64> {
        FrequencyGrid::log_space(0.01, 100.0, 61)
            .frequencies()
            .to_vec()
    }

    /// Largest relative error of `tf` against the samples.
    fn max_rel_error(tf: &TransferFunction, omegas: &[f64], values: &[Complex64]) -> f64 {
        omegas
            .iter()
            .zip(values)
            .map(|(&w, &h)| (tf.eval_jw(w) - h).abs() / h.abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn fits_first_order_rc_exactly() {
        // H = 1/(1 + s·RC), RC = 1e-3.
        let omegas: Vec<f64> = FrequencyGrid::log_space(1.0, 1e6, 41)
            .frequencies()
            .to_vec();
        let values: Vec<Complex64> = omegas
            .iter()
            .map(|&w| Complex64::ONE / (Complex64::ONE + Complex64::jw(w * 1e-3)))
            .collect();
        let tf = fit_rational(&omegas, &values, 0, 1).unwrap();
        assert!(max_rel_error(&tf, &omegas, &values) < 1e-9);
        // Pole at −1000 rad/s.
        let poles = tf.poles();
        assert_eq!(poles.len(), 1);
        assert!((poles[0].re + 1000.0).abs() < 1e-6);
    }

    #[test]
    fn recovers_tow_thomas_descriptors_from_simulation() {
        let bench = tow_thomas_normalized(1.0).unwrap();
        let omegas = grid();
        let tf = fit_circuit(&bench.circuit, "V1", &bench.probe, &omegas, 0, 2).unwrap();
        let so = tf.second_order_descriptors().expect("second order");
        assert!((so.w0 - 1.0).abs() < 1e-6, "w0 {}", so.w0);
        assert!((so.q - 1.0).abs() < 1e-6, "q {}", so.q);
        assert!((tf.dc_gain() - 1.0).abs() < 1e-6, "k {}", tf.dc_gain());
        assert!(tf.is_stable());
    }

    #[test]
    fn recovers_shifted_parameters_after_fault() {
        // +30% on R4 scales ω0 by 1/√1.3 and leaves the DC gain alone.
        let mut params = TowThomasParams::normalized(1.0);
        params.r4 = 1.3;
        let ckt = tow_thomas(&params).unwrap();
        let omegas = grid();
        let tf = fit_circuit(&ckt, "V1", &Probe::node("lp"), &omegas, 0, 2).unwrap();
        let so = tf.second_order_descriptors().unwrap();
        assert!((so.w0 - 1.0 / 1.3f64.sqrt()).abs() < 1e-6, "w0 {}", so.w0);
        assert!((tf.dc_gain() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn fits_bandpass_with_numerator_zero() {
        let bench = tow_thomas_normalized(2.0).unwrap();
        let omegas = grid();
        let tf = fit_circuit(&bench.circuit, "V1", &Probe::node("bp"), &omegas, 1, 2).unwrap();
        // Band-pass numerator ∝ s: constant term ≈ 0.
        let n = tf.num().coeffs();
        assert!(n[0].abs() < 1e-6 * n[1].abs(), "numerator {n:?}");
        let samples =
            crate::analysis::ac::sample_at(&bench.circuit, "V1", &Probe::node("bp"), &omegas)
                .unwrap();
        assert!(max_rel_error(&tf, &omegas, &samples) < 1e-6);
    }

    #[test]
    fn too_few_samples_rejected() {
        let err = fit_rational(&[1.0], &[Complex64::ONE], 2, 3).unwrap_err();
        assert!(matches!(err, FitError::TooFewSamples { .. }));
        assert!(err.to_string().contains("samples"));
    }

    #[test]
    fn bad_input_rejected() {
        assert_eq!(
            fit_rational(&[1.0, 2.0], &[Complex64::ONE], 0, 1).unwrap_err(),
            FitError::BadInput
        );
        assert_eq!(
            fit_rational(&[-1.0, 2.0], &[Complex64::ONE, Complex64::ONE], 0, 1).unwrap_err(),
            FitError::BadInput
        );
        assert_eq!(
            fit_rational(
                &[1.0, 2.0],
                &[Complex64::new(f64::NAN, 0.0), Complex64::ONE],
                0,
                1
            )
            .unwrap_err(),
            FitError::BadInput
        );
    }
}
