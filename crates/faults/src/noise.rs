//! Measurement-condition models: component tolerances and instrument
//! noise.
//!
//! A deployed diagnosis never sees the textbook circuit: healthy
//! components sit anywhere inside their tolerance band and the measured
//! magnitudes carry instrument noise. These models generate the realistic
//! "unknown fault" measurements used by the Monte Carlo accuracy
//! experiments.

use ft_circuit::{sample_at, Circuit, CircuitError, Probe};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::model::ParametricFault;

/// Additive Gaussian noise on dB magnitudes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeasurementNoise {
    /// Standard deviation in dB.
    pub sigma_db: f64,
}

impl MeasurementNoise {
    /// Noise with the given dB standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_db` is negative or non-finite.
    pub fn new(sigma_db: f64) -> Self {
        assert!(
            sigma_db.is_finite() && sigma_db >= 0.0,
            "noise sigma must be non-negative and finite"
        );
        MeasurementNoise { sigma_db }
    }

    /// Noiseless measurements.
    pub fn none() -> Self {
        MeasurementNoise { sigma_db: 0.0 }
    }

    /// Perturbs one dB value.
    pub fn perturb<R: Rng + ?Sized>(&self, db: f64, rng: &mut R) -> f64 {
        if self.sigma_db == 0.0 {
            return db;
        }
        db + self.sigma_db * standard_normal(rng)
    }
}

impl Default for MeasurementNoise {
    fn default() -> Self {
        MeasurementNoise::none()
    }
}

/// Uniform component tolerance: each healthy component deviates uniformly
/// within `±pct` of nominal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Tolerance {
    /// Half-width of the tolerance band in percent.
    pub pct: f64,
}

impl Tolerance {
    /// A tolerance band of `±pct` percent.
    ///
    /// # Panics
    ///
    /// Panics if `pct` is negative, non-finite, or ≥ 100.
    pub fn new(pct: f64) -> Self {
        assert!(
            pct.is_finite() && (0.0..100.0).contains(&pct),
            "tolerance must be in [0, 100)"
        );
        Tolerance { pct }
    }

    /// Exact components (no tolerance spread).
    pub fn exact() -> Self {
        Tolerance { pct: 0.0 }
    }

    /// Draws a fractional deviation within the band.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.pct == 0.0 {
            return 0.0;
        }
        rng.gen_range(-self.pct..=self.pct) / 100.0
    }
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance::exact()
    }
}

/// Standard normal deviate via Box–Muller (the offline crate set has no
/// `rand_distr`).
pub(crate) fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}

/// Produces a realistic measurement of a circuit carrying `fault`:
/// healthy components in `tolerance_set` are spread within `tolerance`,
/// the response is sampled at `omegas`, and `noise` is added to the dB
/// magnitudes.
///
/// Returns the measured magnitudes in dB.
///
/// # Errors
///
/// Propagates simulation errors.
#[allow(clippy::too_many_arguments)]
pub fn measure_faulty<R: Rng + ?Sized>(
    circuit: &Circuit,
    fault: &ParametricFault,
    tolerance_set: &[String],
    tolerance: Tolerance,
    noise: MeasurementNoise,
    input: &str,
    probe: &Probe,
    omegas: &[f64],
    rng: &mut R,
) -> Result<Vec<f64>, CircuitError> {
    let mut instance = circuit.clone();
    // Spread healthy components.
    for name in tolerance_set {
        if name == fault.component() {
            continue;
        }
        let nominal = instance
            .value(name)?
            .ok_or_else(|| CircuitError::InvalidValue {
                component: name.clone(),
                value: f64::NAN,
                reason: "tolerance-set component has no principal value",
            })?;
        let dev = tolerance.sample(rng);
        instance.set_value(name, nominal * (1.0 + dev))?;
    }
    // Inject the fault.
    fault.apply_in_place(&mut instance)?;
    // Measure.
    let samples = sample_at(&instance, input, probe, omegas)?;
    Ok(samples
        .iter()
        .map(|v| {
            let db = ft_numerics::decibel::clamp_db(v.abs_db(), -300.0);
            noise.perturb(db, rng)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rc() -> Circuit {
        let mut ckt = Circuit::new("rc");
        ckt.voltage_source("V1", "in", "0", 1.0).unwrap();
        ckt.resistor("R1", "in", "out", 1e3).unwrap();
        ckt.capacitor("C1", "out", "0", 1e-6).unwrap();
        ckt
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn noise_perturbs_with_right_scale() {
        let mut rng = StdRng::seed_from_u64(3);
        let noise = MeasurementNoise::new(0.5);
        let n = 10_000;
        let devs: Vec<f64> = (0..n)
            .map(|_| noise.perturb(-10.0, &mut rng) + 10.0)
            .collect();
        let sd = (devs.iter().map(|d| d * d).sum::<f64>() / n as f64).sqrt();
        assert!((sd - 0.5).abs() < 0.02, "sd {sd}");
    }

    #[test]
    fn zero_noise_is_identity() {
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(MeasurementNoise::none().perturb(-7.25, &mut rng), -7.25);
        assert_eq!(MeasurementNoise::default().sigma_db, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_sigma_rejected() {
        let _ = MeasurementNoise::new(-1.0);
    }

    #[test]
    fn tolerance_band_respected() {
        let mut rng = StdRng::seed_from_u64(5);
        let tol = Tolerance::new(5.0);
        for _ in 0..500 {
            let d = tol.sample(&mut rng);
            assert!(d.abs() <= 0.05 + 1e-12);
        }
        assert_eq!(Tolerance::exact().sample(&mut rng), 0.0);
    }

    #[test]
    #[should_panic(expected = "[0, 100)")]
    fn tolerance_range_checked() {
        let _ = Tolerance::new(100.0);
    }

    #[test]
    fn measure_faulty_noiseless_matches_direct() {
        let ckt = rc();
        let mut rng = StdRng::seed_from_u64(1);
        let fault = ParametricFault::new("R1", 0.3);
        let omegas = [100.0, 1000.0];
        let measured = measure_faulty(
            &ckt,
            &fault,
            &[],
            Tolerance::exact(),
            MeasurementNoise::none(),
            "V1",
            &Probe::node("out"),
            &omegas,
            &mut rng,
        )
        .unwrap();
        let faulty = fault.apply(&ckt).unwrap();
        let direct = sample_at(&faulty, "V1", &Probe::node("out"), &omegas).unwrap();
        for (m, d) in measured.iter().zip(direct.iter()) {
            assert!((m - d.abs_db()).abs() < 1e-9);
        }
    }

    #[test]
    fn tolerances_spread_measurements() {
        let ckt = rc();
        let mut rng = StdRng::seed_from_u64(2);
        let fault = ParametricFault::new("R1", 0.3);
        let omegas = [1000.0];
        let t = Tolerance::new(5.0);
        let set = vec!["C1".to_string()];
        let a = measure_faulty(
            &ckt,
            &fault,
            &set,
            t,
            MeasurementNoise::none(),
            "V1",
            &Probe::node("out"),
            &omegas,
            &mut rng,
        )
        .unwrap();
        let b = measure_faulty(
            &ckt,
            &fault,
            &set,
            t,
            MeasurementNoise::none(),
            "V1",
            &Probe::node("out"),
            &omegas,
            &mut rng,
        )
        .unwrap();
        assert_ne!(a, b, "tolerance draws should differ");
    }

    #[test]
    fn faulty_component_not_toleranced() {
        // Including the faulted component in the tolerance set must not
        // overwrite the injected fault.
        let ckt = rc();
        let mut rng = StdRng::seed_from_u64(9);
        let fault = ParametricFault::new("R1", 0.4);
        let set = vec!["R1".to_string(), "C1".to_string()];
        let measured = measure_faulty(
            &ckt,
            &fault,
            &set,
            Tolerance::exact(),
            MeasurementNoise::none(),
            "V1",
            &Probe::node("out"),
            &[1000.0],
            &mut rng,
        )
        .unwrap();
        let faulty = fault.apply(&ckt).unwrap();
        let direct = sample_at(&faulty, "V1", &Probe::node("out"), &[1000.0]).unwrap();
        assert!((measured[0] - direct[0].abs_db()).abs() < 1e-9);
    }
}
