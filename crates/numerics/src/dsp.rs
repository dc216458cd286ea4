//! Signal-processing helpers for the time-domain measurement path.
//!
//! When the test stimulus is applied as a real multi-tone waveform (as a
//! production tester would), the per-frequency response amplitude is
//! extracted from the sampled output with a single-bin DFT — the Goertzel
//! algorithm — rather than a full FFT.

use crate::complex::Complex64;

/// Window applied to a record before spectral estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// No window (rectangular). Exact for coherent sampling.
    Rectangular,
    /// Hann window; first sidelobe −31.5 dB, for non-coherent records.
    Hann,
}

impl Window {
    /// Window weight for sample `i` of `n`.
    #[inline]
    pub(crate) fn weight(self, i: usize, n: usize) -> f64 {
        match self {
            Window::Rectangular => 1.0,
            Window::Hann => {
                let x = std::f64::consts::TAU * i as f64 / n as f64;
                0.5 * (1.0 - x.cos())
            }
        }
    }

    /// Coherent gain of the window (mean weight), used to normalise
    /// amplitude estimates.
    pub(crate) fn coherent_gain(self, n: usize) -> f64 {
        (0..n).map(|i| self.weight(i, n)).sum::<f64>() / n as f64
    }
}

/// Single-bin DFT of `samples` at `f_hz` given sampling rate `fs_hz`,
/// using the Goertzel recurrence.
///
/// Returns the complex spectral coefficient normalised so that a pure
/// cosine `A·cos(2πft + φ)` coherently sampled yields a coefficient with
/// magnitude `A/2`... i.e. multiply by 2 (see [`tone_amplitude`]) for the
/// tone amplitude.
///
/// # Panics
///
/// Panics if `samples` is empty or `fs_hz <= 0`.
pub fn goertzel(samples: &[f64], f_hz: f64, fs_hz: f64) -> Complex64 {
    assert!(!samples.is_empty(), "goertzel needs at least one sample");
    assert!(fs_hz > 0.0, "sampling rate must be positive");
    let n = samples.len();
    let w = std::f64::consts::TAU * f_hz / fs_hz;
    let coeff = 2.0 * w.cos();
    let (mut s_prev, mut s_prev2) = (0.0f64, 0.0f64);
    for &x in samples {
        let s = x + coeff * s_prev - s_prev2;
        s_prev2 = s_prev;
        s_prev = s;
    }
    // y = s[N-1] - e^{-jw}·s[N-2] equals X(w)·e^{jw(N-1)}; rotate back so
    // the result matches the DFT convention X(w) = Σ x[n]·e^{-jwn}.
    let e = Complex64::from_polar(1.0, -w);
    let y = Complex64::from_real(s_prev) - e * s_prev2;
    let rotation = Complex64::from_polar(1.0, -w * (n as f64 - 1.0));
    (y * rotation).scale(1.0 / n as f64)
}

/// Amplitude of the tone at `f_hz` in `samples`, window-corrected.
///
/// For a coherently sampled record this equals the peak amplitude `A` of
/// `A·sin(2πft + φ)` to within numerical precision.
///
/// # Panics
///
/// Panics if `samples` is empty or `fs_hz <= 0`.
pub fn tone_amplitude(samples: &[f64], f_hz: f64, fs_hz: f64, window: Window) -> f64 {
    let n = samples.len();
    let windowed: Vec<f64> = samples
        .iter()
        .enumerate()
        .map(|(i, &x)| x * window.weight(i, n))
        .collect();
    let bin = goertzel(&windowed, f_hz, fs_hz);
    2.0 * bin.abs() / window.coherent_gain(n)
}

/// Full DFT at arbitrary (not necessarily bin-centred) frequencies; the
/// heavyweight reference against which Goertzel is tested.
pub fn dft_at(samples: &[f64], freqs_hz: &[f64], fs_hz: f64) -> Vec<Complex64> {
    freqs_hz
        .iter()
        .map(|&f| {
            let mut acc = Complex64::ZERO;
            for (i, &x) in samples.iter().enumerate() {
                let phi = -std::f64::consts::TAU * f * i as f64 / fs_hz;
                acc += Complex64::from_polar(x, phi);
            }
            acc.scale(1.0 / samples.len() as f64)
        })
        .collect()
}

/// Root-mean-square of a record.
pub fn rms(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    (samples.iter().map(|x| x * x).sum::<f64>() / samples.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` samples of `Σ a·sin(2πft + φ)` at rate `fs`, one `(a, f, φ)`
    /// per tone.
    fn tones(parts: &[(f64, f64, f64)], n: usize, fs: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                parts
                    .iter()
                    .map(|&(a, f, p)| a * (std::f64::consts::TAU * f * t + p).sin())
                    .sum()
            })
            .collect()
    }

    #[test]
    fn goertzel_recovers_coherent_tone() {
        let fs = 1000.0;
        let f = 50.0; // 20 samples/period, coherent over n=1000
        let x = tones(&[(2.5, f, 0.3)], 1000, fs);
        let a = tone_amplitude(&x, f, fs, Window::Rectangular);
        assert!((a - 2.5).abs() < 1e-9, "amplitude {a}");
    }

    #[test]
    fn goertzel_matches_dft() {
        let fs = 800.0;
        let x = tones(&[(1.0, 40.0, 0.0), (0.5, 120.0, 1.0)], 400, fs);
        for &f in &[40.0, 120.0, 200.0] {
            let g = goertzel(&x, f, fs);
            let d = dft_at(&x, &[f], fs)[0];
            assert!((g - d).abs() < 1e-9, "mismatch at {f}: {g} vs {d}");
        }
    }

    #[test]
    fn two_tone_separation() {
        let fs = 1000.0;
        let x = tones(&[(1.0, 50.0, 0.0), (0.25, 250.0, 0.0)], 1000, fs);
        let a1 = tone_amplitude(&x, 50.0, fs, Window::Rectangular);
        let a2 = tone_amplitude(&x, 250.0, fs, Window::Rectangular);
        assert!((a1 - 1.0).abs() < 1e-9);
        assert!((a2 - 0.25).abs() < 1e-9);
    }

    #[test]
    fn hann_window_reduces_leakage() {
        let fs = 1000.0;
        // Non-coherent tone: 51.3 Hz over 1000 samples.
        let x = tones(&[(1.0, 51.3, 0.0)], 1000, fs);
        let rect = tone_amplitude(&x, 51.3, fs, Window::Rectangular);
        let hann = tone_amplitude(&x, 51.3, fs, Window::Hann);
        // Hann estimate should be markedly closer to 1.0.
        assert!((hann - 1.0).abs() < (rect - 1.0).abs());
        assert!((hann - 1.0).abs() < 0.01, "hann {hann}");
    }

    #[test]
    fn rms_of_sine() {
        let x = tones(&[(2.0, 10.0, 0.0)], 1000, 1000.0);
        assert!((rms(&x) - 2.0 / 2f64.sqrt()).abs() < 1e-9);
        assert_eq!(rms(&[]), 0.0);
    }

    #[test]
    fn window_gains() {
        assert!((Window::Rectangular.coherent_gain(64) - 1.0).abs() < 1e-12);
        let g = Window::Hann.coherent_gain(4096);
        assert!((g - 0.5).abs() < 1e-3, "hann gain {g}");
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn goertzel_empty_rejected() {
        let _ = goertzel(&[], 10.0, 100.0);
    }
}
