//! # ft-evolve
//!
//! The genetic-algorithm framework behind the fault-trajectory ATPG:
//! genome species (bounded real vectors, binary strings), selection
//! methods (roulette wheel, tournament, linear rank), and a generational
//! engine preconfigured with the paper's Section 2.4 parameters (128
//! individuals, 15 generations, 50% reproduction, 40% mutation).
//!
//! ## Example: maximising a toy fitness
//!
//! ```
//! use ft_evolve::{run, GaConfig, RealVector};
//!
//! let species = RealVector::new(vec![(-5.0, 5.0); 2]);
//! let config = GaConfig {
//!     population: 40,
//!     generations: 40,
//!     seed: Some(1),
//!     ..GaConfig::paper()
//! };
//! let result = run(&species, |g| 1.0 / (1.0 + g[0] * g[0] + g[1] * g[1]), &config);
//! assert!(result.best_fitness > 0.8);
//! ```

#![warn(missing_docs)]

pub mod ga;
pub mod selection;
pub mod species;

pub use ga::{run, GaConfig, GenerationStats};
pub use selection::Selection;
pub use species::{BinaryString, RealVector, Species};

use rand::Rng;

/// Standard normal deviate via Box–Muller (no `rand_distr` offline).
pub(crate) fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}
