//! Decibel floor.
//!
//! The fault-trajectory signature works on gain magnitudes in dB; the
//! floor that keeps a zero magnitude finite lives here.

/// Clamps a dB value to a floor, replacing `-∞`/NaN with the floor.
///
/// Dictionary entries at notch frequencies can be exactly zero; a finite
/// floor keeps downstream geometry well-defined.
#[inline]
pub fn clamp_db(db: f64, floor_db: f64) -> f64 {
    if db.is_nan() || db < floor_db {
        floor_db
    } else {
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamping() {
        assert_eq!(clamp_db(-300.0, -200.0), -200.0);
        assert_eq!(clamp_db(f64::NEG_INFINITY, -200.0), -200.0);
        assert_eq!(clamp_db(f64::NAN, -200.0), -200.0);
        assert_eq!(clamp_db(-10.0, -200.0), -10.0);
    }
}
