//! Physical-quantity newtypes.

/// Linear energy transfer of an incident particle, in MeV·cm²/mg.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Let(f64);

impl Let {
    /// Wraps a LET value.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite values.
    pub fn new(value: f64) -> Let {
        assert!(value.is_finite() && value >= 0.0, "invalid LET {value}");
        Let(value)
    }

    /// The raw value in MeV·cm²/mg.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Wraps a value without range checks — for hand-rolled JSON parsing,
    /// where the caller is expected to `validate()` the containing config.
    pub(crate) fn unchecked(value: f64) -> Let {
        Let(value)
    }
}

impl std::fmt::Display for Let {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} MeV·cm²/mg", self.0)
    }
}

/// Particle flux, in particles/(cm²·s).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Flux(f64);

impl Flux {
    /// Wraps a flux value.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite values.
    pub fn new(value: f64) -> Flux {
        assert!(value.is_finite() && value >= 0.0, "invalid flux {value}");
        Flux(value)
    }

    /// The raw value in particles/(cm²·s).
    pub fn value(self) -> f64 {
        self.0
    }

    /// Wraps a value without range checks — for hand-rolled JSON parsing,
    /// where the caller is expected to `validate()` the containing config.
    pub(crate) fn unchecked(value: f64) -> Flux {
        Flux(value)
    }
}

impl std::fmt::Display for Flux {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3e} /cm²/s", self.0)
    }
}

/// A sensitive-area cross-section, in cm².
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Area(f64);

impl Area {
    /// Wraps an area.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite values.
    pub fn new(value: f64) -> Area {
        assert!(value.is_finite() && value >= 0.0, "invalid area {value}");
        Area(value)
    }

    /// The raw value in cm².
    pub fn value(self) -> f64 {
        self.0
    }
}

impl std::ops::Add for Area {
    type Output = Area;
    fn add(self, rhs: Area) -> Area {
        Area(self.0 + rhs.0)
    }
}

impl std::iter::Sum for Area {
    fn sum<I: Iterator<Item = Area>>(iter: I) -> Area {
        Area(iter.map(|a| a.0).sum())
    }
}

impl std::fmt::Display for Area {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3e} cm²", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrappers_expose_values() {
        assert_eq!(Let::new(37.0).value(), 37.0);
        assert_eq!(Flux::new(4e8).value(), 4e8);
        assert_eq!(Area::new(1e-7).value(), 1e-7);
    }

    #[test]
    #[should_panic(expected = "invalid LET")]
    fn negative_let_rejected() {
        let _ = Let::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "invalid flux")]
    fn nan_flux_rejected() {
        let _ = Flux::new(f64::NAN);
    }

    #[test]
    fn areas_add_and_sum() {
        let total: Area = [Area::new(1e-8), Area::new(2e-8)].into_iter().sum();
        assert!((total.value() - 3e-8).abs() < 1e-15);
        let a = Area::new(1e-8) + Area::new(1e-8);
        assert!((a.value() - 2e-8).abs() < 1e-15);
    }

    #[test]
    fn display_includes_units() {
        assert!(Let::new(1.0).to_string().contains("MeV"));
        assert!(Flux::new(1e8).to_string().contains("cm²"));
    }
}
