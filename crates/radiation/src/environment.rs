//! Radiation environments: LET spectrum point + flux.

use crate::units::{Flux, Let};
use ssresf_json::{field, FromJson, ToJson, Value};

/// A mono-energetic heavy-ion environment, as used in beam experiments and
/// in the paper's campaigns: a single LET and a particle flux.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadiationEnvironment {
    /// Linear energy transfer of the incident ions.
    pub let_value: Let,
    /// Particle flux.
    pub flux: Flux,
}

impl RadiationEnvironment {
    /// Creates an environment.
    pub fn new(let_value: Let, flux: Flux) -> Self {
        RadiationEnvironment { let_value, flux }
    }

    /// Low-LET proton-like environment (LET 1, flux 4e8) — the lowest flux
    /// point of the paper's Table III sweep.
    pub fn low_orbit() -> Self {
        RadiationEnvironment::new(Let::new(1.0), Flux::new(4e8))
    }

    /// Moderate heavy-ion environment at the paper's central calibration
    /// point (LET 37, flux 6e8).
    pub fn geo_transfer() -> Self {
        RadiationEnvironment::new(Let::new(37.0), Flux::new(6e8))
    }

    /// Worst-case test-beam environment (LET 100, flux 8e8).
    pub fn heavy_ion_beam() -> Self {
        RadiationEnvironment::new(Let::new(100.0), Flux::new(8e8))
    }

    /// The paper's Table III flux sweep (4e8 … 8e8) at a fixed LET of 37.
    pub fn flux_sweep() -> Vec<RadiationEnvironment> {
        [4e8, 5e8, 6e8, 7e8, 8e8]
            .into_iter()
            .map(|f| RadiationEnvironment::new(Let::new(37.0), Flux::new(f)))
            .collect()
    }
}

impl ToJson for RadiationEnvironment {
    fn to_json(&self) -> Value {
        ssresf_json::object([
            ("let", self.let_value.value().to_json()),
            ("flux", self.flux.value().to_json()),
        ])
    }
}

/// Rejects a negative or non-finite LET or flux instead of panicking in
/// the unit constructors.
impl FromJson for RadiationEnvironment {
    fn from_json(value: &Value) -> Result<Self, String> {
        let let_value: f64 = field(value, "let")?;
        let flux: f64 = field(value, "flux")?;
        if !(let_value.is_finite() && let_value >= 0.0 && flux.is_finite() && flux >= 0.0) {
            return Err(format!(
                "LET {let_value} and flux {flux} must be finite and non-negative"
            ));
        }
        Ok(RadiationEnvironment::new(
            Let::new(let_value),
            Flux::new(flux),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_severity() {
        let low = RadiationEnvironment::low_orbit();
        let mid = RadiationEnvironment::geo_transfer();
        let high = RadiationEnvironment::heavy_ion_beam();
        assert!(low.let_value.value() < mid.let_value.value());
        assert!(mid.let_value.value() < high.let_value.value());
        assert!(low.flux.value() < high.flux.value());
    }

    #[test]
    fn flux_sweep_matches_table_three() {
        let sweep = RadiationEnvironment::flux_sweep();
        assert_eq!(sweep.len(), 5);
        assert_eq!(sweep[0].flux.value(), 4e8);
        assert_eq!(sweep[4].flux.value(), 8e8);
        assert!(sweep
            .windows(2)
            .all(|w| w[0].flux.value() < w[1].flux.value()));
    }
}
