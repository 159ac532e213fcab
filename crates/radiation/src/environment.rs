//! Radiation environments: one LET point plus a flux.
//!
//! Every fault source draws its faults from the LET alone: the per-cell
//! cross-sections come from the cell class through the
//! [`SoftErrorDatabase`](crate::database::SoftErrorDatabase), and the LET
//! sets the SET pulse width. Flux scales only [`FluxCampaign`]'s expected
//! strike count; no injection campaign reads it.
//!
//! [`FluxCampaign`]: crate::campaign::FluxCampaign

use crate::error::RadiationError;
use crate::units::{Flux, Let};
use ssresf_json::{field, FromJson, ToJson, Value};

/// A mono-energetic radiation environment, as used in beam experiments and
/// in the paper's campaigns: a single LET and a particle flux.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadiationEnvironment {
    /// Linear energy transfer of the incident particles.
    pub let_value: Let,
    /// Particle flux.
    pub flux: Flux,
}

impl RadiationEnvironment {
    /// Creates an environment.
    pub fn new(let_value: Let, flux: Flux) -> Self {
        RadiationEnvironment { let_value, flux }
    }

    /// Trapped-proton environment of a quiet low-Earth orbit: low LET, the
    /// low-flux end of the paper's Table III sweep (LET 1, flux 4e8).
    pub fn proton() -> Self {
        RadiationEnvironment::new(Let::new(1.0), Flux::new(4e8))
    }

    /// Atmospheric-neutron environment: moderate effective LET, modest flux
    /// (LET 2.5, flux 1.5e8).
    pub fn neutron() -> Self {
        RadiationEnvironment::new(Let::new(2.5), Flux::new(1.5e8))
    }

    /// Solar-flare spike: protons at strongly elevated flux and slightly
    /// elevated effective LET (LET 3, flux 2e10), the "storm" segment of a
    /// mission profile.
    pub fn solar_flare() -> Self {
        RadiationEnvironment::new(Let::new(3.0), Flux::new(2e10))
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

    /// Validates the environment.
    ///
    /// The unit newtypes reject bad values at construction, but values
    /// decoded from JSON bypass those checks; mission files are
    /// user-provided, so this is the real gate.
    ///
    /// # Errors
    ///
    /// Returns [`RadiationError::Config`] when the LET or flux is
    /// non-finite or negative.
    pub fn validate(&self) -> Result<(), RadiationError> {
        self.check_range().map_err(RadiationError::Config)
    }

    /// The range check behind [`validate`](RadiationEnvironment::validate)
    /// and the JSON decoder.
    fn check_range(&self) -> Result<(), String> {
        let (l, f) = (self.let_value.value(), self.flux.value());
        if l.is_finite() && l >= 0.0 && f.is_finite() && f >= 0.0 {
            Ok(())
        } else {
            Err(format!(
                "LET {l} and flux {f} must be finite and non-negative"
            ))
        }
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

/// Reads only `let` and `flux` (other members are ignored), and rejects
/// what [`validate`](RadiationEnvironment::validate) rejects instead of
/// panicking in the unit constructors.
impl FromJson for RadiationEnvironment {
    fn from_json(value: &Value) -> Result<Self, String> {
        let env = RadiationEnvironment::new(
            Let::unchecked(field(value, "let")?),
            Flux::unchecked(field(value, "flux")?),
        );
        env.check_range().map(|()| env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_severity() {
        let mid = RadiationEnvironment::geo_transfer();
        let high = RadiationEnvironment::heavy_ion_beam();
        assert!(mid.let_value.value() < high.let_value.value());
        assert!(mid.flux.value() < high.flux.value());
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

    #[test]
    fn presets_validate() {
        for env in [
            RadiationEnvironment::proton(),
            RadiationEnvironment::neutron(),
            RadiationEnvironment::solar_flare(),
            RadiationEnvironment::geo_transfer(),
            RadiationEnvironment::heavy_ion_beam(),
        ] {
            env.validate().unwrap();
            let text = env.to_json().to_string();
            let parsed = RadiationEnvironment::from_json(&ssresf_json::parse(&text).unwrap());
            assert_eq!(parsed, Ok(env));
        }
    }

    #[test]
    fn validate_rejects_out_of_range_values() {
        // Values smuggled past the newtype constructors (as a JSON decoder
        // would) must be caught by validate() and by the decoder.
        let proton = RadiationEnvironment::proton();
        for bad in [
            RadiationEnvironment {
                flux: Flux::unchecked(-1.0),
                ..proton
            },
            RadiationEnvironment {
                flux: Flux::unchecked(f64::INFINITY),
                ..proton
            },
            RadiationEnvironment {
                let_value: Let::unchecked(f64::NAN),
                ..proton
            },
            RadiationEnvironment {
                let_value: Let::unchecked(-1.0),
                ..proton
            },
        ] {
            assert!(matches!(bad.validate(), Err(RadiationError::Config(_))));
        }
        let err = RadiationEnvironment::from_json(
            &ssresf_json::parse(r#"{"let": 1.0, "flux": -4e8}"#).unwrap(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            "LET 1 and flux -400000000 must be finite and non-negative"
        );
    }
}
