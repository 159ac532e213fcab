//! Particle environments: species-tagged (flux, σ(LET)) descriptions.
//!
//! [`RadiationEnvironment`] describes a mono-energetic beam by its LET and
//! flux alone. A [`ParticleEnvironment`] generalizes it with the particle
//! species and a species-level Weibull σ(LET) response, so mission planning
//! can mix proton, heavy-ion and neutron phases and compare their
//! device-average strike rates. The per-cell-kind cross-sections used for
//! fault generation still come from the [`SoftErrorDatabase`]
//! (evaluated at the environment's LET). The species response curve feeds
//! only the environment-level
//! [`strike_rate`](ParticleEnvironment::strike_rate), a device-average rate
//! for comparing environments; no fault source reads it.
//!
//! [`SoftErrorDatabase`]: crate::database::SoftErrorDatabase

use crate::environment::RadiationEnvironment;
use crate::error::RadiationError;
use crate::units::{Flux, Let};
use crate::weibull::WeibullCurve;
use ssresf_json::{field, FromJson, ToJson, Value};

/// Particle species of an environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ParticleKind {
    /// Trapped or solar protons: low LET, high flux.
    Proton,
    /// Galactic-cosmic-ray or test-beam heavy ions: high LET.
    HeavyIon,
    /// Atmospheric or reactor neutrons: indirect ionization, moderate LET.
    Neutron,
    /// A user-defined species.
    Custom,
}

impl ParticleKind {
    /// Display name of the species.
    pub fn name(self) -> &'static str {
        match self {
            ParticleKind::Proton => "proton",
            ParticleKind::HeavyIon => "heavy-ion",
            ParticleKind::Neutron => "neutron",
            ParticleKind::Custom => "custom",
        }
    }

    /// Looks a species up from its [`name`](ParticleKind::name).
    pub fn from_name(name: &str) -> Option<ParticleKind> {
        [
            ParticleKind::Proton,
            ParticleKind::HeavyIon,
            ParticleKind::Neutron,
            ParticleKind::Custom,
        ]
        .into_iter()
        .find(|k| k.name() == name)
    }
}

impl std::fmt::Display for ParticleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A particle environment: species, effective LET, flux, and a species-level
/// Weibull response curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParticleEnvironment {
    /// Particle species.
    pub kind: ParticleKind,
    /// Effective linear energy transfer deposited by a strike.
    pub let_value: Let,
    /// Particle flux.
    pub flux: Flux,
    /// Device-average σ(LET) response for this species.
    pub response: WeibullCurve,
}

impl ParticleEnvironment {
    /// Trapped-proton environment of a quiet low-Earth orbit: low LET,
    /// the low-flux end of the paper's Table III sweep.
    pub fn proton() -> Self {
        ParticleEnvironment {
            kind: ParticleKind::Proton,
            let_value: Let::new(1.0),
            flux: Flux::new(4e8),
            response: WeibullCurve::new(1.2e-9, 0.3, 12.0, 1.5),
        }
    }

    /// Heavy-ion environment at the paper's central calibration point
    /// (LET 37, flux 6e8) — matches
    /// [`RadiationEnvironment::geo_transfer`].
    pub fn heavy_ion() -> Self {
        ParticleEnvironment {
            kind: ParticleKind::HeavyIon,
            let_value: Let::new(37.0),
            flux: Flux::new(6e8),
            response: WeibullCurve::new(2.5e-8, 0.8, 22.0, 1.7),
        }
    }

    /// Atmospheric-neutron environment: moderate effective LET, modest flux.
    pub fn neutron() -> Self {
        ParticleEnvironment {
            kind: ParticleKind::Neutron,
            let_value: Let::new(2.5),
            flux: Flux::new(1.5e8),
            response: WeibullCurve::new(8.0e-10, 0.5, 15.0, 1.6),
        }
    }

    /// Solar-flare spike: proton species at strongly elevated flux and
    /// slightly elevated effective LET — the canonical "storm" segment of a
    /// mission profile.
    pub fn solar_flare() -> Self {
        ParticleEnvironment {
            kind: ParticleKind::Proton,
            let_value: Let::new(3.0),
            flux: Flux::new(2e10),
            response: WeibullCurve::new(1.2e-9, 0.3, 12.0, 1.5),
        }
    }

    /// A fully user-specified environment.
    pub fn custom(let_value: Let, flux: Flux, response: WeibullCurve) -> Self {
        ParticleEnvironment {
            kind: ParticleKind::Custom,
            let_value,
            flux,
            response,
        }
    }

    /// Wraps a mono-energetic beam description, attaching the heavy-ion
    /// species response (beams in the paper are heavy-ion test beams).
    pub fn from_beam(beam: RadiationEnvironment) -> Self {
        ParticleEnvironment {
            kind: ParticleKind::HeavyIon,
            let_value: beam.let_value,
            flux: beam.flux,
            response: ParticleEnvironment::heavy_ion().response,
        }
    }

    /// The mono-energetic beam view (LET + flux) used by fault generation.
    pub fn beam(&self) -> RadiationEnvironment {
        RadiationEnvironment::new(self.let_value, self.flux)
    }

    /// Device-average strike rate, events/s per cell: `flux × σ(LET)` with
    /// the species response curve.
    pub fn strike_rate(&self) -> f64 {
        self.flux.value() * self.response.cross_section(self.let_value).value()
    }

    /// Validates the environment.
    ///
    /// The unit newtypes reject bad values at construction, but values
    /// deserialized from JSON bypass those checks — mission configs are
    /// user-provided files, so this is the real gate.
    ///
    /// # Errors
    ///
    /// Returns [`RadiationError::Config`] when the flux or LET is non-finite
    /// or negative, or the response curve parameters are out of range.
    pub fn validate(&self) -> Result<(), RadiationError> {
        let flux = self.flux.value();
        if !(flux.is_finite() && flux >= 0.0) {
            return Err(RadiationError::Config(format!(
                "{} environment flux {flux} must be finite and non-negative",
                self.kind
            )));
        }
        let l = self.let_value.value();
        if !(l.is_finite() && l >= 0.0) {
            return Err(RadiationError::Config(format!(
                "{} environment LET {l} must be finite and non-negative",
                self.kind
            )));
        }
        let c = &self.response;
        let curve_ok = c.sigma_sat.is_finite()
            && c.sigma_sat > 0.0
            && c.threshold.is_finite()
            && c.threshold >= 0.0
            && c.width.is_finite()
            && c.width > 0.0
            && c.shape.is_finite()
            && c.shape > 0.0;
        if !curve_ok {
            return Err(RadiationError::Config(format!(
                "{} environment response curve has out-of-range parameters",
                self.kind
            )));
        }
        Ok(())
    }
}

impl ToJson for ParticleEnvironment {
    fn to_json(&self) -> Value {
        ssresf_json::object([
            ("kind", Value::from(self.kind.name())),
            ("let", self.let_value.value().to_json()),
            ("flux", self.flux.value().to_json()),
            ("response", self.response.to_json()),
        ])
    }
}

/// Parsing is structural only; range checks are the caller's job via
/// [`validate`](ParticleEnvironment::validate).
impl FromJson for ParticleEnvironment {
    fn from_json(value: &Value) -> Result<Self, String> {
        let kind_name: String = field(value, "kind")?;
        let kind = ParticleKind::from_name(&kind_name)
            .ok_or_else(|| format!("unknown particle kind `{kind_name}`"))?;
        Ok(ParticleEnvironment {
            kind,
            let_value: Let::unchecked(field(value, "let")?),
            flux: Flux::unchecked(field(value, "flux")?),
            response: field(value, "response")?,
        })
    }
}

impl From<ParticleEnvironment> for RadiationEnvironment {
    fn from(env: ParticleEnvironment) -> Self {
        env.beam()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for env in [
            ParticleEnvironment::proton(),
            ParticleEnvironment::heavy_ion(),
            ParticleEnvironment::neutron(),
            ParticleEnvironment::solar_flare(),
        ] {
            env.validate().unwrap();
        }
    }

    #[test]
    fn flare_out_rates_quiet_proton_environment() {
        let quiet = ParticleEnvironment::proton();
        let flare = ParticleEnvironment::solar_flare();
        assert!(flare.strike_rate() > 10.0 * quiet.strike_rate());
    }

    #[test]
    fn heavy_ion_matches_geo_transfer_beam() {
        assert_eq!(
            ParticleEnvironment::heavy_ion().beam(),
            RadiationEnvironment::geo_transfer()
        );
    }

    #[test]
    fn beam_round_trip_preserves_let_and_flux() {
        let beam = RadiationEnvironment::heavy_ion_beam();
        let env = ParticleEnvironment::from_beam(beam);
        assert_eq!(RadiationEnvironment::from(env), beam);
        assert_eq!(env.kind, ParticleKind::HeavyIon);
    }

    #[test]
    fn validate_rejects_out_of_range_values() {
        // Values smuggled past the newtype constructors (e.g. by hand-rolled
        // JSON parsing) must be caught by validate().
        let mut bad = ParticleEnvironment::proton();
        bad.flux = Flux::unchecked(-1.0);
        assert!(bad.validate().is_err());
        let mut bad = ParticleEnvironment::proton();
        bad.let_value = Let::unchecked(f64::NAN);
        assert!(bad.validate().is_err());
        let mut bad = ParticleEnvironment::proton();
        bad.response.width = 0.0;
        assert!(bad.validate().is_err());
    }
}
