//! Weibull single-event cross-section curves.
//!
//! The standard empirical model for heavy-ion upset cross-sections is the
//! four-parameter Weibull fit
//!
//! ```text
//! σ(LET) = σ_sat · (1 − exp(−((LET − L₀)/W)^s))   for LET > L₀, else 0
//! ```
//!
//! with saturation cross-section `σ_sat`, threshold LET `L₀`, width `W` and
//! shape `s`. Each [`RadiationClass`] carries a calibrated default curve.

use crate::units::{Area, Let};
use ssresf_json::{field, FromJson, ToJson, Value};
use ssresf_netlist::RadiationClass;

/// A four-parameter Weibull cross-section curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeibullCurve {
    /// Saturation cross-section, cm² (per cell).
    pub sigma_sat: f64,
    /// Threshold LET, MeV·cm²/mg; below it no upsets occur.
    pub threshold: f64,
    /// Width parameter, MeV·cm²/mg.
    pub width: f64,
    /// Shape exponent (dimensionless).
    pub shape: f64,
}

impl WeibullCurve {
    /// Builds a curve.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-finite, `sigma_sat`/`width`/`shape`
    /// are non-positive, or `threshold` is negative.
    pub fn new(sigma_sat: f64, threshold: f64, width: f64, shape: f64) -> Self {
        assert!(sigma_sat.is_finite() && sigma_sat > 0.0, "bad sigma_sat");
        assert!(threshold.is_finite() && threshold >= 0.0, "bad threshold");
        assert!(width.is_finite() && width > 0.0, "bad width");
        assert!(shape.is_finite() && shape > 0.0, "bad shape");
        WeibullCurve {
            sigma_sat,
            threshold,
            width,
            shape,
        }
    }

    /// Evaluates the cross-section at the given LET.
    pub fn cross_section(&self, let_value: Let) -> Area {
        let l = let_value.value();
        if l <= self.threshold {
            return Area::new(0.0);
        }
        let x = (l - self.threshold) / self.width;
        Area::new(self.sigma_sat * (1.0 - (-x.powf(self.shape)).exp()))
    }

    /// The calibrated default curve for a radiation class.
    ///
    /// Magnitudes are physical per-cell values (bit cells a few 10⁻⁹ cm²,
    /// flip-flops a few 10⁻⁸) so that, after statistical extrapolation of
    /// the memory sub-array to its nominal capacity, chip-level SEU
    /// cross-sections land in the 10⁻³-and-up range of the paper's Table I
    /// with the ordering SRAM > DRAM ≫ rad-hard and flip-flop >
    /// combinational.
    pub fn default_for(class: RadiationClass) -> WeibullCurve {
        match class {
            // SRAM bit: low threshold.
            RadiationClass::SramCell => WeibullCurve::new(4.0e-9, 0.4, 18.0, 1.6),
            // DRAM bit: capacitive storage, higher threshold & smaller σ_sat.
            RadiationClass::DramCell => WeibullCurve::new(2.2e-9, 1.2, 30.0, 1.8),
            // Standard flip-flop.
            RadiationClass::FlipFlop => WeibullCurve::new(2.8e-8, 0.8, 22.0, 1.7),
            // Combinational node (SET-generating).
            RadiationClass::Combinational => WeibullCurve::new(1.5e-8, 1.5, 26.0, 1.9),
            // Radiation-hardened (interlocked DICE) storage.
            RadiationClass::RadHardCell => WeibullCurve::new(8.0e-12, 15.0, 45.0, 2.2),
        }
    }
}

impl ToJson for WeibullCurve {
    fn to_json(&self) -> Value {
        ssresf_json::object([
            ("sigma_sat", self.sigma_sat.to_json()),
            ("threshold", self.threshold.to_json()),
            ("width", self.width.to_json()),
            ("shape", self.shape.to_json()),
        ])
    }
}

/// Structural only: range checks belong to the containing config's
/// `validate()`.
impl FromJson for WeibullCurve {
    fn from_json(value: &Value) -> Result<Self, String> {
        Ok(WeibullCurve {
            sigma_sat: field(value, "sigma_sat")?,
            threshold: field(value, "threshold")?,
            width: field(value, "width")?,
            shape: field(value, "shape")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLASSES: [RadiationClass; 5] = [
        RadiationClass::Combinational,
        RadiationClass::FlipFlop,
        RadiationClass::SramCell,
        RadiationClass::DramCell,
        RadiationClass::RadHardCell,
    ];

    #[test]
    fn zero_below_threshold() {
        let curve = WeibullCurve::new(1e-7, 2.0, 10.0, 2.0);
        assert_eq!(curve.cross_section(Let::new(0.0)).value(), 0.0);
        assert_eq!(curve.cross_section(Let::new(2.0)).value(), 0.0);
        assert!(curve.cross_section(Let::new(2.1)).value() > 0.0);
    }

    #[test]
    fn monotonically_increasing_in_let() {
        for class in CLASSES {
            let curve = WeibullCurve::default_for(class);
            let mut last = -1.0;
            for l in [0.5, 1.0, 5.0, 10.0, 37.0, 60.0, 100.0] {
                let sigma = curve.cross_section(Let::new(l)).value();
                assert!(sigma >= last, "{class:?} not monotone at LET {l}");
                last = sigma;
            }
        }
    }

    #[test]
    fn saturates_at_sigma_sat() {
        for class in CLASSES {
            let curve = WeibullCurve::default_for(class);
            let sigma = curve.cross_section(Let::new(1e4)).value();
            assert!(sigma <= curve.sigma_sat * (1.0 + 1e-12));
            assert!(sigma > curve.sigma_sat * 0.99);
        }
    }

    #[test]
    fn class_ordering_at_moderate_let() {
        let at = |class| {
            WeibullCurve::default_for(class)
                .cross_section(Let::new(37.0))
                .value()
        };
        assert!(at(RadiationClass::SramCell) > at(RadiationClass::DramCell));
        assert!(at(RadiationClass::FlipFlop) > at(RadiationClass::Combinational));
        assert!(at(RadiationClass::DramCell) > 50.0 * at(RadiationClass::RadHardCell));
    }

    #[test]
    fn rad_hard_immune_at_low_let() {
        let curve = WeibullCurve::default_for(RadiationClass::RadHardCell);
        assert_eq!(curve.cross_section(Let::new(1.0)).value(), 0.0);
    }

    #[test]
    #[should_panic(expected = "bad sigma_sat")]
    fn rejects_nonpositive_sigma() {
        let _ = WeibullCurve::new(0.0, 1.0, 1.0, 1.0);
    }
}
