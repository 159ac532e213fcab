//! Single-event-transient pulse-width model.
//!
//! The width of a SET pulse grows with deposited charge, i.e. with LET. We
//! use a logarithmic saturating model with multiplicative jitter, expressed
//! as a fraction of the clock period (the unit the simulator's
//! [`SetFault`](ssresf_sim::SetFault) consumes).

use crate::units::Let;
use rand::Rng;
use ssresf_json::{field, FromJson, ToJson, Value};

/// Parameters of the pulse-width model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PulseWidthModel {
    /// Minimum pulse width as a fraction of the clock period.
    pub base: f64,
    /// Logarithmic LET gain.
    pub gain: f64,
    /// Hard upper bound on the width fraction.
    pub max: f64,
    /// Relative jitter amplitude (± fraction of the nominal width).
    pub jitter: f64,
}

impl PulseWidthModel {
    /// The default model: ~2 % of a period at LET 1, ~15 % at LET 100.
    pub fn standard() -> Self {
        PulseWidthModel {
            base: 0.02,
            gain: 0.028,
            max: 0.5,
            jitter: 0.3,
        }
    }

    /// Nominal (jitter-free) width fraction at `let_value`.
    pub fn nominal_width(&self, let_value: Let) -> f64 {
        (self.base + self.gain * (1.0 + let_value.value()).ln()).min(self.max)
    }

    /// Samples a width fraction with jitter.
    pub fn sample_width<R: Rng + ?Sized>(&self, let_value: Let, rng: &mut R) -> f64 {
        let nominal = self.nominal_width(let_value);
        let factor = 1.0 + self.jitter * (rng.gen::<f64>() * 2.0 - 1.0);
        (nominal * factor).clamp(1e-4, self.max)
    }
}

impl Default for PulseWidthModel {
    fn default() -> Self {
        PulseWidthModel::standard()
    }
}

impl ToJson for PulseWidthModel {
    fn to_json(&self) -> Value {
        ssresf_json::object([
            ("base", self.base.to_json()),
            ("gain", self.gain.to_json()),
            ("max", self.max.to_json()),
            ("jitter", self.jitter.to_json()),
        ])
    }
}

impl FromJson for PulseWidthModel {
    fn from_json(value: &Value) -> Result<Self, String> {
        Ok(PulseWidthModel {
            base: field(value, "base")?,
            gain: field(value, "gain")?,
            max: field(value, "max")?,
            jitter: field(value, "jitter")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn width_grows_with_let() {
        let model = PulseWidthModel::standard();
        let w1 = model.nominal_width(Let::new(1.0));
        let w37 = model.nominal_width(Let::new(37.0));
        let w100 = model.nominal_width(Let::new(100.0));
        assert!(w1 < w37 && w37 < w100);
        assert!(w1 > 0.0);
        assert!(w100 <= model.max);
    }

    #[test]
    fn sampled_width_stays_in_bounds() {
        let model = PulseWidthModel::standard();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let w = model.sample_width(Let::new(60.0), &mut rng);
            assert!(w > 0.0 && w <= model.max);
        }
    }

    #[test]
    fn jitter_produces_spread() {
        let model = PulseWidthModel::standard();
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<f64> = (0..100)
            .map(|_| model.sample_width(Let::new(37.0), &mut rng))
            .collect();
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(0.0, f64::max);
        assert!(max > min * 1.1, "jitter should spread widths");
    }
}
