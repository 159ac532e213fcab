//! Mission profiles: ordered, time-varying radiation environment segments.
//!
//! A [`MissionProfile`] partitions an exposure window into ordered
//! [`MissionSegment`]s — orbit phases, a solar-flare spike, a beam-test
//! dwell — each with its own [`ParticleEnvironment`]. Fault generation
//! looks the active segment up by cycle ([`MissionProfile::segment_at`]),
//! so strike LET and flux follow the profile over simulated time.
//!
//! Profiles are user-provided configuration (often parsed from JSON, which
//! bypasses the unit newtype constructors), so every entry point validates:
//! a profile must have at least one segment, every segment a positive
//! duration, and every environment finite parameters.

use crate::error::RadiationError;
use crate::particle::ParticleEnvironment;
use ssresf_json::{field, FromJson, ToJson, Value};

/// One contiguous phase of a mission.
#[derive(Debug, Clone, PartialEq)]
pub struct MissionSegment {
    /// Human-readable phase label (`"quiet orbit"`, `"solar flare"`, …).
    pub label: String,
    /// Length of the phase in simulated clock cycles.
    pub duration_cycles: u64,
    /// Radiation environment active during the phase.
    pub environment: ParticleEnvironment,
}

impl MissionSegment {
    /// Creates a segment.
    pub fn new(
        label: impl Into<String>,
        duration_cycles: u64,
        environment: ParticleEnvironment,
    ) -> Self {
        MissionSegment {
            label: label.into(),
            duration_cycles,
            environment,
        }
    }
}

/// An ordered sequence of mission segments covering an exposure window.
#[derive(Debug, Clone, PartialEq)]
pub struct MissionProfile {
    /// The segments, in mission order.
    pub segments: Vec<MissionSegment>,
}

impl MissionProfile {
    /// Builds a validated profile.
    ///
    /// # Errors
    ///
    /// Propagates [`MissionProfile::validate`] failures.
    pub fn new(segments: Vec<MissionSegment>) -> Result<Self, RadiationError> {
        let profile = MissionProfile { segments };
        profile.validate()?;
        Ok(profile)
    }

    /// A single-segment profile: the static-environment campaign expressed
    /// as a mission.
    ///
    /// # Errors
    ///
    /// Propagates [`MissionProfile::validate`] failures (zero duration,
    /// invalid environment).
    pub fn single(
        label: impl Into<String>,
        duration_cycles: u64,
        environment: ParticleEnvironment,
    ) -> Result<Self, RadiationError> {
        MissionProfile::new(vec![MissionSegment::new(
            label,
            duration_cycles,
            environment,
        )])
    }

    /// The canonical two-segment example mission: a quiet proton orbit
    /// followed by a solar-flare spike. `quiet_cycles`/`flare_cycles` are
    /// the phase lengths.
    ///
    /// # Errors
    ///
    /// Propagates [`MissionProfile::validate`] failures (zero durations).
    pub fn orbit_with_flare(quiet_cycles: u64, flare_cycles: u64) -> Result<Self, RadiationError> {
        MissionProfile::new(vec![
            MissionSegment::new("quiet orbit", quiet_cycles, ParticleEnvironment::proton()),
            MissionSegment::new(
                "solar flare",
                flare_cycles,
                ParticleEnvironment::solar_flare(),
            ),
        ])
    }

    /// Validates the profile: at least one segment, positive durations, a
    /// total that fits in `u64`, and valid environments.
    ///
    /// # Errors
    ///
    /// Returns [`RadiationError::Config`] describing the first violation.
    pub fn validate(&self) -> Result<(), RadiationError> {
        if self.segments.is_empty() {
            return Err(RadiationError::Config(
                "mission profile has no segments".into(),
            ));
        }
        let mut total: u64 = 0;
        for (i, segment) in self.segments.iter().enumerate() {
            if segment.duration_cycles == 0 {
                return Err(RadiationError::Config(format!(
                    "mission segment {i} (`{}`) has zero duration",
                    segment.label
                )));
            }
            total = total.checked_add(segment.duration_cycles).ok_or_else(|| {
                RadiationError::Config("mission duration overflows u64 cycles".into())
            })?;
            segment.environment.validate().map_err(|e| {
                RadiationError::Config(format!("mission segment {i} (`{}`): {e}", segment.label))
            })?;
        }
        Ok(())
    }

    /// Total mission length in cycles.
    pub fn total_cycles(&self) -> u64 {
        self.segments.iter().map(|s| s.duration_cycles).sum()
    }

    /// Cycle at which segment `index` starts.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn segment_start(&self, index: usize) -> u64 {
        self.segments[..index]
            .iter()
            .map(|s| s.duration_cycles)
            .sum()
    }

    /// Index of the segment active at `cycle`. Cycles at or past the end of
    /// the mission clamp to the last segment (injection offsets can round
    /// onto the final cycle boundary).
    pub fn segment_at(&self, cycle: u64) -> usize {
        let mut start = 0u64;
        for (i, segment) in self.segments.iter().enumerate() {
            start += segment.duration_cycles;
            if cycle < start {
                return i;
            }
        }
        self.segments.len().saturating_sub(1)
    }
}

impl ToJson for MissionSegment {
    fn to_json(&self) -> Value {
        ssresf_json::object([
            ("label", self.label.to_json()),
            ("duration_cycles", self.duration_cycles.to_json()),
            ("environment", self.environment.to_json()),
        ])
    }
}

impl FromJson for MissionSegment {
    fn from_json(value: &Value) -> Result<Self, String> {
        Ok(MissionSegment {
            label: field(value, "label")?,
            duration_cycles: field(value, "duration_cycles")?,
            environment: field(value, "environment")?,
        })
    }
}

impl ToJson for MissionProfile {
    fn to_json(&self) -> Value {
        ssresf_json::object([("segments", self.segments.to_json())])
    }
}

/// Validates through [`MissionProfile::new`] — the gate that catches
/// out-of-range values in user-provided files.
impl FromJson for MissionProfile {
    fn from_json(value: &Value) -> Result<Self, String> {
        MissionProfile::new(field(value, "segments")?).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::particle::ParticleKind;
    use crate::units::{Flux, Let};

    fn two_segment() -> MissionProfile {
        MissionProfile::orbit_with_flare(60, 40).unwrap()
    }

    #[test]
    fn rejects_empty_profile() {
        let err = MissionProfile::new(Vec::new()).unwrap_err();
        assert!(err.to_string().contains("no segments"), "{err}");
    }

    #[test]
    fn rejects_zero_duration_segment() {
        let err = MissionProfile::new(vec![
            MissionSegment::new("ok", 10, ParticleEnvironment::proton()),
            MissionSegment::new("empty", 0, ParticleEnvironment::solar_flare()),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("zero duration"), "{err}");
        assert!(err.to_string().contains("empty"), "{err}");
    }

    #[test]
    fn rejects_overflowing_total() {
        let err = MissionProfile::new(vec![
            MissionSegment::new("a", u64::MAX, ParticleEnvironment::proton()),
            MissionSegment::new("b", 1, ParticleEnvironment::proton()),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("overflows"), "{err}");
    }

    #[test]
    fn rejects_non_finite_environment() {
        let mut env = ParticleEnvironment::proton();
        env.flux = Flux::unchecked(f64::INFINITY);
        let err = MissionProfile::single("bad", 10, env).unwrap_err();
        assert!(err.to_string().contains("flux"), "{err}");
    }

    #[test]
    fn segment_lookup_walks_boundaries() {
        let mission = two_segment();
        assert_eq!(mission.total_cycles(), 100);
        assert_eq!(mission.segment_start(0), 0);
        assert_eq!(mission.segment_start(1), 60);
        assert_eq!(mission.segment_at(0), 0);
        assert_eq!(mission.segment_at(59), 0);
        assert_eq!(mission.segment_at(60), 1);
        assert_eq!(mission.segment_at(99), 1);
        // Past-the-end cycles clamp to the final segment.
        assert_eq!(mission.segment_at(100), 1);
        assert_eq!(mission.segment_at(u64::MAX), 1);
    }

    #[test]
    fn json_round_trip_preserves_profile() {
        let mission = two_segment();
        let text = mission.to_json().to_string_pretty();
        let parsed = MissionProfile::from_json(&ssresf_json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, mission);
        assert_eq!(parsed.segments[0].environment.kind, ParticleKind::Proton);
    }

    #[test]
    fn from_json_rejects_out_of_range_values() {
        let mut doc = two_segment().to_json();
        // Hand-edit the parsed value tree to smuggle a negative flux.
        if let ssresf_json::Value::Object(members) = &mut doc {
            let segs = members
                .iter_mut()
                .find(|(k, _)| k == "segments")
                .map(|(_, v)| v)
                .unwrap();
            if let ssresf_json::Value::Array(items) = segs {
                if let ssresf_json::Value::Object(seg) = &mut items[0] {
                    let env = seg
                        .iter_mut()
                        .find(|(k, _)| k == "environment")
                        .map(|(_, v)| v)
                        .unwrap();
                    if let ssresf_json::Value::Object(env_members) = env {
                        for (k, v) in env_members.iter_mut() {
                            if k == "flux" {
                                *v = ssresf_json::Value::Number(-4e8);
                            }
                        }
                    }
                }
            }
        }
        let err = MissionProfile::from_json(&doc).unwrap_err();
        assert!(err.to_string().contains("flux"), "{err}");
    }

    #[test]
    fn single_segment_profile_validates() {
        let mission = MissionProfile::single("beam", 50, ParticleEnvironment::heavy_ion()).unwrap();
        assert_eq!(mission.segments.len(), 1);
        assert_eq!(mission.total_cycles(), 50);
        assert_eq!(mission.segment_at(49), 0);
        let mut env = ParticleEnvironment::heavy_ion();
        env.let_value = Let::unchecked(-1.0);
        assert!(MissionProfile::single("bad", 50, env).is_err());
    }
}
