//! JSON codecs for the campaign types that cross process or disk
//! boundaries: configs inside job frames, shard outcomes inside result
//! frames and merged outcomes inside campaign cache artifacts.
//!
//! All floats survive round trips bit-exactly (`ssresf-json` prints the
//! shortest representation that re-parses to the same `f64`), which is
//! what lets the conformance checks compare a decoded outcome against a
//! freshly simulated one with plain equality. The one deliberate
//! exception: wall-clock durations are carried as `f64` seconds — they
//! are measurements, not simulation state, and no check compares them.

use crate::campaign::{CampaignConfig, CampaignOutcome, CampaignTelemetry, InjectionRecord};
use crate::shard::ShardOutcome;
use crate::workload::{EngineKind, Workload};
use ssresf_json::{field, FromJson, ToJson, Value};
use std::time::Duration;

/// A duration decoded from `f64` seconds, rejecting negative, non-finite
/// and overflowing values.
fn duration(seconds: f64) -> Result<Duration, String> {
    Duration::try_from_secs_f64(seconds).map_err(|e| format!("{seconds} s: {e}"))
}

impl ToJson for EngineKind {
    fn to_json(&self) -> Value {
        Value::from(self.name())
    }
}

impl FromJson for EngineKind {
    fn from_json(value: &Value) -> Result<Self, String> {
        match String::from_json(value)?.as_str() {
            "event-driven" => Ok(EngineKind::EventDriven),
            "levelized" => Ok(EngineKind::Levelized),
            other => Err(format!("unknown engine {other:?}")),
        }
    }
}

impl ToJson for Workload {
    fn to_json(&self) -> Value {
        ssresf_json::object([
            ("reset_cycles", self.reset_cycles.to_json()),
            ("run_cycles", self.run_cycles.to_json()),
        ])
    }
}

impl FromJson for Workload {
    fn from_json(value: &Value) -> Result<Self, String> {
        Ok(Workload {
            reset_cycles: field(value, "reset_cycles")?,
            run_cycles: field(value, "run_cycles")?,
        })
    }
}

/// The seed travels as a decimal string: arbitrary `u64` seeds do not fit
/// an `f64`-backed JSON number.
impl ToJson for CampaignConfig {
    fn to_json(&self) -> Value {
        ssresf_json::object([
            ("workload", self.workload.to_json()),
            ("environment", self.environment.to_json()),
            ("injections_per_cell", self.injections_per_cell.to_json()),
            ("pulse", self.pulse.to_json()),
            ("seed", Value::from(self.seed.to_string())),
            ("engine", self.engine.to_json()),
            ("threads", self.threads.to_json()),
            ("checkpoint_interval", self.checkpoint_interval.to_json()),
            ("early_stop", self.early_stop.to_json()),
            ("batching", self.batching.to_json()),
            ("batch_lanes", self.batch_lanes.to_json()),
            ("collapse_faults", self.collapse_faults.to_json()),
            ("lane_refill", self.lane_refill.to_json()),
        ])
    }
}

impl FromJson for CampaignConfig {
    fn from_json(value: &Value) -> Result<Self, String> {
        let seed: String = field(value, "seed")?;
        Ok(CampaignConfig {
            workload: field(value, "workload")?,
            environment: field(value, "environment")?,
            injections_per_cell: field(value, "injections_per_cell")?,
            pulse: field(value, "pulse")?,
            seed: seed
                .parse()
                .map_err(|e| format!("seed is not a u64: {e}"))?,
            engine: field(value, "engine")?,
            threads: field(value, "threads")?,
            checkpoint_interval: field(value, "checkpoint_interval")?,
            early_stop: field(value, "early_stop")?,
            batching: field(value, "batching")?,
            batch_lanes: field(value, "batch_lanes")?,
            collapse_faults: field(value, "collapse_faults")?,
            lane_refill: field(value, "lane_refill")?,
        })
    }
}

impl ToJson for InjectionRecord {
    fn to_json(&self) -> Value {
        ssresf_json::object([
            ("cell", self.cell.to_json()),
            ("fault", self.fault.to_json()),
            ("soft_error", self.soft_error.to_json()),
            ("divergences", self.divergences.to_json()),
        ])
    }
}

impl FromJson for InjectionRecord {
    fn from_json(value: &Value) -> Result<Self, String> {
        Ok(InjectionRecord {
            cell: field(value, "cell")?,
            fault: field(value, "fault")?,
            soft_error: field(value, "soft_error")?,
            divergences: field(value, "divergences")?,
        })
    }
}

impl ToJson for CampaignTelemetry {
    fn to_json(&self) -> Value {
        ssresf_json::object([
            ("engine", self.engine.to_json()),
            ("checkpoint_restores", self.checkpoint_restores.to_json()),
            (
                "early_stop_truncations",
                self.early_stop_truncations.to_json(),
            ),
            ("collapsed_faults", self.collapsed_faults.to_json()),
            ("lane_refills", self.lane_refills.to_json()),
        ])
    }
}

impl FromJson for CampaignTelemetry {
    fn from_json(value: &Value) -> Result<Self, String> {
        Ok(CampaignTelemetry {
            engine: field(value, "engine")?,
            checkpoint_restores: field(value, "checkpoint_restores")?,
            early_stop_truncations: field(value, "early_stop_truncations")?,
            collapsed_faults: field(value, "collapsed_faults")?,
            lane_refills: field(value, "lane_refills")?,
        })
    }
}

/// The `campaign` cache artifact.
impl ToJson for CampaignOutcome {
    fn to_json(&self) -> Value {
        ssresf_json::object([
            ("golden", self.golden.to_json()),
            ("golden_activity", self.golden_activity.to_json()),
            ("records", self.records.to_json()),
            (
                "simulation_seconds",
                self.simulation_time.as_secs_f64().to_json(),
            ),
            ("golden_seconds", self.golden_time.as_secs_f64().to_json()),
            ("total_work", self.total_work.to_json()),
            ("telemetry", self.telemetry.to_json()),
        ])
    }
}

impl FromJson for CampaignOutcome {
    fn from_json(value: &Value) -> Result<Self, String> {
        Ok(CampaignOutcome {
            golden: field(value, "golden")?,
            golden_activity: field(value, "golden_activity")?,
            records: field(value, "records")?,
            simulation_time: duration(field(value, "simulation_seconds")?)?,
            golden_time: duration(field(value, "golden_seconds")?)?,
            total_work: field(value, "total_work")?,
            telemetry: field(value, "telemetry")?,
        })
    }
}

/// The `result` frame payload.
impl ToJson for ShardOutcome {
    fn to_json(&self) -> Value {
        ssresf_json::object([
            ("shard", self.shard.to_json()),
            ("shard_count", self.shard_count.to_json()),
            ("jobs_start", self.jobs.start.to_json()),
            ("jobs_end", self.jobs.end.to_json()),
            ("outcome", self.outcome.to_json()),
            ("golden_work", self.golden_work.to_json()),
            ("golden_engine", self.golden_engine.to_json()),
            ("golden_seconds", self.golden_time.as_secs_f64().to_json()),
        ])
    }
}

impl FromJson for ShardOutcome {
    fn from_json(value: &Value) -> Result<Self, String> {
        Ok(ShardOutcome {
            shard: field(value, "shard")?,
            shard_count: field(value, "shard_count")?,
            jobs: field(value, "jobs_start")?..field(value, "jobs_end")?,
            outcome: field(value, "outcome")?,
            golden_work: field(value, "golden_work")?,
            golden_engine: field(value, "golden_engine")?,
            golden_time: duration(field(value, "golden_seconds")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reparse(value: &Value) -> Value {
        ssresf_json::parse(&value.to_string_compact()).unwrap()
    }

    #[test]
    fn campaign_config_round_trips_exactly() {
        let config = CampaignConfig {
            seed: u64::MAX - 3,
            engine: EngineKind::Levelized,
            batching: true,
            batch_lanes: 256,
            collapse_faults: true,
            lane_refill: true,
            injections_per_cell: 7,
            ..CampaignConfig::default()
        };
        let back = CampaignConfig::from_json(&reparse(&config.to_json())).unwrap();
        assert_eq!(config, back);
        let unknown = config
            .to_json()
            .to_string_compact()
            .replace("levelized", "vcs");
        assert!(CampaignConfig::from_json(&ssresf_json::parse(&unknown).unwrap()).is_err());
    }

    #[test]
    fn out_of_range_quantities_are_errors_not_panics() {
        let config = CampaignConfig::default().to_json().to_string_compact();
        let negative_flux = config.replace("\"flux\":600000000", "\"flux\":-1");
        assert_ne!(negative_flux, config);
        let err = CampaignConfig::from_json(&ssresf_json::parse(&negative_flux).unwrap());
        assert!(err.unwrap_err().contains("flux"));
        let telemetry = CampaignTelemetry::default().to_json();
        let outcome = format!(
            r#"{{"golden":{{"signals":[],"rows":[]}},"golden_activity":[],"records":[],"simulation_seconds":-1,"golden_seconds":0,"total_work":0,"telemetry":{telemetry}}}"#
        );
        assert!(CampaignOutcome::from_json(&ssresf_json::parse(&outcome).unwrap()).is_err());
        let valid = outcome.replace("-1", "0.5");
        assert!(CampaignOutcome::from_json(&ssresf_json::parse(&valid).unwrap()).is_ok());
    }

    #[test]
    fn ids_outside_u32_are_rejected_not_truncated() {
        let record = |cell: u64, fault: &str| {
            format!(r#"{{"cell":{cell},"fault":{fault},"soft_error":false,"divergences":0}}"#)
        };
        let seu = |cell: u64| format!(r#"{{"type":"seu","cell":{cell},"cycle":0,"offset":0.5}}"#);
        let set = r#"{"type":"set","net":4294967297,"cycle":0,"offset":0.5,"width":0.1}"#;
        let decode = |text: &str| InjectionRecord::from_json(&ssresf_json::parse(text).unwrap());
        assert_eq!(decode(&record(1, &seu(1))).unwrap().cell.0, 1);
        // 2^32 + 1 must not truncate to id 1.
        let wide = (1u64 << 32) + 1;
        for bad in [record(wide, &seu(1)), record(1, &seu(wide)), record(1, set)] {
            let err = decode(&bad).unwrap_err();
            assert!(err.contains("expected an exact u32"), "{err}");
        }
    }
}
