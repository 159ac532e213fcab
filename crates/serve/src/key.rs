//! Job specifications and content-addressed cache keys.
//!
//! A [`JobSpec`] is everything a worker process needs to reproduce a
//! campaign from nothing: a netlist *recipe* (a SoC preset name or a
//! [`CircuitSpec`]), the injection cell list and the campaign config. The
//! spec deliberately ships recipes rather than netlists — both sides
//! elaborate locally, and the netlist [`ContentHash`] proves they agree.
//!
//! Cache keys chain that netlist hash with the canonical JSON of exactly
//! the config fields that influence the artifact, so any campaign-visible
//! change — one gate, one seed bit, one workload cycle — moves the key,
//! while irrelevant knobs (thread count) leave it alone.

use ssresf::CampaignConfig;
use ssresf_json::{field, FromJson, ToJson, Value};
use ssresf_netlist::generate::CircuitSpec;
use ssresf_netlist::{CellId, ContentHash, FlatNetlist, StableHasher};
use ssresf_socgen::{build_soc, SocConfig};

/// The netlist recipe of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum NetlistSpec {
    /// A named SoC preset: one of the paper's Table-1 configurations,
    /// `PULP SoC_RH` or `PULP SoC_Mega`.
    Soc {
        /// The preset's [`SocConfig::name`].
        preset: String,
    },
    /// A spec-built random circuit (conformance fuzzing, tests).
    Circuit(CircuitSpec),
}

/// Every SoC preset addressable by name.
pub fn soc_presets() -> Vec<SocConfig> {
    let mut presets = SocConfig::table1();
    presets.push(SocConfig::rad_hard());
    presets.push(SocConfig::mega());
    presets
}

impl NetlistSpec {
    /// Elaborates the recipe into a flat netlist.
    ///
    /// # Errors
    ///
    /// Returns a description for unknown presets and elaboration
    /// failures.
    pub fn build(&self) -> Result<FlatNetlist, String> {
        match self {
            NetlistSpec::Soc { preset } => {
                let config = soc_presets()
                    .into_iter()
                    .find(|c| c.name == *preset)
                    .ok_or_else(|| format!("unknown SoC preset {preset:?}"))?;
                let built = build_soc(&config).map_err(|e| e.to_string())?;
                built.design.flatten().map_err(|e| e.to_string())
            }
            NetlistSpec::Circuit(spec) => spec.build_design().flatten().map_err(|e| e.to_string()),
        }
    }
}

impl ToJson for NetlistSpec {
    fn to_json(&self) -> Value {
        match self {
            NetlistSpec::Soc { preset } => {
                ssresf_json::object([("type", Value::from("soc")), ("preset", preset.to_json())])
            }
            NetlistSpec::Circuit(spec) => {
                ssresf_json::object([("type", Value::from("circuit")), ("spec", spec.to_json())])
            }
        }
    }
}

impl FromJson for NetlistSpec {
    fn from_json(value: &Value) -> Result<Self, String> {
        match field::<String>(value, "type")?.as_str() {
            "soc" => Ok(NetlistSpec::Soc {
                preset: field(value, "preset")?,
            }),
            "circuit" => Ok(NetlistSpec::Circuit(field(value, "spec")?)),
            other => Err(format!("unknown netlist spec type {other:?}")),
        }
    }
}

/// A self-contained campaign job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The netlist recipe.
    pub netlist: NetlistSpec,
    /// Cells to inject into, in campaign order.
    pub cells: Vec<CellId>,
    /// The campaign configuration.
    pub config: CampaignConfig,
}

impl ToJson for JobSpec {
    fn to_json(&self) -> Value {
        ssresf_json::object([
            ("netlist", self.netlist.to_json()),
            ("cells", self.cells.to_json()),
            ("config", self.config.to_json()),
        ])
    }
}

impl FromJson for JobSpec {
    fn from_json(value: &Value) -> Result<Self, String> {
        Ok(JobSpec {
            netlist: field(value, "netlist")?,
            cells: field(value, "cells")?,
            config: field(value, "config")?,
        })
    }
}

/// Key of a cached campaign outcome: the netlist content, the injection
/// cell list and the canonical JSON of the full config — minus the knobs
/// that provably cannot change any outcome byte (thread count, batch
/// shape in scalar mode, and early stop when lane refilling already
/// retires lanes).
pub fn campaign_key(
    netlist: ContentHash,
    cells: &[CellId],
    config: &CampaignConfig,
) -> ContentHash {
    // Records are independent of thread count by the determinism contract,
    // so equal campaigns on differently sized machines share an artifact.
    // Batch shape only matters when batching is on (work totals depend on
    // packing); zero it otherwise so scalar runs ignore it too.
    let mut canonical = *config;
    canonical.threads = 0;
    if !canonical.batching {
        canonical.batch_lanes = 0;
        canonical.collapse_faults = false;
        canonical.lane_refill = false;
    } else if canonical.lane_refill {
        // The lane queue retires lanes under lane refill whether or not
        // early stop is set, so both settings give the same outcome.
        canonical.early_stop = false;
    }
    let mut hasher = StableHasher::new();
    hasher.update_str("ssresf-serve-campaign-v1");
    hasher.update_u64((netlist.0 >> 64) as u64);
    hasher.update_u64(netlist.0 as u64);
    hasher.update_str(&canonical.to_json().to_string_compact());
    hasher.update_u64(cells.len() as u64);
    for cell in cells {
        hasher.update_u64(u64::from(cell.0));
    }
    hasher.finish()
}

/// A tiny fixed circuit spec for tests and smoke benches.
pub fn smoke_circuit(name: &str) -> CircuitSpec {
    use ssresf_netlist::generate::GateSpec;
    use ssresf_netlist::CellKind;
    CircuitSpec {
        name: name.to_owned(),
        inputs: 2,
        gates: vec![
            GateSpec {
                kind: CellKind::Xor2,
                operands: vec![0, 2],
            },
            GateSpec {
                kind: CellKind::And2,
                operands: vec![1, 3],
            },
            GateSpec {
                kind: CellKind::Nor2,
                operands: vec![4, 5],
            },
            GateSpec {
                kind: CellKind::Inv,
                operands: vec![6],
            },
        ],
        ff_d: vec![6, 7, 4],
        outputs: 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_spec_round_trips() {
        let spec = JobSpec {
            netlist: NetlistSpec::Circuit(smoke_circuit("k")),
            cells: vec![CellId(0), CellId(3), CellId(1)],
            config: CampaignConfig {
                seed: 99,
                ..CampaignConfig::default()
            },
        };
        let text = spec.to_json().to_string_compact();
        let back = JobSpec::from_json(&ssresf_json::parse(&text).unwrap()).unwrap();
        assert_eq!(spec, back);
        let soc = NetlistSpec::Soc {
            preset: "PULP SoC_1".into(),
        };
        let text = soc.to_json().to_string_compact();
        assert_eq!(
            NetlistSpec::from_json(&ssresf_json::parse(&text).unwrap()).unwrap(),
            soc
        );
        let unknown = text.replace("\"soc\"", "\"verilog\"");
        assert!(NetlistSpec::from_json(&ssresf_json::parse(&unknown).unwrap()).is_err());
    }

    #[test]
    fn keys_ignore_execution_knobs_but_track_content() {
        let flat = NetlistSpec::Circuit(smoke_circuit("k")).build().unwrap();
        let hash = flat.content_hash();
        let cells = vec![CellId(0), CellId(1)];
        let base = CampaignConfig::default();
        let threads = CampaignConfig { threads: 8, ..base };
        assert_eq!(
            campaign_key(hash, &cells, &base),
            campaign_key(hash, &cells, &threads),
            "thread count is not campaign-observable"
        );
        let reseeded = CampaignConfig { seed: 4, ..base };
        assert_ne!(
            campaign_key(hash, &cells, &base),
            campaign_key(hash, &cells, &reseeded)
        );
        assert_ne!(
            campaign_key(hash, &cells, &base),
            campaign_key(hash, &[CellId(1), CellId(0)], &base),
            "cell order determines record order"
        );
        let longer = CampaignConfig {
            workload: ssresf::Workload {
                reset_cycles: 3,
                run_cycles: 121,
            },
            ..base
        };
        assert_ne!(
            campaign_key(hash, &cells, &base),
            campaign_key(hash, &cells, &longer)
        );
    }

    #[test]
    fn campaign_key_ignores_early_stop_under_lane_refill() {
        let flat = NetlistSpec::Circuit(smoke_circuit("k")).build().unwrap();
        let hash = flat.content_hash();
        let cells = vec![CellId(0), CellId(1)];
        let refill = CampaignConfig {
            engine: ssresf::EngineKind::Levelized,
            batching: true,
            lane_refill: true,
            ..CampaignConfig::default()
        };
        let key = |config: CampaignConfig, early_stop| {
            campaign_key(
                hash,
                &cells,
                &CampaignConfig {
                    early_stop,
                    ..config
                },
            )
        };
        assert_eq!(key(refill, false), key(refill, true));
        let scalar = CampaignConfig::default();
        assert_ne!(key(scalar, false), key(scalar, true));
        let unrefilled = CampaignConfig {
            lane_refill: false,
            ..refill
        };
        assert_ne!(key(unrefilled, false), key(unrefilled, true));
    }

    #[test]
    fn unknown_presets_are_rejected() {
        let bad = NetlistSpec::Soc {
            preset: "PULP SoC_404".into(),
        };
        assert!(bad.build().is_err());
        assert!(NetlistSpec::Soc {
            preset: "PULP SoC_1".into()
        }
        .build()
        .is_ok());
    }
}
