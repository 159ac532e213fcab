//! The bytes the artifact cache and the worker frames carry: pinned cache
//! keys and artifact digests, and byte-exact round trips of every carried
//! type.

use ssresf::{
    run_campaign, run_campaign_shard, CampaignConfig, CampaignOutcome, Dut, EngineKind, Instrument,
};
use ssresf_json::{FromJson, ToJson, Value};
use ssresf_netlist::{CellId, FlatNetlist, StableHasher};
use ssresf_serve::key::smoke_circuit;
use ssresf_serve::{campaign_key, JobSpec, Message, NetlistSpec};
use std::time::Duration;

fn levelized_batched() -> CampaignConfig {
    CampaignConfig {
        engine: EngineKind::Levelized,
        batching: true,
        collapse_faults: true,
        lane_refill: true,
        threads: 1,
        ..CampaignConfig::default()
    }
}

fn smoke() -> (FlatNetlist, Vec<CellId>) {
    let flat = NetlistSpec::Circuit(smoke_circuit("pin")).build().unwrap();
    let cells = flat.iter_cells().map(|(id, _)| id).collect();
    (flat, cells)
}

/// A levelized batched campaign over every smoke-circuit cell, with fixed
/// wall-clock fields so its encoding is deterministic.
fn smoke_campaign(flat: &FlatNetlist, cells: &[CellId]) -> CampaignOutcome {
    let dut = Dut::from_conventions(flat).unwrap();
    let mut outcome = run_campaign(&dut, cells, &levelized_batched()).unwrap();
    outcome.simulation_time = Duration::from_millis(1500);
    outcome.golden_time = Duration::from_millis(250);
    outcome
}

fn digest(value: &Value) -> String {
    let mut hasher = StableHasher::new();
    hasher.update_str(&value.to_string_compact());
    hasher.finish().to_hex()
}

#[test]
fn cache_keys_and_artifact_bytes_are_pinned() {
    let (flat, cells) = smoke();
    let hash = flat.content_hash();
    let default = CampaignConfig::default();
    let batched = levelized_batched();
    assert_eq!(
        campaign_key(hash, &cells, &default).to_hex(),
        "dc63ceac4d31d423c7092c4ccd47893e"
    );
    assert_eq!(
        campaign_key(hash, &cells, &batched).to_hex(),
        "dacc5811e8e1d3a153be86536ef7e6b7"
    );
    let spec = JobSpec {
        netlist: NetlistSpec::Circuit(smoke_circuit("pin")),
        cells: cells.clone(),
        config: batched,
    };
    assert_eq!(digest(&spec.to_json()), "94673e5933a3ccfb337acfb697101f46");
    let outcome = smoke_campaign(&flat, &cells);
    assert_eq!(
        digest(&outcome.to_json()),
        "e5319ffa73d8caf08c7138e9dbfab412"
    );
}

/// Encodes, prints, parses and decodes `value`, and checks that the
/// decoded value encodes to the same bytes.
fn round_trip<T: ToJson + FromJson>(value: &T) -> T {
    let text = value.to_json().to_string_compact();
    let back = T::from_json(&ssresf_json::parse(&text).unwrap()).unwrap();
    assert_eq!(back.to_json().to_string_compact(), text);
    back
}

#[test]
fn every_cached_and_framed_type_round_trips() {
    let (flat, cells) = smoke();
    let circuit = JobSpec {
        netlist: NetlistSpec::Circuit(smoke_circuit("rt")),
        cells: cells.clone(),
        config: CampaignConfig {
            seed: u64::MAX - 3,
            ..levelized_batched()
        },
    };
    let soc = JobSpec {
        netlist: NetlistSpec::Soc {
            preset: "PULP SoC_1".into(),
        },
        ..circuit.clone()
    };
    assert_eq!(round_trip(&circuit), circuit);
    assert_eq!(round_trip(&soc), soc);

    let outcome = smoke_campaign(&flat, &cells);
    let back = round_trip(&outcome);
    assert_eq!(back.records, outcome.records);
    assert_eq!(back.golden_time, outcome.golden_time);

    let dut = Dut::from_conventions(&flat).unwrap();
    let mut shard =
        run_campaign_shard(&dut, &cells, &circuit.config, 1, 2, &Instrument::default()).unwrap();
    shard.golden_time = Duration::from_millis(125);
    shard.outcome.simulation_time = Duration::from_millis(500);
    shard.outcome.golden_time = Duration::ZERO;
    let back = round_trip(&shard);
    assert_eq!(back.jobs, shard.jobs);
    assert_eq!(back.golden_engine, shard.golden_engine);

    for message in [
        Message::Job {
            spec: soc,
            shard: 0,
            shard_count: 1,
        },
        Message::Cancel,
        Message::Heartbeat {
            shard: 1,
            completed: 5,
            total: 9,
            soft_errors: 2,
            elapsed_seconds: 0.125,
            phase: "heartbeat".into(),
        },
        Message::Result {
            outcome: Box::new(shard),
        },
        Message::Cancelled { shard: 1 },
        Message::Error {
            message: "boom".into(),
        },
    ] {
        round_trip(&message);
    }
}
