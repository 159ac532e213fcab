//! Property tests: mission-profile campaigns keep the campaign's
//! determinism discipline.
//!
//! Across random seed-derived scenarios: (1) mission records are
//! byte-identical across thread counts and batched lane widths (same
//! discipline as `batching_equivalence.rs`); (2) a single-segment mission
//! whose environment matches the static config is bit-identical to the
//! static campaign; (3) per-segment SER totals sum to the mission SER
//! within f64 tolerance. Case counts honor the `PROPTEST_CASES`
//! environment variable.

use ssresf::mission::environment_of;
use ssresf::{
    run_campaign, run_mission_campaign, CampaignConfig, Dut, EngineKind, SsresfError, Workload,
};
use ssresf_conformance::{cases, Scenario};
use ssresf_json::FromJson;
use ssresf_netlist::CellId;
use ssresf_radiation::{MissionProfile, MissionSegment, ParticleEnvironment};

/// The scenario's fault-target cells, deduplicated.
fn target_cells(scenario: &Scenario, cell_count: usize) -> Vec<CellId> {
    let mut cells: Vec<CellId> = scenario
        .faults
        .iter()
        .map(|f| CellId((f.cell as usize % cell_count) as u32))
        .collect();
    cells.sort();
    cells.dedup();
    cells
}

/// A quiet-orbit + flare mission partitioning the scenario's run window.
fn scenario_mission(scenario: &Scenario) -> MissionProfile {
    let quiet = (scenario.run_cycles / 2).max(1);
    let flare = (scenario.run_cycles - quiet).max(1);
    MissionProfile::orbit_with_flare(quiet, flare).unwrap()
}

#[test]
fn mission_records_are_deterministic_across_threads_and_batch_widths() {
    for seed in 0..cases(10) {
        let scenario = Scenario::from_seed(seed);
        let design = scenario.circuit.build_design();
        let flat = design.flatten().unwrap();
        let dut = Dut::from_conventions(&flat).unwrap();
        let cells = target_cells(&scenario, flat.cells().len());
        let mission = scenario_mission(&scenario);
        let base = CampaignConfig {
            workload: Workload {
                reset_cycles: scenario.reset_cycles,
                run_cycles: scenario.run_cycles,
            },
            injections_per_cell: 3,
            seed: scenario.seed,
            engine: EngineKind::Levelized,
            threads: 1,
            checkpoint_interval: scenario.checkpoint_interval,
            ..CampaignConfig::default()
        };
        let reference = run_mission_campaign(&dut, &cells, &base, &mission)
            .unwrap_or_else(|e| panic!("seed {seed}: reference mission run failed: {e}"));
        // Thread counts must not reorder or change records.
        for threads in [2, 4] {
            let threaded =
                run_mission_campaign(&dut, &cells, &CampaignConfig { threads, ..base }, &mission)
                    .unwrap_or_else(|e| panic!("seed {seed}: {threads}-thread run failed: {e}"));
            assert_eq!(
                reference.campaign.records, threaded.campaign.records,
                "seed {seed}: records diverge at {threads} threads"
            );
            assert_eq!(reference.segments, threaded.segments, "seed {seed}");
        }
        // Batched lane widths (with the full fast path) must agree too.
        for batch_lanes in ssresf_sim::SUPPORTED_LANE_COUNTS {
            let batched = run_mission_campaign(
                &dut,
                &cells,
                &CampaignConfig {
                    batching: true,
                    batch_lanes,
                    collapse_faults: true,
                    lane_refill: true,
                    threads: 2,
                    ..base
                },
                &mission,
            )
            .unwrap_or_else(|e| {
                panic!("seed {seed}: batched mission run at {batch_lanes} lanes failed: {e}")
            });
            assert_eq!(
                reference.campaign.records, batched.campaign.records,
                "seed {seed}: batched records diverge at {batch_lanes} lanes"
            );
            assert_eq!(reference.segments, batched.segments, "seed {seed}");
        }
    }
}

#[test]
fn single_segment_mission_is_bit_identical_to_static_campaign() {
    for seed in 0..cases(12) {
        let scenario = Scenario::from_seed(seed);
        let design = scenario.circuit.build_design();
        let flat = design.flatten().unwrap();
        let dut = Dut::from_conventions(&flat).unwrap();
        let cells = target_cells(&scenario, flat.cells().len());
        let config = CampaignConfig {
            workload: Workload {
                reset_cycles: scenario.reset_cycles,
                run_cycles: scenario.run_cycles,
            },
            injections_per_cell: 2,
            seed: scenario.seed,
            engine: if seed % 2 == 0 {
                EngineKind::EventDriven
            } else {
                EngineKind::Levelized
            },
            ..CampaignConfig::default()
        };
        let static_outcome = run_campaign(&dut, &cells, &config)
            .unwrap_or_else(|e| panic!("seed {seed}: static campaign failed: {e}"));
        let mission =
            MissionProfile::single("static", scenario.run_cycles, environment_of(&config)).unwrap();
        let mission_outcome = run_mission_campaign(&dut, &cells, &config, &mission)
            .unwrap_or_else(|e| panic!("seed {seed}: mission campaign failed: {e}"));
        assert_eq!(
            static_outcome.records, mission_outcome.campaign.records,
            "seed {seed}: single-segment mission is not bit-identical to the static campaign"
        );
        assert_eq!(
            static_outcome.golden, mission_outcome.campaign.golden,
            "seed {seed}"
        );
    }
}

#[test]
fn segment_ser_totals_sum_to_mission_ser() {
    for seed in 0..cases(12) {
        let scenario = Scenario::from_seed(seed);
        let design = scenario.circuit.build_design();
        let flat = design.flatten().unwrap();
        let dut = Dut::from_conventions(&flat).unwrap();
        let cells = target_cells(&scenario, flat.cells().len());
        let config = CampaignConfig {
            workload: Workload {
                reset_cycles: scenario.reset_cycles,
                run_cycles: scenario.run_cycles,
            },
            injections_per_cell: 4,
            seed: scenario.seed,
            ..CampaignConfig::default()
        };
        let mission = scenario_mission(&scenario);
        let outcome = run_mission_campaign(&dut, &cells, &config, &mission)
            .unwrap_or_else(|e| panic!("seed {seed}: mission campaign failed: {e}"));
        let injections: usize = outcome.segments.iter().map(|s| s.injections).sum();
        let errors: usize = outcome.segments.iter().map(|s| s.soft_errors).sum();
        assert_eq!(injections, outcome.campaign.records.len(), "seed {seed}");
        assert_eq!(errors, outcome.campaign.soft_errors(), "seed {seed}");
        if injections > 0 {
            let weighted: f64 = outcome
                .segments
                .iter()
                .map(|s| s.ser() * s.injections as f64)
                .sum::<f64>()
                / injections as f64;
            assert!(
                (weighted - outcome.ser()).abs() < 1e-12,
                "seed {seed}: weighted segment SER {weighted} != mission SER {}",
                outcome.ser()
            );
        }
    }
}

#[test]
fn invalid_mission_profiles_are_rejected_per_field() {
    // Empty profile.
    let err = MissionProfile::new(Vec::new()).unwrap_err();
    assert!(err.to_string().contains("no segments"), "{err}");
    // Zero-duration segment (names the offender).
    let err = MissionProfile::new(vec![
        MissionSegment::new("ok", 5, ParticleEnvironment::proton()),
        MissionSegment::new("empty", 0, ParticleEnvironment::neutron()),
    ])
    .unwrap_err();
    assert!(err.to_string().contains("empty"), "{err}");
    assert!(err.to_string().contains("zero duration"), "{err}");
    // A negative flux can only arrive through user-provided JSON (the unit
    // newtypes panic on construction); the parse-then-validate gate must
    // reject it.
    let text = r#"{
      "segments": [
        {
          "label": "bad",
          "duration_cycles": 5,
          "environment": {
            "kind": "proton",
            "let": 1.0,
            "flux": -4e8,
            "response": { "sigma_sat": 1.2e-9, "threshold": 0.3, "width": 12.0, "shape": 1.5 }
          }
        }
      ]
    }"#;
    let err = MissionProfile::from_json(&ssresf_json::parse(text).unwrap()).unwrap_err();
    assert!(err.to_string().contains("flux"), "{err}");

    // The campaign layer surfaces the same rejections as Config errors.
    let scenario = Scenario::from_seed(0);
    let design = scenario.circuit.build_design();
    let flat = design.flatten().unwrap();
    let dut = Dut::from_conventions(&flat).unwrap();
    let cells = target_cells(&scenario, flat.cells().len());
    let profile = MissionProfile {
        segments: vec![MissionSegment::new(
            "zero",
            0,
            ParticleEnvironment::proton(),
        )],
    };
    let err = run_mission_campaign(&dut, &cells, &CampaignConfig::default(), &profile).unwrap_err();
    assert!(matches!(err, SsresfError::Config(_)), "{err}");
}
