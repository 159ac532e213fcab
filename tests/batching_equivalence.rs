//! Property test: fault-list collapsing and early lane retirement are
//! pure optimizations.
//!
//! Across random seed-derived scenarios, a batched campaign with
//! equivalence collapsing and mid-sweep lane refilling enabled, and one
//! with early stop but no refilling (lanes retire and stay idle), must
//! each produce exactly the same [`InjectionRecord`] sequence — same
//! cells, same faults, same verdicts, same divergence counts, in the same
//! order — as the plain uncollapsed 64-lane batched path, at every
//! supported lane width (64/256/512). Case counts honor the
//! `PROPTEST_CASES` environment variable.
//!
//! [`InjectionRecord`]: ssresf::InjectionRecord

use ssresf::{run_campaign, CampaignConfig, Dut, EngineKind, Workload};
use ssresf_conformance::{cases, Scenario};
use ssresf_netlist::CellId;

#[test]
fn collapsing_and_retirement_preserve_records_across_widths() {
    for seed in 0..cases(12) {
        let scenario = Scenario::from_seed(seed);
        let design = scenario.circuit.build_design();
        let flat = design.flatten().unwrap();
        let dut = Dut::from_conventions(&flat).unwrap();
        let mut cells: Vec<CellId> = scenario
            .faults
            .iter()
            .map(|f| CellId((f.cell as usize % flat.cells().len()) as u32))
            .collect();
        cells.sort();
        cells.dedup();
        // Several injections per cell over the scenario's short workload
        // make same-site collisions — the interesting collapsing case —
        // likely, while the identity must hold either way.
        let base = CampaignConfig {
            workload: Workload {
                reset_cycles: scenario.reset_cycles,
                run_cycles: scenario.run_cycles,
            },
            injections_per_cell: 4,
            seed: scenario.seed,
            engine: EngineKind::Levelized,
            threads: 2,
            checkpoint_interval: scenario.checkpoint_interval,
            batching: true,
            ..CampaignConfig::default()
        };
        let baseline = run_campaign(&dut, &cells, &base)
            .unwrap_or_else(|e| panic!("seed {seed}: baseline 64-lane run failed: {e}"));
        for batch_lanes in ssresf_sim::SUPPORTED_LANE_COUNTS {
            let modes = [
                (
                    "collapse+refill",
                    CampaignConfig {
                        batch_lanes,
                        collapse_faults: true,
                        lane_refill: true,
                        ..base
                    },
                ),
                (
                    "early-stop",
                    CampaignConfig {
                        batch_lanes,
                        early_stop: true,
                        ..base
                    },
                ),
            ];
            for (mode, config) in modes {
                let fast = run_campaign(&dut, &cells, &config).unwrap_or_else(|e| {
                    panic!("seed {seed}: {mode} run at {batch_lanes} lanes failed: {e}")
                });
                assert_eq!(
                    baseline.records, fast.records,
                    "seed {seed}: {mode} records diverge at {batch_lanes} lanes"
                );
                assert_eq!(baseline.golden, fast.golden, "seed {seed}");
            }
        }
    }
}
