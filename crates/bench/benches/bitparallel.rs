//! Criterion comparison of scalar vs bit-parallel batched fault-injection
//! campaigns — the PPSFP-style wide-lane kernel's per-injection
//! gate-evaluation reduction on the socgen SoC, across lane widths
//! (64/256/512) and with fault-list collapsing plus early lane retirement.
//!
//! Besides the wall-clock benchmark, this suite asserts the headline
//! invariants once per process: every batched configuration's records are
//! bit-identical to scalar records, the plain 64-lane path keeps its
//! historic >= 5x eval reduction, and the wide collapsing configurations
//! at least double the 64-lane baseline reduction recorded when batching
//! landed (50.4x). The measured numbers are written to
//! `BENCH_bitparallel.json` at the workspace root.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ssresf::{run_campaign, CampaignConfig, Dut, EngineKind, Workload};
use ssresf_bench::write_bench_report;
use ssresf_netlist::CellId;
use ssresf_socgen::{build_soc, SocConfig};
use std::time::Instant;

/// The 64-lane eval reduction recorded in `BENCH_bitparallel.json` when
/// bit-parallel batching first landed; the wide configurations must at
/// least double it.
const PR4_BASELINE_EVAL_REDUCTION: f64 = 50.4;

fn campaign_scalar_vs_bitparallel(c: &mut Criterion) {
    let soc = build_soc(&SocConfig::table1()[0]).expect("soc builds");
    let flat = soc.design.flatten().expect("soc flattens");
    let dut = Dut::from_conventions(&flat).expect("conventions");
    // 120 cells x 2 injections = 240 jobs: four 63-fault batches at 64
    // lanes, but a single batch at 256+ lanes, so wider words genuinely
    // amortize more faults per word evaluation.
    let cells: Vec<CellId> = flat
        .iter_cells()
        .map(|(id, _)| id)
        .step_by(3)
        .take(120)
        .collect();
    let scalar_config = CampaignConfig {
        workload: Workload {
            reset_cycles: 3,
            run_cycles: 120,
        },
        injections_per_cell: 2,
        engine: EngineKind::Levelized,
        threads: 1,
        checkpoint_interval: 0,
        ..CampaignConfig::default()
    };
    let batched = |batch_lanes, collapse_faults, lane_refill| CampaignConfig {
        batching: true,
        batch_lanes,
        collapse_faults,
        lane_refill,
        ..scalar_config
    };
    let configs = [
        ("w64", batched(64, false, false)),
        ("w256_collapse_refill", batched(256, true, true)),
        ("w512_collapse_refill", batched(512, true, true)),
    ];

    let scalar_started = Instant::now();
    let scalar = run_campaign(&dut, &cells, &scalar_config).expect("campaign runs");
    let scalar_wall = scalar_started.elapsed();
    let injections = scalar.records.len() as u64;

    let mut config_reports = Vec::new();
    let mut headline = f64::MIN;
    let mut headline_word_evals = 0u64;
    let mut headline_wall_ratio = 0.0f64;
    let mut scalar_inj_shared = 0u64;
    for (name, config) in &configs {
        let started = Instant::now();
        let run = run_campaign(&dut, &cells, config).expect("campaign runs");
        let wall = started.elapsed();
        assert_eq!(
            scalar.records, run.records,
            "{name}: bit-parallel batching changed records"
        );
        // The golden run is a scalar levelized run in both modes; subtract
        // it so the comparison isolates injection work.
        let golden_evals = run.telemetry.engine.cells_evaluated;
        let scalar_inj = scalar.telemetry.engine.cells_evaluated - golden_evals;
        scalar_inj_shared = scalar_inj;
        let batched_inj = run.telemetry.engine.word_evals;
        let reduction = scalar_inj as f64 / batched_inj.max(1) as f64;
        let wall_ratio = scalar_wall.as_secs_f64() / wall.as_secs_f64().max(1e-9);
        println!(
            "{name}: scalar {:.0} gate evals/injection vs {:.0} word evals/injection \
             ({reduction:.1}x reduction, wall-clock ratio {wall_ratio:.2}x, \
             {} collapsed, {} refills)",
            scalar_inj as f64 / injections as f64,
            batched_inj as f64 / injections as f64,
            run.telemetry.collapsed_faults,
            run.telemetry.lane_refills,
        );
        if *name == "w64" {
            assert!(
                reduction >= 5.0,
                "64-lane batching below 5x eval reduction: {reduction:.2}x"
            );
        } else {
            assert!(
                reduction >= 2.0 * PR4_BASELINE_EVAL_REDUCTION,
                "{name}: wide collapsing batching below 2x the 64-lane baseline \
                 ({:.1}x required): {reduction:.2}x",
                2.0 * PR4_BASELINE_EVAL_REDUCTION
            );
        }
        if reduction > headline {
            headline = reduction;
            headline_word_evals = batched_inj;
            headline_wall_ratio = wall_ratio;
        }
        config_reports.push((
            *name,
            ssresf_json::object([
                (
                    "batch_lanes",
                    ssresf_json::Value::from(config.batch_lanes as u64),
                ),
                (
                    "collapse_faults",
                    ssresf_json::Value::from(config.collapse_faults),
                ),
                ("lane_refill", ssresf_json::Value::from(config.lane_refill)),
                (
                    "batched_word_evals_per_injection",
                    ssresf_json::Value::from(batched_inj as f64 / injections as f64),
                ),
                ("eval_reduction", ssresf_json::Value::from(reduction)),
                ("wall_clock_ratio", ssresf_json::Value::from(wall_ratio)),
                (
                    "collapsed_faults",
                    ssresf_json::Value::from(run.telemetry.collapsed_faults),
                ),
                (
                    "lane_refills",
                    ssresf_json::Value::from(run.telemetry.lane_refills),
                ),
            ]),
        ));
    }

    let report = ssresf_json::object([
        (
            "soc",
            ssresf_json::Value::from(SocConfig::table1()[0].name.clone()),
        ),
        ("injections", ssresf_json::Value::from(injections)),
        (
            "scalar_gate_evals_per_injection",
            ssresf_json::Value::from(scalar_inj_shared as f64 / injections as f64),
        ),
        (
            "batched_word_evals_per_injection",
            ssresf_json::Value::from(headline_word_evals as f64 / injections as f64),
        ),
        ("eval_reduction", ssresf_json::Value::from(headline)),
        (
            "wall_clock_ratio",
            ssresf_json::Value::from(headline_wall_ratio),
        ),
        ("records_identical", ssresf_json::Value::from(true)),
        (
            "baseline_pr4_eval_reduction",
            ssresf_json::Value::from(PR4_BASELINE_EVAL_REDUCTION),
        ),
        ("configs", ssresf_json::object(config_reports)),
    ]);
    write_bench_report(
        "BENCH_bitparallel.json",
        &(report.to_string_pretty() + "\n"),
    )
    .expect("write BENCH_bitparallel.json");

    let mut group = c.benchmark_group("campaign_bitparallel_soc1");
    group.bench_with_input(
        BenchmarkId::from_parameter("scalar"),
        &scalar_config,
        |b, config| {
            b.iter(|| run_campaign(&dut, &cells, config).expect("campaign runs"));
        },
    );
    for (name, config) in &configs {
        group.bench_with_input(BenchmarkId::from_parameter(*name), config, |b, config| {
            b.iter(|| run_campaign(&dut, &cells, config).expect("campaign runs"));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = campaign_scalar_vs_bitparallel
}
criterion_main!(benches);
