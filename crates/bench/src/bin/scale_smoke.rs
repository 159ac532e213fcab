//! Million-cell scale gate: elaborates the `SocConfig::mega()` preset
//! (~1.5M cells, a 32k-row streamed SRAM sub-array), levelizes it, and runs
//! the full SSRESF pipeline — clustering, equal-proportion sampling, a
//! short bit-parallel campaign, SVM training and whole-chip prediction —
//! under an asserted wall-clock and peak-RSS budget.
//!
//! ```sh
//! cargo run --release -p ssresf-bench --bin scale_smoke
//! ```
//!
//! Writes the measured numbers, including the pipeline's per-stage wall
//! times, to `BENCH_scale.json` at the workspace root and exits nonzero
//! when any budget is exceeded or when the preset stops qualifying as
//! million-cell. CI runs this as the `scale-smoke` job; the budgets are
//! sized ~4x above warm-run numbers on a stock 4-vCPU runner so the gate
//! only trips on complexity-class regressions (accidental O(n²) storage
//! or name materialization), not machine noise.

use ssresf::{EngineKind, Ssresf, SsresfConfig, Workload};
use ssresf_bench::quick;
use ssresf_socgen::{build_soc, SocConfig};
use std::time::Instant;

/// Hard wall-clock ceiling for build + flatten + levelize + full pipeline.
const WALL_BUDGET_SECONDS: f64 = 600.0;
/// Hard peak-RSS ceiling. The struct-of-arrays netlist plus the feature
/// matrix for ~1.5M cells measure well under 2 GiB; 6 GiB headroom keeps
/// the gate meaningful while tolerating allocator and runner variance.
const PEAK_RSS_BUDGET_MIB: f64 = 6144.0;
/// The preset must stay a genuine million-cell SoC.
const MIN_CELLS: usize = 1_000_000;

fn fail(msg: &str) -> ! {
    eprintln!("scale_smoke: FAIL: {msg}");
    std::process::exit(1);
}

/// Peak resident set size of this process in MiB, from `VmHWM` in
/// `/proc/self/status` (Linux-only; returns 0.0 elsewhere so the RSS
/// budget never trips on platforms we cannot measure).
fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kib: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kib / 1024.0;
        }
    }
    0.0
}

fn main() {
    let config = SocConfig::mega();
    let started = Instant::now();
    let soc = build_soc(&config).unwrap_or_else(|e| fail(&format!("mega preset build: {e}")));
    let build_s = started.elapsed().as_secs_f64();
    eprintln!("scale_smoke: build {build_s:.1}s");

    let started = Instant::now();
    let flat = soc
        .design
        .flatten()
        .unwrap_or_else(|e| fail(&format!("mega preset flatten: {e}")));
    let flatten_s = started.elapsed().as_secs_f64();
    eprintln!("scale_smoke: flatten {flatten_s:.1}s");

    let cells = flat.cells().len();
    let nets = flat.nets().len();
    if cells < MIN_CELLS {
        fail(&format!(
            "mega preset shrank to {cells} cells (< {MIN_CELLS})"
        ));
    }

    let started = Instant::now();
    let lv = flat
        .levelize()
        .unwrap_or_else(|e| fail(&format!("mega preset levelize: {e}")));
    let levelize_s = started.elapsed().as_secs_f64();
    eprintln!("scale_smoke: levelize {levelize_s:.1}s ({cells} cells)");

    // Short campaign: a few hundred sampled cells, bit-parallel batching so
    // the injection cost is a handful of whole-circuit word simulations.
    let mut pipeline = SsresfConfig::default().with_memory_scale(soc.info.memory_scale_factor);
    pipeline.clustering.clusters = 24;
    pipeline.clustering.layer_depth = 3;
    pipeline.sampling.fraction = 0.0002;
    pipeline.sampling.min_per_cluster = 2;
    pipeline.campaign.workload = Workload {
        reset_cycles: 2,
        run_cycles: if quick() { 8 } else { 16 },
    };
    pipeline.campaign.injections_per_cell = 1;
    pipeline.campaign.engine = EngineKind::Levelized;
    pipeline.campaign.batching = true;
    pipeline.campaign.batch_lanes = 256;
    pipeline.campaign.collapse_faults = true;
    pipeline.campaign.lane_refill = true;
    pipeline.campaign.checkpoint_interval = 0;
    pipeline.campaign.threads = 0;

    let metrics = ssresf::MetricsRegistry::new();
    let started = Instant::now();
    let analysis = Ssresf::new(pipeline)
        .analyze_with(&flat, &ssresf::Instrument::with_metrics(&metrics))
        .unwrap_or_else(|e| fail(&format!("mega preset pipeline: {e}")));
    let pipeline_s = started.elapsed().as_secs_f64();
    eprintln!("scale_smoke: pipeline {pipeline_s:.1}s");

    let total_s = build_s + flatten_s + levelize_s + pipeline_s;
    let peak_mib = peak_rss_mib();
    let injections = analysis.campaign.records.len();
    if analysis.predictions.len() != cells {
        fail("pipeline did not predict every cell");
    }
    if soc.info.memory_scale_factor <= 1.0 {
        fail("mega preset lost its streamed-memory scale factor");
    }

    // Headroom ratios (budget / measured) are the bench_check metrics:
    // higher is better, and >1 means the budget holds.
    let wall_headroom = WALL_BUDGET_SECONDS / total_s.max(1e-9);
    let rss_headroom = PEAK_RSS_BUDGET_MIB / peak_mib.max(1.0);
    // The pipeline's per-stage wall times, keyed without the `stage.`
    // prefix. Informational: no gate reads them.
    let timings = metrics.to_json();
    let stage_seconds = ssresf_json::Value::Object(
        timings
            .get("timings_s")
            .and_then(|t| t.as_object())
            .unwrap_or_default()
            .iter()
            .filter_map(|(name, secs)| {
                Some((name.strip_prefix("stage.")?.to_owned(), secs.clone()))
            })
            .collect(),
    );
    let report = format!(
        "{{\n  \"soc\": \"{}\",\n  \"cells\": {cells},\n  \"nets\": {nets},\n  \
         \"max_comb_depth\": {},\n  \"memory_scale_factor\": {},\n  \
         \"injections\": {injections},\n  \"build_seconds\": {build_s},\n  \
         \"flatten_seconds\": {flatten_s},\n  \"levelize_seconds\": {levelize_s},\n  \
         \"pipeline_seconds\": {pipeline_s},\n  \"total_seconds\": {total_s},\n  \
         \"peak_rss_mib\": {peak_mib},\n  \"wall_budget_seconds\": {WALL_BUDGET_SECONDS},\n  \
         \"peak_rss_budget_mib\": {PEAK_RSS_BUDGET_MIB},\n  \
         \"wall_headroom\": {wall_headroom},\n  \"rss_headroom\": {rss_headroom},\n  \
         \"stage_seconds\": {stage_seconds}\n}}\n",
        config.name, lv.max_depth, soc.info.memory_scale_factor
    );
    print!("{report}");
    if let Err(e) = std::fs::write("BENCH_scale.json", &report) {
        eprintln!("scale_smoke: warning: cannot write BENCH_scale.json: {e}");
    }

    if total_s > WALL_BUDGET_SECONDS {
        fail(&format!(
            "wall clock {total_s:.1}s exceeds budget {WALL_BUDGET_SECONDS}s"
        ));
    }
    if peak_mib > PEAK_RSS_BUDGET_MIB {
        fail(&format!(
            "peak RSS {peak_mib:.0} MiB exceeds budget {PEAK_RSS_BUDGET_MIB} MiB"
        ));
    }
    println!("scale_smoke: OK ({cells} cells, {total_s:.1}s wall, {peak_mib:.0} MiB peak)");
}
