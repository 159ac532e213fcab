//! Campaign-service smoke gate: runs a process-sharded campaign on the
//! smallest Table-I SoC through `ssresf-serve`, asserts the merged records
//! are byte-identical to the single-process campaign, then repeats the job
//! against a warm artifact cache and asserts the repeat does at least 10x
//! less simulation work (a campaign-cache hit does none at all). Last, an
//! overlapping job (other cells, same netlist and workload) must miss the
//! cache once, run every shard and match its own single-process campaign:
//! nothing but merged campaign outcomes is stored.
//!
//! ```sh
//! cargo build --release -p ssresf-serve
//! cargo run --release -p ssresf-bench --bin serve_smoke
//! ```
//!
//! Writes the measured numbers to `BENCH_serve.json` at the workspace root
//! and exits nonzero on any violation — CI runs this as the `serve-smoke`
//! job and feeds the report through `bench_check`. Every gated number is a
//! deterministic work count, never wall clock, so the committed baseline
//! reproduces exactly on any machine.

use ssresf::{
    run_campaign_with, CampaignConfig, EngineKind, Instrument, MetricsRegistry, Workload,
};
use ssresf_bench::write_bench_report;
use ssresf_json::Value;
use ssresf_netlist::CellId;
use ssresf_serve::{serve_campaign, CacheConfig, JobSpec, NetlistSpec, ServeOptions};
use std::path::PathBuf;
use std::time::Instant;

/// The warm repeat must do at least this factor less simulation work.
const MIN_WORK_REDUCTION: f64 = 10.0;
/// Shards (= worker processes) the campaign splits into.
const SHARDS: usize = 2;

fn fail(msg: &str) -> ! {
    eprintln!("serve_smoke: FAIL: {msg}");
    std::process::exit(1);
}

/// The `ssresf-serve` binary, expected next to this one (CI builds
/// `-p ssresf-serve` first). `None` falls back to in-process sharding so
/// a bare local run still exercises the coordinator.
fn worker_binary() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let sibling = exe.parent()?.join("ssresf-serve");
    sibling.exists().then_some(sibling)
}

fn main() {
    let netlist = NetlistSpec::Soc {
        preset: "PULP SoC_1".to_owned(),
    };
    let flat = netlist
        .build()
        .unwrap_or_else(|e| fail(&format!("preset failed to build: {e}")));
    // A fixed slice of the SoC's cells: big enough that sharding matters,
    // small enough that the gate stays a smoke test. No SSRESF_QUICK
    // dependence — the gated metric must reproduce the committed baseline
    // exactly on every machine.
    let cells: Vec<CellId> = flat
        .iter_cells()
        .map(|(id, _)| id)
        .step_by(7)
        .take(96)
        .collect();
    let spec = JobSpec {
        netlist,
        cells,
        config: CampaignConfig {
            workload: Workload {
                reset_cycles: 3,
                run_cycles: 60,
            },
            injections_per_cell: 1,
            threads: 1,
            engine: EngineKind::Levelized,
            ..CampaignConfig::default()
        },
    };

    let dut = ssresf::Dut::from_conventions(&flat)
        .unwrap_or_else(|e| fail(&format!("preset has no DUT conventions: {e}")));
    let reference = run_campaign_with(&dut, &spec.cells, &spec.config, &Instrument::default())
        .unwrap_or_else(|e| fail(&format!("single-process reference failed: {e}")));

    let worker = worker_binary();
    let mode = if worker.is_some() {
        "process"
    } else {
        "in-process"
    };
    let cache_root =
        std::env::temp_dir().join(format!("ssresf-serve-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_root);
    let serve_once = |spec: &JobSpec| {
        let metrics = MetricsRegistry::new();
        let options = ServeOptions {
            shard_count: SHARDS,
            worker_binary: worker.clone(),
            cache: Some(CacheConfig {
                root: cache_root.clone(),
                max_bytes: None,
            }),
            metrics: Some(&metrics),
            progress: None,
            job_log: None,
            cancel: None,
        };
        let started = Instant::now();
        let outcome = serve_campaign(spec, &options)
            .unwrap_or_else(|e| fail(&format!("serve_campaign failed: {e}")));
        (outcome, metrics, started.elapsed().as_secs_f64())
    };

    // Cold: every shard simulates; the merge must reproduce the
    // single-process campaign byte for byte.
    let (cold, cold_metrics, cold_seconds) = serve_once(&spec);
    if cold.records != reference.records {
        fail("cold sharded records differ from the single-process campaign");
    }
    if cold.golden != reference.golden || cold.total_work != reference.total_work {
        fail("cold sharded golden/work differ from the single-process campaign");
    }
    if cold_metrics.gauge("shard.count") != Some(SHARDS as f64) {
        fail("cold run did not execute the expected shard count");
    }
    let cold_work = cold.total_work;

    // Warm: the campaign artifact hits, no shard runs, zero simulation
    // work is executed.
    let (warm, warm_metrics, warm_seconds) = serve_once(&spec);
    if warm.records != reference.records {
        fail("warm cached records differ from the single-process campaign");
    }
    let warm_cache_hits = warm_metrics.counter("cache.hits");
    if warm_cache_hits == 0 {
        fail("warm repeat hit nothing in the artifact cache");
    }
    if warm_metrics.gauge("shard.count") != Some(0.0) {
        fail("warm repeat ran shards despite the cached campaign artifact");
    }
    let warm_work = 0u64; // no shard ran: no simulation was executed
    let work_reduction = cold_work as f64 / warm_work.max(1) as f64;
    if work_reduction < MIN_WORK_REDUCTION {
        fail(&format!(
            "warm repeat only reduced simulation work {work_reduction:.2}x \
             (gate: >= {MIN_WORK_REDUCTION}x)"
        ));
    }

    // Overlap: a different fault list over the same netlist and workload
    // misses the campaign artifact and simulates every shard, golden runs
    // included.
    let overlap_spec = JobSpec {
        cells: spec.cells.iter().copied().skip(1).take(48).collect(),
        netlist: spec.netlist.clone(),
        config: spec.config,
    };
    let (overlap, overlap_metrics, _) = serve_once(&overlap_spec);
    if overlap_metrics.counter("cache.misses") != 1 || overlap_metrics.counter("cache.hits") != 0 {
        fail("overlapping job did not miss the campaign cache exactly once");
    }
    if overlap_metrics.gauge("shard.count") != Some(SHARDS as f64) {
        fail("overlapping job did not execute the expected shard count");
    }
    let overlap_reference = run_campaign_with(
        &dut,
        &overlap_spec.cells,
        &overlap_spec.config,
        &Instrument::default(),
    )
    .unwrap_or_else(|e| fail(&format!("single-process overlap reference failed: {e}")));
    if overlap.records != overlap_reference.records {
        fail("overlapping job's records differ from the single-process campaign");
    }
    let _ = std::fs::remove_dir_all(&cache_root);

    let report = ssresf_json::object([
        ("soc", Value::from("PULP SoC_1")),
        ("mode", Value::from(mode)),
        ("shards", Value::from(SHARDS)),
        ("cells", Value::from(spec.cells.len())),
        ("records", Value::from(reference.records.len())),
        ("cold_work", Value::from(cold_work)),
        ("warm_work", Value::from(warm_work)),
        ("work_reduction", Value::from(work_reduction)),
        ("warm_cache_hits", Value::from(warm_cache_hits)),
        ("cold_seconds", Value::from(cold_seconds)),
        ("warm_seconds", Value::from(warm_seconds)),
    ]);
    write_bench_report("BENCH_serve.json", &report.to_string_pretty())
        .unwrap_or_else(|e| fail(&format!("cannot write BENCH_serve.json: {e}")));
    println!("{}", report.to_string_pretty());
    eprintln!(
        "serve_smoke: PASS ({mode} mode, {SHARDS} shards, warm repeat {work_reduction:.0}x \
         less simulation work)"
    );
}
