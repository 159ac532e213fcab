//! Telemetry smoke check: runs the full pipeline twice on the smallest
//! Table-I SoC with metrics and progress reporting attached, verifies the
//! deterministic metrics export is byte-identical across the runs and that
//! the expected key set (per-stage timings, campaign counters, pipeline
//! gauges) is present, then prints the export.
//!
//! ```sh
//! cargo run --release -p ssresf-bench --bin telemetry_smoke
//! ```
//!
//! Exits nonzero on any violation — CI runs this as the telemetry gate.

use ssresf::{
    run_campaign_with, ActiveLearningConfig, CampaignConfig, CampaignProgress, Dut, EngineKind,
    Instrument, MetricsRegistry, ProgressPhase, ProgressSink, Ssresf, SsresfConfig, Workload,
};
use ssresf_bench::quick;
use ssresf_netlist::CellId;
use ssresf_socgen::{build_soc, SocConfig};
use std::sync::Mutex;

/// Counters / gauges / timings every instrumented analyze must produce.
const EXPECTED_COUNTERS: &[&str] = &[
    "pipeline.analyses",
    "campaign.injections.total",
    "campaign.injections.soft_errors",
    "campaign.engine.events_processed",
    "campaign.engine.cells_evaluated",
    "campaign.engine.delta_cycles",
    "campaign.engine.wheel_advances",
    "campaign.checkpoint.restores",
    "campaign.early_stop.truncations",
    "campaign.engine.word_evals",
    "campaign.work.total",
    "svm.kernel_cache.hits",
    "svm.kernel_cache.misses",
];
const EXPECTED_GAUGES: &[&str] = &[
    "pipeline.cells",
    "pipeline.clusters",
    "pipeline.sampled_cells",
    "pipeline.predictions",
    "pipeline.predict_throughput_per_second",
    "svm.kernel_cache.hit_rate",
    "campaign.threads",
    "campaign.throughput_per_second",
];
const EXPECTED_TIMINGS: &[&str] = &[
    "stage.clustering",
    "stage.sampling",
    "stage.golden",
    "stage.injections",
    "stage.ser",
    "stage.features",
    "stage.svm_train",
    "stage.predict",
];
const EXPECTED_HISTOGRAMS: &[&str] = &["campaign.work_per_injection", "svm.smo_iterations"];

#[derive(Default)]
struct PhaseLog(Mutex<Vec<ProgressPhase>>);

impl ProgressSink for PhaseLog {
    fn report(&self, progress: &CampaignProgress) {
        self.0.lock().unwrap().push(progress.phase);
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("telemetry_smoke: FAIL: {msg}");
    std::process::exit(1);
}

fn run_once(config: &SsresfConfig, netlist: &ssresf_netlist::FlatNetlist) -> String {
    let metrics = MetricsRegistry::new();
    let sink = PhaseLog::default();
    let hooks = Instrument {
        progress: Some(&sink),
        ..Instrument::with_metrics(&metrics)
    };
    let analysis = Ssresf::new(*config)
        .analyze_with(netlist, &hooks)
        .unwrap_or_else(|e| fail(&format!("analysis failed: {e}")));
    if analysis.campaign.records.is_empty() {
        fail("campaign produced no records");
    }
    let phases = sink.0.lock().unwrap();
    if phases.first() != Some(&ProgressPhase::Start) {
        fail("progress sink did not receive a Start report");
    }
    if phases.last() != Some(&ProgressPhase::Finished) {
        fail("progress sink did not receive a Finished report");
    }
    metrics.to_json_deterministic().to_string_pretty()
}

fn check_keys(doc: &ssresf_json::Value, section: &str, expected: &[&str]) {
    let obj = doc
        .get(section)
        .unwrap_or_else(|| fail(&format!("export lacks a `{section}` section")));
    for key in expected {
        if obj.get(key).is_none() {
            fail(&format!("`{section}` is missing key `{key}`"));
        }
    }
}

/// Bit-parallel batched campaigns publish their own key set: the
/// `campaign.batch_occupancy` histogram, a nonzero
/// `campaign.engine.word_evals` counter, and the
/// `campaign.batch.collapsed_faults` / `campaign.batch.lane_refills`
/// counters (present even when zero, so the batched key set is stable
/// across configs). The deterministic export must stay byte-stable across
/// repeat runs — including on the wide collapse+refill path.
fn check_batched(netlist: &ssresf_netlist::FlatNetlist) {
    let dut =
        Dut::from_conventions(netlist).unwrap_or_else(|e| fail(&format!("batched: no DUT: {e}")));
    let cells: Vec<CellId> = netlist
        .iter_cells()
        .map(|(id, _)| id)
        .step_by(11)
        .take(16)
        .collect();
    let base = CampaignConfig {
        workload: Workload {
            reset_cycles: 3,
            run_cycles: 40,
        },
        engine: EngineKind::Levelized,
        batching: true,
        threads: 2,
        ..CampaignConfig::default()
    };
    let wide = CampaignConfig {
        batch_lanes: 256,
        collapse_faults: true,
        lane_refill: true,
        ..base
    };
    for (label, config) in [("64-lane", &base), ("256-lane collapse+refill", &wide)] {
        let mut exports = Vec::with_capacity(2);
        for repeat in 0..2 {
            let metrics = MetricsRegistry::new();
            let outcome =
                run_campaign_with(&dut, &cells, config, &Instrument::with_metrics(&metrics))
                    .unwrap_or_else(|e| {
                        fail(&format!(
                            "batched/{label}: campaign run {repeat} failed: {e}"
                        ))
                    });
            if outcome.telemetry.engine.word_evals == 0 {
                fail(&format!(
                    "batched/{label}: campaign reported zero word evaluations"
                ));
            }
            exports.push(metrics.to_json_deterministic().to_string_pretty());
        }
        if exports[0] != exports[1] {
            fail(&format!(
                "batched/{label}: deterministic metrics export differs across repeat runs"
            ));
        }
        let doc = ssresf_json::parse(&exports[0])
            .unwrap_or_else(|e| fail(&format!("batched/{label}: export is not valid JSON: {e}")));
        check_keys(
            &doc,
            "counters",
            &[
                "campaign.engine.word_evals",
                "campaign.batch.collapsed_faults",
                "campaign.batch.lane_refills",
            ],
        );
        check_keys(&doc, "histograms", &["campaign.batch_occupancy"]);
        let counter = |key: &str| {
            doc.get("counters")
                .and_then(|c| c.get(key))
                .and_then(ssresf_json::Value::as_u64)
                .unwrap_or(0)
        };
        if counter("campaign.engine.word_evals") == 0 {
            fail(&format!(
                "batched/{label}: exported campaign.engine.word_evals is zero"
            ));
        }
    }
}

/// The active-learning path publishes its own key set on top of the
/// standard pipeline metrics: round/injection counters, the saved-budget
/// counter, the selected-margin histogram and the warm-solver cache hit
/// rate. Its deterministic export must be byte-stable across repeat runs.
fn check_active(config: &SsresfConfig, netlist: &ssresf_netlist::FlatNetlist) {
    let active = ActiveLearningConfig {
        max_rounds: 4,
        batch_size: 8,
        ..ActiveLearningConfig::default()
    };
    let mut exports = Vec::with_capacity(2);
    for repeat in 0..2 {
        let metrics = MetricsRegistry::new();
        let analysis = Ssresf::new(*config)
            .analyze_active_with(netlist, &active, &Instrument::with_metrics(&metrics))
            .unwrap_or_else(|e| fail(&format!("active: analysis run {repeat} failed: {e}")));
        if analysis.rounds.is_empty() {
            fail("active: no rounds recorded");
        }
        exports.push(metrics.to_json_deterministic().to_string_pretty());
    }
    if exports[0] != exports[1] {
        fail("active: deterministic metrics export differs across repeat runs");
    }
    let doc = ssresf_json::parse(&exports[0])
        .unwrap_or_else(|e| fail(&format!("active: export is not valid JSON: {e}")));
    check_keys(
        &doc,
        "counters",
        &[
            "active.rounds",
            "active.injections.total",
            "active.injections_saved",
            "svm.kernel_cache.hits",
            "svm.kernel_cache.misses",
        ],
    );
    check_keys(&doc, "gauges", &["svm.kernel_cache.hit_rate"]);
    check_keys(&doc, "histograms", &["active.margin"]);
}

/// The campaign service publishes its own key set: the artifact-cache
/// counters (`cache.hits` / `cache.misses` / `cache.evictions` — present
/// even at zero), the `cache.bytes` gauge and the `shard.count` /
/// `shard.records_merged` gauges. The deterministic export zeroes
/// `cache.bytes` (a cold artifact prints wall-clock seconds), so two cold
/// runs into fresh caches, and two warm repeats of the same job, must each
/// export byte-identically.
fn check_serve() {
    use ssresf_serve::key::smoke_circuit;
    use ssresf_serve::{serve_campaign, CacheConfig, JobSpec, NetlistSpec, ServeOptions};

    let netlist = NetlistSpec::Circuit(smoke_circuit("telemetry"));
    let flat = netlist
        .build()
        .unwrap_or_else(|e| fail(&format!("serve: smoke circuit failed to build: {e}")));
    let cells: Vec<CellId> = flat.iter_cells().map(|(id, _)| id).collect();
    let spec = JobSpec {
        netlist,
        cells,
        config: CampaignConfig {
            workload: Workload {
                reset_cycles: 2,
                run_cycles: 24,
            },
            injections_per_cell: 2,
            threads: 1,
            engine: EngineKind::Levelized,
            ..CampaignConfig::default()
        },
    };
    let cache_dir = |tag: &str| {
        let dir = std::env::temp_dir().join(format!(
            "ssresf-telemetry-serve-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    let cache_root = cache_dir("a");
    let second_root = cache_dir("b");
    let serve_into = |root: &std::path::Path| {
        let metrics = MetricsRegistry::new();
        let options = ServeOptions {
            cache: Some(CacheConfig {
                root: root.to_path_buf(),
                max_bytes: None,
            }),
            metrics: Some(&metrics),
            ..ServeOptions::new(2)
        };
        let outcome = serve_campaign(&spec, &options)
            .unwrap_or_else(|e| fail(&format!("serve: campaign failed: {e}")));
        if outcome.records.is_empty() {
            fail("serve: campaign produced no records");
        }
        (outcome, metrics)
    };
    let serve_once = || serve_into(&cache_root);

    let (cold_outcome, cold_metrics) = serve_once();
    if cold_metrics.counter("cache.misses") == 0 {
        fail("serve: cold run reported no cache misses");
    }
    let cold_export = cold_metrics.to_json_deterministic().to_string_pretty();
    let (second_outcome, second_metrics) = serve_into(&second_root);
    if second_outcome.records != cold_outcome.records {
        fail("serve: a second cold run changed the records");
    }
    if cold_export != second_metrics.to_json_deterministic().to_string_pretty() {
        fail("serve: deterministic metrics export differs across cold runs into fresh caches");
    }
    let _ = std::fs::remove_dir_all(&second_root);
    let doc = ssresf_json::parse(&cold_export)
        .unwrap_or_else(|e| fail(&format!("serve: export is not valid JSON: {e}")));
    check_keys(
        &doc,
        "counters",
        &["cache.hits", "cache.misses", "cache.evictions"],
    );
    check_keys(
        &doc,
        "gauges",
        &["cache.bytes", "shard.count", "shard.records_merged"],
    );

    let mut warm_exports = Vec::with_capacity(2);
    for repeat in 0..2 {
        let (outcome, metrics) = serve_once();
        if outcome.records != cold_outcome.records {
            fail(&format!("serve: warm run {repeat} changed the records"));
        }
        if metrics.counter("cache.hits") == 0 {
            fail(&format!("serve: warm run {repeat} reported no cache hits"));
        }
        if metrics.gauge("shard.count") != Some(0.0) {
            fail(&format!(
                "serve: warm run {repeat} ran shards despite the cache"
            ));
        }
        warm_exports.push(metrics.to_json_deterministic().to_string_pretty());
    }
    if warm_exports[0] != warm_exports[1] {
        fail("serve: deterministic metrics export differs across warm repeat runs");
    }
    let _ = std::fs::remove_dir_all(&cache_root);
}

fn main() {
    let soc = build_soc(&SocConfig::table1()[0]).expect("preset SoC builds");
    let netlist = soc.design.flatten().expect("preset SoC flattens");
    let mut config = SsresfConfig::default().with_memory_scale(soc.info.memory_scale_factor);
    if quick() {
        config.sampling.fraction = 0.08;
        config.campaign.workload = Workload {
            reset_cycles: 3,
            run_cycles: 50,
        };
    }

    let first = run_once(&config, &netlist);
    let second = run_once(&config, &netlist);
    if first != second {
        fail("deterministic metrics export differs across repeat runs of the same seed");
    }

    let doc = ssresf_json::parse(&first)
        .unwrap_or_else(|e| fail(&format!("export is not valid JSON: {e}")));
    check_keys(&doc, "counters", EXPECTED_COUNTERS);
    check_keys(&doc, "gauges", EXPECTED_GAUGES);
    check_keys(&doc, "timings_s", EXPECTED_TIMINGS);
    check_keys(&doc, "histograms", EXPECTED_HISTOGRAMS);
    // Batch-only keys must stay out of scalar-mode exports so the key set
    // keeps distinguishing the two campaign paths.
    for key in [
        "campaign.batch.collapsed_faults",
        "campaign.batch.lane_refills",
    ] {
        if doc.get("counters").and_then(|c| c.get(key)).is_some() {
            fail(&format!("scalar-mode export leaked batch-only key `{key}`"));
        }
    }

    check_batched(&netlist);
    check_active(&config, &netlist);
    check_serve();

    println!("{first}");
    eprintln!("telemetry_smoke: PASS (export stable, all expected keys present)");
}
