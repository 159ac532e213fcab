//! End-to-end tests of the campaign service: real worker processes, real
//! cache directories, byte-identity against the single-process campaign.

use ssresf::{run_campaign_with, CampaignConfig, Dut, Instrument, MetricsRegistry};
use ssresf_json::{FromJson, ToJson};
use ssresf_netlist::CellId;
use ssresf_serve::key::smoke_circuit;
use ssresf_serve::{replay, serve_campaign, CacheConfig, JobSpec, NetlistSpec, ServeOptions};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;

fn worker_binary() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_ssresf-serve"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ssresf-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn smoke_spec(batched: bool) -> JobSpec {
    let netlist = NetlistSpec::Circuit(smoke_circuit("svc"));
    let flat = netlist.build().unwrap();
    let cells: Vec<CellId> = flat.iter_cells().map(|(id, _)| id).collect();
    JobSpec {
        netlist,
        cells,
        config: CampaignConfig {
            workload: ssresf::Workload {
                reset_cycles: 2,
                run_cycles: 30,
            },
            injections_per_cell: 3,
            threads: 1,
            engine: ssresf::EngineKind::Levelized,
            batching: batched,
            batch_lanes: 64,
            collapse_faults: batched,
            lane_refill: batched,
            ..CampaignConfig::default()
        },
    }
}

#[test]
fn process_sharded_runs_are_byte_identical_to_single_process() {
    for batched in [false, true] {
        let spec = smoke_spec(batched);
        let flat = spec.netlist.build().unwrap();
        let dut = Dut::from_conventions(&flat).unwrap();
        let reference =
            run_campaign_with(&dut, &spec.cells, &spec.config, &Instrument::default()).unwrap();
        for shard_count in [2, 4] {
            let metrics = MetricsRegistry::new();
            let options = ServeOptions {
                shard_count,
                worker_binary: Some(worker_binary()),
                cache: None,
                metrics: Some(&metrics),
                progress: None,
                job_log: None,
                cancel: None,
            };
            let merged = serve_campaign(&spec, &options).unwrap();
            assert_eq!(
                merged.records, reference.records,
                "{shard_count} workers, batched={batched}"
            );
            assert_eq!(merged.golden, reference.golden);
            assert_eq!(merged.golden_activity, reference.golden_activity);
            if !batched {
                // Scalar-mode work and telemetry are packing-independent,
                // so they survive process sharding exactly too.
                assert_eq!(merged.total_work, reference.total_work);
                assert_eq!(merged.telemetry, reference.telemetry);
            }
            assert_eq!(metrics.gauge("shard.count"), Some(shard_count as f64));
            assert_eq!(
                metrics.gauge("shard.records_merged"),
                Some(reference.records.len() as f64)
            );
            assert!(metrics.counter("serve.heartbeats") > 0, "workers heartbeat");
        }
    }
}

#[test]
fn warm_cache_repeat_does_near_zero_simulation_work() {
    let spec = smoke_spec(false);
    let cache_root = temp_dir("warm");
    // The log opens first and creates the directory; the cache follows.
    let log_path = cache_root.join("jobs.jsonl");
    let run = |metrics: &MetricsRegistry| {
        let options = ServeOptions {
            shard_count: 2,
            worker_binary: Some(worker_binary()),
            cache: Some(CacheConfig {
                root: cache_root.clone(),
                max_bytes: None,
            }),
            metrics: Some(metrics),
            progress: None,
            job_log: Some(log_path.clone()),
            cancel: None,
        };
        serve_campaign(&spec, &options).unwrap()
    };
    let cold_metrics = MetricsRegistry::new();
    let cold = run(&cold_metrics);
    // Cold: the campaign artifact missed, and at least one worker missed
    // the golden artifact (they race; the loser may hit the winner's put).
    assert!(cold_metrics.counter("cache.misses") >= 2);
    assert_eq!(cold_metrics.gauge("shard.count"), Some(2.0));

    let warm_metrics = MetricsRegistry::new();
    let warm = run(&warm_metrics);
    assert_eq!(warm.records, cold.records);
    assert_eq!(warm.total_work, cold.total_work);
    assert_eq!(
        warm_metrics.counter("cache.hits"),
        1,
        "campaign artifact hit"
    );
    assert_eq!(warm_metrics.counter("cache.misses"), 0);
    assert_eq!(
        warm_metrics.gauge("shard.count"),
        Some(0.0),
        "no shards ran on the warm repeat"
    );

    // The job log replays the whole history in order: cold submission,
    // shard completions and merge, then the warm submission's cache hit.
    let events = replay(&log_path).unwrap();
    let kinds: Vec<String> = events
        .iter()
        .map(|e| e.get("event").unwrap().as_str().unwrap().to_owned())
        .collect();
    assert_eq!(
        kinds,
        [
            "submitted",
            "shard_done",
            "shard_done",
            "merged",
            "submitted",
            "cache_hit"
        ]
    );
    std::fs::remove_dir_all(&cache_root).unwrap();
}

#[test]
fn pre_cancelled_campaign_reports_cancellation() {
    let spec = smoke_spec(false);
    let flag = AtomicBool::new(true);
    let options = ServeOptions {
        shard_count: 2,
        worker_binary: Some(worker_binary()),
        cache: None,
        metrics: None,
        progress: None,
        job_log: None,
        cancel: Some(&flag),
    };
    let err = serve_campaign(&spec, &options).unwrap_err();
    assert_eq!(err, "campaign cancelled");
    // In-process mode honors the same flag through Instrument::cancel.
    let options = ServeOptions {
        worker_binary: None,
        cancel: Some(&flag),
        ..ServeOptions::new(2)
    };
    let err = serve_campaign(&spec, &options).unwrap_err();
    assert_eq!(err, "campaign cancelled");
}

#[test]
fn pre_cancelled_fleet_campaigns_never_finish() {
    // A pre-set flag must win every time, not only when it beats a small
    // job's workers to the finish.
    let spec = smoke_spec(false);
    let flag = AtomicBool::new(true);
    for attempt in 0..50 {
        let metrics = MetricsRegistry::new();
        let options = ServeOptions {
            worker_binary: Some(worker_binary()),
            metrics: Some(&metrics),
            cancel: Some(&flag),
            ..ServeOptions::new(2)
        };
        let err = serve_campaign(&spec, &options).unwrap_err();
        assert_eq!(err, "campaign cancelled", "attempt {attempt}");
        assert_eq!(metrics.gauge("shard.count"), None, "attempt {attempt}");
    }
}

#[test]
fn malformed_first_frame_yields_an_error_frame() {
    use ssresf_serve::{read_frame, write_frame, Message};
    use std::process::{Command, Stdio};
    let mut child = Command::new(worker_binary())
        .arg("worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    write_frame(&mut stdin, &Message::Cancel.to_json()).unwrap();
    drop(stdin);
    let mut stdout = child.stdout.take().unwrap();
    let frame = read_frame(&mut stdout).unwrap().unwrap();
    match Message::from_json(&frame).unwrap() {
        Message::Error { message } => assert!(message.contains("first frame must be a job")),
        other => panic!("expected an error frame, got {other:?}"),
    }
    assert!(child.wait().unwrap().success());
}
