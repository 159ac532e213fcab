//! The campaign coordinator: splits a job into shards, runs them in
//! worker processes (or in-process), merges the results and memoizes the
//! merged outcome in the artifact cache.
//!
//! Shards merge through [`merge_shard_outcomes`], so a sharded run's
//! records are byte-identical to a single-process
//! [`run_campaign_with`](ssresf::run_campaign_with) — the conformance
//! suite's check 10 asserts exactly that. A repeated job short-circuits on
//! the `campaign` cache artifact and does no simulation at all.

use crate::cache::{ArtifactCache, NS_CAMPAIGN};
use crate::frame::{read_frame, write_frame, Message};
use crate::joblog::JobLog;
use crate::key::{campaign_key, JobSpec};
use crate::worker::{phase_of, run_shard_local, ShardError};
use ssresf::{
    merge_shard_outcomes, CampaignOutcome, CampaignProgress, Instrument, MetricsRegistry,
    ProgressSink, ShardOutcome,
};
use ssresf_json::{FromJson, ToJson, Value};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Artifact-cache location and budget.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Cache root directory (created if missing).
    pub root: PathBuf,
    /// Byte cap; `None` disables eviction.
    pub max_bytes: Option<u64>,
}

/// How a campaign job is served.
pub struct ServeOptions<'a> {
    /// Number of shards the injection list splits into.
    pub shard_count: usize,
    /// Worker binary to spawn one process per shard (`ssresf-serve`;
    /// invoked with the `worker` subcommand). `None` runs every shard
    /// sequentially in this process.
    pub worker_binary: Option<PathBuf>,
    /// Artifact cache, if any.
    pub cache: Option<CacheConfig>,
    /// Receives `cache.*` and `shard.*` counters and gauges.
    pub metrics: Option<&'a MetricsRegistry>,
    /// Receives shard-local progress reports (the `workers` list is empty;
    /// `completed`/`total` are per-shard).
    pub progress: Option<&'a dyn ProgressSink>,
    /// Append-only job log path, if any.
    pub job_log: Option<PathBuf>,
    /// Cancellation flag. Set before the shards start (after the cache
    /// lookup), it stops the job before any shard runs; set later, it
    /// stops in-process shards at their next poll point and sends cancel
    /// frames to worker processes.
    pub cancel: Option<&'a AtomicBool>,
}

impl ServeOptions<'_> {
    /// In-process serving with `shard_count` shards and nothing attached.
    pub fn new(shard_count: usize) -> Self {
        ServeOptions {
            shard_count,
            worker_binary: None,
            cache: None,
            metrics: None,
            progress: None,
            job_log: None,
            cancel: None,
        }
    }
}

fn count(metrics: Option<&MetricsRegistry>, name: &str, delta: u64) {
    if let Some(m) = metrics {
        m.counter_add(name, delta);
    }
}

fn gauge(metrics: Option<&MetricsRegistry>, name: &str, value: f64) {
    if let Some(m) = metrics {
        m.gauge_set(name, value);
    }
}

fn log_event<'f>(
    log: &mut Option<JobLog>,
    event: &str,
    fields: impl IntoIterator<Item = (&'f str, Value)>,
) -> Result<(), String> {
    if let Some(log) = log {
        log.append(event, fields)
            .map_err(|e| format!("job log append failed: {e}"))?;
    }
    Ok(())
}

/// Serves one campaign job end to end. Returns the merged outcome —
/// byte-identical records to a single-process run of the same spec.
///
/// # Errors
///
/// Returns `"campaign cancelled"` when the cancel flag fired, and a
/// description for spec, worker, merge, cache or log failures.
pub fn serve_campaign(
    spec: &JobSpec,
    options: &ServeOptions<'_>,
) -> Result<CampaignOutcome, String> {
    if options.shard_count == 0 {
        return Err("shard_count must be at least 1".into());
    }
    let flat = spec.netlist.build()?;
    let key = campaign_key(flat.content_hash(), &spec.cells, &spec.config).to_hex();
    let mut log = match &options.job_log {
        Some(path) => Some(JobLog::open(path).map_err(|e| format!("cannot open job log: {e}"))?),
        None => None,
    };
    log_event(
        &mut log,
        "submitted",
        [
            ("key", Value::from(key.as_str())),
            ("shards", Value::from(options.shard_count)),
        ],
    )?;
    let cache = match &options.cache {
        Some(cfg) => Some(
            ArtifactCache::open(&cfg.root, cfg.max_bytes, options.metrics)
                .map_err(|e| format!("cannot open artifact cache: {e}"))?,
        ),
        None => None,
    };

    if let Some(artifact) = cache.as_ref().and_then(|c| c.get(NS_CAMPAIGN, &key)) {
        let outcome = CampaignOutcome::from_json(&artifact)
            .map_err(|e| format!("corrupt campaign artifact {key}: {e}"))?;
        gauge(options.metrics, "shard.count", 0.0);
        gauge(
            options.metrics,
            "shard.records_merged",
            outcome.records.len() as f64,
        );
        log_event(
            &mut log,
            "cache_hit",
            [
                ("key", Value::from(key.as_str())),
                ("records", Value::from(outcome.records.len())),
            ],
        )?;
        return Ok(outcome);
    }

    // A flag set before any shard runs stops the job here in both modes:
    // worker processes would only see it through the relay's next poll,
    // after a small shard may already have finished.
    if options
        .cancel
        .is_some_and(|flag| flag.load(Ordering::Relaxed))
    {
        return Err("campaign cancelled".into());
    }
    let shards = match &options.worker_binary {
        Some(binary) => run_process_shards(spec, options, binary)?,
        None => run_local_shards(spec, options, cache.as_ref())?,
    };
    for shard in &shards {
        log_event(
            &mut log,
            "shard_done",
            [
                ("shard", Value::from(shard.shard)),
                ("records", Value::from(shard.outcome.records.len())),
            ],
        )?;
    }
    let merged = merge_shard_outcomes(&shards).map_err(|e| e.to_string())?;
    gauge(options.metrics, "shard.count", options.shard_count as f64);
    gauge(
        options.metrics,
        "shard.records_merged",
        merged.records.len() as f64,
    );
    if let Some(cache) = &cache {
        cache
            .put(NS_CAMPAIGN, &key, &merged.to_json())
            .map_err(|e| format!("cannot store campaign artifact: {e}"))?;
    }
    log_event(
        &mut log,
        "merged",
        [
            ("key", Value::from(key.as_str())),
            ("records", Value::from(merged.records.len())),
            ("total_work", Value::from(merged.total_work)),
        ],
    )?;
    Ok(merged)
}

fn run_local_shards(
    spec: &JobSpec,
    options: &ServeOptions<'_>,
    cache: Option<&ArtifactCache<'_>>,
) -> Result<Vec<ShardOutcome>, String> {
    let hooks = Instrument {
        metrics: options.metrics,
        progress: options.progress,
        heartbeat_every: 0,
        cancel: options.cancel,
    };
    (0..options.shard_count)
        .map(|shard| {
            run_shard_local(spec, shard, options.shard_count, cache, &hooks).map_err(|e| match e {
                ShardError::Cancelled => "campaign cancelled".to_string(),
                ShardError::Other(msg) => msg,
            })
        })
        .collect()
}

/// One worker process and the stdin handle cancel frames go to.
struct WorkerProcess {
    child: Child,
    stdin: Mutex<Option<std::process::ChildStdin>>,
}

fn run_process_shards(
    spec: &JobSpec,
    options: &ServeOptions<'_>,
    binary: &PathBuf,
) -> Result<Vec<ShardOutcome>, String> {
    let mut workers = Vec::with_capacity(options.shard_count);
    let mut stdouts = Vec::with_capacity(options.shard_count);
    for shard in 0..options.shard_count {
        let mut child = Command::new(binary)
            .arg("worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn worker {}: {e}", binary.display()))?;
        let mut stdin = child.stdin.take().expect("worker stdin is piped");
        stdouts.push(child.stdout.take().expect("worker stdout is piped"));
        let job = Message::Job {
            spec: spec.clone(),
            shard,
            shard_count: options.shard_count,
            cache_root: options
                .cache
                .as_ref()
                .map(|c| c.root.to_string_lossy().into_owned()),
            cache_max_bytes: options.cache.as_ref().and_then(|c| c.max_bytes),
        };
        write_frame(&mut stdin, &job.to_json())
            .map_err(|e| format!("cannot send job to worker {shard}: {e}"))?;
        workers.push(WorkerProcess {
            child,
            stdin: Mutex::new(Some(stdin)),
        });
    }

    let done = AtomicBool::new(false);
    let workers_ref = &workers;
    let results: Vec<Result<ShardOutcome, ShardError>> = std::thread::scope(|scope| {
        // Relay a coordinator-side cancel to every worker exactly once.
        if let Some(flag) = options.cancel {
            let done = &done;
            scope.spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    if flag.load(Ordering::Relaxed) {
                        for worker in workers_ref {
                            let mut stdin = worker.stdin.lock().expect("stdin lock");
                            if let Some(pipe) = stdin.as_mut() {
                                let _ = write_frame(pipe, &Message::Cancel.to_json());
                            }
                        }
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            });
        }
        let handles: Vec<_> = stdouts
            .iter_mut()
            .enumerate()
            .map(|(shard, stdout)| scope.spawn(move || read_worker(shard, stdout, options)))
            .collect();
        let results = handles
            .into_iter()
            .map(|h| h.join().expect("reader panicked"))
            .collect();
        done.store(true, Ordering::Relaxed);
        results
    });
    for worker in &mut workers {
        let _ = worker.child.wait();
    }

    let mut outcomes = Vec::with_capacity(results.len());
    let mut cancelled = false;
    let mut first_error = None;
    for result in results {
        match result {
            Ok(outcome) => outcomes.push(outcome),
            Err(ShardError::Cancelled) => cancelled = true,
            Err(ShardError::Other(msg)) => first_error = first_error.or(Some(msg)),
        }
    }
    if let Some(msg) = first_error {
        return Err(msg);
    }
    if cancelled {
        return Err("campaign cancelled".into());
    }
    Ok(outcomes)
}

fn read_worker(
    shard: usize,
    stdout: &mut std::process::ChildStdout,
    options: &ServeOptions<'_>,
) -> Result<ShardOutcome, ShardError> {
    loop {
        let frame = read_frame(stdout)
            .map_err(|e| ShardError::Other(format!("worker {shard} stream error: {e}")))?
            .ok_or_else(|| {
                ShardError::Other(format!("worker {shard} exited without a terminal frame"))
            })?;
        match Message::from_json(&frame)
            .map_err(|e| ShardError::Other(format!("worker {shard} sent garbage: {e}")))?
        {
            Message::Heartbeat {
                shard: _,
                completed,
                total,
                soft_errors,
                elapsed_seconds,
                phase,
            } => {
                count(options.metrics, "serve.heartbeats", 1);
                if let (Some(sink), Some(phase)) = (options.progress, phase_of(&phase)) {
                    sink.report(&CampaignProgress {
                        phase,
                        completed,
                        total,
                        soft_errors,
                        elapsed: Duration::from_secs_f64(elapsed_seconds),
                        workers: Vec::new(),
                    });
                }
            }
            Message::Result {
                outcome,
                cache_hits,
                cache_misses,
            } => {
                count(options.metrics, "cache.hits", cache_hits);
                count(options.metrics, "cache.misses", cache_misses);
                return Ok(*outcome);
            }
            Message::Cancelled { .. } => return Err(ShardError::Cancelled),
            Message::Error { message } => {
                return Err(ShardError::Other(format!("worker {shard}: {message}")))
            }
            Message::Job { .. } | Message::Cancel => {
                return Err(ShardError::Other(format!(
                    "worker {shard} sent a coordinator-only message"
                )))
            }
        }
    }
}
