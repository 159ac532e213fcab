//! Shard execution: the in-process path and the worker-process protocol
//! loop built on it.
//!
//! [`run_shard_local`] is the one place a shard actually runs; the
//! coordinator's in-process mode calls it directly and [`run_worker`]
//! wraps it in the frame protocol for spawned worker processes. Both
//! consult the artifact cache for the golden run — the expensive,
//! shard-invariant prefix of every campaign — and fall back to simulating
//! (and publishing) it on a miss.

use crate::cache::{ArtifactCache, NS_GOLDEN};
use crate::frame::{read_frame, write_frame, Message};
use crate::key::{golden_key, JobSpec};
use ssresf::{
    run_campaign_shard_with, CampaignProgress, Dut, GoldenRun, Instrument, ProgressPhase,
    ProgressSink, ShardOutcome, SsresfError,
};
use ssresf_json::{FromJson, ToJson};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Why a shard did not produce an outcome.
#[derive(Debug)]
pub enum ShardError {
    /// A cancellation flag stopped the shard at a poll point.
    Cancelled,
    /// Anything else, described.
    Other(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Cancelled => write!(f, "shard cancelled"),
            ShardError::Other(msg) => write!(f, "{msg}"),
        }
    }
}

impl From<SsresfError> for ShardError {
    fn from(e: SsresfError) -> Self {
        if matches!(e, SsresfError::Cancelled) {
            ShardError::Cancelled
        } else {
            ShardError::Other(e.to_string())
        }
    }
}

/// Runs one shard of `spec` in this process, using `cache` for the golden
/// run when available. This is [`run_campaign_shard_with`] with a
/// memoizing golden source: a cached golden run round-trips bit-exactly,
/// so records (and in scalar mode, work and telemetry) are unchanged by a
/// hit.
///
/// # Errors
///
/// [`ShardError::Cancelled`] when `hooks.cancel` fired; descriptions
/// otherwise.
pub fn run_shard_local(
    spec: &JobSpec,
    shard: usize,
    shard_count: usize,
    cache: Option<&ArtifactCache<'_>>,
    hooks: &Instrument<'_>,
) -> Result<ShardOutcome, ShardError> {
    let flat = spec.netlist.build().map_err(ShardError::Other)?;
    let dut = Dut::from_conventions(&flat)?;
    let config = &spec.config;
    let gkey = golden_key(flat.content_hash(), config).to_hex();
    run_campaign_shard_with(&dut, &spec.cells, config, shard, shard_count, hooks, || {
        let cached = cache
            .and_then(|c| c.get(NS_GOLDEN, &gkey))
            .and_then(|v| GoldenRun::from_json(&v).ok());
        if let Some(golden) = cached {
            return Ok(golden);
        }
        let golden = dut.run_golden_with_checkpoints(
            config.engine,
            &config.workload,
            config.checkpoint_interval,
        )?;
        if let Some(cache) = cache {
            // Event-driven checkpoints are not serializable; skipping
            // the put keeps them correct (recomputed every time).
            if let Ok(artifact) = golden.to_json() {
                cache
                    .put(NS_GOLDEN, &gkey, &artifact)
                    .map_err(|e| ShardError::Other(e.to_string()))?;
            }
        }
        Ok(golden)
    })
}

/// Forwards campaign progress as heartbeat frames on the shared output.
struct FrameSink<'w, W: Write> {
    out: &'w Mutex<W>,
    shard: usize,
}

/// The wire name of a progress phase.
pub fn phase_name(phase: ProgressPhase) -> &'static str {
    match phase {
        ProgressPhase::Start => "start",
        ProgressPhase::Heartbeat => "heartbeat",
        ProgressPhase::Finished => "finished",
    }
}

/// The progress phase of a wire name, if valid.
pub fn phase_of(name: &str) -> Option<ProgressPhase> {
    match name {
        "start" => Some(ProgressPhase::Start),
        "heartbeat" => Some(ProgressPhase::Heartbeat),
        "finished" => Some(ProgressPhase::Finished),
        _ => None,
    }
}

impl<W: Write + Send> ProgressSink for FrameSink<'_, W> {
    fn report(&self, progress: &CampaignProgress) {
        let message = Message::Heartbeat {
            shard: self.shard,
            completed: progress.completed,
            total: progress.total,
            soft_errors: progress.soft_errors,
            elapsed_seconds: progress.elapsed.as_secs_f64(),
            phase: phase_name(progress.phase).to_owned(),
        };
        // A coordinator that stopped listening is handled at the terminal
        // frame; heartbeats are best-effort.
        let _ = write_frame(
            &mut *self.out.lock().expect("sink lock"),
            &message.to_json(),
        );
    }
}

/// The worker-process protocol loop: reads one [`Message::Job`] from
/// `input`, streams heartbeats to `output` while the shard runs, honors
/// [`Message::Cancel`] (and treats input EOF as a cancel — an orphaned
/// worker must not keep simulating), and finishes with exactly one
/// terminal frame.
///
/// # Errors
///
/// Propagates I/O failures on the initial job read; later failures are
/// reported as error frames instead.
pub fn run_worker(
    input: impl Read + Send + 'static,
    output: impl Write + Send,
) -> std::io::Result<()> {
    let mut input = input;
    let output = Mutex::new(output);
    let job = match read_frame(&mut input)? {
        Some(frame) => Message::from_json(&frame),
        None => return Ok(()), // clean EOF before any job: nothing to do
    };
    let Ok(Message::Job {
        spec,
        shard,
        shard_count,
        cache_root,
        cache_max_bytes,
    }) = job
    else {
        let msg = Message::Error {
            message: "first frame must be a job".into(),
        };
        write_frame(&mut *output.lock().expect("output lock"), &msg.to_json())?;
        return Ok(());
    };

    let cancel = Arc::new(AtomicBool::new(false));
    let cancel_watch = Arc::clone(&cancel);
    // The reader thread owns stdin for the rest of the process lifetime;
    // it is detached deliberately (blocked on read at exit is fine).
    std::thread::spawn(move || loop {
        match read_frame(&mut input) {
            Ok(Some(frame)) => {
                if matches!(Message::from_json(&frame), Ok(Message::Cancel)) {
                    cancel_watch.store(true, Ordering::Relaxed);
                }
            }
            Ok(None) | Err(_) => {
                cancel_watch.store(true, Ordering::Relaxed);
                break;
            }
        }
    });

    let metrics = ssresf::MetricsRegistry::new();
    let cache = match cache_root {
        Some(root) => match ArtifactCache::open(root, cache_max_bytes, Some(&metrics)) {
            Ok(cache) => Some(cache),
            Err(e) => {
                let msg = Message::Error {
                    message: format!("cannot open artifact cache: {e}"),
                };
                write_frame(&mut *output.lock().expect("output lock"), &msg.to_json())?;
                return Ok(());
            }
        },
        None => None,
    };
    let sink = FrameSink {
        out: &output,
        shard,
    };
    let hooks = Instrument {
        metrics: Some(&metrics),
        progress: Some(&sink),
        heartbeat_every: 0,
        cancel: Some(&cancel),
    };
    let terminal = match run_shard_local(&spec, shard, shard_count, cache.as_ref(), &hooks) {
        Ok(outcome) => Message::Result {
            outcome: Box::new(outcome),
            cache_hits: metrics.counter("cache.hits"),
            cache_misses: metrics.counter("cache.misses"),
        },
        Err(ShardError::Cancelled) => Message::Cancelled { shard },
        Err(ShardError::Other(message)) => Message::Error { message },
    };
    let written = write_frame(
        &mut *output.lock().expect("output lock"),
        &terminal.to_json(),
    );
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{smoke_circuit, NetlistSpec};
    use ssresf::{run_campaign_with, CampaignConfig};
    use ssresf_netlist::CellId;

    fn smoke_spec() -> JobSpec {
        let netlist = NetlistSpec::Circuit(smoke_circuit("wrk"));
        let flat = netlist.build().unwrap();
        let cells: Vec<CellId> = flat.iter_cells().map(|(id, _)| id).collect();
        JobSpec {
            netlist,
            cells,
            config: CampaignConfig {
                workload: ssresf::Workload {
                    reset_cycles: 2,
                    run_cycles: 24,
                },
                injections_per_cell: 2,
                threads: 1,
                engine: ssresf::EngineKind::Levelized,
                ..CampaignConfig::default()
            },
        }
    }

    #[test]
    fn local_shards_merge_to_the_single_process_outcome() {
        let spec = smoke_spec();
        let flat = spec.netlist.build().unwrap();
        let dut = Dut::from_conventions(&flat).unwrap();
        let reference =
            run_campaign_with(&dut, &spec.cells, &spec.config, &Instrument::default()).unwrap();
        let shards: Vec<ShardOutcome> = (0..3)
            .map(|s| run_shard_local(&spec, s, 3, None, &Instrument::default()).unwrap())
            .collect();
        let merged = ssresf::merge_shard_outcomes(&shards).unwrap();
        assert_eq!(merged.records, reference.records);
        assert_eq!(merged.total_work, reference.total_work);
        assert_eq!(merged.telemetry, reference.telemetry);
    }

    #[test]
    fn golden_cache_hit_leaves_the_shard_outcome_intact() {
        let spec = smoke_spec();
        let metrics = ssresf::MetricsRegistry::new();
        let root =
            std::env::temp_dir().join(format!("ssresf-serve-worker-golden-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = ArtifactCache::open(&root, None, Some(&metrics)).unwrap();
        let cold = run_shard_local(&spec, 0, 2, Some(&cache), &Instrument::default()).unwrap();
        assert_eq!(metrics.counter("cache.hits"), 0);
        assert_eq!(metrics.counter("cache.misses"), 1);
        let warm = run_shard_local(&spec, 0, 2, Some(&cache), &Instrument::default()).unwrap();
        assert_eq!(metrics.counter("cache.hits"), 1);
        assert_eq!(warm.outcome.records, cold.outcome.records);
        assert_eq!(warm.golden_work, cold.golden_work);
        assert_eq!(warm.golden_engine, cold.golden_engine);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
