//! Shard execution: the in-process path and the worker-process protocol
//! loop built on it.
//!
//! [`run_shard_local`] is the one place a shard actually runs; the
//! coordinator's in-process mode calls it directly and [`run_worker`]
//! wraps it in the frame protocol for spawned worker processes. Every
//! shard simulates its own golden run: a worker never touches the
//! filesystem, and only the coordinator reads or writes the artifact
//! cache.

use crate::cache::ArtifactCache;
use crate::frame::{read_frame, write_frame, Message};
use crate::key::JobSpec;
use ssresf::{
    run_campaign_shard, CampaignProgress, Dut, Instrument, ProgressPhase, ProgressSink,
    ShardOutcome, SsresfError,
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

/// Runs one shard of `spec` in this process through
/// [`run_campaign_shard`], golden run included.
///
/// `_cache` is unused: shards never read or write the artifact cache. The
/// parameter stays only because the benchmark in `perfbench/` calls this
/// function with its five-parameter signature.
///
/// # Errors
///
/// [`ShardError::Cancelled`] when `hooks.cancel` fired; descriptions
/// otherwise.
pub fn run_shard_local(
    spec: &JobSpec,
    shard: usize,
    shard_count: usize,
    _cache: Option<&ArtifactCache<'_>>,
    hooks: &Instrument<'_>,
) -> Result<ShardOutcome, ShardError> {
    let flat = spec.netlist.build().map_err(ShardError::Other)?;
    let dut = Dut::from_conventions(&flat)?;
    Ok(run_campaign_shard(
        &dut,
        &spec.cells,
        &spec.config,
        shard,
        shard_count,
        hooks,
    )?)
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

    let sink = FrameSink {
        out: &output,
        shard,
    };
    let hooks = Instrument {
        progress: Some(&sink),
        cancel: Some(&cancel),
        ..Instrument::default()
    };
    let terminal = match run_shard_local(&spec, shard, shard_count, None, &hooks) {
        Ok(outcome) => Message::Result {
            outcome: Box::new(outcome),
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
}
