//! The coordinator/worker wire protocol: length-prefixed JSON frames.
//!
//! Each frame is a 4-byte little-endian byte length followed by exactly
//! that many bytes of compact JSON. Framing keeps the protocol trivially
//! parseable from a pipe without any streaming JSON machinery, and the
//! length prefix lets a reader reject garbage (or a runaway writer) before
//! allocating.

use crate::key::JobSpec;
use ssresf::ShardOutcome;
use ssresf_json::{field, FromJson, ToJson, Value};
use std::io::{self, Read, Write};
use std::time::Duration;

/// Upper bound on a single frame body. Shard results carry full golden
/// traces, so the bound is generous — it exists to fail fast when the
/// stream desynchronizes, not to ration memory.
pub const MAX_FRAME_BYTES: u32 = 1 << 30;

/// Writes one frame and flushes (heartbeats must not sit in a pipe
/// buffer).
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_frame(writer: &mut impl Write, value: &Value) -> io::Result<()> {
    let body = value.to_string_compact();
    let len = u32::try_from(body.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME_BYTES)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "frame too large"))?;
    writer.write_all(&len.to_le_bytes())?;
    writer.write_all(body.as_bytes())?;
    writer.flush()
}

/// Reads one frame; `Ok(None)` on clean EOF at a frame boundary.
///
/// # Errors
///
/// Propagates I/O failures; truncated frames, oversized lengths and
/// invalid JSON are `InvalidData`.
pub fn read_frame(reader: &mut impl Read) -> io::Result<Option<Value>> {
    let mut len_bytes = [0u8; 4];
    match reader.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_BYTES}-byte bound"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    reader.read_exact(&mut body)?;
    let text = String::from_utf8(body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    ssresf_json::parse(&text)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// A protocol message. Coordinator → worker: [`Message::Job`] then
/// optionally [`Message::Cancel`]. Worker → coordinator: any number of
/// [`Message::Heartbeat`]s followed by exactly one terminal
/// [`Message::Result`], [`Message::Cancelled`] or [`Message::Error`].
// One Message exists per frame, transiently, on its way to or from the
// wire — the Job variant's size never multiplies across a collection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Message {
    /// Assigns the worker its shard of a campaign job.
    Job {
        /// The campaign job (netlist spec, cells, config).
        spec: JobSpec,
        /// Shard index in `0..shard_count`.
        shard: usize,
        /// Total shards in the plan.
        shard_count: usize,
    },
    /// Asks the worker to stop at the next cancellation poll point.
    Cancel,
    /// Periodic shard-local progress.
    Heartbeat {
        /// The reporting worker's shard index.
        shard: usize,
        /// Injections completed in the shard so far.
        completed: usize,
        /// Total injections the shard will run.
        total: usize,
        /// Soft errors observed in the shard so far.
        soft_errors: usize,
        /// Seconds since the shard started injecting; the decoder accepts
        /// only values a [`Duration`] can hold.
        elapsed_seconds: f64,
        /// Progress phase (`start` / `heartbeat` / `finished`).
        phase: String,
    },
    /// Terminal: the shard completed.
    Result {
        /// The shard's outcome.
        outcome: Box<ShardOutcome>,
    },
    /// Terminal: the shard stopped at a cancellation poll point.
    Cancelled {
        /// The cancelled worker's shard index.
        shard: usize,
    },
    /// Terminal: the shard failed.
    Error {
        /// Failure description.
        message: String,
    },
}

/// The frame body.
impl ToJson for Message {
    fn to_json(&self) -> Value {
        match self {
            Message::Job {
                spec,
                shard,
                shard_count,
            } => ssresf_json::object([
                ("type", Value::from("job")),
                ("spec", spec.to_json()),
                ("shard", shard.to_json()),
                ("shard_count", shard_count.to_json()),
            ]),
            Message::Cancel => ssresf_json::object([("type", Value::from("cancel"))]),
            Message::Heartbeat {
                shard,
                completed,
                total,
                soft_errors,
                elapsed_seconds,
                phase,
            } => ssresf_json::object([
                ("type", Value::from("heartbeat")),
                ("shard", shard.to_json()),
                ("completed", completed.to_json()),
                ("total", total.to_json()),
                ("soft_errors", soft_errors.to_json()),
                ("elapsed_seconds", elapsed_seconds.to_json()),
                ("phase", phase.to_json()),
            ]),
            Message::Result { outcome } => ssresf_json::object([
                ("type", Value::from("result")),
                ("outcome", outcome.to_json()),
            ]),
            Message::Cancelled { shard } => ssresf_json::object([
                ("type", Value::from("cancelled")),
                ("shard", shard.to_json()),
            ]),
            Message::Error { message } => ssresf_json::object([
                ("type", Value::from("error")),
                ("message", message.to_json()),
            ]),
        }
    }
}

impl FromJson for Message {
    fn from_json(value: &Value) -> Result<Self, String> {
        match field::<String>(value, "type")?.as_str() {
            "job" => Ok(Message::Job {
                spec: field(value, "spec")?,
                shard: field(value, "shard")?,
                shard_count: field(value, "shard_count")?,
            }),
            "cancel" => Ok(Message::Cancel),
            "heartbeat" => {
                let elapsed_seconds: f64 = field(value, "elapsed_seconds")?;
                Duration::try_from_secs_f64(elapsed_seconds)
                    .map_err(|e| format!("key \"elapsed_seconds\": {elapsed_seconds} s: {e}"))?;
                Ok(Message::Heartbeat {
                    shard: field(value, "shard")?,
                    completed: field(value, "completed")?,
                    total: field(value, "total")?,
                    soft_errors: field(value, "soft_errors")?,
                    elapsed_seconds,
                    phase: field(value, "phase")?,
                })
            }
            "result" => Ok(Message::Result {
                outcome: Box::new(field(value, "outcome")?),
            }),
            "cancelled" => Ok(Message::Cancelled {
                shard: field(value, "shard")?,
            }),
            "error" => Ok(Message::Error {
                message: field(value, "message")?,
            }),
            other => Err(format!("unknown message type {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip_back_to_back() {
        let values = [
            Message::Cancel.to_json(),
            Message::Error {
                message: "boom".into(),
            }
            .to_json(),
        ];
        let mut buf = Vec::new();
        for v in &values {
            write_frame(&mut buf, v).unwrap();
        }
        let mut cursor = Cursor::new(buf);
        for v in &values {
            let back = read_frame(&mut cursor).unwrap().unwrap();
            assert_eq!(back.to_string_compact(), v.to_string_compact());
        }
        assert!(read_frame(&mut cursor).unwrap().is_none());
        let unknown = ssresf_json::object([("type", Value::from("shutdown"))]);
        assert!(Message::from_json(&unknown).is_err());
    }

    #[test]
    fn heartbeats_with_impossible_elapsed_times_are_rejected() {
        let heartbeat = |elapsed_seconds: f64| {
            Message::from_json(
                &Message::Heartbeat {
                    shard: 0,
                    completed: 1,
                    total: 2,
                    soft_errors: 0,
                    elapsed_seconds,
                    phase: "heartbeat".into(),
                }
                .to_json(),
            )
        };
        assert!(heartbeat(0.125).is_ok());
        for bad in [-1.0, 1e300] {
            let err = heartbeat(bad).unwrap_err();
            assert!(err.contains("elapsed_seconds"), "{err}");
        }
    }

    #[test]
    fn oversized_and_truncated_frames_are_rejected() {
        let mut bad = (MAX_FRAME_BYTES + 1).to_le_bytes().to_vec();
        bad.extend_from_slice(b"{}");
        assert!(read_frame(&mut Cursor::new(bad)).is_err());
        // A frame cut off mid-body is an error, not an EOF.
        let mut cut = Vec::new();
        write_frame(&mut cut, &Message::Cancel.to_json()).unwrap();
        cut.truncate(cut.len() - 1);
        assert!(read_frame(&mut Cursor::new(cut)).is_err());
    }
}
