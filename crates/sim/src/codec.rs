//! JSON codecs for the simulation types that campaign outcomes carry
//! across process and disk boundaries: faults, cycle traces and engine
//! telemetry (built on `ssresf-json`, whose shortest-round-trip float
//! printing makes every `f64` survive a round trip bit-exactly).
//!
//! Logic values are packed as `0`/`1`/`x`/`z` characters — a trace row
//! becomes one string — keeping long golden traces compact. Engine
//! snapshots have no JSON form: they never leave the process.

use crate::engine::EngineTelemetry;
use crate::inject::{Fault, SetFault, SeuFault};
use crate::trace::CycleTrace;
use crate::value::Logic;
use ssresf_json::{field, FromJson, ToJson, Value};

/// Packs a logic slice into one `0`/`1`/`x`/`z` string.
fn logic_row_to_json(row: &[Logic]) -> Value {
    Value::String(
        row.iter()
            .map(|&l| match l {
                Logic::Zero => '0',
                Logic::One => '1',
                Logic::X => 'x',
                Logic::Z => 'z',
            })
            .collect(),
    )
}

/// Unpacks a packed logic string.
fn logic_row(text: &str) -> Result<Vec<Logic>, String> {
    text.chars()
        .map(|c| match c {
            '0' => Ok(Logic::Zero),
            '1' => Ok(Logic::One),
            'x' => Ok(Logic::X),
            'z' => Ok(Logic::Z),
            other => Err(format!("invalid logic character {other:?}")),
        })
        .collect()
}

impl ToJson for Fault {
    fn to_json(&self) -> Value {
        match *self {
            Fault::Seu(f) => ssresf_json::object([
                ("type", Value::from("seu")),
                ("cell", f.cell.to_json()),
                ("cycle", f.cycle.to_json()),
                ("offset", f.offset.to_json()),
            ]),
            Fault::Set(f) => ssresf_json::object([
                ("type", Value::from("set")),
                ("net", f.net.to_json()),
                ("cycle", f.cycle.to_json()),
                ("offset", f.offset.to_json()),
                ("width", f.width.to_json()),
            ]),
        }
    }
}

impl FromJson for Fault {
    fn from_json(value: &Value) -> Result<Self, String> {
        match field::<String>(value, "type")?.as_str() {
            "seu" => Ok(Fault::Seu(SeuFault {
                cell: field(value, "cell")?,
                cycle: field(value, "cycle")?,
                offset: field(value, "offset")?,
            })),
            "set" => Ok(Fault::Set(SetFault {
                net: field(value, "net")?,
                cycle: field(value, "cycle")?,
                offset: field(value, "offset")?,
                width: field(value, "width")?,
            })),
            other => Err(format!("unknown fault type {other:?}")),
        }
    }
}

/// One packed string per row.
impl ToJson for CycleTrace {
    fn to_json(&self) -> Value {
        ssresf_json::object([
            ("signals", self.signals.to_json()),
            (
                "rows",
                Value::Array(self.rows.iter().map(|r| logic_row_to_json(r)).collect()),
            ),
        ])
    }
}

/// Rejects rows whose width differs from the signal count.
impl FromJson for CycleTrace {
    fn from_json(value: &Value) -> Result<Self, String> {
        let signals: Vec<String> = field(value, "signals")?;
        let rows = field::<Vec<String>>(value, "rows")?
            .iter()
            .map(|r| logic_row(r))
            .collect::<Result<Vec<_>, _>>()?;
        for row in &rows {
            if row.len() != signals.len() {
                return Err(format!(
                    "trace row has {} values for {} signals",
                    row.len(),
                    signals.len()
                ));
            }
        }
        Ok(CycleTrace { signals, rows })
    }
}

impl ToJson for EngineTelemetry {
    fn to_json(&self) -> Value {
        ssresf_json::object([
            ("events_processed", self.events_processed.to_json()),
            ("cells_evaluated", self.cells_evaluated.to_json()),
            ("delta_cycles", self.delta_cycles.to_json()),
            ("wheel_advances", self.wheel_advances.to_json()),
            ("restores", self.restores.to_json()),
            ("word_evals", self.word_evals.to_json()),
        ])
    }
}

impl FromJson for EngineTelemetry {
    fn from_json(value: &Value) -> Result<Self, String> {
        Ok(EngineTelemetry {
            events_processed: field(value, "events_processed")?,
            cells_evaluated: field(value, "cells_evaluated")?,
            delta_cycles: field(value, "delta_cycles")?,
            wheel_advances: field(value, "wheel_advances")?,
            restores: field(value, "restores")?,
            word_evals: field(value, "word_evals")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssresf_netlist::{CellId, NetId};

    fn sample_faults() -> Vec<Fault> {
        vec![
            Fault::Seu(SeuFault {
                cell: CellId(7),
                cycle: 13,
                offset: 0.123_456_789,
            }),
            Fault::Set(SetFault {
                net: NetId(3),
                cycle: 2,
                offset: 0.5,
                width: 0.037,
            }),
        ]
    }

    #[test]
    fn faults_round_trip_exactly() {
        for fault in sample_faults() {
            let text = fault.to_json().to_string_compact();
            let back = Fault::from_json(&ssresf_json::parse(&text).unwrap()).unwrap();
            assert_eq!(fault, back);
        }
        let unknown = r#"{"type":"mbu","cell":7,"cycle":13,"offset":0.5}"#;
        assert!(Fault::from_json(&ssresf_json::parse(unknown).unwrap()).is_err());
    }

    #[test]
    fn traces_round_trip_exactly() {
        let trace = CycleTrace {
            signals: vec!["q0".into(), "tap".into()],
            rows: vec![
                vec![Logic::Zero, Logic::X],
                vec![Logic::One, Logic::Z],
                vec![Logic::One, Logic::Zero],
            ],
        };
        let text = trace.to_json().to_string_compact();
        let back = CycleTrace::from_json(&ssresf_json::parse(&text).unwrap()).unwrap();
        assert_eq!(trace, back);
        // Mismatched row width is rejected.
        let bad = r#"{"signals":["a"],"rows":["01"]}"#;
        assert!(CycleTrace::from_json(&ssresf_json::parse(bad).unwrap()).is_err());
    }

    #[test]
    fn telemetry_round_trips() {
        let t = EngineTelemetry {
            events_processed: 1,
            cells_evaluated: u64::from(u32::MAX) + 17,
            delta_cycles: 3,
            wheel_advances: 4,
            restores: 5,
            word_evals: 6,
        };
        let text = t.to_json().to_string_compact();
        let back = EngineTelemetry::from_json(&ssresf_json::parse(&text).unwrap()).unwrap();
        assert_eq!(t, back);
    }
}
