//! Spec-driven random-circuit construction — the generator hook the
//! conformance subsystem builds on.
//!
//! A [`CircuitSpec`] is plain data: a list of gates whose operands are
//! indices into a growing operand pool, a bank of resettable flip-flops
//! providing registered feedback, and a handful of buffered outputs. Because
//! operand indices are resolved modulo the pool size, *any* mutation of the
//! spec — removing gates, dropping flip-flops, truncating the list — still
//! yields a structurally valid, combinational-loop-free circuit. That is the
//! property proptest-style shrinking needs: every shrink candidate can be
//! built and simulated without re-validation.
//!
//! The crate deliberately contains no randomness; callers (the conformance
//! fuzzer, benches) decide how specs are sampled and keep the spec as the
//! reproducible artifact.

use crate::cell::CellKind;
use crate::design::{Design, ModuleBuilder, PortDir};
use crate::error::NetlistError;
use crate::flat::FlatNetlist;
use ssresf_json::{field, FromJson, ToJson, Value};

/// Gate kinds the generator draws from (every combinational kind with at
/// most three inputs, no constant drivers).
pub const GENERATOR_KINDS: &[CellKind] = &[
    CellKind::Inv,
    CellKind::Buf,
    CellKind::And2,
    CellKind::Or2,
    CellKind::Nand2,
    CellKind::Nor2,
    CellKind::Xor2,
    CellKind::Xnor2,
    CellKind::And3,
    CellKind::Or3,
    CellKind::Nand3,
    CellKind::Nor3,
    CellKind::Mux2,
    CellKind::Aoi21,
    CellKind::Oai21,
];

/// One combinational gate of a [`CircuitSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateSpec {
    /// Gate function; must be combinational.
    pub kind: CellKind,
    /// Operand pool indices, resolved modulo the pool size at build time.
    /// Exactly `kind.num_inputs()` entries are consumed (missing entries
    /// default to 0, extras are ignored), so mutating `kind` keeps the spec
    /// buildable.
    pub operands: Vec<u16>,
}

/// A deterministic description of a random-but-valid sequential circuit.
///
/// The operand pool is built in this order: the `inputs` primary inputs
/// (`in_0..`), then one `q_i` net per flip-flop, then each gate's output
/// `w_g` as it is declared. Gates may therefore reference primary inputs,
/// any flip-flop output (registered feedback — combinational loops are
/// impossible by construction) and every *earlier* gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitSpec {
    /// Module name (also the flattened design name).
    pub name: String,
    /// Number of primary data inputs (at least 1 is enforced at build).
    pub inputs: usize,
    /// The combinational cloud.
    pub gates: Vec<GateSpec>,
    /// One flip-flop per entry; the value is the pool index of its `D`
    /// operand, resolved modulo the *full* pool (so flip-flops can register
    /// any gate output). At least one flip-flop is always built so the
    /// clock survives flattening.
    pub ff_d: Vec<u16>,
    /// Number of buffered primary outputs tapped from the pool tail
    /// (clamped to the pool size; at least 1).
    pub outputs: usize,
}

impl CircuitSpec {
    /// Number of cells the built netlist will contain.
    pub fn cell_count(&self) -> usize {
        self.gates.len() + self.ff_d.len().max(1) + self.outputs.max(1)
    }

    /// Builds the hierarchical single-module design for this spec.
    ///
    /// The module follows the SSRESF conventions (`clk` clock, active-low
    /// `rst_n`), so the result can be driven by `Dut::from_conventions` and
    /// `Testbench` alike.
    pub fn build_design(&self) -> Design {
        let mut design = Design::new();
        let mut mb = ModuleBuilder::new(self.name.clone());
        let clk = mb.port("clk", PortDir::Input);
        let rst_n = mb.port("rst_n", PortDir::Input);

        let inputs = self.inputs.max(1);
        let mut pool = Vec::with_capacity(inputs + self.ff_d.len() + self.gates.len());
        for i in 0..inputs {
            pool.push(mb.port(format!("in_{i}"), PortDir::Input));
        }
        let ffs = self.ff_d.len().max(1);
        let ff_q: Vec<_> = (0..ffs).map(|i| mb.net(format!("q_{i}"))).collect();
        pool.extend(ff_q.iter().copied());

        for (g, gate) in self.gates.iter().enumerate() {
            debug_assert!(gate.kind.is_combinational(), "generator gates are comb");
            let operands: Vec<_> = (0..gate.kind.num_inputs())
                .map(|p| {
                    let idx = gate.operands.get(p).copied().unwrap_or(0) as usize;
                    pool[idx % pool.len()]
                })
                .collect();
            let y = mb.net(format!("w_{g}"));
            mb.cell(format!("u_g{g}"), gate.kind, &operands, &[y])
                .expect("generator gate arity is correct by construction");
            pool.push(y);
        }

        for (i, &q) in ff_q.iter().enumerate() {
            let d_idx = self.ff_d.get(i).copied().unwrap_or(0) as usize;
            let d = pool[d_idx % pool.len()];
            mb.cell(format!("u_ff{i}"), CellKind::Dffr, &[clk, d, rst_n], &[q])
                .expect("flip-flop arity is correct by construction");
        }

        let outputs = self.outputs.clamp(1, pool.len());
        for i in 0..outputs {
            let src = pool[pool.len() - 1 - i];
            let out = mb.port(format!("out_{i}"), PortDir::Output);
            mb.cell(format!("u_ob{i}"), CellKind::Buf, &[src], &[out])
                .expect("buffer arity is correct by construction");
        }

        let id = design
            .add_module(mb.finish())
            .expect("generated module names are unique");
        design.set_top(id).expect("top module was just added");
        design
    }

    /// Builds and flattens the circuit.
    ///
    /// # Errors
    ///
    /// Propagates elaboration failures ([`NetlistError`]); specs produced by
    /// honest mutation of a valid spec always flatten.
    pub fn flatten(&self) -> Result<FlatNetlist, NetlistError> {
        self.build_design().flatten()
    }
}

impl ToJson for GateSpec {
    fn to_json(&self) -> Value {
        ssresf_json::object([
            ("kind", Value::from(self.kind.name())),
            ("operands", self.operands.to_json()),
        ])
    }
}

/// Rejects gate kinds outside [`GENERATOR_KINDS`].
impl FromJson for GateSpec {
    fn from_json(value: &Value) -> Result<Self, String> {
        let name: String = field(value, "kind")?;
        let kind = GENERATOR_KINDS
            .iter()
            .copied()
            .find(|k| k.name() == name)
            .ok_or_else(|| format!("unknown generator gate kind {name:?}"))?;
        Ok(GateSpec {
            kind,
            operands: field(value, "operands")?,
        })
    }
}

impl ToJson for CircuitSpec {
    fn to_json(&self) -> Value {
        ssresf_json::object([
            ("name", self.name.to_json()),
            ("inputs", self.inputs.to_json()),
            ("gates", self.gates.to_json()),
            ("ff_d", self.ff_d.to_json()),
            ("outputs", self.outputs.to_json()),
        ])
    }
}

impl FromJson for CircuitSpec {
    fn from_json(value: &Value) -> Result<Self, String> {
        Ok(CircuitSpec {
            name: field(value, "name")?,
            inputs: field(value, "inputs")?,
            gates: field(value, "gates")?,
            ff_d: field(value, "ff_d")?,
            outputs: field(value, "outputs")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> CircuitSpec {
        CircuitSpec {
            name: "gen_sample".into(),
            inputs: 3,
            gates: vec![
                GateSpec {
                    kind: CellKind::Xor2,
                    operands: vec![0, 1],
                },
                GateSpec {
                    kind: CellKind::Mux2,
                    operands: vec![2, 3, 4],
                },
                GateSpec {
                    kind: CellKind::Nand2,
                    operands: vec![5, 0],
                },
            ],
            ff_d: vec![6, 2],
            outputs: 2,
        }
    }

    #[test]
    fn spec_builds_a_flattenable_circuit() {
        let spec = sample_spec();
        let flat = spec.flatten().unwrap();
        assert!(flat.net_by_name("clk").is_some());
        assert!(flat.net_by_name("rst_n").is_some());
        assert_eq!(flat.cells().len(), spec.cell_count());
        // No combinational loops by construction.
        assert!(flat.levelize().is_ok());
    }

    #[test]
    fn any_truncation_still_builds() {
        let spec = sample_spec();
        for keep_gates in 0..=spec.gates.len() {
            for keep_ffs in 0..=spec.ff_d.len() {
                let shrunk = CircuitSpec {
                    gates: spec.gates[..keep_gates].to_vec(),
                    ff_d: spec.ff_d[..keep_ffs].to_vec(),
                    ..spec.clone()
                };
                let flat = shrunk.flatten().unwrap();
                assert!(flat.levelize().is_ok());
            }
        }
    }

    #[test]
    fn missing_operands_default_instead_of_panicking() {
        let spec = CircuitSpec {
            name: "gen_defaults".into(),
            inputs: 1,
            gates: vec![GateSpec {
                kind: CellKind::Aoi21,
                operands: vec![],
            }],
            ff_d: vec![],
            outputs: 9,
        };
        let flat = spec.flatten().unwrap();
        // One gate, the mandatory flip-flop, and outputs clamped to pool.
        assert!(flat.levelize().is_ok());
        assert_eq!(flat.primary_outputs().len(), 3);
    }

    #[test]
    fn circuit_spec_round_trips_and_rejects_foreign_kinds() {
        let spec = CircuitSpec {
            name: "rt".into(),
            inputs: 3,
            gates: vec![
                GateSpec {
                    kind: CellKind::Aoi21,
                    operands: vec![0, 2, 1],
                },
                GateSpec {
                    kind: CellKind::Inv,
                    operands: vec![4],
                },
            ],
            ff_d: vec![5, 0],
            outputs: 2,
        };
        let text = spec.to_json().to_string_compact();
        let back = CircuitSpec::from_json(&ssresf_json::parse(&text).unwrap()).unwrap();
        assert_eq!(spec, back);
        let bad = text.replace("AOI21", "DFFR");
        assert!(CircuitSpec::from_json(&ssresf_json::parse(&bad).unwrap()).is_err());
    }

    #[test]
    fn generator_kinds_are_all_combinational() {
        for &kind in GENERATOR_KINDS {
            assert!(kind.is_combinational());
            assert!(kind.num_inputs() <= 3);
        }
    }
}
