//! Cell evaluation semantics shared by the simulation engines.

use crate::value::Logic;
use ssresf_netlist::{CellKind, NetId};
use std::ops::Deref;

/// The widest cell arity in the library (`Dffre`: CLK, D, RSTN, EN).
pub(crate) const MAX_INPUTS: usize = 4;

/// A cell's input values in a stack buffer; derefs to the `arity` live
/// values. Built by [`gather`].
pub(crate) struct Inputs<T> {
    buf: [T; MAX_INPUTS],
    arity: usize,
}

impl<T> Deref for Inputs<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.buf[..self.arity]
    }
}

/// Gathers the values of the nets `inputs` from the per-net `values`, so a
/// gate evaluation allocates nothing. Shared by the event-driven engine
/// (`T = Logic`) and the bit-parallel kernel (`T = LaneWord`).
pub(crate) fn gather<T: Copy + Default>(inputs: &[NetId], values: &[T]) -> Inputs<T> {
    let mut buf = [T::default(); MAX_INPUTS];
    for (b, n) in buf.iter_mut().zip(inputs) {
        *b = values[n.index()];
    }
    Inputs {
        buf,
        arity: inputs.len(),
    }
}

/// Evaluates a combinational cell given its input pin values (in canonical
/// pin order).
///
/// # Panics
///
/// Panics if `kind` is sequential or `inputs.len()` does not match the kind's
/// arity; both indicate an engine bug, not user error.
pub fn eval_comb(kind: CellKind, inputs: &[Logic]) -> Logic {
    assert!(
        kind.is_combinational(),
        "eval_comb called on sequential cell {kind}"
    );
    assert_eq!(inputs.len(), kind.num_inputs(), "arity mismatch for {kind}");
    match kind {
        CellKind::Tie0 => Logic::Zero,
        CellKind::Tie1 => Logic::One,
        CellKind::Buf => inputs[0].or(Logic::Zero),
        CellKind::Inv => inputs[0].not(),
        CellKind::And2 => inputs[0].and(inputs[1]),
        CellKind::Or2 => inputs[0].or(inputs[1]),
        CellKind::Nand2 => inputs[0].and(inputs[1]).not(),
        CellKind::Nor2 => inputs[0].or(inputs[1]).not(),
        CellKind::Xor2 => inputs[0].xor(inputs[1]),
        CellKind::Xnor2 => inputs[0].xor(inputs[1]).not(),
        CellKind::And3 => inputs[0].and(inputs[1]).and(inputs[2]),
        CellKind::Or3 => inputs[0].or(inputs[1]).or(inputs[2]),
        CellKind::Nand3 => inputs[0].and(inputs[1]).and(inputs[2]).not(),
        CellKind::Nor3 => inputs[0].or(inputs[1]).or(inputs[2]).not(),
        CellKind::Mux2 => inputs[2].mux(inputs[0], inputs[1]),
        CellKind::Aoi21 => inputs[0].and(inputs[1]).or(inputs[2]).not(),
        CellKind::Oai21 => inputs[0].or(inputs[1]).and(inputs[2]).not(),
        _ => unreachable!("sequential kinds rejected above"),
    }
}

/// The value a single-event disturbance drives a node to: defined values
/// invert; undefined nodes are disturbed to a defined high (a particle
/// strike deposits charge, so even an `X`/`Z` node ends up at a definite
/// level).
///
/// Shared by every engine: the oracle applies it to cycle-widened SET
/// pulses and SEU state flips, the event-driven engine to
/// `ForceInvert`/`Flip` events, and the bit-parallel kernel (with it the
/// levelized engine) in word form
/// ([`LaneWord::disturb`](crate::bitparallel::LaneWord::disturb)).
pub fn disturb(v: Logic) -> Logic {
    match v {
        Logic::Zero => Logic::One,
        Logic::One => Logic::Zero,
        Logic::X | Logic::Z => Logic::One,
    }
}

/// A deliberately wrong gate-evaluation rule, used by the conformance
/// subsystem's mutation smoke tests: an engine built with a mutant must be
/// caught by the differential runner and shrunk to a tiny counterexample.
/// Mutants only take effect through [`eval_comb_with_mutant`]; production
/// simulation paths call [`eval_comb`] and are unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalMutant {
    /// `Xor2` evaluates as `Or2` — wrong exactly on the `(1, 1)` input row.
    Xor2AsOr2,
    /// `Nand2` evaluates as `And2` — wrong on every defined input row.
    Nand2AsAnd2,
    /// `Mux2` selects the wrong data operand.
    Mux2SwappedData,
}

impl EvalMutant {
    /// Every mutant, for exhaustive mutation sweeps.
    pub const ALL: [EvalMutant; 3] = [
        EvalMutant::Xor2AsOr2,
        EvalMutant::Nand2AsAnd2,
        EvalMutant::Mux2SwappedData,
    ];

    /// Stable name used by `ssresf-conform --mutant`.
    pub fn name(self) -> &'static str {
        match self {
            EvalMutant::Xor2AsOr2 => "xor2-as-or2",
            EvalMutant::Nand2AsAnd2 => "nand2-as-and2",
            EvalMutant::Mux2SwappedData => "mux2-swapped-data",
        }
    }

    /// Parses [`EvalMutant::name`] back into the mutant.
    pub fn from_name(name: &str) -> Option<Self> {
        EvalMutant::ALL.into_iter().find(|m| m.name() == name)
    }
}

/// [`eval_comb`] with an optional mutation applied; test infrastructure only.
pub fn eval_comb_with_mutant(
    kind: CellKind,
    inputs: &[Logic],
    mutant: Option<EvalMutant>,
) -> Logic {
    if let Some(m) = mutant {
        match (m, kind) {
            (EvalMutant::Xor2AsOr2, CellKind::Xor2) => return inputs[0].or(inputs[1]),
            (EvalMutant::Nand2AsAnd2, CellKind::Nand2) => return inputs[0].and(inputs[1]),
            (EvalMutant::Mux2SwappedData, CellKind::Mux2) => {
                return inputs[2].mux(inputs[1], inputs[0])
            }
            _ => {}
        }
    }
    eval_comb(kind, inputs)
}

/// Asynchronous override of a sequential cell's state, evaluated continuously
/// (not just at clock edges). Returns `Some(state)` while an async control is
/// active: for a kind with [`CellKind::has_async_reset`], `RSTN == 0` forces
/// the state to `0`.
pub fn async_override(kind: CellKind, inputs: &[Logic]) -> Option<Logic> {
    (kind.has_async_reset() && inputs[2] == Logic::Zero).then_some(Logic::Zero)
}

/// Computes the state a sequential cell captures at a rising clock edge,
/// given the settled input values and the current state.
///
/// For latches this is the transparent-phase value (`EN == 1` passes `D`).
///
/// # Panics
///
/// Panics if `kind` is combinational.
pub fn next_state(kind: CellKind, inputs: &[Logic], state: Logic) -> Logic {
    assert!(kind.is_sequential(), "next_state called on {kind}");
    if let Some(forced) = async_override(kind, inputs) {
        return forced;
    }
    match kind {
        CellKind::Dff | CellKind::HardDff => inputs[1],
        CellKind::Dffr | CellKind::HardDffr => inputs[1],
        CellKind::Dffe => match inputs[2] {
            Logic::One => inputs[1],
            Logic::Zero => state,
            _ => Logic::X,
        },
        CellKind::Dffre => match inputs[3] {
            Logic::One => inputs[1],
            Logic::Zero => state,
            _ => Logic::X,
        },
        CellKind::Latch => match inputs[0] {
            Logic::One => inputs[1],
            Logic::Zero => state,
            _ => Logic::X,
        },
        CellKind::SramBit | CellKind::DramBit | CellKind::RadHardBit => match inputs[1] {
            Logic::One => inputs[2],
            Logic::Zero => state,
            _ => Logic::X,
        },
        _ => unreachable!("combinational kinds rejected above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ALL_LOGIC;
    use ssresf_netlist::cell::ALL_CELL_KINDS;

    const L0: Logic = Logic::Zero;
    const L1: Logic = Logic::One;
    const LX: Logic = Logic::X;

    #[test]
    fn basic_gates() {
        assert_eq!(eval_comb(CellKind::Tie0, &[]), L0);
        assert_eq!(eval_comb(CellKind::Tie1, &[]), L1);
        assert_eq!(eval_comb(CellKind::Buf, &[L1]), L1);
        assert_eq!(eval_comb(CellKind::Buf, &[Logic::Z]), LX);
        assert_eq!(eval_comb(CellKind::Inv, &[L0]), L1);
        assert_eq!(eval_comb(CellKind::Nand2, &[L1, L1]), L0);
        assert_eq!(eval_comb(CellKind::Nand2, &[L0, LX]), L1);
        assert_eq!(eval_comb(CellKind::Nor2, &[L0, L0]), L1);
        assert_eq!(eval_comb(CellKind::Xnor2, &[L1, L1]), L1);
    }

    #[test]
    fn three_input_gates() {
        assert_eq!(eval_comb(CellKind::And3, &[L1, L1, L1]), L1);
        assert_eq!(eval_comb(CellKind::And3, &[L1, L0, LX]), L0);
        assert_eq!(eval_comb(CellKind::Or3, &[L0, L0, L1]), L1);
        assert_eq!(eval_comb(CellKind::Nand3, &[L1, L1, L1]), L0);
        assert_eq!(eval_comb(CellKind::Nor3, &[L0, L0, L0]), L1);
    }

    #[test]
    fn complex_gates() {
        // AOI21: !((A&B)|C)
        assert_eq!(eval_comb(CellKind::Aoi21, &[L1, L1, L0]), L0);
        assert_eq!(eval_comb(CellKind::Aoi21, &[L0, L1, L0]), L1);
        assert_eq!(eval_comb(CellKind::Aoi21, &[L0, L0, L1]), L0);
        // OAI21: !((A|B)&C)
        assert_eq!(eval_comb(CellKind::Oai21, &[L0, L0, L1]), L1);
        assert_eq!(eval_comb(CellKind::Oai21, &[L1, L0, L1]), L0);
        assert_eq!(eval_comb(CellKind::Oai21, &[L1, L1, L0]), L1);
    }

    #[test]
    fn mux_gate() {
        assert_eq!(eval_comb(CellKind::Mux2, &[L0, L1, L0]), L0);
        assert_eq!(eval_comb(CellKind::Mux2, &[L0, L1, L1]), L1);
        assert_eq!(eval_comb(CellKind::Mux2, &[L1, L1, LX]), L1);
    }

    #[test]
    fn all_comb_kinds_total_over_logic_domain() {
        // Every combinational cell must produce a value for every input
        // combination without panicking.
        for &kind in ALL_CELL_KINDS {
            if !kind.is_combinational() {
                continue;
            }
            let arity = kind.num_inputs();
            let mut combos = vec![vec![]];
            for _ in 0..arity {
                combos = combos
                    .into_iter()
                    .flat_map(|c: Vec<Logic>| {
                        ALL_LOGIC.iter().map(move |&v| {
                            let mut c = c.clone();
                            c.push(v);
                            c
                        })
                    })
                    .collect();
            }
            for combo in combos {
                let _ = eval_comb(kind, &combo);
            }
        }
    }

    #[test]
    fn every_arity_fits_the_gather_buffer() {
        for &kind in ALL_CELL_KINDS {
            assert!(kind.num_inputs() <= MAX_INPUTS, "{kind}");
        }
    }

    #[test]
    fn dff_latches_d() {
        assert_eq!(next_state(CellKind::Dff, &[L1, L1], L0), L1);
        assert_eq!(next_state(CellKind::Dff, &[L1, L0], L1), L0);
    }

    #[test]
    fn dffr_async_reset_dominates() {
        assert_eq!(async_override(CellKind::Dffr, &[L0, L1, L0]), Some(L0));
        assert_eq!(async_override(CellKind::Dffr, &[L0, L1, L1]), None);
        assert_eq!(next_state(CellKind::Dffr, &[L1, L1, L0], L1), L0);
        assert_eq!(next_state(CellKind::Dffr, &[L1, L1, L1], L0), L1);
    }

    #[test]
    fn dffe_holds_when_disabled() {
        assert_eq!(next_state(CellKind::Dffe, &[L1, L1, L0], L0), L0);
        assert_eq!(next_state(CellKind::Dffe, &[L1, L1, L1], L0), L1);
        assert_eq!(next_state(CellKind::Dffe, &[L1, L1, LX], L0), LX);
    }

    #[test]
    fn dffre_combines_reset_and_enable() {
        // RSTN low wins regardless of EN.
        assert_eq!(next_state(CellKind::Dffre, &[L1, L1, L0, L1], L1), L0);
        // Enabled capture.
        assert_eq!(next_state(CellKind::Dffre, &[L1, L1, L1, L1], L0), L1);
        // Disabled hold.
        assert_eq!(next_state(CellKind::Dffre, &[L1, L1, L1, L0], L0), L0);
    }

    #[test]
    fn latch_transparency() {
        assert_eq!(next_state(CellKind::Latch, &[L1, L1], L0), L1);
        assert_eq!(next_state(CellKind::Latch, &[L0, L1], L0), L0);
    }

    #[test]
    fn memory_bits_respect_write_enable() {
        for kind in [CellKind::SramBit, CellKind::DramBit, CellKind::RadHardBit] {
            assert_eq!(next_state(kind, &[L1, L1, L1], L0), L1, "{kind}");
            assert_eq!(next_state(kind, &[L1, L0, L1], L0), L0, "{kind}");
        }
    }

    #[test]
    #[should_panic(expected = "sequential")]
    fn eval_comb_rejects_sequential() {
        let _ = eval_comb(CellKind::Dff, &[L0, L0]);
    }

    #[test]
    fn disturb_covers_all_four_values() {
        assert_eq!(disturb(Logic::Zero), Logic::One);
        assert_eq!(disturb(Logic::One), Logic::Zero);
        assert_eq!(disturb(Logic::X), Logic::One);
        assert_eq!(disturb(Logic::Z), Logic::One);
        // A disturbance always yields a defined level.
        for v in ALL_LOGIC {
            assert!(disturb(v).is_defined());
        }
    }
}
