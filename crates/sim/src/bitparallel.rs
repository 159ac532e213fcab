//! Bit-parallel batched fault simulation — the PPSFP-style wide-lane kernel.
//!
//! Classic fault simulators get their orders-of-magnitude wins from packing
//! many fault instances into machine words and evaluating the netlist once
//! for all of them. [`BitParallelEngine`] does exactly that: lane 0 carries
//! the golden (fault-free) run and the remaining lanes carry independent
//! fault instances, all sharing one levelized evaluation sweep per cycle.
//!
//! # Width parametrization
//!
//! The lane count is a compile-time parameter: `LaneWord<W>` holds `W`
//! 64-bit chunks per plane, so `W = 1/4/8` gives 64/256/512 lanes (see
//! [`SUPPORTED_LANE_COUNTS`]). The chunked representation is portable
//! Rust — every operator is a fixed-trip-count loop over `[u64; W]` that
//! LLVM auto-vectorizes into SSE/AVX/NEON lanes on its own, without any
//! `core::arch` intrinsics, `unsafe`, or per-target code paths.
//!
//! # Two-plane encoding
//!
//! Each net (and each sequential cell's state) holds a [`LaneWord`]: a
//! `val` plane and an `unk` plane of `W * 64` bits each. Lane `i` decodes
//! as
//!
//! | `val` bit | `unk` bit | value |
//! |-----------|-----------|-------|
//! | 0         | 0         | `0`   |
//! | 1         | 0         | `1`   |
//! | 0         | 1         | `X`   |
//!
//! `val & unk == 0` is a canonical invariant every operator preserves. `Z`
//! collapses to `X` — gate inputs already treat them identically (see
//! [`Logic::to_bool`]), campaign runs never drive `Z`, and [`Engine::poke`]
//! rejects it outright, so the collapse is unobservable in batch mode.
//!
//! Every [`eval_comb`](crate::eval::eval_comb) kind has a word-level
//! implementation ([`eval_comb_word`]) built from the Kleene operators on
//! [`LaneWord`]; SEU flips and cycle-widened SET pulses become per-lane
//! mask operations ([`LaneWord::disturb`] over a [`LaneMask`]); soft-error
//! detection is a per-lane divergence mask against lane 0
//! ([`BitParallelEngine::lanes_differing_from_golden`]) — no per-lane
//! traces are ever materialised.
//!
//! The engine mirrors [`LevelizedEngine`](crate::LevelizedEngine)
//! cycle-for-cycle and lane-for-lane: a batched run at any width is
//! bit-identical to the corresponding scalar levelized runs, which the
//! conformance subsystem verifies differentially.

use crate::engine::{Engine, EngineState, EngineTelemetry};
use crate::eval::{gather, Inputs};
use crate::inject::Fault;
use crate::levelized::LevelizedState;
use crate::value::Logic;
use crate::SimError;
use ssresf_netlist::flat::Driver;
use ssresf_netlist::{CellId, CellKind, FlatNetlist, NetId};
use std::array;

/// Lanes per 64-bit chunk of a [`LaneWord`] plane.
pub const WORD_LANES: usize = 64;

/// Lanes of the default-width (`W = 1`) engine; lane 0 is the golden lane,
/// lanes `1..LANES` carry fault instances.
pub const LANES: usize = WORD_LANES;

/// Lane counts with a monomorphized engine behind them (`W = 1/4/8`).
/// Campaign-level width validation and dispatch use this list.
pub const SUPPORTED_LANE_COUNTS: [usize; 3] = [64, 256, 512];

/// Iteration bound for the asynchronous-control fixpoint (matches the
/// levelized engine's bound).
const ASYNC_FIXPOINT_LIMIT: usize = 16;

/// A per-lane bitmask over `W * 64` lanes: fault targeting, divergence
/// reporting and disturbance masks all speak this type, so a mask can
/// never be applied at the wrong width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneMask<const W: usize = 1>(pub [u64; W]);

impl<const W: usize> LaneMask<W> {
    /// Lanes represented by this mask.
    pub const LANES: usize = W * WORD_LANES;
    /// No lanes set.
    pub const EMPTY: LaneMask<W> = LaneMask([0; W]);
    /// Every lane set (including lane 0).
    pub const ALL: LaneMask<W> = LaneMask([!0; W]);

    /// A mask with only `lane` set.
    pub fn bit(lane: usize) -> LaneMask<W> {
        let mut m = LaneMask::EMPTY;
        m.set(lane);
        m
    }

    /// Sets `lane`.
    pub fn set(&mut self, lane: usize) {
        debug_assert!(lane < Self::LANES);
        self.0[lane / WORD_LANES] |= 1u64 << (lane % WORD_LANES);
    }

    /// Clears `lane`.
    pub fn clear(&mut self, lane: usize) {
        debug_assert!(lane < Self::LANES);
        self.0[lane / WORD_LANES] &= !(1u64 << (lane % WORD_LANES));
    }

    /// Whether `lane` is set.
    pub fn get(self, lane: usize) -> bool {
        debug_assert!(lane < Self::LANES);
        (self.0[lane / WORD_LANES] >> (lane % WORD_LANES)) & 1 == 1
    }

    /// Whether any lane is set.
    pub fn any(self) -> bool {
        self.0.iter().any(|&w| w != 0)
    }

    /// Whether no lane is set.
    pub fn none(self) -> bool {
        !self.any()
    }

    /// Number of set lanes.
    pub fn count(self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// Calls `f` with each set lane index, in ascending order.
    pub fn for_each_lane(self, mut f: impl FnMut(usize)) {
        for (k, &chunk) in self.0.iter().enumerate() {
            let mut bits = chunk;
            while bits != 0 {
                f(k * WORD_LANES + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}

impl<const W: usize> Default for LaneMask<W> {
    fn default() -> Self {
        LaneMask::EMPTY
    }
}

impl<const W: usize> std::ops::BitOr for LaneMask<W> {
    type Output = LaneMask<W>;
    fn bitor(self, rhs: LaneMask<W>) -> LaneMask<W> {
        LaneMask(array::from_fn(|k| self.0[k] | rhs.0[k]))
    }
}

impl<const W: usize> std::ops::BitOrAssign for LaneMask<W> {
    fn bitor_assign(&mut self, rhs: LaneMask<W>) {
        for (a, b) in self.0.iter_mut().zip(rhs.0) {
            *a |= b;
        }
    }
}

impl<const W: usize> std::ops::BitAnd for LaneMask<W> {
    type Output = LaneMask<W>;
    fn bitand(self, rhs: LaneMask<W>) -> LaneMask<W> {
        LaneMask(array::from_fn(|k| self.0[k] & rhs.0[k]))
    }
}

/// `W * 64` four-state logic values in two chunked bit-planes (see the
/// module docs for the encoding). All operators are lane-wise Kleene logic
/// agreeing with the scalar [`Logic`] operators; every inner loop has a
/// fixed trip count of `W`, so the compiler vectorizes them without
/// target-specific intrinsics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneWord<const W: usize = 1> {
    /// Defined-one plane.
    pub val: [u64; W],
    /// Unknown plane (`X`).
    pub unk: [u64; W],
}

impl<const W: usize> Default for LaneWord<W> {
    fn default() -> Self {
        LaneWord::ZERO
    }
}

impl<const W: usize> LaneWord<W> {
    /// Lanes per word.
    pub const LANES: usize = W * WORD_LANES;
    /// All lanes `0`.
    pub const ZERO: LaneWord<W> = LaneWord {
        val: [0; W],
        unk: [0; W],
    };
    /// All lanes `1`.
    pub const ONE: LaneWord<W> = LaneWord {
        val: [!0; W],
        unk: [0; W],
    };
    /// All lanes `X`.
    pub const UNKNOWN: LaneWord<W> = LaneWord {
        val: [0; W],
        unk: [!0; W],
    };

    /// Broadcasts one scalar value into every lane (`Z` collapses to `X`).
    pub fn splat(v: Logic) -> LaneWord<W> {
        match v {
            Logic::Zero => LaneWord::ZERO,
            Logic::One => LaneWord::ONE,
            Logic::X | Logic::Z => LaneWord::UNKNOWN,
        }
    }

    /// Decodes one lane.
    pub fn get(self, lane: usize) -> Logic {
        debug_assert!(lane < Self::LANES);
        let (k, b) = (lane / WORD_LANES, lane % WORD_LANES);
        if (self.unk[k] >> b) & 1 == 1 {
            Logic::X
        } else if (self.val[k] >> b) & 1 == 1 {
            Logic::One
        } else {
            Logic::Zero
        }
    }

    /// Sets one lane (`Z` collapses to `X`).
    pub fn set_lane(&mut self, lane: usize, v: Logic) {
        debug_assert!(lane < Self::LANES);
        let (k, b) = (lane / WORD_LANES, lane % WORD_LANES);
        let bit = 1u64 << b;
        self.val[k] &= !bit;
        self.unk[k] &= !bit;
        match v {
            Logic::Zero => {}
            Logic::One => self.val[k] |= bit,
            Logic::X | Logic::Z => self.unk[k] |= bit,
        }
    }

    /// Lanes holding a defined `0`.
    pub fn defined_zero(self) -> LaneMask<W> {
        LaneMask(array::from_fn(|k| !self.val[k] & !self.unk[k]))
    }

    /// Lane-wise negation; unknowns stay unknown.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> LaneWord<W> {
        LaneWord {
            val: self.defined_zero().0,
            unk: self.unk,
        }
    }

    /// Lane-wise AND with dominance of `0`.
    pub fn and(self, other: LaneWord<W>) -> LaneWord<W> {
        let mut out = LaneWord::ZERO;
        for k in 0..W {
            let zero = (!self.val[k] & !self.unk[k]) | (!other.val[k] & !other.unk[k]);
            let one = self.val[k] & other.val[k];
            out.val[k] = one;
            out.unk[k] = !zero & !one;
        }
        out
    }

    /// Lane-wise OR with dominance of `1`.
    pub fn or(self, other: LaneWord<W>) -> LaneWord<W> {
        let mut out = LaneWord::ZERO;
        for k in 0..W {
            let one = self.val[k] | other.val[k];
            let zero = (!self.val[k] & !self.unk[k]) & (!other.val[k] & !other.unk[k]);
            out.val[k] = one;
            out.unk[k] = !one & !zero;
        }
        out
    }

    /// Lane-wise XOR; any unknown input lane yields unknown.
    pub fn xor(self, other: LaneWord<W>) -> LaneWord<W> {
        let mut out = LaneWord::ZERO;
        for k in 0..W {
            let unk = self.unk[k] | other.unk[k];
            out.val[k] = (self.val[k] ^ other.val[k]) & !unk;
            out.unk[k] = unk;
        }
        out
    }

    /// Multiplexer select (`self` is the select): `s ? d1 : d0`. An unknown
    /// select lane passes the common value when `d0`/`d1` agree and are
    /// defined, otherwise `X` — the word form of [`Logic::mux`].
    pub fn mux(self, d0: LaneWord<W>, d1: LaneWord<W>) -> LaneWord<W> {
        let mut out = LaneWord::ZERO;
        for k in 0..W {
            let s1 = self.val[k];
            let s0 = !self.val[k] & !self.unk[k];
            let su = self.unk[k];
            let agree = !d0.unk[k] & !d1.unk[k] & !(d0.val[k] ^ d1.val[k]);
            out.val[k] = (s0 & d0.val[k]) | (s1 & d1.val[k]) | (su & agree & d0.val[k]);
            out.unk[k] = (s0 & d0.unk[k]) | (s1 & d1.unk[k]) | (su & !agree);
        }
        out
    }

    /// Strict-X control select (`self` is the control): `c ? on_one :
    /// on_zero`, with an unknown control lane yielding `X` regardless of the
    /// data — the hold/capture rule of the sequential
    /// [`next_state`](crate::eval::next_state) match arms, which (unlike
    /// [`mux`](LaneWord::mux)) never passes agreeing data through an `X`
    /// control.
    pub fn select(self, on_one: LaneWord<W>, on_zero: LaneWord<W>) -> LaneWord<W> {
        let mut out = LaneWord::ZERO;
        for k in 0..W {
            let c1 = self.val[k];
            let c0 = !self.val[k] & !self.unk[k];
            out.val[k] = (c1 & on_one.val[k]) | (c0 & on_zero.val[k]);
            out.unk[k] = (c1 & on_one.unk[k]) | (c0 & on_zero.unk[k]) | self.unk[k];
        }
        out
    }

    /// Applies the single-event disturbance rule to the lanes in `lanes`:
    /// defined values invert, undefined lanes go to a defined `1` — the
    /// word form of [`disturb`](crate::eval::disturb).
    pub fn disturb(self, lanes: LaneMask<W>) -> LaneWord<W> {
        let mut out = LaneWord::ZERO;
        for k in 0..W {
            let m = lanes.0[k];
            out.val[k] = (self.val[k] & !m) | (m & (!self.val[k] | self.unk[k]));
            out.unk[k] = self.unk[k] & !m;
        }
        out
    }

    /// Forces the lanes in `lanes` to a defined `0` (async-reset override).
    pub fn force_zero(self, lanes: LaneMask<W>) -> LaneWord<W> {
        let mut out = LaneWord::ZERO;
        for k in 0..W {
            out.val[k] = self.val[k] & !lanes.0[k];
            out.unk[k] = self.unk[k] & !lanes.0[k];
        }
        out
    }

    /// Lanes whose decoded value differs between `self` and `other`.
    pub fn diff(self, other: LaneWord<W>) -> LaneMask<W> {
        LaneMask(array::from_fn(|k| {
            (self.val[k] ^ other.val[k]) | (self.unk[k] ^ other.unk[k])
        }))
    }

    /// Lanes with a non-canonical encoding (`val & unk != 0`); empty for
    /// every operator result, checked by the property tests.
    pub fn non_canonical(self) -> LaneMask<W> {
        LaneMask(array::from_fn(|k| self.val[k] & self.unk[k]))
    }
}

/// Word-level [`eval_comb`](crate::eval::eval_comb): evaluates a
/// combinational cell for all lanes at once.
///
/// # Panics
///
/// Panics if `kind` is sequential or `inputs.len()` does not match the
/// kind's arity; both indicate an engine bug, not user error.
pub fn eval_comb_word<const W: usize>(kind: CellKind, inputs: &[LaneWord<W>]) -> LaneWord<W> {
    assert!(
        kind.is_combinational(),
        "eval_comb_word called on sequential cell {kind}"
    );
    assert_eq!(inputs.len(), kind.num_inputs(), "arity mismatch for {kind}");
    match kind {
        CellKind::Tie0 => LaneWord::ZERO,
        CellKind::Tie1 => LaneWord::ONE,
        // Scalar Buf maps Z to X; Z is already collapsed by the encoding,
        // so the word form is the identity.
        CellKind::Buf => inputs[0],
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

/// Whether `kind` has an asynchronous reset — the only kinds whose state
/// [`async_override_zero_lanes`] can force.
fn has_async_reset(kind: CellKind) -> bool {
    matches!(kind, CellKind::Dffr | CellKind::Dffre | CellKind::HardDffr)
}

/// Lanes where an asynchronous control forces the cell's state to `0` —
/// the word form of [`async_override`](crate::eval::async_override).
pub fn async_override_zero_lanes<const W: usize>(
    kind: CellKind,
    inputs: &[LaneWord<W>],
) -> LaneMask<W> {
    if has_async_reset(kind) {
        inputs[2].defined_zero()
    } else {
        LaneMask::EMPTY
    }
}

/// Word-level [`next_state`](crate::eval::next_state): the state a
/// sequential cell captures at a rising edge, for all lanes at once.
///
/// Hold paths return the encoded state, so a scalar `Z` state decodes as
/// `X` (the collapse is unobservable in engine runs, which never hold `Z`).
///
/// # Panics
///
/// Panics if `kind` is combinational.
pub fn next_state_word<const W: usize>(
    kind: CellKind,
    inputs: &[LaneWord<W>],
    state: LaneWord<W>,
) -> LaneWord<W> {
    assert!(kind.is_sequential(), "next_state_word called on {kind}");
    let captured = match kind {
        CellKind::Dff | CellKind::Dffr | CellKind::HardDff | CellKind::HardDffr => inputs[1],
        CellKind::Dffe => inputs[2].select(inputs[1], state),
        CellKind::Dffre => inputs[3].select(inputs[1], state),
        CellKind::Latch => inputs[0].select(inputs[1], state),
        CellKind::SramBit | CellKind::DramBit | CellKind::RadHardBit => {
            inputs[1].select(inputs[2], state)
        }
        _ => unreachable!("combinational kinds rejected above"),
    };
    // The async override dominates the captured value, exactly as the
    // scalar rule checks it first.
    captured.force_zero(async_override_zero_lanes(kind, inputs))
}

/// Lanes (excluding lane 0) whose decoded value differs from lane 0.
fn diff_from_lane0<const W: usize>(w: LaneWord<W>) -> LaneMask<W> {
    let bval = (w.val[0] & 1).wrapping_neg();
    let bunk = (w.unk[0] & 1).wrapping_neg();
    let mut m: [u64; W] = array::from_fn(|k| (w.val[k] ^ bval) | (w.unk[k] ^ bunk));
    m[0] &= !1;
    LaneMask(m)
}

/// Lanes (excluding lane 0) whose bit in `m` differs from lane 0's bit.
fn mask_diff_from_lane0<const W: usize>(m: LaneMask<W>) -> LaneMask<W> {
    let b = (m.0[0] & 1).wrapping_neg();
    let mut d: [u64; W] = array::from_fn(|k| m.0[k] ^ b);
    d[0] &= !1;
    LaneMask(d)
}

/// The wide-lane bit-parallel levelized simulator: `W * 64` lanes, with
/// `W = 1` (the 64-lane engine) as the default.
///
/// Implements [`Engine`] with broadcast semantics: [`poke`](Engine::poke),
/// [`set_cell_state`](Engine::set_cell_state), [`restore`](Engine::restore)
/// and [`schedule_fault`](Engine::schedule_fault) act on every lane, while
/// [`peek`](Engine::peek) and [`cell_state`](Engine::cell_state) read the
/// golden lane 0. Per-lane faults go through
/// [`schedule_fault_in_lane`](BitParallelEngine::schedule_fault_in_lane),
/// and per-lane observation through
/// [`lanes_differing_from_golden`](BitParallelEngine::lanes_differing_from_golden)
/// and [`peek_lane`](BitParallelEngine::peek_lane).
///
/// Snapshots are [`EngineState::Levelized`] of the golden lane, so golden
/// checkpoints taken by a scalar [`LevelizedEngine`](crate::LevelizedEngine)
/// broadcast-restore into a batch at any width and vice versa.
///
/// A cycle touches only what can change: the capture and Q-drive phases
/// walk the precomputed sequential cells, the asynchronous-reset fixpoint
/// walks only the cells with an asynchronous reset, and the SET phases
/// walk the sparse list of nets disturbed this cycle. Only the
/// combinational sweep visits every combinational cell.
#[derive(Debug)]
pub struct BitParallelEngine<'a, const W: usize = 1> {
    netlist: &'a FlatNetlist,
    clock: NetId,
    order: Vec<CellId>,
    /// Sequential cells in id order.
    sequential: Vec<CellId>,
    /// The sequential cells with an asynchronous reset, in id order.
    async_reset: Vec<CellId>,
    nets: Vec<LaneWord<W>>,
    state: Vec<LaneWord<W>>,
    /// Per-net lane mask of active cycle-wide SET disturbances.
    inverted: Vec<LaneMask<W>>,
    /// The nets whose `inverted` mask is non-empty, each listed once.
    disturbed: Vec<NetId>,
    /// Faults applied to every lane (from broadcast scheduling / restore).
    faults: Vec<Fault>,
    /// Faults applied to a single lane each.
    lane_faults: Vec<(usize, Fault)>,
    cycle: u64,
    /// Golden-lane toggle activity (matches the scalar engine's counter).
    activity: Vec<u64>,
    /// Word evaluations performed (one covers a cell for all lanes).
    word_evals: u64,
    /// Full evaluation sweeps performed.
    sweeps: u64,
    /// Snapshot restores performed.
    restores: u64,
}

impl<'a, const W: usize> BitParallelEngine<'a, W> {
    /// Lanes in this engine (lane 0 is golden).
    pub const LANES: usize = W * WORD_LANES;

    /// Creates an engine for `netlist` clocked by the primary input
    /// `clock`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Netlist`] for combinational loops and
    /// [`SimError::NotAnInput`] when `clock` is not a primary input.
    pub fn new(netlist: &'a FlatNetlist, clock: NetId) -> Result<Self, SimError> {
        let lv = netlist.levelize().map_err(SimError::Netlist)?;
        if netlist.net(clock).driver != Some(Driver::PrimaryInput) {
            return Err(SimError::NotAnInput(netlist.net_full_name(clock)));
        }
        let mut order = lv.order;
        let depth = lv.cell_depth;
        order.sort_by_key(|c| (depth[c.index()], c.0));
        let sequential: Vec<CellId> = (0..netlist.num_cells() as u32)
            .map(CellId)
            .filter(|&c| netlist.cell_kind(c).is_sequential())
            .collect();
        let async_reset = sequential
            .iter()
            .copied()
            .filter(|&c| has_async_reset(netlist.cell_kind(c)))
            .collect();
        let mut engine = BitParallelEngine {
            netlist,
            clock,
            order,
            sequential,
            async_reset,
            nets: vec![LaneWord::UNKNOWN; netlist.nets().len()],
            state: vec![LaneWord::UNKNOWN; netlist.cells().len()],
            inverted: vec![LaneMask::EMPTY; netlist.nets().len()],
            disturbed: Vec::new(),
            faults: Vec::new(),
            lane_faults: Vec::new(),
            cycle: 0,
            activity: vec![0; netlist.nets().len()],
            word_evals: 0,
            sweeps: 0,
            restores: 0,
        };
        engine.nets[clock.index()] = LaneWord::ZERO;
        engine.propagate();
        Ok(engine)
    }

    /// Word evaluations performed so far (the batch work proxy: one word
    /// evaluation covers a cell for all lanes).
    pub fn word_evals(&self) -> u64 {
        self.word_evals
    }

    /// Schedules a fault that fires in `lane` only (lane 0 stays golden).
    ///
    /// # Panics
    ///
    /// Panics when `lane` is 0 (the golden lane) or not below the lane
    /// count, and when an SEU targets a combinational cell:
    /// [`diverged_lanes`](BitParallelEngine::diverged_lanes) reads only
    /// sequential state, so such an upset could not be reported.
    pub fn schedule_fault_in_lane(&mut self, lane: usize, fault: Fault) {
        assert!(
            (1..Self::LANES).contains(&lane),
            "lane {lane} outside 1..{} (lane 0 is the golden lane)",
            Self::LANES
        );
        if let Fault::Seu(f) = fault {
            assert!(
                self.netlist.cell_kind(f.cell).is_sequential(),
                "SEU in lane {lane} targets combinational cell `{}`, which holds no state",
                self.netlist.cell_full_name(f.cell)
            );
        }
        self.lane_faults.push((lane, fault));
    }

    /// Lanes (excluding lane 0) whose current value of `net` differs from
    /// the golden lane — the soft-error detector, evaluated without
    /// materialising per-lane traces.
    pub fn lanes_differing_from_golden(&self, net: NetId) -> LaneMask<W> {
        diff_from_lane0(self.nets[net.index()])
    }

    /// Lanes (excluding lane 0) that differ from the golden lane in any
    /// net value, any sequential state, any active SET disturbance, or
    /// that still have a pending lane fault. A fault lane absent from the
    /// result has re-converged with the golden run — the lane-retirement
    /// test of the campaign's lane queue.
    ///
    /// Combinational cells hold no state a lane can diverge in: only a
    /// lane SEU could write one, and
    /// [`schedule_fault_in_lane`](BitParallelEngine::schedule_fault_in_lane)
    /// rejects those.
    pub fn diverged_lanes(&self) -> LaneMask<W> {
        let mut d = LaneMask::EMPTY;
        for &w in &self.nets {
            d |= diff_from_lane0(w);
        }
        for &cell in &self.sequential {
            d |= diff_from_lane0(self.state[cell.index()]);
        }
        for &net in &self.disturbed {
            d |= mask_diff_from_lane0(self.inverted[net.index()]);
        }
        for &(lane, _) in &self.lane_faults {
            d.set(lane);
        }
        d
    }

    /// Current value of `net` in one lane.
    pub fn peek_lane(&self, net: NetId, lane: usize) -> Logic {
        self.nets[net.index()].get(lane)
    }

    /// Stored state of a sequential cell in one lane.
    pub fn cell_state_lane(&self, cell: CellId, lane: usize) -> Logic {
        self.state[cell.index()].get(lane)
    }

    /// Samples the current values of `nets` in one lane.
    pub fn sample_lane(&self, nets: &[NetId], lane: usize) -> Vec<Logic> {
        nets.iter().map(|&n| self.peek_lane(n, lane)).collect()
    }

    fn set_net(&mut self, net: NetId, w: LaneWord<W>) {
        // Golden-lane activity mirrors the scalar engine's toggle counter.
        if self.nets[net.index()].diff(w).0[0] & 1 != 0 {
            self.activity[net.index()] += 1;
        }
        self.nets[net.index()] = w;
    }

    fn input_words(&self, cell: CellId) -> Inputs<LaneWord<W>> {
        gather(self.netlist.cell_inputs(cell), &self.nets)
    }

    /// One full evaluation sweep of the combinational netlist, all lanes
    /// at once.
    fn propagate(&mut self) {
        self.sweeps += 1;
        for i in 0..self.order.len() {
            let cell = self.order[i];
            let mut out = eval_comb_word(self.netlist.cell_kind(cell), &self.input_words(cell));
            let net = self.netlist.cell_output(cell);
            let inv = self.inverted[net.index()];
            if inv.any() {
                out = out.disturb(inv);
            }
            self.set_net(net, out);
            self.word_evals += 1;
        }
    }

    /// Applies asynchronous controls (e.g. active-low reset) until stable,
    /// per lane. Only cells with an asynchronous reset can be forced, so
    /// only those are visited (in id order, as the scalar engine visits
    /// every sequential cell).
    fn async_fixpoint(&mut self) {
        for _ in 0..ASYNC_FIXPOINT_LIMIT {
            let mut changed = false;
            for k in 0..self.async_reset.len() {
                let id = self.async_reset[k];
                let forced =
                    async_override_zero_lanes(self.netlist.cell_kind(id), &self.input_words(id));
                // Only lanes whose state actually changes update the Q net,
                // matching the scalar `state != forced` guard.
                let st = self.state[id.index()];
                let nonzero = LaneMask(array::from_fn(|k| st.val[k] | st.unk[k]));
                let diff = forced & nonzero;
                if diff.any() {
                    self.state[id.index()] = st.force_zero(diff);
                    let q = self.netlist.cell_output(id);
                    let cur = self.nets[q.index()];
                    self.set_net(q, cur.force_zero(diff));
                    changed = true;
                }
            }
            if !changed {
                return;
            }
            self.propagate();
        }
    }

    fn apply_fault(&mut self, fault: Fault, lanes: LaneMask<W>) {
        match fault {
            Fault::Seu(f) => {
                self.state[f.cell.index()] = self.state[f.cell.index()].disturb(lanes);
            }
            Fault::Set(f) => {
                let mask = &mut self.inverted[f.net.index()];
                if mask.none() {
                    self.disturbed.push(f.net);
                }
                *mask |= lanes;
            }
        }
    }
}

impl<const W: usize> Engine for BitParallelEngine<'_, W> {
    fn name(&self) -> &'static str {
        "bit-parallel"
    }

    fn netlist(&self) -> &FlatNetlist {
        self.netlist
    }

    fn poke(&mut self, net: NetId, value: Logic) {
        assert_ne!(net, self.clock, "the clock is driven by the engine");
        assert_eq!(
            self.netlist.net(net).driver,
            Some(Driver::PrimaryInput),
            "poke target `{}` is not a primary input",
            self.netlist.net_full_name(net)
        );
        assert_ne!(
            value,
            Logic::Z,
            "the bit-parallel engine cannot represent Z (poke X instead)"
        );
        self.set_net(net, LaneWord::splat(value));
    }

    fn peek(&self, net: NetId) -> Logic {
        self.nets[net.index()].get(0)
    }

    fn set_cell_state(&mut self, cell: CellId, value: Logic) {
        assert!(
            self.netlist.cell(cell).kind.is_sequential(),
            "cell `{}` holds no state",
            self.netlist.cell_full_name(cell)
        );
        assert_ne!(
            value,
            Logic::Z,
            "the bit-parallel engine cannot represent Z (set X instead)"
        );
        self.state[cell.index()] = LaneWord::splat(value);
        let q = self.netlist.cell(cell).output;
        self.set_net(q, LaneWord::splat(value));
        self.propagate();
    }

    fn set_cell_states(&mut self, cells: &[CellId], value: Logic) {
        assert_ne!(
            value,
            Logic::Z,
            "the bit-parallel engine cannot represent Z (set X instead)"
        );
        for &cell in cells {
            assert!(
                self.netlist.cell(cell).kind.is_sequential(),
                "cell `{}` holds no state",
                self.netlist.cell_full_name(cell)
            );
            self.state[cell.index()] = LaneWord::splat(value);
            let q = self.netlist.cell(cell).output;
            self.set_net(q, LaneWord::splat(value));
        }
        self.propagate();
    }

    fn cell_state(&self, cell: CellId) -> Logic {
        self.state[cell.index()].get(0)
    }

    fn schedule_fault(&mut self, fault: Fault) {
        self.faults.push(fault);
    }

    /// Snapshots the golden lane as a levelized-engine state.
    ///
    /// # Panics
    ///
    /// Panics when any lane has diverged from lane 0 or a lane fault is
    /// pending — a diverged batch has no single-lane representation.
    fn snapshot(&self) -> EngineState {
        assert!(
            self.diverged_lanes().none(),
            "cannot snapshot a bit-parallel engine whose lanes have diverged"
        );
        EngineState::Levelized(LevelizedState::from_parts(
            self.nets.iter().map(|w| w.get(0)).collect(),
            self.state.iter().map(|w| w.get(0)).collect(),
            self.inverted.iter().map(|m| m.get(0)).collect(),
            self.faults.clone(),
            self.cycle,
            self.activity.clone(),
            self.word_evals,
        ))
    }

    /// Broadcasts a levelized snapshot (e.g. a golden-run checkpoint taken
    /// by the scalar engine) into every lane.
    fn restore(&mut self, state: &EngineState) {
        let EngineState::Levelized(s) = state else {
            panic!("bit-parallel engine cannot restore a non-levelized snapshot");
        };
        assert_eq!(
            s.values().len(),
            self.netlist.nets().len(),
            "snapshot was taken on a different netlist"
        );
        for (w, &v) in self.nets.iter_mut().zip(s.values()) {
            assert_ne!(v, Logic::Z, "snapshot holds a Z the lanes cannot represent");
            *w = LaneWord::splat(v);
        }
        for (w, &v) in self.state.iter_mut().zip(s.state()) {
            assert_ne!(v, Logic::Z, "snapshot holds a Z the lanes cannot represent");
            *w = LaneWord::splat(v);
        }
        self.disturbed.clear();
        for (i, (m, &inv)) in self.inverted.iter_mut().zip(s.inverted()).enumerate() {
            *m = if inv { LaneMask::ALL } else { LaneMask::EMPTY };
            if inv {
                self.disturbed.push(NetId(i as u32));
            }
        }
        self.faults = s.faults().to_vec();
        self.lane_faults.clear();
        self.cycle = s.cycle();
        self.activity = s.activity().to_vec();
        self.restores += 1;
    }

    fn step_cycle(&mut self) {
        // 1. Rising edge: every sequential cell captures from the settled
        //    values, all lanes at once (see LevelizedEngine::step_cycle for
        //    the phase rationale — the two must stay in lockstep). A capture
        //    reads net values and the cell's own state, and the loop writes
        //    neither net values nor other cells' state, so capturing in
        //    place equals capturing into a buffer first.
        for k in 0..self.sequential.len() {
            let id = self.sequential[k];
            let kind = self.netlist.cell_kind(id);
            self.state[id.index()] =
                next_state_word(kind, &self.input_words(id), self.state[id.index()]);
        }

        // 2. Faults for this cycle: broadcast faults hit every lane, lane
        //    faults their single lane. SEUs flip post-capture state; SETs
        //    force their net for the remainder of the cycle.
        let current = self.cycle;
        for i in 0..self.faults.len() {
            let fault = self.faults[i];
            if fault.cycle() == current {
                self.apply_fault(fault, LaneMask::ALL);
            }
        }
        self.faults.retain(|f| f.cycle() != current);
        for i in 0..self.lane_faults.len() {
            let (lane, fault) = self.lane_faults[i];
            if fault.cycle() == current {
                self.apply_fault(fault, LaneMask::bit(lane));
            }
        }
        self.lane_faults.retain(|(_, f)| f.cycle() != current);

        // 3. Drive Q outputs (a SET on a Q net disturbs the driven lanes
        //    without corrupting the stored state) and settle the logic.
        for k in 0..self.sequential.len() {
            let id = self.sequential[k];
            let q = self.netlist.cell_output(id);
            let mut v = self.state[id.index()];
            let inv = self.inverted[q.index()];
            if inv.any() {
                v = v.disturb(inv);
            }
            self.set_net(q, v);
        }
        // SETs on input-driven nets (no combinational driver).
        for k in 0..self.disturbed.len() {
            let net = self.disturbed[k];
            if self.netlist.net_driver(net) == Some(Driver::PrimaryInput) {
                let v = self.nets[net.index()].disturb(self.inverted[net.index()]);
                self.set_net(net, v);
            }
        }
        self.propagate();
        self.async_fixpoint();

        // 4. Release this cycle's SET disturbances.
        for net in self.disturbed.drain(..) {
            self.inverted[net.index()] = LaneMask::EMPTY;
        }
        self.cycle += 1;
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn activity(&self) -> &[u64] {
        &self.activity
    }

    fn telemetry(&self) -> EngineTelemetry {
        EngineTelemetry {
            events_processed: 0,
            cells_evaluated: 0,
            delta_cycles: self.sweeps,
            wheel_advances: 0,
            restores: self.restores,
            word_evals: self.word_evals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_comb, next_state};
    use crate::value::ALL_LOGIC;
    use ssresf_netlist::cell::ALL_CELL_KINDS;

    /// Scalar results can carry `Z` through hold paths; the lanes collapse
    /// it to `X` (identically treated by every operator).
    fn z_to_x(v: Logic) -> Logic {
        if v == Logic::Z {
            Logic::X
        } else {
            v
        }
    }

    /// All `arity`-long combinations over the 4-state domain.
    fn combos(arity: usize) -> Vec<Vec<Logic>> {
        let mut out = vec![vec![]];
        for _ in 0..arity {
            out = out
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
        out
    }

    /// Packs `rows[lane][pin]` into per-pin words, cycling rows so every
    /// lane is populated.
    fn pack<const W: usize>(rows: &[Vec<Logic>], arity: usize) -> Vec<LaneWord<W>> {
        let mut words = vec![LaneWord::ZERO; arity];
        for lane in 0..LaneWord::<W>::LANES {
            let row = &rows[lane % rows.len()];
            for (pin, w) in words.iter_mut().enumerate() {
                w.set_lane(lane, row[pin]);
            }
        }
        words
    }

    /// A deterministic lane mask exercising every chunk: alternating bits
    /// offset per chunk so neighbouring chunks differ.
    fn stripe_mask<const W: usize>() -> LaneMask<W> {
        LaneMask(std::array::from_fn(|k| {
            0xAAAA_AAAA_AAAA_AAAAu64.rotate_left(k as u32)
        }))
    }

    fn check_splat_get_set<const W: usize>() {
        for v in ALL_LOGIC {
            let w = LaneWord::<W>::splat(v);
            assert!(w.non_canonical().none(), "canonical invariant");
            for lane in [0, 1, 31, LaneWord::<W>::LANES - 1] {
                assert_eq!(w.get(lane), z_to_x(v));
            }
        }
        let mut w = LaneWord::<W>::ZERO;
        let hi = LaneWord::<W>::LANES - 2;
        w.set_lane(5, Logic::One);
        w.set_lane(hi, Logic::X);
        assert_eq!(w.get(5), Logic::One);
        assert_eq!(w.get(hi), Logic::X);
        assert_eq!(w.get(7), Logic::Zero);
        w.set_lane(5, Logic::Zero);
        assert_eq!(w.get(5), Logic::Zero);
    }

    #[test]
    fn splat_get_set_roundtrip_all_widths() {
        check_splat_get_set::<1>();
        check_splat_get_set::<4>();
        check_splat_get_set::<8>();
    }

    fn check_binary_ops<const W: usize>() {
        let rows = combos(2);
        let words = pack::<W>(&rows, 2);
        let (a, b) = (words[0], words[1]);
        for (op_word, op_scalar) in [
            (a.and(b), Logic::and as fn(Logic, Logic) -> Logic),
            (a.or(b), Logic::or),
            (a.xor(b), Logic::xor),
        ] {
            assert!(op_word.non_canonical().none(), "canonical invariant");
            for lane in 0..LaneWord::<W>::LANES {
                let row = &rows[lane % rows.len()];
                assert_eq!(
                    op_word.get(lane),
                    z_to_x(op_scalar(row[0], row[1])),
                    "W={W} lane {lane}: {} op {}",
                    row[0],
                    row[1]
                );
            }
        }
    }

    #[test]
    fn binary_operators_match_scalar_on_all_pairs_all_widths() {
        check_binary_ops::<1>();
        check_binary_ops::<4>();
        check_binary_ops::<8>();
    }

    fn check_not_mux_select_disturb<const W: usize>() {
        let rows1 = combos(1);
        let w = pack::<W>(&rows1, 1)[0];
        let n = w.not();
        assert!(n.non_canonical().none());
        for lane in 0..LaneWord::<W>::LANES {
            let v = rows1[lane % rows1.len()][0];
            assert_eq!(n.get(lane), z_to_x(v.not()));
        }

        let rows3 = combos(3);
        let words = pack::<W>(&rows3, 3);
        let (d0, d1, s) = (words[0], words[1], words[2]);
        let m = s.mux(d0, d1);
        assert!(m.non_canonical().none());
        let sel = s.select(d1, d0);
        assert!(sel.non_canonical().none());
        for lane in 0..LaneWord::<W>::LANES {
            let row = &rows3[lane % rows3.len()];
            assert_eq!(
                m.get(lane),
                z_to_x(row[2].mux(row[0], row[1])),
                "W={W} mux lane {lane}: d0={} d1={} s={}",
                row[0],
                row[1],
                row[2]
            );
            // select is the strict-X enable rule from next_state.
            let expected = match row[2] {
                Logic::One => z_to_x(row[1]),
                Logic::Zero => z_to_x(row[0]),
                _ => Logic::X,
            };
            assert_eq!(sel.get(lane), expected, "W={W} select lane {lane}");
        }

        // disturb applies the scalar rule only on masked lanes.
        let mask = stripe_mask::<W>();
        let d = w.disturb(mask);
        assert!(d.non_canonical().none());
        for lane in 0..LaneWord::<W>::LANES {
            let v = rows1[lane % rows1.len()][0];
            let expected = if mask.get(lane) {
                crate::eval::disturb(v)
            } else {
                z_to_x(v)
            };
            assert_eq!(d.get(lane), expected, "W={W} disturb lane {lane}");
        }
    }

    #[test]
    fn not_mux_select_disturb_match_scalar_all_widths() {
        check_not_mux_select_disturb::<1>();
        check_not_mux_select_disturb::<4>();
        check_not_mux_select_disturb::<8>();
    }

    fn check_eval_comb_word<const W: usize>() {
        for &kind in ALL_CELL_KINDS {
            if !kind.is_combinational() {
                continue;
            }
            let arity = kind.num_inputs();
            let rows = combos(arity);
            let words = pack::<W>(&rows, arity);
            let out = eval_comb_word(kind, &words);
            assert!(out.non_canonical().none(), "{kind}: canonical invariant");
            for lane in 0..LaneWord::<W>::LANES {
                let row = &rows[lane % rows.len().max(1)];
                assert_eq!(
                    out.get(lane),
                    z_to_x(eval_comb(kind, row)),
                    "W={W} {kind} lane {lane} inputs {row:?}"
                );
            }
        }
    }

    #[test]
    fn word_eval_matches_scalar_for_every_comb_kind_all_widths() {
        check_eval_comb_word::<1>();
        check_eval_comb_word::<4>();
        check_eval_comb_word::<8>();
    }

    fn check_next_state_word<const W: usize>() {
        let lanes = LaneWord::<W>::LANES;
        for &kind in ALL_CELL_KINDS {
            if !kind.is_sequential() {
                continue;
            }
            let arity = kind.num_inputs();
            // Inputs plus the held state, exhaustive over the 4-state
            // domain, in lane-count chunks.
            let rows = combos(arity + 1);
            for chunk in rows.chunks(lanes) {
                let inputs: Vec<Vec<Logic>> = chunk.iter().map(|r| r[..arity].to_vec()).collect();
                let words = pack::<W>(&inputs, arity);
                let mut state = LaneWord::<W>::ZERO;
                for lane in 0..lanes {
                    state.set_lane(lane, chunk[lane % chunk.len()][arity]);
                }
                let out = next_state_word(kind, &words, state);
                assert!(out.non_canonical().none(), "{kind}: canonical invariant");
                for lane in 0..lanes {
                    let row = &chunk[lane % chunk.len()];
                    assert_eq!(
                        out.get(lane),
                        z_to_x(next_state(kind, &row[..arity], row[arity])),
                        "W={W} {kind} lane {lane} inputs {:?} state {}",
                        &row[..arity],
                        row[arity]
                    );
                }
            }
        }
    }

    #[test]
    fn word_next_state_matches_scalar_for_every_seq_kind_all_widths() {
        check_next_state_word::<1>();
        check_next_state_word::<4>();
        check_next_state_word::<8>();
    }

    #[test]
    fn lane_mask_bit_iteration_and_ranges() {
        let mut m = LaneMask::<8>::EMPTY;
        assert!(m.none());
        for lane in [0, 63, 64, 200, 511] {
            m.set(lane);
        }
        assert!(m.any());
        assert_eq!(m.count(), 5);
        let mut seen = Vec::new();
        m.for_each_lane(|l| seen.push(l));
        assert_eq!(seen, vec![0, 63, 64, 200, 511]);
        m.clear(200);
        assert!(!m.get(200));
        assert_eq!(m.count(), 4);

        let a = LaneMask::<2>([0b1100, 0b0011]);
        let b = LaneMask::<2>([0b1010, 0b0110]);
        assert_eq!((a | b).0, [0b1110, 0b0111]);
        assert_eq!((a & b).0, [0b1000, 0b0010]);
    }

    #[test]
    #[should_panic(expected = "golden lane")]
    fn lane_zero_fault_is_rejected() {
        use ssresf_netlist::{CellKind, Design, ModuleBuilder, PortDir};
        let mut design = Design::new();
        let mut mb = ModuleBuilder::new("t");
        let clk = mb.port("clk", PortDir::Input);
        let d = mb.port("d", PortDir::Input);
        let q = mb.port("q", PortDir::Output);
        mb.cell("u_ff", CellKind::Dff, &[clk, d], &[q]).unwrap();
        let id = design.add_module(mb.finish()).unwrap();
        design.set_top(id).unwrap();
        let flat = design.flatten().unwrap();
        let clk = flat.net_by_name("clk").unwrap();
        let mut engine = BitParallelEngine::<1>::new(&flat, clk).unwrap();
        engine.schedule_fault_in_lane(
            0,
            Fault::Seu(crate::inject::SeuFault {
                cell: flat.cell_by_name("u_ff").unwrap(),
                cycle: 0,
                offset: 0.0,
            }),
        );
    }
}
