//! The levelized (oblivious, cycle-accurate) engine — the OSS-CVC stand-in.
//!
//! Every cycle the whole combinational netlist is re-evaluated once in
//! topological order, the way compiled-code simulators schedule work. SET
//! pulses are therefore widened to a full cycle (a standard cycle-accurate
//! approximation); golden runs match the event-driven engine exactly.
//!
//! The engine is the golden lane of a one-word
//! [`BitParallelEngine`]: the bit-parallel kernel holds the only copy of
//! the levelized cycle semantics, and this type fixes what a scalar
//! levelized run reports — its name, its work counter and its snapshots.

use crate::bitparallel::BitParallelEngine;
use crate::engine::{Engine, EngineState, EngineTelemetry};
use crate::inject::Fault;
use crate::value::Logic;
use crate::SimError;
use ssresf_netlist::{CellId, FlatNetlist, NetId};

/// Snapshot of a [`LevelizedEngine`]'s dynamic state. The levelized engine
/// is memoryless between cycles apart from net values, sequential state and
/// scheduled faults, so its snapshot is correspondingly small.
///
/// It is also the snapshot format of every [`BitParallelEngine`]: the
/// kernel writes its golden lane into one and broadcasts one across its
/// lanes on restore.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelizedState {
    values: Vec<Logic>,
    state: Vec<Logic>,
    inverted: Vec<bool>,
    faults: Vec<Fault>,
    cycle: u64,
    activity: Vec<u64>,
    evals: u64,
}

impl LevelizedState {
    pub(crate) fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Evolution-relevant equality: ignores the activity and eval counters.
    pub(crate) fn converged_with(&self, other: &Self) -> bool {
        self.cycle == other.cycle
            && self.values == other.values
            && self.state == other.state
            && self.inverted == other.inverted
            && self.faults == other.faults
    }

    // Component accessors and a constructor for the bit-parallel kernel.

    pub(crate) fn values(&self) -> &[Logic] {
        &self.values
    }

    pub(crate) fn state(&self) -> &[Logic] {
        &self.state
    }

    pub(crate) fn inverted(&self) -> &[bool] {
        &self.inverted
    }

    pub(crate) fn faults(&self) -> &[Fault] {
        &self.faults
    }

    pub(crate) fn activity(&self) -> &[u64] {
        &self.activity
    }

    pub(crate) fn evals(&self) -> u64 {
        self.evals
    }

    pub(crate) fn from_parts(
        values: Vec<Logic>,
        state: Vec<Logic>,
        inverted: Vec<bool>,
        faults: Vec<Fault>,
        cycle: u64,
        activity: Vec<u64>,
        evals: u64,
    ) -> Self {
        LevelizedState {
            values,
            state,
            inverted,
            faults,
            cycle,
            activity,
            evals,
        }
    }
}

/// Cycle-accurate levelized gate-level simulator: lane 0 of a
/// [`BitParallelEngine<'a, 1>`](BitParallelEngine).
///
/// Shares the [`Engine`] interface with
/// [`EventDrivenEngine`](crate::EventDrivenEngine); see that type for a
/// usage example. Every method delegates to the kernel and reads its
/// golden lane; the kernel's word evaluations are reported as
/// [`cells_evaluated`](LevelizedEngine::cells_evaluated), so a one-word
/// evaluation counts as one cell evaluation.
///
/// Values are three-state: the kernel's lane encoding has no `Z`, so
/// [`poke`](Engine::poke), [`set_cell_state`](Engine::set_cell_state),
/// [`set_cell_states`](Engine::set_cell_states) and
/// [`restore`](Engine::restore) panic on a `Z`.
#[derive(Debug)]
pub struct LevelizedEngine<'a> {
    kernel: BitParallelEngine<'a, 1>,
}

impl<'a> LevelizedEngine<'a> {
    /// Creates an engine for `netlist` clocked by the primary input `clock`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Netlist`] for combinational loops and
    /// [`SimError::NotAnInput`] when `clock` is not a primary input.
    pub fn new(netlist: &'a FlatNetlist, clock: NetId) -> Result<Self, SimError> {
        Ok(LevelizedEngine {
            kernel: BitParallelEngine::new(netlist, clock)?,
        })
    }

    /// Cells evaluated so far (a proxy for simulation work).
    pub fn cells_evaluated(&self) -> u64 {
        self.kernel.word_evals()
    }
}

impl Engine for LevelizedEngine<'_> {
    fn name(&self) -> &'static str {
        "levelized"
    }

    fn netlist(&self) -> &FlatNetlist {
        self.kernel.netlist()
    }

    fn poke(&mut self, net: NetId, value: Logic) {
        self.kernel.poke(net, value);
    }

    fn peek(&self, net: NetId) -> Logic {
        self.kernel.peek(net)
    }

    fn set_cell_state(&mut self, cell: CellId, value: Logic) {
        self.kernel.set_cell_state(cell, value);
    }

    fn set_cell_states(&mut self, cells: &[CellId], value: Logic) {
        self.kernel.set_cell_states(cells, value);
    }

    fn cell_state(&self, cell: CellId) -> Logic {
        self.kernel.cell_state(cell)
    }

    fn schedule_fault(&mut self, fault: Fault) {
        self.kernel.schedule_fault(fault);
    }

    fn snapshot(&self) -> EngineState {
        self.kernel.snapshot()
    }

    fn restore(&mut self, state: &EngineState) {
        self.kernel.restore(state);
    }

    fn step_cycle(&mut self) {
        self.kernel.step_cycle();
    }

    fn cycle(&self) -> u64 {
        self.kernel.cycle()
    }

    fn activity(&self) -> &[u64] {
        self.kernel.activity()
    }

    fn telemetry(&self) -> EngineTelemetry {
        let kernel = self.kernel.telemetry();
        EngineTelemetry {
            cells_evaluated: kernel.word_evals,
            word_evals: 0,
            ..kernel
        }
    }
}
