//! The common interface of the simulation engines.

use crate::event::EventDrivenState;
use crate::inject::Fault;
use crate::levelized::LevelizedState;
use crate::oracle::OracleState;
use crate::value::Logic;
use ssresf_netlist::{CellId, FlatNetlist, NetId};

/// A complete snapshot of an engine's dynamic state.
///
/// Produced by [`Engine::snapshot`] and consumed by [`Engine::restore`];
/// the variant must match the engine kind that produced it. Snapshots
/// live in memory only: a campaign re-simulates its golden run rather than
/// storing one.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineState {
    /// State of an [`EventDrivenEngine`](crate::EventDrivenEngine).
    EventDriven(EventDrivenState),
    /// State of a [`LevelizedEngine`](crate::LevelizedEngine).
    Levelized(LevelizedState),
    /// State of an [`OracleEngine`](crate::OracleEngine).
    Oracle(OracleState),
}

impl EngineState {
    /// Completed cycles at the time of the snapshot.
    pub fn cycle(&self) -> u64 {
        match self {
            EngineState::EventDriven(s) => s.cycle(),
            EngineState::Levelized(s) => s.cycle(),
            EngineState::Oracle(s) => s.cycle(),
        }
    }

    /// Whether two same-kind snapshots would evolve identically from here
    /// on.
    ///
    /// Compares only evolution-relevant state — net values, sequential
    /// state, forces, pending events and scheduled faults. Bookkeeping
    /// counters (toggle activity, the work proxy) are ignored, so a faulty
    /// run whose state has re-converged with the golden run compares equal
    /// even though it took a different path to get there. Snapshots of
    /// different engine kinds never compare equal.
    pub fn converged_with(&self, other: &EngineState) -> bool {
        match (self, other) {
            (EngineState::EventDriven(a), EngineState::EventDriven(b)) => a.converged_with(b),
            (EngineState::Levelized(a), EngineState::Levelized(b)) => a.converged_with(b),
            (EngineState::Oracle(a), EngineState::Oracle(b)) => a.converged_with(b),
            _ => false,
        }
    }
}

/// Cumulative engine-level event counters since construction.
///
/// Returned by [`Engine::telemetry`]; all counters are deterministic for a
/// deterministic run (no wall-clock quantities). Engines that do not track
/// a given counter leave it at 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineTelemetry {
    /// Events executed by an event-driven engine.
    pub events_processed: u64,
    /// Cell evaluations performed by a sweep-based engine.
    pub cells_evaluated: u64,
    /// Zero-delay (same-timestamp) event executions, or full evaluation
    /// sweeps for sweep-based engines.
    pub delta_cycles: u64,
    /// Times the event wheel advanced simulated time.
    pub wheel_advances: u64,
    /// Snapshot restores performed on this engine.
    pub restores: u64,
    /// 64-lane word evaluations performed by a bit-parallel engine. One
    /// word evaluation covers a cell for every lane at once, so for batched
    /// runs this is the work proxy comparable against a scalar engine's
    /// `cells_evaluated`.
    pub word_evals: u64,
}

impl EngineTelemetry {
    /// Fieldwise sum.
    pub fn accumulate(&mut self, other: EngineTelemetry) {
        self.events_processed += other.events_processed;
        self.cells_evaluated += other.cells_evaluated;
        self.delta_cycles += other.delta_cycles;
        self.wheel_advances += other.wheel_advances;
        self.restores += other.restores;
        self.word_evals += other.word_evals;
    }

    /// Fieldwise saturating difference (`self - earlier`), for isolating
    /// the counters of a run segment from a baseline snapshot.
    pub fn since(&self, earlier: EngineTelemetry) -> EngineTelemetry {
        EngineTelemetry {
            events_processed: self
                .events_processed
                .saturating_sub(earlier.events_processed),
            cells_evaluated: self.cells_evaluated.saturating_sub(earlier.cells_evaluated),
            delta_cycles: self.delta_cycles.saturating_sub(earlier.delta_cycles),
            wheel_advances: self.wheel_advances.saturating_sub(earlier.wheel_advances),
            restores: self.restores.saturating_sub(earlier.restores),
            word_evals: self.word_evals.saturating_sub(earlier.word_evals),
        }
    }
}

/// A gate-level logic simulation engine.
///
/// Both [`EventDrivenEngine`](crate::EventDrivenEngine) (the VCS stand-in)
/// and [`LevelizedEngine`](crate::LevelizedEngine) (the OSS-CVC stand-in)
/// implement this trait, so fault-injection campaigns are engine-agnostic.
///
/// The driving protocol per clock cycle is:
/// 1. [`poke`](Engine::poke) primary inputs (other than the clock),
/// 2. [`step_cycle`](Engine::step_cycle) — the engine toggles the clock and
///    lets the netlist settle,
/// 3. [`peek`](Engine::peek) or [`sample`](Engine::sample) outputs.
pub trait Engine {
    /// Short engine name used in reports (e.g. `"event-driven"`).
    fn name(&self) -> &'static str;

    /// The netlist under simulation.
    fn netlist(&self) -> &FlatNetlist;

    /// Sets a primary input for the upcoming cycle.
    ///
    /// # Panics
    ///
    /// May panic if `net` is not a primary input (the clock is driven by the
    /// engine and must not be poked).
    fn poke(&mut self, net: NetId, value: Logic);

    /// Current value of a net.
    fn peek(&self, net: NetId) -> Logic;

    /// Directly sets the stored state of a sequential cell (memory preload,
    /// deterministic initialization).
    ///
    /// # Panics
    ///
    /// May panic if `cell` is combinational.
    fn set_cell_state(&mut self, cell: CellId, value: Logic);

    /// Sets the stored state of many sequential cells to one value,
    /// settling the combinational fan-out once at the end instead of once
    /// per cell. Combinational nets are pure functions of the primary
    /// inputs and sequential outputs, so the settled net values are
    /// bit-identical to calling [`set_cell_state`](Engine::set_cell_state)
    /// in a loop — but a whole-array memory preload costs one settle
    /// instead of `cells.len()` (quadratic on multi-Mbit arrays).
    ///
    /// # Panics
    ///
    /// May panic if any cell is combinational.
    fn set_cell_states(&mut self, cells: &[CellId], value: Logic) {
        for &cell in cells {
            self.set_cell_state(cell, value);
        }
    }

    /// Stored state of a sequential cell.
    fn cell_state(&self, cell: CellId) -> Logic;

    /// Schedules a fault; it fires when simulation reaches its cycle.
    fn schedule_fault(&mut self, fault: Fault);

    /// Captures the engine's complete dynamic state.
    ///
    /// Restoring the snapshot into a fresh engine over the same netlist
    /// and continuing the run produces traces bit-identical to a run that
    /// never snapshotted — the contract fault-injection fast-forward
    /// relies on.
    fn snapshot(&self) -> EngineState;

    /// Restores state previously captured by [`snapshot`](Engine::snapshot)
    /// on an engine over the same netlist.
    ///
    /// # Panics
    ///
    /// Panics when `state` was captured by a different engine kind or on a
    /// netlist of a different shape.
    fn restore(&mut self, state: &EngineState);

    /// Advances one full clock cycle.
    fn step_cycle(&mut self);

    /// Number of completed cycles.
    fn cycle(&self) -> u64;

    /// Samples the current values of `nets`.
    fn sample(&self, nets: &[NetId]) -> Vec<Logic> {
        nets.iter().map(|&n| self.peek(n)).collect()
    }

    /// Cumulative toggle count per net since construction.
    fn activity(&self) -> &[u64];

    /// Cumulative engine-level event counters since construction.
    ///
    /// The default is a no-op returning all-zero counters, so custom
    /// engines opt in by overriding. Counters are bookkeeping only: they
    /// never influence simulation results, and snapshot restores do not
    /// rewind the sweep/restore counters (only counters that are part of
    /// the snapshotted work proxy).
    fn telemetry(&self) -> EngineTelemetry {
        EngineTelemetry::default()
    }

    /// Per-net toggle activity normalized by completed cycles.
    fn activity_per_cycle(&self) -> Vec<f64> {
        let cycles = self.cycle().max(1) as f64;
        self.activity().iter().map(|&t| t as f64 / cycles).collect()
    }
}
