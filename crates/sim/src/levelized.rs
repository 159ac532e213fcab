//! The levelized (oblivious, cycle-accurate) engine — the OSS-CVC stand-in.
//!
//! Every cycle the whole combinational netlist is re-evaluated once in
//! topological order, the way compiled-code simulators schedule work. SET
//! pulses are therefore widened to a full cycle (a standard cycle-accurate
//! approximation); golden runs match the event-driven engine exactly.

use crate::engine::{Engine, EngineState, EngineTelemetry};
use crate::eval::{async_override, disturb, eval_comb, gather, next_state, Inputs};
use crate::inject::Fault;
use crate::value::Logic;
use crate::SimError;
use serde::{Deserialize, Serialize};
use ssresf_netlist::flat::Driver;
use ssresf_netlist::{CellId, FlatNetlist, NetId};

/// Iteration bound for the asynchronous-control fixpoint.
const ASYNC_FIXPOINT_LIMIT: usize = 16;

/// Snapshot of a [`LevelizedEngine`]'s dynamic state. The levelized engine
/// is memoryless between cycles apart from net values, sequential state and
/// scheduled faults, so its snapshot is correspondingly small.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

    // Component accessors and a constructor for the bit-parallel engine,
    // which broadcasts a levelized snapshot across its lanes and emits one
    // from its golden lane (the two engines share cycle-resolution
    // semantics, so their snapshots are interchangeable).

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

/// Cycle-accurate levelized gate-level simulator.
///
/// Shares the [`Engine`] interface with
/// [`EventDrivenEngine`](crate::EventDrivenEngine); see that type for a
/// usage example.
#[derive(Debug)]
pub struct LevelizedEngine<'a> {
    netlist: &'a FlatNetlist,
    clock: NetId,
    order: Vec<CellId>,
    /// Sequential cells in id order.
    sequential: Vec<CellId>,
    values: Vec<Logic>,
    state: Vec<Logic>,
    /// Nets whose driven value is inverted during the current cycle (the
    /// cycle-wide SET approximation).
    inverted: Vec<bool>,
    faults: Vec<Fault>,
    cycle: u64,
    activity: Vec<u64>,
    /// Cells evaluated so far (a proxy for simulation work).
    evals: u64,
    /// Full evaluation sweeps performed (the sweep-based delta-cycle
    /// analogue).
    sweeps: u64,
    /// Snapshot restores performed.
    restores: u64,
}

impl<'a> LevelizedEngine<'a> {
    /// Creates an engine for `netlist` clocked by the primary input `clock`.
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
        // Kahn's algorithm yields an arbitrary valid order; sort by depth so
        // evaluation is deterministic and cache-friendly.
        let depth = lv.cell_depth;
        order.sort_by_key(|c| (depth[c.index()], c.0));
        let sequential: Vec<CellId> = (0..netlist.num_cells() as u32)
            .map(CellId)
            .filter(|&c| netlist.cell_kind(c).is_sequential())
            .collect();
        let mut engine = LevelizedEngine {
            netlist,
            clock,
            order,
            sequential,
            values: vec![Logic::X; netlist.nets().len()],
            state: vec![Logic::X; netlist.cells().len()],
            inverted: vec![false; netlist.nets().len()],
            faults: Vec::new(),
            cycle: 0,
            activity: vec![0; netlist.nets().len()],
            evals: 0,
            sweeps: 0,
            restores: 0,
        };
        engine.values[clock.index()] = Logic::Zero;
        engine.propagate();
        Ok(engine)
    }

    /// Cells evaluated so far (a proxy for simulation work).
    pub fn cells_evaluated(&self) -> u64 {
        self.evals
    }

    fn set_value(&mut self, net: NetId, value: Logic) {
        if self.values[net.index()] != value {
            self.values[net.index()] = value;
            self.activity[net.index()] += 1;
        }
    }

    fn input_vals(&self, cell: CellId) -> Inputs<Logic> {
        gather(self.netlist.cell_inputs(cell), &self.values)
    }

    /// One full evaluation sweep of the combinational netlist.
    fn propagate(&mut self) {
        self.sweeps += 1;
        for i in 0..self.order.len() {
            let cell = self.order[i];
            let mut out = eval_comb(self.netlist.cell_kind(cell), &self.input_vals(cell));
            let net = self.netlist.cell_output(cell);
            if self.inverted[net.index()] {
                out = disturb(out);
            }
            self.set_value(net, out);
            self.evals += 1;
        }
    }

    /// Applies asynchronous controls (e.g. active-low reset) until stable.
    fn async_fixpoint(&mut self) {
        for _ in 0..ASYNC_FIXPOINT_LIMIT {
            let mut changed = false;
            for k in 0..self.sequential.len() {
                let id = self.sequential[k];
                let kind = self.netlist.cell_kind(id);
                if let Some(forced_state) = async_override(kind, &self.input_vals(id)) {
                    if self.state[id.index()] != forced_state {
                        self.state[id.index()] = forced_state;
                        self.set_value(self.netlist.cell_output(id), forced_state);
                        changed = true;
                    }
                }
            }
            if !changed {
                return;
            }
            self.propagate();
        }
    }
}

impl Engine for LevelizedEngine<'_> {
    fn name(&self) -> &'static str {
        "levelized"
    }

    fn netlist(&self) -> &FlatNetlist {
        self.netlist
    }

    fn poke(&mut self, net: NetId, value: Logic) {
        assert_ne!(net, self.clock, "the clock is driven by the engine");
        assert_eq!(
            self.netlist.net_driver(net),
            Some(Driver::PrimaryInput),
            "poke target `{}` is not a primary input",
            self.netlist.net_full_name(net)
        );
        self.set_value(net, value);
    }

    fn peek(&self, net: NetId) -> Logic {
        self.values[net.index()]
    }

    fn set_cell_state(&mut self, cell: CellId, value: Logic) {
        assert!(
            self.netlist.cell_kind(cell).is_sequential(),
            "cell `{}` holds no state",
            self.netlist.cell_full_name(cell)
        );
        self.state[cell.index()] = value;
        self.set_value(self.netlist.cell_output(cell), value);
        self.propagate();
    }

    fn set_cell_states(&mut self, cells: &[CellId], value: Logic) {
        for &cell in cells {
            assert!(
                self.netlist.cell_kind(cell).is_sequential(),
                "cell `{}` holds no state",
                self.netlist.cell_full_name(cell)
            );
            self.state[cell.index()] = value;
            self.set_value(self.netlist.cell_output(cell), value);
        }
        self.propagate();
    }

    fn cell_state(&self, cell: CellId) -> Logic {
        self.state[cell.index()]
    }

    fn schedule_fault(&mut self, fault: Fault) {
        self.faults.push(fault);
    }

    fn snapshot(&self) -> EngineState {
        EngineState::Levelized(LevelizedState {
            values: self.values.clone(),
            state: self.state.clone(),
            inverted: self.inverted.clone(),
            faults: self.faults.clone(),
            cycle: self.cycle,
            activity: self.activity.clone(),
            evals: self.evals,
        })
    }

    fn restore(&mut self, state: &EngineState) {
        let EngineState::Levelized(s) = state else {
            panic!("levelized engine cannot restore an event-driven snapshot");
        };
        assert_eq!(
            s.values.len(),
            self.netlist.nets().len(),
            "snapshot was taken on a different netlist"
        );
        self.values.clone_from(&s.values);
        self.state.clone_from(&s.state);
        self.inverted.clone_from(&s.inverted);
        self.faults.clone_from(&s.faults);
        self.cycle = s.cycle;
        self.activity.clone_from(&s.activity);
        self.evals = s.evals;
        self.restores += 1;
    }

    fn step_cycle(&mut self) {
        // 1. Rising edge: every sequential cell captures from the currently
        //    settled values (which already include this cycle's pokes —
        //    matching the event engine, where pokes land before the edge).
        //    A capture reads net values and the cell's own state, and the
        //    loop writes neither net values nor other cells' state, so
        //    capturing in place equals capturing into a buffer first.
        for k in 0..self.sequential.len() {
            let id = self.sequential[k];
            let kind = self.netlist.cell_kind(id);
            self.state[id.index()] = next_state(kind, &self.input_vals(id), self.state[id.index()]);
        }

        // 2. Faults for this cycle: SEUs flip post-capture state; SETs force
        //    their net for the remainder of the cycle.
        let current = self.cycle;
        for i in 0..self.faults.len() {
            let fault = self.faults[i];
            if fault.cycle() != current {
                continue;
            }
            match fault {
                Fault::Seu(f) => {
                    self.state[f.cell.index()] = disturb(self.state[f.cell.index()]);
                }
                Fault::Set(f) => {
                    self.inverted[f.net.index()] = true;
                }
            }
        }
        self.faults.retain(|f| f.cycle() != current);

        // 3. Drive Q outputs (a SET on a Q net disturbs the driven value
        //    without corrupting the stored state) and settle the logic.
        for k in 0..self.sequential.len() {
            let id = self.sequential[k];
            let q = self.netlist.cell_output(id);
            let mut v = self.state[id.index()];
            if self.inverted[q.index()] {
                v = disturb(v);
            }
            self.set_value(q, v);
        }
        // SETs on input-driven nets (no combinational driver).
        for i in 0..self.inverted.len() {
            let net = NetId(i as u32);
            if self.inverted[i]
                && matches!(self.netlist.net_driver(net), Some(Driver::PrimaryInput))
            {
                let v = disturb(self.values[i]);
                self.set_value(net, v);
            }
        }
        self.propagate();
        self.async_fixpoint();

        // 4. Release this cycle's SET disturbances; the disturbed values
        //    persist until the next cycle's sweep, so a pulse spans one full
        //    cycle and is captured at the following edge.
        for f in self.inverted.iter_mut() {
            *f = false;
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
            cells_evaluated: self.evals,
            delta_cycles: self.sweeps,
            wheel_advances: 0,
            restores: self.restores,
            word_evals: 0,
        }
    }
}
