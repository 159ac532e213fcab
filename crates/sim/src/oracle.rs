//! The reference oracle interpreter — deliberately naive, obviously correct.
//!
//! The conformance subsystem judges the two production engines against this
//! third, independent implementation of the cell semantics. It has **no
//! event wheel and no levelization**: every cycle it simply re-evaluates the
//! whole combinational netlist, in plain cell-declaration order, over and
//! over until a fixpoint is reached (chaotic iteration). For an acyclic
//! netlist the fixpoint exists, is unique, and is reached within `depth`
//! sweeps, so the settled values are exactly what a correct simulator of any
//! scheduling discipline must produce.
//!
//! Cycle semantics mirror the [`LevelizedEngine`](crate::LevelizedEngine)
//! contract (capture from settled values, SEUs flip post-capture state, SET
//! pulses widen to one full cycle), so golden runs and SEU/SET verdicts are
//! comparable against both engines — with the caveat that the event-driven
//! engine resolves sub-cycle SET pulses more precisely, which the
//! differential runner accounts for.
//!
//! The oracle optionally carries an [`EvalMutant`] — a deliberately wrong
//! gate-evaluation rule — so the conformance harness can prove it would
//! catch a real semantic bug (mutation smoke testing).

use crate::engine::{Engine, EngineState, EngineTelemetry};
use crate::eval::{async_override, disturb, eval_comb_with_mutant, next_state, EvalMutant};
use crate::inject::Fault;
use crate::value::Logic;
use crate::SimError;
use ssresf_netlist::flat::Driver;
use ssresf_netlist::{CellId, FlatNetlist, NetId};

/// Iteration bound for the asynchronous-control fixpoint (matches the
/// levelized engine's bound).
const ASYNC_FIXPOINT_LIMIT: usize = 16;

/// Finds a cycle in the combinational cell graph, returning one net on it.
///
/// Iterative three-color depth-first search over `output net -> driving
/// combinational cell -> input nets`; sequential cells break the walk, so
/// registered feedback is not a loop.
fn find_combinational_loop(netlist: &FlatNetlist) -> Option<NetId> {
    // Driving combinational cell per net, if any.
    let mut comb_driver: Vec<Option<CellId>> = vec![None; netlist.nets().len()];
    for (id, cell) in netlist.iter_cells() {
        if !cell.kind.is_sequential() {
            comb_driver[cell.output.index()] = Some(id);
        }
    }

    const WHITE: u8 = 0; // unvisited
    const GRAY: u8 = 1; // on the current DFS path
    const BLACK: u8 = 2; // fully explored
    let mut color = vec![WHITE; netlist.nets().len()];
    for start in 0..netlist.nets().len() {
        if color[start] != WHITE {
            continue;
        }
        // Stack of (net, next input pin to explore).
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        color[start] = GRAY;
        while let Some(&mut (net, ref mut pin)) = stack.last_mut() {
            let inputs = comb_driver[net].map(|c| netlist.cell(c).inputs);
            let next = inputs.and_then(|ins| ins.get(*pin).copied());
            *pin += 1;
            match next {
                None => {
                    color[net] = BLACK;
                    stack.pop();
                }
                Some(dep) => match color[dep.index()] {
                    GRAY => return Some(dep),
                    WHITE => {
                        color[dep.index()] = GRAY;
                        stack.push((dep.index(), 0));
                    }
                    _ => {}
                },
            }
        }
    }
    None
}

/// Snapshot of an [`OracleEngine`]'s dynamic state.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleState {
    values: Vec<Logic>,
    state: Vec<Logic>,
    inverted: Vec<bool>,
    faults: Vec<Fault>,
    cycle: u64,
    activity: Vec<u64>,
    evals: u64,
}

impl OracleState {
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
}

/// The straight-line re-evaluate-to-fixpoint reference interpreter.
///
/// Implements the same [`Engine`] interface as the production engines; see
/// [`EventDrivenEngine`](crate::EventDrivenEngine) for a usage example.
#[derive(Debug)]
pub struct OracleEngine<'a> {
    netlist: &'a FlatNetlist,
    clock: NetId,
    values: Vec<Logic>,
    state: Vec<Logic>,
    /// Nets whose driven value is inverted during the current cycle (the
    /// cycle-wide SET approximation, shared with the levelized engine).
    inverted: Vec<bool>,
    faults: Vec<Fault>,
    cycle: u64,
    activity: Vec<u64>,
    /// Cell evaluations so far (a proxy for simulation work; the oracle's
    /// chaotic iteration deliberately does many more than the engines).
    evals: u64,
    /// Chaotic-iteration sweep passes performed.
    sweeps: u64,
    /// Snapshot restores performed.
    restores: u64,
    mutant: Option<EvalMutant>,
}

impl<'a> OracleEngine<'a> {
    /// Creates an oracle for `netlist` clocked by the primary input `clock`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Netlist`] for combinational loops (detected by
    /// the settle sweep failing to converge) and [`SimError::NotAnInput`]
    /// when `clock` is not a primary input.
    pub fn new(netlist: &'a FlatNetlist, clock: NetId) -> Result<Self, SimError> {
        OracleEngine::with_mutant(netlist, clock, None)
    }

    /// [`OracleEngine::new`] with a deliberately wrong gate-evaluation rule
    /// installed — conformance mutation-testing infrastructure.
    ///
    /// # Errors
    ///
    /// Same as [`OracleEngine::new`].
    pub fn with_mutant(
        netlist: &'a FlatNetlist,
        clock: NetId,
        mutant: Option<EvalMutant>,
    ) -> Result<Self, SimError> {
        if netlist.net(clock).driver != Some(Driver::PrimaryInput) {
            return Err(SimError::NotAnInput(netlist.net_full_name(clock)));
        }
        let mut engine = OracleEngine {
            netlist,
            clock,
            values: vec![Logic::X; netlist.nets().len()],
            state: vec![Logic::X; netlist.cells().len()],
            inverted: vec![false; netlist.nets().len()],
            faults: Vec::new(),
            cycle: 0,
            activity: vec![0; netlist.nets().len()],
            evals: 0,
            sweeps: 0,
            restores: 0,
            mutant,
        };
        // Chaotic iteration converges on an all-X fixpoint even through a
        // combinational cycle, so loops must be rejected structurally. The
        // check is an independent three-color DFS — deliberately not shared
        // with the levelization the production engine under test relies on.
        if let Some(net) = find_combinational_loop(netlist) {
            return Err(SimError::Netlist(
                ssresf_netlist::NetlistError::CombinationalLoop(netlist.net_full_name(net)),
            ));
        }
        engine.values[clock.index()] = Logic::Zero;
        if let Err(net) = engine.settle() {
            // The sweep bound is only exceeded when some net can keep
            // changing forever — unreachable once loops are rejected, kept
            // as a backstop.
            return Err(SimError::Netlist(
                ssresf_netlist::NetlistError::CombinationalLoop(netlist.net_full_name(net)),
            ));
        }
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

    fn input_vals(&self, cell: CellId) -> Vec<Logic> {
        self.netlist
            .cell(cell)
            .inputs
            .iter()
            .map(|n| self.values[n.index()])
            .collect()
    }

    /// One unordered evaluation pass over every combinational cell.
    /// Returns the first net that changed, if any did.
    fn sweep(&mut self) -> Option<NetId> {
        self.sweeps += 1;
        let mut changed = None;
        for (id, cell) in self.netlist.iter_cells() {
            if cell.kind.is_sequential() {
                continue;
            }
            let inputs = self.input_vals(id);
            let mut out = eval_comb_with_mutant(cell.kind, &inputs, self.mutant);
            let net = cell.output;
            if self.inverted[net.index()] {
                out = disturb(out);
            }
            self.evals += 1;
            if self.values[net.index()] != out {
                self.set_value(net, out);
                changed.get_or_insert(net);
            }
        }
        changed
    }

    /// Chaotic iteration to the combinational fixpoint: sweep until nothing
    /// changes. Each sweep settles at least one more logic level, so an
    /// acyclic netlist converges within `cells + 1` sweeps; exceeding the
    /// bound means the netlist has a combinational loop, reported through
    /// the still-changing net.
    fn settle(&mut self) -> Result<(), NetId> {
        let bound = self.netlist.cells().len() + 2;
        let mut last_changed = None;
        for _ in 0..bound {
            match self.sweep() {
                None => return Ok(()),
                some => last_changed = some,
            }
        }
        Err(last_changed.expect("non-convergence implies a changing net"))
    }

    fn settle_or_panic(&mut self) {
        assert!(
            self.settle().is_ok(),
            "combinational logic failed to settle on a netlist that settled at construction"
        );
    }

    /// Applies asynchronous controls (e.g. active-low reset) until stable.
    fn async_fixpoint(&mut self) {
        for _ in 0..ASYNC_FIXPOINT_LIMIT {
            let mut changed = false;
            for (id, cell) in self.netlist.iter_cells() {
                if !cell.kind.is_sequential() {
                    continue;
                }
                let inputs = self.input_vals(id);
                if let Some(forced_state) = async_override(cell.kind, &inputs) {
                    if self.state[id.index()] != forced_state {
                        self.state[id.index()] = forced_state;
                        self.set_value(cell.output, forced_state);
                        changed = true;
                    }
                }
            }
            if !changed {
                return;
            }
            self.settle_or_panic();
        }
    }
}

impl Engine for OracleEngine<'_> {
    fn name(&self) -> &'static str {
        "oracle"
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
        self.set_value(net, value);
    }

    fn peek(&self, net: NetId) -> Logic {
        self.values[net.index()]
    }

    fn set_cell_state(&mut self, cell: CellId, value: Logic) {
        assert!(
            self.netlist.cell(cell).kind.is_sequential(),
            "cell `{}` holds no state",
            self.netlist.cell_full_name(cell)
        );
        self.state[cell.index()] = value;
        let q = self.netlist.cell(cell).output;
        self.set_value(q, value);
        self.settle_or_panic();
    }

    fn cell_state(&self, cell: CellId) -> Logic {
        self.state[cell.index()]
    }

    fn schedule_fault(&mut self, fault: Fault) {
        self.faults.push(fault);
    }

    fn snapshot(&self) -> EngineState {
        EngineState::Oracle(OracleState {
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
        let EngineState::Oracle(s) = state else {
            panic!("oracle engine cannot restore another engine's snapshot");
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
        //    settled values — the same capture rule as the levelized engine.
        let mut captured: Vec<(CellId, Logic)> = Vec::new();
        for (id, cell) in self.netlist.iter_cells() {
            if cell.kind.is_sequential() {
                let inputs = self.input_vals(id);
                let ns = next_state(cell.kind, &inputs, self.state[id.index()]);
                captured.push((id, ns));
            }
        }
        for (id, ns) in captured {
            self.state[id.index()] = ns;
        }

        // 2. Faults for this cycle: SEUs flip post-capture state; SETs force
        //    their net for the remainder of the cycle.
        let current = self.cycle;
        let mut remaining = Vec::new();
        for fault in std::mem::take(&mut self.faults) {
            if fault.cycle() != current {
                remaining.push(fault);
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
        self.faults = remaining;

        // 3. Drive Q outputs (a SET on a Q net disturbs the driven value
        //    without corrupting the stored state) and settle the logic.
        for (id, cell) in self.netlist.iter_cells() {
            if cell.kind.is_sequential() {
                let q = cell.output;
                let mut v = self.state[id.index()];
                if self.inverted[q.index()] {
                    v = disturb(v);
                }
                self.set_value(q, v);
            }
        }
        // SETs on input-driven nets (no combinational driver).
        for i in 0..self.inverted.len() {
            if self.inverted[i] {
                let net = NetId(i as u32);
                if matches!(self.netlist.net(net).driver, Some(Driver::PrimaryInput)) {
                    let v = disturb(self.values[i]);
                    self.set_value(net, v);
                }
            }
        }
        self.settle_or_panic();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Testbench;
    use ssresf_netlist::{CellKind, Design, ModuleBuilder, PortDir};

    fn toggler() -> FlatNetlist {
        let mut design = Design::new();
        let mut mb = ModuleBuilder::new("toggler");
        let clk = mb.port("clk", PortDir::Input);
        let rst_n = mb.port("rst_n", PortDir::Input);
        let q = mb.port("q", PortDir::Output);
        let nq = mb.net("nq");
        mb.cell("u_inv", CellKind::Inv, &[q], &[nq]).unwrap();
        mb.cell("u_ff", CellKind::Dffr, &[clk, nq, rst_n], &[q])
            .unwrap();
        let id = design.add_module(mb.finish()).unwrap();
        design.set_top(id).unwrap();
        design.flatten().unwrap()
    }

    #[test]
    fn oracle_simulates_the_toggler() {
        let flat = toggler();
        let clk = flat.net_by_name("clk").unwrap();
        let engine = OracleEngine::new(&flat, clk).unwrap();
        let mut tb = Testbench::new(engine);
        let trace = tb.run(2, 4);
        assert_eq!(trace.rows[0][0], Logic::One);
        assert_eq!(trace.rows[1][0], Logic::Zero);
        assert_eq!(trace.rows[2][0], Logic::One);
        assert_eq!(trace.rows[3][0], Logic::Zero);
    }

    #[test]
    fn oracle_agrees_with_levelized_on_the_toggler() {
        let flat = toggler();
        let clk = flat.net_by_name("clk").unwrap();
        let or_trace = Testbench::new(OracleEngine::new(&flat, clk).unwrap()).run(2, 8);
        let lv_trace = Testbench::new(crate::LevelizedEngine::new(&flat, clk).unwrap()).run(2, 8);
        assert!(or_trace.matches(&lv_trace));
    }

    #[test]
    fn combinational_loops_are_rejected_at_construction() {
        let mut design = Design::new();
        let mut mb = ModuleBuilder::new("looped");
        let clk = mb.port("clk", PortDir::Input);
        let a = mb.port("a", PortDir::Input);
        let y = mb.port("y", PortDir::Output);
        let w = mb.net("w");
        // w = a & y; y = !w — a combinational cycle through y.
        mb.cell("u0", CellKind::And2, &[a, y], &[w]).unwrap();
        mb.cell("u1", CellKind::Inv, &[w], &[y]).unwrap();
        // Anchor the clock so it survives flattening.
        let q = mb.net("q");
        mb.cell("u_ff", CellKind::Dff, &[clk, a], &[q]).unwrap();
        let id = design.add_module(mb.finish()).unwrap();
        design.set_top(id).unwrap();
        let flat = design.flatten().unwrap();
        let clk = flat.net_by_name("clk").unwrap();
        assert!(OracleEngine::new(&flat, clk).is_err());
    }

    #[test]
    fn mutant_changes_xor_behavior_only() {
        let mut design = Design::new();
        let mut mb = ModuleBuilder::new("xor_probe");
        let clk = mb.port("clk", PortDir::Input);
        let a = mb.port("a", PortDir::Input);
        let b = mb.port("b", PortDir::Input);
        let y = mb.port("y", PortDir::Output);
        mb.cell("u0", CellKind::Xor2, &[a, b], &[y]).unwrap();
        let q = mb.net("q");
        mb.cell("u_ff", CellKind::Dff, &[clk, a], &[q]).unwrap();
        let id = design.add_module(mb.finish()).unwrap();
        design.set_top(id).unwrap();
        let flat = design.flatten().unwrap();
        let clk_net = flat.net_by_name("clk").unwrap();
        let a_net = flat.net_by_name("a").unwrap();
        let b_net = flat.net_by_name("b").unwrap();
        let y_net = flat.net_by_name("y").unwrap();

        let mut good = OracleEngine::new(&flat, clk_net).unwrap();
        let mut bad =
            OracleEngine::with_mutant(&flat, clk_net, Some(EvalMutant::Xor2AsOr2)).unwrap();
        for engine in [&mut good, &mut bad] {
            engine.poke(a_net, Logic::One);
            engine.poke(b_net, Logic::One);
            engine.step_cycle();
        }
        assert_eq!(good.peek(y_net), Logic::Zero);
        assert_eq!(bad.peek(y_net), Logic::One, "mutant turns XOR into OR");
    }

    #[test]
    fn snapshot_restore_roundtrip_preserves_evolution() {
        let flat = toggler();
        let clk = flat.net_by_name("clk").unwrap();
        let rst = flat.net_by_name("rst_n").unwrap();
        let q = flat.net_by_name("q").unwrap();

        let mut a = OracleEngine::new(&flat, clk).unwrap();
        a.poke(rst, Logic::Zero);
        a.step_cycle();
        a.poke(rst, Logic::One);
        for _ in 0..3 {
            a.step_cycle();
        }
        let snap = a.snapshot();
        assert_eq!(snap.cycle(), 4);

        let mut b = OracleEngine::new(&flat, clk).unwrap();
        b.restore(&snap);
        for _ in 0..5 {
            a.step_cycle();
            b.step_cycle();
            assert_eq!(a.peek(q), b.peek(q));
        }
        assert!(a.snapshot().converged_with(&b.snapshot()));
    }
}
