//! The event-driven simulation engine (the paper's Synopsys-VCS stand-in).
//!
//! Time advances in abstract units; every gate has a unit propagation delay
//! and flip-flops a two-unit clock-to-Q delay. One clock cycle spans
//! `period` units with the rising edge at the cycle start, so pulses injected
//! mid-cycle propagate — or get masked — with realistic timing, which is what
//! distinguishes SET simulation from cycle-accurate approximations.

use crate::engine::{Engine, EngineState, EngineTelemetry};
use crate::eval::{async_override, disturb, eval_comb, gather, next_state, Inputs};
use crate::inject::Fault;
use crate::trace::{WaveSignal, WaveTrace};
use crate::value::Logic;
use crate::SimError;
use ssresf_netlist::flat::Driver;
use ssresf_netlist::{CellId, CellKind, FlatNetlist, NetId};

/// Combinational gate propagation delay, in time units.
const GATE_DELAY: u64 = 1;
/// Flip-flop clock-to-Q delay, in time units.
const CLK_Q_DELAY: u64 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    SetNet(NetId, Logic),
    Eval(CellId),
    ForceInvert(NetId),
    Release(NetId),
    Flip(CellId),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    time: u64,
    seq: u64,
    action: Action,
}

/// End-of-list marker for the time wheel's node links.
const NIL: u32 = u32::MAX;

/// A pending event in the time wheel's node pool, linked to the next event
/// of its slot (or, while free, to the next free node).
#[derive(Debug, Clone, Copy)]
struct Node {
    event: Event,
    next: u32,
}

/// The pending-event queue: a power-of-two ring of FIFO slots, all threaded
/// through one pooled node array with a free list, so steady-state pushes
/// and pops allocate nothing.
///
/// Slot `time & mask` holds the events due at `time`. Every pending event
/// lies in `[base, base + ring)`, so a slot never mixes two timestamps, and
/// a slot's FIFO order is push order, which is `seq` order. Scanning forward
/// from `base` to the first non-empty slot therefore pops exactly the
/// `(time, seq)` minimum a binary heap would. A push that would stretch the
/// pending span past the ring fails an assert instead of misordering.
#[derive(Debug)]
struct TimeWheel {
    /// Per-slot `(head, tail)` node indices, `NIL` when empty.
    slots: Vec<(u32, u32)>,
    nodes: Vec<Node>,
    /// Head of the free-node list.
    free: u32,
    len: usize,
    /// No pending event is due before `base`.
    base: u64,
    /// No pending event is due after `max(base, last)`.
    last: u64,
}

impl TimeWheel {
    /// A wheel whose ring spans at least `horizon` time units.
    fn new(horizon: u64) -> Self {
        TimeWheel {
            slots: vec![(NIL, NIL); horizon.next_power_of_two() as usize],
            nodes: Vec::new(),
            free: NIL,
            len: 0,
            base: 0,
            last: 0,
        }
    }

    fn slot(&self, time: u64) -> usize {
        (time & (self.slots.len() as u64 - 1)) as usize
    }

    /// Queues `event` behind every pending event of its timestamp.
    ///
    /// # Panics
    ///
    /// Panics when the pending events would span more than the ring.
    fn push(&mut self, event: Event) {
        if self.len == 0 {
            self.base = event.time;
            self.last = event.time;
        }
        let lo = self.base.min(event.time);
        let hi = self.last.max(self.base).max(event.time);
        assert!(
            hi - lo < self.slots.len() as u64,
            "event at time {} is beyond the {}-slot time wheel (pending span {lo}..={hi})",
            event.time,
            self.slots.len()
        );
        self.base = lo;
        self.last = hi;
        let node = Node { event, next: NIL };
        let index = if self.free == NIL {
            self.nodes.push(node);
            u32::try_from(self.nodes.len() - 1).expect("time wheel node pool overflow")
        } else {
            let index = self.free;
            self.free = self.nodes[index as usize].next;
            self.nodes[index as usize] = node;
            index
        };
        let slot = self.slot(event.time);
        match self.slots[slot] {
            (NIL, _) => self.slots[slot] = (index, index),
            (_, tail) => {
                self.nodes[tail as usize].next = index;
                self.slots[slot].1 = index;
            }
        }
        self.len += 1;
    }

    /// Dequeues the earliest pending event if it is due before `limit`.
    fn pop_before(&mut self, limit: u64) -> Option<Event> {
        if self.len == 0 {
            return None;
        }
        while self.base < limit {
            let slot = self.slot(self.base);
            let head = self.slots[slot].0;
            if head != NIL {
                let node = self.nodes[head as usize];
                debug_assert_eq!(node.event.time, self.base);
                self.slots[slot] = if node.next == NIL {
                    (NIL, NIL)
                } else {
                    (node.next, self.slots[slot].1)
                };
                self.nodes[head as usize].next = self.free;
                self.free = head;
                self.len -= 1;
                return Some(node.event);
            }
            self.base += 1;
        }
        None
    }

    /// Every pending event in `(time, seq)` order.
    fn pending(&self) -> Vec<Event> {
        let mut events = Vec::with_capacity(self.len);
        let mut time = self.base;
        while events.len() < self.len {
            let mut index = self.slots[self.slot(time)].0;
            while index != NIL {
                let node = self.nodes[index as usize];
                events.push(node.event);
                index = node.next;
            }
            time += 1;
        }
        events
    }

    /// Replaces the pending events with `events`, given in `(time, seq)`
    /// order so each slot's FIFO comes out in `seq` order.
    fn reset(&mut self, events: &[Event]) {
        debug_assert!(events.is_sorted_by_key(|e| (e.time, e.seq)));
        self.slots.fill((NIL, NIL));
        self.nodes.clear();
        self.free = NIL;
        self.len = 0;
        for &event in events {
            self.push(event);
        }
    }
}

/// Snapshot of an [`EventDrivenEngine`]'s dynamic state: net values,
/// sequential cell state, poked inputs, active forces, the pending event
/// wheel, time/cycle counters, per-net toggle activity, scheduled faults
/// and the work counter.
///
/// Waveform recording ([`EventDrivenEngine::record`]) is deliberately not
/// part of the snapshot; restoring into an engine that is recording is
/// unsupported.
#[derive(Debug, Clone, PartialEq)]
pub struct EventDrivenState {
    values: Vec<Logic>,
    state: Vec<Logic>,
    input_values: Vec<Option<Logic>>,
    forced: Vec<Option<Logic>>,
    /// Pending events sorted by `(time, seq)` — same-time ordering is part
    /// of the determinism contract.
    queue: Vec<Event>,
    seq: u64,
    time: u64,
    cycle: u64,
    activity: Vec<u64>,
    faults: Vec<Fault>,
    events_processed: u64,
}

impl EventDrivenState {
    pub(crate) fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Evolution-relevant equality: ignores the activity and work counters
    /// and event sequence numbers (only the relative order of pending
    /// events matters), so a faulty run that drifted and came back
    /// compares equal to the golden run it re-converged with.
    pub(crate) fn converged_with(&self, other: &Self) -> bool {
        let pending =
            |q: &[Event]| -> Vec<(u64, Action)> { q.iter().map(|e| (e.time, e.action)).collect() };
        self.time == other.time
            && self.cycle == other.cycle
            && self.values == other.values
            && self.state == other.state
            && self.input_values == other.input_values
            && self.forced == other.forced
            && self.faults == other.faults
            && pending(&self.queue) == pending(&other.queue)
    }
}

/// Event-driven four-state gate-level simulator.
///
/// # Example
///
/// ```
/// use ssresf_netlist::{CellKind, Design, ModuleBuilder, PortDir};
/// use ssresf_sim::{Engine, EventDrivenEngine, Logic};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut design = Design::new();
/// let mut mb = ModuleBuilder::new("counter1");
/// let clk = mb.port("clk", PortDir::Input);
/// let q = mb.port("q", PortDir::Output);
/// let nq = mb.net("nq");
/// mb.cell("u_inv", CellKind::Inv, &[q], &[nq])?;
/// mb.cell("u_ff", CellKind::Dff, &[clk, nq], &[q])?;
/// let id = design.add_module(mb.finish())?;
/// design.set_top(id)?;
/// let flat = design.flatten()?;
///
/// let clk_net = flat.primary_inputs()[0];
/// let q_net = flat.primary_outputs()[0];
/// let mut engine = EventDrivenEngine::new(&flat, clk_net)?;
/// let ff = flat.cell_by_name("u_ff").unwrap();
/// engine.set_cell_state(ff, Logic::Zero);
/// engine.step_cycle();
/// assert_eq!(engine.peek(q_net), Logic::One); // toggled at the posedge
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EventDrivenEngine<'a> {
    netlist: &'a FlatNetlist,
    clock: NetId,
    period: u64,
    values: Vec<Logic>,
    state: Vec<Logic>,
    input_values: Vec<Option<Logic>>,
    forced: Vec<Option<Logic>>,
    queue: TimeWheel,
    seq: u64,
    time: u64,
    cycle: u64,
    activity: Vec<u64>,
    faults: Vec<Fault>,
    recorded: Vec<NetId>,
    waves: Vec<Vec<(u64, Logic)>>,
    /// Count of processed events, exposed for performance reporting.
    events_processed: u64,
    /// Same-timestamp event executions (delta cycles).
    delta_cycles: u64,
    /// Times the event wheel advanced simulated time.
    wheel_advances: u64,
    /// Snapshot restores performed.
    restores: u64,
}

impl<'a> EventDrivenEngine<'a> {
    /// Creates an engine for `netlist` clocked by the primary input `clock`.
    ///
    /// The clock period is derived from the netlist's maximum combinational
    /// depth so every cycle fully settles.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Netlist`] when the netlist has combinational
    /// loops, and [`SimError::NotAnInput`] when `clock` is not a primary
    /// input.
    pub fn new(netlist: &'a FlatNetlist, clock: NetId) -> Result<Self, SimError> {
        let lv = netlist.levelize().map_err(SimError::Netlist)?;
        if netlist.net(clock).driver != Some(Driver::PrimaryInput) {
            return Err(SimError::NotAnInput(netlist.net_full_name(clock)));
        }
        let period = 4 * (u64::from(lv.max_depth) + 8);
        let mut engine = EventDrivenEngine {
            netlist,
            clock,
            period,
            values: vec![Logic::X; netlist.nets().len()],
            state: vec![Logic::X; netlist.cells().len()],
            input_values: vec![None; netlist.nets().len()],
            forced: vec![None; netlist.nets().len()],
            // A SET release lands at most `2 * period - 1` past the cycle
            // start, and preloads rewind time by one period (see
            // `set_cell_state`), so four periods cover every pending span.
            queue: TimeWheel::new(4 * period),
            seq: 0,
            time: 0,
            cycle: 0,
            activity: vec![0; netlist.nets().len()],
            faults: Vec::new(),
            recorded: Vec::new(),
            waves: Vec::new(),
            events_processed: 0,
            delta_cycles: 0,
            wheel_advances: 0,
            restores: 0,
        };
        // The clock idles low so the first rising edge is a clean posedge.
        engine.values[clock.index()] = Logic::Zero;
        // Seed initial evaluation of every combinational cell so constants
        // (tie cells) and X values propagate, then let the netlist settle
        // before the first cycle — matching the levelized engine, which
        // fully propagates at construction.
        for i in 0..netlist.num_cells() {
            let id = CellId(i as u32);
            if netlist.cell_kind(id).is_combinational() {
                engine.push(0, Action::Eval(id));
            }
        }
        engine.run_until(engine.period);
        Ok(engine)
    }

    /// Total events processed so far (a proxy for simulation work).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Starts recording full-resolution waveforms of `nets` (for VCD dumps).
    pub fn record(&mut self, nets: &[NetId]) {
        for &net in nets {
            if !self.recorded.contains(&net) {
                self.recorded.push(net);
                self.waves.push(vec![(self.time, self.values[net.index()])]);
            }
        }
    }

    /// The recorded waveforms, named by net.
    pub fn wave_trace(&self) -> WaveTrace {
        let mut trace = WaveTrace::new();
        for (i, &net) in self.recorded.iter().enumerate() {
            trace.signals.push(WaveSignal {
                name: self.netlist.net_full_name(net),
                changes: self.waves[i].clone(),
            });
        }
        trace
    }

    fn push(&mut self, time: u64, action: Action) {
        self.queue.push(Event {
            time,
            seq: self.seq,
            action,
        });
        self.seq += 1;
    }

    fn apply_net(&mut self, net: NetId, value: Logic, respect_force: bool) {
        if respect_force && self.forced[net.index()].is_some() {
            return;
        }
        let old = self.values[net.index()];
        if old == value {
            return;
        }
        self.values[net.index()] = value;
        self.activity[net.index()] += 1;
        if let Some(pos) = self.recorded.iter().position(|&n| n == net) {
            self.waves[pos].push((self.time, value));
        }
        let netlist = self.netlist;
        for &(load, pin) in netlist.net_loads(net) {
            let kind = netlist.cell_kind(load);
            if kind.is_combinational() {
                self.push(self.time + GATE_DELAY, Action::Eval(load));
            } else {
                self.sequential_pin_change(load, kind, pin, old, value);
            }
        }
    }

    fn input_vals(&self, cell: CellId) -> Inputs<Logic> {
        gather(self.netlist.cell_inputs(cell), &self.values)
    }

    fn sequential_pin_change(
        &mut self,
        cell: CellId,
        kind: CellKind,
        pin: u8,
        old: Logic,
        new: Logic,
    ) {
        // Inputs are gathered only on the branches that read them: a clock
        // fall reaches every flop and needs none.
        match kind {
            CellKind::Latch => {
                let ns = next_state(kind, &self.input_vals(cell), self.state[cell.index()]);
                self.update_state(cell, ns, GATE_DELAY);
            }
            _ if pin == 2 && kind.has_async_reset() => {
                // Asynchronous reset pin.
                if let Some(forced) = async_override(kind, &self.input_vals(cell)) {
                    self.update_state(cell, forced, CLK_Q_DELAY);
                }
            }
            _ if pin == 0 && old == Logic::Zero && new == Logic::One => {
                // Rising clock edge.
                let ns = next_state(kind, &self.input_vals(cell), self.state[cell.index()]);
                self.update_state(cell, ns, CLK_Q_DELAY);
            }
            _ => {}
        }
    }

    fn update_state(&mut self, cell: CellId, new_state: Logic, delay: u64) {
        if self.state[cell.index()] == new_state {
            return;
        }
        self.state[cell.index()] = new_state;
        let q = self.netlist.cell_output(cell);
        self.push(self.time + delay, Action::SetNet(q, new_state));
    }

    fn execute(&mut self, action: Action) {
        self.events_processed += 1;
        match action {
            Action::SetNet(net, value) => {
                // FF output updates must reflect the *current* state: two
                // queued updates can race and the later state must win.
                let value = match self.netlist.net_driver(net) {
                    Some(Driver::Cell(cell)) if self.netlist.cell_kind(cell).is_sequential() => {
                        self.state[cell.index()]
                    }
                    _ => value,
                };
                self.apply_net(net, value, true);
            }
            Action::Eval(cell) => {
                let out = eval_comb(self.netlist.cell_kind(cell), &self.input_vals(cell));
                self.apply_net(self.netlist.cell_output(cell), out, true);
            }
            Action::ForceInvert(net) => {
                let disturbed = disturb(self.values[net.index()]);
                self.forced[net.index()] = Some(disturbed);
                self.apply_net(net, disturbed, false);
            }
            Action::Release(net) => {
                self.forced[net.index()] = None;
                match self.netlist.net_driver(net) {
                    Some(Driver::Cell(cell)) => {
                        if self.netlist.cell_kind(cell).is_sequential() {
                            let v = self.state[cell.index()];
                            self.apply_net(net, v, false);
                        } else {
                            self.push(self.time, Action::Eval(cell));
                        }
                    }
                    Some(Driver::PrimaryInput) => {
                        if let Some(v) = self.input_values[net.index()] {
                            self.apply_net(net, v, false);
                        }
                    }
                    None => {}
                }
            }
            Action::Flip(cell) => {
                let flipped = disturb(self.state[cell.index()]);
                self.state[cell.index()] = flipped;
                self.apply_net(self.netlist.cell_output(cell), flipped, true);
            }
        }
    }

    fn run_until(&mut self, limit: u64) {
        while let Some(event) = self.queue.pop_before(limit) {
            if event.time > self.time {
                self.wheel_advances += 1;
            } else {
                self.delta_cycles += 1;
            }
            self.time = event.time;
            self.execute(event.action);
        }
        self.time = limit;
    }

    fn sub_cycle_time(&self, t0: u64, frac: f64) -> u64 {
        let offset = (frac * self.period as f64).round() as u64;
        t0 + offset.min(self.period - 1)
    }
}

impl Engine for EventDrivenEngine<'_> {
    fn name(&self) -> &'static str {
        "event-driven"
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
        self.input_values[net.index()] = Some(value);
        self.push(self.time, Action::SetNet(net, value));
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
        let q = self.netlist.cell_output(cell);
        self.push(self.time, Action::SetNet(q, value));
        // Preloads happen between cycles; settle the combinational fan-out
        // now so the next posedge captures consistent data (mirroring the
        // levelized engine, which repropagates on preload). Time is restored
        // so the cycle grid stays aligned.
        let t0 = self.time;
        self.run_until(t0 + self.period);
        self.time = t0;
    }

    fn set_cell_states(&mut self, cells: &[CellId], value: Logic) {
        for &cell in cells {
            assert!(
                self.netlist.cell_kind(cell).is_sequential(),
                "cell `{}` holds no state",
                self.netlist.cell_full_name(cell)
            );
            self.state[cell.index()] = value;
            let q = self.netlist.cell_output(cell);
            self.push(self.time, Action::SetNet(q, value));
        }
        // One settle for the whole preload; the combinational fan-out is
        // acyclic, so the fixpoint is the same as settling after each cell.
        let t0 = self.time;
        self.run_until(t0 + self.period);
        self.time = t0;
    }

    fn cell_state(&self, cell: CellId) -> Logic {
        self.state[cell.index()]
    }

    fn schedule_fault(&mut self, fault: Fault) {
        self.faults.push(fault);
    }

    fn snapshot(&self) -> EngineState {
        EngineState::EventDriven(EventDrivenState {
            values: self.values.clone(),
            state: self.state.clone(),
            input_values: self.input_values.clone(),
            forced: self.forced.clone(),
            queue: self.queue.pending(),
            seq: self.seq,
            time: self.time,
            cycle: self.cycle,
            activity: self.activity.clone(),
            faults: self.faults.clone(),
            events_processed: self.events_processed,
        })
    }

    fn restore(&mut self, state: &EngineState) {
        let EngineState::EventDriven(s) = state else {
            panic!("event-driven engine cannot restore a levelized snapshot");
        };
        assert_eq!(
            s.values.len(),
            self.netlist.nets().len(),
            "snapshot was taken on a different netlist"
        );
        self.values.clone_from(&s.values);
        self.state.clone_from(&s.state);
        self.input_values.clone_from(&s.input_values);
        self.forced.clone_from(&s.forced);
        self.queue.reset(&s.queue);
        self.seq = s.seq;
        self.time = s.time;
        self.cycle = s.cycle;
        self.activity.clone_from(&s.activity);
        self.faults.clone_from(&s.faults);
        self.events_processed = s.events_processed;
        self.restores += 1;
    }

    fn step_cycle(&mut self) {
        let t0 = self.time;
        // Materialize faults firing this cycle into concrete events.
        let current = self.cycle;
        for i in 0..self.faults.len() {
            let fault = self.faults[i];
            if fault.cycle() != current {
                continue;
            }
            match fault {
                Fault::Set(f) => {
                    let on = self.sub_cycle_time(t0, f.offset);
                    let width = ((f.width * self.period as f64).round() as u64).max(1);
                    self.push(on, Action::ForceInvert(f.net));
                    self.push(on + width, Action::Release(f.net));
                }
                Fault::Seu(f) => {
                    let at = self.sub_cycle_time(t0, f.offset);
                    self.push(at, Action::Flip(f.cell));
                }
            }
        }
        self.faults.retain(|f| f.cycle() != current);

        self.push(t0, Action::SetNet(self.clock, Logic::One));
        self.push(
            t0 + self.period / 2,
            Action::SetNet(self.clock, Logic::Zero),
        );
        self.run_until(t0 + self.period);
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
            events_processed: self.events_processed,
            cells_evaluated: 0,
            delta_cycles: self.delta_cycles,
            wheel_advances: self.wheel_advances,
            restores: self.restores,
            word_evals: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(time: u64, seq: u64) -> Event {
        Event {
            time,
            seq,
            action: Action::Eval(CellId(seq as u32)),
        }
    }

    /// Interleaved pushes and pops leave the wheel in exactly the
    /// `(time, seq)` order of a sorted reference queue, across many ring
    /// wrap-arounds and with time rewound behind already-popped events (as
    /// preloads do).
    #[test]
    fn wheel_pops_in_time_then_seq_order() {
        let mut rng = 0x9e37_79b9_u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut wheel = TimeWheel::new(32);
        let mut reference: Vec<Event> = Vec::new();
        let (mut now, mut high, mut seq) = (0u64, 0u64, 0u64);
        for round in 0..4000 {
            for _ in 0..next() % 4 {
                let e = event(now + next() % 16, seq);
                seq += 1;
                wheel.push(e);
                reference.push(e);
            }
            let limit = now + next() % 3;
            high = high.max(limit);
            reference.sort_by_key(|e| (e.time, e.seq));
            let due = reference.iter().take_while(|e| e.time < limit).count();
            let popped: Vec<Event> = std::iter::from_fn(|| wheel.pop_before(limit)).collect();
            let expected: Vec<Event> = reference.drain(..due).collect();
            assert_eq!(popped, expected, "round {round}");
            assert_eq!(wheel.pending(), reference, "round {round}");
            // Every fifth round rewinds, staying within 8 units of the
            // furthest pop so the pending span (< 16 + 8) fits the ring.
            now = if round % 5 == 0 {
                limit.saturating_sub(next() % 8).max(high.saturating_sub(8))
            } else {
                limit
            };
        }
    }

    #[test]
    fn reset_restores_pending_order() {
        let mut wheel = TimeWheel::new(8);
        let events = [event(3, 0), event(3, 4), event(5, 1), event(10, 2)];
        wheel.reset(&events);
        assert_eq!(wheel.pending(), events);
        let popped: Vec<Event> = std::iter::from_fn(|| wheel.pop_before(u64::MAX)).collect();
        assert_eq!(popped, events);
    }

    #[test]
    #[should_panic(expected = "beyond the 8-slot time wheel")]
    fn event_past_the_horizon_fails_the_assert() {
        let mut wheel = TimeWheel::new(8);
        wheel.push(event(2, 0));
        wheel.push(event(10, 1));
    }
}
