//! Driving a device-under-test through its workload.
//!
//! SSRESF designs follow two conventions: the clock input is named `clk`
//! and the active-low reset `rst_n`. A [`Dut`] wraps a flat netlist, builds
//! either simulation engine on demand, and runs the standard sequence —
//! reset, post-reset memory-image load, then `run_cycles` of execution —
//! sampling all primary outputs each cycle.

use crate::error::SsresfError;
use ssresf_netlist::{FlatNetlist, NetId};
use ssresf_sim::{
    BitParallelEngine, CycleTrace, Engine, EngineState, EngineTelemetry, EventDrivenEngine, Fault,
    LaneMask, LevelizedEngine, Logic, SetFault, SeuFault, WORD_LANES,
};
use std::collections::VecDeque;

/// Which simulation engine to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// [`EventDrivenEngine`] — the VCS stand-in.
    EventDriven,
    /// [`LevelizedEngine`] — the OSS-CVC stand-in.
    Levelized,
}

impl EngineKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::EventDriven => "event-driven",
            EngineKind::Levelized => "levelized",
        }
    }
}

/// Workload length parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Cycles with reset asserted.
    pub reset_cycles: u64,
    /// Post-reset cycles simulated and observed.
    pub run_cycles: u64,
}

impl Default for Workload {
    fn default() -> Self {
        Workload {
            reset_cycles: 3,
            run_cycles: 120,
        }
    }
}

/// One simulation run's outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Per-cycle primary-output samples (post-reset cycles only).
    pub trace: CycleTrace,
    /// Per-net toggle activity per cycle (for the activity feature).
    pub activity_per_cycle: Vec<f64>,
    /// Engine work proxy (events processed / cells evaluated).
    pub work: u64,
    /// Engine-level event counters for this run (resumed runs count only
    /// the resumed portion, mirroring [`RunOutcome::work`]).
    pub engine: EngineTelemetry,
    /// The golden checkpoint cycle this run fast-forwarded from, if any.
    pub resumed_from: Option<u64>,
    /// Whether early stop truncated this run's simulated tail.
    pub early_stopped: bool,
}

/// Per-fault observation of a queued batched run
/// ([`Dut::run_batch_queue`]), field-compatible with what a scalar
/// [`Dut::resume`] run yields through a golden-trace diff, plus the
/// fast-forward and truncation facts of the sweep that carried the fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedFaultOutcome {
    /// Whether the lane's primary outputs ever differed from the golden
    /// lane.
    pub soft_error: bool,
    /// Number of (cycle, signal) divergences against the golden lane.
    pub divergences: usize,
    /// The golden checkpoint cycle the fault's sweep fast-forwarded from.
    pub resumed_from: Option<u64>,
    /// Whether the lane retired (verdict final) before the workload end.
    pub early_stopped: bool,
}

/// Outcome of one queued bit-parallel run ([`Dut::run_batch_queue`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchQueueOutcome {
    /// One observation per queued fault, in input order. `None` only when
    /// the run was cancelled before the fault's verdict became final.
    pub faults: Vec<Option<QueuedFaultOutcome>>,
    /// Word evaluations spent across all sweeps (excluding fast-forwarded
    /// prefixes).
    pub work: u64,
    /// Aggregated engine-level counters over all sweeps.
    pub engine: EngineTelemetry,
    /// Faults carried per sweep, including mid-sweep refills (the batch
    /// occupancy histogram input).
    pub occupancy: Vec<u64>,
    /// Mid-sweep lane refills performed (retired lanes rewritten with a
    /// fresh pending fault).
    pub refills: u64,
    /// Whether a cancellation check stopped the run before every queued
    /// fault had a final verdict.
    pub cancelled: bool,
}

/// A golden-run engine snapshot taken at a post-reset cycle boundary.
///
/// Restoring it fast-forwards a faulty run past the cycles the golden run
/// already simulated; see [`Dut::resume`].
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Post-reset cycles completed when the snapshot was taken (0 = right
    /// after reset and memory-image load, before the first workload cycle).
    pub cycle: u64,
    state: EngineState,
}

impl Checkpoint {
    /// The captured engine state.
    pub fn state(&self) -> &EngineState {
        &self.state
    }
}

/// A golden (fault-free) run plus the checkpoints recorded along it.
#[derive(Debug, Clone)]
pub struct GoldenRun {
    /// The golden run's trace, activity and work.
    pub outcome: RunOutcome,
    /// Snapshots in strictly increasing cycle order; empty when
    /// checkpointing was disabled.
    pub checkpoints: Vec<Checkpoint>,
}

impl GoldenRun {
    /// The latest checkpoint at or before `cycle`.
    pub fn nearest_checkpoint(&self, cycle: u64) -> Option<&Checkpoint> {
        let idx = self.checkpoints.partition_point(|c| c.cycle <= cycle);
        idx.checked_sub(1).map(|i| &self.checkpoints[i])
    }

    /// The checkpoint taken exactly at `cycle`, if any.
    pub fn checkpoint_at(&self, cycle: u64) -> Option<&Checkpoint> {
        self.checkpoints
            .binary_search_by_key(&cycle, |c| c.cycle)
            .ok()
            .map(|i| &self.checkpoints[i])
    }
}

/// A device-under-test: netlist plus its clock/reset conventions.
#[derive(Debug, Clone, Copy)]
pub struct Dut<'a> {
    netlist: &'a FlatNetlist,
    clock: NetId,
    reset: Option<NetId>,
}

impl<'a> Dut<'a> {
    /// Wraps a netlist using the `clk`/`rst_n` naming conventions.
    ///
    /// Both names are looked up among the primary inputs first; only a
    /// name no primary input carries falls back to
    /// [`FlatNetlist::net_by_name`], whose table covers every net.
    ///
    /// # Errors
    ///
    /// Returns [`SsresfError::MissingNet`] when no `clk` input exists. A
    /// missing `rst_n` is tolerated (purely combinational DUTs).
    pub fn from_conventions(netlist: &'a FlatNetlist) -> Result<Self, SsresfError> {
        let find = |name: &str| {
            netlist
                .primary_inputs()
                .iter()
                .copied()
                .find(|&n| netlist.net_full_name(n) == name)
                .or_else(|| netlist.net_by_name(name))
        };
        let clock = find("clk").ok_or_else(|| SsresfError::MissingNet("clk".into()))?;
        let reset = find("rst_n");
        Ok(Dut {
            netlist,
            clock,
            reset,
        })
    }

    /// The wrapped netlist.
    pub fn netlist(&self) -> &'a FlatNetlist {
        self.netlist
    }

    /// The clock net.
    pub fn clock(&self) -> NetId {
        self.clock
    }

    /// Runs the workload with the given faults (whose cycles are relative
    /// to the first post-reset cycle).
    ///
    /// # Errors
    ///
    /// Propagates engine construction failures.
    pub fn run(
        &self,
        kind: EngineKind,
        workload: &Workload,
        faults: &[Fault],
    ) -> Result<RunOutcome, SsresfError> {
        Ok(self.run_from_reset(kind, workload, faults, 0)?.outcome)
    }

    /// Runs the fault-free workload, snapshotting engine state every
    /// `interval` post-reset cycles — plus once right after reset and
    /// memory-image load, before the first workload cycle. An `interval`
    /// of 0 disables checkpointing (the returned run has no checkpoints).
    ///
    /// # Errors
    ///
    /// Propagates engine construction failures.
    pub fn run_golden_with_checkpoints(
        &self,
        kind: EngineKind,
        workload: &Workload,
        interval: u64,
    ) -> Result<GoldenRun, SsresfError> {
        self.run_from_reset(kind, workload, &[], interval)
    }

    /// Re-runs the workload with `faults`, fast-forwarding over the golden
    /// prefix: the engine restores the latest golden checkpoint at or
    /// before the earliest fault cycle and simulates only the remaining
    /// cycles, with the skipped trace prefix copied from the golden run
    /// (bit-identical by determinism — the fault has not fired yet).
    ///
    /// With `early_stop`, the run also terminates at the first golden
    /// checkpoint boundary past the last fault cycle where the engine
    /// state has re-converged with the golden run; the remaining rows are
    /// filled from the golden trace, which the convergence check proves
    /// identical. Either way the returned trace is bit-identical to a
    /// from-scratch [`run`](Dut::run) with the same faults.
    /// [`RunOutcome::work`] counts only the work of the resumed portion,
    /// and [`RunOutcome::activity_per_cycle`] covers the golden prefix
    /// plus the simulated suffix.
    ///
    /// Falls back to a from-scratch [`run`](Dut::run) when `golden` holds
    /// no checkpoints.
    ///
    /// # Errors
    ///
    /// Propagates engine construction failures.
    pub fn resume(
        &self,
        kind: EngineKind,
        workload: &Workload,
        faults: &[Fault],
        golden: &GoldenRun,
        early_stop: bool,
    ) -> Result<RunOutcome, SsresfError> {
        let first_fault = faults.iter().map(Fault::cycle).min().unwrap_or(0);
        let Some(start) = golden.nearest_checkpoint(first_fault) else {
            return self.run(kind, workload, faults);
        };
        match kind {
            EngineKind::EventDriven => {
                let engine = EventDrivenEngine::new(self.netlist, self.clock)?;
                self.drive_resumed(engine, workload, faults, golden, start, early_stop, |e| {
                    e.events_processed()
                })
            }
            EngineKind::Levelized => {
                let engine = LevelizedEngine::new(self.netlist, self.clock)?;
                self.drive_resumed(engine, workload, faults, golden, start, early_stop, |e| {
                    e.cells_evaluated()
                })
            }
        }
    }

    /// Runs an arbitrarily long fault queue through bit-parallel sweeps:
    /// lane 0 replays the golden run, every other lane carries one fault,
    /// and a sweep shares one netlist evaluation per cycle across up to
    /// `W * 64 - 1` faults (`W` is the lane-word chunk count, 1/4/8 for
    /// 64/256/512 lanes). Each sweep fast-forwards from the latest golden
    /// checkpoint at or before its earliest fault (the checkpoints must
    /// come from a levelized golden run); faults that do not fit seed the
    /// next sweep.
    ///
    /// With `early_stop` or `lane_refill`, a lane retires as soon as its
    /// fault has fired and the lane has re-converged with the golden lane
    /// ([`BitParallelEngine::diverged_lanes`]): its verdict is final, and
    /// a sweep ends once every lane has retired. With `lane_refill`, a
    /// retired lane is also rewritten mid-sweep with the earliest pending
    /// fault whose injection cycle has not yet passed. With neither, every
    /// sweep runs to the workload end.
    ///
    /// Per-fault observations are bit-identical to scalar [`Dut::resume`]
    /// runs through a golden-trace diff — same soft-error verdicts, same
    /// divergence counts — whatever the switches: a lane only retires when
    /// its state equals the golden lane's, which (lane 0 being
    /// deterministic) proves the remaining cycles diverge nowhere.
    ///
    /// The optional `cancel` predicate is polled before every sweep and
    /// once per simulated cycle, so a cancellation lands mid-batch instead
    /// of waiting for the whole queue to drain. On cancellation the
    /// outcome's [`cancelled`](BatchQueueOutcome::cancelled) flag is set
    /// and faults whose verdict was not yet final stay `None`; completed
    /// verdicts are still exact.
    ///
    /// # Errors
    ///
    /// Propagates engine construction failures.
    ///
    /// # Panics
    ///
    /// Panics when `faults` is empty, when `golden` does not cover
    /// `workload.run_cycles`, or if the golden lane ever disagrees with
    /// the golden trace (an engine bug, never silent data corruption).
    pub fn run_batch_queue<const W: usize>(
        &self,
        workload: &Workload,
        faults: &[Fault],
        golden: &GoldenRun,
        early_stop: bool,
        lane_refill: bool,
        cancel: Option<&dyn Fn() -> bool>,
    ) -> Result<BatchQueueOutcome, SsresfError> {
        let lanes = W * WORD_LANES;
        assert!(!faults.is_empty(), "a queued batch needs at least 1 fault");
        let golden_rows = &golden.outcome.trace.rows;
        assert_eq!(
            golden_rows.len(),
            workload.run_cycles as usize,
            "golden trace does not cover the workload"
        );
        let (outputs, _) = self.observed_outputs();

        // Pending faults in (cycle, input index) order; stays sorted as
        // refills always remove the earliest eligible entry.
        let mut order: Vec<usize> = (0..faults.len()).collect();
        order.sort_by_key(|&i| (faults[i].cycle(), i));
        let mut pending: VecDeque<usize> = order.into();

        let mut outcomes: Vec<Option<QueuedFaultOutcome>> = vec![None; faults.len()];
        let mut divergences = vec![0usize; faults.len()];
        let mut work = 0u64;
        let mut telemetry = EngineTelemetry::default();
        let mut occupancy = Vec::new();
        let mut refills = 0u64;
        let mut cancelled = false;
        let is_cancelled = || cancel.is_some_and(|c| c());

        while let Some(&head) = pending.front() {
            if is_cancelled() {
                cancelled = true;
                break;
            }
            let mut engine = BitParallelEngine::<W>::new(self.netlist, self.clock)?;
            let resumed_from = match golden.nearest_checkpoint(faults[head].cycle()) {
                Some(start) => {
                    engine.restore(start.state());
                    Some(start.cycle)
                }
                None => {
                    self.setup(&mut engine, workload)?;
                    None
                }
            };
            let resumed_at = engine.word_evals();
            let telemetry_base = engine.telemetry();
            let start_cycle = resumed_from.unwrap_or(0);

            // Fill the fault lanes from the queue front (every pending
            // fault's cycle is at least the checkpoint cycle).
            let mut owner: Vec<Option<usize>> = vec![None; lanes];
            let mut owned = LaneMask::<W>::EMPTY;
            let mut carried = 0u64;
            for (lane, slot) in owner.iter_mut().enumerate().skip(1) {
                let Some(idx) = pending.pop_front() else {
                    break;
                };
                engine.schedule_fault_in_lane(lane, self.shift_fault(workload, &faults[idx]));
                *slot = Some(idx);
                owned.set(lane);
                carried += 1;
            }

            for done in (start_cycle + 1)..=workload.run_cycles {
                engine.step_cycle();
                let row = &golden_rows[(done - 1) as usize];
                for (j, &net) in outputs.iter().enumerate() {
                    assert_eq!(
                        engine.peek(net),
                        row[j],
                        "golden lane diverged from the golden trace at cycle {done}"
                    );
                    let diff = engine.lanes_differing_from_golden(net) & owned;
                    diff.for_each_lane(|lane| {
                        divergences[owner[lane].expect("diff only on owned lanes")] += 1;
                    });
                }

                if early_stop || lane_refill {
                    // Retire lanes whose verdict is final: the fault has
                    // fired (no pending lane fault — a pending fault marks
                    // the lane diverged) and the lane's state equals the
                    // golden lane's, so no further divergence is possible.
                    let diverged = engine.diverged_lanes();
                    for (lane, slot) in owner.iter_mut().enumerate().skip(1) {
                        let Some(idx) = *slot else { continue };
                        if faults[idx].cycle() >= done || diverged.get(lane) {
                            continue;
                        }
                        outcomes[idx] = Some(QueuedFaultOutcome {
                            soft_error: divergences[idx] > 0,
                            divergences: divergences[idx],
                            resumed_from,
                            early_stopped: done < workload.run_cycles,
                        });
                        *slot = None;
                        owned.clear(lane);
                        if !lane_refill {
                            continue;
                        }
                        // Refill with the earliest pending fault still
                        // injectable this sweep (cycle not yet passed).
                        let pos = pending.partition_point(|&i| faults[i].cycle() < done);
                        if pos < pending.len() {
                            let next = pending.remove(pos).expect("pos is in range");
                            engine.schedule_fault_in_lane(
                                lane,
                                self.shift_fault(workload, &faults[next]),
                            );
                            *slot = Some(next);
                            owned.set(lane);
                            carried += 1;
                            refills += 1;
                        }
                    }
                    if owned.none() {
                        // Every lane retired and nothing is refillable: the
                        // sweep is over.
                        break;
                    }
                }
                // Poll every cycle so a cancellation lands mid-batch
                // instead of after the whole queue drains.
                if is_cancelled() {
                    cancelled = true;
                    break;
                }
            }

            if !cancelled {
                // Lanes still active at the workload end get their verdict
                // now. On cancellation their divergence counts may be
                // partial, so they keep no verdict at all.
                for &idx in owner.iter().flatten() {
                    outcomes[idx] = Some(QueuedFaultOutcome {
                        soft_error: divergences[idx] > 0,
                        divergences: divergences[idx],
                        resumed_from,
                        early_stopped: false,
                    });
                }
            }
            work += engine.word_evals() - resumed_at;
            telemetry.accumulate(engine.telemetry().since(telemetry_base));
            occupancy.push(carried);
            if cancelled {
                break;
            }
        }

        if !cancelled {
            debug_assert!(
                outcomes.iter().all(Option::is_some),
                "every queued fault fires before the workload ends"
            );
        }
        Ok(BatchQueueOutcome {
            faults: outcomes,
            work,
            engine: telemetry,
            occupancy,
            refills,
            cancelled,
        })
    }

    /// A fault with its workload-relative cycle shifted into absolute
    /// engine cycles.
    fn shift_fault(&self, workload: &Workload, fault: &Fault) -> Fault {
        let offset = if self.reset.is_some() {
            workload.reset_cycles
        } else {
            0
        };
        match *fault {
            Fault::Seu(f) => Fault::Seu(SeuFault {
                cycle: f.cycle + offset,
                ..f
            }),
            Fault::Set(f) => Fault::Set(SetFault {
                cycle: f.cycle + offset,
                ..f
            }),
        }
    }

    /// Reset sequence plus post-reset memory-image load — the state every
    /// run starts from, and the state a cycle-0 checkpoint captures.
    fn setup<E: Engine>(&self, engine: &mut E, workload: &Workload) -> Result<(), SsresfError> {
        if let Some(rst) = self.reset {
            engine.poke(rst, Logic::Zero);
            for _ in 0..workload.reset_cycles {
                engine.step_cycle();
            }
            engine.poke(rst, Logic::One);
        }
        // Memory-image load happens after reset so that the first clock
        // edges never latch undefined write-enables into the array.
        let memory_cells: Vec<_> = self
            .netlist
            .levelize()?
            .sequential
            .iter()
            .copied()
            .filter(|&c| self.netlist.cell_kind(c).is_memory_bit())
            .collect();
        engine.set_cell_states(&memory_cells, Logic::Zero);
        Ok(())
    }

    /// Schedules `faults` with their workload-relative cycles shifted into
    /// absolute engine cycles.
    fn schedule_shifted<E: Engine>(&self, engine: &mut E, workload: &Workload, faults: &[Fault]) {
        for fault in faults {
            engine.schedule_fault(self.shift_fault(workload, fault));
        }
    }

    /// All primary outputs plus an empty trace named after them.
    fn observed_outputs(&self) -> (Vec<NetId>, CycleTrace) {
        let outputs: Vec<NetId> = self.netlist.primary_outputs().to_vec();
        let names = outputs
            .iter()
            .map(|&n| self.netlist.net_full_name(n))
            .collect();
        (outputs, CycleTrace::new(names))
    }

    /// Simulates from reset with `faults` scheduled, snapshotting engine
    /// state every `interval` post-reset cycles (0 = never); see
    /// [`Dut::run_golden_with_checkpoints`].
    fn run_from_reset(
        &self,
        kind: EngineKind,
        workload: &Workload,
        faults: &[Fault],
        interval: u64,
    ) -> Result<GoldenRun, SsresfError> {
        match kind {
            EngineKind::EventDriven => {
                let engine = EventDrivenEngine::new(self.netlist, self.clock)?;
                self.drive_from_reset(engine, workload, faults, interval, |e| e.events_processed())
            }
            EngineKind::Levelized => {
                let engine = LevelizedEngine::new(self.netlist, self.clock)?;
                self.drive_from_reset(engine, workload, faults, interval, |e| e.cells_evaluated())
            }
        }
    }

    fn drive_from_reset<E: Engine>(
        &self,
        mut engine: E,
        workload: &Workload,
        faults: &[Fault],
        interval: u64,
        work: impl Fn(&E) -> u64,
    ) -> Result<GoldenRun, SsresfError> {
        self.setup(&mut engine, workload)?;
        self.schedule_shifted(&mut engine, workload, faults);
        let (outputs, mut trace) = self.observed_outputs();
        let mut checkpoints = Vec::new();
        if interval > 0 {
            checkpoints.push(Checkpoint {
                cycle: 0,
                state: engine.snapshot(),
            });
        }
        for done in 1..=workload.run_cycles {
            engine.step_cycle();
            trace.push_row(engine.sample(&outputs));
            if interval > 0 && done % interval == 0 && done < workload.run_cycles {
                checkpoints.push(Checkpoint {
                    cycle: done,
                    state: engine.snapshot(),
                });
            }
        }
        Ok(GoldenRun {
            outcome: RunOutcome {
                trace,
                activity_per_cycle: engine.activity_per_cycle(),
                work: work(&engine),
                engine: engine.telemetry(),
                resumed_from: None,
                early_stopped: false,
            },
            checkpoints,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn drive_resumed<E: Engine>(
        &self,
        mut engine: E,
        workload: &Workload,
        faults: &[Fault],
        golden: &GoldenRun,
        start: &Checkpoint,
        early_stop: bool,
        work: impl Fn(&E) -> u64,
    ) -> Result<RunOutcome, SsresfError> {
        engine.restore(&start.state);
        let resumed_at = work(&engine);
        let telemetry_base = engine.telemetry();
        self.schedule_shifted(&mut engine, workload, faults);
        let (outputs, mut trace) = self.observed_outputs();
        for row in &golden.outcome.trace.rows[..start.cycle as usize] {
            trace.push_row(row.clone());
        }
        let last_fault = faults.iter().map(Fault::cycle).max().unwrap_or(0);
        let mut early_stopped = false;
        for done in (start.cycle + 1)..=workload.run_cycles {
            engine.step_cycle();
            trace.push_row(engine.sample(&outputs));
            if early_stop && done > last_fault {
                let converged = golden
                    .checkpoint_at(done)
                    .is_some_and(|reference| engine.snapshot().converged_with(&reference.state));
                if converged {
                    // The faulty run's state is bit-identical to golden, so
                    // every remaining row is too: fill and stop simulating.
                    for row in &golden.outcome.trace.rows[done as usize..] {
                        trace.push_row(row.clone());
                    }
                    early_stopped = true;
                    break;
                }
            }
        }
        Ok(RunOutcome {
            trace,
            activity_per_cycle: engine.activity_per_cycle(),
            work: work(&engine) - resumed_at,
            engine: engine.telemetry().since(telemetry_base),
            resumed_from: Some(start.cycle),
            early_stopped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssresf_netlist::{CellKind, Design, ModuleBuilder, PortDir};

    fn counter_netlist() -> FlatNetlist {
        let mut design = Design::new();
        let mut mb = ModuleBuilder::new("ctr");
        let clk = mb.port("clk", PortDir::Input);
        let rst_n = mb.port("rst_n", PortDir::Input);
        let q0 = mb.port("q0", PortDir::Output);
        let nq = mb.net("nq");
        mb.cell("u_inv", CellKind::Inv, &[q0], &[nq]).unwrap();
        mb.cell("u_ff", CellKind::Dffr, &[clk, nq, rst_n], &[q0])
            .unwrap();
        let id = design.add_module(mb.finish()).unwrap();
        design.set_top(id).unwrap();
        design.flatten().unwrap()
    }

    #[test]
    fn conventions_find_clock_and_reset() {
        let flat = counter_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        assert_eq!(flat.net_full_name(dut.clock()), "clk");
    }

    #[test]
    fn conventions_match_the_net_name_table() {
        use ssresf_socgen::{build_soc, SocConfig};
        let soc1 = build_soc(&SocConfig::table1()[0])
            .unwrap()
            .design
            .flatten()
            .unwrap();
        let dut = Dut::from_conventions(&soc1).unwrap();
        assert_eq!(Some(dut.clock()), soc1.net_by_name("clk"));
        assert!(soc1.primary_inputs().contains(&dut.clock()));
        let rst_n = soc1.net_by_name("rst_n");
        assert!(rst_n.is_some());
        assert_eq!(dut.reset, rst_n);

        // An `rst_n` that is a top-level net but no input is still found.
        let mut design = Design::new();
        let mut mb = ModuleBuilder::new("internal_reset");
        let clk = mb.port("clk", PortDir::Input);
        let por = mb.port("por", PortDir::Input);
        let q = mb.port("q", PortDir::Output);
        let rst_n = mb.net("rst_n");
        mb.cell("u_rst", CellKind::Buf, &[por], &[rst_n]).unwrap();
        mb.cell("u_ff", CellKind::Dffr, &[clk, q, rst_n], &[q])
            .unwrap();
        let id = design.add_module(mb.finish()).unwrap();
        design.set_top(id).unwrap();
        let flat = design.flatten().unwrap();
        let rst_n = flat.net_by_name("rst_n").unwrap();
        assert!(!flat.primary_inputs().contains(&rst_n));
        assert_eq!(Dut::from_conventions(&flat).unwrap().reset, Some(rst_n));
    }

    #[test]
    fn missing_clock_is_an_error() {
        let mut design = Design::new();
        let mut mb = ModuleBuilder::new("comb");
        let a = mb.port("a", PortDir::Input);
        let y = mb.port("y", PortDir::Output);
        mb.cell("u0", CellKind::Inv, &[a], &[y]).unwrap();
        let id = design.add_module(mb.finish()).unwrap();
        design.set_top(id).unwrap();
        let flat = design.flatten().unwrap();
        assert!(matches!(
            Dut::from_conventions(&flat),
            Err(SsresfError::MissingNet(_))
        ));
    }

    #[test]
    fn both_engines_produce_identical_golden_traces() {
        let flat = counter_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let wl = Workload {
            reset_cycles: 2,
            run_cycles: 12,
        };
        let ev = dut.run(EngineKind::EventDriven, &wl, &[]).unwrap();
        let lv = dut.run(EngineKind::Levelized, &wl, &[]).unwrap();
        assert!(ev.trace.matches(&lv.trace));
        assert_eq!(ev.trace.len(), 12);
        assert!(ev.work > 0 && lv.work > 0);
    }

    #[test]
    fn fault_cycles_are_relative_to_post_reset_time() {
        let flat = counter_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let wl = Workload {
            reset_cycles: 4,
            run_cycles: 10,
        };
        let golden = dut.run(EngineKind::EventDriven, &wl, &[]).unwrap();
        let ff = flat.cell_by_name("u_ff").unwrap();
        let faulty = dut
            .run(
                EngineKind::EventDriven,
                &wl,
                &[Fault::Seu(SeuFault {
                    cell: ff,
                    cycle: 5,
                    offset: 0.1,
                })],
            )
            .unwrap();
        let diffs = golden.trace.diff(&faulty.trace);
        assert!(!diffs.is_empty());
        // The first divergence appears exactly at workload cycle 5.
        assert_eq!(diffs.iter().map(|d| d.cycle).min(), Some(5));
    }

    #[test]
    fn golden_checkpoints_are_spaced_by_interval() {
        let flat = counter_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let wl = Workload {
            reset_cycles: 2,
            run_cycles: 25,
        };
        let golden = dut
            .run_golden_with_checkpoints(EngineKind::EventDriven, &wl, 10)
            .unwrap();
        let cycles: Vec<u64> = golden.checkpoints.iter().map(|c| c.cycle).collect();
        assert_eq!(cycles, vec![0, 10, 20]);
        assert_eq!(golden.nearest_checkpoint(9).unwrap().cycle, 0);
        assert_eq!(golden.nearest_checkpoint(10).unwrap().cycle, 10);
        assert_eq!(golden.nearest_checkpoint(24).unwrap().cycle, 20);
        assert!(golden.checkpoint_at(15).is_none());
        assert_eq!(golden.checkpoint_at(20).unwrap().state().cycle(), 22);

        let none = dut
            .run_golden_with_checkpoints(EngineKind::EventDriven, &wl, 0)
            .unwrap();
        assert!(none.checkpoints.is_empty());
        assert!(none.outcome.trace.matches(&golden.outcome.trace));
    }

    #[test]
    fn resume_matches_from_scratch_for_both_engines() {
        let flat = counter_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let wl = Workload {
            reset_cycles: 3,
            run_cycles: 30,
        };
        let ff = flat.cell_by_name("u_ff").unwrap();
        for kind in [EngineKind::EventDriven, EngineKind::Levelized] {
            let golden = dut.run_golden_with_checkpoints(kind, &wl, 8).unwrap();
            // Mid-interval, exactly on a checkpoint boundary, and cycle 0.
            for cycle in [13, 16, 0] {
                let fault = Fault::Seu(SeuFault {
                    cell: ff,
                    cycle,
                    offset: 0.2,
                });
                let scratch = dut.run(kind, &wl, &[fault]).unwrap();
                let resumed = dut.resume(kind, &wl, &[fault], &golden, false).unwrap();
                assert!(
                    scratch.trace.matches(&resumed.trace),
                    "{} fault at {cycle} diverges",
                    kind.name()
                );
                assert!(resumed.work <= scratch.work);
            }
        }
    }

    #[test]
    fn batch_queue_honors_cancellation_between_refill_rounds() {
        use std::cell::Cell;
        let flat = counter_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let wl = Workload {
            reset_cycles: 2,
            run_cycles: 40,
        };
        let golden = dut
            .run_golden_with_checkpoints(EngineKind::Levelized, &wl, 8)
            .unwrap();
        let ff = flat.cell_by_name("u_ff").unwrap();
        let faults: Vec<Fault> = (0..6)
            .map(|i| {
                Fault::Seu(SeuFault {
                    cell: ff,
                    cycle: 1 + 2 * i,
                    offset: 0.1,
                })
            })
            .collect();

        // Baseline: no cancel hook and a never-firing hook are identical.
        let base = dut
            .run_batch_queue::<1>(&wl, &faults, &golden, false, true, None)
            .unwrap();
        assert!(!base.cancelled);
        assert!(base.faults.iter().all(Option::is_some));
        let never = dut
            .run_batch_queue::<1>(
                &wl,
                &faults,
                &golden,
                false,
                true,
                Some(&(|| false) as &dyn Fn() -> bool),
            )
            .unwrap();
        assert_eq!(base, never);

        // A cancel firing on the third poll lands mid-batch: simulation
        // work was already spent, but no verdict is finalized and the
        // outcome says so.
        let polls = Cell::new(0u32);
        let cancel = || {
            polls.set(polls.get() + 1);
            polls.get() >= 3
        };
        let out = dut
            .run_batch_queue::<1>(
                &wl,
                &faults,
                &golden,
                false,
                true,
                Some(&cancel as &dyn Fn() -> bool),
            )
            .unwrap();
        assert!(out.cancelled);
        assert!(out.work > 0, "cancellation fired before any simulation");
        assert!(
            out.work < base.work,
            "cancellation did not truncate the sweep"
        );
        assert!(
            out.faults.iter().any(Option::is_none),
            "mid-batch cancel left no unfinished fault"
        );

        // A pre-set cancellation returns before any sweep starts.
        let pre = dut
            .run_batch_queue::<1>(
                &wl,
                &faults,
                &golden,
                false,
                true,
                Some(&(|| true) as &dyn Fn() -> bool),
            )
            .unwrap();
        assert!(pre.cancelled);
        assert_eq!(pre.work, 0);
        assert!(pre.occupancy.is_empty());
        assert!(pre.faults.iter().all(Option::is_none));
    }

    #[test]
    fn activity_is_normalized_per_cycle() {
        let flat = counter_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let out = dut
            .run(EngineKind::EventDriven, &Workload::default(), &[])
            .unwrap();
        let q0 = flat.net_by_name("q0").unwrap();
        // The toggler flips every cycle.
        assert!(out.activity_per_cycle[q0.index()] > 0.5);
    }
}
