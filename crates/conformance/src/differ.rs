//! The differential runner: one scenario, three engines, ten checks.
//!
//! [`check_with_mutant`] executes a [`Scenario`] on the reference
//! [`OracleEngine`] and both production engines and verifies, in order:
//!
//! 1. **Golden three-way agreement** — all engines produce the identical
//!    primary-output trace on the fault-free run.
//! 2. **X-propagation monotonicity** — holding a subset of inputs at `X`
//!    may only *undefine* output samples, never change a defined value
//!    (all cell operators are X-pessimistic and monotone).
//! 3. **VCD round-trip** — the golden waveform survives write/parse.
//! 4. **Snapshot/restore roundtrip** — every engine, snapshotted mid-run
//!    and restored into a fresh instance, replays a bit-identical tail and
//!    converges with the uninterrupted run.
//! 5. **Faulty differential** — the oracle and the levelized engine (which
//!    share cycle-resolution fault semantics) agree on the full trace of a
//!    faulty run.
//! 6. **Campaign differential** — from-scratch, checkpointed and
//!    checkpointed+early-stop campaigns over the scenario's fault targets
//!    produce bit-identical records, and the campaign's golden trace
//!    matches the oracle's.
//! 7. **Metrics determinism** — attaching a [`MetricsRegistry`] changes no
//!    injection record, and the deterministic JSON metrics export is
//!    byte-identical across repeat runs of the same seed.
//! 8. **Batched-campaign differential** — a bit-parallel batched campaign
//!    (scratch, checkpointed, and checkpointed+early-stop) produces records
//!    byte-identical to a scratch scalar levelized campaign over the same
//!    fault targets. Both sides run the one levelized kernel (the scalar
//!    side is its one-word golden lane), so this checks lane packing and
//!    width; checks 1 and 5 hold the kernel to the oracle.
//! 9. **Mission-campaign differential** — a seed-derived multi-segment
//!    mission profile over the same fault targets produces bit-identical
//!    records and per-segment statistics from scratch, checkpointed, and
//!    checkpointed+early-stop runs, with segment totals accounting for
//!    every record.
//! 10. **Sharded-campaign merge equivalence** — splitting the campaign's
//!     injection list into 2 and 4 contiguous shards, running each shard
//!     independently and merging produces records byte-identical to the
//!     single-process campaign; in scalar mode the merged work and engine
//!     telemetry match exactly too.
//!
//! When a mutant is installed the oracle is the *mutated* party, so any
//! scenario whose outputs exercise the mutated gate fails check 1 or 5 —
//! the mutation-smoke property the harness shrinks down to a tiny netlist.

use crate::scenario::Scenario;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssresf::{
    run_campaign, run_campaign_with, run_mission_campaign, run_sharded_campaign, CampaignConfig,
    Dut, EngineKind, Instrument, MetricsRegistry, Workload,
};
use ssresf_netlist::{CellId, FlatNetlist, NetId};
use ssresf_radiation::{MissionProfile, MissionSegment, RadiationEnvironment};
use ssresf_sim::vcd::{parse_vcd, write_vcd};
use ssresf_sim::{
    CycleTrace, Divergence, Engine, EvalMutant, EventDrivenEngine, Fault, LevelizedEngine, Logic,
    OracleEngine, SetFault, SeuFault,
};
use std::fmt::Write as _;

/// VCD timescale units per clock cycle used by the round-trip check.
const VCD_PERIOD: u64 = 10;

/// Shifts a workload-relative fault into absolute engine cycles.
fn shift_fault(fault: &Fault, by: u64) -> Fault {
    match *fault {
        Fault::Seu(f) => Fault::Seu(SeuFault {
            cycle: f.cycle + by,
            ..f
        }),
        Fault::Set(f) => Fault::Set(SetFault {
            cycle: f.cycle + by,
            ..f
        }),
    }
}

/// Renders the first few divergences of a trace mismatch.
fn show_divergences(diffs: &[Divergence]) -> String {
    let mut s = String::new();
    for d in diffs.iter().take(3) {
        let _ = write!(
            s,
            " [cycle {} {}: expected {}, got {}]",
            d.cycle, d.signal, d.expected, d.actual
        );
    }
    if diffs.len() > 3 {
        let _ = write!(s, " (+{} more)", diffs.len() - 3);
    }
    s
}

/// The scenario's stimulus input nets (`in_*`), in index order.
fn stimulus_inputs(scenario: &Scenario, flat: &FlatNetlist) -> Vec<NetId> {
    (0..scenario.circuit.inputs.max(1))
        .map(|i| {
            flat.net_by_name(&format!("in_{i}"))
                .expect("generated inputs are named in_<i>")
        })
        .collect()
}

/// Drives one engine through the scenario's reset and stimulus, sampling
/// all primary outputs each post-reset cycle.
///
/// `stim` is the precomputed stimulus matrix; `mask` marks inputs held at
/// `X` instead of their stimulus value (the X-propagation probe).
fn run_trace<E: Engine>(
    engine: &mut E,
    scenario: &Scenario,
    inputs: &[NetId],
    stim: &[Vec<Logic>],
    mask: &[bool],
) -> CycleTrace {
    let flat = engine.netlist();
    let outputs: Vec<NetId> = flat.primary_outputs().to_vec();
    let names: Vec<String> = outputs.iter().map(|&n| flat.net_full_name(n)).collect();
    let rst = flat
        .net_by_name("rst_n")
        .expect("generated circuits have rst_n");

    engine.poke(rst, Logic::Zero);
    for _ in 0..scenario.reset_cycles {
        engine.step_cycle();
    }
    engine.poke(rst, Logic::One);

    let mut trace = CycleTrace::new(names);
    for row in stim.iter().take(scenario.run_cycles as usize) {
        for (i, &net) in inputs.iter().enumerate() {
            let v = if mask.get(i).copied().unwrap_or(false) {
                Logic::X
            } else {
                row[i]
            };
            engine.poke(net, v);
        }
        engine.step_cycle();
        trace.push_row(engine.sample(&outputs));
    }
    trace
}

/// Continues an already-positioned engine from post-reset cycle `from` to
/// the end of the scenario, sampling each cycle.
fn run_tail<E: Engine>(
    engine: &mut E,
    scenario: &Scenario,
    inputs: &[NetId],
    stim: &[Vec<Logic>],
    from: u64,
) -> Vec<Vec<Logic>> {
    let outputs: Vec<NetId> = engine.netlist().primary_outputs().to_vec();
    let mut rows = Vec::new();
    for row in stim
        .iter()
        .take(scenario.run_cycles as usize)
        .skip(from as usize)
    {
        for (i, &net) in inputs.iter().enumerate() {
            engine.poke(net, row[i]);
        }
        engine.step_cycle();
        rows.push(engine.sample(&outputs));
    }
    rows
}

/// Positions a fresh engine at the scenario's snapshot cycle, snapshots,
/// finishes the run, then restores the snapshot into a second fresh engine
/// and verifies the replayed tail is bit-identical and the final states
/// converge.
fn check_snapshot_roundtrip<E: Engine>(
    make: impl Fn() -> E,
    scenario: &Scenario,
    inputs: &[NetId],
    stim: &[Vec<Logic>],
) -> Result<(), String> {
    let mut original = make();
    let flat = original.netlist();
    let rst = flat
        .net_by_name("rst_n")
        .expect("generated circuits have rst_n");
    original.poke(rst, Logic::Zero);
    for _ in 0..scenario.reset_cycles {
        original.step_cycle();
    }
    original.poke(rst, Logic::One);
    for row in stim.iter().take(scenario.snapshot_cycle as usize) {
        for (i, &net) in inputs.iter().enumerate() {
            original.poke(net, row[i]);
        }
        original.step_cycle();
    }
    let snap = original.snapshot();
    if snap.cycle() != scenario.reset_cycles + scenario.snapshot_cycle {
        return Err(format!(
            "snapshot-restore[{}]: snapshot reports cycle {}, expected {}",
            original.name(),
            snap.cycle(),
            scenario.reset_cycles + scenario.snapshot_cycle
        ));
    }
    let tail_a = run_tail(
        &mut original,
        scenario,
        inputs,
        stim,
        scenario.snapshot_cycle,
    );

    let mut restored = make();
    restored.restore(&snap);
    if restored.cycle() != snap.cycle() {
        return Err(format!(
            "snapshot-restore[{}]: restore left cycle at {}, snapshot was at {}",
            restored.name(),
            restored.cycle(),
            snap.cycle()
        ));
    }
    let tail_b = run_tail(
        &mut restored,
        scenario,
        inputs,
        stim,
        scenario.snapshot_cycle,
    );
    if tail_a != tail_b {
        let diverged = tail_a
            .iter()
            .zip(&tail_b)
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        return Err(format!(
            "snapshot-restore[{}]: tail diverges at post-snapshot cycle {} (snapshot at {})",
            original.name(),
            diverged,
            scenario.snapshot_cycle
        ));
    }
    if !original.snapshot().converged_with(&restored.snapshot()) {
        return Err(format!(
            "snapshot-restore[{}]: final states did not converge",
            original.name()
        ));
    }
    Ok(())
}

/// Runs every conformance check on `scenario` with an optional eval mutant
/// installed in the oracle. Returns the first failure as a deterministic,
/// human-readable message.
///
/// # Errors
///
/// An `Err` describes the first failing check; scenarios from
/// [`Scenario::from_seed`] only fail when an engine (or the mutated
/// oracle) violates the conformance contract.
pub fn check_with_mutant(scenario: &Scenario, mutant: Option<EvalMutant>) -> Result<(), String> {
    let flat = scenario
        .circuit
        .flatten()
        .map_err(|e| format!("build: generated circuit failed to flatten: {e}"))?;
    let clk = flat
        .net_by_name("clk")
        .expect("generated circuits have clk");
    let inputs = stimulus_inputs(scenario, &flat);
    let stim = scenario.stimulus();
    let no_mask = vec![false; inputs.len()];

    // 1. Golden three-way agreement.
    let mut oracle = OracleEngine::with_mutant(&flat, clk, mutant)
        .map_err(|e| format!("build: oracle rejected the circuit: {e}"))?;
    let golden_oracle = run_trace(&mut oracle, scenario, &inputs, &stim, &no_mask);
    let mut event = EventDrivenEngine::new(&flat, clk)
        .map_err(|e| format!("build: event-driven engine rejected the circuit: {e}"))?;
    let golden_event = run_trace(&mut event, scenario, &inputs, &stim, &no_mask);
    let diffs = golden_oracle.diff(&golden_event);
    if !diffs.is_empty() {
        return Err(format!(
            "golden-trace[event-driven]: disagrees with oracle{}",
            show_divergences(&diffs)
        ));
    }
    let mut lev = LevelizedEngine::new(&flat, clk)
        .map_err(|e| format!("build: levelized engine rejected the circuit: {e}"))?;
    let golden_lev = run_trace(&mut lev, scenario, &inputs, &stim, &no_mask);
    let diffs = golden_oracle.diff(&golden_lev);
    if !diffs.is_empty() {
        return Err(format!(
            "golden-trace[levelized]: disagrees with oracle{}",
            show_divergences(&diffs)
        ));
    }

    // 2. X-propagation monotonicity: an input held at X may only undefine
    //    output samples, never flip a defined value.
    let mut mask = vec![false; inputs.len()];
    let mut mask_rng = StdRng::seed_from_u64(scenario.seed ^ 0x000D_D5EE_D50F_u64);
    for m in mask.iter_mut() {
        *m = mask_rng.gen::<bool>();
    }
    if !mask.iter().any(|&m| m) {
        mask[mask_rng.gen_range(0..inputs.len().max(1))] = true;
    }
    let mut oracle_x = OracleEngine::with_mutant(&flat, clk, mutant)
        .expect("circuit already accepted by an identical oracle");
    let x_trace = run_trace(&mut oracle_x, scenario, &inputs, &stim, &mask);
    for (cycle, (gold_row, x_row)) in golden_oracle.rows.iter().zip(&x_trace.rows).enumerate() {
        for (i, (&g, &x)) in gold_row.iter().zip(x_row).enumerate() {
            if !matches!(x, Logic::X | Logic::Z) && x != g {
                return Err(format!(
                    "x-propagation: masked run flipped a defined value at cycle {cycle} \
                     {}: golden {g}, masked {x}",
                    golden_oracle.signals[i]
                ));
            }
        }
    }

    // 3. VCD round-trip of the golden waveform.
    let wave = golden_oracle.to_wave(VCD_PERIOD);
    let text = write_vcd(&wave);
    match parse_vcd(&text) {
        Err(e) => return Err(format!("vcd-roundtrip: parse failed: {e}")),
        Ok(parsed) if parsed != wave => {
            return Err("vcd-roundtrip: parsed waveform differs from written one".to_owned());
        }
        Ok(_) => {}
    }

    // 4. Snapshot/restore roundtrip on every engine.
    check_snapshot_roundtrip(
        || OracleEngine::with_mutant(&flat, clk, mutant).expect("circuit already accepted"),
        scenario,
        &inputs,
        &stim,
    )?;
    check_snapshot_roundtrip(
        || EventDrivenEngine::new(&flat, clk).expect("circuit already accepted"),
        scenario,
        &inputs,
        &stim,
    )?;
    check_snapshot_roundtrip(
        || LevelizedEngine::new(&flat, clk).expect("circuit already accepted"),
        scenario,
        &inputs,
        &stim,
    )?;

    // 5. Faulty differential: oracle and levelized share cycle-resolution
    //    fault semantics, so full faulty traces must agree. Engines count
    //    absolute cycles, so workload-relative fault cycles shift by the
    //    reset length.
    let faults = scenario.resolve_faults(&flat);
    let mut oracle_f = OracleEngine::with_mutant(&flat, clk, mutant)
        .expect("circuit already accepted by an identical oracle");
    let mut lev_f = LevelizedEngine::new(&flat, clk).expect("circuit already accepted");
    for fault in &faults {
        oracle_f.schedule_fault(shift_fault(fault, scenario.reset_cycles));
        lev_f.schedule_fault(shift_fault(fault, scenario.reset_cycles));
    }
    let faulty_oracle = run_trace(&mut oracle_f, scenario, &inputs, &stim, &no_mask);
    let faulty_lev = run_trace(&mut lev_f, scenario, &inputs, &stim, &no_mask);
    let diffs = faulty_oracle.diff(&faulty_lev);
    if !diffs.is_empty() {
        return Err(format!(
            "faulty-trace[levelized]: disagrees with oracle under {} fault(s){}",
            faults.len(),
            show_divergences(&diffs)
        ));
    }

    // 6.–10. Campaign differentials (meaningful only against an unmutated
    //    oracle: the campaign always runs production engines).
    if mutant.is_none() {
        check_campaigns(scenario, &flat)?;
        check_batched_campaign(scenario, &flat)?;
        check_mission_campaign(scenario, &flat)?;
        check_sharded_campaign(scenario, &flat)?;
    }
    Ok(())
}

/// [`check_with_mutant`] without a mutant.
///
/// # Errors
///
/// See [`check_with_mutant`].
pub fn check(scenario: &Scenario) -> Result<(), String> {
    check_with_mutant(scenario, None)
}

/// From-scratch vs checkpointed vs checkpointed+early-stop campaigns over
/// the scenario's fault targets must produce bit-identical records.
fn check_campaigns(scenario: &Scenario, flat: &FlatNetlist) -> Result<(), String> {
    let dut = Dut::from_conventions(flat).map_err(|e| format!("campaign: no DUT: {e}"))?;
    let mut cells: Vec<CellId> = scenario
        .faults
        .iter()
        .map(|f| CellId((f.cell as usize % flat.cells().len()) as u32))
        .collect();
    cells.sort();
    cells.dedup();
    let base = CampaignConfig {
        workload: Workload {
            reset_cycles: scenario.reset_cycles,
            run_cycles: scenario.run_cycles,
        },
        injections_per_cell: 1,
        seed: scenario.seed,
        engine: if scenario.seed.is_multiple_of(2) {
            EngineKind::EventDriven
        } else {
            EngineKind::Levelized
        },
        threads: 1,
        checkpoint_interval: 0,
        early_stop: false,
        ..CampaignConfig::default()
    };
    let scratch = run_campaign(&dut, &cells, &base)
        .map_err(|e| format!("campaign: from-scratch run failed: {e}"))?;
    let checkpointed = run_campaign(
        &dut,
        &cells,
        &CampaignConfig {
            checkpoint_interval: scenario.checkpoint_interval,
            ..base
        },
    )
    .map_err(|e| format!("campaign: checkpointed run failed: {e}"))?;
    let stopped = run_campaign(
        &dut,
        &cells,
        &CampaignConfig {
            checkpoint_interval: scenario.checkpoint_interval,
            early_stop: true,
            ..base
        },
    )
    .map_err(|e| format!("campaign: early-stop run failed: {e}"))?;

    if scratch.golden != checkpointed.golden || scratch.golden != stopped.golden {
        return Err("campaign: golden traces differ across checkpoint modes".to_owned());
    }
    if scratch.records != checkpointed.records {
        return Err(format!(
            "campaign: checkpointed records differ from from-scratch \
             (interval {})",
            scenario.checkpoint_interval
        ));
    }
    if scratch.records != stopped.records {
        return Err(format!(
            "campaign: early-stop records differ from from-scratch \
             (interval {})",
            scenario.checkpoint_interval
        ));
    }

    // The campaign drives no input stimulus, so its golden trace must match
    // an oracle run with undriven (X) inputs.
    let clk = flat.net_by_name("clk").expect("DUT has clk");
    let mut oracle = OracleEngine::new(flat, clk).expect("circuit already accepted");
    let mask = vec![true; scenario.circuit.inputs.max(1)];
    let inputs = stimulus_inputs(scenario, flat);
    let stim = scenario.stimulus();
    let oracle_golden = run_trace(&mut oracle, scenario, &inputs, &stim, &mask);
    let diffs = oracle_golden.diff(&scratch.golden);
    if !diffs.is_empty() {
        return Err(format!(
            "campaign: golden trace disagrees with oracle{}",
            show_divergences(&diffs)
        ));
    }

    // 7. Metrics determinism: instrumentation is purely observational, and
    //    the deterministic export is byte-stable across repeat runs.
    let mut exports = Vec::with_capacity(2);
    for repeat in 0..2 {
        let metrics = MetricsRegistry::new();
        let instrumented =
            run_campaign_with(&dut, &cells, &base, &Instrument::with_metrics(&metrics))
                .map_err(|e| format!("campaign: instrumented run {repeat} failed: {e}"))?;
        if scratch.records != instrumented.records {
            return Err(format!(
                "campaign: attaching metrics changed the records (run {repeat})"
            ));
        }
        exports.push(metrics.to_json_deterministic().to_string_pretty());
    }
    if exports[0] != exports[1] {
        return Err("campaign: deterministic metrics export differs across repeat runs".to_owned());
    }
    Ok(())
}

/// 8. Bit-parallel batched campaigns — from scratch, under checkpointed
///    fast-forward, with early stop, at every supported lane width
///    (64/256/512), and with fault-list collapsing plus early lane
///    retirement — must produce records byte-identical to a scratch scalar
///    levelized campaign over the same fault targets.
fn check_batched_campaign(scenario: &Scenario, flat: &FlatNetlist) -> Result<(), String> {
    let dut = Dut::from_conventions(flat).map_err(|e| format!("batched: no DUT: {e}"))?;
    let mut cells: Vec<CellId> = scenario
        .faults
        .iter()
        .map(|f| CellId((f.cell as usize % flat.cells().len()) as u32))
        .collect();
    cells.sort();
    cells.dedup();
    // Batching is levelized-only, so both sides pin that engine (unlike
    // check 6, which alternates engines by seed parity).
    let base = CampaignConfig {
        workload: Workload {
            reset_cycles: scenario.reset_cycles,
            run_cycles: scenario.run_cycles,
        },
        injections_per_cell: 1,
        seed: scenario.seed,
        engine: EngineKind::Levelized,
        threads: 1,
        checkpoint_interval: 0,
        early_stop: false,
        ..CampaignConfig::default()
    };
    let scalar = run_campaign(&dut, &cells, &base)
        .map_err(|e| format!("batched: scalar reference run failed: {e}"))?;
    // Each width runs a plain scratch config and the full fast path
    // (checkpointed + early-stop + collapsing + lane refill); width 64
    // additionally covers checkpointing and early stop in isolation.
    let ckpt = scenario.checkpoint_interval;
    for (label, batch_lanes, interval, early_stop, collapse_faults, lane_refill) in [
        ("scratch/64", 64, 0, false, false, false),
        ("checkpointed/64", 64, ckpt, false, false, false),
        ("early-stop/64", 64, ckpt, true, false, false),
        ("collapse-refill/64", 64, ckpt, true, true, true),
        ("scratch/256", 256, 0, false, false, false),
        ("collapse-refill/256", 256, ckpt, true, true, true),
        ("scratch/512", 512, 0, false, false, false),
        ("collapse-refill/512", 512, ckpt, true, true, true),
    ] {
        let batched = run_campaign(
            &dut,
            &cells,
            &CampaignConfig {
                batching: true,
                batch_lanes,
                checkpoint_interval: interval,
                early_stop,
                collapse_faults,
                lane_refill,
                ..base
            },
        )
        .map_err(|e| format!("batched: {label} batched run failed: {e}"))?;
        if scalar.golden != batched.golden {
            return Err(format!(
                "batched: {label} golden trace differs from the scalar campaign's"
            ));
        }
        if scalar.records != batched.records {
            let diverged = scalar
                .records
                .iter()
                .zip(&batched.records)
                .position(|(a, b)| a != b)
                .unwrap_or(0);
            return Err(format!(
                "batched: {label} records differ from the scalar campaign \
                 (first at injection {diverged} of {})",
                scalar.records.len()
            ));
        }
        if batched.telemetry.engine.word_evals == 0 {
            return Err(format!(
                "batched: {label} run reported zero word evaluations"
            ));
        }
    }
    Ok(())
}

/// 9. A seed-derived multi-segment mission profile partitioning the
///    scenario's run window must produce bit-identical records and
///    per-segment statistics from scratch, checkpointed, and
///    checkpointed+early-stop runs, with segment totals accounting for
///    every record.
fn check_mission_campaign(scenario: &Scenario, flat: &FlatNetlist) -> Result<(), String> {
    let dut = Dut::from_conventions(flat).map_err(|e| format!("mission: no DUT: {e}"))?;
    let mut cells: Vec<CellId> = scenario
        .faults
        .iter()
        .map(|f| CellId((f.cell as usize % flat.cells().len()) as u32))
        .collect();
    cells.sort();
    cells.dedup();

    // Seed-derived 2–3 segment split of the run window, each ≥ 1 cycle,
    // rotating through distinct particle presets.
    let total = scenario.run_cycles.max(2);
    let mut rng = StdRng::seed_from_u64(scenario.seed ^ 0x0000_0A15_5107_u64);
    let segment_count: u64 = if total >= 3 && rng.gen::<bool>() {
        3
    } else {
        2
    };
    let mut parts = vec![1u64; segment_count as usize];
    for _ in 0..(total - segment_count) {
        let i = rng.gen_range(0..parts.len());
        parts[i] += 1;
    }
    let presets = [
        RadiationEnvironment::proton(),
        RadiationEnvironment::geo_transfer(),
        RadiationEnvironment::neutron(),
    ];
    let mission = MissionProfile::new(
        parts
            .iter()
            .enumerate()
            .map(|(i, &d)| MissionSegment::new(format!("seg{i}"), d, presets[i % presets.len()]))
            .collect(),
    )
    .map_err(|e| format!("mission: derived profile invalid: {e}"))?;

    let base = CampaignConfig {
        workload: Workload {
            reset_cycles: scenario.reset_cycles,
            run_cycles: scenario.run_cycles,
        },
        injections_per_cell: 2,
        seed: scenario.seed,
        engine: if scenario.seed.is_multiple_of(2) {
            EngineKind::EventDriven
        } else {
            EngineKind::Levelized
        },
        threads: 1,
        checkpoint_interval: 0,
        early_stop: false,
        ..CampaignConfig::default()
    };
    let scratch = run_mission_campaign(&dut, &cells, &base, &mission)
        .map_err(|e| format!("mission: from-scratch run failed: {e}"))?;
    let checkpointed = run_mission_campaign(
        &dut,
        &cells,
        &CampaignConfig {
            checkpoint_interval: scenario.checkpoint_interval,
            ..base
        },
        &mission,
    )
    .map_err(|e| format!("mission: checkpointed run failed: {e}"))?;
    let stopped = run_mission_campaign(
        &dut,
        &cells,
        &CampaignConfig {
            checkpoint_interval: scenario.checkpoint_interval,
            early_stop: true,
            ..base
        },
        &mission,
    )
    .map_err(|e| format!("mission: early-stop run failed: {e}"))?;

    if scratch.campaign.records != checkpointed.campaign.records {
        return Err(format!(
            "mission: checkpointed records differ from from-scratch \
             (interval {}, {} segments)",
            scenario.checkpoint_interval,
            parts.len()
        ));
    }
    if scratch.campaign.records != stopped.campaign.records {
        return Err(format!(
            "mission: early-stop records differ from from-scratch \
             (interval {}, {} segments)",
            scenario.checkpoint_interval,
            parts.len()
        ));
    }
    if scratch.segments != checkpointed.segments || scratch.segments != stopped.segments {
        return Err("mission: per-segment statistics differ across checkpoint modes".to_owned());
    }
    let bucketed: usize = scratch.segments.iter().map(|s| s.injections).sum();
    if bucketed != scratch.campaign.records.len() {
        return Err(format!(
            "mission: segment totals bucket {bucketed} of {} records",
            scratch.campaign.records.len()
        ));
    }
    let errors: usize = scratch.segments.iter().map(|s| s.soft_errors).sum();
    if errors != scratch.campaign.soft_errors() {
        return Err(format!(
            "mission: segment soft-error totals sum to {errors}, campaign saw {}",
            scratch.campaign.soft_errors()
        ));
    }
    Ok(())
}

/// 10. A sharded campaign — the injection list split into contiguous
///     shards, each run independently, the outcomes merged — must produce
///     records byte-identical to the single-process campaign, for 2 and 4
///     shards, scalar and batched. Scalar jobs are packing-independent, so
///     there the merged work and engine telemetry must match exactly too
///     (batched runs pack lanes differently per shard count, which moves
///     work accounting but never a record).
fn check_sharded_campaign(scenario: &Scenario, flat: &FlatNetlist) -> Result<(), String> {
    let dut = Dut::from_conventions(flat).map_err(|e| format!("sharded: no DUT: {e}"))?;
    let mut cells: Vec<CellId> = scenario
        .faults
        .iter()
        .map(|f| CellId((f.cell as usize % flat.cells().len()) as u32))
        .collect();
    cells.sort();
    cells.dedup();
    let scalar = CampaignConfig {
        workload: Workload {
            reset_cycles: scenario.reset_cycles,
            run_cycles: scenario.run_cycles,
        },
        injections_per_cell: 2,
        seed: scenario.seed,
        engine: if scenario.seed.is_multiple_of(2) {
            EngineKind::EventDriven
        } else {
            EngineKind::Levelized
        },
        threads: 1,
        checkpoint_interval: scenario.checkpoint_interval,
        early_stop: false,
        ..CampaignConfig::default()
    };
    let batched = CampaignConfig {
        engine: EngineKind::Levelized,
        batching: true,
        batch_lanes: 64,
        early_stop: true,
        collapse_faults: true,
        lane_refill: true,
        ..scalar
    };
    for (label, config) in [("scalar", &scalar), ("batched", &batched)] {
        let reference = run_campaign(&dut, &cells, config)
            .map_err(|e| format!("sharded: {label} reference run failed: {e}"))?;
        for shard_count in [2usize, 4] {
            let merged =
                run_sharded_campaign(&dut, &cells, config, shard_count, &Instrument::default())
                    .map_err(|e| {
                        format!("sharded: {label}/{shard_count} sharded run failed: {e}")
                    })?;
            if merged.golden != reference.golden {
                return Err(format!(
                    "sharded: {label}/{shard_count} merged golden trace differs \
                     from the single-process campaign's"
                ));
            }
            if merged.records != reference.records {
                let diverged = reference
                    .records
                    .iter()
                    .zip(&merged.records)
                    .position(|(a, b)| a != b)
                    .unwrap_or(0);
                return Err(format!(
                    "sharded: {label}/{shard_count} merged records differ from the \
                     single-process campaign (first at injection {diverged} of {})",
                    reference.records.len()
                ));
            }
            if label == "scalar" {
                if merged.total_work != reference.total_work {
                    return Err(format!(
                        "sharded: scalar/{shard_count} merged work {} differs from \
                         the single-process campaign's {}",
                        merged.total_work, reference.total_work
                    ));
                }
                if merged.telemetry != reference.telemetry {
                    return Err(format!(
                        "sharded: scalar/{shard_count} merged telemetry differs \
                         from the single-process campaign's"
                    ));
                }
            }
        }
    }
    Ok(())
}
