//! Shard-level campaign execution: split an injection job list into
//! contiguous shards, run each independently (in threads, processes or
//! machines), and deterministically merge the shard outcomes back into one
//! [`CampaignOutcome`].
//!
//! Fault generation is per-cell seeded ([`campaign_jobs`] derives each
//! cell's RNG stream from the campaign seed and the cell id alone), so the
//! full job list is a pure function of `(cells, config)` and every shard
//! can regenerate it locally — a shard assignment is just `(shard,
//! shard_count)`. Injections are mutually independent, so contiguous
//! slicing plus concatenation reproduces the single-process record order
//! exactly:
//!
//! - **Records** are byte-identical to
//!   [`run_campaign_with`](crate::campaign::run_campaign_with) for every
//!   execution mode (scalar, batched, collapsed, lane-refill) — each
//!   fault's verdict is exact regardless of which batch carried it.
//! - **Work and engine telemetry** are additionally *exactly* equal in
//!   scalar mode, where per-injection work does not depend on batch
//!   packing. Batched work totals depend on how faults pack into lanes,
//!   which legitimately differs across shard counts.
//!
//! Each shard re-runs the golden reference itself (its cost is charged
//! once by [`merge_shard_outcomes`], never per shard), which is what makes
//! a shard self-contained enough to run in a separate process — see the
//! `ssresf-serve` crate for the process-level coordinator built on top.

use crate::campaign::{
    fault_jobs, run_injection_jobs_with_golden, CampaignConfig, CampaignOutcome, CampaignTelemetry,
};
use crate::error::SsresfError;
use crate::progress::Instrument;
use crate::workload::{Dut, GoldenRun};
use ssresf_netlist::CellId;
use ssresf_sim::{EngineTelemetry, Fault};
use std::ops::Range;
use std::time::{Duration, Instant};

/// One shard's result: the slice of the job list it covered plus the
/// campaign outcome of exactly those jobs (golden cost excluded).
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// This shard's index in `0..shard_count`.
    pub shard: usize,
    /// Total number of shards in the plan.
    pub shard_count: usize,
    /// The half-open job-index range this shard covered.
    pub jobs: Range<usize>,
    /// Outcome over the shard's jobs; `total_work` and telemetry cover
    /// injections only (the golden cost lives in the fields below).
    pub outcome: CampaignOutcome,
    /// Work of the shard's own golden reference run.
    pub golden_work: u64,
    /// Engine counters of the shard's own golden reference run.
    pub golden_engine: EngineTelemetry,
    /// Wall-clock time of the shard's own golden reference run.
    pub golden_time: Duration,
}

/// The full injection job list for `(cells, config)` — the list
/// [`run_campaign_with`](crate::campaign::run_campaign_with) would
/// execute, in the same order: the one-segment mission at
/// [`CampaignConfig::environment`]'s LET. Deterministic, so every shard can
/// regenerate it locally.
///
/// # Errors
///
/// [`SsresfError::Config`] when `injections_per_cell` is 0.
pub fn campaign_jobs(
    dut: &Dut<'_>,
    cells: &[CellId],
    config: &CampaignConfig,
) -> Result<Vec<(CellId, Fault)>, SsresfError> {
    let let_value = config.environment.let_value;
    fault_jobs(dut, cells, config, |_| let_value)
}

/// Splits `0..total` into `shard_count` contiguous near-equal ranges
/// (earlier shards take the remainder, matching `div_ceil` chunking).
/// Empty trailing ranges appear when `shard_count > total`.
///
/// # Panics
///
/// Panics when `shard_count` is 0.
pub fn plan_shards(total: usize, shard_count: usize) -> Vec<Range<usize>> {
    assert!(shard_count > 0, "a shard plan needs at least one shard");
    let per = total / shard_count;
    let rem = total % shard_count;
    let mut start = 0;
    (0..shard_count)
        .map(|s| {
            let len = per + usize::from(s < rem);
            let range = start..start + len;
            start += len;
            range
        })
        .collect()
}

/// Runs one shard of the campaign: regenerates the job list, takes the
/// shard's contiguous slice, runs its own golden reference and simulates
/// the slice. Hooks apply to this shard's execution (heartbeats report
/// shard-local progress; the cancel flag aborts the shard).
///
/// # Errors
///
/// Propagates configuration and simulation failures;
/// [`SsresfError::Config`] when `shard >= shard_count`.
pub fn run_campaign_shard(
    dut: &Dut<'_>,
    cells: &[CellId],
    config: &CampaignConfig,
    shard: usize,
    shard_count: usize,
    hooks: &Instrument<'_>,
) -> Result<ShardOutcome, SsresfError> {
    run_campaign_shard_with(dut, cells, config, shard, shard_count, hooks, || {
        dut.run_golden_with_checkpoints(config.engine, &config.workload, config.checkpoint_interval)
    })
}

/// [`run_campaign_shard`] with the golden reference supplied by `golden`,
/// e.g. a run memoized in an artifact cache. `golden` is called once, after
/// the shard index and job list are checked; its wall time is the shard's
/// `golden_time`. It must return the run
/// [`Dut::run_golden_with_checkpoints`] gives for `config`.
///
/// # Errors
///
/// As [`run_campaign_shard`], plus whatever `golden` returns.
pub fn run_campaign_shard_with<E: From<SsresfError>>(
    dut: &Dut<'_>,
    cells: &[CellId],
    config: &CampaignConfig,
    shard: usize,
    shard_count: usize,
    hooks: &Instrument<'_>,
    golden: impl FnOnce() -> Result<GoldenRun, E>,
) -> Result<ShardOutcome, E> {
    if shard >= shard_count {
        return Err(SsresfError::Config(format!(
            "shard index {shard} out of range for {shard_count} shards"
        ))
        .into());
    }
    let jobs = campaign_jobs(dut, cells, config)?;
    let range = plan_shards(jobs.len(), shard_count)
        .into_iter()
        .nth(shard)
        .expect("plan covers every shard index");
    let golden_started = Instant::now();
    let golden = golden()?;
    let golden_time = golden_started.elapsed();
    let outcome =
        run_injection_jobs_with_golden(dut, jobs[range.clone()].to_vec(), config, &golden, hooks)?;
    Ok(ShardOutcome {
        shard,
        shard_count,
        jobs: range,
        outcome,
        golden_work: golden.outcome.work,
        golden_engine: golden.outcome.engine,
        golden_time,
    })
}

/// Deterministically merges a complete set of shard outcomes back into
/// one [`CampaignOutcome`]: records concatenate in shard order, injection
/// work and telemetry sum, and the golden cost is charged exactly once —
/// so the merged records are byte-identical to a single-process
/// [`run_campaign_with`](crate::campaign::run_campaign_with), and in
/// scalar mode `total_work` and engine telemetry match exactly too.
///
/// # Errors
///
/// [`SsresfError::Config`] when the set is empty, incomplete, overlapping,
/// out of order, or the shards disagree on the golden trace (which would
/// mean they simulated different netlists or workloads).
pub fn merge_shard_outcomes(shards: &[ShardOutcome]) -> Result<CampaignOutcome, SsresfError> {
    let Some(first) = shards.first() else {
        return Err(SsresfError::Config("no shard outcomes to merge".into()));
    };
    let expected = first.shard_count;
    if shards.len() != expected {
        return Err(SsresfError::Config(format!(
            "expected {expected} shard outcomes, got {}",
            shards.len()
        )));
    }
    let mut next_start = 0usize;
    for (i, shard) in shards.iter().enumerate() {
        if shard.shard != i || shard.shard_count != expected {
            return Err(SsresfError::Config(format!(
                "shard outcomes out of order: slot {i} holds shard {}/{}",
                shard.shard, shard.shard_count
            )));
        }
        if shard.jobs.start != next_start {
            return Err(SsresfError::Config(format!(
                "shard {i} covers jobs {:?} but the previous shard ended at {next_start}",
                shard.jobs
            )));
        }
        next_start = shard.jobs.end;
        if shard.outcome.golden != first.outcome.golden
            || shard.outcome.golden_activity != first.outcome.golden_activity
        {
            return Err(SsresfError::Config(format!(
                "shard {i} produced a different golden trace: the shards did \
                 not simulate the same netlist and workload"
            )));
        }
    }

    let mut merged = CampaignOutcome {
        golden: first.outcome.golden.clone(),
        golden_activity: first.outcome.golden_activity.clone(),
        records: Vec::with_capacity(next_start),
        simulation_time: Duration::ZERO,
        // The golden reference is charged once, from the slowest shard
        // (every shard ran it; in a process fleet they overlap).
        golden_time: shards.iter().map(|s| s.golden_time).max().unwrap(),
        total_work: first.golden_work,
        telemetry: CampaignTelemetry {
            engine: first.golden_engine,
            ..CampaignTelemetry::default()
        },
    };
    for shard in shards {
        merged.records.extend(shard.outcome.records.iter().cloned());
        merged.total_work += shard.outcome.total_work;
        merged.telemetry.accumulate(shard.outcome.telemetry);
        merged.simulation_time += shard.outcome.simulation_time;
    }
    merged.simulation_time += merged.golden_time;
    Ok(merged)
}

/// Convenience single-process sharded run: executes every shard
/// sequentially in this process and merges. Exists for conformance and
/// tests — the point of sharding is the process-level coordinator in
/// `ssresf-serve`, which runs shards in worker processes.
///
/// # Errors
///
/// Propagates shard execution and merge failures.
pub fn run_sharded_campaign(
    dut: &Dut<'_>,
    cells: &[CellId],
    config: &CampaignConfig,
    shard_count: usize,
    hooks: &Instrument<'_>,
) -> Result<CampaignOutcome, SsresfError> {
    let shards = (0..shard_count)
        .map(|s| run_campaign_shard(dut, cells, config, s, shard_count, hooks))
        .collect::<Result<Vec<_>, _>>()?;
    merge_shard_outcomes(&shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign_with;
    use crate::workload::{EngineKind, Workload};
    use ssresf_netlist::{CellKind, Design, FlatNetlist, ModuleBuilder, PortDir};

    fn counter_netlist() -> FlatNetlist {
        let mut design = Design::new();
        let mut mb = ModuleBuilder::new("ctr");
        let clk = mb.port("clk", PortDir::Input);
        let rst_n = mb.port("rst_n", PortDir::Input);
        let mut qs = Vec::new();
        for i in 0..4 {
            qs.push(mb.port(format!("q_{i}"), PortDir::Output));
        }
        let mut carry = qs[0];
        for i in 0..4 {
            let d = mb.net(format!("d_{i}"));
            if i == 0 {
                mb.cell("u_inc_0", CellKind::Inv, &[qs[0]], &[d]).unwrap();
            } else {
                mb.cell(format!("u_inc_{i}"), CellKind::Xor2, &[qs[i], carry], &[d])
                    .unwrap();
                if i + 1 < 4 {
                    let c = mb.net(format!("c_{i}"));
                    mb.cell(format!("u_car_{i}"), CellKind::And2, &[qs[i], carry], &[c])
                        .unwrap();
                    carry = c;
                }
            }
            mb.cell(
                format!("u_ff_{i}"),
                CellKind::Dffr,
                &[clk, d, rst_n],
                &[qs[i]],
            )
            .unwrap();
        }
        let id = design.add_module(mb.finish()).unwrap();
        design.set_top(id).unwrap();
        design.flatten().unwrap()
    }

    #[test]
    fn plans_are_contiguous_and_complete() {
        for (total, shards) in [(10, 3), (7, 7), (3, 5), (0, 2), (100, 1)] {
            let plan = plan_shards(total, shards);
            assert_eq!(plan.len(), shards);
            assert_eq!(plan[0].start, 0);
            assert_eq!(plan.last().unwrap().end, total);
            for w in plan.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            // Near-equal: lengths differ by at most 1.
            let lens: Vec<usize> = plan.iter().map(Range::len).collect();
            assert!(lens.iter().max().unwrap() - lens.iter().min().unwrap() <= 1);
        }
    }

    #[test]
    fn sharded_scalar_run_is_exactly_the_single_process_run() {
        let flat = counter_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let cells: Vec<CellId> = flat.iter_cells().map(|(id, _)| id).collect();
        let config = CampaignConfig {
            workload: Workload {
                reset_cycles: 2,
                run_cycles: 20,
            },
            injections_per_cell: 2,
            threads: 1,
            ..CampaignConfig::default()
        };
        let reference = run_campaign_with(&dut, &cells, &config, &Instrument::default()).unwrap();
        for shard_count in [1, 2, 4] {
            let merged =
                run_sharded_campaign(&dut, &cells, &config, shard_count, &Instrument::default())
                    .unwrap();
            assert_eq!(merged.records, reference.records, "{shard_count} shards");
            assert_eq!(merged.golden, reference.golden);
            assert_eq!(merged.golden_activity, reference.golden_activity);
            assert_eq!(merged.total_work, reference.total_work);
            assert_eq!(merged.telemetry, reference.telemetry);
        }
    }

    #[test]
    fn sharded_batched_records_match_single_process() {
        let flat = counter_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let cells: Vec<CellId> = flat.iter_cells().map(|(id, _)| id).collect();
        let config = CampaignConfig {
            workload: Workload {
                reset_cycles: 2,
                run_cycles: 20,
            },
            injections_per_cell: 2,
            threads: 1,
            engine: EngineKind::Levelized,
            batching: true,
            batch_lanes: 64,
            collapse_faults: true,
            lane_refill: true,
            ..CampaignConfig::default()
        };
        let reference = run_campaign_with(&dut, &cells, &config, &Instrument::default()).unwrap();
        for shard_count in [2, 4] {
            let merged =
                run_sharded_campaign(&dut, &cells, &config, shard_count, &Instrument::default())
                    .unwrap();
            // Verdicts are exact regardless of batch packing, so records
            // stay byte-identical; work totals may differ (packing).
            assert_eq!(merged.records, reference.records, "{shard_count} shards");
            assert_eq!(merged.golden, reference.golden);
        }
    }

    #[test]
    fn merge_rejects_incomplete_or_reordered_sets() {
        let flat = counter_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let cells: Vec<CellId> = flat.iter_cells().map(|(id, _)| id).collect();
        let config = CampaignConfig {
            workload: Workload {
                reset_cycles: 2,
                run_cycles: 10,
            },
            threads: 1,
            ..CampaignConfig::default()
        };
        let hooks = Instrument::default();
        let shards: Vec<ShardOutcome> = (0..2)
            .map(|s| run_campaign_shard(&dut, &cells, &config, s, 2, &hooks).unwrap())
            .collect();
        assert!(merge_shard_outcomes(&[]).is_err());
        assert!(merge_shard_outcomes(&shards[..1]).is_err());
        let swapped = vec![shards[1].clone(), shards[0].clone()];
        assert!(merge_shard_outcomes(&swapped).is_err());
        assert!(merge_shard_outcomes(&shards).is_ok());
    }
}
