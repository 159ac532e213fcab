//! Fault-injection campaigns over sampled cells.
//!
//! For every cell in the fault-injection list the campaign generates one or
//! more single-particle faults (SEU for state-holding cells, SET with a
//! LET-dependent pulse width for combinational cells), re-simulates the
//! workload, and classifies the run as a soft error when the primary-output
//! trace diverges from the golden run — the paper's VCD-comparison loop.
//! Injections run in parallel across threads; results are deterministic
//! under the configured seed regardless of thread count.
//!
//! The golden run records engine-state checkpoints every
//! [`CampaignConfig::checkpoint_interval`] cycles; each injection then
//! restores the nearest checkpoint at or before its fault cycle instead of
//! re-simulating from reset, and — with [`CampaignConfig::early_stop`] —
//! terminates once its verdict is decided and its state has re-converged
//! with the golden run. Both fast paths are bit-identical to from-scratch
//! simulation by construction.

use crate::error::SsresfError;
use crate::progress::{CampaignProgress, Instrument, ProgressPhase, WorkerUtilization};
use crate::shard::campaign_jobs;
use crate::workload::{Dut, EngineKind, GoldenRun, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssresf_mlcore::{parallel_map, resolve_threads};
use ssresf_netlist::{CellId, CellKind, FlatNetlist, NetId};
use ssresf_radiation::{strike_fault, Let, PulseWidthModel, RadiationEnvironment};
use ssresf_sim::{CycleTrace, EngineTelemetry, Fault};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Campaign configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// Workload length.
    pub workload: Workload,
    /// Radiation environment. Its LET sets the SET pulse widths; its flux
    /// is encoded with the config (so it keys cached results) but no
    /// campaign stage reads it.
    pub environment: RadiationEnvironment,
    /// Faults injected per sampled cell.
    pub injections_per_cell: usize,
    /// SET pulse-width model.
    pub pulse: PulseWidthModel,
    /// Base seed; per-cell streams derive from it.
    pub seed: u64,
    /// Simulation engine.
    pub engine: EngineKind,
    /// Worker threads (0 = all available cores).
    pub threads: usize,
    /// Cycles between golden-run checkpoints that injection runs
    /// fast-forward from (0 disables checkpointing; every run then replays
    /// the workload from reset).
    pub checkpoint_interval: u64,
    /// Terminate a faulty run early once its verdict is decided and its
    /// engine state has re-converged with the golden run at a checkpoint
    /// boundary; the skipped tail is filled from the golden trace, so
    /// records are bit-identical either way. In batched mode a lane
    /// instead retires at the first cycle after its fault has fired where
    /// it has re-converged with the golden lane; with
    /// [`lane_refill`](CampaignConfig::lane_refill) lanes retire whether
    /// or not this is set.
    pub early_stop: bool,
    /// Pack fault instances into bit-parallel batches
    /// ([`Dut::run_batch_queue`]) instead of simulating them one scalar
    /// run at a time. Requires
    /// [`EngineKind::Levelized`] — the event-driven engine resolves
    /// sub-cycle SET timing that cannot be lane-packed. Records are
    /// bit-identical to scalar-mode records for the same seed and config,
    /// across any thread count.
    pub batching: bool,
    /// Upper bound on the lanes per bit-parallel batch: one of
    /// [`ssresf_sim::SUPPORTED_LANE_COUNTS`] (64/256/512, i.e. `LaneWord`
    /// chunk widths 1/4/8). One lane always carries the golden run, so a
    /// batch packs at most `batch_lanes - 1` faults. Each worker runs the
    /// narrowest supported width whose fault lanes hold all of its chunk's
    /// fault classes, and keeps `batch_lanes` when none does; records,
    /// work and telemetry are the same as at `batch_lanes`. Only
    /// meaningful with [`batching`](CampaignConfig::batching).
    pub batch_lanes: usize,
    /// Collapse equivalent faults onto one representative lane: SEUs on
    /// the same flip-flop bit and cycle, and SETs whose nets reach the
    /// same point through single-fanout buffer chains on the same cycle,
    /// share one simulated lane; the verdict scatters back to every
    /// collapsed record. Exact (not approximate) under the levelized
    /// cycle-wide fault semantics, so records stay bit-identical. Requires
    /// [`batching`](CampaignConfig::batching).
    pub collapse_faults: bool,
    /// Retire lanes as soon as their verdict is final (as
    /// [`early_stop`](CampaignConfig::early_stop) does) and refill them
    /// mid-sweep from the pending fault queue instead of leaving them idle
    /// until the sweep ends. Records stay bit-identical. Requires
    /// [`batching`](CampaignConfig::batching).
    pub lane_refill: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            workload: Workload::default(),
            environment: RadiationEnvironment::geo_transfer(),
            injections_per_cell: 1,
            pulse: PulseWidthModel::standard(),
            seed: 3,
            engine: EngineKind::EventDriven,
            threads: 0,
            checkpoint_interval: 10,
            early_stop: false,
            batching: false,
            batch_lanes: ssresf_sim::WORD_LANES,
            collapse_faults: false,
            lane_refill: false,
        }
    }
}

/// The outcome of one injection.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectionRecord {
    /// The struck cell.
    pub cell: CellId,
    /// The injected fault (workload-relative cycle).
    pub fault: Fault,
    /// Whether the primary outputs diverged from the golden run.
    pub soft_error: bool,
    /// Number of divergent (cycle, signal) samples.
    pub divergences: usize,
}

/// Deterministic event counters accumulated over a whole campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignTelemetry {
    /// Engine-level counters summed over the golden run and every
    /// injection run.
    pub engine: EngineTelemetry,
    /// Injection runs that fast-forwarded from a golden checkpoint.
    pub checkpoint_restores: u64,
    /// Injection runs whose simulated tail was truncated by early stop.
    pub early_stop_truncations: u64,
    /// Faults answered by an equivalence-class representative lane instead
    /// of a lane of their own (fault-list collapsing).
    pub collapsed_faults: u64,
    /// Retired lanes rewritten mid-sweep with a fresh pending fault
    /// (queued batching).
    pub lane_refills: u64,
}

impl CampaignTelemetry {
    /// Fieldwise sum.
    pub(crate) fn accumulate(&mut self, other: CampaignTelemetry) {
        self.engine.accumulate(other.engine);
        self.checkpoint_restores += other.checkpoint_restores;
        self.early_stop_truncations += other.early_stop_truncations;
        self.collapsed_faults += other.collapsed_faults;
        self.lane_refills += other.lane_refills;
    }
}

/// Per-cell injection statistics (see
/// [`CampaignOutcome::per_cell_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellErrorStats {
    /// Injections performed into the cell.
    pub injections: usize,
    /// Injections that produced a soft error.
    pub errors: usize,
}

impl CellErrorStats {
    /// Observed soft-error probability (0 when the cell was never
    /// injected).
    pub fn probability(&self) -> f64 {
        if self.injections == 0 {
            0.0
        } else {
            self.errors as f64 / self.injections as f64
        }
    }
}

/// Aggregate campaign outcome.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Golden (fault-free) output trace.
    pub golden: CycleTrace,
    /// Per-net toggle activity of the golden run.
    pub golden_activity: Vec<f64>,
    /// One record per injection, ordered by cell then injection index.
    pub records: Vec<InjectionRecord>,
    /// Wall-clock time spent simulating (golden + all injections).
    pub simulation_time: Duration,
    /// Wall-clock time of the golden run alone (checkpoints included).
    pub golden_time: Duration,
    /// Engine work proxy accumulated over all runs.
    pub total_work: u64,
    /// Deterministic event counters accumulated over all runs.
    pub telemetry: CampaignTelemetry,
}

impl CampaignOutcome {
    /// Number of injections that produced a soft error.
    pub fn soft_errors(&self) -> usize {
        self.records.iter().filter(|r| r.soft_error).count()
    }

    /// Per-cell `(injections, errors)` statistics, built in one pass over
    /// the records.
    pub fn per_cell_stats(&self) -> BTreeMap<CellId, CellErrorStats> {
        let mut stats: BTreeMap<CellId, CellErrorStats> = BTreeMap::new();
        for r in &self.records {
            let entry = stats.entry(r.cell).or_default();
            entry.injections += 1;
            if r.soft_error {
                entry.errors += 1;
            }
        }
        stats
    }
}

/// The injection job list for `cells`, in cell then injection order — the
/// one place faults are drawn for a campaign over sampled cells.
///
/// Each cell draws from its own RNG stream, derived from
/// [`CampaignConfig::seed`] and the cell id alone, so a cell's faults do
/// not depend on which other cells are listed. Each injection draws its
/// strike cycle uniformly over `config.workload.run_cycles`, then maps the
/// strike through [`strike_fault`] at `let_at(cycle)`, the LET in force at
/// that cycle. A static campaign ([`campaign_jobs`]) passes its one
/// environment's LET for every cycle; a mission passes the LET of the
/// segment the strike lands in. `strike_fault` draws one pulse width
/// whatever the LET, so a static campaign and the one-segment mission in
/// the same environment draw the same faults.
///
/// # Errors
///
/// [`SsresfError::Config`] when `injections_per_cell` is 0.
pub(crate) fn fault_jobs(
    dut: &Dut<'_>,
    cells: &[CellId],
    config: &CampaignConfig,
    let_at: impl Fn(u64) -> Let,
) -> Result<Vec<(CellId, Fault)>, SsresfError> {
    if config.injections_per_cell == 0 {
        return Err(SsresfError::Config("injections_per_cell is 0".into()));
    }
    let mut jobs = Vec::new();
    for &cell in cells {
        let mut rng = StdRng::seed_from_u64(
            config.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(cell.0) + 1)),
        );
        for _ in 0..config.injections_per_cell {
            let cycle = rng.gen_range(0..config.workload.run_cycles.max(1));
            let fault = strike_fault(
                dut.netlist(),
                cell,
                cycle,
                let_at(cycle),
                &config.pulse,
                &mut rng,
            );
            jobs.push((cell, fault));
        }
    }
    Ok(jobs)
}

/// Runs the full campaign over `cells`.
///
/// # Errors
///
/// Propagates configuration and simulation failures.
pub fn run_campaign(
    dut: &Dut<'_>,
    cells: &[CellId],
    config: &CampaignConfig,
) -> Result<CampaignOutcome, SsresfError> {
    run_campaign_with(dut, cells, config, &Instrument::default())
}

/// The per-run data a worker keeps besides the record itself.
struct JobResult {
    record: InjectionRecord,
    work: u64,
    engine: EngineTelemetry,
    resumed_from: Option<u64>,
    early_stopped: bool,
}

/// What one worker hands back for its chunk of jobs.
#[derive(Default)]
struct ChunkOutcome {
    /// One slot per job, in job order; `None` where a cancellation stopped
    /// the worker before the job's verdict.
    results: Vec<Option<JobResult>>,
    /// Faults loaded per bit-parallel batch (batched mode only).
    occupancy: Vec<u64>,
    /// Faults answered by a collapsed representative lane.
    collapsed: u64,
    /// Retired lanes refilled mid-sweep.
    refills: u64,
}

/// Precomputed canonical SET sites for fault-list collapsing.
///
/// Collapsing is only ever applied to *exactly* equivalent faults — faults
/// that provably produce identical engine state on every cycle under the
/// levelized (cycle-accurate) fault semantics, so the scattered-back
/// records stay bit-identical to running every fault in its own lane:
///
/// - SEUs on the same sequential cell and cycle: `disturb` ignores the
///   sub-cycle offset entirely.
/// - SETs on the same cycle whose nets reach the same point through
///   single-fanout `Buf` chains: the levelized engine models a SET as a
///   cycle-wide inversion of the net, and an inversion on a buffer's
///   *only* input is observable solely as the same inversion on the
///   buffer's output — including under unknowns, since `Buf` propagates
///   `X` unchanged. Inverter chains are deliberately left alone: `Buf` is
///   the one cell whose transfer function is the identity, which keeps the
///   dominance argument a two-line proof instead of a per-kind case split.
struct CollapseIndex {
    /// For each net: the far end of its single-fanout `Buf` chain, or the
    /// net itself when no such chain leaves it.
    canonical_net: Vec<u32>,
}

impl CollapseIndex {
    fn build(netlist: &FlatNetlist) -> Self {
        let nets = netlist.nets();
        let mut is_po = vec![false; nets.len()];
        for &po in netlist.primary_outputs() {
            is_po[po.index()] = true;
        }
        // One hop down a candidate chain: the net must not be observable
        // (a primary output), must feed exactly one input pin, and that
        // pin must belong to a `Buf`.
        let step = |n: usize| -> Option<usize> {
            let loads = netlist.net(NetId(n as u32)).loads;
            if is_po[n] || loads.len() != 1 {
                return None;
            }
            let reader = netlist.cell(loads[0].0);
            (reader.kind == CellKind::Buf).then(|| reader.output.index())
        };
        let mut canonical: Vec<u32> = (0..nets.len() as u32).collect();
        for (n, slot) in canonical.iter_mut().enumerate() {
            let mut cur = n;
            // The flattened netlist is acyclic through combinational
            // cells, so the walk terminates.
            while let Some(next) = step(cur) {
                cur = next;
            }
            *slot = cur as u32;
        }
        Self {
            canonical_net: canonical,
        }
    }

    /// Equivalence-class key: faults with equal keys are interchangeable
    /// in a batch lane.
    fn key(&self, fault: &Fault) -> (u8, u32, u64) {
        match fault {
            Fault::Seu(f) => (0, f.cell.0, f.cycle),
            Fault::Set(f) => (1, self.canonical_net[f.net.index()], f.cycle),
        }
    }
}

/// Partitions `order` (indices into a job slice, already `(cycle, index)`
/// sorted) into equivalence classes. Returns parallel vectors: the
/// representative job index per class (first member in sorted order, so
/// the list stays cycle-sorted) and every member of each class.
fn collapse_classes(
    jobs: &[(CellId, Fault)],
    order: &[usize],
    collapse: Option<&CollapseIndex>,
) -> (Vec<usize>, Vec<Vec<usize>>) {
    let Some(index) = collapse else {
        return (order.to_vec(), order.iter().map(|&i| vec![i]).collect());
    };
    let mut class_of: BTreeMap<(u8, u32, u64), usize> = BTreeMap::new();
    let mut reps: Vec<usize> = Vec::new();
    let mut members: Vec<Vec<usize>> = Vec::new();
    for &i in order {
        match class_of.entry(index.key(&jobs[i].1)) {
            std::collections::btree_map::Entry::Occupied(e) => {
                members[*e.get()].push(i);
            }
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(reps.len());
                reps.push(i);
                members.push(vec![i]);
            }
        }
    }
    (reps, members)
}

/// The lane count a worker runs `classes` fault classes at: the narrowest
/// supported width whose fault lanes (one lane stays golden) hold every
/// class, never wider than `batch_lanes`; a chunk that fits no narrower
/// width keeps `batch_lanes`.
///
/// Exact: when the whole chunk fits, it loads in the first fill at both
/// widths, so every sweep, refill, restore and word evaluation is the one
/// `batch_lanes` would do — the extra lanes only ever carry golden copies.
fn chunk_lanes(classes: usize, batch_lanes: usize) -> usize {
    ssresf_sim::SUPPORTED_LANE_COUNTS
        .into_iter()
        .find(|&lanes| lanes <= batch_lanes && classes < lanes)
        .unwrap_or(batch_lanes)
}

/// Runs one worker's job chunk through the bit-parallel lane queue at the
/// width [`chunk_lanes`] picks, with optional fault-list collapsing, lane
/// retirement and refilling. Verdicts scatter back to each job's slot in
/// the chunk, so record order — and the records themselves — stay
/// identical to scalar mode.
fn run_batched_chunk(
    dut: &Dut<'_>,
    config: &CampaignConfig,
    golden_run: &GoldenRun,
    collapse: Option<&CollapseIndex>,
    job_chunk: &[(CellId, Fault)],
    cancelled: &dyn Fn() -> bool,
    note_done: &dyn Fn(bool),
) -> Result<ChunkOutcome, SsresfError> {
    // Sorting by fault cycle lets batch-mates share one fast-forward
    // checkpoint and makes equivalence classes contiguous.
    let mut by_cycle: Vec<usize> = (0..job_chunk.len()).collect();
    by_cycle.sort_by_key(|&i| (job_chunk[i].1.cycle(), i));
    let (reps, members) = collapse_classes(job_chunk, &by_cycle, collapse);
    // Dispatch to a compile-time width so the hot loops stay monomorphized
    // over fixed-size chunk arrays.
    let run_queue = match chunk_lanes(reps.len(), config.batch_lanes) {
        256 => Dut::run_batch_queue::<4>,
        512 => Dut::run_batch_queue::<8>,
        _ => Dut::run_batch_queue::<1>,
    };
    // The queue polls `cancelled` before every sweep and once per cycle,
    // so a cancellation lands mid-batch; partially-judged faults keep no
    // verdict (their results are discarded by the cancellation anyway).
    let faults: Vec<Fault> = reps.iter().map(|&i| job_chunk[i].1).collect();
    let out = run_queue(
        dut,
        &config.workload,
        &faults,
        golden_run,
        config.early_stop,
        config.lane_refill,
        Some(cancelled),
    )?;
    let mut results: Vec<Option<JobResult>> = Vec::with_capacity(job_chunk.len());
    results.resize_with(job_chunk.len(), || None);
    // Each class verdict scatters to every member of its class. The
    // chunk's work splits evenly over its jobs via the (k, per, rem)
    // counter so per-injection work sums stay exact; the engine counters
    // go to the first job.
    let n = job_chunk.len() as u64;
    let per = out.work / n;
    let rem = out.work % n;
    let mut k = 0u64;
    for (class, fault_outcome) in out.faults.iter().enumerate() {
        let Some(fault_outcome) = fault_outcome else {
            continue;
        };
        for &i in &members[class] {
            let (cell, fault) = job_chunk[i];
            results[i] = Some(JobResult {
                record: InjectionRecord {
                    cell,
                    fault,
                    soft_error: fault_outcome.soft_error,
                    divergences: fault_outcome.divergences,
                },
                work: per + u64::from(k < rem),
                engine: if k == 0 {
                    out.engine
                } else {
                    EngineTelemetry::default()
                },
                resumed_from: fault_outcome.resumed_from,
                early_stopped: fault_outcome.early_stopped,
            });
            k += 1;
            note_done(fault_outcome.soft_error);
        }
    }
    Ok(ChunkOutcome {
        results,
        occupancy: out.occupancy,
        collapsed: (job_chunk.len() - reps.len()) as u64,
        refills: out.refills,
    })
}

/// Runs one worker's job chunk one scalar injection at a time, each
/// resumed from the nearest golden checkpoint (or from reset when
/// checkpointing is disabled), until the chunk ends or `cancelled` reads
/// true.
fn run_scalar_chunk(
    dut: &Dut<'_>,
    config: &CampaignConfig,
    golden_run: &GoldenRun,
    job_chunk: &[(CellId, Fault)],
    cancelled: &dyn Fn() -> bool,
    note_done: &dyn Fn(bool),
) -> Result<ChunkOutcome, SsresfError> {
    let mut results: Vec<Option<JobResult>> = Vec::with_capacity(job_chunk.len());
    for &(cell, fault) in job_chunk {
        if cancelled() {
            break;
        }
        let outcome = dut.resume(
            config.engine,
            &config.workload,
            std::slice::from_ref(&fault),
            golden_run,
            config.early_stop,
        )?;
        let divergences = golden_run.outcome.trace.diff(&outcome.trace).len();
        let soft_error = divergences > 0;
        results.push(Some(JobResult {
            record: InjectionRecord {
                cell,
                fault,
                soft_error,
                divergences,
            },
            work: outcome.work,
            engine: outcome.engine,
            resumed_from: outcome.resumed_from,
            early_stopped: outcome.early_stopped,
        }));
        note_done(soft_error);
    }
    results.resize_with(job_chunk.len(), || None);
    Ok(ChunkOutcome {
        results,
        ..ChunkOutcome::default()
    })
}

/// [`run_campaign`] with observability hooks attached.
///
/// `hooks.progress` receives a `Start` report after the golden run, a
/// `Heartbeat` every [`Instrument::heartbeat_every`] completed injections,
/// and a final `Finished` report with per-worker utilization.
/// `hooks.metrics` receives campaign counters (`campaign.*`), the
/// `campaign.work_per_injection` histogram, the `stage.golden` /
/// `stage.injections` timings and per-worker gauges. Hooks are
/// observational only: records are bit-identical with or without them.
///
/// # Errors
///
/// Propagates configuration and simulation failures; notably
/// [`SsresfError::Config`] for a zero-injection or zero-cycle workload.
pub fn run_campaign_with(
    dut: &Dut<'_>,
    cells: &[CellId],
    config: &CampaignConfig,
    hooks: &Instrument<'_>,
) -> Result<CampaignOutcome, SsresfError> {
    // Pre-generate every fault so worker threads only simulate.
    run_injection_jobs(dut, campaign_jobs(dut, cells, config)?, config, hooks)
}

/// Runs a pre-generated injection job list: golden run, parallel workers,
/// telemetry. This is the execution engine shared by the static-environment
/// campaign ([`run_campaign_with`]), mission campaigns
/// ([`run_mission_campaign_with`](crate::mission::run_mission_campaign_with))
/// and differential mitigation runs — any caller that can phrase its fault
/// schedule as `(cell, fault)` pairs gets the checkpointing, early-stop,
/// batching and determinism machinery unchanged.
///
/// Records come back in job order regardless of thread count.
///
/// # Errors
///
/// Propagates configuration and simulation failures. The first worker to
/// fail stops the others; when several fail, the error of the first in
/// worker (job) order is reported, whichever failed first in time. A
/// failure takes precedence over an external cancellation
/// ([`SsresfError::Cancelled`]).
pub fn run_injection_jobs(
    dut: &Dut<'_>,
    jobs: Vec<(CellId, Fault)>,
    config: &CampaignConfig,
    hooks: &Instrument<'_>,
) -> Result<CampaignOutcome, SsresfError> {
    validate_job_config(config)?;
    let started = Instant::now();
    // The golden run doubles as the checkpoint source workers fork from.
    let golden = dut.run_golden_with_checkpoints(
        config.engine,
        &config.workload,
        config.checkpoint_interval,
    )?;
    let golden_time = started.elapsed();
    run_jobs_with_golden(dut, jobs, config, hooks, &golden, golden_time, true)
}

/// [`run_injection_jobs`] against a caller-supplied golden run.
///
/// The active-learning loop injects cells over many rounds against the
/// same workload; simulating the golden reference once and passing it here
/// removes the per-round golden cost. The returned outcome charges neither
/// golden time nor golden work (both were paid once by the caller):
/// `golden_time` is zero, and `total_work` / engine telemetry cover only
/// the injections of this call. Records are bit-identical to
/// [`run_injection_jobs`] with the same jobs and config.
///
/// `golden` must come from
/// [`Dut::run_golden_with_checkpoints`](crate::workload::Dut::run_golden_with_checkpoints)
/// with the same engine, workload and checkpoint interval as `config`;
/// a mismatched golden run yields meaningless divergence counts.
///
/// # Errors
///
/// Propagates configuration and simulation failures.
pub fn run_injection_jobs_with_golden(
    dut: &Dut<'_>,
    jobs: Vec<(CellId, Fault)>,
    config: &CampaignConfig,
    golden: &GoldenRun,
    hooks: &Instrument<'_>,
) -> Result<CampaignOutcome, SsresfError> {
    validate_job_config(config)?;
    run_jobs_with_golden(dut, jobs, config, hooks, golden, Duration::ZERO, false)
}

/// Shared configuration validation for the job-level entry points and
/// `Ssresf::validate_config`.
pub(crate) fn validate_job_config(config: &CampaignConfig) -> Result<(), SsresfError> {
    if config.workload.run_cycles == 0 {
        return Err(SsresfError::Config(
            "workload run_cycles is 0: nothing to observe or inject into".into(),
        ));
    }
    if config.batching && config.engine != EngineKind::Levelized {
        return Err(SsresfError::Config(
            "batching requires the levelized engine: the event-driven engine \
             resolves sub-cycle SET timing that cannot be lane-packed"
                .into(),
        ));
    }
    if config.batching && !ssresf_sim::SUPPORTED_LANE_COUNTS.contains(&config.batch_lanes) {
        return Err(SsresfError::Config(format!(
            "batch_lanes must be one of {:?}, got {}",
            ssresf_sim::SUPPORTED_LANE_COUNTS,
            config.batch_lanes
        )));
    }
    if !config.batching && (config.collapse_faults || config.lane_refill) {
        return Err(SsresfError::Config(
            "collapse_faults and lane_refill are batching optimizations and \
             require batching"
                .into(),
        ));
    }
    Ok(())
}

/// The execution engine behind both job-level entry points. When
/// `charge_golden` is false the golden run's work and engine counters are
/// excluded from the outcome (the caller paid them once up front).
fn run_jobs_with_golden(
    dut: &Dut<'_>,
    jobs: Vec<(CellId, Fault)>,
    config: &CampaignConfig,
    hooks: &Instrument<'_>,
    golden: &GoldenRun,
    golden_time: Duration,
    charge_golden: bool,
) -> Result<CampaignOutcome, SsresfError> {
    let started = Instant::now();
    let threads = resolve_threads(config.threads, jobs.len());
    // Raised on the first failure so sibling workers stop simulating
    // chunks whose results will be discarded anyway.
    let stop = AtomicBool::new(false);
    // The caller's cancellation flag (e.g. a serve coordinator relaying a
    // client cancel); polled alongside the internal one.
    let external_cancel = hooks.cancel;
    let is_cancelled = || {
        stop.load(Ordering::Relaxed) || external_cancel.is_some_and(|c| c.load(Ordering::Relaxed))
    };

    // Shared progress state (approximate during the run; the Finished
    // report re-derives exact totals from the records).
    let total = jobs.len();
    let completed = AtomicUsize::new(0);
    let soft_errors = AtomicUsize::new(0);
    let heartbeat = hooks.heartbeat();
    let injections_started = Instant::now();
    if let Some(sink) = hooks.progress {
        sink.report(&CampaignProgress {
            phase: ProgressPhase::Start,
            completed: 0,
            total,
            soft_errors: 0,
            elapsed: Duration::ZERO,
            workers: Vec::new(),
        });
    }
    let note_done = |soft_error: bool| {
        if soft_error {
            soft_errors.fetch_add(1, Ordering::Relaxed);
        }
        let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(sink) = hooks.progress {
            if done.is_multiple_of(heartbeat) && done < total {
                sink.report(&CampaignProgress {
                    phase: ProgressPhase::Heartbeat,
                    completed: done,
                    total,
                    soft_errors: soft_errors.load(Ordering::Relaxed),
                    elapsed: injections_started.elapsed(),
                    workers: Vec::new(),
                });
            }
        }
    };

    // Shared by every worker; cheap to build (one pass over the netlist).
    let collapse_index = config
        .collapse_faults
        .then(|| CollapseIndex::build(dut.netlist()));
    let collapse = collapse_index.as_ref();
    // One contiguous chunk per worker, so records come back in job order.
    let chunk = jobs.len().div_ceil(threads).max(1);
    let chunks: Vec<&[(CellId, Fault)]> = jobs.chunks(chunk).collect();
    let outcomes = parallel_map(&chunks, threads, |worker, &job_chunk| {
        let worker_started = Instant::now();
        let outcome = if config.batching {
            run_batched_chunk(
                dut,
                config,
                golden,
                collapse,
                job_chunk,
                &is_cancelled,
                &note_done,
            )
        } else {
            run_scalar_chunk(dut, config, golden, job_chunk, &is_cancelled, &note_done)
        };
        if outcome.is_err() {
            stop.store(true, Ordering::Relaxed);
        }
        outcome.map(|chunk| {
            let utilization = WorkerUtilization {
                worker,
                jobs: chunk.results.iter().flatten().count(),
                busy: worker_started.elapsed(),
            };
            (utilization, chunk)
        })
    });
    // A failed worker's error wins over the cancellations it caused; among
    // several failures, the first in worker order is reported.
    let outcomes = outcomes.into_iter().collect::<Result<Vec<_>, _>>()?;
    // An external cancellation leaves partial results behind; report the
    // cancellation instead of a partial outcome.
    if external_cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
        return Err(SsresfError::Cancelled);
    }

    let mut records = Vec::with_capacity(jobs.len());
    let mut work_per_injection = Vec::with_capacity(jobs.len());
    let mut total_work = if charge_golden {
        golden.outcome.work
    } else {
        0
    };
    let mut telemetry = CampaignTelemetry {
        engine: if charge_golden {
            golden.outcome.engine
        } else {
            EngineTelemetry::default()
        },
        ..CampaignTelemetry::default()
    };
    let mut worker_stats: Vec<WorkerUtilization> = Vec::with_capacity(outcomes.len());
    let mut batch_occupancy: Vec<u64> = Vec::new();
    for (utilization, chunk) in outcomes {
        worker_stats.push(utilization);
        batch_occupancy.extend(chunk.occupancy);
        telemetry.collapsed_faults += chunk.collapsed;
        telemetry.lane_refills += chunk.refills;
        for slot in chunk.results {
            let result = slot.expect("an uncancelled worker fills every slot");
            records.push(result.record);
            work_per_injection.push(result.work);
            total_work += result.work;
            telemetry.engine.accumulate(result.engine);
            if result.resumed_from.is_some() {
                telemetry.checkpoint_restores += 1;
            }
            if result.early_stopped {
                telemetry.early_stop_truncations += 1;
            }
        }
    }

    let simulation_time = golden_time + started.elapsed();
    if let Some(sink) = hooks.progress {
        sink.report(&CampaignProgress {
            phase: ProgressPhase::Finished,
            completed: records.len(),
            total,
            soft_errors: records.iter().filter(|r| r.soft_error).count(),
            elapsed: injections_started.elapsed(),
            workers: worker_stats.clone(),
        });
    }
    if let Some(metrics) = hooks.metrics {
        record_campaign_metrics(
            metrics,
            &records,
            &work_per_injection,
            &telemetry,
            total_work,
            golden_time,
            simulation_time,
            threads,
            &worker_stats,
            &batch_occupancy,
            config.batching,
        );
    }

    Ok(CampaignOutcome {
        golden: golden.outcome.trace.clone(),
        golden_activity: golden.outcome.activity_per_cycle.clone(),
        records,
        simulation_time,
        golden_time,
        total_work,
        telemetry,
    })
}

/// Publishes one finished campaign into `metrics`.
///
/// Counters and histograms carry only deterministic quantities;
/// wall-clock-derived values go to `timings_s` and suffix-marked gauges so
/// [`MetricsRegistry::to_json_deterministic`] exports stay byte-identical
/// across runs of the same seed.
///
/// [`MetricsRegistry::to_json_deterministic`]: ssresf_telemetry::MetricsRegistry::to_json_deterministic
#[allow(clippy::too_many_arguments)]
fn record_campaign_metrics(
    metrics: &ssresf_telemetry::MetricsRegistry,
    records: &[InjectionRecord],
    work_per_injection: &[u64],
    telemetry: &CampaignTelemetry,
    total_work: u64,
    golden_time: Duration,
    simulation_time: Duration,
    threads: usize,
    worker_stats: &[WorkerUtilization],
    batch_occupancy: &[u64],
    batching: bool,
) {
    metrics.counter_add("campaign.injections.total", records.len() as u64);
    metrics.counter_add(
        "campaign.injections.soft_errors",
        records.iter().filter(|r| r.soft_error).count() as u64,
    );
    metrics.counter_add(
        "campaign.engine.events_processed",
        telemetry.engine.events_processed,
    );
    metrics.counter_add(
        "campaign.engine.cells_evaluated",
        telemetry.engine.cells_evaluated,
    );
    metrics.counter_add(
        "campaign.engine.delta_cycles",
        telemetry.engine.delta_cycles,
    );
    metrics.counter_add(
        "campaign.engine.wheel_advances",
        telemetry.engine.wheel_advances,
    );
    metrics.counter_add("campaign.engine.word_evals", telemetry.engine.word_evals);
    metrics.counter_add(
        "campaign.checkpoint.restores",
        telemetry.checkpoint_restores,
    );
    metrics.counter_add(
        "campaign.early_stop.truncations",
        telemetry.early_stop_truncations,
    );
    metrics.counter_add("campaign.work.total", total_work);
    // Batched-mode-only counters: emitted even when zero so the batched
    // key set is stable across configs, but absent in scalar mode.
    if batching {
        metrics.counter_add(
            "campaign.batch.collapsed_faults",
            telemetry.collapsed_faults,
        );
        metrics.counter_add("campaign.batch.lane_refills", telemetry.lane_refills);
    }
    for &work in work_per_injection {
        metrics.observe("campaign.work_per_injection", work as f64);
    }
    // Lanes filled per bit-parallel batch; absent entirely in scalar mode
    // so the telemetry key set keeps distinguishing the two paths.
    for &filled in batch_occupancy {
        metrics.observe("campaign.batch_occupancy", filled as f64);
    }
    metrics.gauge_set("campaign.threads", threads as f64);
    let elapsed = simulation_time.as_secs_f64();
    let throughput = if elapsed > 0.0 {
        records.len() as f64 / elapsed
    } else {
        0.0
    };
    metrics.gauge_set("campaign.throughput_per_second", throughput);
    for w in worker_stats {
        metrics.gauge_set(&format!("campaign.worker.{}.jobs", w.worker), w.jobs as f64);
        metrics.gauge_set(
            &format!("campaign.worker.{}.busy_seconds", w.worker),
            w.busy.as_secs_f64(),
        );
        let utilization = if elapsed > 0.0 {
            (w.busy.as_secs_f64() / elapsed).min(1.0)
        } else {
            0.0
        };
        metrics.gauge_set(
            &format!("campaign.worker.{}.utilization", w.worker),
            utilization,
        );
    }
    metrics.timing_add("stage.golden", golden_time);
    metrics.timing_add(
        "stage.injections",
        simulation_time.saturating_sub(golden_time),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssresf_netlist::{CellKind, Design, FlatNetlist, ModuleBuilder, PortDir};
    use ssresf_sim::{SetFault, SeuFault};

    /// A 4-bit counter: every FF is observable, so SEUs cause soft errors.
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
    fn seu_on_observable_ffs_always_errors() {
        let flat = counter_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let ffs: Vec<CellId> = flat
            .iter_cells()
            .filter(|(_, c)| c.kind.is_sequential())
            .map(|(id, _)| id)
            .collect();
        let config = CampaignConfig {
            workload: Workload {
                reset_cycles: 2,
                run_cycles: 20,
            },
            injections_per_cell: 2,
            ..CampaignConfig::default()
        };
        let outcome = run_campaign(&dut, &ffs, &config).unwrap();
        assert_eq!(outcome.records.len(), 8);
        // Counter bits are directly observable: every flip is a soft error.
        assert_eq!(outcome.soft_errors(), 8);
        let stats = outcome.per_cell_stats();
        assert_eq!(stats.len(), 4);
        for &ff in &ffs {
            assert_eq!(stats[&ff].probability(), 1.0);
        }
        assert!(outcome.total_work > 0);
    }

    #[test]
    fn results_are_deterministic_across_thread_counts() {
        let flat = counter_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let cells: Vec<CellId> = flat.iter_cells().map(|(id, _)| id).collect();
        let base = CampaignConfig {
            workload: Workload {
                reset_cycles: 2,
                run_cycles: 15,
            },
            ..CampaignConfig::default()
        };
        let one = run_campaign(&dut, &cells, &CampaignConfig { threads: 1, ..base }).unwrap();
        let four = run_campaign(&dut, &cells, &CampaignConfig { threads: 4, ..base }).unwrap();
        assert_eq!(one.records, four.records);
    }

    /// No campaign stage reads `environment.flux`: the injection count is
    /// set per cell and each fault is drawn from the LET alone, so
    /// campaigns that differ only in flux give the same records and work.
    #[test]
    fn flux_changes_neither_records_nor_work() {
        let flat = counter_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let cells: Vec<CellId> = flat.iter_cells().map(|(id, _)| id).collect();
        let base = CampaignConfig {
            workload: Workload {
                reset_cycles: 2,
                run_cycles: 20,
            },
            injections_per_cell: 3,
            threads: 1,
            ..CampaignConfig::default()
        };
        let scalar_event_driven = CampaignConfig {
            engine: EngineKind::EventDriven,
            ..base
        };
        let batched_levelized = CampaignConfig {
            engine: EngineKind::Levelized,
            batching: true,
            ..base
        };
        for config in [scalar_event_driven, batched_levelized] {
            let reference = run_campaign(&dut, &cells, &config).unwrap();
            for flux in [4e8, 8e8, 1e14] {
                let environment = RadiationEnvironment::new(
                    config.environment.let_value,
                    ssresf_radiation::Flux::new(flux),
                );
                let other = run_campaign(
                    &dut,
                    &cells,
                    &CampaignConfig {
                        environment,
                        ..config
                    },
                )
                .unwrap();
                let context = format!(
                    "{:?}, batching {}, flux {flux}",
                    config.engine, config.batching
                );
                assert_eq!(reference.records, other.records, "{context}");
                assert_eq!(reference.total_work, other.total_work, "{context}");
            }
        }
    }

    #[test]
    fn external_cancellation_aborts_scalar_and_batched_campaigns() {
        let flat = counter_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let cells: Vec<CellId> = flat.iter_cells().map(|(id, _)| id).collect();
        let scalar = CampaignConfig {
            workload: Workload {
                reset_cycles: 2,
                run_cycles: 15,
            },
            threads: 1,
            ..CampaignConfig::default()
        };
        let batched = CampaignConfig {
            engine: EngineKind::Levelized,
            batching: true,
            batch_lanes: 64,
            collapse_faults: true,
            lane_refill: true,
            ..scalar
        };
        let unrefilled = CampaignConfig {
            lane_refill: false,
            ..batched
        };
        let flag = AtomicBool::new(true);
        let hooks = Instrument {
            cancel: Some(&flag),
            ..Instrument::default()
        };
        for config in [&scalar, &batched, &unrefilled] {
            assert!(matches!(
                run_campaign_with(&dut, &cells, config, &hooks),
                Err(SsresfError::Cancelled)
            ));
        }
        // An unset flag is inert: records match the uninstrumented run.
        flag.store(false, Ordering::Relaxed);
        for config in [&scalar, &batched, &unrefilled] {
            let plain = run_campaign(&dut, &cells, config).unwrap();
            let hooked = run_campaign_with(&dut, &cells, config, &hooks).unwrap();
            assert_eq!(plain.records, hooked.records);
        }
    }

    #[test]
    fn engines_agree_on_seu_verdicts() {
        let flat = counter_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let ffs: Vec<CellId> = flat
            .iter_cells()
            .filter(|(_, c)| c.kind.is_sequential())
            .map(|(id, _)| id)
            .collect();
        let base = CampaignConfig {
            workload: Workload {
                reset_cycles: 2,
                run_cycles: 20,
            },
            ..CampaignConfig::default()
        };
        let ev = run_campaign(
            &dut,
            &ffs,
            &CampaignConfig {
                engine: EngineKind::EventDriven,
                ..base
            },
        )
        .unwrap();
        let lv = run_campaign(
            &dut,
            &ffs,
            &CampaignConfig {
                engine: EngineKind::Levelized,
                ..base
            },
        )
        .unwrap();
        // SEU semantics are cycle-exact in both engines.
        let verdicts =
            |o: &CampaignOutcome| -> Vec<bool> { o.records.iter().map(|r| r.soft_error).collect() };
        assert_eq!(verdicts(&ev), verdicts(&lv));
    }

    /// A counter whose low bit feeds a 3-stage shift register; upsets in
    /// the shift stages flush out within 3 cycles, so faulty runs
    /// re-converge with the golden run (exercising early stop).
    fn shift_netlist() -> FlatNetlist {
        let mut design = Design::new();
        let mut mb = ModuleBuilder::new("shifter");
        let clk = mb.port("clk", PortDir::Input);
        let rst_n = mb.port("rst_n", PortDir::Input);
        let q0 = mb.port("q0", PortDir::Output);
        let tap = mb.port("tap", PortDir::Output);
        let nq = mb.net("nq");
        mb.cell("u_inv", CellKind::Inv, &[q0], &[nq]).unwrap();
        mb.cell("u_ff", CellKind::Dffr, &[clk, nq, rst_n], &[q0])
            .unwrap();
        let s1 = mb.net("s1");
        let s2 = mb.net("s2");
        mb.cell("u_sh_0", CellKind::Dffr, &[clk, q0, rst_n], &[s1])
            .unwrap();
        mb.cell("u_sh_1", CellKind::Dffr, &[clk, s1, rst_n], &[s2])
            .unwrap();
        mb.cell("u_sh_2", CellKind::Dffr, &[clk, s2, rst_n], &[tap])
            .unwrap();
        let id = design.add_module(mb.finish()).unwrap();
        design.set_top(id).unwrap();
        design.flatten().unwrap()
    }

    #[test]
    fn checkpointed_records_match_from_scratch_and_reduce_work() {
        let flat = counter_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let cells: Vec<CellId> = flat.iter_cells().map(|(id, _)| id).collect();
        let base = CampaignConfig {
            injections_per_cell: 2,
            ..CampaignConfig::default()
        };
        let scratch = run_campaign(
            &dut,
            &cells,
            &CampaignConfig {
                checkpoint_interval: 0,
                ..base
            },
        )
        .unwrap();
        let checkpointed = run_campaign(
            &dut,
            &cells,
            &CampaignConfig {
                checkpoint_interval: 10,
                ..base
            },
        )
        .unwrap();
        assert_eq!(scratch.records, checkpointed.records);
        assert_eq!(scratch.golden, checkpointed.golden);
        // Fault cycles are uniform over the workload, so fast-forwarding
        // skips roughly half of every injection's cycles.
        assert!(
            checkpointed.total_work * 3 < scratch.total_work * 2,
            "checkpointing saved too little: {} vs {}",
            checkpointed.total_work,
            scratch.total_work
        );
    }

    #[test]
    fn early_stop_records_match_and_reduce_work_further() {
        let flat = shift_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let cells: Vec<CellId> = flat.iter_cells().map(|(id, _)| id).collect();
        let base = CampaignConfig {
            workload: Workload {
                reset_cycles: 2,
                run_cycles: 60,
            },
            injections_per_cell: 3,
            checkpoint_interval: 5,
            ..CampaignConfig::default()
        };
        let plain = run_campaign(&dut, &cells, &base).unwrap();
        let stopped = run_campaign(
            &dut,
            &cells,
            &CampaignConfig {
                early_stop: true,
                ..base
            },
        )
        .unwrap();
        assert_eq!(plain.records, stopped.records);
        // Shift-register upsets flush within 3 cycles, so early stop
        // truncates their tails at the next checkpoint boundary.
        assert!(
            stopped.total_work < plain.total_work,
            "early stop saved nothing: {} vs {}",
            stopped.total_work,
            plain.total_work
        );
    }

    #[test]
    fn zero_injections_rejected() {
        let flat = counter_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let config = CampaignConfig {
            injections_per_cell: 0,
            ..CampaignConfig::default()
        };
        assert!(run_campaign(&dut, &[], &config).is_err());
    }

    #[test]
    fn zero_cycle_workload_rejected() {
        let flat = counter_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let cells: Vec<CellId> = flat.iter_cells().map(|(id, _)| id).collect();
        let config = CampaignConfig {
            workload: Workload {
                reset_cycles: 2,
                run_cycles: 0,
            },
            ..CampaignConfig::default()
        };
        assert!(matches!(
            run_campaign(&dut, &cells, &config),
            Err(SsresfError::Config(_))
        ));
    }

    #[test]
    fn campaign_telemetry_counts_runs() {
        let flat = counter_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let cells: Vec<CellId> = flat.iter_cells().map(|(id, _)| id).collect();
        let outcome = run_campaign(
            &dut,
            &cells,
            &CampaignConfig {
                injections_per_cell: 2,
                checkpoint_interval: 10,
                ..CampaignConfig::default()
            },
        )
        .unwrap();
        // Every injection fast-forwarded from a golden checkpoint, and the
        // event-driven engine's counters accumulated across all runs.
        assert_eq!(
            outcome.telemetry.checkpoint_restores,
            outcome.records.len() as u64
        );
        assert!(outcome.telemetry.engine.events_processed > 0);
        assert!(outcome.telemetry.engine.wheel_advances > 0);
        assert_eq!(outcome.telemetry.engine.cells_evaluated, 0);
        assert!(outcome.golden_time <= outcome.simulation_time);
    }

    #[test]
    fn per_cell_stats_match_linear_scan() {
        let flat = counter_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let cells: Vec<CellId> = flat.iter_cells().map(|(id, _)| id).collect();
        let outcome = run_campaign(
            &dut,
            &cells,
            &CampaignConfig {
                injections_per_cell: 3,
                ..CampaignConfig::default()
            },
        )
        .unwrap();
        let stats = outcome.per_cell_stats();
        assert_eq!(stats.len(), cells.len());
        for (&cell, s) in &stats {
            assert_eq!(s.injections, 3);
            let errors = outcome
                .records
                .iter()
                .filter(|r| r.cell == cell && r.soft_error)
                .count();
            assert_eq!(s.errors, errors);
        }
        assert_eq!(CellErrorStats::default().probability(), 0.0);
    }

    /// Sink that keeps every report it receives.
    struct CollectingSink(std::sync::Mutex<Vec<CampaignProgress>>);

    impl crate::progress::ProgressSink for CollectingSink {
        fn report(&self, progress: &CampaignProgress) {
            self.0.lock().unwrap().push(progress.clone());
        }
    }

    #[test]
    fn progress_sink_totals_match_outcome() {
        let flat = counter_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let cells: Vec<CellId> = flat.iter_cells().map(|(id, _)| id).collect();
        let sink = CollectingSink(std::sync::Mutex::new(Vec::new()));
        let config = CampaignConfig {
            injections_per_cell: 2,
            threads: 2,
            ..CampaignConfig::default()
        };
        let hooks = Instrument {
            progress: Some(&sink),
            heartbeat_every: 3,
            ..Instrument::default()
        };
        let outcome = run_campaign_with(&dut, &cells, &config, &hooks).unwrap();
        let reports = sink.0.into_inner().unwrap();

        assert_eq!(reports.first().unwrap().phase, ProgressPhase::Start);
        let finished = reports.last().unwrap();
        assert_eq!(finished.phase, ProgressPhase::Finished);
        assert_eq!(finished.completed, outcome.records.len());
        assert_eq!(finished.total, outcome.records.len());
        assert_eq!(finished.soft_errors, outcome.soft_errors());
        assert_eq!(
            finished.workers.iter().map(|w| w.jobs).sum::<usize>(),
            outcome.records.len()
        );
        // Heartbeats fire every 3 completions and carry monotone progress.
        assert!(reports.iter().any(|r| r.phase == ProgressPhase::Heartbeat));
        for r in &reports {
            assert!(r.completed <= r.total);
            assert!(r.soft_errors <= r.completed);
        }
    }

    #[test]
    fn instrumentation_does_not_change_records() {
        let flat = counter_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let cells: Vec<CellId> = flat.iter_cells().map(|(id, _)| id).collect();
        let config = CampaignConfig {
            injections_per_cell: 2,
            threads: 2,
            ..CampaignConfig::default()
        };
        let plain = run_campaign(&dut, &cells, &config).unwrap();
        let metrics = ssresf_telemetry::MetricsRegistry::new();
        let instrumented =
            run_campaign_with(&dut, &cells, &config, &Instrument::with_metrics(&metrics)).unwrap();
        assert_eq!(plain.records, instrumented.records);
        assert_eq!(plain.golden, instrumented.golden);
        assert_eq!(
            metrics.counter("campaign.injections.total"),
            plain.records.len() as u64
        );
        assert_eq!(
            metrics.counter("campaign.injections.soft_errors"),
            plain.soft_errors() as u64
        );
        assert_eq!(metrics.counter("campaign.work.total"), plain.total_work);
        let hist = metrics.histogram("campaign.work_per_injection").unwrap();
        assert_eq!(hist.count, plain.records.len() as u64);
    }

    /// A shard whose range is empty (more shards than jobs) runs the
    /// executor with no jobs: no worker starts, and the outcome is the
    /// golden run alone.
    #[test]
    fn empty_job_list_yields_golden_only_outcome() {
        let flat = counter_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let scalar = CampaignConfig {
            workload: Workload {
                reset_cycles: 2,
                run_cycles: 15,
            },
            engine: EngineKind::Levelized,
            ..CampaignConfig::default()
        };
        let batched = CampaignConfig {
            batching: true,
            ..scalar
        };
        for base in [scalar, batched] {
            let golden = dut
                .run_golden_with_checkpoints(base.engine, &base.workload, base.checkpoint_interval)
                .unwrap();
            for threads in [0usize, 1, 4] {
                let config = CampaignConfig { threads, ..base };
                let sink = CollectingSink(std::sync::Mutex::new(Vec::new()));
                let metrics = ssresf_telemetry::MetricsRegistry::new();
                let hooks = Instrument {
                    metrics: Some(&metrics),
                    progress: Some(&sink),
                    ..Instrument::default()
                };
                let outcome = run_injection_jobs(&dut, Vec::new(), &config, &hooks).unwrap();
                let context = format!("batching={} threads={threads}", config.batching);
                assert!(outcome.records.is_empty(), "{context}");
                assert_eq!(outcome.total_work, golden.outcome.work, "{context}");
                assert_eq!(outcome.golden, golden.outcome.trace, "{context}");
                let reports = sink.0.into_inner().unwrap();
                let phases: Vec<ProgressPhase> = reports.iter().map(|r| r.phase).collect();
                assert_eq!(
                    phases,
                    [ProgressPhase::Start, ProgressPhase::Finished],
                    "{context}"
                );
                assert!(reports[1].workers.is_empty(), "{context}");
                assert_eq!(metrics.gauge("campaign.threads"), Some(1.0), "{context}");
                assert_eq!(metrics.counter("campaign.injections.total"), 0, "{context}");
            }
        }
    }

    #[test]
    fn batched_records_match_scalar_across_modes_and_threads() {
        let flat = counter_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let cells: Vec<CellId> = flat.iter_cells().map(|(id, _)| id).collect();
        let base = CampaignConfig {
            workload: Workload {
                reset_cycles: 2,
                run_cycles: 30,
            },
            injections_per_cell: 3,
            engine: EngineKind::Levelized,
            ..CampaignConfig::default()
        };
        // Scratch, checkpointed and checkpointed+early-stop, each compared
        // against its scalar twin, across thread counts.
        for (interval, early_stop) in [(0u64, false), (10, false), (10, true)] {
            let mode = CampaignConfig {
                checkpoint_interval: interval,
                early_stop,
                ..base
            };
            let scalar =
                run_campaign(&dut, &cells, &CampaignConfig { threads: 1, ..mode }).unwrap();
            for threads in [1usize, 4] {
                let batched = run_campaign(
                    &dut,
                    &cells,
                    &CampaignConfig {
                        batching: true,
                        threads,
                        ..mode
                    },
                )
                .unwrap();
                assert_eq!(
                    scalar.records, batched.records,
                    "interval={interval} early_stop={early_stop} threads={threads}"
                );
                assert_eq!(scalar.golden, batched.golden);
                assert!(batched.telemetry.engine.word_evals > 0);
            }
        }
    }

    #[test]
    fn batched_early_stop_truncates_on_reconvergent_design() {
        let flat = shift_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        // Inject only into the shift stages, whose upsets flush within 3
        // cycles, so every lane re-converges — a toggler upset never does.
        let cells: Vec<CellId> = flat
            .iter_cells()
            .filter(|(_, c)| c.name.starts_with("u_sh_"))
            .map(|(id, _)| id)
            .collect();
        assert_eq!(cells.len(), 3);
        let base = CampaignConfig {
            workload: Workload {
                reset_cycles: 2,
                run_cycles: 60,
            },
            injections_per_cell: 3,
            engine: EngineKind::Levelized,
            checkpoint_interval: 5,
            batching: true,
            threads: 1,
            ..CampaignConfig::default()
        };
        let plain = run_campaign(&dut, &cells, &base).unwrap();
        let stopped = run_campaign(
            &dut,
            &cells,
            &CampaignConfig {
                early_stop: true,
                ..base
            },
        )
        .unwrap();
        assert_eq!(plain.records, stopped.records);
        // Shift-register upsets flush within 3 cycles, so their lanes
        // retire before the workload end.
        assert!(stopped.telemetry.early_stop_truncations > 0);
        assert!(
            stopped.total_work < plain.total_work,
            "batched early stop saved nothing: {} vs {}",
            stopped.total_work,
            plain.total_work
        );
    }

    /// Regression test: a lane whose fault has not fired yet must not
    /// retire. A pending lane fault marks the lane diverged; without that
    /// gate, the cycle-40 lane here equals the golden lane long before
    /// cycle 40 (the cycle-2 upset re-converges early too) and would
    /// retire before its fault ever fired.
    #[test]
    fn batched_early_stop_waits_for_late_faults_in_mixed_batches() {
        let flat = shift_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let workload = Workload {
            reset_cycles: 2,
            run_cycles: 60,
        };
        let golden = dut
            .run_golden_with_checkpoints(EngineKind::Levelized, &workload, 5)
            .unwrap();
        let seu = |name: &str, cycle: u64| {
            let (id, _) = flat.iter_cells().find(|(_, c)| c.name == name).unwrap();
            Fault::Seu(SeuFault {
                cell: id,
                cycle,
                offset: 0.5,
            })
        };
        let faults = [seu("u_sh_0", 2), seu("u_sh_2", 40)];
        let batch = dut
            .run_batch_queue::<1>(&workload, &faults, &golden, true, false, None)
            .unwrap();
        let lanes: Vec<_> = batch.faults.iter().map(|f| f.unwrap()).collect();
        // Both upsets hit observable shift stages; the second lane can
        // only report one if its cycle-40 injection actually ran.
        assert!(lanes[0].soft_error);
        assert!(lanes[1].soft_error);
        // The tail after the late upset flushes is still truncated.
        assert!(lanes[1].early_stopped);
        // And each lane's verdict matches running its fault alone.
        for (lane, fault) in lanes.iter().zip(&faults) {
            let solo = dut
                .run_batch_queue::<1>(
                    &workload,
                    std::slice::from_ref(fault),
                    &golden,
                    false,
                    false,
                    None,
                )
                .unwrap();
            assert_eq!(lane.divergences, solo.faults[0].unwrap().divergences);
        }
    }

    #[test]
    fn collapsing_and_refill_keep_records_identical_across_widths() {
        // The shift register re-converges after an upset flushes, so
        // retired lanes actually free up for refilling (a counter would
        // diverge forever and never retire a lane).
        let flat = shift_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let cells: Vec<CellId> = flat.iter_cells().map(|(id, _)| id).collect();
        // 5 cells x 20 injections = 100 jobs: more than 63, so the 64-lane
        // queued path must refill retired lanes; a 0..30 cycle range over
        // 20 draws per cell makes same-site collisions (and therefore
        // collapsing) near-certain under the fixed seed.
        let base = CampaignConfig {
            workload: Workload {
                reset_cycles: 2,
                run_cycles: 30,
            },
            injections_per_cell: 20,
            engine: EngineKind::Levelized,
            checkpoint_interval: 5,
            ..CampaignConfig::default()
        };
        let scalar = run_campaign(&dut, &cells, &CampaignConfig { threads: 1, ..base }).unwrap();
        let mut saw_collapse = false;
        let mut saw_refill = false;
        // Work and telemetry of the first width's 3-thread run per mode.
        let mut three_thread: BTreeMap<(bool, bool), (u64, CampaignTelemetry)> = BTreeMap::new();
        for batch_lanes in ssresf_sim::SUPPORTED_LANE_COUNTS {
            for (collapse_faults, lane_refill) in [(true, false), (false, true), (true, true)] {
                for threads in [1usize, 3] {
                    let fast = run_campaign(
                        &dut,
                        &cells,
                        &CampaignConfig {
                            batching: true,
                            batch_lanes,
                            collapse_faults,
                            lane_refill,
                            threads,
                            ..base
                        },
                    )
                    .unwrap();
                    assert_eq!(
                        scalar.records, fast.records,
                        "lanes={batch_lanes} collapse={collapse_faults} \
                         refill={lane_refill} threads={threads}"
                    );
                    assert_eq!(scalar.golden, fast.golden);
                    saw_collapse |= fast.telemetry.collapsed_faults > 0;
                    saw_refill |= fast.telemetry.lane_refills > 0;
                    if !collapse_faults {
                        assert_eq!(fast.telemetry.collapsed_faults, 0);
                    }
                    if !lane_refill {
                        assert_eq!(fast.telemetry.lane_refills, 0);
                    }
                    if threads == 3 {
                        // Each 34-job chunk fits in 63 fault lanes, so it
                        // loads in one fill at every width: the sweeps,
                        // and with them work and every counter, match.
                        let first = *three_thread
                            .entry((collapse_faults, lane_refill))
                            .or_insert((fast.total_work, fast.telemetry));
                        assert_eq!(
                            first,
                            (fast.total_work, fast.telemetry),
                            "lanes={batch_lanes} collapse={collapse_faults} \
                             refill={lane_refill}"
                        );
                    }
                }
            }
        }
        assert!(saw_collapse, "no equivalent faults ever collapsed");
        assert!(saw_refill, "the queued path never refilled a retired lane");
    }

    /// A toggler feeding a two-buffer chain into a capture flop: SETs
    /// anywhere on the chain are exactly equivalent to a SET on the chain
    /// end, so they collapse to one lane per cycle.
    fn buffer_chain_netlist() -> FlatNetlist {
        let mut design = Design::new();
        let mut mb = ModuleBuilder::new("bufchain");
        let clk = mb.port("clk", PortDir::Input);
        let rst_n = mb.port("rst_n", PortDir::Input);
        let q0 = mb.port("q0", PortDir::Output);
        let tap = mb.port("tap", PortDir::Output);
        let nq = mb.net("nq");
        mb.cell("u_inv", CellKind::Inv, &[q0], &[nq]).unwrap();
        mb.cell("u_ff", CellKind::Dffr, &[clk, nq, rst_n], &[q0])
            .unwrap();
        let c1 = mb.net("c1");
        let c2 = mb.net("c2");
        mb.cell("u_buf_0", CellKind::Buf, &[q0], &[c1]).unwrap();
        mb.cell("u_buf_1", CellKind::Buf, &[c1], &[c2]).unwrap();
        mb.cell("u_cap", CellKind::Dffr, &[clk, c2, rst_n], &[tap])
            .unwrap();
        let id = design.add_module(mb.finish()).unwrap();
        design.set_top(id).unwrap();
        design.flatten().unwrap()
    }

    #[test]
    fn collapse_index_canonicalizes_buffer_chains() {
        let flat = buffer_chain_netlist();
        let index = CollapseIndex::build(&flat);
        let net = |name: &str| flat.net_by_name(name).unwrap();
        // c1 feeds only u_buf_1, so it canonicalizes to the chain end c2.
        assert_eq!(index.canonical_net[net("c1").index()], net("c2").0);
        // c2 feeds a flop, not a buffer: it is its own canonical site.
        assert_eq!(index.canonical_net[net("c2").index()], net("c2").0);
        // q0 is a primary output (and fans out to two cells): observable
        // sites never collapse into their readers.
        assert_eq!(index.canonical_net[net("q0").index()], net("q0").0);
        // SETs across the chain on the same cycle share one key; cycles
        // keep classes apart.
        let set = |name: &str, cycle: u64| {
            Fault::Set(SetFault {
                net: net(name),
                cycle,
                offset: 0.25,
                width: 0.5,
            })
        };
        assert_eq!(index.key(&set("c1", 3)), index.key(&set("c2", 3)));
        assert_ne!(index.key(&set("c1", 3)), index.key(&set("c2", 4)));
    }

    #[test]
    fn buffer_chain_sets_collapse_and_match_scalar_records() {
        let flat = buffer_chain_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        // Only the two buffers: 2 cells x 2 SETs over a 2-cycle window all
        // share the canonical site c2, so at most two classes (one per
        // cycle) survive out of 4 jobs — at least 2 faults must collapse.
        let cells: Vec<CellId> = flat
            .iter_cells()
            .filter(|(_, c)| c.name.starts_with("u_buf_"))
            .map(|(id, _)| id)
            .collect();
        assert_eq!(cells.len(), 2);
        let base = CampaignConfig {
            workload: Workload {
                reset_cycles: 2,
                run_cycles: 2,
            },
            injections_per_cell: 2,
            engine: EngineKind::Levelized,
            threads: 1,
            ..CampaignConfig::default()
        };
        let scalar = run_campaign(&dut, &cells, &base).unwrap();
        let collapsed = run_campaign(
            &dut,
            &cells,
            &CampaignConfig {
                batching: true,
                collapse_faults: true,
                ..base
            },
        )
        .unwrap();
        assert_eq!(scalar.records, collapsed.records);
        assert!(collapsed.telemetry.collapsed_faults >= 2);
    }

    #[test]
    fn chunk_lanes_is_the_narrowest_width_that_holds_the_chunk() {
        assert_eq!(chunk_lanes(1, 512), 64);
        assert_eq!(chunk_lanes(63, 512), 64);
        assert_eq!(chunk_lanes(64, 512), 256);
        assert_eq!(chunk_lanes(255, 512), 256);
        assert_eq!(chunk_lanes(256, 512), 512);
        // Never wider than configured, even when the chunk does not fit.
        assert_eq!(chunk_lanes(100, 64), 64);
        assert_eq!(chunk_lanes(600, 256), 256);
        assert_eq!(chunk_lanes(600, 512), 512);
    }

    #[test]
    fn unsupported_batch_lanes_rejected() {
        let flat = counter_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let cells: Vec<CellId> = flat.iter_cells().map(|(id, _)| id).collect();
        let config = CampaignConfig {
            engine: EngineKind::Levelized,
            batching: true,
            batch_lanes: 128,
            ..CampaignConfig::default()
        };
        assert!(matches!(
            run_campaign(&dut, &cells, &config),
            Err(SsresfError::Config(_))
        ));
    }

    #[test]
    fn collapse_and_refill_require_batching() {
        let flat = counter_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let cells: Vec<CellId> = flat.iter_cells().map(|(id, _)| id).collect();
        for (collapse_faults, lane_refill) in [(true, false), (false, true)] {
            let config = CampaignConfig {
                collapse_faults,
                lane_refill,
                ..CampaignConfig::default()
            };
            assert!(matches!(
                run_campaign(&dut, &cells, &config),
                Err(SsresfError::Config(_))
            ));
        }
    }

    #[test]
    fn batching_rejects_the_event_driven_engine() {
        let flat = counter_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let cells: Vec<CellId> = flat.iter_cells().map(|(id, _)| id).collect();
        let config = CampaignConfig {
            engine: EngineKind::EventDriven,
            batching: true,
            ..CampaignConfig::default()
        };
        assert!(matches!(
            run_campaign(&dut, &cells, &config),
            Err(SsresfError::Config(_))
        ));
    }

    #[test]
    fn batching_cuts_per_injection_evaluations_at_least_5x() {
        let flat = counter_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        // 4 FFs x 2 injections = 8 jobs in one 8-lane batch on one thread.
        let ffs: Vec<CellId> = flat
            .iter_cells()
            .filter(|(_, c)| c.kind.is_sequential())
            .map(|(id, _)| id)
            .collect();
        let base = CampaignConfig {
            workload: Workload {
                reset_cycles: 2,
                run_cycles: 40,
            },
            injections_per_cell: 2,
            engine: EngineKind::Levelized,
            threads: 1,
            checkpoint_interval: 0,
            ..CampaignConfig::default()
        };
        let scalar = run_campaign(&dut, &ffs, &base).unwrap();
        let batched = run_campaign(
            &dut,
            &ffs,
            &CampaignConfig {
                batching: true,
                ..base
            },
        )
        .unwrap();
        assert_eq!(scalar.records, batched.records);
        // The golden run is scalar in both modes; isolate injection work.
        let golden_evals = batched.telemetry.engine.cells_evaluated;
        let scalar_inj = scalar.telemetry.engine.cells_evaluated - golden_evals;
        let batched_inj = batched.telemetry.engine.word_evals;
        assert!(batched_inj > 0);
        assert!(
            scalar_inj >= 5 * batched_inj,
            "8-lane batch should cut gate evaluations >=5x: scalar {scalar_inj} vs batched {batched_inj}"
        );
    }

    #[test]
    fn fault_generation_matches_cell_kind() {
        let flat = counter_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let config = CampaignConfig::default();
        for (id, cell) in flat.iter_cells() {
            for (_, fault) in campaign_jobs(&dut, &[id], &config).unwrap() {
                match fault {
                    Fault::Seu(f) => {
                        assert!(cell.kind.is_sequential());
                        assert_eq!(f.cell, id);
                    }
                    Fault::Set(f) => {
                        assert!(cell.kind.is_combinational());
                        assert_eq!(f.net, cell.output);
                        assert!(fault.validate().is_ok());
                    }
                }
            }
        }
    }

    /// Pins the batched work ledger of the `bitparallel` bench's SoC_1
    /// campaign (120 cells x 2 injections on one thread). Without refill or
    /// early stop a 64-lane chunk of 240 faults takes four sweeps to the
    /// workload end; its work, every campaign counter and the batch
    /// occupancy are fixed by that sweep plan. A collapse+refill run is
    /// the control.
    #[test]
    fn batched_work_ledger_is_pinned_on_soc1() {
        use ssresf_socgen::{build_soc, SocConfig};
        let soc = build_soc(&SocConfig::table1()[0]).unwrap();
        let flat = soc.design.flatten().unwrap();
        let dut = Dut::from_conventions(&flat).unwrap();
        let cells: Vec<CellId> = flat
            .iter_cells()
            .map(|(id, _)| id)
            .step_by(3)
            .take(120)
            .collect();
        let base = CampaignConfig {
            workload: Workload {
                reset_cycles: 3,
                run_cycles: 120,
            },
            injections_per_cell: 2,
            engine: EngineKind::Levelized,
            threads: 1,
            batching: true,
            batch_lanes: 64,
            ..CampaignConfig::default()
        };
        // (total work, telemetry, batch occupancy and per-injection work
        // as (count, sum))
        let ledger = |config: CampaignConfig| {
            let metrics = ssresf_telemetry::MetricsRegistry::new();
            let out = run_campaign_with(&dut, &cells, &config, &Instrument::with_metrics(&metrics))
                .unwrap();
            let hist = |name: &str| {
                let h = metrics.histogram(name).unwrap();
                (h.count, h.sum as u64)
            };
            (
                out.total_work,
                out.telemetry,
                hist("campaign.batch_occupancy"),
                hist("campaign.work_per_injection"),
            )
        };
        // The scalar golden run evaluates 109,250 cells in every config.
        let engine = |delta_cycles, word_evals| EngineTelemetry {
            cells_evaluated: 109_250,
            delta_cycles,
            word_evals,
            ..EngineTelemetry::default()
        };
        assert_eq!(
            ledger(CampaignConfig {
                checkpoint_interval: 0,
                ..base
            }),
            (
                528_770,
                CampaignTelemetry {
                    engine: engine(605, 419_520),
                    ..CampaignTelemetry::default()
                },
                (4, 240),
                (240, 419_520),
            )
        );
        assert_eq!(
            ledger(CampaignConfig {
                checkpoint_interval: 10,
                ..base
            }),
            (
                371_450,
                CampaignTelemetry {
                    engine: engine(425, 262_200),
                    checkpoint_restores: 240,
                    ..CampaignTelemetry::default()
                },
                (4, 240),
                (240, 262_200),
            )
        );
        // Control: after collapsing, the 237 classes fit one sweep at 256
        // lanes, and at 64 lanes through refills, for the same work.
        for (batch_lanes, lane_refills) in [(256, 0), (64, 174)] {
            assert_eq!(
                ledger(CampaignConfig {
                    checkpoint_interval: 0,
                    batch_lanes,
                    collapse_faults: true,
                    lane_refill: true,
                    ..base
                }),
                (
                    214_130,
                    CampaignTelemetry {
                        engine: engine(245, 104_880),
                        early_stop_truncations: 184,
                        collapsed_faults: 3,
                        lane_refills,
                        ..CampaignTelemetry::default()
                    },
                    (1, 237),
                    (240, 104_880),
                ),
                "{batch_lanes} lanes"
            );
        }
    }
}
