//! Mission-profile fault campaigns: segment-aware injection over a
//! time-varying radiation environment.
//!
//! A [`MissionProfile`] partitions the exposure window into ordered
//! segments, each with its own [`ParticleEnvironment`]
//! (see `ssresf_radiation::mission`). [`run_mission_campaign_with`] drives
//! the shared injection engine ([`run_injection_jobs`]) over the whole
//! mission: each injection's strike cycle places it in a segment, and the
//! SET pulse width is sampled at that segment's LET. The outcome carries a
//! per-segment SER breakdown next to the ordinary campaign records.
//!
//! Determinism discipline: fault generation keeps the exact per-cell RNG
//! stream and draw order of the static campaign
//! ([`faults_for_cell`](crate::campaign::faults_for_cell)), so a
//! single-segment mission whose environment matches
//! [`CampaignConfig::environment`] is **bit-identical** to the static
//! campaign — and mission records are byte-identical across thread counts
//! and batch widths for the same reasons the static ones are.

use crate::campaign::{run_injection_jobs, CampaignConfig, CampaignOutcome};
use crate::error::SsresfError;
use crate::progress::Instrument;
use crate::workload::{Dut, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssresf_netlist::CellId;
use ssresf_radiation::{MissionProfile, ParticleEnvironment};
use ssresf_sim::{Fault, SetFault, SeuFault};

/// Per-segment injection statistics of a mission campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentStats {
    /// The segment's label, copied from the profile.
    pub label: String,
    /// First cycle of the segment (mission-absolute).
    pub start_cycle: u64,
    /// Segment length in cycles.
    pub duration_cycles: u64,
    /// Injections whose strike cycle fell in this segment.
    pub injections: usize,
    /// Of those, how many produced a soft error.
    pub soft_errors: usize,
}

impl SegmentStats {
    /// Observed soft-error rate of the segment (0 when it saw no
    /// injections).
    pub fn ser(&self) -> f64 {
        if self.injections == 0 {
            0.0
        } else {
            self.soft_errors as f64 / self.injections as f64
        }
    }
}

/// Outcome of a mission campaign: the ordinary campaign outcome plus the
/// per-segment SER breakdown.
#[derive(Debug, Clone)]
pub struct MissionOutcome {
    /// The underlying campaign outcome (records in job order).
    pub campaign: CampaignOutcome,
    /// Per-segment statistics, in mission order. Injection counts sum to
    /// `campaign.records.len()` exactly.
    pub segments: Vec<SegmentStats>,
}

impl MissionOutcome {
    /// Mission-wide soft-error rate (soft errors / injections).
    pub fn ser(&self) -> f64 {
        let total: usize = self.segments.iter().map(|s| s.injections).sum();
        if total == 0 {
            0.0
        } else {
            let errors: usize = self.segments.iter().map(|s| s.soft_errors).sum();
            errors as f64 / total as f64
        }
    }

    /// Serializes the per-segment breakdown as a JSON object.
    pub fn to_json(&self) -> ssresf_json::Value {
        use ssresf_json::Value;
        let segments: Vec<Value> = self
            .segments
            .iter()
            .map(|s| {
                ssresf_json::object([
                    ("label", Value::String(s.label.clone())),
                    ("start_cycle", Value::Number(s.start_cycle as f64)),
                    ("duration_cycles", Value::Number(s.duration_cycles as f64)),
                    ("injections", Value::Number(s.injections as f64)),
                    ("soft_errors", Value::Number(s.soft_errors as f64)),
                    ("ser", Value::Number(s.ser())),
                ])
            })
            .collect();
        ssresf_json::object([
            ("ser", Value::Number(self.ser())),
            ("segments", Value::Array(segments)),
        ])
    }
}

/// Generates the mission faults for one cell.
///
/// Identical per-cell RNG stream and draw order as
/// [`faults_for_cell`](crate::campaign::faults_for_cell): strike cycle
/// first (uniform over the whole mission), then the sub-cycle offset, then
/// — for combinational cells — one pulse-width draw at the LET of the
/// segment the strike landed in. `sample_width` consumes exactly one draw
/// regardless of LET, so segment boundaries never shift later draws.
pub fn mission_faults_for_cell(
    dut: &Dut<'_>,
    cell: CellId,
    config: &CampaignConfig,
    mission: &MissionProfile,
) -> Vec<Fault> {
    let mut rng = StdRng::seed_from_u64(
        config.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(cell.0) + 1)),
    );
    let info = dut.netlist().cell(cell);
    let total = mission.total_cycles();
    (0..config.injections_per_cell)
        .map(|_| {
            let cycle = rng.gen_range(0..total.max(1));
            let offset = rng.gen::<f64>() * 0.999;
            if info.kind.is_sequential() {
                Fault::Seu(SeuFault {
                    cell,
                    cycle,
                    offset,
                })
            } else {
                let segment = &mission.segments[mission.segment_at(cycle)];
                Fault::Set(SetFault {
                    net: info.output,
                    cycle,
                    offset,
                    width: config
                        .pulse
                        .sample_width(segment.environment.let_value, &mut rng),
                })
            }
        })
        .collect()
}

/// Buckets finished records into per-segment statistics.
pub(crate) fn segment_stats(
    mission: &MissionProfile,
    records: &[crate::campaign::InjectionRecord],
) -> Vec<SegmentStats> {
    let mut stats: Vec<SegmentStats> = mission
        .segments
        .iter()
        .enumerate()
        .map(|(i, s)| SegmentStats {
            label: s.label.clone(),
            start_cycle: mission.segment_start(i),
            duration_cycles: s.duration_cycles,
            injections: 0,
            soft_errors: 0,
        })
        .collect();
    for record in records {
        let idx = mission.segment_at(record.fault.cycle());
        stats[idx].injections += 1;
        if record.soft_error {
            stats[idx].soft_errors += 1;
        }
    }
    stats
}

/// [`run_mission_campaign_with`] without hooks.
///
/// # Errors
///
/// Propagates configuration and simulation failures.
pub fn run_mission_campaign(
    dut: &Dut<'_>,
    cells: &[CellId],
    config: &CampaignConfig,
    mission: &MissionProfile,
) -> Result<MissionOutcome, SsresfError> {
    run_mission_campaign_with(dut, cells, config, mission, &Instrument::default())
}

/// Runs a fault-injection campaign over `cells` under a mission profile.
///
/// `config.workload.run_cycles` is superseded by the mission's total
/// length; `config.environment` is superseded segment-by-segment by the
/// profile. Everything else (engine, threads, checkpointing, early stop,
/// batching) applies unchanged through the shared injection engine.
///
/// When `hooks.metrics` is attached, the per-segment breakdown is
/// published under deterministic `mission.*` counters:
/// `mission.segments`, `mission.cycles.total`, and per segment `i`
/// `mission.segment.i.injections` / `mission.segment.i.soft_errors`.
///
/// # Errors
///
/// Returns [`SsresfError::Config`] for an invalid mission profile (empty,
/// zero-duration segment, non-finite environment) or a zero
/// `injections_per_cell`, and propagates simulation failures.
pub fn run_mission_campaign_with(
    dut: &Dut<'_>,
    cells: &[CellId],
    config: &CampaignConfig,
    mission: &MissionProfile,
    hooks: &Instrument<'_>,
) -> Result<MissionOutcome, SsresfError> {
    mission
        .validate()
        .map_err(|e| SsresfError::Config(e.to_string()))?;
    if config.injections_per_cell == 0 {
        return Err(SsresfError::Config("injections_per_cell is 0".into()));
    }
    let effective = CampaignConfig {
        workload: Workload {
            reset_cycles: config.workload.reset_cycles,
            run_cycles: mission.total_cycles(),
        },
        ..*config
    };
    let jobs: Vec<(CellId, Fault)> = cells
        .iter()
        .flat_map(|&cell| {
            mission_faults_for_cell(dut, cell, config, mission)
                .into_iter()
                .map(move |f| (cell, f))
        })
        .collect();
    let campaign = run_injection_jobs(dut, jobs, &effective, hooks)?;
    let segments = segment_stats(mission, &campaign.records);
    if let Some(metrics) = hooks.metrics {
        record_mission_metrics(metrics, mission, &segments);
    }
    Ok(MissionOutcome { campaign, segments })
}

/// Publishes the per-segment breakdown as deterministic counters (PR 3
/// telemetry rules: no wall-clock quantities here, so the deterministic
/// JSON export stays byte-identical across runs of the same seed).
fn record_mission_metrics(
    metrics: &ssresf_telemetry::MetricsRegistry,
    mission: &MissionProfile,
    segments: &[SegmentStats],
) {
    metrics.counter_add("mission.segments", segments.len() as u64);
    metrics.counter_add("mission.cycles.total", mission.total_cycles());
    for (i, s) in segments.iter().enumerate() {
        metrics.counter_add(
            &format!("mission.segment.{i}.injections"),
            s.injections as u64,
        );
        metrics.counter_add(
            &format!("mission.segment.{i}.soft_errors"),
            s.soft_errors as u64,
        );
    }
}

/// Builds the [`ParticleEnvironment`] equivalent of a static campaign
/// config's environment, for expressing existing configs as single-segment
/// missions.
pub fn environment_of(config: &CampaignConfig) -> ParticleEnvironment {
    ParticleEnvironment::from_beam(config.environment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;
    use crate::workload::EngineKind;
    use ssresf_netlist::{CellKind, Design, FlatNetlist, ModuleBuilder, PortDir};
    use ssresf_radiation::MissionSegment;

    /// Counter + logic cloud: both sequential and combinational targets.
    fn mixed_netlist() -> FlatNetlist {
        let mut design = Design::new();
        let mut mb = ModuleBuilder::new("mix");
        let clk = mb.port("clk", PortDir::Input);
        let rst_n = mb.port("rst_n", PortDir::Input);
        let q0 = mb.port("q0", PortDir::Output);
        let q1 = mb.port("q1", PortDir::Output);
        let y = mb.port("y", PortDir::Output);
        let d0 = mb.net("d0");
        let d1 = mb.net("d1");
        mb.cell("u_inv", CellKind::Inv, &[q0], &[d0]).unwrap();
        mb.cell("u_xor", CellKind::Xor2, &[q0, q1], &[d1]).unwrap();
        mb.cell("u_and", CellKind::And2, &[q0, q1], &[y]).unwrap();
        mb.cell("u_ff0", CellKind::Dffr, &[clk, d0, rst_n], &[q0])
            .unwrap();
        mb.cell("u_ff1", CellKind::Dffr, &[clk, d1, rst_n], &[q1])
            .unwrap();
        let id = design.add_module(mb.finish()).unwrap();
        design.set_top(id).unwrap();
        design.flatten().unwrap()
    }

    fn all_cells(flat: &FlatNetlist) -> Vec<CellId> {
        flat.iter_cells().map(|(id, _)| id).collect()
    }

    #[test]
    fn single_segment_mission_is_bit_identical_to_static_campaign() {
        let flat = mixed_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let cells = all_cells(&flat);
        let config = CampaignConfig {
            workload: Workload {
                reset_cycles: 2,
                run_cycles: 30,
            },
            injections_per_cell: 3,
            ..CampaignConfig::default()
        };
        let static_outcome = run_campaign(&dut, &cells, &config).unwrap();
        let mission = MissionProfile::single("static", 30, environment_of(&config)).unwrap();
        let mission_outcome = run_mission_campaign(&dut, &cells, &config, &mission).unwrap();
        assert_eq!(static_outcome.records, mission_outcome.campaign.records);
        assert_eq!(mission_outcome.segments.len(), 1);
        assert_eq!(
            mission_outcome.segments[0].injections,
            static_outcome.records.len()
        );
    }

    #[test]
    fn segment_totals_sum_to_campaign_totals() {
        let flat = mixed_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let cells = all_cells(&flat);
        let config = CampaignConfig {
            workload: Workload {
                reset_cycles: 2,
                run_cycles: 10,
            },
            injections_per_cell: 4,
            ..CampaignConfig::default()
        };
        let mission = MissionProfile::orbit_with_flare(25, 15).unwrap();
        let outcome = run_mission_campaign(&dut, &cells, &config, &mission).unwrap();
        let injections: usize = outcome.segments.iter().map(|s| s.injections).sum();
        let errors: usize = outcome.segments.iter().map(|s| s.soft_errors).sum();
        assert_eq!(injections, outcome.campaign.records.len());
        assert_eq!(errors, outcome.campaign.soft_errors());
        // Weighted segment SERs reproduce the mission SER exactly.
        let weighted: f64 = outcome
            .segments
            .iter()
            .map(|s| s.ser() * s.injections as f64)
            .sum::<f64>()
            / injections as f64;
        assert!((weighted - outcome.ser()).abs() < 1e-12);
    }

    #[test]
    fn mission_campaign_is_deterministic_across_threads_and_engines() {
        let flat = mixed_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let cells = all_cells(&flat);
        let config = CampaignConfig {
            workload: Workload {
                reset_cycles: 2,
                run_cycles: 10,
            },
            injections_per_cell: 3,
            engine: EngineKind::Levelized,
            ..CampaignConfig::default()
        };
        let mission = MissionProfile::orbit_with_flare(20, 12).unwrap();
        let one = run_mission_campaign(
            &dut,
            &cells,
            &CampaignConfig {
                threads: 1,
                ..config
            },
            &mission,
        )
        .unwrap();
        let four = run_mission_campaign(
            &dut,
            &cells,
            &CampaignConfig {
                threads: 4,
                ..config
            },
            &mission,
        )
        .unwrap();
        assert_eq!(one.campaign.records, four.campaign.records);
        assert_eq!(one.segments, four.segments);
    }

    #[test]
    fn invalid_missions_are_config_errors() {
        let flat = mixed_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let cells = all_cells(&flat);
        let config = CampaignConfig::default();
        let empty = MissionProfile {
            segments: Vec::new(),
        };
        assert!(matches!(
            run_mission_campaign(&dut, &cells, &config, &empty),
            Err(SsresfError::Config(_))
        ));
        let zero = MissionProfile {
            segments: vec![MissionSegment::new("z", 0, ParticleEnvironment::proton())],
        };
        assert!(matches!(
            run_mission_campaign(&dut, &cells, &config, &zero),
            Err(SsresfError::Config(_))
        ));
    }

    #[test]
    fn set_widths_follow_segment_let() {
        // A mission whose second segment has a much higher LET should
        // produce wider SET pulses there (nominal width grows with LET).
        let flat = mixed_netlist();
        let dut = Dut::from_conventions(&flat).unwrap();
        let config = CampaignConfig {
            injections_per_cell: 64,
            ..CampaignConfig::default()
        };
        let mission = MissionProfile::new(vec![
            MissionSegment::new("low", 50, ParticleEnvironment::proton()),
            MissionSegment::new("high", 50, ParticleEnvironment::heavy_ion()),
        ])
        .unwrap();
        let comb = flat.cell_by_name("u_and").unwrap();
        let faults = mission_faults_for_cell(&dut, comb, &config, &mission);
        let mut widths: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
        for fault in &faults {
            if let Fault::Set(f) = fault {
                widths[usize::from(f.cycle >= 50)].push(f.width);
            }
        }
        assert!(!widths[0].is_empty() && !widths[1].is_empty());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&widths[1]) > mean(&widths[0]));
    }
}
