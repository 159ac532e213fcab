//! Sensitivity-guided selective hardening.
//!
//! The payoff of SSRESF's fast classification: instead of hardening the
//! whole design (≈3× area for full TMR), spend a bounded area budget on the
//! nodes the SVM ranks most sensitive. [`selective_harden`] produces a
//! TMR-hardened copy of the netlist; re-running the injection campaign on
//! the same fault list quantifies the SER reduction per unit area.

use crate::campaign::{run_injection_jobs, CampaignConfig, InjectionRecord};
use crate::error::SsresfError;
use crate::framework::Analysis;
use crate::mission::{
    mission_faults_for_cell, run_mission_campaign_with, segment_stats, MissionOutcome,
};
use crate::progress::Instrument;
use crate::workload::{Dut, Workload};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use ssresf_netlist::{harden::sequential_only, CellId, FlatNetlist, HardeningReport};
use ssresf_radiation::{MissionProfile, WeibullCurve};
use ssresf_sim::Fault;
use std::collections::BTreeSet;

/// How hardening targets are chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HardeningStrategy {
    /// The SVM's predicted-sensitive nodes, ranked by decision value
    /// (most sensitive first) — the SSRESF-guided flow.
    SvmGuided,
    /// Uniformly random sequential cells (the unguided baseline).
    Random {
        /// Selection seed.
        seed: u64,
    },
}

/// Outcome of a selective-hardening pass.
#[derive(Debug, Clone)]
pub struct SelectiveHardening {
    /// The hardened netlist (a transformed copy).
    pub netlist: FlatNetlist,
    /// The transformation report.
    pub report: HardeningReport,
    /// Strategy used.
    pub strategy: HardeningStrategy,
}

/// Hardens up to `budget_fraction` of the netlist's sequential cells,
/// selected by `strategy`, returning a transformed copy.
///
/// # Errors
///
/// Returns [`SsresfError::Config`] for a budget outside `(0, 1]` and
/// propagates netlist-edit failures.
pub fn selective_harden(
    netlist: &FlatNetlist,
    analysis: &Analysis,
    budget_fraction: f64,
    strategy: HardeningStrategy,
) -> Result<SelectiveHardening, SsresfError> {
    if !(budget_fraction > 0.0 && budget_fraction <= 1.0) {
        return Err(SsresfError::Config(format!(
            "hardening budget {budget_fraction} outside (0, 1]"
        )));
    }
    let sequential: Vec<CellId> = netlist
        .iter_cells()
        .filter(|(_, c)| c.kind.is_sequential())
        .map(|(id, _)| id)
        .collect();
    let budget = ((sequential.len() as f64 * budget_fraction).ceil() as usize)
        .min(sequential.len())
        .max(1);

    let targets: Vec<CellId> = match strategy {
        HardeningStrategy::SvmGuided => {
            // Rank predicted-sensitive sequential cells by decision value,
            // reusing the feature records the pipeline already extracted.
            let mut ranked: Vec<(CellId, f64)> = analysis
                .predictions
                .iter()
                .filter(|&&(cell, sensitive)| sensitive && netlist.cell(cell).kind.is_sequential())
                .map(|&(cell, _)| {
                    let features = analysis.features_of(cell);
                    (cell, analysis.classifier.decision(&features.values))
                })
                .collect();
            ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            sequential_only(netlist, &ranked.iter().map(|&(c, _)| c).collect::<Vec<_>>())
                .into_iter()
                .take(budget)
                .collect()
        }
        HardeningStrategy::Random { seed } => {
            let mut pool = sequential.clone();
            pool.shuffle(&mut StdRng::seed_from_u64(seed));
            pool.truncate(budget);
            pool
        }
    };

    let mut hardened = netlist.clone();
    let report = hardened.tmr_harden(&targets)?;
    Ok(SelectiveHardening {
        netlist: hardened,
        report,
        strategy,
    })
}

/// A netlist-level mitigation technique.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MitigationKind {
    /// Triple modular redundancy: targets are triplicated behind a
    /// majority voter ([`FlatNetlist::tmr_harden`]). The SER effect is
    /// simulated — the voter masks single-replica upsets in the re-run
    /// campaign.
    Tmr,
    /// Cell hardening: targets are swapped in place for their
    /// radiation-hardened drop-in variants
    /// ([`FlatNetlist::ff_harden`]). Hardened kinds are
    /// behavior-identical, so the SER effect is physical rather than
    /// logical: a strike whose segment LET is below the hardened cell's
    /// Weibull threshold deposits no upset and is masked without
    /// simulation.
    FfHardening,
}

impl MitigationKind {
    /// Short stable name used in reports and telemetry keys.
    pub fn name(self) -> &'static str {
        match self {
            MitigationKind::Tmr => "tmr",
            MitigationKind::FfHardening => "ff_hardening",
        }
    }
}

/// One mitigation to evaluate differentially: a technique plus its target
/// cells (on the *baseline* netlist's cell ids).
#[derive(Debug, Clone, PartialEq)]
pub struct MitigationPlan {
    /// The technique.
    pub kind: MitigationKind,
    /// Cells to harden.
    pub targets: Vec<CellId>,
}

/// The differential result of one mitigation.
#[derive(Debug, Clone)]
pub struct MitigationOutcome {
    /// The evaluated technique.
    pub kind: MitigationKind,
    /// The netlist-transform report (cells touched, area cost).
    pub report: HardeningReport,
    /// The mission campaign re-run on the mitigated netlist under the
    /// baseline's exact injection schedule.
    pub mission: MissionOutcome,
    /// Injections answered as masked without simulation (FF hardening
    /// below the Weibull LET threshold); always 0 for TMR.
    pub masked_injections: usize,
    /// `SER(baseline) − SER(mitigated)`: positive when the mitigation
    /// helps.
    pub ser_delta: f64,
}

/// Baseline-vs-mitigated comparison under one mission.
#[derive(Debug, Clone)]
pub struct DifferentialOutcome {
    /// The unmitigated mission campaign.
    pub baseline: MissionOutcome,
    /// One outcome per evaluated plan, in plan order.
    pub mitigations: Vec<MitigationOutcome>,
}

impl DifferentialOutcome {
    /// Serializes the comparison (mission SER breakdowns, SER deltas, area
    /// costs) as a JSON object.
    pub fn to_json(&self) -> ssresf_json::Value {
        use ssresf_json::Value;
        let mitigations: Vec<Value> = self
            .mitigations
            .iter()
            .map(|m| {
                ssresf_json::object([
                    ("kind", Value::String(m.kind.name().to_owned())),
                    ("mission", m.mission.to_json()),
                    ("ser_delta", Value::Number(m.ser_delta)),
                    (
                        "masked_injections",
                        Value::Number(m.masked_injections as f64),
                    ),
                    (
                        "hardened_cells",
                        Value::Number(m.report.hardened.len() as f64),
                    ),
                    (
                        "area",
                        ssresf_json::object([
                            ("added_cells", Value::Number(m.report.added_cells as f64)),
                            (
                                "transistors_before",
                                Value::Number(m.report.transistors_before as f64),
                            ),
                            (
                                "transistors_after",
                                Value::Number(m.report.transistors_after as f64),
                            ),
                            ("overhead", Value::Number(m.report.area_overhead())),
                        ]),
                    ),
                ])
            })
            .collect();
        ssresf_json::object([
            ("baseline", self.baseline.to_json()),
            ("mitigations", Value::Array(mitigations)),
        ])
    }
}

/// Runs a differential mission campaign: the baseline netlist and every
/// mitigated variant are exposed to the **same injection schedule** (the
/// transforms preserve baseline cell ids and output nets, so `(cell,
/// fault)` pairs stay addressable), and each mitigation reports its SER
/// delta and area cost.
///
/// The baseline run is instrumented through `hooks` (publishing the usual
/// `campaign.*` and `mission.*` keys); mitigated re-runs are not, keeping
/// the exported per-segment breakdown unambiguous. Mitigation summary
/// counters (`mission.mitigation.<name>.soft_errors` / `.masked`) are
/// published per plan.
///
/// # Errors
///
/// Returns [`SsresfError::Config`] for an invalid mission or config and
/// propagates transform and simulation failures.
pub fn run_differential_campaign(
    netlist: &FlatNetlist,
    cells: &[CellId],
    config: &CampaignConfig,
    mission: &MissionProfile,
    plans: &[MitigationPlan],
    hooks: &Instrument<'_>,
) -> Result<DifferentialOutcome, SsresfError> {
    let dut = Dut::from_conventions(netlist)?;
    // Baseline run: validates the mission/config and publishes the usual
    // mission.* counters through `hooks`.
    let baseline = run_mission_campaign_with(&dut, cells, config, mission, hooks)?;
    let effective = CampaignConfig {
        workload: Workload {
            reset_cycles: config.workload.reset_cycles,
            run_cycles: mission.total_cycles(),
        },
        ..*config
    };
    // The shared schedule: regenerated deterministically from the baseline
    // netlist — byte-identical to the jobs the baseline run simulated.
    let jobs: Vec<(CellId, Fault)> = cells
        .iter()
        .flat_map(|&cell| {
            mission_faults_for_cell(&dut, cell, config, mission)
                .into_iter()
                .map(move |f| (cell, f))
        })
        .collect();

    let mut mitigations = Vec::with_capacity(plans.len());
    for plan in plans {
        let mut transformed = netlist.clone();
        let report = match plan.kind {
            MitigationKind::Tmr => transformed.tmr_harden(&plan.targets)?,
            MitigationKind::FfHardening => transformed.ff_harden(&plan.targets),
        };
        let mitigated_dut = Dut::from_conventions(&transformed)?;
        let hardened: BTreeSet<CellId> = report.hardened.iter().copied().collect();

        // FF hardening is behavior-identical, so its SER effect is decided
        // by physics: a strike below the hardened cell's Weibull threshold
        // deposits no charge and is masked outright. The exact class curve
        // is used rather than the calibration-point database, whose
        // log-linear interpolation smears the threshold. TMR masking is
        // left to the simulator (the voter does it).
        let masked = |cell: CellId, fault: &Fault| -> bool {
            if plan.kind != MitigationKind::FfHardening || !hardened.contains(&cell) {
                return false;
            }
            let segment = &mission.segments[mission.segment_at(fault.cycle())];
            let class = transformed.cell(cell).kind.radiation_class();
            let curve = WeibullCurve::default_for(class);
            curve.cross_section(segment.environment.let_value).value() <= 0.0
        };
        let mut active = Vec::with_capacity(jobs.len());
        let mut is_masked = vec![false; jobs.len()];
        for (i, (cell, fault)) in jobs.iter().enumerate() {
            if masked(*cell, fault) {
                is_masked[i] = true;
            } else {
                active.push((*cell, *fault));
            }
        }
        let masked_injections = jobs.len() - active.len();
        let outcome =
            run_injection_jobs(&mitigated_dut, active, &effective, &Instrument::default())?;

        // Merge simulated and masked records back into schedule order.
        let mut merged = Vec::with_capacity(jobs.len());
        let mut simulated = outcome.records.iter();
        for (i, (cell, fault)) in jobs.iter().enumerate() {
            if is_masked[i] {
                merged.push(InjectionRecord {
                    cell: *cell,
                    fault: *fault,
                    soft_error: false,
                    divergences: 0,
                });
            } else {
                merged.push(simulated.next().expect("one record per active job").clone());
            }
        }
        let mut campaign = outcome;
        campaign.records = merged;
        let segments = segment_stats(mission, &campaign.records);
        let mission_outcome = MissionOutcome { campaign, segments };
        let ser_delta = baseline.ser() - mission_outcome.ser();
        if let Some(metrics) = hooks.metrics {
            metrics.counter_add(
                &format!("mission.mitigation.{}.soft_errors", plan.kind.name()),
                mission_outcome.campaign.soft_errors() as u64,
            );
            metrics.counter_add(
                &format!("mission.mitigation.{}.masked", plan.kind.name()),
                masked_injections as u64,
            );
        }
        mitigations.push(MitigationOutcome {
            kind: plan.kind,
            report,
            mission: mission_outcome,
            masked_injections,
            ser_delta,
        });
    }

    Ok(DifferentialOutcome {
        baseline,
        mitigations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ssresf, SsresfConfig, Workload};
    use ssresf_socgen::{build_soc, SocConfig};

    fn quick_analysis() -> (FlatNetlist, Analysis) {
        let soc = build_soc(&SocConfig::table1()[0]).unwrap();
        let netlist = soc.design.flatten().unwrap();
        let mut config = SsresfConfig::default();
        config.sampling.fraction = 0.08;
        config.campaign.workload = Workload {
            reset_cycles: 3,
            run_cycles: 50,
        };
        let analysis = Ssresf::new(config).analyze(&netlist).unwrap();
        (netlist, analysis)
    }

    #[test]
    fn svm_guided_hardening_produces_valid_netlist() {
        let (netlist, analysis) = quick_analysis();
        let result =
            selective_harden(&netlist, &analysis, 0.2, HardeningStrategy::SvmGuided).unwrap();
        assert!(!result.report.hardened.is_empty());
        assert!(result.netlist.cells().len() > netlist.cells().len());
        // Structural validity: still simulatable.
        result.netlist.levelize().unwrap();
        // Area overhead is bounded by the budget (TMR triples only targets).
        assert!(result.report.area_overhead() < 3.0);
    }

    #[test]
    fn random_strategy_is_seed_deterministic() {
        let (netlist, analysis) = quick_analysis();
        let a = selective_harden(
            &netlist,
            &analysis,
            0.1,
            HardeningStrategy::Random { seed: 3 },
        )
        .unwrap();
        let b = selective_harden(
            &netlist,
            &analysis,
            0.1,
            HardeningStrategy::Random { seed: 3 },
        )
        .unwrap();
        assert_eq!(a.report.hardened, b.report.hardened);
    }

    #[test]
    fn budget_is_validated() {
        let (netlist, analysis) = quick_analysis();
        assert!(selective_harden(&netlist, &analysis, 0.0, HardeningStrategy::SvmGuided).is_err());
        assert!(selective_harden(&netlist, &analysis, 1.5, HardeningStrategy::SvmGuided).is_err());
    }

    use ssresf_netlist::{CellKind, Design, ModuleBuilder, PortDir};

    /// Two observable flops plus a small logic cloud.
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

    fn differential_fixture() -> (FlatNetlist, Vec<CellId>, Vec<CellId>, CampaignConfig) {
        let flat = mixed_netlist();
        let cells: Vec<CellId> = flat.iter_cells().map(|(id, _)| id).collect();
        let flops: Vec<CellId> = flat
            .iter_cells()
            .filter(|(_, c)| c.kind.is_sequential())
            .map(|(id, _)| id)
            .collect();
        let config = CampaignConfig {
            workload: Workload {
                reset_cycles: 2,
                run_cycles: 10,
            },
            injections_per_cell: 8,
            ..CampaignConfig::default()
        };
        (flat, cells, flops, config)
    }

    #[test]
    fn tmr_differential_reduces_ser_with_exact_area_cost() {
        let (flat, cells, flops, config) = differential_fixture();
        let mission = MissionProfile::orbit_with_flare(25, 15).unwrap();
        let plans = vec![MitigationPlan {
            kind: MitigationKind::Tmr,
            targets: flops.clone(),
        }];
        let outcome = run_differential_campaign(
            &flat,
            &cells,
            &config,
            &mission,
            &plans,
            &Instrument::default(),
        )
        .unwrap();
        assert!(outcome.baseline.ser() > 0.0, "baseline must observe upsets");
        let tmr = &outcome.mitigations[0];
        // TMR masks every flop upset behind the voter; the combinational
        // SET population is identical, so the delta is strictly positive.
        assert!(tmr.ser_delta > 0.0);
        assert_eq!(tmr.masked_injections, 0);
        // Exact area cost: 2 replicas + 3 And2 + 1 Or3 per target.
        assert_eq!(tmr.report.added_cells, 6 * flops.len());
        assert_eq!(
            tmr.mission.campaign.records.len(),
            outcome.baseline.campaign.records.len()
        );
    }

    #[test]
    fn ff_hardening_masks_low_let_segments_without_simulation() {
        let (flat, cells, flops, config) = differential_fixture();
        // Proton (LET 1) and flare (LET 3) are both below the RadHardCell
        // Weibull threshold, so every flop injection is masked by physics.
        let mission = MissionProfile::orbit_with_flare(25, 15).unwrap();
        let plans = vec![MitigationPlan {
            kind: MitigationKind::FfHardening,
            targets: flops.clone(),
        }];
        let outcome = run_differential_campaign(
            &flat,
            &cells,
            &config,
            &mission,
            &plans,
            &Instrument::default(),
        )
        .unwrap();
        let ff = &outcome.mitigations[0];
        assert_eq!(
            ff.masked_injections,
            flops.len() * config.injections_per_cell
        );
        assert_eq!(ff.report.added_cells, 0);
        assert!(ff.report.transistors_after > ff.report.transistors_before);
        assert!(ff.ser_delta >= 0.0);
        // Masked records keep their schedule slot with soft_error = false.
        assert_eq!(
            ff.mission.campaign.records.len(),
            outcome.baseline.campaign.records.len()
        );
        for (base, mit) in outcome
            .baseline
            .campaign
            .records
            .iter()
            .zip(&ff.mission.campaign.records)
        {
            assert_eq!(base.cell, mit.cell);
            assert_eq!(base.fault, mit.fault);
        }
    }

    #[test]
    fn ff_hardening_still_simulates_above_threshold_strikes() {
        let (flat, cells, flops, config) = differential_fixture();
        // Heavy ions (LET 37) clear the RadHardCell threshold: nothing may
        // be masked and the hardened run must match the baseline exactly
        // (the hardened kinds are behavior-identical).
        let mission = MissionProfile::single(
            "beam",
            40,
            ssresf_radiation::ParticleEnvironment::heavy_ion(),
        )
        .unwrap();
        let plans = vec![MitigationPlan {
            kind: MitigationKind::FfHardening,
            targets: flops,
        }];
        let outcome = run_differential_campaign(
            &flat,
            &cells,
            &config,
            &mission,
            &plans,
            &Instrument::default(),
        )
        .unwrap();
        let ff = &outcome.mitigations[0];
        assert_eq!(ff.masked_injections, 0);
        assert_eq!(
            ff.mission.campaign.records,
            outcome.baseline.campaign.records
        );
        assert!(ff.ser_delta.abs() < 1e-15);
    }

    #[test]
    fn differential_json_is_deterministic() {
        let (flat, cells, flops, config) = differential_fixture();
        let mission = MissionProfile::orbit_with_flare(20, 12).unwrap();
        let plans = vec![
            MitigationPlan {
                kind: MitigationKind::Tmr,
                targets: flops.clone(),
            },
            MitigationPlan {
                kind: MitigationKind::FfHardening,
                targets: flops,
            },
        ];
        let run = || {
            run_differential_campaign(
                &flat,
                &cells,
                &config,
                &mission,
                &plans,
                &Instrument::default(),
            )
            .unwrap()
            .to_json()
            .to_string_pretty()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.contains("\"ser_delta\""));
        assert!(a.contains("\"tmr\""));
        assert!(a.contains("\"ff_hardening\""));
    }
}
