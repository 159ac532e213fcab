//! `soc5_active`: margin-driven active learning on SoC_5 with the paper's
//! default simulator path.
//!
//! Op: `Ssresf::analyze_active` on the 2,284-cell SoC_5 netlist, with the
//! activelearn bench's `ActiveLearningConfig` and the table binaries'
//! analysis budgets (event-driven engine, scalar injection, checkpoint
//! interval 10, two injections per cell), written out here so that no
//! environment variable can shrink them.
//!
//! Setup: the one-shot `Ssresf::analyze`, whose labels form the held-out
//! set the op's classifier is scored on.
//!
//! Why this workload: it is the repository's headline pipeline. About 96 %
//! of the op is scalar event-driven injection, issued as four small
//! campaigns against one shared golden run, so it loads the event-driven
//! engine, checkpoint restores, the campaign worker pool and the
//! active-learning loop (warm-started SMO rounds). It bypasses the
//! bit-parallel kernel, the netlist build and serve. The op lasts about two
//! seconds because its ≈ 290 scalar injections (288 at seed 0) each
//! simulate up to 100 cycles.

use crate::trace::Tracer;
use crate::{derive_seed, rate, Digest, OpOutput, WorkerSink, Workload};
use ssresf::{
    label_cells, ActiveAnalysis, ActiveLearningConfig, CampaignProgress, EngineKind, Instrument,
    MetricsRegistry, ProgressPhase, ProgressSink, Ssresf, SsresfConfig,
};
use ssresf_netlist::{CellId, FlatNetlist};
use ssresf_socgen::{build_soc, SocConfig};
use std::collections::{BTreeMap, HashSet};
use std::sync::Mutex;
use std::time::Instant;

/// Index of SoC_5 in `SocConfig::table1()`.
const SOC_INDEX: usize = 4;

pub struct Soc5 {
    name: String,
    flat: FlatNetlist,
    framework: Ssresf,
    active: ActiveLearningConfig,
    /// The one-shot analysis' labels: `(cell, sensitive)` per sampled cell.
    reference: Vec<(CellId, bool)>,
    reference_records: usize,
}

impl Soc5 {
    pub fn setup(seed: u64, threads: usize) -> Result<Self, String> {
        let soc = SocConfig::table1()[SOC_INDEX].clone();
        let built = build_soc(&soc).map_err(|e| format!("build_soc: {e}"))?;
        let flat = built
            .design
            .flatten()
            .map_err(|e| format!("flatten: {e}"))?;

        let mut config = SsresfConfig::default().with_memory_scale(built.info.memory_scale_factor);
        config.clustering.clusters = 24;
        config.clustering.layer_depth = 3;
        config.clustering.seed = derive_seed(seed, 1);
        config.clustering.threads = threads;
        config.sampling.fraction = (360.0 / flat.num_cells() as f64).clamp(0.01, 0.25);
        config.sampling.min_per_cluster = 4;
        config.sampling.seed = derive_seed(seed, 2);
        config.campaign.workload = ssresf::Workload {
            reset_cycles: 3,
            run_cycles: 100,
        };
        config.campaign.injections_per_cell = 2;
        config.campaign.seed = derive_seed(seed, 3);
        config.campaign.engine = EngineKind::EventDriven;
        config.campaign.checkpoint_interval = 10;
        config.campaign.early_stop = false;
        config.campaign.batching = false;
        config.campaign.threads = threads;
        config.sensitivity.seed = derive_seed(seed, 4);
        config.sensitivity.threads = threads;
        let active = ActiveLearningConfig {
            seed_fraction: 0.04,
            seed_min_per_cluster: 2,
            batch_size: 16,
            max_rounds: 4,
            stability_threshold: 0.005,
            stability_rounds: 2,
            budget: None,
        };

        let framework = Ssresf::new(config);
        let baseline = framework
            .analyze(&flat)
            .map_err(|e| format!("one-shot analyze: {e}"))?;
        let reference = label_cells(
            &baseline.sample.all_cells(),
            &baseline.campaign,
            &baseline.clustering,
            &baseline.ser,
            config.labeling,
        );
        Ok(Soc5 {
            name: soc.name,
            flat,
            framework,
            active,
            reference,
            reference_records: baseline.campaign.records.len(),
        })
    }

    /// Share of the held-out reference labels the op's classifier agrees
    /// with; cells the op injected itself are not held out.
    fn held_out_accuracy(&self, active: &ActiveAnalysis) -> Result<(f64, usize), String> {
        let injected: HashSet<CellId> = active.analysis.sample.all_cells().into_iter().collect();
        let held_out: Vec<&(CellId, bool)> = self
            .reference
            .iter()
            .filter(|(cell, _)| !injected.contains(cell))
            .collect();
        if held_out.is_empty() {
            return Err("no held-out cells: the op injected the whole one-shot sample".into());
        }
        let agree = held_out
            .iter()
            .filter(|&&&(cell, sensitive)| {
                let features = active.analysis.features_of(cell);
                active.analysis.classifier.classify(&features.values) == sensitive
            })
            .count();
        Ok((agree as f64 / held_out.len() as f64, held_out.len()))
    }

    /// Per-layer metrics of a traced op. Inside the one `active.analyze`
    /// span, the round campaigns are spans marked by progress reports and
    /// the other stages are the `stage.*` timings the pipeline records into
    /// the registry; `active.analyze_s` is what remains.
    fn layers(
        &self,
        t: &Tracer,
        active: &ActiveAnalysis,
        metrics: &MetricsRegistry,
        workers: &WorkerSink,
    ) -> BTreeMap<&'static str, f64> {
        let times = t.self_times();
        let stages = [
            ("stage.clustering", "clustering.cluster_s"),
            ("stage.golden", "campaign.golden_s"),
            ("stage.features", "netlist.features_s"),
            ("stage.sampling", "sampling.sample_s"),
            ("stage.ser", "ser.eval_s"),
            ("stage.svm_train", "mlcore.train_s"),
            ("stage.predict", "mlcore.predict_s"),
        ];
        let mut layers = BTreeMap::new();
        let mut loop_s = times.get("active.analyze").copied().unwrap_or(0.0);
        for (stage, metric) in stages {
            let s = metrics.timing(stage).as_secs_f64();
            loop_s -= s;
            layers.insert(metric, s);
        }
        layers.insert("active.analyze_s", loop_s);
        let rounds = t.durations("campaign.inject");
        let inject_s: f64 = rounds.iter().sum();
        layers.insert("campaign.inject_s", inject_s);
        if !rounds.is_empty() {
            layers.insert("active.round_campaign_s", inject_s / rounds.len() as f64);
        }

        let analysis = &active.analysis;
        let campaign = &analysis.campaign;
        let injections = campaign.records.len() as f64;
        let per_injection = |v: u64| {
            if injections > 0.0 {
                v as f64 / injections
            } else {
                0.0
            }
        };
        let ipc = self.framework.config().campaign.injections_per_cell;
        let baseline_injections = (active.baseline_cells * ipc) as f64;
        let solver = &analysis.sensitivity_report.solver;
        let (imbalance, idle) = workers.balance();
        let predict_s = layers["mlcore.predict_s"];
        layers.extend([
            ("netlist.cells", self.flat.num_cells() as f64),
            ("campaign.injections", injections),
            ("campaign.work", campaign.total_work as f64),
            (
                "campaign.work_per_injection",
                per_injection(campaign.total_work),
            ),
            (
                "sim.events",
                campaign.telemetry.engine.events_processed as f64,
            ),
            (
                "campaign.checkpoint_restore_frac",
                per_injection(campaign.telemetry.checkpoint_restores),
            ),
            ("campaign.worker_imbalance", imbalance),
            ("campaign.worker_idle_frac", idle),
            ("campaign.soft_errors", campaign.soft_errors() as f64),
            ("ser.chip_ser", analysis.ser.chip_ser),
            ("mlcore.smo_iterations", solver.iterations as f64),
            (
                "mlcore.kernel_cache_hit_rate",
                rate(solver.kernel_cache_hits, solver.kernel_cache_misses),
            ),
            ("active.rounds", active.rounds.len() as f64),
            ("active.injected_cells", active.injected_cells as f64),
            (
                "active.injections_saved_frac",
                if baseline_injections > 0.0 {
                    active.injections_saved as f64 / baseline_injections
                } else {
                    0.0
                },
            ),
        ]);
        if predict_s > 0.0 {
            layers.insert(
                "mlcore.predict_cells_per_s",
                analysis.predictions.len() as f64 / predict_s,
            );
        }
        layers
    }
}

impl Workload for Soc5 {
    fn op(&mut self, tracer: Option<&Tracer>) -> Result<OpOutput, String> {
        let (active, layers) = match tracer {
            None => (
                self.framework
                    .analyze_active(&self.flat, &self.active)
                    .map_err(|e| format!("analyze_active: {e}"))?,
                BTreeMap::new(),
            ),
            Some(t) => {
                let metrics = MetricsRegistry::new();
                let sink = RoundSink {
                    tracer: t,
                    started: Mutex::new(None),
                    workers: WorkerSink::default(),
                };
                let hooks = Instrument {
                    metrics: Some(&metrics),
                    progress: Some(&sink),
                    ..Instrument::default()
                };
                let active = t
                    .span("active.analyze", || {
                        self.framework
                            .analyze_active_with(&self.flat, &self.active, &hooks)
                    })
                    .map_err(|e| format!("analyze_active: {e}"))?;
                let layers = self.layers(t, &active, &metrics, &sink.workers);
                (active, layers)
            }
        };
        let (accuracy, held_out) = self.held_out_accuracy(&active)?;
        let analysis = &active.analysis;
        if analysis.predictions.len() != self.flat.num_cells() {
            return Err(format!(
                "{} predictions for {} cells",
                analysis.predictions.len(),
                self.flat.num_cells()
            ));
        }
        let mut digest = Digest::default();
        digest.records(&analysis.campaign.records);
        digest.predictions(&analysis.predictions);
        digest.u64(analysis.ser.chip_ser.to_bits());
        digest.u64(accuracy.to_bits());
        Ok(OpOutput {
            digest: digest.finish(),
            records: analysis.campaign.records.len(),
            soft_errors: analysis.campaign.soft_errors(),
            chip_ser: analysis.ser.chip_ser,
            accuracy,
            facts: vec![
                ("active rounds", active.rounds.len().to_string()),
                ("injected cells", active.injected_cells.to_string()),
                ("held-out cells", held_out.to_string()),
                (
                    "CV accuracy of the active classifier",
                    analysis.sensitivity_report.metrics.accuracy().to_string(),
                ),
            ],
            layers,
        })
    }

    fn properties(&self) -> Vec<(&'static str, String)> {
        let config = self.framework.config();
        let c = &config.campaign;
        vec![
            (
                "netlist",
                format!("{}, {} cells", self.name, self.flat.num_cells()),
            ),
            (
                "campaign",
                format!(
                    "{:?} engine, scalar, checkpoint interval {}, {} run cycles, \
                     {} injections per cell",
                    c.engine, c.checkpoint_interval, c.workload.run_cycles, c.injections_per_cell
                ),
            ),
            (
                "active learning",
                format!(
                    "seed fraction {}, batch {}, at most {} rounds",
                    self.active.seed_fraction, self.active.batch_size, self.active.max_rounds
                ),
            ),
            (
                "held-out reference",
                format!(
                    "{} one-shot labels from {} records",
                    self.reference.len(),
                    self.reference_records
                ),
            ),
            (
                "threads",
                format!(
                    "campaign {}, clustering {}, sensitivity {}",
                    c.threads, config.clustering.threads, config.sensitivity.threads
                ),
            ),
        ]
    }
}

/// Marks each round's campaign as a `campaign.inject` span, from its
/// `Start` report to its `Finished` report.
struct RoundSink<'t> {
    tracer: &'t Tracer,
    started: Mutex<Option<Instant>>,
    workers: WorkerSink,
}

impl ProgressSink for RoundSink<'_> {
    fn report(&self, progress: &CampaignProgress) {
        let mut started = self
            .started
            .lock()
            .expect("a campaign worker panicked while reporting");
        match progress.phase {
            ProgressPhase::Start => *started = Some(Instant::now()),
            ProgressPhase::Finished => {
                if let Some(start) = started.take() {
                    self.tracer.record("campaign.inject", start, Instant::now());
                }
                self.workers.report(progress);
            }
            ProgressPhase::Heartbeat => {}
        }
    }
}
