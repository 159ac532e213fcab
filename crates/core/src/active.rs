//! Margin-driven active-learning sampling.
//!
//! The paper's pipeline spends its simulation budget up front: an
//! equal-proportion sample per cluster, injected in one shot. Most of that
//! budget is wasted on cells the SVM would classify confidently anyway.
//! [`Ssresf::analyze_active`] replaces the one-shot draw with an iterative
//! loop that concentrates injections on the cells the classifier is least
//! sure about:
//!
//! 1. simulate a small stratified *seed* sample (a scaled-down
//!    [`sample_clusters`] draw),
//! 2. train an SVM on the labeled cells via warm-started SMO
//!    ([`SvmModel::train_warm`]) that reuses the previous round's alphas
//!    and kernel-row cache,
//! 3. score every unlabeled cell by its absolute decision margin using the
//!    O(d) fast-decision path,
//! 4. inject only the lowest-margin batch and fold the new labels in,
//! 5. stop when whole-netlist predictions stabilize across rounds, the
//!    round cap is hit, or the injection budget is exhausted.
//!
//! The final classifier is refit with the full
//! [`train_sensitivity`](crate::sensitivity::train_sensitivity)
//! pipeline (grid search, CV metrics, ROC) on everything labeled, so the
//! returned [`Analysis`] is drop-in comparable with [`Ssresf::analyze`] —
//! it just cost strictly fewer injections for the same accuracy. Results are
//! bit-identical for every thread count and reproducible from
//! `(seed, config)`: the golden run, fault streams, seed draw, margin
//! ordering and batch tie-breaks are all deterministic.

use crate::campaign::{run_injection_jobs_with_golden, CampaignOutcome};
use crate::clustering::cluster_cells;
use crate::error::SsresfError;
use crate::framework::{Analysis, LabelRule, Labeled, Ssresf, Timing};
use crate::progress::Instrument;
use crate::sampling::{sample_clusters, ClusterSample, SamplingConfig};
use crate::sensitivity::class_weighted;
use crate::ser::evaluate_ser;
use crate::shard::campaign_jobs;
use crate::workload::Dut;
use ssresf_mlcore::{parallel_map, Dataset, SmoContext, StandardScaler, SvmModel, TrainStats};
use ssresf_netlist::{CellId, FlatNetlist};
use std::time::Instant;

/// Configuration of the active-learning loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActiveLearningConfig {
    /// Fraction of each cluster in the stratified seed draw, in `(0, 1]`.
    /// Deliberately far below [`SamplingConfig::fraction`] — the margin
    /// rounds top up where it matters.
    pub seed_fraction: f64,
    /// Per-cluster floor of the seed draw (so tiny clusters are still
    /// represented, as in the one-shot sampler).
    pub seed_min_per_cluster: usize,
    /// Cells injected per margin round.
    pub batch_size: usize,
    /// Cap on training rounds (including the round that trains on the
    /// seed alone).
    pub max_rounds: usize,
    /// A round is *stable* when at most this fraction of whole-netlist
    /// predictions changed since the previous round.
    pub stability_threshold: f64,
    /// Consecutive stable rounds that end the loop.
    pub stability_rounds: usize,
    /// Hard cap on total injected cells (`None` = uncapped; the loop then
    /// stops on stability or `max_rounds`).
    pub budget: Option<usize>,
}

impl Default for ActiveLearningConfig {
    fn default() -> Self {
        ActiveLearningConfig {
            seed_fraction: 0.05,
            seed_min_per_cluster: 2,
            batch_size: 16,
            max_rounds: 12,
            stability_threshold: 0.005,
            stability_rounds: 2,
            budget: None,
        }
    }
}

/// Diagnostics of one active-learning round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActiveRound {
    /// Round index (0 = trained on the seed sample alone).
    pub round: usize,
    /// Labeled cells entering this round's training.
    pub labeled: usize,
    /// Sensitive labels among them.
    pub positives: usize,
    /// Cells injected after this round (0 on the final round).
    pub injected: usize,
    /// Smallest |decision margin| over the unlabeled pool (0 when the
    /// pool is empty or the round fell back).
    pub min_margin: f64,
    /// Mean |decision margin| over the unlabeled pool.
    pub mean_margin: f64,
    /// Fraction of whole-netlist predictions that changed since the
    /// previous round (1.0 on the first trained round).
    pub churn: f64,
    /// True when the labels were still single-class, so a non-margin
    /// fallback batch (lowest unlabeled cell ids) was injected instead of
    /// training.
    pub fallback: bool,
}

/// Everything [`Ssresf::analyze_active`] produced: a regular [`Analysis`]
/// plus the round-by-round trace of how the injection budget was spent.
#[derive(Debug)]
pub struct ActiveAnalysis {
    /// The pipeline artifacts, drop-in comparable with
    /// [`Ssresf::analyze`].
    pub analysis: Analysis,
    /// Per-round diagnostics in execution order.
    pub rounds: Vec<ActiveRound>,
    /// Total cells injected across the seed and all batches.
    pub injected_cells: usize,
    /// Cells the one-shot equal-proportion sampler would have injected
    /// under this framework's [`SamplingConfig`].
    pub baseline_cells: usize,
    /// Fault injections avoided relative to that one-shot baseline
    /// (`baseline_cells × injections_per_cell − records`, floored at 0).
    pub injections_saved: usize,
}

impl Ssresf {
    /// Runs the pipeline with margin-driven active-learning sampling in
    /// place of the one-shot equal-proportion draw.
    ///
    /// # Errors
    ///
    /// Same as [`Ssresf::analyze`], plus [`SsresfError::Config`] for an
    /// invalid `active` configuration.
    pub fn analyze_active(
        &self,
        netlist: &FlatNetlist,
        active: &ActiveLearningConfig,
    ) -> Result<ActiveAnalysis, SsresfError> {
        self.analyze_active_with(netlist, active, &Instrument::default())
    }

    /// [`analyze_active`](Ssresf::analyze_active) with observability hooks.
    ///
    /// On top of the [`analyze_with`](Ssresf::analyze_with) metric set,
    /// `hooks.metrics` receives `active.rounds`,
    /// `active.injections.total`, `active.injections_saved`, an
    /// `active.margin` histogram of every selected batch margin (plus
    /// per-round `active.round.<n>.margin` histograms) and the
    /// `svm.kernel_cache.hit_rate` gauge accumulated across the
    /// warm-started rounds. Hooks never change results.
    ///
    /// # Errors
    ///
    /// Same as [`analyze_active`](Ssresf::analyze_active).
    pub fn analyze_active_with(
        &self,
        netlist: &FlatNetlist,
        active: &ActiveLearningConfig,
        hooks: &Instrument<'_>,
    ) -> Result<ActiveAnalysis, SsresfError> {
        self.validate_config()?;
        validate_active_config(active)?;
        let config = self.config();
        let dut = Dut::from_conventions(netlist)?;
        let mut timing = Timing::default();

        // Clustering, then ONE golden run shared by every round.
        let started = Instant::now();
        let clustering = cluster_cells(netlist, &config.clustering)?;
        timing.clustering = hooks.stage("stage.clustering", started.elapsed());
        let started = Instant::now();
        let golden = dut.run_golden_with_checkpoints(
            config.campaign.engine,
            &config.campaign.workload,
            config.campaign.checkpoint_interval,
        )?;
        timing.golden = hooks.stage("stage.golden", started.elapsed());

        // Features once per netlist, standardized once over every cell so
        // margin scores are comparable across rounds.
        let started = Instant::now();
        let features = self.extract_features(netlist, &golden.outcome.activity_per_cycle)?;
        let cell_ids: Vec<CellId> = netlist.iter_cells().map(|(id, _)| id).collect();
        let raw: Vec<Vec<f64>> = features.iter().map(|f| f.values.clone()).collect();
        let scaler = StandardScaler::fit(&raw).map_err(SsresfError::Ml)?;
        let scaled = scaler.transform(&raw);
        timing.features = hooks.stage("stage.features", started.elapsed());

        // Stratified seed draw (a scaled-down one-shot sample).
        let started = Instant::now();
        let seed_sample = sample_clusters(
            &clustering,
            &SamplingConfig {
                fraction: active.seed_fraction,
                min_per_cluster: active.seed_min_per_cluster,
                seed: config.sampling.seed,
                budget: active.budget,
            },
        )?;
        timing.sampling = hooks.stage("stage.sampling", started.elapsed());

        // Injection-order bookkeeping. `injected_order` is append-only so
        // warm-started SMO sees stable row positions across rounds;
        // `sample` keeps the per-cluster structure SER evaluation needs.
        let mut sample = ClusterSample {
            per_cluster: vec![Vec::new(); clustering.members.len()],
        };
        let mut injected_order: Vec<CellId> = Vec::new();
        let mut labeled = vec![false; cell_ids.len()];
        let mut merged: Option<CampaignOutcome> = None;
        let inject = |cells: &[CellId],
                      sample: &mut ClusterSample,
                      injected_order: &mut Vec<CellId>,
                      labeled: &mut Vec<bool>,
                      merged: &mut Option<CampaignOutcome>,
                      timing: &mut Timing|
         -> Result<(), SsresfError> {
            let jobs = campaign_jobs(&dut, cells, &config.campaign)?;
            let outcome =
                run_injection_jobs_with_golden(&dut, jobs, &config.campaign, &golden, hooks)?;
            timing.injections += outcome.simulation_time;
            for &cell in cells {
                let cluster = clustering.cluster_of(cell);
                let members = &mut sample.per_cluster[cluster];
                let pos = members.partition_point(|&c| c < cell);
                members.insert(pos, cell);
                injected_order.push(cell);
                labeled[cell.index()] = true;
            }
            match merged {
                Some(m) => {
                    m.records.extend(outcome.records);
                    m.simulation_time += outcome.simulation_time;
                    m.total_work += outcome.total_work;
                    m.telemetry.accumulate(outcome.telemetry);
                }
                None => *merged = Some(outcome),
            }
            Ok(())
        };

        inject(
            &seed_sample.all_cells(),
            &mut sample,
            &mut injected_order,
            &mut labeled,
            &mut merged,
            &mut timing,
        )?;

        // The margin-driven rounds.
        let mut ctx = SmoContext::new(config.sensitivity.svm.cache_rows);
        let mut warm_stats = TrainStats::default();
        let mut rounds: Vec<ActiveRound> = Vec::new();
        let mut prev_predictions: Option<Vec<bool>> = None;
        let mut stable = 0usize;
        let mut ser;
        let mut labels;
        loop {
            let campaign = merged.as_ref().expect("seed round injected");
            let started = Instant::now();
            ser = evaluate_ser(netlist, &clustering, &sample, campaign)?;
            timing.ser += hooks.stage("stage.ser", started.elapsed());
            labels = label_cells(
                &injected_order,
                campaign,
                &clustering,
                &ser,
                config.labeling,
            );

            let round = rounds.len();
            let positives = labels.iter().filter(|&&(_, s)| s).count();
            let budget_left = active
                .budget
                .map(|b| b.saturating_sub(injected_order.len()))
                .unwrap_or(usize::MAX);
            let unlabeled: Vec<CellId> = cell_ids
                .iter()
                .copied()
                .filter(|&id| !labeled[id.index()])
                .collect();

            if positives == 0 || positives == labels.len() {
                // Single class so far: no margin to rank by. Fall back to
                // the lowest unlabeled cell ids — deterministic, and each
                // batch widens the label pool until both classes appear.
                let take = active.batch_size.min(budget_left).min(unlabeled.len());
                rounds.push(ActiveRound {
                    round,
                    labeled: labels.len(),
                    positives,
                    injected: take,
                    min_margin: 0.0,
                    mean_margin: 0.0,
                    churn: 1.0,
                    fallback: true,
                });
                if take == 0 || round + 1 >= active.max_rounds {
                    break;
                }
                let batch: Vec<CellId> = unlabeled[..take].to_vec();
                inject(
                    &batch,
                    &mut sample,
                    &mut injected_order,
                    &mut labeled,
                    &mut merged,
                    &mut timing,
                )?;
                continue;
            }

            // Warm-started round model on the netlist-wide scaling.
            let started = Instant::now();
            let rows: Vec<Vec<f64>> = labels
                .iter()
                .map(|&(cell, _)| scaled[cell.index()].clone())
                .collect();
            let y: Vec<i8> = labels
                .iter()
                .map(|&(_, s)| if s { 1 } else { -1 })
                .collect();
            let data = Dataset::new(rows, y).map_err(SsresfError::Ml)?;
            let params = class_weighted(config.sensitivity.svm, positives, labels.len());
            let model = SvmModel::train_warm(&data, &params, &mut ctx).map_err(SsresfError::Ml)?;
            warm_stats.accumulate(*model.train_stats());
            timing.svm_train += hooks.stage("stage.svm_train", started.elapsed());

            // Margin scoring (O(d) fast-decision path) and whole-netlist
            // prediction churn, both order-preserving across threads.
            let margins = parallel_map(&unlabeled, config.sensitivity.threads, |_, &id| {
                model.decision(&scaled[id.index()]).abs()
            });
            let predictions = parallel_map(&cell_ids, config.sensitivity.threads, |_, &id| {
                model.decision(&scaled[id.index()]) >= 0.0
            });
            let churn = match &prev_predictions {
                Some(prev) => {
                    let changed = prev
                        .iter()
                        .zip(&predictions)
                        .filter(|(a, b)| a != b)
                        .count();
                    changed as f64 / predictions.len().max(1) as f64
                }
                None => 1.0,
            };
            prev_predictions = Some(predictions);
            if churn <= active.stability_threshold {
                stable += 1;
            } else {
                stable = 0;
            }

            let min_margin = margins.iter().copied().fold(f64::INFINITY, f64::min);
            let mean_margin = margins.iter().sum::<f64>() / margins.len().max(1) as f64;
            let stop = stable >= active.stability_rounds
                || round + 1 >= active.max_rounds
                || unlabeled.is_empty()
                || budget_left == 0;

            // Lowest-|margin| batch; ties break toward the ascending cell
            // id (the pool is already id-ascending and the sort is
            // stable, so the tie-break is explicit *and* redundant).
            let take = if stop {
                0
            } else {
                active.batch_size.min(budget_left).min(unlabeled.len())
            };
            let mut order: Vec<usize> = (0..unlabeled.len()).collect();
            order.sort_by(|&a, &b| {
                margins[a]
                    .total_cmp(&margins[b])
                    .then(unlabeled[a].cmp(&unlabeled[b]))
            });
            let batch: Vec<CellId> = order.iter().take(take).map(|&i| unlabeled[i]).collect();
            if let Some(metrics) = hooks.metrics {
                for &i in order.iter().take(take) {
                    metrics.observe("active.margin", margins[i]);
                    metrics.observe(&format!("active.round.{round}.margin"), margins[i]);
                }
            }
            rounds.push(ActiveRound {
                round,
                labeled: labels.len(),
                positives,
                injected: batch.len(),
                min_margin: if margins.is_empty() { 0.0 } else { min_margin },
                mean_margin,
                churn,
                fallback: false,
            });
            if batch.is_empty() {
                break;
            }
            inject(
                &batch,
                &mut sample,
                &mut injected_order,
                &mut labeled,
                &mut merged,
                &mut timing,
            )?;
        }
        let campaign = merged.expect("seed round injected");

        // Final fit with the full pipeline (CV metrics, ROC, optional
        // selection/search) on everything labeled — the tail `analyze`
        // runs too.
        let labeled = Labeled {
            clustering,
            sample,
            campaign,
            ser,
            features,
            labels,
            timing,
        };
        let analysis = self.finish(netlist, labeled, warm_stats, hooks)?;

        let injected_cells = injected_order.len();
        let baseline_cells = sample_clusters(&analysis.clustering, &config.sampling)?.len();
        let injections = analysis.campaign.records.len();
        let injections_saved =
            (baseline_cells * config.campaign.injections_per_cell).saturating_sub(injections);
        if let Some(metrics) = hooks.metrics {
            metrics.counter_add("active.rounds", rounds.len() as u64);
            metrics.counter_add("active.injections.total", injections as u64);
            metrics.counter_add("active.injections_saved", injections_saved as u64);
        }

        Ok(ActiveAnalysis {
            analysis,
            rounds,
            injected_cells,
            baseline_cells,
            injections_saved,
        })
    }
}

/// Labels campaign cells under a [`LabelRule`], in the given cell order.
///
/// This is the labeling step both pipelines share: the active loop calls
/// it in injection order (stable row positions for the warm-started
/// solver), and benchmarks call it to re-derive a one-shot analysis'
/// training labels for held-out evaluation.
pub fn label_cells(
    injected_order: &[CellId],
    campaign: &CampaignOutcome,
    clustering: &crate::clustering::Clustering,
    ser: &crate::ser::SerEvaluation,
    rule: LabelRule,
) -> Vec<(CellId, bool)> {
    let cell_stats = campaign.per_cell_stats();
    injected_order
        .iter()
        .map(|&cell| {
            let probability = cell_stats
                .get(&cell)
                .map(|s| s.probability())
                .unwrap_or(0.0);
            let sensitive = match rule {
                LabelRule::Blended => {
                    let cluster = clustering.cluster_of(cell);
                    let cluster_ser = ser.per_cluster[cluster].ser();
                    (probability + cluster_ser) / 2.0 >= ser.chip_ser.max(1e-9)
                }
            };
            (cell, sensitive)
        })
        .collect()
}

fn validate_active_config(active: &ActiveLearningConfig) -> Result<(), SsresfError> {
    if !(active.seed_fraction > 0.0 && active.seed_fraction <= 1.0) {
        return Err(SsresfError::Config(format!(
            "active seed_fraction {} outside (0, 1]",
            active.seed_fraction
        )));
    }
    if active.batch_size == 0 {
        return Err(SsresfError::Config("active batch_size is 0".into()));
    }
    if active.max_rounds == 0 {
        return Err(SsresfError::Config("active max_rounds is 0".into()));
    }
    if !(active.stability_threshold >= 0.0 && active.stability_threshold <= 1.0) {
        return Err(SsresfError::Config(format!(
            "active stability_threshold {} outside [0, 1]",
            active.stability_threshold
        )));
    }
    Ok(())
}
