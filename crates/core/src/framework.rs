//! The end-to-end SSRESF pipeline.
//!
//! [`Ssresf::analyze`] executes the full flow of the paper's Fig. 1 on one
//! netlist: clustering → equal-proportion sampling → fault injection and
//! simulation → SER evaluation → sensitive-node labeling → feature
//! engineering → SVM training → whole-netlist sensitivity prediction,
//! returning an [`Analysis`] with every intermediate artifact plus the
//! timing split that yields the paper's Table-III speed-up.

use crate::active::label_cells;
use crate::campaign::{run_campaign_with, CampaignConfig, CampaignOutcome};
use crate::clustering::{cluster_cells, Clustering, ClusteringConfig};
use crate::error::SsresfError;
use crate::progress::Instrument;
use crate::sampling::{sample_clusters, ClusterSample, SamplingConfig};
use crate::sensitivity::{
    train_sensitivity, SensitivityConfig, SensitivityReport, TrainedSensitivity,
};
use crate::ser::{evaluate_ser, SerEvaluation};
use ssresf_mlcore::TrainStats;
use ssresf_netlist::{CellFeatures, CellId, FeatureExtractor, FlatNetlist, ModuleClass};
use ssresf_radiation::SoftErrorDatabase;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How sampled cells are labeled for SVM training.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum LabelRule {
    /// The paper's rule: cluster-level SER ranking blended with the
    /// per-cell outcome. A cell is sensitive when
    /// `(cell_probability + cluster_SER) / 2` reaches the chip SER.
    #[default]
    Blended,
}

/// Complete framework configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsresfConfig {
    /// Algorithm-1 clustering parameters.
    pub clustering: ClusteringConfig,
    /// Equal-proportion sampling parameters.
    pub sampling: SamplingConfig,
    /// Fault-injection campaign parameters.
    pub campaign: CampaignConfig,
    /// SVM pipeline parameters.
    pub sensitivity: SensitivityConfig,
    /// Statistical extrapolation factor for memory bit cells when reporting
    /// chip cross-sections (1.0 = none; see `ssresf-socgen`'s
    /// `SocInfo::memory_scale_factor`).
    pub memory_scale: f64,
    /// Sensitive-node labeling rule.
    pub labeling: LabelRule,
}

impl Default for SsresfConfig {
    fn default() -> Self {
        SsresfConfig {
            clustering: ClusteringConfig::default(),
            sampling: SamplingConfig::default(),
            campaign: CampaignConfig::default(),
            sensitivity: SensitivityConfig::default(),
            memory_scale: 1.0,
            labeling: LabelRule::default(),
        }
    }
}

impl SsresfConfig {
    /// A configuration with all defaults and the given memory scale.
    pub fn with_memory_scale(mut self, scale: f64) -> Self {
        self.memory_scale = scale;
        self
    }
}

/// Ceiling on the reported speed-up, keeping [`Timing::speedup`] finite
/// (and JSON reports parseable) when the prediction time rounds to zero.
pub const MAX_SPEEDUP: f64 = 1e9;

/// Wall-clock timing split of an analysis, broken down per pipeline stage.
///
/// The coarse quantities of the paper's Table III remain available through
/// [`simulation`](Timing::simulation), [`training`](Timing::training) and
/// [`prediction`](Timing::prediction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timing {
    /// Algorithm-1 clustering.
    pub clustering: Duration,
    /// Equal-proportion sampling.
    pub sampling: Duration,
    /// Golden (fault-free) run, including checkpointing.
    pub golden: Duration,
    /// All fault-injection runs.
    pub injections: Duration,
    /// SER evaluation (Eq. 2).
    pub ser: Duration,
    /// Feature extraction and labeling.
    pub features: Duration,
    /// SVM training (selection + search + fit + CV).
    pub svm_train: Duration,
    /// Whole-netlist prediction.
    pub predict: Duration,
}

impl Timing {
    /// Fault-injection simulation time (golden + all injections).
    pub fn simulation(&self) -> Duration {
        self.golden + self.injections
    }

    /// SVM training time.
    pub fn training(&self) -> Duration {
        self.svm_train
    }

    /// Whole-netlist prediction time.
    pub fn prediction(&self) -> Duration {
        self.predict
    }

    /// Sum of every stage.
    pub fn total(&self) -> Duration {
        self.clustering
            + self.sampling
            + self.golden
            + self.injections
            + self.ser
            + self.features
            + self.svm_train
            + self.predict
    }

    /// Simulation time (golden plus injections) over whole-netlist
    /// prediction time — the ratio the paper's Table III reports, clamped
    /// to [`MAX_SPEEDUP`] so the result is always finite.
    ///
    /// It is not an end-to-end speed-up: clustering, sampling, SER
    /// evaluation, feature extraction and SVM training count on neither
    /// side.
    pub fn speedup(&self) -> f64 {
        let s = self.simulation().as_secs_f64();
        let p = self.prediction().as_secs_f64();
        if p > 0.0 {
            (s / p).min(MAX_SPEEDUP)
        } else if s > 0.0 {
            MAX_SPEEDUP
        } else {
            1.0
        }
    }
}

/// Everything the pipeline produced.
#[derive(Debug)]
pub struct Analysis {
    /// Cluster assignment of every cell.
    pub clustering: Clustering,
    /// The fault-injection sample.
    pub sample: ClusterSample,
    /// Raw campaign records and golden run.
    pub campaign: CampaignOutcome,
    /// Per-cluster and chip SER (Eq. 2).
    pub ser: SerEvaluation,
    /// SVM training diagnostics (Table II / Figs. 5–6 material).
    pub sensitivity_report: SensitivityReport,
    /// The trained classifier.
    pub classifier: TrainedSensitivity,
    /// Predicted sensitivity of every cell in the netlist.
    pub predictions: Vec<(CellId, bool)>,
    /// `(high-sensitivity, total)` predicted counts per module class.
    pub class_counts: BTreeMap<String, (usize, usize)>,
    /// Chip-level `(SEU, SET)` cross-sections in cm² at the campaign LET,
    /// with memory bits extrapolated by the configured scale factor.
    pub chip_xsect: (f64, f64),
    /// Timing split.
    pub timing: Timing,
    /// Feature records of every cell, in cell-id order — computed once by
    /// the pipeline and cached here so downstream consumers (selective
    /// hardening, reporting) never rebuild the extractor.
    pub features: Vec<CellFeatures>,
}

impl Analysis {
    /// Fraction of nodes predicted highly sensitive in `class`.
    pub fn class_sensitive_fraction(&self, class: &str) -> f64 {
        match self.class_counts.get(class) {
            Some(&(high, total)) if total > 0 => high as f64 / total as f64,
            _ => 0.0,
        }
    }

    /// The cached feature record of `cell` (O(1); records are stored in
    /// cell-id order).
    pub fn features_of(&self, cell: CellId) -> &CellFeatures {
        let record = &self.features[cell.index()];
        debug_assert_eq!(record.cell, cell);
        record
    }
}

/// The SSRESF framework facade.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ssresf {
    config: SsresfConfig,
}

impl Ssresf {
    /// Creates a framework with the given configuration.
    pub fn new(config: SsresfConfig) -> Self {
        Ssresf { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SsresfConfig {
        &self.config
    }

    /// Runs the full pipeline on `netlist`.
    ///
    /// # Errors
    ///
    /// Propagates failures from every stage; notably
    /// [`SsresfError::Config`] for an invalid configuration (a non-finite
    /// or non-positive `memory_scale`, or an invalid sampling or campaign
    /// setting) or when the campaign labels only one class (the
    /// workload or sample was too small to observe both sensitive and
    /// insensitive nodes).
    pub fn analyze(&self, netlist: &FlatNetlist) -> Result<Analysis, SsresfError> {
        self.analyze_with(netlist, &Instrument::default())
    }

    /// [`analyze`](Ssresf::analyze) with observability hooks attached.
    ///
    /// `hooks.metrics` receives a per-stage timing breakdown
    /// (`stage.clustering`, `stage.sampling`, `stage.golden`,
    /// `stage.injections`, `stage.ser`, `stage.features`,
    /// `stage.svm_train`, `stage.predict`), pipeline gauges (including the
    /// `pipeline.predict_throughput_per_second` prediction rate), the full
    /// campaign counter set, the SMO solver's kernel-cache counters
    /// (`svm.kernel_cache.hits` / `svm.kernel_cache.misses`) and an
    /// `svm.smo_iterations` histogram; `hooks.progress` receives campaign
    /// progress reports. Hooks never change results.
    ///
    /// # Errors
    ///
    /// Same as [`analyze`](Ssresf::analyze).
    pub fn analyze_with(
        &self,
        netlist: &FlatNetlist,
        hooks: &Instrument<'_>,
    ) -> Result<Analysis, SsresfError> {
        self.validate_config()?;
        let dut = crate::workload::Dut::from_conventions(netlist)?;
        let mut timing = Timing::default();

        // 1–2. Clustering and equal-proportion sampling.
        let started = Instant::now();
        let clustering = cluster_cells(netlist, &self.config.clustering)?;
        timing.clustering = hooks.stage("stage.clustering", started.elapsed());
        let started = Instant::now();
        let sample = sample_clusters(&clustering, &self.config.sampling)?;
        timing.sampling = hooks.stage("stage.sampling", started.elapsed());

        // 3. Fault injection and simulation. The campaign records its own
        // golden/injection split (and the campaign.* metrics).
        let campaign = run_campaign_with(&dut, &sample.all_cells(), &self.config.campaign, hooks)?;
        timing.golden = campaign.golden_time;
        timing.injections = campaign
            .simulation_time
            .saturating_sub(campaign.golden_time);

        // 4. SER evaluation (Eq. 2).
        let started = Instant::now();
        let ser = evaluate_ser(netlist, &clustering, &sample, &campaign)?;
        timing.ser = hooks.stage("stage.ser", started.elapsed());

        // 5–6. Feature engineering and labeling of the sampled cells.
        let started = Instant::now();
        let features = self.extract_features(netlist, &campaign.golden_activity)?;
        let labels = label_cells(
            &sample.all_cells(),
            &campaign,
            &clustering,
            &ser,
            self.config.labeling,
        );
        timing.features = hooks.stage("stage.features", started.elapsed());

        // 7–9. SVM training, whole-netlist prediction, chip cross-sections.
        let labeled = Labeled {
            clustering,
            sample,
            campaign,
            ser,
            features,
            labels,
            timing,
        };
        self.finish(netlist, labeled, TrainStats::default(), hooks)
    }

    /// The feature record of every cell, in cell-id order, with `activity`
    /// (the golden run's per-net toggle rates) as the activity column.
    /// Per-cell extraction is independent, so it fans out across the
    /// configured worker threads with results kept in cell order.
    pub(crate) fn extract_features(
        &self,
        netlist: &FlatNetlist,
        activity: &[f64],
    ) -> Result<Vec<CellFeatures>, SsresfError> {
        let extractor = FeatureExtractor::new(netlist)?;
        let cell_ids: Vec<CellId> = netlist.iter_cells().map(|(id, _)| id).collect();
        Ok(ssresf_mlcore::parallel_map(
            &cell_ids,
            self.config.sensitivity.threads,
            |_, &id| extractor.extract_cell(id, Some(activity)),
        ))
    }

    /// The tail every analysis shares: the final [`train_sensitivity`] fit
    /// on `labeled.labels`, whole-netlist prediction, per-class counts,
    /// chip cross-sections at the campaign LET, and the `pipeline.*` /
    /// `svm.*` metrics. `warm` holds the solver counters of any
    /// warm-started rounds that preceded this fit (zero for a one-shot
    /// analysis); they add to the final fit's kernel-cache counts. The fit
    /// time adds to `labeled.timing.svm_train`.
    pub(crate) fn finish(
        &self,
        netlist: &FlatNetlist,
        labeled: Labeled,
        warm: TrainStats,
        hooks: &Instrument<'_>,
    ) -> Result<Analysis, SsresfError> {
        let Labeled {
            clustering,
            sample,
            campaign,
            ser,
            features,
            labels,
            mut timing,
        } = labeled;
        let started = Instant::now();
        let (classifier, sensitivity_report) =
            train_sensitivity(&features, &labels, &self.config.sensitivity)?;
        timing.svm_train += hooks.stage("stage.svm_train", started.elapsed());

        // Whole-netlist prediction (the fast path replacing simulation).
        let started = Instant::now();
        let predictions = classifier.classify_all_with(&features, self.config.sensitivity.threads);
        timing.predict = hooks.stage("stage.predict", started.elapsed());

        let class_counts = class_counts(&predictions, &features);
        let chip_xsect = scaled_chip_xsect(
            netlist,
            self.config.campaign.environment.let_value,
            self.config.memory_scale,
        );

        if let Some(metrics) = hooks.metrics {
            metrics.counter_add("pipeline.analyses", 1);
            metrics.gauge_set("pipeline.cells", netlist.cells().len() as f64);
            metrics.gauge_set("pipeline.clusters", clustering.clusters as f64);
            metrics.gauge_set("pipeline.sampled_cells", sample.len() as f64);
            metrics.gauge_set("pipeline.predictions", predictions.len() as f64);
            let solver = &sensitivity_report.solver;
            let hits = solver.kernel_cache_hits + warm.kernel_cache_hits;
            let misses = solver.kernel_cache_misses + warm.kernel_cache_misses;
            metrics.counter_add("svm.kernel_cache.hits", hits);
            metrics.counter_add("svm.kernel_cache.misses", misses);
            metrics.gauge_set("svm.kernel_cache.hit_rate", hit_rate(hits, misses));
            metrics.observe("svm.smo_iterations", solver.iterations as f64);
            let predict_secs = timing.predict.as_secs_f64();
            let throughput = if predict_secs > 0.0 {
                predictions.len() as f64 / predict_secs
            } else {
                0.0
            };
            metrics.gauge_set("pipeline.predict_throughput_per_second", throughput);
        }

        Ok(Analysis {
            timing,
            clustering,
            sample,
            campaign,
            ser,
            sensitivity_report,
            classifier,
            predictions,
            class_counts,
            chip_xsect,
            features,
        })
    }

    /// Entry-point configuration validation shared by every analysis. It
    /// covers the sampling and campaign settings too, so a config that
    /// cannot run fails before clustering or any simulation.
    pub(crate) fn validate_config(&self) -> Result<(), SsresfError> {
        if !self.config.memory_scale.is_finite() || self.config.memory_scale <= 0.0 {
            return Err(SsresfError::Config(format!(
                "memory_scale {} must be finite and positive",
                self.config.memory_scale
            )));
        }
        crate::sampling::validate_config(&self.config.sampling)?;
        crate::campaign::validate_job_config(&self.config.campaign)
    }
}

/// What an analysis has labeled before its final fit; consumed by
/// [`Ssresf::finish`].
pub(crate) struct Labeled {
    pub(crate) clustering: Clustering,
    pub(crate) sample: ClusterSample,
    pub(crate) campaign: CampaignOutcome,
    pub(crate) ser: SerEvaluation,
    /// Every cell's feature record, in cell-id order.
    pub(crate) features: Vec<CellFeatures>,
    /// The training labels.
    pub(crate) labels: Vec<(CellId, bool)>,
    pub(crate) timing: Timing,
}

/// Cache hit rate in `[0, 1]` (0 when no lookups happened).
fn hit_rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// `(high-sensitivity, total)` predicted counts per module class, keyed by
/// class name, from the class cached in each cell's feature record. Only
/// classes with at least one cell get an entry.
fn class_counts(
    predictions: &[(CellId, bool)],
    features: &[CellFeatures],
) -> BTreeMap<String, (usize, usize)> {
    const CLASSES: [ModuleClass; 4] = [
        ModuleClass::Cpu,
        ModuleClass::Bus,
        ModuleClass::Memory,
        ModuleClass::Other,
    ];
    let mut counts = [(0usize, 0usize); CLASSES.len()];
    for (&(cell, high), feature) in predictions.iter().zip(features) {
        debug_assert_eq!(cell, feature.cell);
        let slot = CLASSES
            .iter()
            .position(|&class| class == feature.module_class)
            .expect("every class is listed");
        counts[slot].0 += usize::from(high);
        counts[slot].1 += 1;
    }
    CLASSES
        .iter()
        .zip(counts)
        .filter(|(_, (_, total))| *total > 0)
        .map(|(class, count)| (class.name().to_owned(), count))
        .collect()
}

/// Chip `(SEU, SET)` cross-sections with memory bits scaled by `mem_scale`,
/// from the standard database
/// ([`SoftErrorDatabase::chip_cross_sections`]).
pub fn scaled_chip_xsect(
    netlist: &FlatNetlist,
    let_value: ssresf_radiation::Let,
    mem_scale: f64,
) -> (f64, f64) {
    SoftErrorDatabase::standard().chip_cross_sections(netlist, let_value, mem_scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(simulation_ms: u64, prediction_ms: u64) -> Timing {
        Timing {
            golden: Duration::from_millis(simulation_ms / 2),
            injections: Duration::from_millis(simulation_ms - simulation_ms / 2),
            predict: Duration::from_millis(prediction_ms),
            ..Timing::default()
        }
    }

    #[test]
    fn timing_aggregates_preserve_split() {
        let t = Timing {
            clustering: Duration::from_millis(1),
            sampling: Duration::from_millis(2),
            golden: Duration::from_millis(3),
            injections: Duration::from_millis(4),
            ser: Duration::from_millis(5),
            features: Duration::from_millis(6),
            svm_train: Duration::from_millis(7),
            predict: Duration::from_millis(8),
        };
        assert_eq!(t.simulation(), Duration::from_millis(7));
        assert_eq!(t.training(), Duration::from_millis(7));
        assert_eq!(t.prediction(), Duration::from_millis(8));
        assert_eq!(t.total(), Duration::from_millis(36));
    }

    #[test]
    fn speedup_is_finite_and_clamped() {
        assert_eq!(timing(100, 10).speedup(), 10.0);
        // Zero prediction time no longer yields infinity.
        let s = timing(100, 0).speedup();
        assert!(s.is_finite());
        assert_eq!(s, MAX_SPEEDUP);
        // Degenerate all-zero timing reports parity, not NaN.
        assert_eq!(timing(0, 0).speedup(), 1.0);
        // An absurd but nonzero ratio is clamped too.
        let t = Timing {
            golden: Duration::from_secs(1_000_000),
            predict: Duration::from_nanos(1),
            ..Timing::default()
        };
        assert_eq!(t.speedup(), MAX_SPEEDUP);
    }

    fn tiny_netlist() -> FlatNetlist {
        use ssresf_netlist::{CellKind, Design, ModuleBuilder, PortDir};
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
    fn analyze_rejects_bad_memory_scale() {
        let netlist = tiny_netlist();
        for memory_scale in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let config = SsresfConfig::default().with_memory_scale(memory_scale);
            let err = Ssresf::new(config).analyze(&netlist).unwrap_err();
            assert!(
                matches!(err, SsresfError::Config(_)),
                "memory_scale {memory_scale} not rejected"
            );
        }
    }
}
