//! SVM-based classification of sensitive circuit nodes (paper §III-E).
//!
//! The fault-injection campaign labels the *sampled* cells; this module
//! turns those labels plus the structural features of
//! [`ssresf_netlist::FeatureExtractor`] into a trained classifier that
//! predicts the sensitivity of every remaining node — replacing further
//! simulation and producing the paper's speed-up.

use crate::error::SsresfError;
use ssresf_mlcore::{
    cross_val_score_with, forward_selection_with, grid_search_with, parallel_map, roc_curve,
    BinaryMetrics, Dataset, KFold, Kernel, MlError, RocCurve, SelectionCurve, StandardScaler,
    SvmModel, SvmParams, TrainStats,
};
use ssresf_netlist::{CellFeatures, CellId};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::time::{Duration, Instant};

/// Configuration of the sensitivity-classification stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensitivityConfig {
    /// Base SVM hyper-parameters (kernel/γ/C may be overridden by the grid
    /// search).
    pub svm: SvmParams,
    /// Cross-validation folds (the paper uses 10; clamped to the data).
    pub folds: usize,
    /// Whether to run the (C, γ) grid search.
    pub grid_search: bool,
    /// Whether to run forward feature selection (paper Fig. 5).
    pub feature_selection: bool,
    /// Cap on features considered by forward selection.
    pub max_features: usize,
    /// Seed for fold shuffling.
    pub seed: u64,
    /// Worker threads for cross-validation, grid search, feature selection
    /// and whole-netlist prediction (0 = all cores). Results are
    /// bit-identical for every thread count.
    pub threads: usize,
}

impl Default for SensitivityConfig {
    fn default() -> Self {
        SensitivityConfig {
            svm: SvmParams::default(),
            folds: 10,
            grid_search: false,
            feature_selection: false,
            max_features: 6,
            seed: 4,
            threads: 0,
        }
    }
}

/// A trained sensitivity classifier: standardization + column subset + SVM.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainedSensitivity {
    scaler: StandardScaler,
    columns: Vec<usize>,
    model: SvmModel,
}

impl TrainedSensitivity {
    /// Signed decision value for a raw (unscaled) feature row; positive
    /// means high sensitivity.
    pub fn decision(&self, raw_features: &[f64]) -> f64 {
        let scaled = self.scaler.transform_row(raw_features);
        let selected: Vec<f64> = self.columns.iter().map(|&c| scaled[c]).collect();
        self.model.decision(&selected)
    }

    /// Predicts whether a node is highly sensitive.
    pub fn classify(&self, raw_features: &[f64]) -> bool {
        self.decision(raw_features) >= 0.0
    }

    /// Classifies every cell's feature record, in record order.
    ///
    /// Records whose values have the same bit patterns share one decision:
    /// a netlist repeats a few hundred distinct rows across up to millions
    /// of cells. The distinct rows are classified across up to `threads`
    /// worker threads (0 = all cores) and the verdicts scattered back.
    /// Equal bits run the same `f64` arithmetic, so each verdict equals
    /// [`classify`](TrainedSensitivity::classify) of its own record, for
    /// every thread count.
    pub fn classify_all_with(
        &self,
        features: &[CellFeatures],
        threads: usize,
    ) -> Vec<(CellId, bool)> {
        let mut groups: HashMap<RowBits<'_>, u32, BuildHasherDefault<WordHasher>> =
            HashMap::default();
        let mut distinct: Vec<&[f64]> = Vec::new();
        let group_of: Vec<u32> = features
            .iter()
            .map(|f| {
                let next = distinct.len() as u32;
                *groups.entry(RowBits(&f.values)).or_insert_with(|| {
                    distinct.push(&f.values);
                    next
                })
            })
            .collect();
        let verdicts = parallel_map(&distinct, threads, |_, row| self.classify(row));
        features
            .iter()
            .zip(group_of)
            .map(|(f, group)| (f.cell, verdicts[group as usize]))
            .collect()
    }

    /// Solver diagnostics of the final fitted SVM.
    pub fn train_stats(&self) -> &TrainStats {
        self.model.train_stats()
    }

    /// The feature columns the model consumes (post-standardization).
    pub fn columns(&self) -> &[usize] {
        &self.columns
    }
}

/// A feature row compared and hashed by the bit patterns of its values, so
/// `-0.0` and `0.0` (and distinct NaN payloads) are different rows.
struct RowBits<'a>(&'a [f64]);

impl PartialEq for RowBits<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len()
            && self
                .0
                .iter()
                .zip(other.0)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl Eq for RowBits<'_> {}

impl Hash for RowBits<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for value in self.0 {
            state.write_u64(value.to_bits());
        }
    }
}

/// Multiply-rotate hasher over whole words, cheaper than SipHash for the
/// 19 words of a feature row, which every cell hashes once. The keys are
/// values the feature extractor computed, not bytes read from outside.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        // The table picks buckets by the low bits; the multiply mixes best
        // into the high ones.
        self.0.rotate_left(26)
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("feature rows hash as whole words")
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// Training diagnostics (the material of the paper's Table II and Figs. 5–6).
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityReport {
    /// Confusion metrics from held-out k-fold predictions.
    pub metrics: BinaryMetrics,
    /// Mean k-fold accuracy at the final hyper-parameters.
    pub cv_accuracy: f64,
    /// ROC curve from held-out decision values.
    pub roc: RocCurve,
    /// Forward-selection curve, when enabled.
    pub selection: Option<SelectionCurve>,
    /// Grid-search evaluations, when enabled.
    pub grid: Option<(f64, f64, f64)>,
    /// Wall-clock training time (selection + search + final fit).
    pub training_time: Duration,
    /// SMO solver diagnostics of the final fit (iterations, kernel-cache
    /// hits/misses, shrink rounds).
    pub solver: TrainStats,
}

/// `svm` with `positive_weight` set to the negative/positive label ratio of
/// `positives` sensitive labels out of `total`, clamped to [1/16, 16]:
/// class weighting against label imbalance (fault campaigns typically label
/// far fewer sensitive than insensitive nodes).
pub(crate) fn class_weighted(svm: SvmParams, positives: usize, total: usize) -> SvmParams {
    let pos = positives.max(1) as f64;
    let neg = (total - positives).max(1) as f64;
    SvmParams {
        positive_weight: (neg / pos).clamp(1.0 / 16.0, 16.0),
        ..svm
    }
}

/// Trains the sensitivity classifier from labeled sampled cells.
///
/// `features` must cover every labeled cell (indexed by `CellId`: the
/// record of cell `c` sits at `features[c.index()]`); labels are `true` for
/// highly sensitive nodes.
///
/// # Errors
///
/// Returns [`SsresfError::Config`] when fewer than four cells are labeled,
/// a labeled cell has no record at its index, or only one class is
/// present, plus ML errors from training.
pub fn train_sensitivity(
    features: &[CellFeatures],
    labels: &[(CellId, bool)],
    config: &SensitivityConfig,
) -> Result<(TrainedSensitivity, SensitivityReport), SsresfError> {
    if labels.len() < 4 {
        return Err(SsresfError::Config(format!(
            "need at least 4 labeled cells, got {}",
            labels.len()
        )));
    }
    let started = Instant::now();

    // Assemble raw rows for the labeled cells.
    let mut rows = Vec::with_capacity(labels.len());
    let mut y = Vec::with_capacity(labels.len());
    for &(cell, sensitive) in labels {
        let record = features
            .get(cell.index())
            .filter(|f| f.cell == cell)
            .ok_or_else(|| SsresfError::Config(format!("no features for cell {}", cell.0)))?;
        rows.push(record.values.clone());
        y.push(if sensitive { 1i8 } else { -1 });
    }

    // Standardize on the training distribution.
    let scaler = StandardScaler::fit(&rows).map_err(SsresfError::Ml)?;
    let scaled = scaler.transform(&rows);
    let full = Dataset::new(scaled, y).map_err(SsresfError::Ml)?;
    if !full.has_both_classes() {
        return Err(SsresfError::Config(
            "labeled cells contain a single class; widen the campaign".into(),
        ));
    }

    let folds = effective_folds(config.folds, &full)?;

    let base_svm = class_weighted(config.svm, full.positives(), full.len());

    // Optional forward feature selection (Fig. 5).
    let (columns, selection) = if config.feature_selection {
        let curve = forward_selection_with(
            &full,
            &base_svm,
            &folds,
            config.max_features,
            config.threads,
        )
        .map_err(SsresfError::Ml)?;
        (curve.best_features().to_vec(), Some(curve))
    } else {
        ((0..full.width()).collect(), None)
    };
    let data = full.select_columns(&columns);

    // Optional (C, γ) grid search.
    let (params, grid) = if config.grid_search {
        let result = grid_search_with(
            &data,
            ssresf_mlcore::gridsearch::DEFAULT_C_GRID,
            ssresf_mlcore::gridsearch::DEFAULT_GAMMA_GRID,
            &folds,
            config.threads,
        )
        .map_err(SsresfError::Ml)?;
        (
            SvmParams {
                c: result.best_c,
                kernel: Kernel::Rbf {
                    gamma: result.best_gamma,
                },
                ..base_svm
            },
            Some((result.best_c, result.best_gamma, result.best_score)),
        )
    } else {
        (base_svm, None)
    };

    // Held-out predictions for the Table-II metrics and Fig.-6 ROC, one
    // fold per job; per-fold outputs are concatenated in fold order, so the
    // metrics are identical for every thread count.
    let splits = folds.split(&data).map_err(SsresfError::Ml)?;
    let fold_outputs = parallel_map(&splits, config.threads, |_, (train_idx, test_idx)| {
        let train = data.subset(train_idx);
        if !train.has_both_classes() || test_idx.is_empty() {
            return Ok::<_, MlError>(None);
        }
        let model = SvmModel::train(&train, &params)?;
        let mut truth = Vec::with_capacity(test_idx.len());
        let mut scores = Vec::with_capacity(test_idx.len());
        for &i in test_idx {
            truth.push(data.labels()[i]);
            scores.push(model.decision(data.row(i)));
        }
        Ok(Some((truth, scores)))
    });
    let mut truth = Vec::new();
    let mut predicted = Vec::new();
    let mut scores = Vec::new();
    for fold in fold_outputs {
        if let Some((fold_truth, fold_scores)) = fold.map_err(SsresfError::Ml)? {
            for (t, d) in fold_truth.into_iter().zip(fold_scores) {
                truth.push(t);
                scores.push(d);
                predicted.push(if d >= 0.0 { 1i8 } else { -1 });
            }
        }
    }
    let metrics = BinaryMetrics::from_predictions(&truth, &predicted);
    let roc = roc_curve(&truth, &scores);
    let cv_accuracy =
        cross_val_score_with(&data, &params, &folds, config.threads).map_err(SsresfError::Ml)?;

    // Final model on all labeled data.
    let model = SvmModel::train(&data, &params).map_err(SsresfError::Ml)?;
    let solver = *model.train_stats();

    Ok((
        TrainedSensitivity {
            scaler,
            columns,
            model,
        },
        SensitivityReport {
            metrics,
            cv_accuracy,
            roc,
            selection,
            grid,
            training_time: started.elapsed(),
            solver,
        },
    ))
}

fn effective_folds(requested: usize, data: &Dataset) -> Result<KFold, SsresfError> {
    let minority = data.positives().min(data.len() - data.positives());
    let k = requested.min(minority.max(2)).min(data.len() / 2).max(2);
    KFold::new(k, 0).map_err(SsresfError::Ml)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssresf_netlist::ModuleClass;

    /// Synthetic feature records: sensitive cells have large fanout.
    fn synthetic(n: usize) -> (Vec<CellFeatures>, Vec<(CellId, bool)>) {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let sensitive = i % 2 == 0;
            let fanout = if sensitive { 8.0 } else { 1.0 } + (i % 5) as f64 * 0.1;
            features.push(CellFeatures {
                cell: CellId(i as u32),
                module_class: ModuleClass::Other,
                values: vec![fanout, (i % 3) as f64, 1.0],
            });
            labels.push((CellId(i as u32), sensitive));
        }
        (features, labels)
    }

    #[test]
    fn trains_and_classifies_synthetic_nodes() {
        let (features, labels) = synthetic(40);
        let (model, report) =
            train_sensitivity(&features, &labels, &SensitivityConfig::default()).unwrap();
        assert!(report.cv_accuracy > 0.9, "{}", report.cv_accuracy);
        assert!(report.metrics.accuracy() > 0.9);
        assert!(report.roc.auc > 0.9);
        // Unseen nodes classified by fanout.
        assert!(model.classify(&[9.0, 1.0, 1.0]));
        assert!(!model.classify(&[1.0, 1.0, 1.0]));
        let all = model.classify_all_with(&features, 1);
        let correct = all
            .iter()
            .zip(&labels)
            .filter(|((_, p), (_, t))| p == t)
            .count();
        assert!(correct as f64 / labels.len() as f64 > 0.9);
    }

    #[test]
    fn reports_solver_stats_and_threaded_classification_matches() {
        let (features, labels) = synthetic(40);
        let (model, report) =
            train_sensitivity(&features, &labels, &SensitivityConfig::default()).unwrap();
        assert!(report.solver.iterations > 0);
        assert_eq!(report.solver, *model.train_stats());
        let serial = model.classify_all_with(&features, 1);
        for threads in [2usize, 8] {
            assert_eq!(serial, model.classify_all_with(&features, threads));
        }
    }

    #[test]
    fn feature_selection_reports_a_curve() {
        let (features, labels) = synthetic(30);
        let config = SensitivityConfig {
            feature_selection: true,
            max_features: 3,
            ..SensitivityConfig::default()
        };
        let (model, report) = train_sensitivity(&features, &labels, &config).unwrap();
        let curve = report.selection.unwrap();
        assert!(!curve.scores.is_empty());
        assert_eq!(model.columns().len(), curve.best_count());
        // The informative fanout column is selected first.
        assert_eq!(curve.order[0], 0);
    }

    #[test]
    fn grid_search_reports_chosen_point() {
        let (features, labels) = synthetic(24);
        let config = SensitivityConfig {
            grid_search: true,
            ..SensitivityConfig::default()
        };
        let (_, report) = train_sensitivity(&features, &labels, &config).unwrap();
        let (c, gamma, score) = report.grid.unwrap();
        assert!(c > 0.0 && gamma > 0.0);
        assert!(score > 0.8);
    }

    #[test]
    fn rejects_tiny_or_single_class_data() {
        let (features, labels) = synthetic(3);
        assert!(train_sensitivity(&features, &labels, &SensitivityConfig::default()).is_err());

        let (features, mut labels) = synthetic(10);
        for l in &mut labels {
            l.1 = true;
        }
        assert!(matches!(
            train_sensitivity(&features, &labels, &SensitivityConfig::default()),
            Err(SsresfError::Config(_))
        ));
    }

    #[test]
    fn rejects_missing_feature_records() {
        let (features, mut labels) = synthetic(10);
        labels.push((CellId(999), true));
        assert!(train_sensitivity(&features, &labels, &SensitivityConfig::default()).is_err());
    }

    #[test]
    fn absent_or_misplaced_records_are_config_errors() {
        let config = SensitivityConfig::default();
        let message = |result: Result<_, SsresfError>| match result {
            Err(SsresfError::Config(msg)) => msg,
            other => panic!("expected a config error, got {other:?}"),
        };
        // Absent: the table ends before the labeled cell's index.
        let (features, labels) = synthetic(10);
        let absent = train_sensitivity(&features[..3], &labels, &config);
        assert_eq!(message(absent), "no features for cell 3");
        // Misplaced: cell 3's record sits at index 4 and cell 4's at 3.
        let (mut features, labels) = synthetic(10);
        features.swap(3, 4);
        let misplaced = train_sensitivity(&features, &labels, &config);
        assert_eq!(message(misplaced), "no features for cell 3");
    }

    #[test]
    fn grouped_classification_matches_per_record_classify() {
        let (train, labels) = synthetic(40);
        let (model, _) = train_sensitivity(&train, &labels, &SensitivityConfig::default()).unwrap();
        // Seven distinct rows, among them a 0.0 / -0.0 pair and a NaN row.
        let rows: [[f64; 3]; 7] = [
            [8.0, 0.0, 1.0],
            [8.0, -0.0, 1.0],
            [1.0, 2.0, 1.0],
            [f64::NAN, 1.0, 1.0],
            [8.3, 1.0, 1.0],
            [1.2, 0.0, 1.0],
            [4.5, 2.0, 1.0],
        ];
        assert!(RowBits(&rows[0]) != RowBits(&rows[1]));
        assert!(RowBits(&rows[3]) == RowBits(&rows[3]));
        let features: Vec<CellFeatures> = (0..10_000u32)
            .map(|i| CellFeatures {
                cell: CellId(i),
                module_class: ModuleClass::Other,
                values: rows[(i as usize * 5 + i as usize / 13) % rows.len()].to_vec(),
            })
            .collect();
        let expected: Vec<(CellId, bool)> = features
            .iter()
            .map(|f| (f.cell, model.classify(&f.values)))
            .collect();
        assert!(expected.iter().any(|&(_, high)| high));
        assert!(expected.iter().any(|&(_, high)| !high));
        for threads in [1usize, 2, 8] {
            assert_eq!(
                model.classify_all_with(&features, threads),
                expected,
                "threads = {threads}"
            );
        }
    }
}
