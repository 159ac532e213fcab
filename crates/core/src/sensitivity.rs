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

    /// Classifies every cell's feature record, chunked across up to
    /// `threads` worker threads (0 = all cores); results keep input order,
    /// so the output is identical for every thread count.
    pub fn classify_all_with(
        &self,
        features: &[CellFeatures],
        threads: usize,
    ) -> Vec<(CellId, bool)> {
        parallel_map(features, threads, |_, f| (f.cell, self.classify(&f.values)))
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
/// `features` must cover every labeled cell (indexed by `CellId`); labels
/// are `true` for highly sensitive nodes.
///
/// # Errors
///
/// Returns [`SsresfError::Config`] when fewer than four cells are labeled
/// or only one class is present, plus ML errors from training.
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
            .iter()
            .find(|f| f.cell == cell)
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
}
