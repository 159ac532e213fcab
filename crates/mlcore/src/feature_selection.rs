//! Greedy forward feature selection.
//!
//! Reproduces the paper's Fig.-5 experiment: starting from the empty set,
//! repeatedly add the feature whose inclusion maximizes the mean k-fold CV
//! score, recording the best score at every subset size. The paper observes
//! the curve peaking at 6 of its candidate features.

use crate::crossval::{cross_val_score, KFold};
use crate::dataset::Dataset;
use crate::error::MlError;
use crate::svm::SvmParams;

/// The score-vs-feature-count curve produced by forward selection.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionCurve {
    /// `scores[i]` is the best CV score using `i + 1` features.
    pub scores: Vec<f64>,
    /// Features in the order they were added (column indices).
    pub order: Vec<usize>,
}

impl SelectionCurve {
    /// The feature count with the highest score (ties break toward fewer
    /// features, as the paper's plot implies).
    pub fn best_count(&self) -> usize {
        let mut best = 0;
        for (i, &s) in self.scores.iter().enumerate() {
            if s > self.scores[best] + 1e-12 {
                best = i;
            }
        }
        best + 1
    }

    /// The selected column indices at the optimal count.
    pub fn best_features(&self) -> &[usize] {
        &self.order[..self.best_count()]
    }
}

/// Runs greedy forward selection up to `max_features` (clamped to the
/// dataset width), with each round's candidate evaluations fanned out
/// across up to `threads` worker threads (0 = all cores).
///
/// Candidate scores are reduced in column order with strict improvement,
/// matching the serial scan bit-for-bit on every thread count.
///
/// # Errors
///
/// Returns [`MlError::Degenerate`] for datasets without two classes and
/// propagates CV errors.
pub fn forward_selection_with(
    data: &Dataset,
    params: &SvmParams,
    folds: &KFold,
    max_features: usize,
    threads: usize,
) -> Result<SelectionCurve, MlError> {
    if !data.has_both_classes() {
        return Err(MlError::Degenerate(
            "need both classes for feature selection".into(),
        ));
    }
    let width = data.width();
    let limit = max_features.min(width);
    let mut selected: Vec<usize> = Vec::new();
    let mut scores = Vec::new();

    while selected.len() < limit {
        let candidates: Vec<usize> = (0..width).filter(|c| !selected.contains(c)).collect();
        let candidate_scores =
            crate::parallel::parallel_map(&candidates, threads, |_, &candidate| {
                let mut columns = selected.clone();
                columns.push(candidate);
                let view = data.select_columns(&columns);
                cross_val_score(&view, params, folds)
            });
        let mut best: Option<(usize, f64)> = None;
        for (&candidate, score) in candidates.iter().zip(candidate_scores) {
            let score = score?;
            let better = match best {
                None => true,
                Some((_, s)) => score > s,
            };
            if better {
                best = Some((candidate, score));
            }
        }
        let (feature, score) = best.expect("width > selected len");
        selected.push(feature);
        scores.push(score);
    }
    Ok(SelectionCurve {
        scores,
        order: selected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Two informative features, three pure-noise features.
    fn noisy_dataset() -> Dataset {
        let mut rng = StdRng::seed_from_u64(17);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..40 {
            let label = rng.gen::<bool>();
            let base = if label { 1.5 } else { 0.0 };
            x.push(vec![
                base + rng.gen::<f64>() * 0.5, // informative
                rng.gen::<f64>(),              // noise
                base + rng.gen::<f64>() * 0.5, // informative
                rng.gen::<f64>(),              // noise
                rng.gen::<f64>(),              // noise
            ]);
            y.push(if label { 1 } else { -1 });
        }
        Dataset::new(x, y).unwrap()
    }

    #[test]
    fn informative_features_are_selected_first() {
        let data = noisy_dataset();
        let folds = KFold::new(4, 0).unwrap();
        let curve = forward_selection_with(&data, &SvmParams::default(), &folds, 5, 1).unwrap();
        assert_eq!(curve.scores.len(), 5);
        assert_eq!(curve.order.len(), 5);
        // The first pick is an informative column (0 or 2); once one is in,
        // accuracy saturates and later picks are arbitrary.
        assert!(
            curve.order[0] == 0 || curve.order[0] == 2,
            "{:?}",
            curve.order
        );
        assert!(curve.scores[0] > 0.9, "{:?}", curve.scores);
    }

    #[test]
    fn best_count_prefers_fewest_on_ties() {
        let curve = SelectionCurve {
            scores: vec![0.8, 0.9, 0.9, 0.85],
            order: vec![2, 0, 1, 3],
        };
        assert_eq!(curve.best_count(), 2);
        assert_eq!(curve.best_features(), &[2, 0]);
    }

    #[test]
    fn max_features_is_clamped_to_width() {
        let data = noisy_dataset();
        let folds = KFold::new(3, 0).unwrap();
        let curve = forward_selection_with(&data, &SvmParams::default(), &folds, 99, 1).unwrap();
        assert_eq!(curve.scores.len(), data.width());
    }

    #[test]
    fn rejects_single_class() {
        let data = Dataset::new(vec![vec![1.0], vec![2.0]], vec![1, 1]).unwrap();
        let folds = KFold::new(2, 0).unwrap();
        assert!(forward_selection_with(&data, &SvmParams::default(), &folds, 1, 1).is_err());
    }
}
