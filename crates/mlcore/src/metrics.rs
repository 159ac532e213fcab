//! Binary-classification metrics: confusion counts, rates, ROC and AUC.

/// Confusion-matrix-derived metrics for a binary classifier (the exact set
/// the paper's Table II reports).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinaryMetrics {
    /// True positives.
    pub tp: usize,
    /// True negatives.
    pub tn: usize,
    /// False positives.
    pub fp: usize,
    /// False negatives.
    pub fn_: usize,
}

impl BinaryMetrics {
    /// Tallies predictions against truth (+1 is the positive class).
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn from_predictions(truth: &[i8], predicted: &[i8]) -> Self {
        assert_eq!(truth.len(), predicted.len(), "length mismatch");
        let mut m = BinaryMetrics {
            tp: 0,
            tn: 0,
            fp: 0,
            fn_: 0,
        };
        for (&t, &p) in truth.iter().zip(predicted) {
            match (t > 0, p > 0) {
                (true, true) => m.tp += 1,
                (false, false) => m.tn += 1,
                (false, true) => m.fp += 1,
                (true, false) => m.fn_ += 1,
            }
        }
        m
    }

    /// True-positive rate (recall/sensitivity); 0 when no positives exist.
    pub fn tpr(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }

    /// True-negative rate (specificity); 0 when no negatives exist.
    pub fn tnr(&self) -> f64 {
        ratio(self.tn, self.tn + self.fp)
    }

    /// Precision; 0 when nothing was predicted positive.
    pub fn precision(&self) -> f64 {
        ratio(self.tp, self.tp + self.fp)
    }

    /// Overall accuracy; 0 on empty input.
    pub fn accuracy(&self) -> f64 {
        ratio(self.tp + self.tn, self.total())
    }

    /// F1 score (harmonic mean of precision and recall).
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.tpr();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Total samples tallied.
    pub fn total(&self) -> usize {
        self.tp + self.tn + self.fp + self.fn_
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A receiver-operating-characteristic curve.
#[derive(Debug, Clone, PartialEq)]
pub struct RocCurve {
    /// `(fpr, tpr)` points, sorted by increasing threshold permissiveness
    /// (from (0,0) to (1,1)).
    pub points: Vec<(f64, f64)>,
    /// Area under the curve (trapezoidal).
    pub auc: f64,
}

/// Computes the ROC curve from decision scores (+1 truth = positive class).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn roc_curve(truth: &[i8], scores: &[f64]) -> RocCurve {
    assert_eq!(truth.len(), scores.len(), "length mismatch");
    let positives = truth.iter().filter(|&&t| t > 0).count();
    let negatives = truth.len() - positives;
    let mut order: Vec<usize> = (0..truth.len()).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut points = vec![(0.0, 0.0)];
    let (mut tp, mut fp) = (0usize, 0usize);
    let mut i = 0;
    while i < order.len() {
        // Samples sharing a score move together (proper tie handling).
        let score = scores[order[i]];
        while i < order.len() && scores[order[i]] == score {
            if truth[order[i]] > 0 {
                tp += 1;
            } else {
                fp += 1;
            }
            i += 1;
        }
        points.push((ratio(fp, negatives), ratio(tp, positives)));
    }
    if points.last() != Some(&(1.0, 1.0)) && positives > 0 && negatives > 0 {
        points.push((1.0, 1.0));
    }

    let mut auc = 0.0;
    for pair in points.windows(2) {
        let (x0, y0) = pair[0];
        let (x1, y1) = pair[1];
        auc += (x1 - x0) * (y0 + y1) / 2.0;
    }
    RocCurve { points, auc }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_confusion_matrix() {
        let truth = [1, 1, -1, -1, 1, -1];
        let pred = [1, -1, -1, 1, 1, -1];
        let m = BinaryMetrics::from_predictions(&truth, &pred);
        assert_eq!((m.tp, m.tn, m.fp, m.fn_), (2, 2, 1, 1));
        assert!((m.tpr() - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.tnr() - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.accuracy() - 4.0 / 6.0).abs() < 1e-12);
        assert!((m.f1() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_classifier_scores_one() {
        let truth = [1, -1, 1, -1];
        let m = BinaryMetrics::from_predictions(&truth, &truth);
        assert_eq!(m.accuracy(), 1.0);
        assert_eq!(m.f1(), 1.0);
        assert_eq!(m.tpr(), 1.0);
        assert_eq!(m.tnr(), 1.0);
    }

    #[test]
    fn degenerate_inputs_yield_zero_not_nan() {
        let m = BinaryMetrics::from_predictions(&[], &[]);
        assert_eq!(m.accuracy(), 0.0);
        assert_eq!(m.f1(), 0.0);
        let all_neg = BinaryMetrics::from_predictions(&[-1, -1], &[-1, -1]);
        assert_eq!(all_neg.tpr(), 0.0);
        assert_eq!(all_neg.tnr(), 1.0);
    }

    #[test]
    fn perfect_scores_give_unit_auc() {
        let truth = [1, 1, -1, -1];
        let scores = [0.9, 0.8, 0.2, 0.1];
        let roc = roc_curve(&truth, &scores);
        assert!((roc.auc - 1.0).abs() < 1e-12, "auc = {}", roc.auc);
        assert_eq!(roc.points.first(), Some(&(0.0, 0.0)));
        assert_eq!(roc.points.last(), Some(&(1.0, 1.0)));
    }

    #[test]
    fn random_scores_give_half_auc() {
        // Perfectly interleaved scores → AUC 0.5.
        let truth = [1, -1, 1, -1, 1, -1];
        let scores = [0.6, 0.5, 0.4, 0.3, 0.2, 0.1];
        let roc = roc_curve(&truth, &scores);
        assert!((roc.auc - 0.5).abs() < 0.2, "auc = {}", roc.auc);
    }

    #[test]
    fn inverted_scores_give_zero_auc() {
        let truth = [1, 1, -1, -1];
        let scores = [0.1, 0.2, 0.8, 0.9];
        let roc = roc_curve(&truth, &scores);
        assert!(roc.auc < 0.01, "auc = {}", roc.auc);
    }

    #[test]
    fn tied_scores_move_together() {
        let truth = [1, -1];
        let scores = [0.5, 0.5];
        let roc = roc_curve(&truth, &scores);
        // One diagonal step; AUC 0.5.
        assert!((roc.auc - 0.5).abs() < 1e-12);
    }
}
