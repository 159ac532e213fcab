//! Baseline classifiers for comparison against the SVM.
//!
//! The paper argues for an SVM; these baselines quantify the choice on the
//! same features and labels: an L2-regularized logistic regression trained
//! by batch gradient descent, and a k-nearest-neighbors voter.

use crate::dataset::Dataset;
use crate::error::MlError;

/// L2-regularized logistic regression trained by gradient descent.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
}

/// Hyper-parameters for [`LogisticRegression::train`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogisticParams {
    /// Learning rate.
    pub learning_rate: f64,
    /// L2 penalty.
    pub l2: f64,
    /// Gradient-descent epochs.
    pub epochs: u32,
}

impl Default for LogisticParams {
    fn default() -> Self {
        LogisticParams {
            learning_rate: 0.1,
            l2: 1e-3,
            epochs: 500,
        }
    }
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

impl LogisticRegression {
    /// Trains on ±1-labeled data (internally mapped to 0/1).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::Degenerate`] for empty or single-class data and
    /// [`MlError::Param`] for non-positive hyper-parameters.
    pub fn train(data: &Dataset, params: &LogisticParams) -> Result<Self, MlError> {
        if params.learning_rate.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
            || params.epochs == 0
            || params.l2 < 0.0
        {
            return Err(MlError::Param("bad logistic-regression params".into()));
        }
        if data.is_empty() {
            return Err(MlError::Degenerate("empty training set".into()));
        }
        if !data.has_both_classes() {
            return Err(MlError::Degenerate("single-class training set".into()));
        }
        let n = data.len() as f64;
        let width = data.width();
        let mut weights = vec![0.0f64; width];
        let mut bias = 0.0f64;
        let targets: Vec<f64> = data
            .labels()
            .iter()
            .map(|&l| if l > 0 { 1.0 } else { 0.0 })
            .collect();

        for _ in 0..params.epochs {
            let mut grad_w = vec![0.0f64; width];
            let mut grad_b = 0.0f64;
            for (row, &t) in data.features().iter().zip(&targets) {
                let z = bias + row.iter().zip(&weights).map(|(x, w)| x * w).sum::<f64>();
                let err = sigmoid(z) - t;
                for (g, x) in grad_w.iter_mut().zip(row) {
                    *g += err * x;
                }
                grad_b += err;
            }
            for (w, g) in weights.iter_mut().zip(&grad_w) {
                *w -= params.learning_rate * (g / n + params.l2 * *w);
            }
            bias -= params.learning_rate * grad_b / n;
        }
        Ok(LogisticRegression { weights, bias })
    }

    /// Signed decision value (positive ⇒ class +1).
    pub fn decision(&self, x: &[f64]) -> f64 {
        self.bias + x.iter().zip(&self.weights).map(|(v, w)| v * w).sum::<f64>()
    }

    /// Predicted class (+1 / −1).
    pub fn predict(&self, x: &[f64]) -> i8 {
        if self.decision(x) >= 0.0 {
            1
        } else {
            -1
        }
    }
}

/// A k-nearest-neighbors classifier over Euclidean distance.
#[derive(Debug, Clone, PartialEq)]
pub struct KnnClassifier {
    x: Vec<Vec<f64>>,
    y: Vec<i8>,
    k: usize,
}

impl KnnClassifier {
    /// Stores the training set.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::Param`] for `k == 0` and
    /// [`MlError::Degenerate`] for an empty training set.
    pub fn fit(data: &Dataset, k: usize) -> Result<Self, MlError> {
        if k == 0 {
            return Err(MlError::Param("k must be nonzero".into()));
        }
        if data.is_empty() {
            return Err(MlError::Degenerate("empty training set".into()));
        }
        Ok(KnnClassifier {
            x: data.features().to_vec(),
            y: data.labels().to_vec(),
            k: k.min(data.len()),
        })
    }

    /// Majority vote among the `k` nearest training samples (+1 wins ties).
    pub fn predict(&self, query: &[f64]) -> i8 {
        let mut distances: Vec<(f64, i8)> = self
            .x
            .iter()
            .zip(&self.y)
            .map(|(row, &label)| {
                let d2: f64 = row
                    .iter()
                    .zip(query)
                    .map(|(a, b)| {
                        let d = a - b;
                        d * d
                    })
                    .sum();
                (d2, label)
            })
            .collect();
        distances.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let votes: i32 = distances[..self.k].iter().map(|&(_, l)| i32::from(l)).sum();
        if votes >= 0 {
            1
        } else {
            -1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn blob(n: usize, separation: f64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(13);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            x.push(vec![rng.gen::<f64>(), rng.gen::<f64>()]);
            y.push(-1);
            x.push(vec![
                rng.gen::<f64>() + separation,
                rng.gen::<f64>() + separation,
            ]);
            y.push(1);
        }
        Dataset::new(x, y).unwrap()
    }

    #[test]
    fn logistic_separates_blobs() {
        let data = blob(30, 2.0);
        let model = LogisticRegression::train(&data, &LogisticParams::default()).unwrap();
        let correct = data
            .features()
            .iter()
            .zip(data.labels())
            .filter(|(row, &l)| model.predict(row) == l)
            .count();
        assert!(correct as f64 / data.len() as f64 > 0.95, "{correct}");
        // Decision sign matches prediction.
        for row in data.features() {
            assert_eq!(
                model.predict(row),
                if model.decision(row) >= 0.0 { 1 } else { -1 }
            );
        }
    }

    #[test]
    fn logistic_rejects_bad_inputs() {
        let data = blob(5, 2.0);
        assert!(LogisticRegression::train(
            &data,
            &LogisticParams {
                epochs: 0,
                ..LogisticParams::default()
            }
        )
        .is_err());
        let single = Dataset::new(vec![vec![1.0], vec![2.0]], vec![1, 1]).unwrap();
        assert!(LogisticRegression::train(&single, &LogisticParams::default()).is_err());
    }

    #[test]
    fn knn_separates_blobs() {
        let data = blob(30, 2.0);
        let model = KnnClassifier::fit(&data, 5).unwrap();
        let correct = data
            .features()
            .iter()
            .zip(data.labels())
            .filter(|(row, &l)| model.predict(row) == l)
            .count();
        assert_eq!(correct, data.len(), "training points are their own NN");
        assert_eq!(model.predict(&[3.0, 3.0]), 1);
        assert_eq!(model.predict(&[0.2, 0.2]), -1);
    }

    #[test]
    fn knn_k_is_clamped_and_validated() {
        let data = blob(3, 2.0);
        assert!(KnnClassifier::fit(&data, 0).is_err());
        let model = KnnClassifier::fit(&data, 999).unwrap();
        // With k = all points, the majority class (balanced -> tie -> +1).
        assert_eq!(model.predict(&[0.5, 0.5]), 1);
    }
}
