//! C-SVC training via the SMO algorithm.

use crate::dataset::Dataset;
use crate::error::MlError;
use crate::kernel::Kernel;
use crate::parallel::parallel_map;
use crate::smo;
pub use crate::smo::{SmoContext, TrainStats};

/// Which SMO solver [`SvmModel::train`] runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SmoSolver {
    /// Maximal-violating-pair working-set selection with an LRU kernel-row
    /// cache and active-set shrinking (the fast path; deterministic without
    /// randomness).
    #[default]
    WorkingSet,
    /// The original random-partner simplified SMO with a precomputed n×n
    /// kernel matrix, kept as the differential-testing baseline.
    Simplified,
}

/// Hyper-parameters for [`SvmModel::train`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvmParams {
    /// Soft-margin penalty C.
    pub c: f64,
    /// Kernel.
    pub kernel: Kernel,
    /// KKT violation tolerance.
    pub tol: f64,
    /// Convergence: passes over the data without an update (simplified
    /// solver only).
    pub max_passes: u32,
    /// Hard iteration cap: full sweeps for the simplified solver, pair
    /// updates per sample for the working-set solver.
    pub max_iters: u32,
    /// RNG seed for the simplified solver's partner-selection heuristic.
    /// The working-set solver is deterministic by construction and ignores
    /// it, so models are reproducible under either solver.
    pub seed: u64,
    /// Multiplier on `C` for +1-labeled samples (class weighting for
    /// imbalanced data; 1.0 = unweighted).
    pub positive_weight: f64,
    /// Which SMO solver to run.
    pub solver: SmoSolver,
    /// Kernel-row LRU cache capacity for the working-set solver, in rows
    /// (each row is `n` doubles). Clamped to at least 2 internally.
    pub cache_rows: usize,
}

impl Default for SvmParams {
    fn default() -> Self {
        SvmParams {
            c: 1.0,
            kernel: Kernel::default(),
            tol: 1e-3,
            max_passes: 8,
            max_iters: 2_000,
            seed: 42,
            positive_weight: 1.0,
            solver: SmoSolver::default(),
            cache_rows: 256,
        }
    }
}

impl SvmParams {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::Param`] for non-positive `c`/`tol`, zero pass
    /// and iteration budgets, or invalid kernel hyper-parameters (see
    /// [`Kernel::validate`]).
    pub fn validate(&self) -> Result<(), MlError> {
        if !(self.c > 0.0 && self.c.is_finite()) {
            return Err(MlError::Param(format!("C = {} must be positive", self.c)));
        }
        self.kernel.validate()?;
        if !(self.tol > 0.0 && self.tol.is_finite()) {
            return Err(MlError::Param(format!(
                "tol = {} must be positive",
                self.tol
            )));
        }
        if self.max_passes == 0 || self.max_iters == 0 {
            return Err(MlError::Param("iteration budgets must be nonzero".into()));
        }
        if !(self.positive_weight > 0.0 && self.positive_weight.is_finite()) {
            return Err(MlError::Param(format!(
                "positive_weight = {} must be positive",
                self.positive_weight
            )));
        }
        Ok(())
    }
}

/// A trained support-vector classifier.
///
/// Besides the support vectors the model stores two prediction
/// accelerators: for linear kernels the support expansion is collapsed
/// into a single weight vector (`decision` is O(d) instead of
/// O(n_sv · d)), and for every kernel the support-vector squared norms are
/// precomputed so each kernel evaluation needs only a dot product.
#[derive(Debug, Clone, PartialEq)]
pub struct SvmModel {
    support_x: Vec<Vec<f64>>,
    support_coeff: Vec<f64>, // alpha_i * y_i
    support_norms: Vec<f64>, // ‖sv_i‖²
    /// Collapsed `Σ coeff_i · sv_i` for linear kernels.
    linear_w: Option<Vec<f64>>,
    bias: f64,
    kernel: Kernel,
    stats: TrainStats,
}

impl SvmModel {
    /// Trains a C-SVC on `data` with the configured SMO solver
    /// (working-set by default; see [`SmoSolver`]).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::Degenerate`] when the data is empty or contains a
    /// single class, and [`MlError::Param`] for invalid hyper-parameters.
    pub fn train(data: &Dataset, params: &SvmParams) -> Result<Self, MlError> {
        Self::train_inner(data, params, None)
    }

    /// Trains like [`train`](Self::train), warm-starting the working-set
    /// solver from `ctx` — the previous round's dual variables seed the
    /// solution and its kernel-row cache is reused (rows are extended in
    /// place when samples were appended). The solved state is written back
    /// to `ctx` for the next round.
    ///
    /// A fresh context reproduces the cold-start model bit for bit, and
    /// the whole round sequence is deterministic, so warm-started models
    /// are reproducible from (data sequence, params). The simplified
    /// solver has no warm path and falls back to a cold start.
    ///
    /// # Errors
    ///
    /// As for [`train`](Self::train).
    pub fn train_warm(
        data: &Dataset,
        params: &SvmParams,
        ctx: &mut SmoContext,
    ) -> Result<Self, MlError> {
        Self::train_inner(data, params, Some(ctx))
    }

    fn train_inner(
        data: &Dataset,
        params: &SvmParams,
        ctx: Option<&mut SmoContext>,
    ) -> Result<Self, MlError> {
        params.validate()?;
        let n = data.len();
        if n == 0 {
            return Err(MlError::Degenerate("empty training set".into()));
        }
        if !data.has_both_classes() {
            return Err(MlError::Degenerate(
                "training set has a single class".into(),
            ));
        }

        let x = data.features();
        let y: Vec<f64> = data.labels().iter().map(|&l| f64::from(l)).collect();
        // Per-sample box constraint: weighted C for the positive class.
        let c_of: Vec<f64> = y
            .iter()
            .map(|&yi| {
                if yi > 0.0 {
                    params.c * params.positive_weight
                } else {
                    params.c
                }
            })
            .collect();

        let (alpha, bias, stats) = match (params.solver, ctx) {
            (SmoSolver::WorkingSet, Some(ctx)) => {
                smo::solve_working_set_warm(x, &y, &c_of, params, ctx)
            }
            (SmoSolver::WorkingSet, None) => smo::solve_working_set(x, &y, &c_of, params),
            (SmoSolver::Simplified, _) => smo::solve_simplified(x, &y, &c_of, params),
        };

        let mut support_x = Vec::new();
        let mut support_coeff = Vec::new();
        for i in 0..n {
            if alpha[i] > 1e-8 {
                support_x.push(x[i].clone());
                support_coeff.push(alpha[i] * y[i]);
            }
        }
        let support_norms: Vec<f64> = support_x
            .iter()
            .map(|sv| sv.iter().map(|v| v * v).sum())
            .collect();
        let linear_w = match params.kernel {
            Kernel::Linear => {
                let width = data.width();
                let mut w = vec![0.0f64; width];
                for (sv, &coeff) in support_x.iter().zip(&support_coeff) {
                    for (wk, &vk) in w.iter_mut().zip(sv) {
                        *wk += coeff * vk;
                    }
                }
                Some(w)
            }
            _ => None,
        };
        Ok(SvmModel {
            support_x,
            support_coeff,
            support_norms,
            linear_w,
            bias,
            kernel: params.kernel,
            stats,
        })
    }

    /// Signed decision value for one sample (positive ⇒ class +1).
    pub fn decision(&self, x: &[f64]) -> f64 {
        if let Some(w) = &self.linear_w {
            let dot: f64 = w.iter().zip(x).map(|(a, b)| a * b).sum();
            return self.bias + dot;
        }
        let norm_x: f64 = x.iter().map(|v| v * v).sum();
        let mut sum = self.bias;
        for ((sv, &coeff), &norm_sv) in self
            .support_x
            .iter()
            .zip(&self.support_coeff)
            .zip(&self.support_norms)
        {
            let dot: f64 = sv.iter().zip(x).map(|(a, b)| a * b).sum();
            sum += coeff * self.kernel.eval_dot(dot, norm_sv, norm_x);
        }
        sum
    }

    /// Reference decision value summing full kernel evaluations over the
    /// support vectors — the pre-optimization prediction path, kept for
    /// differential tests and benchmarks against [`decision`](Self::decision).
    #[doc(hidden)]
    pub fn decision_reference(&self, x: &[f64]) -> f64 {
        let mut sum = self.bias;
        for (sv, &coeff) in self.support_x.iter().zip(&self.support_coeff) {
            sum += coeff * self.kernel.eval(sv, x);
        }
        sum
    }

    /// Predicted class (+1 / −1).
    pub fn predict(&self, x: &[f64]) -> i8 {
        if self.decision(x) >= 0.0 {
            1
        } else {
            -1
        }
    }

    /// Predicts a batch of samples.
    pub fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<i8> {
        rows.iter().map(|r| self.predict(r)).collect()
    }

    /// Predicts a batch across up to `threads` scoped worker threads
    /// (0 = all cores). Output is identical to
    /// [`predict_batch`](Self::predict_batch) (and therefore to every other
    /// thread count).
    pub fn predict_batch_with(&self, rows: &[Vec<f64>], threads: usize) -> Vec<i8> {
        parallel_map(rows, threads, |_, row| self.predict(row))
    }

    /// The kernel the model was trained with.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Deterministic solver counters from training (iterations, kernel
    /// cache hits/misses, shrink rounds).
    pub fn train_stats(&self) -> &TrainStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn blob_dataset(n_per_class: usize, separation: f64, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n_per_class {
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
    fn separable_blobs_classify_perfectly() {
        let data = blob_dataset(25, 2.0, 1);
        let model = SvmModel::train(&data, &SvmParams::default()).unwrap();
        for (row, &label) in data.features().iter().zip(data.labels()) {
            assert_eq!(model.predict(row), label);
        }
        assert!(model.support_x.len() < data.len());
    }

    #[test]
    fn xor_needs_rbf() {
        // XOR pattern with 4 tight clusters.
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            for (cx, cy, label) in [
                (0.0, 0.0, -1i8),
                (1.0, 1.0, -1),
                (0.0, 1.0, 1),
                (1.0, 0.0, 1),
            ] {
                x.push(vec![
                    cx + rng.gen::<f64>() * 0.2,
                    cy + rng.gen::<f64>() * 0.2,
                ]);
                y.push(label);
            }
        }
        let data = Dataset::new(x, y).unwrap();
        let rbf = SvmModel::train(
            &data,
            &SvmParams {
                kernel: Kernel::Rbf { gamma: 4.0 },
                c: 10.0,
                ..SvmParams::default()
            },
        )
        .unwrap();
        let correct = data
            .features()
            .iter()
            .zip(data.labels())
            .filter(|(row, &l)| rbf.predict(row) == l)
            .count();
        assert!(correct as f64 / data.len() as f64 > 0.95, "{correct}");
    }

    #[test]
    fn training_is_deterministic_under_seed() {
        let data = blob_dataset(15, 1.5, 7);
        let a = SvmModel::train(&data, &SvmParams::default()).unwrap();
        let b = SvmModel::train(&data, &SvmParams::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_single_class_and_empty() {
        let one_class = Dataset::new(vec![vec![1.0], vec![2.0]], vec![1, 1]).unwrap();
        assert!(matches!(
            SvmModel::train(&one_class, &SvmParams::default()),
            Err(MlError::Degenerate(_))
        ));
        let empty = Dataset::new(vec![], vec![]).unwrap();
        assert!(SvmModel::train(&empty, &SvmParams::default()).is_err());
    }

    #[test]
    fn rejects_bad_params() {
        let data = blob_dataset(5, 2.0, 1);
        for params in [
            SvmParams {
                c: 0.0,
                ..SvmParams::default()
            },
            SvmParams {
                tol: -1.0,
                ..SvmParams::default()
            },
            SvmParams {
                max_passes: 0,
                ..SvmParams::default()
            },
        ] {
            assert!(matches!(
                SvmModel::train(&data, &params),
                Err(MlError::Param(_))
            ));
        }
    }

    #[test]
    fn decision_sign_matches_prediction() {
        let data = blob_dataset(20, 2.0, 5);
        let model = SvmModel::train(&data, &SvmParams::default()).unwrap();
        for row in data.features() {
            let d = model.decision(row);
            assert_eq!(model.predict(row), if d >= 0.0 { 1 } else { -1 });
        }
    }

    #[test]
    fn predict_batch_matches_predict() {
        let data = blob_dataset(10, 2.0, 9);
        let model = SvmModel::train(&data, &SvmParams::default()).unwrap();
        let batch = model.predict_batch(data.features());
        for (i, row) in data.features().iter().enumerate() {
            assert_eq!(batch[i], model.predict(row));
        }
    }

    #[test]
    fn positive_weight_recovers_minority_class() {
        // 5 positives vs 50 negatives with overlap: unweighted SVM tends to
        // ignore the minority; a weighted one must catch most positives.
        let mut rng = StdRng::seed_from_u64(21);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..50 {
            x.push(vec![rng.gen::<f64>() * 1.2, rng.gen::<f64>() * 1.2]);
            y.push(-1);
        }
        for _ in 0..5 {
            x.push(vec![
                1.0 + rng.gen::<f64>() * 0.6,
                1.0 + rng.gen::<f64>() * 0.6,
            ]);
            y.push(1);
        }
        let data = Dataset::new(x, y).unwrap();
        let weighted = SvmModel::train(
            &data,
            &SvmParams {
                positive_weight: 10.0,
                kernel: Kernel::Rbf { gamma: 1.0 },
                ..SvmParams::default()
            },
        )
        .unwrap();
        let caught = data
            .features()
            .iter()
            .zip(data.labels())
            .filter(|(row, &l)| l == 1 && weighted.predict(row) == 1)
            .count();
        assert!(caught >= 4, "caught only {caught}/5 positives");
    }

    #[test]
    fn rejects_nonpositive_weight() {
        let data = blob_dataset(5, 2.0, 1);
        assert!(SvmModel::train(
            &data,
            &SvmParams {
                positive_weight: 0.0,
                ..SvmParams::default()
            }
        )
        .is_err());
    }

    #[test]
    fn both_solvers_agree_on_separable_data() {
        let data = blob_dataset(25, 2.0, 13);
        for solver in [SmoSolver::WorkingSet, SmoSolver::Simplified] {
            let model = SvmModel::train(
                &data,
                &SvmParams {
                    solver,
                    ..SvmParams::default()
                },
            )
            .unwrap();
            for (row, &label) in data.features().iter().zip(data.labels()) {
                assert_eq!(model.predict(row), label, "{solver:?}");
            }
        }
    }

    #[test]
    fn working_set_reports_cache_and_iteration_stats() {
        let data = blob_dataset(30, 1.0, 17);
        let model = SvmModel::train(&data, &SvmParams::default()).unwrap();
        let stats = model.train_stats();
        assert!(stats.iterations > 0);
        assert!(stats.kernel_cache_misses > 0);
        assert!(
            stats.kernel_cache_hits > 0,
            "working-set SMO revisits violators; the row cache must hit"
        );
    }

    #[test]
    fn tiny_cache_still_converges_to_the_same_model() {
        let data = blob_dataset(20, 1.2, 19);
        let full = SvmModel::train(
            &data,
            &SvmParams {
                cache_rows: 4096,
                ..SvmParams::default()
            },
        )
        .unwrap();
        let tiny = SvmModel::train(
            &data,
            &SvmParams {
                cache_rows: 2,
                ..SvmParams::default()
            },
        )
        .unwrap();
        // Cache size changes only hit/miss counters, never the solution.
        assert_eq!(full.support_x, tiny.support_x);
        assert_eq!(full.support_coeff, tiny.support_coeff);
        assert_eq!(full.bias, tiny.bias);
        assert!(tiny.train_stats().kernel_cache_misses > full.train_stats().kernel_cache_misses);
    }

    #[test]
    fn fast_decision_matches_reference_path() {
        let mut rng = StdRng::seed_from_u64(23);
        for kernel in [
            Kernel::Linear,
            Kernel::Rbf { gamma: 0.8 },
            Kernel::Poly {
                gamma: 0.5,
                coef0: 1.0,
                degree: 3,
            },
        ] {
            let data = blob_dataset(20, 1.0, 29);
            let model = SvmModel::train(
                &data,
                &SvmParams {
                    kernel,
                    ..SvmParams::default()
                },
            )
            .unwrap();
            for _ in 0..50 {
                let q = vec![rng.gen::<f64>() * 3.0 - 0.5, rng.gen::<f64>() * 3.0 - 0.5];
                let fast = model.decision(&q);
                let reference = model.decision_reference(&q);
                assert!(
                    (fast - reference).abs() < 1e-9,
                    "{kernel:?}: {fast} vs {reference}"
                );
            }
        }
    }

    #[test]
    fn predict_batch_with_is_thread_count_invariant() {
        let data = blob_dataset(25, 1.5, 31);
        let model = SvmModel::train(&data, &SvmParams::default()).unwrap();
        let queries: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![i as f64 / 100.0, (i % 7) as f64 * 0.2])
            .collect();
        let serial = model.predict_batch(&queries);
        for threads in [1usize, 2, 8] {
            assert_eq!(
                model.predict_batch_with(&queries, threads),
                serial,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn rejects_bad_kernel_params_at_train_time() {
        let data = blob_dataset(5, 2.0, 1);
        assert!(matches!(
            SvmModel::train(
                &data,
                &SvmParams {
                    kernel: Kernel::Rbf { gamma: -1.0 },
                    ..SvmParams::default()
                }
            ),
            Err(MlError::Param(_))
        ));
    }

    #[test]
    fn warm_start_with_fresh_context_matches_cold_start() {
        let data = blob_dataset(20, 1.2, 37);
        let cold = SvmModel::train(&data, &SvmParams::default()).unwrap();
        let mut ctx = SmoContext::new(256);
        let warm = SvmModel::train_warm(&data, &SvmParams::default(), &mut ctx).unwrap();
        assert_eq!(cold, warm);
    }

    #[test]
    fn warm_start_across_growing_rounds_is_deterministic_and_cheaper() {
        // Round 1 trains on a prefix; round 2 appends samples. The warm
        // second round must match a second context replaying the same
        // sequence bit for bit, and converge in fewer iterations than a
        // cold solve of the full set.
        let data = blob_dataset(40, 1.0, 41);
        let prefix =
            Dataset::new(data.features()[..40].to_vec(), data.labels()[..40].to_vec()).unwrap();
        let params = SvmParams::default();

        let mut ctx_a = SmoContext::new(256);
        SvmModel::train_warm(&prefix, &params, &mut ctx_a).unwrap();
        let full_a = SvmModel::train_warm(&data, &params, &mut ctx_a).unwrap();

        let mut ctx_b = SmoContext::new(256);
        SvmModel::train_warm(&prefix, &params, &mut ctx_b).unwrap();
        let full_b = SvmModel::train_warm(&data, &params, &mut ctx_b).unwrap();
        assert_eq!(full_a, full_b);

        let cold = SvmModel::train(&data, &params).unwrap();
        assert!(
            full_a.train_stats().iterations <= cold.train_stats().iterations,
            "warm {} vs cold {}",
            full_a.train_stats().iterations,
            cold.train_stats().iterations
        );
        // Warm and cold models agree on every training sample.
        for row in data.features() {
            assert_eq!(full_a.predict(row), cold.predict(row));
        }
    }

    #[test]
    fn warm_start_survives_label_flips() {
        // Flip a band of labels between rounds: flipped alphas are zeroed
        // and the dual constraint repaired, so training still succeeds and
        // classifies the (separable) relabeled data.
        let data = blob_dataset(20, 2.0, 43);
        let params = SvmParams::default();
        let mut ctx = SmoContext::new(256);
        SvmModel::train_warm(&data, &params, &mut ctx).unwrap();
        let mut labels = data.labels().to_vec();
        for l in labels.iter_mut().take(6) {
            *l = -*l;
        }
        let flipped = Dataset::new(data.features().to_vec(), labels.clone()).unwrap();
        let warm = SvmModel::train_warm(&flipped, &params, &mut ctx).unwrap();
        let cold = SvmModel::train(&flipped, &params).unwrap();
        let agree = flipped
            .features()
            .iter()
            .filter(|row| warm.predict(row) == cold.predict(row))
            .count();
        assert!(
            agree as f64 / flipped.len() as f64 >= 0.95,
            "warm/cold disagree on {} of {}",
            flipped.len() - agree,
            flipped.len()
        );
    }

    #[test]
    fn linear_kernel_works_on_separable_data() {
        let data = blob_dataset(20, 3.0, 11);
        let model = SvmModel::train(
            &data,
            &SvmParams {
                kernel: Kernel::Linear,
                ..SvmParams::default()
            },
        )
        .unwrap();
        let correct = data
            .features()
            .iter()
            .zip(data.labels())
            .filter(|(row, &l)| model.predict(row) == l)
            .count();
        assert_eq!(correct, data.len());
    }
}
