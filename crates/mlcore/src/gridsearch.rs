//! Hyper-parameter grid search over (C, γ) with cross-validation.

use crate::crossval::KFold;
use crate::dataset::Dataset;
use crate::error::MlError;
use crate::kernel::Kernel;
use crate::svm::{SvmModel, SvmParams};

/// The outcome of a grid search.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSearchResult {
    /// The best (C, γ) pair.
    pub best_c: f64,
    /// Best RBF γ.
    pub best_gamma: f64,
    /// Mean CV accuracy at the best point.
    pub best_score: f64,
    /// Every `(c, gamma, score)` evaluated, in grid order.
    pub evaluations: Vec<(f64, f64, f64)>,
}

/// The default C grid used when none is supplied (log-spaced, as in the
/// paper's scikit-learn flow).
pub const DEFAULT_C_GRID: &[f64] = &[0.1, 1.0, 10.0, 100.0];

/// The default γ grid.
pub const DEFAULT_GAMMA_GRID: &[f64] = &[0.01, 0.1, 0.5, 1.0, 4.0];

/// Exhaustively evaluates an RBF SVM over `c_grid × gamma_grid` with k-fold
/// cross-validation, returning the best pair (ties break toward the first
/// grid point, making the search deterministic), fanned out across up to
/// `threads` worker threads (0 = all cores).
///
/// The parameter×fold grid is flattened into `|C| × |γ| × k` independent
/// jobs — each trains one fold at one grid point — then scores are reduced
/// in grid order with a strict-improvement rule, so the chosen point and
/// every evaluation are bit-identical for any thread count.
///
/// # Errors
///
/// Returns [`MlError::Param`] for empty grids and propagates CV errors
/// (first error in grid order wins deterministically).
pub fn grid_search_with(
    data: &Dataset,
    c_grid: &[f64],
    gamma_grid: &[f64],
    folds: &KFold,
    threads: usize,
) -> Result<GridSearchResult, MlError> {
    if c_grid.is_empty() || gamma_grid.is_empty() {
        return Err(MlError::Param("empty hyper-parameter grid".into()));
    }
    let splits = folds.split(data)?;
    // Flatten (c, gamma) × fold into one job list so a few slow folds
    // cannot serialize the whole search.
    let mut jobs: Vec<(usize, f64, f64, usize)> = Vec::new();
    for (point, (&c, &gamma)) in c_grid
        .iter()
        .flat_map(|c| gamma_grid.iter().map(move |g| (c, g)))
        .enumerate()
    {
        for fold in 0..splits.len() {
            jobs.push((point, c, gamma, fold));
        }
    }
    let outcomes = crate::parallel::parallel_map(&jobs, threads, |_, &(_, c, gamma, fold)| {
        let params = SvmParams {
            c,
            kernel: Kernel::Rbf { gamma },
            ..SvmParams::default()
        };
        let (train_idx, test_idx) = &splits[fold];
        let train = data.subset(train_idx);
        if !train.has_both_classes() || test_idx.is_empty() {
            return Ok(None);
        }
        let model = SvmModel::train(&train, &params)?;
        let test = data.subset(test_idx);
        let predicted = model.predict_batch(test.features());
        Ok(Some(
            crate::metrics::BinaryMetrics::from_predictions(test.labels(), &predicted).accuracy(),
        ))
    });

    // Reduce per grid point, in grid order (fold order within each point).
    let points = c_grid.len() * gamma_grid.len();
    let mut totals = vec![(0.0f64, 0usize); points];
    for (job, outcome) in jobs.iter().zip(outcomes) {
        if let Some(accuracy) = outcome? {
            totals[job.0].0 += accuracy;
            totals[job.0].1 += 1;
        }
    }
    let mut best: Option<(f64, f64, f64)> = None;
    let mut evaluations = Vec::with_capacity(points);
    for (point, (&c, &gamma)) in c_grid
        .iter()
        .flat_map(|c| gamma_grid.iter().map(move |g| (c, g)))
        .enumerate()
    {
        let (total, counted) = totals[point];
        if counted == 0 {
            return Err(MlError::Degenerate(
                "every fold degenerated to one class".into(),
            ));
        }
        let score = total / counted as f64;
        evaluations.push((c, gamma, score));
        let better = match best {
            None => true,
            Some((_, _, s)) => score > s,
        };
        if better {
            best = Some((c, gamma, score));
        }
    }
    let (best_c, best_gamma, best_score) = best.expect("grids are nonempty");
    Ok(GridSearchResult {
        best_c,
        best_gamma,
        best_score,
        evaluations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn blob(n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(5);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            x.push(vec![rng.gen::<f64>(), rng.gen::<f64>()]);
            y.push(-1);
            x.push(vec![rng.gen::<f64>() + 1.5, rng.gen::<f64>() + 1.5]);
            y.push(1);
        }
        Dataset::new(x, y).unwrap()
    }

    #[test]
    fn finds_a_good_point_and_records_all_evaluations() {
        let data = blob(25);
        let folds = KFold::new(5, 0).unwrap();
        let result = grid_search_with(&data, &[0.5, 5.0], &[0.1, 1.0], &folds, 1).unwrap();
        assert_eq!(result.evaluations.len(), 4);
        assert!(result.best_score > 0.9, "{}", result.best_score);
        assert!(result
            .evaluations
            .iter()
            .all(|&(_, _, s)| s <= result.best_score));
        assert!([0.5, 5.0].contains(&result.best_c));
        assert!([0.1, 1.0].contains(&result.best_gamma));
    }

    #[test]
    fn rejects_empty_grids() {
        let data = blob(10);
        let folds = KFold::new(2, 0).unwrap();
        assert!(grid_search_with(&data, &[], &[0.1], &folds, 1).is_err());
        assert!(grid_search_with(&data, &[1.0], &[], &folds, 1).is_err());
    }

    #[test]
    fn search_is_thread_count_invariant() {
        let data = blob(15);
        let folds = KFold::new(3, 1).unwrap();
        let serial =
            grid_search_with(&data, DEFAULT_C_GRID, DEFAULT_GAMMA_GRID, &folds, 1).unwrap();
        for threads in [2usize, 8] {
            let threaded =
                grid_search_with(&data, DEFAULT_C_GRID, DEFAULT_GAMMA_GRID, &folds, threads)
                    .unwrap();
            assert_eq!(serial, threaded, "threads = {threads}");
        }
    }

    #[test]
    fn search_is_deterministic() {
        let data = blob(15);
        let folds = KFold::new(3, 1).unwrap();
        let a = grid_search_with(&data, DEFAULT_C_GRID, DEFAULT_GAMMA_GRID, &folds, 1).unwrap();
        let b = grid_search_with(&data, DEFAULT_C_GRID, DEFAULT_GAMMA_GRID, &folds, 1).unwrap();
        assert_eq!(a, b);
    }
}
