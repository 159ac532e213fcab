//! From-scratch machine-learning substrate for SSRESF.
//!
//! The paper trains a scikit-learn SVM on structural netlist features to
//! classify sensitive circuit nodes. The Rust ecosystem has no equivalent,
//! so this crate re-implements exactly the facilities the paper's pipeline
//! uses:
//!
//! - [`Dataset`] — dense feature matrix with ±1 labels,
//! - [`preprocess`] — z-score standardization,
//! - [`Kernel`] — linear / RBF / polynomial kernels,
//! - [`SvmModel`] — a C-SVC trained by the SMO algorithm,
//! - [`crossval`] — deterministic stratified k-fold cross-validation,
//! - [`gridsearch`] — (C, γ) hyper-parameter search (paper §IV-B),
//! - [`feature_selection`] — forward selection producing the paper's Fig.-5
//!   score-vs-feature-count curve,
//! - [`metrics`] — TPR, TNR, precision, accuracy, F1, ROC and AUC.
//!
//! # Example
//!
//! ```
//! use ssresf_mlcore::{Dataset, Kernel, SvmParams, SvmModel};
//!
//! # fn main() -> Result<(), ssresf_mlcore::MlError> {
//! // Linearly separable toy data.
//! let x = vec![
//!     vec![0.0, 0.0], vec![0.2, 0.1], vec![0.1, 0.3],
//!     vec![1.0, 1.0], vec![0.9, 1.1], vec![1.2, 0.8],
//! ];
//! let y = vec![-1, -1, -1, 1, 1, 1];
//! let data = Dataset::new(x, y)?;
//! let model = SvmModel::train(&data, &SvmParams::default())?;
//! assert_eq!(model.predict(&[0.1, 0.0]), -1);
//! assert_eq!(model.predict(&[1.0, 0.9]), 1);
//! # Ok(())
//! # }
//! ```

pub mod baseline;
pub mod crossval;
pub mod dataset;
pub mod error;
pub mod feature_selection;
pub mod gridsearch;
pub mod kernel;
pub mod metrics;
pub mod parallel;
pub mod preprocess;
mod smo;
pub mod svm;

pub use baseline::{KnnClassifier, LogisticParams, LogisticRegression};
pub use crossval::{cross_val_score, cross_val_score_with, FoldIndices, KFold};
pub use dataset::Dataset;
pub use error::MlError;
pub use feature_selection::{forward_selection_with, SelectionCurve};
pub use gridsearch::{grid_search_with, GridSearchResult};
pub use kernel::Kernel;
pub use metrics::{roc_curve, BinaryMetrics, RocCurve};
pub use parallel::{max_threads, parallel_map, resolve_threads};
pub use preprocess::StandardScaler;
pub use svm::{SmoContext, SmoSolver, SvmModel, SvmParams, TrainStats};
