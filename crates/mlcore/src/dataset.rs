//! Dense labeled datasets for binary classification.

use crate::error::MlError;

/// A dense feature matrix with ±1 labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    x: Vec<Vec<f64>>,
    y: Vec<i8>,
}

impl Dataset {
    /// Builds a dataset.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::Shape`] when rows have differing widths or the
    /// label count mismatches, and [`MlError::Param`] for labels other than
    /// ±1 or non-finite feature values.
    pub fn new(x: Vec<Vec<f64>>, y: Vec<i8>) -> Result<Self, MlError> {
        if x.len() != y.len() {
            return Err(MlError::Shape(format!(
                "{} rows but {} labels",
                x.len(),
                y.len()
            )));
        }
        if let Some(first) = x.first() {
            let width = first.len();
            for (i, row) in x.iter().enumerate() {
                if row.len() != width {
                    return Err(MlError::Shape(format!(
                        "row {i} has width {} (expected {width})",
                        row.len()
                    )));
                }
                if let Some(bad) = row.iter().find(|v| !v.is_finite()) {
                    return Err(MlError::Param(format!(
                        "non-finite feature {bad} in row {i}"
                    )));
                }
            }
        }
        if let Some(bad) = y.iter().find(|&&l| l != 1 && l != -1) {
            return Err(MlError::Param(format!("label {bad} is not ±1")));
        }
        Ok(Dataset { x, y })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Feature width (0 for an empty dataset).
    pub fn width(&self) -> usize {
        self.x.first().map(Vec::len).unwrap_or(0)
    }

    /// Feature rows.
    pub fn features(&self) -> &[Vec<f64>] {
        &self.x
    }

    /// Labels (±1).
    pub fn labels(&self) -> &[i8] {
        &self.y
    }

    /// One feature row.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.x[i]
    }

    /// Count of +1 labels.
    pub fn positives(&self) -> usize {
        self.y.iter().filter(|&&l| l == 1).count()
    }

    /// Whether both classes are present.
    pub fn has_both_classes(&self) -> bool {
        let p = self.positives();
        p > 0 && p < self.len()
    }

    /// A new dataset with only the selected rows.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            x: indices.iter().map(|&i| self.x[i].clone()).collect(),
            y: indices.iter().map(|&i| self.y[i]).collect(),
        }
    }

    /// A new dataset keeping only the listed feature columns (in order).
    ///
    /// # Panics
    ///
    /// Panics if a column index is out of range.
    pub fn select_columns(&self, columns: &[usize]) -> Dataset {
        Dataset {
            x: self
                .x
                .iter()
                .map(|row| columns.iter().map(|&c| row[c]).collect())
                .collect(),
            y: self.y.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::new(
            vec![vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]],
            vec![-1, 1, 1],
        )
        .unwrap()
    }

    #[test]
    fn accessors() {
        let d = toy();
        assert_eq!(d.len(), 3);
        assert_eq!(d.width(), 2);
        assert_eq!(d.positives(), 2);
        assert!(d.has_both_classes());
        assert_eq!(d.row(0), &[0.0, 1.0]);
    }

    #[test]
    fn rejects_ragged_rows() {
        let err = Dataset::new(vec![vec![1.0], vec![1.0, 2.0]], vec![1, -1]).unwrap_err();
        assert!(matches!(err, MlError::Shape(_)));
    }

    #[test]
    fn rejects_label_mismatch_and_bad_labels() {
        assert!(Dataset::new(vec![vec![1.0]], vec![]).is_err());
        assert!(Dataset::new(vec![vec![1.0]], vec![0]).is_err());
        assert!(Dataset::new(vec![vec![f64::NAN]], vec![1]).is_err());
    }

    #[test]
    fn subset_and_select_columns() {
        let d = toy();
        let s = d.subset(&[2, 0]);
        assert_eq!(s.labels(), &[1, -1]);
        assert_eq!(s.row(0), &[1.0, 1.0]);
        let c = d.select_columns(&[1]);
        assert_eq!(c.width(), 1);
        assert_eq!(c.row(1), &[0.0]);
    }

    #[test]
    fn empty_dataset_is_valid() {
        let d = Dataset::new(vec![], vec![]).unwrap();
        assert!(d.is_empty());
        assert!(!d.has_both_classes());
    }
}
