//! Feature-engineering preprocessing: z-score standardization.

use crate::error::MlError;

/// Z-score standardization fitted on training data.
#[derive(Debug, Clone, PartialEq)]
pub struct StandardScaler {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl StandardScaler {
    /// Fits the scaler.
    ///
    /// Constant columns get unit scale so they map to zero instead of NaN.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::Degenerate`] on empty input and
    /// [`MlError::Shape`] on ragged rows.
    pub fn fit(rows: &[Vec<f64>]) -> Result<Self, MlError> {
        let (mean, var) = column_moments(rows)?;
        let std = var
            .into_iter()
            .map(|v| {
                let s = v.sqrt();
                if s > 1e-12 {
                    s
                } else {
                    1.0
                }
            })
            .collect();
        Ok(StandardScaler { mean, std })
    }

    /// Transforms one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the fitted width.
    pub fn transform_row(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.mean.len(), "width mismatch");
        row.iter()
            .zip(self.mean.iter().zip(&self.std))
            .map(|(v, (m, s))| (v - m) / s)
            .collect()
    }

    /// Transforms many rows.
    pub fn transform(&self, rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        rows.iter().map(|r| self.transform_row(r)).collect()
    }
}

fn column_moments(rows: &[Vec<f64>]) -> Result<(Vec<f64>, Vec<f64>), MlError> {
    if rows.is_empty() {
        return Err(MlError::Degenerate("no rows to fit".into()));
    }
    let width = rows[0].len();
    let n = rows.len() as f64;
    let mut mean = vec![0.0; width];
    for (i, row) in rows.iter().enumerate() {
        if row.len() != width {
            return Err(MlError::Shape(format!("row {i} width {}", row.len())));
        }
        for (c, &v) in row.iter().enumerate() {
            mean[c] += v;
        }
    }
    for m in &mut mean {
        *m /= n;
    }
    let mut var = vec![0.0; width];
    for row in rows {
        for (c, &v) in row.iter().enumerate() {
            let d = v - mean[c];
            var[c] += d * d;
        }
    }
    for v in &mut var {
        *v /= n;
    }
    Ok((mean, var))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_scaler_centers_and_scales() {
        let rows = vec![vec![1.0], vec![3.0], vec![5.0]];
        let scaler = StandardScaler::fit(&rows).unwrap();
        let t = scaler.transform(&rows);
        let mean: f64 = t.iter().map(|r| r[0]).sum::<f64>() / 3.0;
        assert!(mean.abs() < 1e-12);
        let var: f64 = t.iter().map(|r| r[0] * r[0]).sum::<f64>() / 3.0;
        assert!((var - 1.0).abs() < 1e-9);
    }

    #[test]
    fn standard_scaler_handles_constant_columns() {
        let rows = vec![vec![7.0, 1.0], vec![7.0, 2.0]];
        let scaler = StandardScaler::fit(&rows).unwrap();
        let t = scaler.transform(&rows);
        assert_eq!(t[0][0], 0.0);
        assert_eq!(t[1][0], 0.0);
        assert!(t[0][0].is_finite() && t[0][1].is_finite());
    }

    #[test]
    fn fit_rejects_empty_and_ragged() {
        assert!(StandardScaler::fit(&[]).is_err());
        let ragged = vec![vec![1.0], vec![1.0, 2.0]];
        assert!(StandardScaler::fit(&ragged).is_err());
    }

    #[test]
    fn transform_applies_training_statistics_to_new_data() {
        let scaler = StandardScaler::fit(&[vec![0.0], vec![10.0]]).unwrap();
        // mean 5, std 5.
        assert!((scaler.transform_row(&[15.0])[0] - 2.0).abs() < 1e-12);
    }
}
