//! SVM kernels.

use crate::error::MlError;

/// A Mercer kernel for the SVM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// `k(x, z) = x·z`
    Linear,
    /// `k(x, z) = exp(−γ‖x − z‖²)`
    Rbf {
        /// Width parameter γ.
        gamma: f64,
    },
    /// `k(x, z) = (γ x·z + c₀)^d`
    Poly {
        /// Scale γ.
        gamma: f64,
        /// Offset c₀.
        coef0: f64,
        /// Degree d.
        degree: u32,
    },
}

impl Kernel {
    /// Validates the kernel's hyper-parameters: γ must be finite and
    /// positive (RBF and polynomial), the polynomial degree at least 1 and
    /// its offset c₀ finite.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::Param`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), MlError> {
        match *self {
            Kernel::Linear => Ok(()),
            Kernel::Rbf { gamma } => {
                if !(gamma > 0.0 && gamma.is_finite()) {
                    return Err(MlError::Param(format!(
                        "RBF gamma = {gamma} must be finite and positive"
                    )));
                }
                Ok(())
            }
            Kernel::Poly {
                gamma,
                coef0,
                degree,
            } => {
                if !(gamma > 0.0 && gamma.is_finite()) {
                    return Err(MlError::Param(format!(
                        "poly gamma = {gamma} must be finite and positive"
                    )));
                }
                if degree < 1 {
                    return Err(MlError::Param("poly degree must be at least 1".into()));
                }
                if !coef0.is_finite() {
                    return Err(MlError::Param(format!(
                        "poly coef0 = {coef0} must be finite"
                    )));
                }
                Ok(())
            }
        }
    }

    /// Evaluates the kernel from a precomputed dot product and the squared
    /// norms of both operands.
    ///
    /// Every supported kernel is a function of `x·z`, `‖x‖²` and `‖z‖²`
    /// (for RBF, `‖x − z‖² = ‖x‖² + ‖z‖² − 2 x·z`), so callers that hold
    /// precomputed norms — the SMO kernel-row cache and the support-vector
    /// prediction path — pay one dot product per evaluation instead of a
    /// full distance scan.
    pub fn eval_dot(&self, dot: f64, norm_x: f64, norm_z: f64) -> f64 {
        match *self {
            Kernel::Linear => dot,
            Kernel::Rbf { gamma } => {
                // Clamp: cancellation can push the squared distance a hair
                // below zero for near-identical vectors.
                let d2 = (norm_x + norm_z - 2.0 * dot).max(0.0);
                (-gamma * d2).exp()
            }
            Kernel::Poly {
                gamma,
                coef0,
                degree,
            } => (gamma * dot + coef0).powi(degree as i32),
        }
    }

    /// Evaluates the kernel.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when the vectors have different lengths.
    pub fn eval(&self, x: &[f64], z: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), z.len());
        match *self {
            Kernel::Linear => dot(x, z),
            Kernel::Rbf { gamma } => {
                let d2: f64 = x
                    .iter()
                    .zip(z)
                    .map(|(a, b)| {
                        let d = a - b;
                        d * d
                    })
                    .sum();
                (-gamma * d2).exp()
            }
            Kernel::Poly {
                gamma,
                coef0,
                degree,
            } => (gamma * dot(x, z) + coef0).powi(degree as i32),
        }
    }

    /// Short display name for reports (`linear`, `rbf`, `poly`).
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Linear => "linear",
            Kernel::Rbf { .. } => "rbf",
            Kernel::Poly { .. } => "poly",
        }
    }
}

impl Default for Kernel {
    /// RBF with γ = 0.5 — the family the paper's grid search explores.
    fn default() -> Self {
        Kernel::Rbf { gamma: 0.5 }
    }
}

fn dot(x: &[f64], z: &[f64]) -> f64 {
    x.iter().zip(z).map(|(a, b)| a * b).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_is_dot_product() {
        let k = Kernel::Linear;
        assert_eq!(k.eval(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn rbf_is_one_at_zero_distance_and_decays() {
        let k = Kernel::Rbf { gamma: 1.0 };
        assert!((k.eval(&[1.0, 2.0], &[1.0, 2.0]) - 1.0).abs() < 1e-12);
        let near = k.eval(&[0.0], &[0.1]);
        let far = k.eval(&[0.0], &[2.0]);
        assert!(near > far);
        assert!(far > 0.0);
    }

    #[test]
    fn poly_matches_closed_form() {
        let k = Kernel::Poly {
            gamma: 1.0,
            coef0: 1.0,
            degree: 2,
        };
        // (1*1 + 1)^2 = 4
        assert_eq!(k.eval(&[1.0], &[1.0]), 4.0);
    }

    #[test]
    fn validate_accepts_sane_kernels() {
        for k in [
            Kernel::Linear,
            Kernel::Rbf { gamma: 0.5 },
            Kernel::Poly {
                gamma: 1.0,
                coef0: 0.0,
                degree: 1,
            },
        ] {
            assert!(k.validate().is_ok(), "{k:?}");
        }
    }

    #[test]
    fn validate_rejects_nonpositive_or_nonfinite_gamma() {
        for gamma in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(Kernel::Rbf { gamma }.validate().is_err(), "rbf {gamma}");
            assert!(
                Kernel::Poly {
                    gamma,
                    coef0: 0.0,
                    degree: 2,
                }
                .validate()
                .is_err(),
                "poly {gamma}"
            );
        }
    }

    #[test]
    fn validate_rejects_zero_degree() {
        assert!(Kernel::Poly {
            gamma: 1.0,
            coef0: 0.0,
            degree: 0,
        }
        .validate()
        .is_err());
    }

    #[test]
    fn validate_rejects_nonfinite_coef0() {
        for coef0 in [f64::NAN, f64::NEG_INFINITY] {
            assert!(
                Kernel::Poly {
                    gamma: 1.0,
                    coef0,
                    degree: 2,
                }
                .validate()
                .is_err(),
                "{coef0}"
            );
        }
    }

    #[test]
    fn eval_dot_matches_eval() {
        let x = [0.3, -1.2, 4.0];
        let z = [2.0, 0.5, -0.7];
        let dot: f64 = x.iter().zip(&z).map(|(a, b)| a * b).sum();
        let nx: f64 = x.iter().map(|a| a * a).sum();
        let nz: f64 = z.iter().map(|a| a * a).sum();
        for k in [
            Kernel::Linear,
            Kernel::Rbf { gamma: 0.7 },
            Kernel::Poly {
                gamma: 0.5,
                coef0: 1.0,
                degree: 3,
            },
        ] {
            assert!(
                (k.eval(&x, &z) - k.eval_dot(dot, nx, nz)).abs() < 1e-9,
                "{k:?}"
            );
        }
        // Identical vectors: the clamped fast path still reports k(x, x) = 1
        // for RBF.
        let k = Kernel::Rbf { gamma: 2.0 };
        assert!((k.eval_dot(nx, nx, nx) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kernels_are_symmetric() {
        let x = [0.3, -1.2, 4.0];
        let z = [2.0, 0.5, -0.7];
        for k in [
            Kernel::Linear,
            Kernel::Rbf { gamma: 0.7 },
            Kernel::Poly {
                gamma: 0.5,
                coef0: 1.0,
                degree: 3,
            },
        ] {
            assert!((k.eval(&x, &z) - k.eval(&z, &x)).abs() < 1e-12, "{k:?}");
        }
    }
}
