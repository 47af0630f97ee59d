//! Cholesky factorisation of symmetric positive-definite matrices.

use crate::{Error, Matrix, Result};

/// Cholesky factorisation `A = L Lᵀ` with lower-triangular `L`.
///
/// Used for covariance manipulation in the Kalman design path and for
/// validating that Riccati solutions are positive (semi-)definite.
///
/// # Example
///
/// ```
/// use overrun_linalg::{Cholesky, Matrix};
///
/// # fn main() -> Result<(), overrun_linalg::Error> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let chol = Cholesky::new(&a)?;
/// let back = chol.l() * chol.l().transpose();
/// assert!(back.approx_eq(&a, 1e-12, 1e-12));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the input is the
    /// caller's responsibility (use [`Matrix::symmetrize`] if unsure).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotSquare`] for rectangular input and
    /// [`Error::NotPositiveDefinite`] when a pivot is non-positive.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(Error::NotSquare {
                op: "cholesky",
                dims: a.shape(),
            });
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if s <= 0.0 {
                        return Err(Error::NotPositiveDefinite);
                    }
                    l[(i, j)] = s.sqrt();
                } else {
                    l[(i, j)] = s / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b` using the factorisation (`L Lᵀ x = b`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `b` has the wrong row count.
    pub fn solve(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.l.rows();
        if b.rows() != n {
            return Err(Error::DimensionMismatch {
                op: "cholesky_solve",
                lhs: self.l.shape(),
                rhs: b.shape(),
            });
        }
        let m = b.cols();
        let mut x = b.clone();
        // Forward: L y = b
        for j in 0..m {
            for i in 0..n {
                let mut s = x[(i, j)];
                for k in 0..i {
                    s -= self.l[(i, k)] * x[(k, j)];
                }
                x[(i, j)] = s / self.l[(i, i)];
            }
        }
        // Backward: Lᵀ x = y
        for j in 0..m {
            for i in (0..n).rev() {
                let mut s = x[(i, j)];
                for k in (i + 1)..n {
                    s -= self.l[(k, i)] * x[(k, j)];
                }
                x[(i, j)] = s / self.l[(i, i)];
            }
        }
        Ok(x)
    }

    /// Log-determinant of `A` (`2 Σ log L_ii`), numerically safer than
    /// computing `det` for large well-conditioned SPD matrices.
    pub fn log_det(&self) -> f64 {
        (0..self.l.rows()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

/// Returns `true` when `a` is symmetric positive definite to working
/// precision (i.e. its Cholesky factorisation succeeds).
pub fn is_spd(a: &Matrix) -> bool {
    a.is_square() && Cholesky::new(a).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_and_solve() {
        let a = Matrix::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]])
            .unwrap();
        let ch = Cholesky::new(&a).unwrap();
        let back = ch.l() * ch.l().transpose();
        assert!(back.approx_eq(&a, 1e-12, 1e-12));
        let b = Matrix::col_vec(&[1.0, 2.0, 3.0]);
        let x = ch.solve(&b).unwrap();
        assert!((&a * &x).approx_eq(&b, 1e-10, 1e-10));
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(Cholesky::new(&a), Err(Error::NotPositiveDefinite)));
    }

    #[test]
    fn rejects_rectangular() {
        assert!(matches!(
            Cholesky::new(&Matrix::zeros(2, 3)),
            Err(Error::NotSquare { .. })
        ));
    }

    #[test]
    fn log_det_matches_lu_det() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
        let ch = Cholesky::new(&a).unwrap();
        let det = a.det().unwrap();
        assert!((ch.log_det() - det.ln()).abs() < 1e-12);
    }

    #[test]
    fn is_spd_helper() {
        assert!(is_spd(&Matrix::identity(3)));
        assert!(!is_spd(&Matrix::zeros(2, 2)));
        assert!(!is_spd(&Matrix::zeros(2, 3)));
    }

    #[test]
    fn solve_shape_mismatch() {
        let ch = Cholesky::new(&Matrix::identity(2)).unwrap();
        assert!(ch.solve(&Matrix::zeros(3, 1)).is_err());
    }
}
