//! Singular value decomposition via one-sided Jacobi rotations.
//!
//! One-sided Jacobi is slower than Golub–Kahan bidiagonalisation but
//! simpler and exceptionally accurate (it computes small singular values to
//! high relative accuracy), which matters for the rank decisions behind
//! controllability / observability tests.

use crate::{Error, Matrix, Result};

/// A thin singular value decomposition `A = U Σ Vᵀ`.
///
/// For an `m × n` input with `m ≥ n`: `U` is `m × n` with orthonormal
/// columns, `Σ = diag(σ₁ ≥ … ≥ σₙ ≥ 0)` and `V` is `n × n` orthogonal.
/// Wide matrices are handled by transposition. On rank-deficient input the
/// columns of `U` whose `σ` is at rounding level (below `ε‖A‖_F`) are left
/// as computed, not orthogonalised; `UΣVᵀ` still reconstructs `A`.
///
/// # Example
///
/// ```
/// use overrun_linalg::{Matrix, Svd};
///
/// # fn main() -> Result<(), overrun_linalg::Error> {
/// let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0], &[0.0, 0.0]])?;
/// let svd = Svd::new(&a)?;
/// assert!((svd.singular_values()[0] - 4.0).abs() < 1e-12);
/// assert!((svd.singular_values()[1] - 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Svd {
    u: Matrix,
    sigma: Vec<f64>,
    v: Matrix,
    /// `true` when the factorisation was computed on `Aᵀ` (wide input).
    transposed: bool,
}

impl Svd {
    /// Computes the SVD of any real matrix.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidData`] for an empty matrix and
    /// [`Error::NoConvergence`] if the Jacobi sweeps fail to converge
    /// (does not occur for finite input within the generous sweep budget).
    pub fn new(a: &Matrix) -> Result<Self> {
        if a.rows() == 0 || a.cols() == 0 {
            return Err(Error::InvalidData("svd of an empty matrix".into()));
        }
        if !a.is_finite() {
            return Err(Error::InvalidData(
                "svd of a matrix with non-finite entries".into(),
            ));
        }
        let transposed = a.rows() < a.cols();
        let work = if transposed { a.transpose() } else { a.clone() };
        // Prescale so the Jacobi sums of squares stay in range for entries
        // near the representable extremes; singular values scale linearly.
        let scale = work.max_abs();
        if scale == 0.0 {
            let n = work.cols();
            return Ok(Svd {
                u: Matrix::zeros(work.rows(), n),
                sigma: vec![0.0; n],
                v: Matrix::identity(n),
                transposed,
            });
        }
        let (u, mut sigma, v) = one_sided_jacobi(work.scale(1.0 / scale))?;
        for s in &mut sigma {
            *s *= scale;
        }
        Ok(Svd {
            u,
            sigma,
            v,
            transposed,
        })
    }

    /// Singular values in non-increasing order.
    pub fn singular_values(&self) -> &[f64] {
        &self.sigma
    }

    /// The left factor of the *original* matrix (accounting for internal
    /// transposition).
    pub fn u(&self) -> &Matrix {
        if self.transposed {
            &self.v
        } else {
            &self.u
        }
    }

    /// The right factor of the *original* matrix.
    pub fn v(&self) -> &Matrix {
        if self.transposed {
            &self.u
        } else {
            &self.v
        }
    }

    /// Numerical rank with tolerance `max(m, n) · ε · σ₁` (the LAPACK
    /// convention), or with an explicit tolerance.
    pub fn rank(&self, tol: Option<f64>) -> usize {
        let sigma_max = self.sigma.first().copied().unwrap_or(0.0);
        let dims = self.u.rows().max(self.v.rows());
        let tol = tol.unwrap_or(dims as f64 * f64::EPSILON * sigma_max);
        self.sigma.iter().filter(|s| **s > tol).count()
    }

    /// 2-norm condition number `σ₁ / σₙ` (`∞` for singular matrices).
    pub fn condition_number(&self) -> f64 {
        let first = self.sigma.first().copied().unwrap_or(0.0);
        let last = self.sigma.last().copied().unwrap_or(0.0);
        if last == 0.0 {
            f64::INFINITY
        } else {
            first / last
        }
    }

    /// Moore–Penrose pseudo-inverse `A⁺ = V Σ⁺ Uᵀ` (singular values below
    /// the rank tolerance are dropped).
    ///
    /// # Errors
    ///
    /// Propagates matrix-multiplication failures.
    pub fn pseudo_inverse(&self) -> Result<Matrix> {
        let rank = self.rank(None);
        let u = self.u();
        let v = self.v();
        // A⁺ = Σ over the first `rank` triples of v_j σ_j⁻¹ u_jᵀ.
        let mut out = Matrix::zeros(v.rows(), u.rows());
        for j in 0..rank {
            let inv_s = 1.0 / self.sigma[j];
            for i in 0..v.rows() {
                let vij = v[(i, j)] * inv_s;
                if vij == 0.0 {
                    continue;
                }
                for k in 0..u.rows() {
                    out[(i, k)] += vij * u[(k, j)];
                }
            }
        }
        Ok(out)
    }
}

/// One-sided Jacobi on a tall matrix (`m ≥ n`): returns `(U, σ, V)` with
/// singular values sorted in non-increasing order.
fn one_sided_jacobi(mut u: Matrix) -> Result<(Matrix, Vec<f64>, Matrix)> {
    let m = u.rows();
    let n = u.cols();
    let mut v = Matrix::identity(n);
    let eps = f64::EPSILON;
    // Rotations preserve the Frobenius norm. A column whose norm is below
    // `ε‖A‖_F` is rounding noise: its inner products cannot be driven
    // below `ε·√(αβ)`, so the pair counts as converged (rank-deficient
    // input would otherwise rotate forever).
    let noise_floor = {
        let fro2: f64 = u.as_slice().iter().map(|x| x * x).sum();
        eps * eps * fro2
    };
    let max_sweeps = 60;
    let mut converged = false;
    for _sweep in 0..max_sweeps {
        let mut rotated = false;
        for p in 0..n {
            for q in (p + 1)..n {
                let mut alpha = 0.0_f64;
                let mut beta = 0.0_f64;
                let mut gamma = 0.0_f64;
                for i in 0..m {
                    let up = u[(i, p)];
                    let uq = u[(i, q)];
                    alpha += up * up;
                    beta += uq * uq;
                    gamma += up * uq;
                }
                if gamma.abs() <= eps * (alpha * beta).sqrt()
                    || gamma == 0.0
                    || alpha.min(beta) <= noise_floor
                {
                    continue;
                }
                rotated = true;
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for i in 0..m {
                    let up = u[(i, p)];
                    let uq = u[(i, q)];
                    u[(i, p)] = c * up - s * uq;
                    u[(i, q)] = s * up + c * uq;
                }
                for i in 0..n {
                    let vp = v[(i, p)];
                    let vq = v[(i, q)];
                    v[(i, p)] = c * vp - s * vq;
                    v[(i, q)] = s * vp + c * vq;
                }
            }
        }
        if !rotated {
            converged = true;
            break;
        }
    }
    if !converged {
        return Err(Error::NoConvergence {
            algorithm: "one_sided_jacobi_svd",
            iterations: max_sweeps,
        });
    }

    // Column norms are the singular values; normalise U.
    let mut order: Vec<usize> = (0..n).collect();
    let mut sigma = vec![0.0_f64; n];
    for (j, s) in sigma.iter_mut().enumerate() {
        let norm: f64 = (0..m).map(|i| u[(i, j)] * u[(i, j)]).sum::<f64>().sqrt();
        *s = norm;
    }
    order.sort_by(|&a, &b| {
        sigma[b]
            .partial_cmp(&sigma[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut u_sorted = Matrix::zeros(m, n);
    let mut v_sorted = Matrix::zeros(n, n);
    let mut sigma_sorted = vec![0.0_f64; n];
    for (dst, &src) in order.iter().enumerate() {
        sigma_sorted[dst] = sigma[src];
        let inv = if sigma[src] > 0.0 {
            1.0 / sigma[src]
        } else {
            0.0
        };
        for i in 0..m {
            u_sorted[(i, dst)] = u[(i, src)] * inv;
        }
        for i in 0..n {
            v_sorted[(i, dst)] = v[(i, src)];
        }
    }
    Ok((u_sorted, sigma_sorted, v_sorted))
}

/// Numerical rank of any matrix via SVD with the LAPACK-style tolerance.
///
/// # Errors
///
/// Propagates [`Svd::new`] failures.
pub fn rank(a: &Matrix) -> Result<usize> {
    Ok(Svd::new(a)?.rank(None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{norm_2, norm_fro};

    fn reconstruct(svd: &Svd, m: usize, n: usize) -> Matrix {
        let u = svd.u();
        let v = svd.v();
        let mut out = Matrix::zeros(m, n);
        for j in 0..svd.singular_values().len() {
            let s = svd.singular_values()[j];
            for i in 0..m {
                for k in 0..n {
                    out[(i, k)] += s * u[(i, j)] * v[(k, j)];
                }
            }
        }
        out
    }

    #[test]
    fn diagonal_matrix() {
        let a = Matrix::diag(&[3.0, -5.0, 1.0]);
        let svd = Svd::new(&a).unwrap();
        let s = svd.singular_values();
        assert!((s[0] - 5.0).abs() < 1e-12);
        assert!((s[1] - 3.0).abs() < 1e-12);
        assert!((s[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_tall() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let svd = Svd::new(&a).unwrap();
        let back = reconstruct(&svd, 3, 2);
        assert!(back.approx_eq(&a, 1e-10, 1e-10), "{back:?}");
    }

    #[test]
    fn reconstruction_wide() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let svd = Svd::new(&a).unwrap();
        let back = reconstruct(&svd, 2, 3);
        assert!(back.approx_eq(&a, 1e-10, 1e-10));
    }

    #[test]
    fn orthonormal_factors() {
        let a = Matrix::from_fn(5, 3, |i, j| ((i * 7 + j * 5) % 11) as f64 - 5.0);
        let svd = Svd::new(&a).unwrap();
        let utu = svd.u().transpose() * svd.u();
        assert!(utu.approx_eq(&Matrix::identity(3), 1e-10, 1e-10));
        let vtv = svd.v().transpose() * svd.v();
        assert!(vtv.approx_eq(&Matrix::identity(3), 1e-10, 1e-10));
    }

    #[test]
    fn largest_singular_value_is_2_norm() {
        let a = Matrix::from_rows(&[&[0.9, 5.0], &[0.0, 0.8]]).unwrap();
        let svd = Svd::new(&a).unwrap();
        assert!((svd.singular_values()[0] - norm_2(&a)).abs() < 1e-9);
    }

    #[test]
    fn rank_detection() {
        // Rank-1 outer product.
        let u = Matrix::col_vec(&[1.0, 2.0, 3.0]);
        let v = Matrix::row_vec(&[4.0, 5.0]);
        let a = &u * &v;
        assert_eq!(rank(&a).unwrap(), 1);
        assert_eq!(rank(&Matrix::identity(4)).unwrap(), 4);
        assert_eq!(rank(&Matrix::zeros(3, 3)).unwrap(), 0);
    }

    #[test]
    fn condition_number() {
        let a = Matrix::diag(&[10.0, 0.1]);
        let svd = Svd::new(&a).unwrap();
        assert!((svd.condition_number() - 100.0).abs() < 1e-9);
        let singular = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(Svd::new(&singular).unwrap().condition_number() > 1e12);
    }

    #[test]
    fn pseudo_inverse_properties() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let pinv = Svd::new(&a).unwrap().pseudo_inverse().unwrap();
        assert_eq!(pinv.shape(), (2, 3));
        // A A⁺ A = A
        let back = &a * &pinv * &a;
        assert!(back.approx_eq(&a, 1e-9, 1e-9));
        // A⁺ A = I (full column rank)
        let ata = &pinv * &a;
        assert!(ata.approx_eq(&Matrix::identity(2), 1e-9, 1e-9));
    }

    #[test]
    fn pseudo_inverse_of_invertible_matches_inverse() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[2.0, 3.0]]).unwrap();
        let pinv = Svd::new(&a).unwrap().pseudo_inverse().unwrap();
        let inv = a.inverse().unwrap();
        assert!(pinv.approx_eq(&inv, 1e-10, 1e-10));
    }

    #[test]
    fn empty_and_nonfinite_rejected() {
        assert!(Svd::new(&Matrix::zeros(0, 0)).is_err());
        let mut bad = Matrix::identity(2);
        bad[(0, 0)] = f64::NAN;
        assert!(Svd::new(&bad).is_err());
    }

    #[test]
    fn tiny_singular_values_resolved() {
        // Relative accuracy on a graded matrix.
        let a = Matrix::diag(&[1.0, 1e-8, 1e-15]);
        let svd = Svd::new(&a).unwrap();
        let s = svd.singular_values();
        assert!((s[1] - 1e-8).abs() < 1e-20_f64.max(1e-14 * 1e-8));
        assert!((s[2] - 1e-15).abs() < 1e-22);
        // Norm check: Frobenius norm equals sqrt of sum of squares.
        let fro: f64 = s.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((fro - norm_fro(&a)).abs() < 1e-12);
    }
}

#[cfg(test)]
mod rank_deficient_tests {
    use super::*;
    use crate::norm_fro;

    fn assert_reconstructs(a: &Matrix, svd: &Svd) {
        let (m, n) = a.shape();
        let mut back = Matrix::zeros(m, n);
        for (j, &s) in svd.singular_values().iter().enumerate() {
            for i in 0..m {
                for k in 0..n {
                    back[(i, k)] += s * svd.u()[(i, j)] * svd.v()[(k, j)];
                }
            }
        }
        let err = norm_fro(&(&back - a));
        assert!(err <= 1e-12 * norm_fro(a), "‖UΣVᵀ − A‖_F = {err}");
    }

    #[test]
    fn repeated_rows_converge() -> Result<()> {
        // Once the first two columns are orthogonalised, the third is
        // rounding noise; Jacobi must not keep rotating it.
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]])?;
        let svd = Svd::new(&a)?;
        assert_reconstructs(&a, &svd);
        assert_eq!(svd.rank(None), 2);
        assert_eq!(rank(&a)?, 2);
        Ok(())
    }

    #[test]
    fn pmsm_lifted_closed_loop_converges() -> Result<()> {
        // Ω(h) of the Table II PMSM LQR loop (Rmax = 1.1T, Ns = 2, adaptive,
        // nominal interval): the two controller-state rows repeat the two
        // command rows, so the rank is 7.
        #[rustfmt::skip]
        let data = vec![
            0.9753099120283326, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.04938017594333466, 0.0,
            0.0, 0.9723609731272213, -0.01973182908130206, 0.0, 0.0, 0.0, 0.0, 0.0, 0.049330811712012146,
            0.0, 0.29597743621953104, 0.9969764299061455, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0074340525419317426,
            -10.830781899814273, -0.0, -0.0, -0.5622470268909473, -0.0, 0.0, 0.0, -0.5483650983352014, -0.0,
            -0.0, -19.75312069675607, -9.373217830949942, -0.0, -0.8038064534929577, 0.0, 0.0, -0.0, -0.9282511332221364,
            -10.830781899814273, -0.0, -0.0, -0.5622470268909473, -0.0, 0.0, 0.0, -0.5483650983352014, -0.0,
            -0.0, -19.75312069675607, -9.373217830949942, -0.0, -0.8038064534929577, 0.0, 0.0, -0.0, -0.9282511332221364,
            0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0,
            0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0,
        ];
        let a = Matrix::from_vec(9, 9, data)?;
        let svd = Svd::new(&a)?;
        assert_reconstructs(&a, &svd);
        let s = svd.singular_values();
        assert!(s.windows(2).all(|w| w[0] >= w[1]), "{s:?}");
        assert_eq!(svd.rank(None), 7);
        Ok(())
    }
}

#[cfg(test)]
mod extreme_scale_tests {
    use super::*;

    #[test]
    fn tiny_magnitude_full_rank_detected() {
        let svd = Svd::new(&Matrix::diag(&[3e-180, 1e-180])).unwrap();
        let s = svd.singular_values();
        assert!((s[0] - 3e-180).abs() < 1e-10 * 3e-180, "{s:?}");
        assert!((s[1] - 1e-180).abs() < 1e-10 * 1e-180, "{s:?}");
        assert_eq!(svd.rank(None), 2);
    }

    #[test]
    fn huge_magnitude_finite_singular_values() {
        let svd = Svd::new(&Matrix::diag(&[3e160, 1e160])).unwrap();
        let s = svd.singular_values();
        assert!(s.iter().all(|v| v.is_finite()), "{s:?}");
        assert!((s[0] - 3e160).abs() < 1e-9 * 3e160);
        assert_eq!(svd.rank(None), 2);
    }
}
