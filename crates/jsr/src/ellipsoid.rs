//! Ellipsoidal (quadratic-Lyapunov) norm optimisation.
//!
//! Norm-based JSR upper bounds depend on the norm: for any invertible `L`,
//! `ρ(A) ≤ max_i ‖L A_i L⁻¹‖₂`. This module searches for the ellipsoid
//! (`P = LᵀL`) minimising that bound — a common quadratic Lyapunov
//! certificate when the optimum is below one — and exposes the transform as
//! a preconditioner for [`crate::gripenberg`] / [`crate::bruteforce_bounds`].
//!
//! The search is a deterministic, serial, monotone descent on
//! `f(L) = maxᵢ σ_max(L Aᵢ L⁻¹)` over upper-triangular `L`, run from two
//! seeds:
//!
//! 1. the identity (no transform), and
//! 2. the Lyapunov ellipsoid of the *average* lifted operator: the dominant
//!    eigen-matrix `P` of `X ↦ Σᵢ AᵢᵀXAᵢ`, computed by power iteration —
//!    exactly the certificate behind the Blondel–Nesterov sum bound.
//!
//! Each step takes the gradients of the near-active members from their top
//! singular pairs ([`Svd`]), mixes them with soft-max weights, and accepts
//! a backtracked step only when it lowers `f`; when no step does, the
//! soft-max sharpens (see `descend`). `f` is smooth almost everywhere, so
//! this first-order method fits it better than a simplex search over the
//! `n(n+1)/2` entries of `L`.
//!
//! The returned bound never comes from the descent's own σ: it is
//! recomputed with the Schur-based [`norm_2`] at the final `L`, and it is
//! never worse than either seed's.

use overrun_linalg::{norm_2, norm_fro, spectral_radius, Cholesky, Matrix, Svd};

use crate::{Error, JsrBounds, MatrixSet, Result};

/// Options for [`optimize_ellipsoid`].
#[derive(Debug, Clone)]
pub struct EllipsoidOptions {
    /// Descent iterations per seed. Default: 200.
    pub max_iterations: usize,
    /// Power-iteration steps for the Lyapunov seed. Default: 500.
    pub seed_iterations: usize,
}

impl Default for EllipsoidOptions {
    fn default() -> Self {
        EllipsoidOptions {
            max_iterations: 200,
            seed_iterations: 500,
        }
    }
}

/// Result of the ellipsoid search.
#[derive(Debug, Clone)]
pub struct Ellipsoid {
    /// Upper-triangular transform `L`; `P = LᵀL` is the ellipsoid matrix.
    pub l: Matrix,
    /// Inverse transform `L⁻¹` (cached for preconditioning).
    pub l_inv: Matrix,
    /// The achieved bound `max_i ‖L Aᵢ L⁻¹‖₂` — a certified JSR upper
    /// bound on its own.
    pub norm_bound: f64,
}

impl Ellipsoid {
    /// Applies the similarity `Aᵢ → L Aᵢ L⁻¹` to a set (JSR-invariant).
    ///
    /// # Errors
    ///
    /// Propagates matrix-multiplication failures.
    pub fn transform(&self, set: &MatrixSet) -> Result<MatrixSet> {
        let scaled = set
            .iter()
            .map(|a| {
                self.l
                    .matmul(a)
                    .and_then(|la| la.matmul(&self.l_inv))
                    .map_err(Error::Linalg)
            })
            .collect::<Result<Vec<_>>>()?;
        MatrixSet::new(scaled)
    }
}

/// The dominant eigen-matrix of the adjoint lifted operator
/// `Φ*(X) = Σᵢ AᵢᵀXAᵢ`, by power iteration from the identity. The result
/// is symmetric positive semidefinite; a small ridge keeps it definite.
fn lyapunov_seed(set: &MatrixSet, iterations: usize) -> Result<Matrix> {
    let n = set.dim();
    let mut x = Matrix::identity(n);
    for _ in 0..iterations {
        let mut next = Matrix::zeros(n, n);
        for a in set {
            next = next.add_mat(&a.transpose().matmul(&x)?.matmul(a)?)?;
        }
        let scale = next.max_abs();
        if scale == 0.0 || !scale.is_finite() {
            return Ok(Matrix::identity(n));
        }
        x = next.scale(1.0 / scale);
        x.symmetrize();
    }
    // Ridge regularisation keeps the Cholesky factor well conditioned.
    let ridge = x.trace().abs().max(1.0) / n as f64 * 1e-8;
    Ok(x + Matrix::identity(n) * ridge)
}

/// Evaluates `max_i ‖L Aᵢ L⁻¹‖₂`, or `+∞` when `L` is numerically singular.
fn ellipsoid_objective(set: &MatrixSet, l: &Matrix) -> f64 {
    let Ok(l_inv) = l.inverse() else {
        return f64::INFINITY;
    };
    let mut worst: f64 = 0.0;
    for a in set {
        let Ok(la) = l.matmul(a) else {
            return f64::INFINITY;
        };
        let Ok(lal) = la.matmul(&l_inv) else {
            return f64::INFINITY;
        };
        worst = worst.max(norm_2(&lal));
    }
    worst
}

/// Top singular triple `(σ, u, v)` of one member `M = L A L⁻¹`.
struct TopPair {
    sigma: f64,
    u: Vec<f64>,
    v: Vec<f64>,
}

/// The top singular triples of every `L Aᵢ L⁻¹`, or `None` when `L` is
/// singular, an SVD fails, or some `σᵢ` reaches `cutoff` (a line-search
/// trial that cannot be accepted stops at the first such member).
fn top_pairs(set: &MatrixSet, l: &Matrix, cutoff: f64) -> Option<Vec<TopPair>> {
    let l_inv = l.inverse().ok()?;
    set.iter()
        .map(|a| {
            let m = l.matmul(a).ok()?.matmul(&l_inv).ok()?;
            let svd = Svd::new(&m).ok()?;
            let sigma = svd.singular_values()[0];
            (sigma < cutoff).then(|| TopPair {
                sigma,
                u: svd.u().col(0),
                v: svd.v().col(0),
            })
        })
        .collect()
}

fn max_sigma(pairs: &[TopPair]) -> f64 {
    pairs.iter().map(|p| p.sigma).fold(0.0, f64::max)
}

/// Soft-max weight exponent at the start of a descent, relative to `f`:
/// members within about 20% of the maximum share the step.
const BETA_START: f64 = 5.0;
/// Largest soft-max exponent; once a step fails at this sharpness the
/// descent has stalled.
const BETA_CAP: f64 = BETA_START * 4096.0;
/// Initial and largest step `t` (Frobenius norm of `tE` in `(I − tE)L`).
const STEP_START: f64 = 0.2;
const STEP_MAX: f64 = 0.5;
/// Backtracking gives up below this step.
const STEP_MIN: f64 = 1e-9;

/// Monotone descent on `f(L) = maxᵢ σ_max(L Aᵢ L⁻¹)` from `l`, at most
/// `max_iterations` steps. Returns the final transform.
///
/// For one member with top singular triple `(σ, u, v)`, the gradient with
/// respect to `L` is `∇_L = u (Aᵢ L⁻¹ v)ᵀ − σ v (L⁻¹ v)ᵀ`. The step is taken
/// in the relative form `L ← (I − tE) L`, where `E = triu(∇_L Lᵀ) =
/// triu(σ (u uᵀ − v vᵀ))`: the update stays upper triangular, and the
/// direction does not depend on how `L` is scaled. Near-active members are
/// combined with soft-max weights `exp(β (σᵢ − f) / f)`. A backtracking line
/// search accepts only steps that lower `f`. When none does, `β` grows
/// fourfold (towards the exact max) until [`BETA_CAP`].
fn descend(set: &MatrixSet, mut l: Matrix, max_iterations: usize) -> Matrix {
    let n = set.dim();
    let Some(mut pairs) = top_pairs(set, &l, f64::INFINITY) else {
        return l;
    };
    let mut f = max_sigma(&pairs);
    let mut beta = BETA_START;
    let mut step = STEP_START;
    for _ in 0..max_iterations {
        if !(f > 0.0 && f.is_finite()) {
            break;
        }
        // E ∝ Σ wᵢ σᵢ (uᵢuᵢᵀ − vᵢvᵢᵀ), upper triangle, unit Frobenius norm.
        let mut e = Matrix::zeros(n, n);
        for p in &pairs {
            let w = (beta * (p.sigma - f) / f).exp();
            if w < 1e-12 {
                continue;
            }
            let ws = w * p.sigma;
            for i in 0..n {
                for j in i..n {
                    e[(i, j)] += ws * (p.u[i] * p.u[j] - p.v[i] * p.v[j]);
                }
            }
        }
        let norm = norm_fro(&e);
        if !(norm > 0.0 && norm.is_finite()) {
            break;
        }
        e.scale_in_place(1.0 / norm);

        let mut t = step;
        let mut accepted = None;
        while t >= STEP_MIN {
            if let Ok(mut next) = (&Matrix::identity(n) - &e.scale(t)).matmul(&l) {
                let scale = next.max_abs();
                if scale > 0.0 && scale.is_finite() {
                    next.scale_in_place(1.0 / scale);
                    if let Some(next_pairs) = top_pairs(set, &next, f) {
                        let f_next = max_sigma(&next_pairs);
                        accepted = Some((next, next_pairs, f_next));
                        break;
                    }
                }
            }
            t *= 0.5;
        }
        match accepted {
            Some((next, next_pairs, f_next)) => {
                l = next;
                pairs = next_pairs;
                f = f_next;
                step = (2.0 * t).min(STEP_MAX);
            }
            None if beta < BETA_CAP => {
                beta *= 4.0;
                step = STEP_START;
            }
            None => break,
        }
    }
    l
}

/// Searches for the ellipsoidal norm minimising the one-step JSR upper
/// bound `max_i ‖Aᵢ‖_P`.
///
/// The returned [`Ellipsoid::norm_bound`] is always a *certified* upper
/// bound on the JSR (any induced norm is submultiplicative); when it is
/// below one, `P = LᵀL` is a common quadratic Lyapunov function for the
/// whole switching system.
///
/// # Errors
///
/// Propagates numerical failures.
///
/// # Example
///
/// ```
/// use overrun_jsr::{ellipsoid::optimize_ellipsoid, MatrixSet};
/// use overrun_linalg::Matrix;
///
/// # fn main() -> Result<(), overrun_jsr::Error> {
/// // A single rotation-scale matrix: spectral radius 0.9 but 2-norm ≈ 2.
/// let a = Matrix::from_rows(&[&[0.0, 2.0], &[-0.405, 0.0]])?;
/// let set = MatrixSet::new(vec![a])?;
/// let e = optimize_ellipsoid(&set, &Default::default())?;
/// assert!(e.norm_bound < 1.0); // ellipsoid norm certifies stability
/// # Ok(())
/// # }
/// ```
pub fn optimize_ellipsoid(set: &MatrixSet, opts: &EllipsoidOptions) -> Result<Ellipsoid> {
    let n = set.dim();

    // Candidate seeds: the identity, and the ellipsoid of the averaged
    // lifted operator. With P = L_c·L_cᵀ (Cholesky), the transform whose
    // 2-norm realises ‖x‖_P = ‖L_cᵀ x‖ is the upper-triangular L_cᵀ —
    // matching the upper-triangular parametrisation.
    let mut candidates: Vec<Matrix> = vec![Matrix::identity(n)];
    if let Ok(p_seed) = lyapunov_seed(set, opts.seed_iterations) {
        if let Ok(chol) = Cholesky::new(&p_seed) {
            candidates.push(chol.l().transpose());
        }
    }

    // The bound is always the certified Schur-based `norm_2` objective, at
    // the seed and at the descent's end point; never the descent's own σ.
    let mut best: Option<(Matrix, f64)> = None;
    for seed in candidates {
        let f_seed = ellipsoid_objective(set, &seed);
        let l_end = descend(set, seed.clone(), opts.max_iterations);
        let f_end = ellipsoid_objective(set, &l_end);
        let (l_cand, f_cand) = if f_end < f_seed {
            (l_end, f_end)
        } else {
            (seed, f_seed)
        };
        match &best {
            Some((_, f)) if *f <= f_cand => {}
            _ => best = Some((l_cand, f_cand)),
        }
    }

    let (l, norm_bound) = best.expect("at least the identity seed is evaluated");
    let l_inv = l.inverse()?;
    Ok(Ellipsoid {
        l,
        l_inv,
        norm_bound,
    })
}

/// The Blondel–Nesterov semidefinite-lifting bounds:
///
/// ```text
/// sqrt(ρ(Σᵢ Aᵢ⊗Aᵢ) / q)  ≤  ρ(A)  ≤  sqrt(ρ(Σᵢ Aᵢ⊗Aᵢ))
/// ```
///
/// Cheap (one eigenvalue problem of size `n²`) and sometimes much tighter
/// than first-level norms; used as an additional cut in
/// [`crate::gripenberg`]-based certification pipelines.
///
/// # Errors
///
/// Propagates eigenvalue-computation failures.
pub fn kronecker_sum_bounds(set: &MatrixSet) -> Result<JsrBounds> {
    let n = set.dim();
    let mut s = Matrix::zeros(n * n, n * n);
    for a in set {
        s = s.add_mat(&a.kron(a))?;
    }
    let rho = spectral_radius(&s)?;
    Ok(JsrBounds {
        lower: (rho / set.len() as f64).max(0.0).sqrt(),
        upper: rho.max(0.0).sqrt(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rotation_scale_certified() {
        // ρ = 0.9, but ‖A‖₂ = 2: only a non-trivial ellipsoid certifies.
        let a = Matrix::from_rows(&[&[0.0, 2.0], &[-0.405, 0.0]]).unwrap();
        let set = MatrixSet::new(vec![a]).unwrap();
        let e = optimize_ellipsoid(&set, &EllipsoidOptions::default()).unwrap();
        assert!(e.norm_bound < 1.0, "bound = {}", e.norm_bound);
        assert!(e.norm_bound >= 0.9 - 1e-6);
    }

    #[test]
    fn transform_preserves_spectra() {
        let a1 = Matrix::from_rows(&[&[0.5, 1.0], &[0.0, 0.3]]).unwrap();
        let a2 = Matrix::from_rows(&[&[0.2, 0.0], &[1.0, 0.4]]).unwrap();
        let set = MatrixSet::new(vec![a1.clone(), a2]).unwrap();
        let e = optimize_ellipsoid(&set, &EllipsoidOptions::default()).unwrap();
        let t = e.transform(&set).unwrap();
        for (orig, tr) in set.iter().zip(t.iter()) {
            let r0 = spectral_radius(orig).unwrap();
            let r1 = spectral_radius(tr).unwrap();
            assert!((r0 - r1).abs() < 1e-8 * r0.max(1.0));
        }
    }

    #[test]
    fn norm_bound_is_valid_upper_bound() {
        // Compare against brute-force lower bound.
        let a1 = Matrix::from_rows(&[&[0.6, 0.4], &[-0.2, 0.7]]).unwrap();
        let a2 = Matrix::from_rows(&[&[0.5, -0.3], &[0.4, 0.6]]).unwrap();
        let set = MatrixSet::new(vec![a1, a2]).unwrap();
        let e = optimize_ellipsoid(&set, &EllipsoidOptions::default()).unwrap();
        let bf = crate::bruteforce_bounds(
            &set,
            &crate::BruteforceOptions {
                max_depth: 8,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(e.norm_bound >= bf.lower - 1e-9);
    }

    #[test]
    fn kronecker_bounds_sandwich_singleton() {
        let a = Matrix::from_rows(&[&[0.3, 0.7], &[-0.5, 0.2]]).unwrap();
        let rho = spectral_radius(&a).unwrap();
        let set = MatrixSet::new(vec![a]).unwrap();
        let b = kronecker_sum_bounds(&set).unwrap();
        // For a singleton, ρ(A⊗A) = ρ(A)² exactly: both bounds collapse.
        assert!((b.lower - rho).abs() < 1e-8, "{b:?} vs {rho}");
        assert!((b.upper - rho).abs() < 1e-8);
    }

    #[test]
    fn kronecker_bounds_contain_true_jsr_for_diagonals() {
        let set =
            MatrixSet::new(vec![Matrix::diag(&[0.9, 0.1]), Matrix::diag(&[0.1, 0.8])]).unwrap();
        let b = kronecker_sum_bounds(&set).unwrap();
        assert!(b.lower <= 0.9 + 1e-9);
        assert!(b.upper >= 0.9 - 1e-9);
    }

    #[test]
    fn bound_never_worse_than_either_seed() -> Result<()> {
        let sets = [
            vec![
                Matrix::from_rows(&[&[0.6, 0.4], &[-0.2, 0.7]])?,
                Matrix::from_rows(&[&[0.5, -0.3], &[0.4, 0.6]])?,
            ],
            vec![
                Matrix::from_rows(&[&[0.9, 5.0, 0.0], &[0.0, 0.8, 1.0], &[0.1, 0.0, 0.5]])?,
                Matrix::from_rows(&[&[0.2, 0.0, 3.0], &[-1.0, 0.4, 0.0], &[0.0, 0.3, 0.7]])?,
                Matrix::from_rows(&[&[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0], &[0.0, 0.0, 0.0]])?,
            ],
        ];
        for members in sets {
            let set = MatrixSet::new(members)?;
            let opts = EllipsoidOptions::default();
            let lyap = Cholesky::new(&lyapunov_seed(&set, opts.seed_iterations)?)?;
            let seeds = [Matrix::identity(set.dim()), lyap.l().transpose()];
            let e = optimize_ellipsoid(&set, &opts)?;
            for seed in &seeds {
                let f_seed = ellipsoid_objective(&set, seed);
                assert!(e.norm_bound <= f_seed, "{} > seed {f_seed}", e.norm_bound);
            }
            // The bound is the certified objective at the returned L.
            assert_eq!(e.norm_bound, ellipsoid_objective(&set, &e.l));
        }
        Ok(())
    }

    #[test]
    fn descent_is_monotone_in_its_own_objective() -> Result<()> {
        let set = MatrixSet::new(vec![
            Matrix::from_rows(&[&[0.9, 5.0], &[0.0, 0.8]])?,
            Matrix::from_rows(&[&[0.5, 0.0], &[2.0, 0.6]])?,
        ])?;
        let l0 = Matrix::identity(2);
        let f = |l: &Matrix| top_pairs(&set, l, f64::INFINITY).map(|p| max_sigma(&p));
        let mut last = f(&l0);
        for iterations in [1, 2, 5, 20] {
            let now = f(&descend(&set, l0.clone(), iterations));
            assert!(now <= last, "{now:?} > {last:?} after {iterations} steps");
            last = now;
        }
        Ok(())
    }

    #[test]
    fn identity_seed_never_worse_than_identity() {
        // The optimiser must return a bound no worse than the plain 2-norm.
        let a = Matrix::from_rows(&[&[0.9, 5.0], &[0.0, 0.8]]).unwrap();
        let plain = norm_2(&a);
        let set = MatrixSet::new(vec![a]).unwrap();
        let e = optimize_ellipsoid(&set, &EllipsoidOptions::default()).unwrap();
        assert!(e.norm_bound <= plain + 1e-9);
        // And it should improve substantially on this shear matrix.
        assert!(e.norm_bound < 0.5 * plain, "bound = {}", e.norm_bound);
    }
}
