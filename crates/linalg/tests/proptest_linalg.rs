//! Property-based tests for the linear algebra kernels.

use overrun_linalg::{
    eigenvalues, expm, expm_integral, norm_1, norm_2, norm_fro, norm_inf, solve_discrete_lyapunov,
    solve_discrete_lyapunov_direct, spectral_radius, Cholesky, Lu, Matrix,
};
use proptest::prelude::*;

/// Strategy: a square matrix with entries in [-mag, mag].
fn square_matrix(n: usize, mag: f64) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-mag..mag, n * n)
        .prop_map(move |v| Matrix::from_vec(n, n, v).expect("sized buffer"))
}

/// Strategy: a symmetric positive definite matrix built as `M Mᵀ + εI`.
fn spd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    square_matrix(n, 2.0).prop_map(move |m| &m * &m.transpose() + Matrix::identity(n) * 0.5)
}

/// Strategy: a Schur-stable matrix (scaled so that ρ < 0.95).
fn stable_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    square_matrix(n, 1.0).prop_filter_map("spectral radius computable", move |m| {
        let rho = spectral_radius(&m).ok()?;
        if rho < 1e-12 {
            Some(m)
        } else {
            Some(m.scale(0.95 / rho.max(1.0)).scale(0.9))
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_reconstructs_solution(m in square_matrix(4, 5.0), rhs in prop::collection::vec(-5.0..5.0f64, 4)) {
        let lu = Lu::new(&m).unwrap();
        if !lu.is_singular() {
            let b = Matrix::col_vec(&rhs);
            let x = lu.solve(&b).unwrap();
            let back = &m * &x;
            let scale = m.max_abs().max(1.0) * x.max_abs().max(1.0);
            prop_assert!(back.approx_eq(&b, 1e-8 * scale, 1e-8));
        }
    }

    #[test]
    fn det_of_product_is_product_of_dets(a in square_matrix(3, 2.0), b in square_matrix(3, 2.0)) {
        let dab = (&a * &b).det().unwrap();
        let da = a.det().unwrap();
        let db = b.det().unwrap();
        let scale = da.abs().max(1.0) * db.abs().max(1.0);
        prop_assert!((dab - da * db).abs() < 1e-9 * scale);
    }

    #[test]
    fn cholesky_reconstructs_spd(a in spd_matrix(3)) {
        let ch = Cholesky::new(&a).unwrap();
        let back = ch.l() * ch.l().transpose();
        prop_assert!(back.approx_eq(&a, 1e-8 * a.max_abs().max(1.0), 1e-8));
    }

    #[test]
    fn eigenvalue_sum_is_trace(a in square_matrix(5, 2.0)) {
        let eigs = eigenvalues(&a).unwrap();
        let s: f64 = eigs.iter().map(|e| e.re).sum();
        prop_assert!((s - a.trace()).abs() < 1e-6 * a.max_abs().max(1.0) * 5.0);
        // complex eigenvalues come in conjugate pairs
        let im_sum: f64 = eigs.iter().map(|e| e.im).sum();
        prop_assert!(im_sum.abs() < 1e-6 * a.max_abs().max(1.0) * 5.0);
    }

    #[test]
    fn spectral_radius_bounded_by_norms(a in square_matrix(4, 3.0)) {
        let rho = spectral_radius(&a).unwrap();
        prop_assert!(rho <= norm_1(&a) + 1e-9);
        prop_assert!(rho <= norm_inf(&a) + 1e-9);
        prop_assert!(rho <= norm_fro(&a) + 1e-9);
        prop_assert!(rho <= norm_2(&a) + 1e-6 * norm_fro(&a).max(1.0));
    }

    #[test]
    fn expm_inverse_identity(a in square_matrix(3, 1.0)) {
        let e = expm(&a).unwrap();
        let em = expm(&(-&a)).unwrap();
        let prod = &e * &em;
        prop_assert!(prod.approx_eq(&Matrix::identity(3), 1e-9, 1e-9));
    }

    #[test]
    fn expm_det_is_exp_trace(a in square_matrix(3, 1.0)) {
        let e = expm(&a).unwrap();
        let lhs = e.det().unwrap();
        let rhs = a.trace().exp();
        prop_assert!((lhs - rhs).abs() < 1e-8 * rhs.abs().max(1.0));
    }

    #[test]
    fn zoh_semigroup(a in square_matrix(2, 2.0), h1 in 0.01..0.5f64, h2 in 0.01..0.5f64) {
        let b = Matrix::col_vec(&[0.0, 1.0]);
        let (phi1, g1) = expm_integral(&a, &b, h1).unwrap();
        let (phi2, g2) = expm_integral(&a, &b, h2).unwrap();
        let (phi12, g12) = expm_integral(&a, &b, h1 + h2).unwrap();
        prop_assert!((&phi2 * &phi1).approx_eq(&phi12, 1e-8, 1e-8));
        prop_assert!((&phi2 * &g1 + &g2).approx_eq(&g12, 1e-8, 1e-8));
    }

    #[test]
    fn lyapunov_smith_matches_direct(a in stable_matrix(3)) {
        let q = Matrix::identity(3);
        let x1 = solve_discrete_lyapunov(&a, &q).unwrap();
        let x2 = solve_discrete_lyapunov_direct(&a, &q).unwrap();
        prop_assert!(x1.approx_eq(&x2, 1e-7 * x1.max_abs().max(1.0), 1e-7));
        // residual check
        let res = a.transpose() * &x1 * &a - &x1 + &q;
        prop_assert!(res.max_abs() < 1e-8 * x1.max_abs().max(1.0));
    }

    #[test]
    fn norm_triangle_inequality(a in square_matrix(3, 4.0), b in square_matrix(3, 4.0)) {
        let sum = &a + &b;
        prop_assert!(norm_fro(&sum) <= norm_fro(&a) + norm_fro(&b) + 1e-12);
        prop_assert!(norm_1(&sum) <= norm_1(&a) + norm_1(&b) + 1e-12);
        prop_assert!(norm_inf(&sum) <= norm_inf(&a) + norm_inf(&b) + 1e-12);
    }

    #[test]
    fn norm_submultiplicative(a in square_matrix(3, 3.0), b in square_matrix(3, 3.0)) {
        let p = &a * &b;
        prop_assert!(norm_1(&p) <= norm_1(&a) * norm_1(&b) + 1e-9);
        prop_assert!(norm_inf(&p) <= norm_inf(&a) * norm_inf(&b) + 1e-9);
        prop_assert!(norm_2(&p) <= norm_2(&a) * norm_2(&b) + 1e-6 * (norm_fro(&a) * norm_fro(&b)).max(1.0));
    }

    #[test]
    fn transpose_preserves_fro_norm(a in square_matrix(4, 5.0)) {
        prop_assert!((norm_fro(&a) - norm_fro(&a.transpose())).abs() < 1e-12);
        // and swaps 1 and inf norms
        prop_assert!((norm_1(&a) - norm_inf(&a.transpose())).abs() < 1e-12);
    }

    #[test]
    fn matmul_associative(a in square_matrix(3, 2.0), b in square_matrix(3, 2.0), c in square_matrix(3, 2.0)) {
        let left = (&a * &b) * &c;
        let right = &a * (&b * &c);
        let scale = a.max_abs().max(1.0) * b.max_abs().max(1.0) * c.max_abs().max(1.0);
        prop_assert!(left.approx_eq(&right, 1e-10 * scale, 1e-10));
    }

    #[test]
    fn kron_mixed_product(a in square_matrix(2, 2.0), b in square_matrix(2, 2.0),
                          c in square_matrix(2, 2.0), d in square_matrix(2, 2.0)) {
        // (A ⊗ B)(C ⊗ D) = (AC) ⊗ (BD)
        let lhs = a.kron(&b) * c.kron(&d);
        let rhs = (&a * &c).kron(&(&b * &d));
        let scale = lhs.max_abs().max(1.0);
        prop_assert!(lhs.approx_eq(&rhs, 1e-10 * scale, 1e-10));
    }
}

mod screening_and_kernel_properties {
    use super::*;
    use overrun_linalg::{cheap_spectral_bounds, small};

    /// Zero-inflates a buffer: small-magnitude draws become exact zeros, so
    /// the kernels' zero-skip branch and the screening accumulators see a
    /// realistic mix of sparsity (roughly a quarter of the entries).
    fn inflate(v: &[f64], n: usize, mag: f64) -> Vec<f64> {
        v[..n * n]
            .iter()
            .map(|&x| if x.abs() < mag / 4.0 { 0.0 } else { x })
            .collect()
    }

    /// Strategy: a dimension `1..=8` (the kernel range) with a zero-inflated
    /// square matrix of that size.
    fn sized_sparse(mag: f64) -> impl Strategy<Value = (usize, Vec<f64>)> {
        let full = small::MAX_DIM * small::MAX_DIM;
        (
            1usize..=small::MAX_DIM,
            prop::collection::vec(-mag..mag, full),
        )
            .prop_map(move |(n, v)| (n, inflate(&v, n, mag)))
    }

    /// Two same-size zero-inflated buffers.
    fn sized_sparse_pair(mag: f64) -> impl Strategy<Value = (usize, Vec<f64>, Vec<f64>)> {
        let full = small::MAX_DIM * small::MAX_DIM;
        (sized_sparse(mag), prop::collection::vec(-mag..mag, full)).prop_map(move |((n, a), v)| {
            let b = inflate(&v, n, mag);
            (n, a, b)
        })
    }

    /// Embeds an `n × n` matrix as the top-left block of a zero matrix one
    /// larger than [`small::MAX_DIM`], forcing the generic multiply path.
    fn pad(n: usize, data: &[f64]) -> Matrix {
        let big = small::MAX_DIM + 1;
        let mut m = Matrix::zeros(big, big);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = data[i * n + j];
            }
        }
        m
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn cheap_bounds_bracket_exact_evaluations((n, v) in sized_sparse(10.0)) {
            let m = Matrix::from_vec(n, n, v).expect("sized buffer");
            let b = cheap_spectral_bounds(&m);
            let nrm = norm_2(&m);
            prop_assert!(b.norm_lower <= nrm, "norm_lower {} > norm_2 {}", b.norm_lower, nrm);
            prop_assert!(nrm <= b.norm_upper, "norm_2 {} > norm_upper {}", nrm, b.norm_upper);
            let rho = spectral_radius(&m).unwrap();
            prop_assert!(rho <= b.radius_upper, "rho {} > radius_upper {}", rho, b.radius_upper);
            prop_assert!(b.radius_upper <= b.norm_upper, "radius bound looser than norm bound");
        }

        #[test]
        fn matmul_kernel_matches_generic_bitwise((n, a, b) in sized_sparse_pair(6.0)) {
            // n ≤ MAX_DIM dispatches to the const-generic kernel …
            let am = Matrix::from_vec(n, n, a.clone()).expect("sized buffer");
            let bm = Matrix::from_vec(n, n, b.clone()).expect("sized buffer");
            let fast = am.matmul(&bm).unwrap();
            // … while the padded embedding is too large for any kernel and
            // takes the generic loop; zero padding never contributes terms,
            // so the top-left block must agree bit for bit.
            let slow = pad(n, &a).matmul(&pad(n, &b)).unwrap();
            for i in 0..n {
                for j in 0..n {
                    prop_assert_eq!(fast[(i, j)].to_bits(), slow[(i, j)].to_bits(),
                        "({}, {}) of n = {}", i, j, n);
                }
            }
        }

        #[test]
        fn mul_vec_kernel_matches_generic_bitwise((n, a, x) in sized_sparse_pair(6.0)) {
            let am = Matrix::from_vec(n, n, a.clone()).expect("sized buffer");
            let x = &x[..n];
            let mut fast = vec![0.0_f64; n];
            am.mul_vec_into(x, &mut fast).unwrap();
            let big = small::MAX_DIM + 1;
            let mut xp = vec![0.0_f64; big];
            xp[..n].copy_from_slice(x);
            let mut slow = vec![0.0_f64; big];
            pad(n, &a).mul_vec_into(&xp, &mut slow).unwrap();
            for i in 0..n {
                prop_assert_eq!(fast[i].to_bits(), slow[i].to_bits(), "row {} of n = {}", i, n);
            }
        }

        #[test]
        fn fro_norm_kernel_matches_generic_bitwise((n, a) in sized_sparse(6.0)) {
            let am = Matrix::from_vec(n, n, a.clone()).expect("sized buffer");
            // The padded embedding only appends exact zeros to the sum, so
            // the generic accumulation visits the same values in order.
            prop_assert_eq!(norm_fro(&am).to_bits(), norm_fro(&pad(n, &a)).to_bits());
        }
    }
}

mod svd_properties {
    use super::*;
    use overrun_linalg::Svd;

    fn any_matrix(rows: usize, cols: usize, mag: f64) -> impl Strategy<Value = Matrix> {
        prop::collection::vec(-mag..mag, rows * cols)
            .prop_map(move |v| Matrix::from_vec(rows, cols, v).expect("sized buffer"))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn svd_reconstructs(a in any_matrix(4, 3, 5.0)) {
            let svd = Svd::new(&a).unwrap();
            let mut back = Matrix::zeros(4, 3);
            for j in 0..svd.singular_values().len() {
                let s = svd.singular_values()[j];
                for i in 0..4 {
                    for k in 0..3 {
                        back[(i, k)] += s * svd.u()[(i, j)] * svd.v()[(k, j)];
                    }
                }
            }
            let scale = a.max_abs().max(1.0);
            prop_assert!(back.approx_eq(&a, 1e-9 * scale, 1e-9));
        }

        #[test]
        fn singular_values_sorted_and_nonnegative(a in any_matrix(3, 5, 4.0)) {
            let svd = Svd::new(&a).unwrap();
            let s = svd.singular_values();
            prop_assert!(s.iter().all(|v| *v >= 0.0));
            for w in s.windows(2) {
                prop_assert!(w[0] >= w[1] - 1e-12);
            }
            // σ₁ = ‖A‖₂ and sqrt(Σσ²) = ‖A‖_F.
            prop_assert!((s[0] - norm_2(&a)).abs() < 1e-8 * s[0].max(1.0));
            let fro: f64 = s.iter().map(|x| x * x).sum::<f64>().sqrt();
            prop_assert!((fro - norm_fro(&a)).abs() < 1e-9 * fro.max(1.0));
        }

        #[test]
        fn rank_bounds(a in any_matrix(4, 4, 3.0)) {
            let r = overrun_linalg::rank(&a).unwrap();
            prop_assert!(r <= 4);
            // det != 0 (well away from zero) implies full rank.
            let d = a.det().unwrap();
            if d.abs() > 1e-6 {
                prop_assert_eq!(r, 4);
            }
        }

        /// Rank-deficient input (`A = B·C` with inner dimension `k`, plus
        /// a repeated row, as the lifted Ω(h) matrices have): Jacobi
        /// converges, σ comes out sorted, `UΣVᵀ` reconstructs `A` and the
        /// numerical rank is `min(k, m, n)`.
        #[test]
        fn svd_of_rank_k_products(
            (m, n, k) in (1usize..=6, 1usize..=6, 1usize..=6),
            b in prop::collection::vec(-2.0..2.0f64, 36),
            c in prop::collection::vec(-2.0..2.0f64, 36),
        ) {
            let bm = Matrix::from_vec(m, k, b[..m * k].to_vec()).expect("sized buffer");
            let bm = Matrix::vstack(&[&bm, &bm.submatrix(0, 0, 1, k).expect("first row")])
                .expect("same width");
            let cm = Matrix::from_vec(k, n, c[..k * n].to_vec()).expect("sized buffer");
            let a = &bm * &cm;
            let svd = Svd::new(&a).unwrap();
            let s = svd.singular_values();
            for w in s.windows(2) {
                prop_assert!(w[0] >= w[1], "unsorted {:?}", s);
            }
            let mut back = Matrix::zeros(m + 1, n);
            for (j, &sj) in s.iter().enumerate() {
                for i in 0..=m {
                    for l in 0..n {
                        back[(i, l)] += sj * svd.u()[(i, j)] * svd.v()[(l, j)];
                    }
                }
            }
            prop_assert!(norm_fro(&(&back - &a)) <= 1e-12 * norm_fro(&a).max(1e-300));
            prop_assert_eq!(overrun_linalg::rank(&a).unwrap(), k.min(m).min(n));
        }

        #[test]
        fn pseudo_inverse_is_consistent(a in any_matrix(5, 2, 4.0)) {
            let pinv = Svd::new(&a).unwrap().pseudo_inverse().unwrap();
            // A A⁺ A = A always holds for the Moore–Penrose inverse.
            let back = &a * &pinv * &a;
            let scale = a.max_abs().max(1.0);
            prop_assert!(back.approx_eq(&a, 1e-7 * scale, 1e-7));
        }
    }
}
