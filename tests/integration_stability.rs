//! Cross-crate integration tests for the stability pipeline: design →
//! lifted dynamics → JSR certificate → simulation agreement.

use overrun_control::metrics::{evaluate_worst_case, WorstCaseOptions};
use overrun_control::prelude::*;
use overrun_control::sim::{ClosedLoopSim, SimScenario};
use overrun_control::stability::CertifyOptions;
use overrun_control::ControllerMode;
use overrun_jsr::StabilityVerdict;
use overrun_linalg::{spectral_radius, Matrix};

/// A certificate of stability must be backed by bounded simulations, and a
/// certificate of instability by a diverging switching sequence.
#[test]
fn certificate_agrees_with_simulation_pi() {
    let plant = plants::unstable_second_order();
    let hset = IntervalSet::from_timing(0.010, 0.013, 5).unwrap();
    let table = pi::design_adaptive(&plant, &hset).unwrap();

    let report = stability::certify(&plant, &table, &CertifyOptions::default()).unwrap();
    assert_eq!(report.verdict, StabilityVerdict::Stable, "{:?}", report.bounds);

    // Every random switching pattern must then stay bounded.
    let sim = ClosedLoopSim::new(&plant, &table).unwrap();
    let scenario = SimScenario::regulation(Matrix::col_vec(&[1.0, 0.0]), 1);
    let worst = evaluate_worst_case(
        &sim,
        &scenario,
        &WorstCaseOptions {
            num_sequences: 300,
            jobs_per_sequence: 200,
            seed: 5,
            rmin_fraction: 0.05,
        },
    )
    .unwrap();
    assert!(worst.all_stable());
    assert!(worst.worst_cost.is_finite());
}

#[test]
fn unstable_certificate_matches_divergence() {
    let plant = plants::unstable_second_order();
    let hset = IntervalSet::from_timing(0.010, 0.010, 2).unwrap();
    // No control at all on an unstable plant.
    let zero = ControllerMode::static_gain(Matrix::zeros(1, 1)).unwrap();
    let table = overrun_control::ControllerTable::fixed(zero, hset).unwrap();
    let report = stability::certify(&plant, &table, &CertifyOptions::default()).unwrap();
    assert_eq!(report.verdict, StabilityVerdict::Unstable);

    let sim = ClosedLoopSim::new(&plant, &table)
        .unwrap()
        .with_divergence_threshold(1e6);
    let scenario = SimScenario::regulation(Matrix::col_vec(&[1.0, 0.0]), 1);
    let traj = sim.run(&scenario, &vec![0; 5000]).unwrap();
    assert!(traj.diverged);
}

/// Every per-mode closed loop of an adaptive design must be stable at its
/// own interval, and the JSR lower bound can never undercut the largest
/// per-mode spectral radius.
#[test]
fn jsr_lower_bound_dominates_mode_radii() {
    let plant = plants::pmsm();
    let hset = IntervalSet::from_timing(50e-6, 1.3 * 50e-6, 2).unwrap();
    let weights = overrun_control::scenarios::pmsm_table2_weights();
    let table = lqr::design_adaptive(&plant, &hset, &weights).unwrap();
    let meas = lifted::measurement_matrix(&plant, &table).unwrap();
    let omegas = lifted::build_omega_set(&plant, &table, &meas).unwrap();
    let max_mode_rho = omegas
        .iter()
        .map(|o| spectral_radius(o).unwrap())
        .fold(0.0_f64, f64::max);
    assert!(max_mode_rho < 1.0);

    let report = stability::certify(&plant, &table, &CertifyOptions::default()).unwrap();
    assert!(report.bounds.lower >= max_mode_rho - 1e-6);
    assert!(report.bounds.upper >= report.bounds.lower - 1e-12);
    assert_eq!(report.verdict, StabilityVerdict::Stable);
}

/// The Eq.-12 brute-force bounds and the production certificate must agree
/// (their intervals both contain the true JSR).
#[test]
fn eq12_and_certificate_intervals_overlap() {
    let plant = plants::unstable_second_order();
    let hset = IntervalSet::from_timing(0.010, 0.016, 2).unwrap();
    let table = pi::design_adaptive(&plant, &hset).unwrap();
    let cert = stability::certify(&plant, &table, &CertifyOptions::default())
        .unwrap()
        .bounds;
    let eq12 = stability::eq12_bounds(&plant, &table, 7).unwrap();
    assert!(cert.lower <= eq12.upper + 1e-9, "cert={cert:?} eq12={eq12:?}");
    assert!(eq12.lower <= cert.upper + 1e-9, "cert={cert:?} eq12={eq12:?}");
}

/// Ns = 1 reduces the policy to skip-next; the design and certificate must
/// still go through (coarser grid, possibly larger delays).
#[test]
fn skip_next_special_case_certifies() {
    let plant = plants::unstable_second_order();
    // Rmax = 1.3 T with Ns = 1: H = {T, 2T}.
    let hset = IntervalSet::from_timing(0.010, 0.013, 1).unwrap();
    assert_eq!(hset.len(), 2);
    assert!((hset.max_interval() - 0.020).abs() < 1e-12);
    let table = pi::design_adaptive(&plant, &hset).unwrap();
    let report = stability::certify(&plant, &table, &CertifyOptions::default()).unwrap();
    // The coarse grid shrinks the margin; accept stable-or-unknown, but the
    // bounds must be meaningful.
    assert!(report.bounds.lower > 0.5);
    assert!(report.bounds.upper < 1.2);
}

/// The deployment rule (Sec. V-B): shrinking the actual worst case keeps
/// the certified table valid; growing it invalidates the subset check.
#[test]
fn deployment_subset_rule_end_to_end() {
    let designed = IntervalSet::from_timing(0.010, 0.016, 5).unwrap();
    let smaller = IntervalSet::from_timing(0.010, 0.012, 5).unwrap();
    let bigger = IntervalSet::from_timing(0.010, 0.018, 5).unwrap();
    assert!(smaller.is_subset_of(&designed));
    assert!(!bigger.is_subset_of(&designed));
}

/// The one-step ellipsoid bound alone certifies the Table II (1.1T, T/2)
/// adaptive LQR design: the descent finds a common quadratic Lyapunov
/// function on the preconditioned lifted set (a simplex search over the
/// entries of `L` stalls at about 1.2 there).
#[test]
fn ellipsoid_alone_certifies_table2_adaptive_lqr() -> Result<(), Box<dyn std::error::Error>> {
    let plant = plants::pmsm();
    let t = 50e-6;
    let hset = IntervalSet::from_timing(t, 1.1 * t, 2)?;
    let table = lqr::design_adaptive(&plant, &hset, &scenarios::pmsm_table2_weights())?;
    let measurement = overrun_control::lifted::measurement_matrix(&plant, &table)?;
    let omegas = overrun_control::lifted::build_omega_set(&plant, &table, &measurement)?;
    let (set, _) = overrun_jsr::precondition(&overrun_jsr::MatrixSet::new(omegas)?)?;
    let e = overrun_jsr::optimize_ellipsoid(&set, &Default::default())?;
    assert!(e.norm_bound < 1.0, "one-step ellipsoid bound {}", e.norm_bound);
    Ok(())
}
