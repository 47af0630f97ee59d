//! Adaptive PI controller design (paper Eq. 7).
//!
//! The PI controller — "more than 90% of all industrial controllers" —
//! has one mode per interval `h ∈ H`:
//!
//! ```text
//! z[k+1] = z[k] + h_{k−1} · e[k]
//! u[k+1] = K̄P(h_{k−1}) e[k] + K̄I(h_{k−1}) z[k]
//! ```
//!
//! The integrator advances by the *actual* elapsed interval (forward Euler
//! over `h_{k−1}` rather than `T`), which is exactly the paper's
//! compensation of the previous job's overrun. Gains are tuned per interval
//! with a heuristic search (grid seed + Nelder–Mead polish), standing in
//! for the paper's "standard heuristic procedures".

use overrun_linalg::{spectral_radius, Matrix};

use crate::tuning::{nelder_mead, NelderMeadOptions};
use crate::{lifted, ContinuousSs, ControllerMode, ControllerTable, Error, IntervalSet, Result};

/// Builds the PI controller mode of paper Eq. (7) for interval `h`.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for a non-positive interval.
///
/// # Example
///
/// ```
/// use overrun_control::pi;
///
/// # fn main() -> Result<(), overrun_control::Error> {
/// let mode = pi::mode_for_gains(120.0, 200.0, 0.012)?;
/// assert_eq!(mode.state_dim(), 1);
/// # Ok(())
/// # }
/// ```
pub fn mode_for_gains(kp: f64, ki: f64, h: f64) -> Result<ControllerMode> {
    if !(h.is_finite() && h > 0.0) {
        return Err(Error::InvalidConfig(format!(
            "PI interval must be positive, got {h}"
        )));
    }
    ControllerMode::new(
        Matrix::identity(1),
        Matrix::from_rows(&[&[h]]).map_err(Error::Linalg)?,
        Matrix::from_rows(&[&[ki]]).map_err(Error::Linalg)?,
        Matrix::from_rows(&[&[kp]]).map_err(Error::Linalg)?,
    )
}

/// Hard ceiling on the spectral-radius margin used in tuning phase B.
const RHO_CEILING: f64 = 0.998;

/// Fraction of the available contraction headroom `1 − ρ_min` conceded to
/// performance tuning; the rest is kept as slack for the switching
/// (JSR) certificate.
const MARGIN_FACTOR: f64 = 0.15;

/// Closed-loop spectral radius of the PI gains `(kp, ki)` running the
/// constant-interval loop at `h` (`∞` when the mode cannot be built or the
/// eigenvalue solve fails) — the shared objective kernel of both tuning
/// phases.
fn closed_loop_rho(plant: &ContinuousSs, h: f64, kp: f64, ki: f64) -> f64 {
    match mode_for_gains(kp, ki, h) {
        Ok(mode) => match lifted::build_omega(plant, &mode, h, &plant.c) {
            Ok(omega) => spectral_radius(&omega).unwrap_or(f64::INFINITY),
            Err(_) => f64::INFINITY,
        },
        Err(_) => f64::INFINITY,
    }
}

/// Signed log-grid of candidate gain magnitudes shared by both tuning
/// phases.
const GAIN_GRID: [f64; 8] = [0.5, 2.0, 8.0, 30.0, 100.0, 300.0, 1000.0, 3000.0];

/// Scans the signed gain grid with an arbitrary objective, returning the
/// best `(value, kp, ki)` triple.
fn grid_scan<F: FnMut(f64, f64) -> f64>(mut objective: F) -> (f64, f64, f64) {
    let mut best = (f64::INFINITY, 0.0, 0.0);
    for &kp_mag in &GAIN_GRID {
        for &ki_mag in &GAIN_GRID {
            for &sp in &[1.0, -1.0] {
                for &si in &[1.0, -1.0] {
                    let (kp, ki) = (sp * kp_mag, si * ki_mag);
                    let f = objective(kp, ki);
                    if f < best.0 {
                        best = (f, kp, ki);
                    }
                }
            }
        }
    }
    best
}

/// Smallest achievable constant-`h` closed-loop spectral radius for the PI
/// structure on this plant (signed log-grid seed + Nelder–Mead polish), and
/// the derived tuning margin.
fn contraction_margin(plant: &ContinuousSs, h: f64) -> Result<f64> {
    let _sp = overrun_trace::span!("pi.margin", h_us = h * 1e6);
    let seed = grid_scan(|kp, ki| closed_loop_rho(plant, h, kp, ki));
    if seed.0 >= 1.0 {
        return Err(Error::Design(format!(
            "no stabilising PI gains found for interval h = {h}"
        )));
    }
    let rho_opt = nelder_mead(
        |x| closed_loop_rho(plant, h, x[0], x[1]),
        &[seed.1, seed.2],
        &NelderMeadOptions {
            max_evals: 300,
            f_tol: 1e-10,
            initial_step: 0.3,
        },
    )?;
    overrun_trace::counter!("pi.margin_evals", rho_opt.evals as u64);
    let rho_min = rho_opt.f.min(seed.0);
    Ok((rho_min + MARGIN_FACTOR * (1.0 - rho_min)).min(RHO_CEILING))
}

/// Nominal closed-loop cost of a PI mode running at a *constant* interval
/// `h`: the step-response integral square error over `steps` jobs plus a
/// terminal penalty weighting the residual steady-state error, with an
/// infinite penalty for divergence. Used as the tuning objective.
///
/// Steps on one scratch buffer per call with the allocation-free
/// `mul_vec_into` / `step_into` kernels, which are bit-identical to the
/// allocating `matmul`/`step` — so the tuned gains are too.
fn nominal_step_cost(
    plant: &ContinuousSs,
    mode: &ControllerMode,
    h: f64,
    steps: usize,
) -> f64 {
    let Ok(d) = plant.discretize(h) else {
        return f64::INFINITY;
    };
    let n = plant.state_dim();
    let mut work = vec![0.0; 3 * n];
    let (mut x, rest) = work.split_at_mut(n);
    let (mut x_next, gamma_u) = rest.split_at_mut(n);
    let (mut z, mut z_next) = ([0.0], [0.0]);
    let (mut u_applied, mut u_new) = ([0.0], [0.0]);
    let (mut y, mut e, mut scratch) = ([0.0], [0.0], [0.0]);
    let mut cost = 0.0;
    for _ in 0..steps {
        if plant.c.mul_vec_into(x, &mut y).is_err() {
            return f64::INFINITY;
        }
        e[0] = 1.0 - y[0];
        if mode
            .step_into(&z, &e, &mut scratch, &mut z_next, &mut u_new)
            .is_err()
        {
            return f64::INFINITY;
        }
        z = z_next;
        cost += e[0] * e[0];
        if d.step_into(x, &u_applied, gamma_u, x_next).is_err() {
            return f64::INFINITY;
        }
        // The command computed by job k applies from the next release on.
        u_applied = u_new;
        if !x_next.iter().all(|v| v.is_finite())
            || x_next.iter().fold(0.0_f64, |m, v| m.max(v.abs())) > 1e9
        {
            return f64::INFINITY;
        }
        std::mem::swap(&mut x, &mut x_next);
    }
    // Terminal penalty: an O(steps) weight on the residual error makes a
    // biased proportional-only solution (which minimises the short-window
    // ISE) lose against true integral action.
    cost + steps as f64 * e[0] * e[0]
}

/// Tunes `(K̄P, K̄I)` for one interval in two phases:
///
/// 1. **Margin discovery** — a signed log-grid seed plus Nelder–Mead
///    minimisation of the constant-`h` closed-loop spectral radius, yielding
///    the smallest achievable `ρ_min` for the PI structure on this plant.
/// 2. **Performance tuning** — Nelder–Mead on the nominal step cost,
///    constrained (by penalty) to
///    `ρ < ρ_min + MARGIN_FACTOR·(1 − ρ_min)` with `MARGIN_FACTOR = 0.15`
///    (capped at 0.998), so the mode keeps contraction slack for the
///    switching-stability certificate without sacrificing tracking.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for non-SISO plants and
/// [`Error::Design`] when no stabilising gain pair exists on the search
/// grid (e.g. the plant is not PI-stabilisable at this interval).
pub fn tune_for_interval(plant: &ContinuousSs, h: f64) -> Result<(f64, f64)> {
    if plant.input_dim() != 1 || plant.output_dim() != 1 {
        return Err(Error::InvalidConfig(
            "PI design requires a SISO plant".into(),
        ));
    }
    let margin = contraction_margin(plant, h)?;
    tune_with_margin(plant, h, margin, None)
}

/// Phase-2 tuning: minimise the tracking cost at constant `h` subject (by
/// penalty) to `ρ(Ω(h)) < margin`. An optional seed skips the grid scan.
fn tune_with_margin(
    plant: &ContinuousSs,
    h: f64,
    margin: f64,
    seed: Option<(f64, f64)>,
) -> Result<(f64, f64)> {
    let _sp = overrun_trace::span!("pi.tune", h_us = h * 1e6);
    let steps = 400;
    let objective = |kp: f64, ki: f64| -> f64 {
        let rho = closed_loop_rho(plant, h, kp, ki);
        if rho >= margin {
            return 1e6 * rho.min(10.0);
        }
        match mode_for_gains(kp, ki, h) {
            Ok(mode) => nominal_step_cost(plant, &mode, h, steps),
            Err(_) => f64::INFINITY,
        }
    };
    let mut best = match seed {
        Some((kp, ki)) => (objective(kp, ki), kp, ki),
        None => (f64::INFINITY, 0.0, 0.0),
    };
    if seed.is_none() || !best.0.is_finite() || best.0 >= 1e6 {
        let grid_best = grid_scan(objective);
        if grid_best.0 < best.0 {
            best = grid_best;
        }
    }
    let result = nelder_mead(
        |x| objective(x[0], x[1]),
        &[best.1, best.2],
        &NelderMeadOptions {
            max_evals: 400,
            f_tol: 1e-9,
            initial_step: 0.25,
        },
    )?;
    overrun_trace::counter!("pi.nm_evals", result.evals as u64);
    if result.f >= 1e6 && best.0 >= 1e6 {
        return Err(Error::Design(format!(
            "no PI gains satisfy the contraction margin {margin:.4} at h = {h}"
        )));
    }
    if result.f < best.0 {
        Ok((result.x[0], result.x[1]))
    } else {
        Ok((best.1, best.2))
    }
}

/// Designs the **adaptive** PI table: one `(K̄P(h), K̄I(h))` pair per
/// interval, each with its integrator stepped by the matching `h`.
///
/// # Errors
///
/// Propagates [`tune_for_interval`] failures.
///
/// # Example
///
/// ```
/// use overrun_control::prelude::*;
///
/// # fn main() -> Result<(), overrun_control::Error> {
/// let plant = plants::unstable_second_order();
/// let hset = IntervalSet::from_timing(0.010, 0.013, 2)?;
/// let table = pi::design_adaptive(&plant, &hset)?;
/// assert_eq!(table.len(), 2);
/// # Ok(())
/// # }
/// ```
pub fn design_adaptive(plant: &ContinuousSs, hset: &IntervalSet) -> Result<ControllerTable> {
    if plant.input_dim() != 1 || plant.output_dim() != 1 {
        return Err(Error::InvalidConfig(
            "PI design requires a SISO plant".into(),
        ));
    }
    let _sp = overrun_trace::span!("table.pi", modes = hset.len());
    // One contraction margin for the whole schedule (computed at the
    // nominal interval): every mode keeps the same slack, so chained
    // refinement cannot drift toward the stability boundary. Each longer
    // interval is tuned seeded from its predecessor, yielding the smooth
    // gain schedule K̄(h) of the paper's Eq. (7).
    let intervals = hset.intervals();
    let margin = contraction_margin(plant, intervals[0])?;
    let mut gains = Vec::with_capacity(intervals.len());
    let (mut kp, mut ki) = tune_with_margin(plant, intervals[0], margin, None)?;
    gains.push((kp, ki));
    for &h in &intervals[1..] {
        let (kp_h, ki_h) = tune_with_margin(plant, h, margin, Some((kp, ki)))?;
        kp = kp_h;
        ki = ki_h;
        gains.push((kp, ki));
    }
    // The tuning chain above is inherently sequential (each interval's
    // gains seed the next), but the final mode construction is a pure
    // per-(h, gains) map and parallelises cleanly.
    let pairs: Vec<(f64, (f64, f64))> =
        intervals.iter().copied().zip(gains.iter().copied()).collect();
    let modes = overrun_par::try_parallel_map(&pairs, |_, &(h, (kp, ki))| {
        mode_for_gains(kp, ki, h)
    })?;
    ControllerTable::new(modes, hset.clone())
}

/// Designs a **fixed** PI table: gains tuned for a single design interval
/// `h_design` (the paper's "as if the control period was given — either `T`
/// or `Rmax`"), replicated over every interval in `H`. The integrator also
/// steps by `h_design` regardless of the actual elapsed time — that is
/// precisely the inconsistency the adaptive design removes.
///
/// # Errors
///
/// Propagates [`tune_for_interval`] failures.
pub fn design_fixed(
    plant: &ContinuousSs,
    hset: &IntervalSet,
    h_design: f64,
) -> Result<ControllerTable> {
    let (kp, ki) = tune_for_interval(plant, h_design)?;
    let mode = mode_for_gains(kp, ki, h_design)?;
    ControllerTable::fixed(mode, hset.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plants;

    /// The allocating objective `nominal_step_cost` replaced, kept as its
    /// bit-identity oracle.
    fn nominal_step_cost_alloc(
        plant: &ContinuousSs,
        mode: &ControllerMode,
        h: f64,
        steps: usize,
    ) -> f64 {
        let Ok(d) = plant.discretize(h) else {
            return f64::INFINITY;
        };
        let mut x = Matrix::zeros(plant.state_dim(), 1);
        let mut z = Matrix::zeros(1, 1);
        let mut u_applied = Matrix::zeros(1, 1);
        let mut cost = 0.0;
        let mut e_val = 0.0;
        for _ in 0..steps {
            let Ok(y) = plant.c.matmul(&x) else {
                return f64::INFINITY;
            };
            e_val = 1.0 - y[(0, 0)];
            let e = Matrix::col_vec(&[e_val]);
            let Ok((z_new, u_new)) = mode.step(&z, &e) else {
                return f64::INFINITY;
            };
            z = z_new;
            cost += e_val * e_val;
            let Ok(x_next) = d.step(&x, &u_applied) else {
                return f64::INFINITY;
            };
            // The command computed by job k applies from the next release on.
            u_applied = u_new;
            if !x_next.is_finite() || x_next.max_abs() > 1e9 {
                return f64::INFINITY;
            }
            x = x_next;
        }
        // Terminal penalty: an O(steps) weight on the residual error makes a
        // biased proportional-only solution (which minimises the short-window
        // ISE) lose against true integral action.
        cost + steps as f64 * e_val * e_val
    }

    #[test]
    fn step_cost_bit_identical_to_allocating_oracle() -> Result<()> {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        let mut finite = 0;
        for plant in [plants::unstable_second_order(), plants::dc_motor()] {
            for _ in 0..40 {
                let kp = rng.gen_range(-300.0..300.0);
                let ki = rng.gen_range(-3000.0..3000.0);
                let h = rng.gen_range(0.002..0.03);
                let steps = rng.gen_range(1..400);
                let mode = mode_for_gains(kp, ki, h)?;
                let new = nominal_step_cost(&plant, &mode, h, steps);
                let old = nominal_step_cost_alloc(&plant, &mode, h, steps);
                assert_eq!(
                    new.to_bits(),
                    old.to_bits(),
                    "kp {kp} ki {ki} h {h} steps {steps}: {new} vs {old}"
                );
                finite += usize::from(new.is_finite());
            }
        }
        // Both stabilising and diverging gains were exercised.
        assert!((20..80).contains(&finite), "{finite} of 80 finite");
        Ok(())
    }

    #[test]
    fn mode_matches_eq7_structure() {
        let m = mode_for_gains(2.0, 3.0, 0.012).unwrap();
        assert_eq!(m.ac, Matrix::identity(1));
        assert_eq!(m.bc[(0, 0)], 0.012);
        assert_eq!(m.cc[(0, 0)], 3.0);
        assert_eq!(m.dc[(0, 0)], 2.0);
        assert!(mode_for_gains(1.0, 1.0, 0.0).is_err());
        assert!(mode_for_gains(1.0, 1.0, f64::NAN).is_err());
    }

    #[test]
    fn tuned_gains_stabilize_unstable_plant() {
        let plant = plants::unstable_second_order();
        let (kp, ki) = tune_for_interval(&plant, 0.010).unwrap();
        let mode = mode_for_gains(kp, ki, 0.010).unwrap();
        let omega = lifted::build_omega(&plant, &mode, 0.010, &plant.c).unwrap();
        let rho = spectral_radius(&omega).unwrap();
        assert!(rho < 1.0, "ρ = {rho} with gains ({kp}, {ki})");
    }

    #[test]
    fn adaptive_design_covers_all_intervals() {
        let plant = plants::unstable_second_order();
        let hset = IntervalSet::from_timing(0.010, 0.016, 2).unwrap(); // {10,15,20} ms
        let table = design_adaptive(&plant, &hset).unwrap();
        assert_eq!(table.len(), 3);
        // Each mode must stabilise its own constant-interval loop.
        for (i, &h) in hset.intervals().iter().enumerate() {
            let omega = lifted::build_omega(&plant, table.mode(i), h, &plant.c).unwrap();
            assert!(
                spectral_radius(&omega).unwrap() < 1.0,
                "mode {i} unstable at its own interval"
            );
        }
        // Integrator steps differ across modes (they encode h).
        assert!(table.mode(0).bc[(0, 0)] < table.mode(2).bc[(0, 0)]);
    }

    #[test]
    fn fixed_design_replicates_one_mode() {
        let plant = plants::unstable_second_order();
        let hset = IntervalSet::from_timing(0.010, 0.013, 2).unwrap();
        let table = design_fixed(&plant, &hset, 0.010).unwrap();
        assert_eq!(table.len(), 2);
        assert_eq!(table.mode(0), table.mode(1));
        assert_eq!(table.mode(0).bc[(0, 0)], 0.010);
    }

    #[test]
    fn pi_rejects_mimo_plants() {
        let plant = plants::pmsm();
        assert!(tune_for_interval(&plant, 0.001).is_err());
    }

    #[test]
    fn stable_plant_also_tunable() {
        let plant = plants::dc_motor();
        let (kp, ki) = tune_for_interval(&plant, 0.05).unwrap();
        let mode = mode_for_gains(kp, ki, 0.05).unwrap();
        let omega = lifted::build_omega(&plant, &mode, 0.05, &plant.c).unwrap();
        assert!(spectral_radius(&omega).unwrap() < 1.0);
    }
}
