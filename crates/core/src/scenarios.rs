//! End-to-end experiment drivers reproducing the paper's evaluation
//! (Sec. VI, Tables I and II).
//!
//! These functions are used both by the `overrun-bench` binaries (full
//! paper-scale runs) and by the integration tests (reduced ensembles).

use overrun_jsr::{JsrBounds, ScreenStats};
use overrun_linalg::Matrix;

use crate::lqr::LqrWeights;
use crate::metrics::{evaluate_worst_case, WorstCaseOptions};
use crate::sim::{ClosedLoopSim, SimScenario};
use crate::stability::{certify, CertifyOptions, StabilityReport};
use crate::{pi, ContinuousSs, ControllerTable, IntervalSet, Result};

/// The certification hook of the `*_with` experiment drivers: same
/// signature as [`crate::stability::certify`]. The bench binaries inject a
/// cache-backed lookup here (`overrun-sweep`); the plain drivers pass the
/// real certifier. Implementations must be *observationally identical* to
/// `certify` for the tables the driver requests — the CSV outputs are
/// pinned byte-identical across both paths.
pub type CertifyFn<'a> =
    &'a dyn Fn(&ContinuousSs, &ControllerTable, &CertifyOptions) -> Result<StabilityReport>;

/// Shared experiment grid: `(Rmax factor, Ns)` combinations and ensemble
/// sizes. Matches the paper with
/// `rmax_factors = [1.1, 1.3, 1.6]`, `ns_values = [2, 5]`,
/// `num_sequences = 50_000`, `jobs_per_sequence = 50`.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// `Rmax = factor · T` values to sweep.
    pub rmax_factors: Vec<f64>,
    /// Oversampling factors `Ns` (`Ts = T / Ns`).
    pub ns_values: Vec<u32>,
    /// Random sequences per configuration.
    pub num_sequences: usize,
    /// Jobs per sequence.
    pub jobs_per_sequence: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            rmax_factors: vec![1.1, 1.3, 1.6],
            ns_values: vec![2, 5],
            num_sequences: 50_000,
            jobs_per_sequence: 50,
            seed: 2021,
        }
    }
}

impl ExperimentConfig {
    /// A small configuration for tests and smoke runs.
    pub fn smoke() -> Self {
        ExperimentConfig {
            num_sequences: 200,
            ..ExperimentConfig::default()
        }
    }

    /// The worst-case evaluation options every experiment cell uses.
    pub fn worst_case_options(&self) -> WorstCaseOptions {
        WorstCaseOptions {
            num_sequences: self.num_sequences,
            jobs_per_sequence: self.jobs_per_sequence,
            seed: self.seed,
            rmin_fraction: 0.05,
        }
    }
}

/// The canonical LQR weights of the Table II experiment on the
/// [`crate::plants::pmsm`] plant: `Q = I`, `R = 3·10⁻³·I`. Aggressive
/// enough that the fixed-`T` design loses stability at
/// `Rmax = 1.6 T, Ts = T/2` while the adaptive design stays certified —
/// the paper's headline contrast.
pub fn pmsm_table2_weights() -> LqrWeights {
    LqrWeights::identity(3, 2, 3e-3)
}

/// One row of Table I: worst-case PI cost under adaptive periods for the
/// three control strategies.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// `Rmax / T`.
    pub rmax_factor: f64,
    /// Oversampling factor (`Ts = T / ns`).
    pub ns: u32,
    /// `J_w` of the adaptive control (per-interval gains).
    pub jw_adaptive: f64,
    /// `J_w` of the fixed controller tuned for `T`.
    pub jw_fixed_t: f64,
    /// `J_w` of the fixed controller tuned for `Rmax`.
    pub jw_fixed_rmax: f64,
}

/// Runs the Table I experiment: a PI-controlled unstable system with
/// `T = 10 ms`, sweeping `Rmax ∈ factors·T` and `Ts ∈ {T/Ns}`; for each
/// cell the worst-case cost `J_w = max_σ Σ e[k]²` over random sequences
/// (paper: 50 000 sequences of 50 jobs).
///
/// # Errors
///
/// Propagates design and simulation failures.
pub fn table1(plant: &ContinuousSs, t: f64, cfg: &ExperimentConfig) -> Result<Vec<Table1Row>> {
    let mut rows = Vec::new();
    for &factor in &cfg.rmax_factors {
        for &ns in &cfg.ns_values {
            let rmax = factor * t;
            let hset = IntervalSet::from_timing(t, rmax, ns)?;
            let adaptive = pi::design_adaptive(plant, &hset)?;
            let fixed_t = pi::design_fixed(plant, &hset, t)?;
            let fixed_rmax = pi::design_fixed(plant, &hset, rmax)?;

            let scenario = SimScenario::step(plant.state_dim(), Matrix::col_vec(&[1.0]));
            let opts = cfg.worst_case_options();
            let jw = |table: &ControllerTable| -> Result<f64> {
                let sim = ClosedLoopSim::new(plant, table)?;
                Ok(evaluate_worst_case(&sim, &scenario, &opts)?.worst_cost)
            };
            rows.push(Table1Row {
                rmax_factor: factor,
                ns,
                jw_adaptive: jw(&adaptive)?,
                jw_fixed_t: jw(&fixed_t)?,
                jw_fixed_rmax: jw(&fixed_rmax)?,
            });
        }
    }
    Ok(rows)
}

/// One row of Table II: LQR on the PMSM under adaptive periods.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// `Rmax / T`.
    pub rmax_factor: f64,
    /// Oversampling factor.
    pub ns: u32,
    /// Certified JSR bounds of the adaptive design.
    pub jsr_adaptive: JsrBounds,
    /// Cost with no overruns (every job nominal).
    pub cost_no_overruns: f64,
    /// Worst-case cost, adaptive period + adaptive control.
    pub cost_adaptive: f64,
    /// Worst-case cost, adaptive period + fixed control designed for `T`
    /// (`None` when the closed loop is unstable — the paper's "unstable"
    /// cell).
    pub cost_fixed_t: Option<f64>,
    /// Worst-case cost, adaptive period + fixed control designed for `Rmax`.
    pub cost_fixed_rmax: Option<f64>,
    /// Cost of the ideal fixed-period baseline: designed **and executed**
    /// at period `Rmax` (no overruns by construction).
    pub cost_fixed_period_rmax: f64,
    /// Norm-screening statistics of the adaptive design's certification.
    pub screen_adaptive: ScreenStats,
}

/// Runs the Table II experiment: an LQR-controlled plant (the PMSM in the
/// paper) with period `t`, comparing the adaptive design against fixed-gain
/// and fixed-period baselines, and certifying the adaptive design's JSR.
///
/// Costs are the time-integrated `Σ‖e‖²·h_k` so that runs with different
/// sampling periods are comparable. Note that a fixed job count means
/// overrun-laden runs integrate over a somewhat longer physical horizon;
/// this is negligible here because the regulation error has decayed to
/// ~zero well within the 50-job window (see `EXPERIMENTS.md`, notes).
///
/// # Errors
///
/// Propagates design, certification and simulation failures.
pub fn table2(
    plant: &ContinuousSs,
    t: f64,
    weights: &LqrWeights,
    x0: &Matrix,
    cfg: &ExperimentConfig,
) -> Result<Vec<Table2Row>> {
    table2_with(plant, t, weights, x0, cfg, &|p, tb, o| certify(p, tb, o))
}

/// The three adaptively-executed controller tables of one Table II cell:
/// `(adaptive, fixed_t, fixed_rmax)`. Shared between [`table2_with`] and
/// [`table2_certifications`] so the declarative scenario list can never
/// drift from what the driver actually certifies.
fn table2_cell_tables(
    plant: &ContinuousSs,
    t: f64,
    weights: &LqrWeights,
    factor: f64,
    ns: u32,
) -> Result<(ControllerTable, ControllerTable, ControllerTable)> {
    let rmax = factor * t;
    let hset = IntervalSet::from_timing(t, rmax, ns)?;
    let adaptive = crate::lqr::design_adaptive(plant, &hset, weights)?;
    let fixed_t = crate::lqr::design_fixed(plant, &hset, weights, t)?;
    let fixed_rmax = crate::lqr::design_fixed(plant, &hset, weights, rmax)?;
    Ok((adaptive, fixed_t, fixed_rmax))
}

/// Enumerates every distinct certification [`table2_with`] will request
/// (three tables per `(Rmax, Ns)` cell, all at the default budget), with
/// human labels — the input of the `overrun-sweep` batch engine.
///
/// # Errors
///
/// Propagates design failures.
pub fn table2_certifications(
    plant: &ContinuousSs,
    t: f64,
    weights: &LqrWeights,
    cfg: &ExperimentConfig,
) -> Result<Vec<(String, ControllerTable)>> {
    let mut out = Vec::new();
    for &factor in &cfg.rmax_factors {
        for &ns in &cfg.ns_values {
            let (adaptive, fixed_t, fixed_rmax) =
                table2_cell_tables(plant, t, weights, factor, ns)?;
            out.push((format!("table2 r{factor} ns{ns} lqr-adaptive"), adaptive));
            out.push((format!("table2 r{factor} ns{ns} lqr-fixed-t"), fixed_t));
            out.push((format!("table2 r{factor} ns{ns} lqr-fixed-rmax"), fixed_rmax));
        }
    }
    Ok(out)
}

/// [`table2`] with an injected certifier (see [`CertifyFn`]).
///
/// # Errors
///
/// Propagates design, certification and simulation failures.
pub fn table2_with(
    plant: &ContinuousSs,
    t: f64,
    weights: &LqrWeights,
    x0: &Matrix,
    cfg: &ExperimentConfig,
    certify_fn: CertifyFn<'_>,
) -> Result<Vec<Table2Row>> {
    let mut rows = Vec::new();
    let n = plant.state_dim();
    let scenario = SimScenario::regulation(x0.clone(), n);
    for &factor in &cfg.rmax_factors {
        for &ns in &cfg.ns_values {
            let rmax = factor * t;
            let (adaptive, fixed_t, fixed_rmax) =
                table2_cell_tables(plant, t, weights, factor, ns)?;

            let report = certify_fn(plant, &adaptive, &CertifyOptions::default())?;

            let opts = cfg.worst_case_options();
            // A strategy's cell reads "unstable" when the JSR analysis
            // certifies instability (paper methodology) or any simulated
            // sequence diverges. Each table is certified exactly once: the
            // adaptive column reuses `report`.
            let worst = |table: &ControllerTable, cert: &StabilityReport| -> Result<Option<f64>> {
                if cert.bounds.certifies_unstable() {
                    return Ok(None);
                }
                let sim = ClosedLoopSim::new(plant, table)?;
                let rep = evaluate_worst_case(&sim, &scenario, &opts)?;
                Ok(if rep.all_stable() {
                    Some(rep.worst_integral_cost)
                } else {
                    None
                })
            };
            let certified = |table: &ControllerTable| -> Result<Option<f64>> {
                worst(
                    table,
                    &certify_fn(plant, table, &CertifyOptions::default())?,
                )
            };

            // Cost with no overruns: the adaptive design running nominally.
            let nominal_sim = ClosedLoopSim::new(plant, &adaptive)?;
            let nominal = nominal_sim
                .run(&scenario, &vec![0; cfg.jobs_per_sequence])?
                .cost_integral;

            // Ideal baseline: period Rmax, gain for Rmax, no overruns.
            let hset_rmax = IntervalSet::from_timing(rmax, rmax, ns)?;
            let table_rmax =
                crate::lqr::design_adaptive(plant, &hset_rmax, weights)?;
            let base_sim = ClosedLoopSim::new(plant, &table_rmax)?;
            let fixed_period_cost = base_sim
                .run(&scenario, &vec![0; cfg.jobs_per_sequence])?
                .cost_integral;

            rows.push(Table2Row {
                rmax_factor: factor,
                ns,
                jsr_adaptive: report.bounds,
                cost_no_overruns: nominal,
                cost_adaptive: worst(&adaptive, &report)?.unwrap_or(f64::INFINITY),
                cost_fixed_t: certified(&fixed_t)?,
                cost_fixed_rmax: certified(&fixed_rmax)?,
                cost_fixed_period_rmax: fixed_period_cost,
                screen_adaptive: report.screen,
            });
        }
    }
    Ok(rows)
}

/// One row of the sensor-granularity trade-off sweep (paper Sec. V-B: the
/// choice of `Ts` balances analysis complexity, resource efficiency and
/// stability margin).
#[derive(Debug, Clone)]
pub struct GranularityRow {
    /// Oversampling factor `Ns`.
    pub ns: u32,
    /// Cardinality of the interval set `#H`.
    pub h_count: usize,
    /// Certified JSR bounds of the adaptive design.
    pub jsr: JsrBounds,
    /// Worst-case cost of the adaptive design under adaptive periods.
    pub jw_adaptive: f64,
    /// Idle slack wasted per overrun in the worst case, in seconds:
    /// `Δmax − (Rmax − T)` (coarser grids park the processor longer).
    pub worst_idle_slack: f64,
}

/// Sweeps the sensor oversampling factor `Ns` at fixed `Rmax`, measuring
/// the three quantities the paper's Sec. V-B trades off: analysis size
/// (`#H`), stability margin (JSR upper bound) and performance (`J_w`),
/// plus the resource-efficiency proxy `Δmax − (Rmax − T)`.
///
/// # Errors
///
/// Propagates design, certification and simulation failures.
pub fn granularity_sweep(
    plant: &ContinuousSs,
    t: f64,
    rmax_factor: f64,
    ns_values: &[u32],
    cfg: &ExperimentConfig,
) -> Result<Vec<GranularityRow>> {
    granularity_sweep_with(plant, t, rmax_factor, ns_values, cfg, &|p, tb, o| {
        certify(p, tb, o)
    })
}

/// Enumerates every certification [`granularity_sweep_with`] will request
/// (one adaptive PI table per `Ns`, default budget), with human labels.
///
/// # Errors
///
/// Propagates design failures.
pub fn granularity_certifications(
    plant: &ContinuousSs,
    t: f64,
    rmax_factor: f64,
    ns_values: &[u32],
) -> Result<Vec<(String, ControllerTable)>> {
    let rmax = rmax_factor * t;
    let mut out = Vec::with_capacity(ns_values.len());
    for &ns in ns_values {
        let hset = IntervalSet::from_timing(t, rmax, ns)?;
        let table = pi::design_adaptive(plant, &hset)?;
        out.push((format!("granularity r{rmax_factor} ns{ns} pi-adaptive"), table));
    }
    Ok(out)
}

/// [`granularity_sweep`] with an injected certifier (see [`CertifyFn`]).
///
/// # Errors
///
/// Propagates design, certification and simulation failures.
pub fn granularity_sweep_with(
    plant: &ContinuousSs,
    t: f64,
    rmax_factor: f64,
    ns_values: &[u32],
    cfg: &ExperimentConfig,
    certify_fn: CertifyFn<'_>,
) -> Result<Vec<GranularityRow>> {
    let mut rows = Vec::with_capacity(ns_values.len());
    let rmax = rmax_factor * t;
    for &ns in ns_values {
        let hset = IntervalSet::from_timing(t, rmax, ns)?;
        let table = pi::design_adaptive(plant, &hset)?;
        let report = certify_fn(plant, &table, &CertifyOptions::default())?;
        let sim = ClosedLoopSim::new(plant, &table)?;
        let scenario = SimScenario::step(plant.state_dim(), Matrix::col_vec(&[1.0]));
        let jw = evaluate_worst_case(&sim, &scenario, &cfg.worst_case_options())?.worst_cost;
        rows.push(GranularityRow {
            ns,
            h_count: hset.len(),
            jsr: report.bounds,
            jw_adaptive: jw,
            worst_idle_slack: (hset.max_interval() - rmax).max(0.0),
        });
    }
    Ok(rows)
}

/// Formats granularity-sweep rows as an aligned text table.
pub fn format_granularity(rows: &[GranularityRow]) -> String {
    let mut s = String::new();
    s.push_str("Ns    #H   JSR [LB, UB]           Jw(adaptive)   idle slack
");
    for r in rows {
        s.push_str(&format!(
            "{:<4} {:>3}   [{:.6}, {:.6}]   {:>10.4}   {:>8.2e} s
",
            r.ns, r.h_count, r.jsr.lower, r.jsr.upper, r.jw_adaptive, r.worst_idle_slack
        ));
    }
    s
}

/// Formats Table 1 rows as an aligned text table (the bench binary's
/// output).
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut s = String::new();
    s.push_str("Rmax     Ts     Adaptive     Fixed(T)     Fixed(Rmax)\n");
    for r in rows {
        s.push_str(&format!(
            "{:.1}*T   T/{}   {:>10.4}   {:>10.4}   {:>11.4}\n",
            r.rmax_factor, r.ns, r.jw_adaptive, r.jw_fixed_t, r.jw_fixed_rmax
        ));
    }
    s
}

/// Formats Table 2 rows as an aligned text table.
pub fn format_table2(rows: &[Table2Row]) -> String {
    let fmt_opt = |v: &Option<f64>| match v {
        Some(c) => format!("{c:>10.4}"),
        None => format!("{:>10}", "unstable"),
    };
    let mut s = String::new();
    s.push_str(
        "Rmax     Ts     JSR [LB, UB]             NoOvr      AdaptCtl   FixedCtl(T)  FixedCtl(Rmax)  FixedPeriod(Rmax)\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:.1}*T   T/{}   [{:.6}, {:.6}]   {:>8.4}   {:>8.4}   {}   {}   {:>10.4}\n",
            r.rmax_factor,
            r.ns,
            r.jsr_adaptive.lower,
            r.jsr_adaptive.upper,
            r.cost_no_overruns,
            r.cost_adaptive,
            fmt_opt(&r.cost_fixed_t),
            fmt_opt(&r.cost_fixed_rmax),
            r.cost_fixed_period_rmax
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plants;

    #[test]
    fn table1_smoke_has_expected_shape() {
        let plant = plants::unstable_second_order();
        let cfg = ExperimentConfig {
            rmax_factors: vec![1.3],
            ns_values: vec![2],
            num_sequences: 50,
            jobs_per_sequence: 50,
            seed: 1,
        };
        let rows = table1(&plant, 0.010, &cfg).unwrap();
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.jw_adaptive.is_finite());
        // The paper's headline: adaptive beats both fixed variants.
        assert!(r.jw_adaptive <= r.jw_fixed_t + 1e-9, "{r:?}");
        assert!(r.jw_adaptive <= r.jw_fixed_rmax + 1e-9, "{r:?}");
        let formatted = format_table1(&rows);
        assert!(formatted.contains("Adaptive"));
    }

    #[test]
    fn table2_smoke_has_expected_shape() {
        let plant = plants::pmsm();
        let weights = LqrWeights::identity(3, 2, 0.1);
        let x0 = Matrix::col_vec(&[1.0, 1.0, 1.0]);
        let cfg = ExperimentConfig {
            rmax_factors: vec![1.3],
            ns_values: vec![5],
            num_sequences: 50,
            jobs_per_sequence: 50,
            seed: 1,
        };
        let rows = table2(&plant, 50e-6, &weights, &x0, &cfg).unwrap();
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        // The adaptive design must be certified stable.
        assert!(r.jsr_adaptive.certifies_stable(), "{:?}", r.jsr_adaptive);
        // Cost ordering: no-overrun ≤ adaptive worst case.
        assert!(r.cost_no_overruns <= r.cost_adaptive + 1e-12);
        assert!(r.cost_adaptive.is_finite());
        let formatted = format_table2(&rows);
        assert!(formatted.contains("JSR"));
    }
}
