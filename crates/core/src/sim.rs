//! Closed-loop simulation driven by interval sequences.
//!
//! The simulator implements the paper's computational model exactly:
//! job `k`, released at `a_k`, samples the plant, computes its command with
//! the controller mode selected by the *previous* interval `h_{k−1}`, and
//! the command takes effect at the next release `a_{k+1} = a_k + h_k`.
//!
//! It does so on the lifted state `ξ = [x; z̃; ũ; u]` of [`crate::lifted`]:
//! one accumulating mat-vec `ξ(k+1) = Ω(h_k) ξ(k) + b(h_k)` per job, with
//! the same `Ω(h)` matrices the stability certificate bounds and a
//! constant term `b(h) = [0; Bc·r; Dc·r; 0]` for a step reference `r`.

use overrun_linalg::Matrix;

use crate::{lifted, ContinuousSs, ControllerTable, Error, Result};

/// Initial condition and reference of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimScenario {
    /// Initial plant state `x(0)`.
    pub x0: Matrix,
    /// Constant reference `r` on the controller's measurement
    /// (`e[k] = r − C_m x[k]`). Use zeros for pure regulation.
    pub reference: Matrix,
}

impl SimScenario {
    /// Regulation from a given initial state (`r = 0`).
    pub fn regulation(x0: Matrix, error_dim: usize) -> Self {
        SimScenario {
            x0,
            reference: Matrix::zeros(error_dim, 1),
        }
    }

    /// Step-reference tracking from the origin.
    pub fn step(state_dim: usize, reference: Matrix) -> Self {
        SimScenario {
            x0: Matrix::zeros(state_dim, 1),
            reference,
        }
    }
}

/// One simulated closed-loop trajectory.
#[derive(Debug, Clone)]
pub struct Trajectory {
    /// Error samples `e[k]` (one per job).
    pub errors: Vec<Matrix>,
    /// Plant states `x[k]` at the release instants.
    pub states: Vec<Matrix>,
    /// Applied commands `u[k]`.
    pub commands: Vec<Matrix>,
    /// Interval indices used (`h_k` per job).
    pub mode_sequence: Vec<usize>,
    /// Quadratic error cost `Σ_k ‖e[k]‖²` (the paper's `J` summand).
    pub cost: f64,
    /// Time-weighted quadratic cost `Σ_k ‖e[k]‖² · h_k` — an approximation
    /// of `∫‖e‖² dt` that stays comparable across different sampling
    /// periods (used for the fixed-period baselines of Table II).
    pub cost_integral: f64,
    /// `true` when the state norm exceeded the divergence threshold.
    pub diverged: bool,
}

/// Cost and stability outcome of a trajectory, without the per-job records
/// — the return type of the allocation-free [`ClosedLoopSim::run_cost`]
/// fast path used by Monte Carlo ensembles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostSummary {
    /// Quadratic error cost `Σ_k ‖e[k]‖²` (`∞` on divergence).
    pub cost: f64,
    /// Time-weighted quadratic cost `Σ_k ‖e[k]‖² · h_k` (`∞` on divergence).
    pub cost_integral: f64,
    /// `true` when the state norm exceeded the divergence threshold.
    pub diverged: bool,
}

/// A scenario bound to a simulator's lifted state space: the initial
/// state `ξ(0)` for every choice of initial mode and the affine reference
/// term `b(h)` for every interval. Built once per ensemble by
/// [`ClosedLoopSim::lift`] and shared by every sequence.
#[derive(Debug, Clone)]
pub struct LiftedScenario {
    reference: Vec<f64>,
    /// `b(h_i) = [0; Bc_i·r; Dc_i·r; 0]`, one `dim`-block per interval.
    offsets: Vec<f64>,
    /// `ξ(0) = [x0; Bc_i·e0; Dc_i·e0; 0]`, one `dim`-block per initial
    /// mode `i`.
    initial: Vec<f64>,
}

/// Per-worker scratch of the lifted stepping core: `ξ(k)`, `ξ(k+1)` and
/// the error `e[k]`. Allocate once with [`ClosedLoopSim::buffers`] and
/// reuse across sequences.
#[derive(Debug, Clone)]
pub struct SimBuffers {
    xi: Vec<f64>,
    xi_next: Vec<f64>,
    e: Vec<f64>,
}

/// A reusable closed-loop simulator: plant + controller table with the
/// lifted matrices `Ω(h)` of every `h ∈ H` precomputed.
///
/// The simulator steps the paper's lifted loop
/// `ξ(k+1) = Ω(h_k) ξ(k) + b(h_k)` (Sec. V) with the very matrices
/// [`crate::stability::certify`] bounds, so simulation and certification
/// share one closed-loop model. `b(h)` carries a constant reference and
/// is zero for regulation.
///
/// # Example
///
/// ```
/// use overrun_control::prelude::*;
/// use overrun_control::sim::{ClosedLoopSim, SimScenario};
/// use overrun_linalg::Matrix;
///
/// # fn main() -> Result<(), overrun_control::Error> {
/// let plant = plants::unstable_second_order();
/// let hset = IntervalSet::from_timing(0.010, 0.013, 2)?;
/// let table = pi::design_adaptive(&plant, &hset)?;
/// let sim = ClosedLoopSim::new(&plant, &table)?;
/// let scenario = SimScenario::regulation(Matrix::col_vec(&[1.0, 0.0]), 1);
/// // 50 nominal jobs (mode 0 = no overruns).
/// let traj = sim.run(&scenario, &vec![0; 50])?;
/// assert!(!traj.diverged);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ClosedLoopSim {
    plant: ContinuousSs,
    table: ControllerTable,
    measurement: Matrix,
    omegas: Vec<Matrix>,
    divergence_threshold: f64,
}

impl ClosedLoopSim {
    /// Builds the simulator, precomputing `Ω(h)` for every `h ∈ H` with
    /// [`lifted::build_omega_set`].
    ///
    /// # Errors
    ///
    /// Propagates discretisation and dimension errors.
    pub fn new(plant: &ContinuousSs, table: &ControllerTable) -> Result<Self> {
        let _sp = overrun_trace::span!("sim.build", modes = table.len());
        let measurement = lifted::measurement_matrix(plant, table)?;
        let omegas = lifted::build_omega_set(plant, table, &measurement)?;
        Ok(ClosedLoopSim {
            plant: plant.clone(),
            table: table.clone(),
            measurement,
            omegas,
            divergence_threshold: 1e9,
        })
    }

    /// Overrides the state-norm divergence threshold (default `1e9`).
    #[must_use]
    pub fn with_divergence_threshold(mut self, threshold: f64) -> Self {
        self.divergence_threshold = threshold;
        self
    }

    /// The controller table in use.
    pub fn table(&self) -> &ControllerTable {
        &self.table
    }

    /// The plant under control.
    pub fn plant(&self) -> &ContinuousSs {
        &self.plant
    }

    /// Dimension of the lifted state `ξ = [x; z̃; ũ; u]`.
    fn lifted_dim(&self) -> usize {
        self.plant.state_dim() + self.table.state_dim() + 2 * self.plant.input_dim()
    }

    /// Fresh scratch buffers for [`ClosedLoopSim::run_cost`].
    pub fn buffers(&self) -> SimBuffers {
        let dim = self.lifted_dim();
        SimBuffers {
            xi: vec![0.0; dim],
            xi_next: vec![0.0; dim],
            e: vec![0.0; self.table.error_dim()],
        }
    }

    /// Binds a scenario to the lifted state space: builds `ξ(0)` for every
    /// initial mode and the reference term `b(h)` for every interval.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a scenario with mismatched
    /// dimensions.
    pub fn lift(&self, scenario: &SimScenario) -> Result<LiftedScenario> {
        let n = self.plant.state_dim();
        let p = self.table.error_dim();
        if scenario.x0.shape() != (n, 1) {
            return Err(Error::InvalidConfig(format!(
                "x0 must be {n}x1, got {}x{}",
                scenario.x0.rows(),
                scenario.x0.cols()
            )));
        }
        if scenario.reference.shape() != (p, 1) {
            return Err(Error::InvalidConfig(format!(
                "reference must be {p}x1, got {}x{}",
                scenario.reference.rows(),
                scenario.reference.cols()
            )));
        }
        let s = self.table.state_dim();
        let r = self.plant.input_dim();
        let dim = self.lifted_dim();
        let reference = scenario.reference.as_slice();
        let x0 = scenario.x0.as_slice();
        let mut e0 = vec![0.0; p];
        self.measurement.mul_vec_into(x0, &mut e0)?;
        for (ei, &ri) in e0.iter_mut().zip(reference) {
            *ei = ri - *ei;
        }
        let q = self.table.len();
        let mut offsets = vec![0.0; q * dim];
        let mut initial = vec![0.0; q * dim];
        for (i, (b, xi0)) in offsets
            .chunks_exact_mut(dim)
            .zip(initial.chunks_exact_mut(dim))
            .enumerate()
        {
            let mode = self.table.mode(i);
            // Job 0 computes (z[1], u[1]) from z[0] = 0; u[0] = 0.
            xi0[..n].copy_from_slice(x0);
            mode.bc.mul_vec_into(&e0, &mut xi0[n..n + s])?;
            mode.dc.mul_vec_into(&e0, &mut xi0[n + s..n + s + r])?;
            mode.bc.mul_vec_into(reference, &mut b[n..n + s])?;
            mode.dc.mul_vec_into(reference, &mut b[n + s..n + s + r])?;
        }
        Ok(LiftedScenario {
            reference: reference.to_vec(),
            offsets,
            initial,
        })
    }

    /// Simulates one trajectory along a sequence of interval indices
    /// (`modes[k]` selects `h_k ∈ H`).
    ///
    /// Job `k` computes with the controller mode of `h_{k−1}`; mode 0 — the
    /// nominal period — is assumed for the virtual job before the first
    /// (use [`ClosedLoopSim::run_with_initial_mode`] to override).
    /// Divergence does not abort the run; it is flagged on the returned
    /// [`Trajectory`] and the state is frozen to avoid overflow.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for an out-of-range mode index or a
    /// scenario with mismatched dimensions.
    pub fn run(&self, scenario: &SimScenario, modes: &[usize]) -> Result<Trajectory> {
        self.run_with_initial_mode(scenario, modes, 0)
    }

    /// Like [`ClosedLoopSim::run`], but the virtual interval before the
    /// first job is `H[initial_mode]` instead of the nominal period — the
    /// exact constant-mode loop when `initial_mode == modes[k]` for all `k`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for an out-of-range mode index or a
    /// scenario with mismatched dimensions.
    pub fn run_with_initial_mode(
        &self,
        scenario: &SimScenario,
        modes: &[usize],
        initial_mode: usize,
    ) -> Result<Trajectory> {
        let lifted = self.lift(scenario)?;
        let mut buffers = self.buffers();
        let mut errors = Vec::with_capacity(modes.len());
        let mut states = Vec::with_capacity(modes.len());
        let mut commands = Vec::with_capacity(modes.len());
        let summary = self.run_lifted(&lifted, modes, initial_mode, &mut buffers, |e, x, u| {
            errors.push(Matrix::col_vec(e));
            states.push(Matrix::col_vec(x));
            commands.push(Matrix::col_vec(u));
        })?;
        let recorded = states.len();
        Ok(Trajectory {
            errors,
            states,
            commands,
            mode_sequence: modes[..recorded].to_vec(),
            cost: summary.cost,
            cost_integral: summary.cost_integral,
            diverged: summary.diverged,
        })
    }

    /// Cost-only fast path: the dynamics of [`ClosedLoopSim::run`] (nominal
    /// virtual interval before the first job) without per-job records and
    /// without allocation — the entry point Monte Carlo ensembles use.
    /// Costs are bit-identical to the recording path (both run the same
    /// core).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for an out-of-range mode index, or
    /// when `lifted`/`buffers` were built for a simulator of other
    /// dimensions.
    pub fn run_cost(
        &self,
        lifted: &LiftedScenario,
        modes: &[usize],
        buffers: &mut SimBuffers,
    ) -> Result<CostSummary> {
        self.run_lifted(lifted, modes, 0, buffers, |_, _, _| {})
    }

    /// The one stepping core behind [`ClosedLoopSim::run`] and
    /// [`ClosedLoopSim::run_cost`]: one accumulating mat-vec
    /// `ξ(k+1) = b(h_k) + Ω(h_k) ξ(k)` per job on caller-provided buffers.
    /// `observe(e, x, u_applied)` is called once per simulated job, before
    /// the step. The error `e[k] = r − C_m x[k]` and the divergence test
    /// both read the `x` block of `ξ`.
    fn run_lifted<F: FnMut(&[f64], &[f64], &[f64])>(
        &self,
        lifted: &LiftedScenario,
        modes: &[usize],
        initial_mode: usize,
        buffers: &mut SimBuffers,
        mut observe: F,
    ) -> Result<CostSummary> {
        let n = self.plant.state_dim();
        let dim = self.lifted_dim();
        let q = self.table.len();
        if initial_mode >= q {
            return Err(Error::InvalidConfig(format!(
                "initial mode {initial_mode} out of range (H has {q} entries)"
            )));
        }
        let SimBuffers { xi, xi_next, e } = buffers;
        if lifted.initial.len() != q * dim
            || lifted.offsets.len() != q * dim
            || xi.len() != dim
            || xi_next.len() != dim
            || e.len() != lifted.reference.len()
        {
            return Err(Error::InvalidConfig(
                "lifted scenario or buffers built for another simulator".into(),
            ));
        }
        xi.copy_from_slice(&lifted.initial[initial_mode * dim..(initial_mode + 1) * dim]);
        let applied = dim - self.plant.input_dim();
        let intervals = self.table.hset().intervals();

        let mut cost = 0.0;
        let mut cost_integral = 0.0;
        let mut diverged = false;
        for (k, &mode_idx) in modes.iter().enumerate() {
            if mode_idx >= q {
                return Err(Error::InvalidConfig(format!(
                    "mode index {mode_idx} out of range at job {k} (H has {q} entries)"
                )));
            }
            self.measurement.mul_vec_into(&xi[..n], e)?;
            for (ei, &ri) in e.iter_mut().zip(&lifted.reference) {
                *ei = ri - *ei;
            }
            observe(e, &xi[..n], &xi[applied..]);
            let e_sq = e.iter().map(|v| v * v).sum::<f64>();
            cost += e_sq;
            cost_integral += e_sq * intervals[mode_idx];

            // Ω(h_k) advances the plant over h_k under the command job k−1
            // computed (one interval of input–output delay, paper Sec. III)
            // and runs job k+1's controller, the mode of h_k, on the new
            // sample.
            xi_next.copy_from_slice(&lifted.offsets[mode_idx * dim..(mode_idx + 1) * dim]);
            self.omegas[mode_idx].mul_vec_acc_into(xi, xi_next)?;
            let x_next = &xi_next[..n];
            if !x_next.iter().all(|v| v.is_finite())
                || x_next.iter().fold(0.0_f64, |m, v| m.max(v.abs())) > self.divergence_threshold
            {
                diverged = true;
                // Freeze the state: the trajectory is already classified.
                break;
            }
            std::mem::swap(xi, xi_next);
        }
        if diverged {
            cost = f64::INFINITY;
            cost_integral = f64::INFINITY;
        }
        Ok(CostSummary {
            cost,
            cost_integral,
            diverged,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pi, plants, ControllerMode, ControllerTable, IntervalSet};

    fn setup() -> (ContinuousSs, ControllerTable) {
        let plant = plants::unstable_second_order();
        let hset = IntervalSet::from_timing(0.010, 0.013, 2).unwrap();
        let table = pi::design_adaptive(&plant, &hset).unwrap();
        (plant, table)
    }

    #[test]
    fn nominal_regulation_converges() {
        let (plant, table) = setup();
        let sim = ClosedLoopSim::new(&plant, &table).unwrap();
        let scenario = SimScenario::regulation(Matrix::col_vec(&[1.0, 0.0]), 1);
        let traj = sim.run(&scenario, &vec![0; 600]).unwrap();
        assert!(!traj.diverged);
        assert!(traj.cost.is_finite());
        // The error must shrink substantially from its initial value. The
        // achievable contraction for PI on this unstable plant is ρ ≈ 0.99
        // per job, so full decay needs several hundred jobs.
        let first = traj.errors[0].max_abs();
        let last = traj.errors.last().unwrap().max_abs();
        assert!(last < 0.1 * first, "first {first}, last {last}");
    }

    #[test]
    fn zero_initial_state_stays_at_rest() {
        let (plant, table) = setup();
        let sim = ClosedLoopSim::new(&plant, &table).unwrap();
        let scenario = SimScenario::regulation(Matrix::zeros(2, 1), 1);
        let traj = sim.run(&scenario, &vec![0; 50]).unwrap();
        assert!(traj.cost.abs() < 1e-20);
        assert!(traj.states.iter().all(|x| x.max_abs() < 1e-12));
    }

    #[test]
    fn overruns_degrade_but_do_not_destabilize() {
        let (plant, table) = setup();
        let sim = ClosedLoopSim::new(&plant, &table).unwrap();
        let scenario = SimScenario::regulation(Matrix::col_vec(&[1.0, 0.0]), 1);
        let nominal = sim.run(&scenario, &vec![0; 100]).unwrap();
        // Alternating worst-case overruns.
        let modes: Vec<usize> = (0..100).map(|k| if k % 2 == 0 { 1 } else { 0 }).collect();
        let stressed = sim.run(&scenario, &modes).unwrap();
        assert!(!stressed.diverged);
        assert!(stressed.cost >= nominal.cost * 0.5);
    }

    #[test]
    fn open_loop_unstable_plant_diverges_without_control() {
        let plant = plants::unstable_second_order();
        let hset = IntervalSet::from_timing(0.010, 0.010, 2).unwrap();
        // Zero-gain "controller": u = 0 forever.
        let zero = ControllerMode::static_gain(Matrix::zeros(1, 1)).unwrap();
        let table = ControllerTable::fixed(zero, hset).unwrap();
        let sim = ClosedLoopSim::new(&plant, &table)
            .unwrap()
            .with_divergence_threshold(1e6);
        let scenario = SimScenario::regulation(Matrix::col_vec(&[1.0, 0.0]), 1);
        let traj = sim.run(&scenario, &vec![0; 4000]).unwrap();
        assert!(traj.diverged);
        assert!(traj.cost.is_infinite());
    }

    #[test]
    fn run_cost_matches_run_bitwise() -> Result<()> {
        let (plant, table) = setup();
        let sim = ClosedLoopSim::new(&plant, &table)?;
        let scenario = SimScenario::step(2, Matrix::col_vec(&[1.0]));
        let modes: Vec<usize> = (0..200).map(|k| usize::from(k % 3 == 1)).collect();
        let traj = sim.run(&scenario, &modes)?;
        let lifted = sim.lift(&scenario)?;
        let mut buffers = sim.buffers();
        let fast = sim.run_cost(&lifted, &modes, &mut buffers)?;
        assert_eq!(fast.cost.to_bits(), traj.cost.to_bits());
        assert_eq!(fast.cost_integral.to_bits(), traj.cost_integral.to_bits());
        assert_eq!(fast.diverged, traj.diverged);
        // Reused buffers carry no state from one run to the next.
        let again = sim.run_cost(&lifted, &modes, &mut buffers)?;
        assert_eq!(again, fast);
        Ok(())
    }

    #[test]
    fn foreign_lifted_scenario_rejected() -> Result<()> {
        let (plant, table) = setup();
        let sim = ClosedLoopSim::new(&plant, &table)?;
        let pmsm = plants::pmsm();
        let hset = IntervalSet::from_timing(50e-6, 65e-6, 2)?;
        let weights = crate::scenarios::pmsm_table2_weights();
        let other =
            ClosedLoopSim::new(&pmsm, &crate::lqr::design_adaptive(&pmsm, &hset, &weights)?)?;
        let lifted = other.lift(&SimScenario::regulation(
            Matrix::col_vec(&[1.0, 1.0, 1.0]),
            3,
        ))?;
        assert!(sim.run_cost(&lifted, &[0; 4], &mut sim.buffers()).is_err());
        let own = sim.lift(&SimScenario::step(2, Matrix::col_vec(&[1.0])))?;
        assert!(sim.run_cost(&own, &[0; 4], &mut other.buffers()).is_err());
        Ok(())
    }

    #[test]
    fn mode_index_validation() {
        let (plant, table) = setup();
        let sim = ClosedLoopSim::new(&plant, &table).unwrap();
        let scenario = SimScenario::regulation(Matrix::col_vec(&[1.0, 0.0]), 1);
        assert!(sim.run(&scenario, &[0, 9]).is_err());
    }

    #[test]
    fn scenario_shape_validation() {
        let (plant, table) = setup();
        let sim = ClosedLoopSim::new(&plant, &table).unwrap();
        assert!(sim
            .run(&SimScenario::regulation(Matrix::zeros(3, 1), 1), &[0])
            .is_err());
        let bad_ref = SimScenario {
            x0: Matrix::zeros(2, 1),
            reference: Matrix::zeros(2, 1),
        };
        assert!(sim.run(&bad_ref, &[0]).is_err());
    }

    #[test]
    fn trajectory_records_match_requested_length() {
        let (plant, table) = setup();
        let sim = ClosedLoopSim::new(&plant, &table).unwrap();
        let scenario = SimScenario::regulation(Matrix::col_vec(&[0.1, 0.0]), 1);
        let traj = sim.run(&scenario, &vec![0; 37]).unwrap();
        assert_eq!(traj.errors.len(), 37);
        assert_eq!(traj.states.len(), 37);
        assert_eq!(traj.commands.len(), 37);
        assert_eq!(traj.mode_sequence.len(), 37);
    }

    #[test]
    fn step_tracking_reaches_reference() {
        let (plant, table) = setup();
        let sim = ClosedLoopSim::new(&plant, &table).unwrap();
        let scenario = SimScenario::step(2, Matrix::col_vec(&[1.0]));
        let traj = sim.run(&scenario, &vec![0; 400]).unwrap();
        assert!(!traj.diverged);
        let final_err = traj.errors.last().unwrap().max_abs();
        assert!(final_err < 0.05, "steady-state error {final_err}");
    }
}
