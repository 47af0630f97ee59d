//! Differential test of the closed-loop simulator: the lifted stepping
//! core `ξ(k+1) = Ω(h_k) ξ(k) + b(h_k)` of `ClosedLoopSim` against an
//! independent structured oracle — plant, controller and one-interval
//! actuation delay stepped separately with the allocating
//! `DiscreteSs::step` / `ControllerMode::step`, exactly the paper's
//! computational model (Sec. III).
//!
//! The two paths round differently (the lifted one sums `Φx + Γu` inside
//! one row of `Ω`, and folds `Bc·Cm·Φ` into a precomputed block), so the
//! costs agree to a relative `1e-12`, not bit for bit. Divergence flags and
//! recorded lengths must be identical. On Table II the oracle reproduces
//! the costs the structured simulator pinned bit for bit, which ties every
//! change in `tests/table2.csv` to that rounding.

use overrun_control::lqg::NoiseModel;
use overrun_control::lqr::LqrWeights;
use overrun_control::prelude::*;
use overrun_control::scenarios::pmsm_table2_weights;
use overrun_control::sim::{ClosedLoopSim, SimScenario};
use overrun_linalg::Matrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const REL_TOL: f64 = 1e-12;
const THRESHOLD: f64 = 1e6;

/// Outcome of one oracle run: `(cost, cost_integral, diverged, recorded)`.
type Outcome = (f64, f64, bool, usize);

/// The structured recursion: job `k` measures `e[k] = r − C_m x[k]`, runs
/// the controller mode of the previous interval, and the plant evolves
/// over `h_k` under the command computed one job earlier. A state norm
/// above `threshold` ends the run as diverged.
fn structured(
    plant: &ContinuousSs,
    table: &ControllerTable,
    scenario: &SimScenario,
    modes: &[usize],
    initial_mode: usize,
    threshold: f64,
) -> Outcome {
    let meas = lifted::measurement_matrix(plant, table).unwrap();
    let intervals = table.hset().intervals();
    let plants: Vec<DiscreteSs> = intervals
        .iter()
        .map(|&h| plant.discretize(h).unwrap())
        .collect();
    let mut x = scenario.x0.clone();
    let mut z = Matrix::zeros(table.state_dim(), 1);
    let mut u_applied = Matrix::zeros(plant.input_dim(), 1);
    let mut prev = initial_mode;
    let (mut cost, mut cost_integral, mut recorded) = (0.0, 0.0, 0);
    for &m in modes {
        let e = scenario
            .reference
            .sub_mat(&meas.matmul(&x).unwrap())
            .unwrap();
        let (z_next, u_next) = table.mode(prev).step(&z, &e).unwrap();
        z = z_next;
        recorded += 1;
        let e_sq: f64 = e.as_slice().iter().map(|v| v * v).sum();
        cost += e_sq;
        cost_integral += e_sq * intervals[m];
        let x_next = plants[m].step(&x, &u_applied).unwrap();
        u_applied = u_next;
        prev = m;
        if !x_next.is_finite() || x_next.max_abs() > threshold {
            return (f64::INFINITY, f64::INFINITY, true, recorded);
        }
        x = x_next;
    }
    (cost, cost_integral, false, recorded)
}

fn rel_err(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (a - b).abs() / a.abs().max(b.abs())
    }
}

/// Runs both paths on one sequence and asserts they agree; returns whether
/// the trajectory diverged.
fn check(
    what: &str,
    plant: &ContinuousSs,
    table: &ControllerTable,
    scenario: &SimScenario,
    modes: &[usize],
    initial_mode: usize,
) -> bool {
    let sim = ClosedLoopSim::new(plant, table)
        .unwrap()
        .with_divergence_threshold(THRESHOLD);
    let traj = sim
        .run_with_initial_mode(scenario, modes, initial_mode)
        .unwrap();
    let (cost, cost_integral, diverged, recorded) =
        structured(plant, table, scenario, modes, initial_mode, THRESHOLD);
    assert_eq!(traj.diverged, diverged, "{what}: divergence flag");
    assert_eq!(traj.states.len(), recorded, "{what}: recorded length");
    assert_eq!(traj.mode_sequence.len(), recorded, "{what}: recorded modes");
    let (ec, ei) = (
        rel_err(traj.cost, cost),
        rel_err(traj.cost_integral, cost_integral),
    );
    assert!(
        ec <= REL_TOL && ei <= REL_TOL,
        "{what}: lifted ({}, {}) vs structured ({cost}, {cost_integral}): rel {ec:e}, {ei:e}",
        traj.cost,
        traj.cost_integral
    );
    if initial_mode == 0 {
        // The Monte Carlo fast path runs the same core.
        let lifted = sim.lift(scenario).unwrap();
        let fast = sim.run_cost(&lifted, modes, &mut sim.buffers()).unwrap();
        assert_eq!(fast.cost.to_bits(), traj.cost.to_bits(), "{what}: run_cost");
        assert_eq!(fast.diverged, traj.diverged, "{what}: run_cost flag");
    }
    traj.diverged
}

fn random_modes(rng: &mut SmallRng, q: usize, len: usize) -> Vec<usize> {
    (0..len).map(|_| rng.gen_range(0..q)).collect()
}

/// Random sequences plus the constant and alternating patterns that
/// drive a switched loop hardest; every table sees several initial modes.
fn sweep(
    what: &str,
    plant: &ContinuousSs,
    table: &ControllerTable,
    scenarios: &[SimScenario],
    rng: &mut SmallRng,
) -> usize {
    let q = table.len();
    let mut diverged = 0;
    for (si, scenario) in scenarios.iter().enumerate() {
        let mut sequences = vec![vec![q - 1; 200], (0..200).map(|k| k % q).collect()];
        for _ in 0..4 {
            let len = rng.gen_range(1..120);
            sequences.push(random_modes(rng, q, len));
        }
        for (qi, modes) in sequences.iter().enumerate() {
            let initial = if qi == 0 { 0 } else { rng.gen_range(0..q) };
            let label = format!("{what} scenario {si} sequence {qi} initial {initial}");
            diverged += usize::from(check(&label, plant, table, scenario, modes, initial));
        }
    }
    diverged
}

#[test]
fn lifted_matches_structured_on_random_pi_tables() {
    let plant = plants::unstable_second_order();
    let mut rng = SmallRng::seed_from_u64(11);
    for trial in 0..6 {
        let ns = [1, 2, 5][rng.gen_range(0..3)];
        let factor = rng.gen_range(1.1..1.7);
        let hset = IntervalSet::from_timing(0.010, factor * 0.010, ns).unwrap();
        // Perturbed copies of a stabilising gain pair, one per interval.
        let modes = hset
            .intervals()
            .iter()
            .map(|&h| {
                let kp = 95.0 * rng.gen_range(0.8..1.2);
                let ki = 160.0 * rng.gen_range(0.5..1.5);
                pi::mode_for_gains(kp, ki, h).unwrap()
            })
            .collect();
        let table = ControllerTable::new(modes, hset).unwrap();
        let scenarios = [
            SimScenario::step(2, Matrix::col_vec(&[rng.gen_range(-2.0..2.0)])),
            SimScenario::regulation(
                Matrix::col_vec(&[rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)]),
                1,
            ),
        ];
        sweep(
            &format!("pi trial {trial}"),
            &plant,
            &table,
            &scenarios,
            &mut rng,
        );
    }
}

#[test]
fn lifted_matches_structured_on_random_lqr_tables() {
    let plant = plants::pmsm();
    let t = 50e-6;
    let mut rng = SmallRng::seed_from_u64(12);
    for trial in 0..4 {
        let ns = [1, 2, 5][rng.gen_range(0..3)];
        let factor = rng.gen_range(1.1..1.6);
        let hset = IntervalSet::from_timing(t, factor * t, ns).unwrap();
        let weights = LqrWeights::identity(3, 2, 10f64.powf(rng.gen_range(-3.0..0.0)));
        let table = if trial % 2 == 0 {
            lqr::design_adaptive(&plant, &hset, &weights).unwrap()
        } else {
            lqr::design_fixed(&plant, &hset, &weights, t).unwrap()
        };
        let x0 = Matrix::col_vec(&[
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
        ]);
        let reference = Matrix::col_vec(&[rng.gen_range(-1.0..1.0), 0.0, rng.gen_range(-1.0..1.0)]);
        let scenarios = [
            SimScenario::regulation(x0.clone(), 3),
            SimScenario { x0, reference },
        ];
        sweep(
            &format!("lqr trial {trial}"),
            &plant,
            &table,
            &scenarios,
            &mut rng,
        );
    }
}

#[test]
fn lifted_matches_structured_on_random_lqg_tables() {
    let mut rng = SmallRng::seed_from_u64(13);
    // The PMSM loop lifts to dimension 12 (generic mat-vec); the unstable
    // plant's to 7 (const-generic kernel).
    for (name, plant, t) in [
        ("pmsm", plants::pmsm(), 50e-6),
        ("unstable", plants::unstable_second_order(), 0.010),
    ] {
        let (n, r, q) = (plant.state_dim(), plant.input_dim(), plant.output_dim());
        for trial in 0..2 {
            let ns = [1, 2, 5][rng.gen_range(0..3)];
            let hset = IntervalSet::from_timing(t, rng.gen_range(1.1..1.5) * t, ns).unwrap();
            let weights = LqrWeights::identity(n, r, 10f64.powf(rng.gen_range(-2.0..0.0)));
            let noise = NoiseModel::isotropic(n, q, 1e-3, 10f64.powf(rng.gen_range(-3.0..-1.0)));
            let table = lqg::design_adaptive(&plant, &hset, &weights, &noise).unwrap();
            let x0 = Matrix::from_fn(n, 1, |_, _| rng.gen_range(-1.0..1.0));
            let reference = Matrix::from_fn(q, 1, |_, _| rng.gen_range(-1.0..1.0));
            let scenarios = [
                SimScenario::regulation(x0.clone(), q),
                SimScenario { x0, reference },
            ];
            sweep(
                &format!("lqg {name} trial {trial}"),
                &plant,
                &table,
                &scenarios,
                &mut rng,
            );
        }
    }
}

/// A zero-gain controller leaves the unstable plant open loop: every
/// trajectory diverges, at the same job on both paths.
#[test]
fn diverging_zero_gain_table_agrees() {
    let plant = plants::unstable_second_order();
    let hset = IntervalSet::from_timing(0.010, 0.016, 2).unwrap();
    let zero = ControllerMode::static_gain(Matrix::zeros(1, 1)).unwrap();
    let table = ControllerTable::fixed(zero, hset).unwrap();
    let scenario = SimScenario::regulation(Matrix::col_vec(&[1.0, 0.0]), 1);
    let mut rng = SmallRng::seed_from_u64(14);
    for trial in 0..8 {
        let modes = random_modes(&mut rng, table.len(), 3000);
        let initial = rng.gen_range(0..table.len());
        assert!(check(
            &format!("zero gain {trial}"),
            &plant,
            &table,
            &scenario,
            &modes,
            initial
        ));
    }
}

/// The PMSM fixed-`T` design at `Rmax = 1.6 T`, `Ns = 2` has JSR lower
/// bound ≈ 1.03: the worst switching patterns diverge, and both paths
/// must flag them at the same job.
#[test]
fn diverging_pmsm_fixed_t_table_agrees() {
    let plant = plants::pmsm();
    let t = 50e-6;
    let hset = IntervalSet::from_timing(t, 1.6 * t, 2).unwrap();
    let table = lqr::design_fixed(&plant, &hset, &pmsm_table2_weights(), t).unwrap();
    let scenario = SimScenario::regulation(Matrix::col_vec(&[1.0, 1.0, 1.0]), 3);
    let q = table.len();
    let mut rng = SmallRng::seed_from_u64(15);
    let mut diverged = 0;
    // Every periodic pattern of period ≤ 3, repeated to 3000 jobs.
    for period in 1..=3usize {
        for code in 0..q.pow(period as u32) {
            let word: Vec<usize> = (0..period).map(|i| (code / q.pow(i as u32)) % q).collect();
            let modes: Vec<usize> = (0..3000).map(|k| word[k % period]).collect();
            let label = format!("pmsm fixed-T word {word:?}");
            diverged += usize::from(check(
                &label,
                &plant,
                &table,
                &scenario,
                &modes,
                word[period - 1],
            ));
        }
    }
    diverged += sweep("pmsm fixed-T", &plant, &table, &[scenario], &mut rng);
    assert!(diverged > 0, "no diverging sequence exercised");
}

/// The cost columns of `tests/table2.csv` as the structured simulator
/// wrote them (`table2 --quick`: 500 sequences × 50 jobs, seed 2021),
/// before Monte Carlo moved to the lifted core. Columns: `rmax_factor`,
/// `ns`, `cost_no_overruns`, `cost_adaptive`, `cost_fixed_t`,
/// `cost_fixed_rmax`, `cost_fixed_period_rmax`; `unstable` cells are
/// decided by the JSR certificate, not by simulation.
const STRUCTURED_TABLE2: &str = "\
1.1,2,0.0007305720897659874,0.0010260936023825864,0.0009555597016041474,0.0009456538308874487,0.0007817595866562263
1.1,5,0.0007305720897659874,0.0008235852855102444,0.0008030454636858673,0.0008210790875994403,0.0007817595866562263
1.3,2,0.0007305720897659874,0.0010522709684370492,0.0010845959719806065,0.0010023924003088036,0.0008885866911072948
1.3,5,0.0007305720897659874,0.000949358185673277,0.0009257396202170235,0.0009484300117875723,0.0008885866911072948
1.6,2,0.0007305720897659874,0.0018595487607636402,unstable,0.0013413304997498554,0.0010595553472392447
1.6,5,0.0007305720897659874,0.0011374669190975758,0.0011697157800022583,0.0011599759475622265,0.0010595553472392447
";

/// Table II's costs through both paths: the structured oracle must
/// reproduce the pre-lifting golden values bit for bit — so every change
/// in `tests/table2.csv` comes from the stepping core's rounding alone —
/// and the lifted simulator must stay within `1e-14` of them.
#[test]
fn structured_oracle_reproduces_pre_lifting_table2_costs() {
    use overrun_control::metrics::{evaluate_worst_case, random_modes_into};
    use overrun_control::scenarios::ExperimentConfig;
    use overrun_par::derive_seed;

    let plant = plants::pmsm();
    let t = 50e-6;
    let weights = pmsm_table2_weights();
    let scenario = SimScenario::regulation(Matrix::col_vec(&[1.0, 1.0, 1.0]), 3);
    let cfg = ExperimentConfig {
        num_sequences: 500,
        jobs_per_sequence: 50,
        seed: 2021,
        ..ExperimentConfig::default()
    };
    let opts = cfg.worst_case_options();
    let jobs = cfg.jobs_per_sequence;
    let nominal = vec![0; jobs];
    // The Monte Carlo ensemble of `evaluate_worst_case`, on the oracle:
    // the same per-sequence seeds and draws, the worst `cost_integral`.
    let oracle_worst = |table: &ControllerTable| {
        let mut modes = vec![0; jobs];
        let mut worst = 0.0_f64;
        for i in 0..cfg.num_sequences {
            let mut rng = SmallRng::seed_from_u64(derive_seed(cfg.seed, i as u64));
            random_modes_into(table.hset(), &mut rng, opts.rmin_fraction, &mut modes).unwrap();
            let (_, cost_integral, diverged, _) =
                structured(&plant, table, &scenario, &modes, 0, 1e9);
            assert!(!diverged);
            worst = worst.max(cost_integral);
        }
        worst
    };
    let lifted_worst = |table: &ControllerTable| {
        let sim = ClosedLoopSim::new(&plant, table).unwrap();
        evaluate_worst_case(&sim, &scenario, &opts)
            .unwrap()
            .worst_integral_cost
    };
    let lifted_nominal = |table: &ControllerTable| {
        let sim = ClosedLoopSim::new(&plant, table).unwrap();
        sim.run(&scenario, &nominal).unwrap().cost_integral
    };

    let mut checked = 0;
    for line in STRUCTURED_TABLE2.lines() {
        let cells: Vec<&str> = line.split(',').collect();
        let factor: f64 = cells[0].parse().unwrap();
        let ns: u32 = cells[1].parse().unwrap();
        let rmax = factor * t;
        let hset = IntervalSet::from_timing(t, rmax, ns).unwrap();
        let adaptive = lqr::design_adaptive(&plant, &hset, &weights).unwrap();
        let fixed_t = lqr::design_fixed(&plant, &hset, &weights, t).unwrap();
        let fixed_rmax = lqr::design_fixed(&plant, &hset, &weights, rmax).unwrap();
        let hset_rmax = IntervalSet::from_timing(rmax, rmax, ns).unwrap();
        let period_rmax = lqr::design_adaptive(&plant, &hset_rmax, &weights).unwrap();
        let nominal_cost =
            |table: &ControllerTable| structured(&plant, table, &scenario, &nominal, 0, 1e9).1;
        // (column, simulated as a Monte Carlo ensemble?, table)
        let columns = [
            ("cost_no_overruns", false, &adaptive),
            ("cost_adaptive", true, &adaptive),
            ("cost_fixed_t", true, &fixed_t),
            ("cost_fixed_rmax", true, &fixed_rmax),
            ("cost_fixed_period_rmax", false, &period_rmax),
        ];
        for (col, &(name, ensemble, table)) in columns.iter().enumerate() {
            let want = cells[col + 2];
            if want == "unstable" {
                continue;
            }
            let want: f64 = want.parse().unwrap();
            let (oracle, lifted) = if ensemble {
                (oracle_worst(table), lifted_worst(table))
            } else {
                (nominal_cost(table), lifted_nominal(table))
            };
            assert_eq!(
                oracle.to_bits(),
                want.to_bits(),
                "{name} at ({factor}T, Ns {ns}): oracle {oracle} vs pre-lifting {want}"
            );
            let rel = rel_err(lifted, want);
            assert!(
                rel <= 1e-14,
                "{name} at ({factor}T, Ns {ns}): lifted {lifted} vs {want}, rel {rel:e}"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 29, "every simulated Table II cost checked");
}
