//! The three workloads: their inputs (the set-up), one iteration through
//! the public drivers, and the outputs the check reads.
//!
//! Every iteration runs on one worker thread and calls the same public
//! drivers the paper binaries call, so a driver-level change shows in the
//! timings. Certifications are timed one by one through the drivers'
//! certify hooks (`CertifyFn` for the scenario drivers, `CertifyRunner`
//! for the sweep engine).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use overrun_control::lqr::{self, LqrWeights};
use overrun_control::scenarios::{self, pmsm_table2_weights, CertifyFn, ExperimentConfig};
use overrun_control::sim::{ClosedLoopSim, SimScenario};
use overrun_control::stability::{self, CertifyOptions, StabilityReport};
use overrun_control::{pi, plants, ContinuousSs, ControllerTable, IntervalSet};
use overrun_jsr::{JsrBounds, StabilityVerdict};
use overrun_linalg::Matrix;
use overrun_sweep::{
    run_sweep_with, CertifyRunner, DesignPolicy, GainSchedule, GridSpec, PreparedScenario,
    SweepOptions,
};

use crate::check::{Item, Reference, Value};

/// The seed of the stored reference `J_w` values (the paper binaries'
/// default seed).
pub const REFERENCE_SEED: u64 = 2021;

/// Jobs per simulated sequence (the paper's 50).
const JOBS: usize = 50;
/// Control period of the PI experiments (Table I).
const T_PI: f64 = 0.010;
/// Control period of the PMSM experiments (Table II).
const T_PMSM: f64 = 50e-6;
/// Initial state of the Table II regulation scenario.
const PMSM_X0: [f64; 3] = [1.0, 1.0, 1.0];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table I: PI on the unstable plant, Monte Carlo only.
    Table1PiMc,
    /// Table II: LQR on the PMSM, certification and Monte Carlo.
    Table2Lqr,
    /// A certification-only grid through the sweep engine, cold then warm.
    CertifyGrid,
}

/// Problem size: the benchmark's, or a small one for the benchmark's own
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark size.
    Bench,
    /// A few cells and a few hundred sequences.
    Smoke,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Table1PiMc,
        Workload::Table2Lqr,
        Workload::CertifyGrid,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1PiMc => "table1_pi_mc",
            Workload::Table2Lqr => "table2_lqr",
            Workload::CertifyGrid => "certify_grid",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Monte Carlo sequences per worst-case evaluation (0: no Monte Carlo).
    pub fn sequences(self, scale: Scale) -> usize {
        match (self, scale) {
            (Workload::CertifyGrid, _) => 0,
            (_, Scale::Smoke) => 200,
            (Workload::Table1PiMc, Scale::Bench) => 20_000,
            (_, Scale::Bench) => 10_000,
        }
    }
}

/// What the first driver call needs: the set-up that `setup_s` times.
#[derive(Debug, Clone)]
pub struct DriverInputs {
    /// The plant of every cell.
    pub plant: ContinuousSs,
    /// Grid and Monte Carlo size of the scenario drivers.
    pub cfg: ExperimentConfig,
    /// The certification grid, prepared.
    pub scenarios: Vec<PreparedScenario>,
    /// The check id of each scenario.
    pub scenario_ids: Vec<String>,
}

/// Everything a run builds before its first driver call, and the
/// reference its outputs are checked against.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// The problem size.
    pub scale: Scale,
    /// The run's seed (becomes `ExperimentConfig::seed`).
    pub seed: u64,
    /// The plant of every cell.
    pub plant: ContinuousSs,
    /// Grid and Monte Carlo size of the scenario drivers.
    pub cfg: ExperimentConfig,
    /// The certification grid, prepared.
    pub scenarios: Vec<PreparedScenario>,
    /// The check id of each scenario.
    pub scenario_ids: Vec<String>,
    /// The stored reference outputs.
    pub reference: Reference,
    /// Scratch directory for the sweep caches.
    pub work_dir: PathBuf,
}

/// The stored reference of a workload: `reference/<workload>.txt` in the
/// benchmark's directory.
pub fn reference_path(workload: Workload) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("reference")
        .join(format!("{}.txt", workload.name()))
}

fn cell_id(factor: f64, ns: u32, what: &str) -> String {
    format!("r{factor}_ns{ns}_{what}")
}

impl DriverInputs {
    /// Builds the driver inputs: the plant and the configuration, and on
    /// `certify_grid` designs and keys every scenario.
    ///
    /// # Errors
    ///
    /// Reports a failed design.
    pub fn build(workload: Workload, scale: Scale, seed: u64) -> Result<DriverInputs, String> {
        let smoke = scale == Scale::Smoke;
        let (rmax_factors, ns_values) = match (workload, smoke) {
            (Workload::Table1PiMc, true) => (vec![1.3], vec![2]),
            (Workload::Table2Lqr, true) => (vec![1.6], vec![2]),
            (Workload::CertifyGrid, true) => (vec![1.1, 1.6], vec![2]),
            // Ns = 3 is left out: 50 µs is not divisible by 3.
            (Workload::CertifyGrid, false) => (vec![1.1, 1.2, 1.3, 1.4, 1.5, 1.6], vec![2, 4, 5]),
            (_, false) => (vec![1.1, 1.3, 1.6], vec![2, 5]),
        };
        let cfg = ExperimentConfig {
            rmax_factors,
            ns_values,
            num_sequences: workload.sequences(scale).max(1),
            jobs_per_sequence: JOBS,
            seed,
        };
        let plant = match workload {
            Workload::Table1PiMc => plants::unstable_second_order(),
            Workload::Table2Lqr | Workload::CertifyGrid => plants::pmsm(),
        };
        let mut scenarios = Vec::new();
        let mut scenario_ids = Vec::new();
        if workload == Workload::CertifyGrid {
            let w = pmsm_table2_weights();
            let grid = GridSpec {
                plants: vec![("pmsm".into(), plant.clone())],
                periods: vec![T_PMSM],
                rmax_factors: cfg.rmax_factors.clone(),
                ns_values: cfg.ns_values.clone(),
                policies: vec![
                    (
                        "lqr-adaptive".into(),
                        DesignPolicy::LqrAdaptive { weights: w.clone() },
                    ),
                    (
                        "lqr-fixed-t".into(),
                        DesignPolicy::LqrFixed {
                            weights: w.clone(),
                            schedule: GainSchedule::Nominal,
                        },
                    ),
                    (
                        "lqr-fixed-rmax".into(),
                        DesignPolicy::LqrFixed {
                            weights: w,
                            schedule: GainSchedule::Rmax,
                        },
                    ),
                ],
                opts: CertifyOptions::default(),
            };
            for s in grid.expand() {
                let id = cell_id(s.rmax_factor, s.ns, s.policy.tag());
                let prepared = s
                    .prepare()
                    .map_err(|e| format!("{id}: design failed: {e}"))?;
                scenarios.push(prepared);
                scenario_ids.push(id);
            }
        }
        Ok(DriverInputs {
            plant,
            cfg,
            scenarios,
            scenario_ids,
        })
    }
}

impl Inputs {
    /// Reads the reference, makes the work directory and builds the
    /// driver inputs.
    ///
    /// # Errors
    ///
    /// Reports an unreadable reference, a failed design or an unusable
    /// work directory.
    pub fn setup(
        workload: Workload,
        scale: Scale,
        seed: u64,
        work_dir: &Path,
    ) -> Result<Inputs, String> {
        let ref_path = reference_path(workload);
        let text = std::fs::read_to_string(&ref_path)
            .map_err(|e| format!("cannot read {}: {e}", ref_path.display()))?;
        let reference = Reference::parse(&text)?;
        std::fs::create_dir_all(work_dir)
            .map_err(|e| format!("cannot create {}: {e}", work_dir.display()))?;
        let DriverInputs {
            plant,
            cfg,
            scenarios,
            scenario_ids,
        } = DriverInputs::build(workload, scale, seed)?;
        Ok(Inputs {
            workload,
            scale,
            seed,
            plant,
            cfg,
            scenarios,
            scenario_ids,
            reference,
            work_dir: work_dir.to_path_buf(),
        })
    }

    /// `(Rmax / T, Ns)` cells, in driver order.
    pub fn cells(&self) -> Vec<(f64, u32)> {
        let ns_values = &self.cfg.ns_values;
        self.cfg
            .rmax_factors
            .iter()
            .flat_map(|&f| ns_values.iter().map(move |&ns| (f, ns)))
            .collect()
    }

    /// The control period of the workload's cells.
    pub fn period(&self) -> f64 {
        match self.workload {
            Workload::Table1PiMc => T_PI,
            Workload::Table2Lqr | Workload::CertifyGrid => T_PMSM,
        }
    }
}

/// One certification seen by a certify hook.
#[derive(Debug, Clone)]
pub struct CertifyCall {
    /// Wall seconds of the call.
    pub secs: f64,
    /// Whether it returned a decided verdict (not `Err`, not `Unknown`).
    pub decided: bool,
    /// The certified inputs and bounds, kept only when recording.
    pub recorded: Option<(ContinuousSs, ControllerTable, CertifyOptions, JsrBounds)>,
}

/// Times every `stability::certify` call a driver makes.
struct Hook {
    record: bool,
    calls: Mutex<Vec<CertifyCall>>,
}

impl Hook {
    fn new(record: bool) -> Hook {
        Hook {
            record,
            calls: Mutex::new(Vec::new()),
        }
    }

    fn certify(
        &self,
        plant: &ContinuousSs,
        table: &ControllerTable,
        opts: &CertifyOptions,
    ) -> overrun_control::Result<StabilityReport> {
        let _sp = overrun_trace::span!("bench.certify", modes = table.len());
        let started = Instant::now();
        let report = stability::certify(plant, table, opts);
        let secs = started.elapsed().as_secs_f64();
        let decided = matches!(&report, Ok(r) if r.verdict != StabilityVerdict::Unknown);
        let recorded = match (&report, self.record) {
            (Ok(r), true) => Some((plant.clone(), table.clone(), opts.clone(), r.bounds)),
            _ => None,
        };
        self.calls
            .lock()
            .expect("certify hook lock poisoned by a panicking driver")
            .push(CertifyCall {
                secs,
                decided,
                recorded,
            });
        report
    }

    fn into_calls(self) -> Vec<CertifyCall> {
        self.calls
            .into_inner()
            .expect("certify hook lock poisoned by a panicking driver")
    }
}

/// The sweep-engine side of a `certify_grid` iteration.
#[derive(Debug, Clone, Default)]
pub struct SweepSide {
    /// Bytes of the cache records the cold pass wrote.
    pub record_bytes: u64,
    /// Scenarios the warm replay answered.
    pub replays: usize,
}

/// What one iteration produced.
#[derive(Debug, Clone)]
pub struct Iteration {
    /// Wall seconds to regenerate the workload's artefact: one driver
    /// call on the whole grid (`certify_grid`: the cold pass and the warm
    /// replay).
    pub wall_s: f64,
    /// Seconds per verdict: one per certification, or on `table1_pi_mc`,
    /// whose driver certifies nothing, the iteration's time per Table I
    /// row.
    pub verdict_s: Vec<f64>,
    /// The checked outputs; `Err` when a driver call failed.
    pub items: Result<Vec<Item>, String>,
    /// Every certification the drivers asked for.
    pub certify: Vec<CertifyCall>,
    /// Failures found while running (warm replay differing from cold).
    pub failures: Vec<String>,
    /// Sweep-engine measurements (`certify_grid` only).
    pub sweep: Option<SweepSide>,
}

impl Iteration {
    /// Driver operations: certifications, warm replays and worst-case
    /// evaluations (`reference_costs` stands in for the evaluations of a
    /// driver call that failed).
    pub fn operations(&self, reference_costs: usize) -> usize {
        let costs = match &self.items {
            Ok(items) => items
                .iter()
                .filter(|i| matches!(i.value, Value::Cost(_)))
                .count(),
            Err(_) => reference_costs,
        };
        let replays = self.sweep.as_ref().map_or(0, |s| s.replays);
        self.certify.len() + replays + costs
    }
}

fn verdict_of(b: &JsrBounds) -> StabilityVerdict {
    if b.certifies_stable() {
        StabilityVerdict::Stable
    } else if b.certifies_unstable() {
        StabilityVerdict::Unstable
    } else {
        StabilityVerdict::Unknown
    }
}

/// A driver's `J_w`, with divergence (`∞`) as "unstable".
fn finite(jw: f64) -> Option<f64> {
    jw.is_finite().then_some(jw)
}

/// Runs one iteration: one driver call on the whole grid, as the paper
/// binaries make it. `record` keeps every certified table for the traced
/// per-layer pass.
pub fn run_iteration(inputs: &Inputs, record: bool) -> Iteration {
    let hook = Hook::new(record);
    let certify = |p: &ContinuousSs, t: &ControllerTable, o: &CertifyOptions| hook.certify(p, t, o);
    let mut failures = Vec::new();
    let mut sweep = None;
    let started = Instant::now();
    let items = if inputs.workload == Workload::CertifyGrid {
        let (items, side) = certify_grid(inputs, &certify, &mut failures);
        sweep = Some(side);
        items
    } else {
        let _sp = overrun_trace::span!("bench.driver", cells = inputs.cells().len());
        driver(inputs, &certify).map_err(|e| format!("{}: {e}", inputs.workload.name()))
    };
    let wall_s = started.elapsed().as_secs_f64();
    let calls = hook.into_calls();
    // Table I's driver certifies nothing: its verdict is a row's J_w.
    let verdict_s = match inputs.workload {
        Workload::Table1PiMc => vec![wall_s / inputs.cells().len() as f64],
        _ => calls.iter().map(|c| c.secs).collect(),
    };
    Iteration {
        wall_s,
        verdict_s,
        items,
        certify: calls,
        failures,
        sweep,
    }
}

/// One scenario-driver call on the whole grid; returns the checked
/// outputs of every row.
fn driver(inputs: &Inputs, certify: CertifyFn<'_>) -> overrun_control::Result<Vec<Item>> {
    let plant = &inputs.plant;
    let cfg = &inputs.cfg;
    let mut items = Vec::new();
    match inputs.workload {
        Workload::Table1PiMc => {
            for r in scenarios::table1(plant, T_PI, cfg)? {
                let id = |what| cell_id(r.rmax_factor, r.ns, what);
                items.push(Item::cost(id("jw-adaptive"), finite(r.jw_adaptive)));
                items.push(Item::cost(id("jw-fixed-t"), finite(r.jw_fixed_t)));
                items.push(Item::cost(id("jw-fixed-rmax"), finite(r.jw_fixed_rmax)));
            }
        }
        Workload::Table2Lqr => {
            let weights = pmsm_table2_weights();
            let x0 = Matrix::col_vec(&PMSM_X0);
            for r in scenarios::table2_with(plant, T_PMSM, &weights, &x0, cfg, certify)? {
                let id = |what| cell_id(r.rmax_factor, r.ns, what);
                let b = r.jsr_adaptive;
                items.push(Item::verdict(
                    id("lqr-adaptive"),
                    verdict_of(&b),
                    b.lower,
                    b.upper,
                ));
                items.push(Item::exact(id("nominal"), r.cost_no_overruns));
                items.push(Item::exact(
                    id("fixed-period-rmax"),
                    r.cost_fixed_period_rmax,
                ));
                items.push(Item::cost(id("jw-adaptive"), finite(r.cost_adaptive)));
                items.push(Item::cost(id("jw-fixed-t"), r.cost_fixed_t));
                items.push(Item::cost(id("jw-fixed-rmax"), r.cost_fixed_rmax));
            }
        }
        Workload::CertifyGrid => {}
    }
    Ok(items)
}

/// A cold pass into a fresh cache directory, then a warm replay of the
/// same grid; the replay must answer every scenario from the cache with
/// the cold pass's exact bounds.
fn certify_grid(
    inputs: &Inputs,
    certify: CertifyRunner<'_>,
    failures: &mut Vec<String>,
) -> (Result<Vec<Item>, String>, SweepSide) {
    let mut side = SweepSide::default();
    let dir = inputs
        .work_dir
        .join(format!("sweep-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let prepared = &inputs.scenarios;
    let opts = SweepOptions {
        cache_dir: Some(dir.clone()),
        ..SweepOptions::default()
    };
    let result = (|| {
        let cold = {
            let _sp = overrun_trace::span!("bench.sweep_cold", scenarios = prepared.len());
            run_sweep_with(prepared, &opts, certify).map_err(|e| format!("cold sweep: {e}"))?
        };
        side.record_bytes = record_bytes(&dir);
        let warm = {
            let _sp = overrun_trace::span!("bench.sweep_warm", scenarios = prepared.len());
            run_sweep_with(prepared, &opts, certify).map_err(|e| format!("warm sweep: {e}"))?
        };
        side.replays = warm.outcomes.len();
        let mut items = Vec::new();
        for (id, (c, w)) in inputs
            .scenario_ids
            .iter()
            .zip(cold.outcomes.iter().zip(&warm.outcomes))
        {
            match (&c.result, &w.result) {
                (Ok(c_rec), Ok(w_rec)) => {
                    let same = w.from_cache
                        && c_rec.verdict == w_rec.verdict
                        && c_rec.bounds.lower.to_bits() == w_rec.bounds.lower.to_bits()
                        && c_rec.bounds.upper.to_bits() == w_rec.bounds.upper.to_bits();
                    if !same {
                        failures.push(format!("{id}: warm replay differs from the cold pass"));
                    }
                    let b = c_rec.bounds;
                    items.push(Item::verdict(id.clone(), c_rec.verdict, b.lower, b.upper));
                }
                (Err(e), _) | (_, Err(e)) => failures.push(format!("{id}: {e:?}")),
            }
        }
        Ok(items)
    })();
    let _ = std::fs::remove_dir_all(&dir);
    (result, side)
}

fn record_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter(|e| e.path().extension().is_some_and(|x| x == "record"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn nominal(sim: &ClosedLoopSim, scenario: &SimScenario) -> Result<(f64, f64), String> {
    let traj = sim.run(scenario, &[0; JOBS]).map_err(|e| e.to_string())?;
    Ok((traj.cost, traj.cost_integral))
}

/// The nominal (no-overrun) cost of every design whose `J_w` a workload
/// reports, by cost id: an independent lower bound on each `J_w`, built
/// with the public designers and the closed-loop simulator. It does not
/// depend on the seed, so a run computes it once, outside the timed
/// set-up.
///
/// # Errors
///
/// Reports a failed design or simulation.
pub fn nominal_floors(inputs: &Inputs) -> Result<BTreeMap<String, f64>, String> {
    let plant = &inputs.plant;
    let t = inputs.period();
    let mut floors = BTreeMap::new();
    let err = |e: overrun_control::Error| e.to_string();
    for (factor, ns) in inputs.cells() {
        let rmax = factor * t;
        let hset = IntervalSet::from_timing(t, rmax, ns).map_err(err)?;
        let designs: Vec<(&str, ControllerTable)> = match inputs.workload {
            Workload::Table1PiMc => vec![
                (
                    "jw-adaptive",
                    pi::design_adaptive(plant, &hset).map_err(err)?,
                ),
                (
                    "jw-fixed-t",
                    pi::design_fixed(plant, &hset, t).map_err(err)?,
                ),
                (
                    "jw-fixed-rmax",
                    pi::design_fixed(plant, &hset, rmax).map_err(err)?,
                ),
            ],
            Workload::Table2Lqr => {
                let w: LqrWeights = pmsm_table2_weights();
                vec![
                    (
                        "jw-adaptive",
                        lqr::design_adaptive(plant, &hset, &w).map_err(err)?,
                    ),
                    (
                        "jw-fixed-t",
                        lqr::design_fixed(plant, &hset, &w, t).map_err(err)?,
                    ),
                    (
                        "jw-fixed-rmax",
                        lqr::design_fixed(plant, &hset, &w, rmax).map_err(err)?,
                    ),
                ]
            }
            Workload::CertifyGrid => Vec::new(),
        };
        for (what, table) in designs {
            let sim = ClosedLoopSim::new(plant, &table).map_err(err)?;
            let floor = if inputs.workload == Workload::Table2Lqr {
                nominal(
                    &sim,
                    &SimScenario::regulation(Matrix::col_vec(&PMSM_X0), plant.state_dim()),
                )?
                .1
            } else {
                nominal(
                    &sim,
                    &SimScenario::step(plant.state_dim(), Matrix::col_vec(&[1.0])),
                )?
                .0
            };
            floors.insert(cell_id(factor, ns, what), floor);
        }
    }
    Ok(floors)
}
