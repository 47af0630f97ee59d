//! Performance metrics: the paper's worst-case cost
//! `J_w = max_σ Σ_k ‖e[k]‖²` over ensembles of random job sequences
//! (Sec. VI), plus exhaustive small-horizon search.

use overrun_par::{derive_seed, try_parallel_map};
use overrun_rtsim::{ResponseTimeModel, SequenceGenerator, Span};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::sim::{ClosedLoopSim, SimScenario};
use crate::{Error, IntervalSet, Result};

/// Options for [`evaluate_worst_case`].
#[derive(Debug, Clone)]
pub struct WorstCaseOptions {
    /// Number of random sequences (the paper uses 50 000).
    pub num_sequences: usize,
    /// Jobs per sequence (the paper uses 50).
    pub jobs_per_sequence: usize,
    /// RNG seed for reproducibility.
    pub seed: u64,
    /// Smallest response time drawn, as a fraction of `Rmax`. Default 0.05.
    pub rmin_fraction: f64,
}

impl Default for WorstCaseOptions {
    fn default() -> Self {
        WorstCaseOptions {
            num_sequences: 1000,
            jobs_per_sequence: 50,
            seed: 0,
            rmin_fraction: 0.05,
        }
    }
}

/// Result of a worst-case evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorstCaseReport {
    /// The paper's `J_w`: the largest cost over all sequences
    /// (`∞` when any sequence diverged).
    pub worst_cost: f64,
    /// Largest time-weighted cost `Σ‖e‖²·h` over all sequences — comparable
    /// across sampling periods.
    pub worst_integral_cost: f64,
    /// Mean cost over all non-diverged sequences (`NaN` if all diverged).
    pub mean_cost: f64,
    /// Number of sequences whose trajectory diverged.
    pub diverged: usize,
    /// Number of sequences evaluated.
    pub sequences: usize,
}

impl WorstCaseReport {
    /// `true` when every evaluated sequence stayed bounded.
    pub fn all_stable(&self) -> bool {
        self.diverged == 0
    }
}

/// Fills `out` with a random response-time sequence (uniform in
/// `[rmin_fraction·Rmax, Rmax]`, the paper's methodology) mapped to
/// interval indices via the release rule — one draw per slot, in order.
///
/// # Errors
///
/// Propagates [`IntervalSet::mode_for_response`] failures.
pub fn random_modes_into(
    hset: &IntervalSet,
    rng: &mut SmallRng,
    rmin_fraction: f64,
    out: &mut [usize],
) -> Result<()> {
    let rmax = hset.rmax();
    let rmin = (rmin_fraction * rmax).max(rmax * 1e-6);
    for slot in out {
        let r = rng.gen_range(rmin..=rmax);
        *slot = hset.mode_for_response(r)?;
    }
    Ok(())
}

/// Evaluates the worst-case cost `J_w = max_σ Σ‖e[k]‖²` over an ensemble of
/// random sequences, mirroring the paper's 50 000 × 50-job experiment.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for zero-sized ensembles and propagates
/// simulation failures.
///
/// # Example
///
/// ```
/// use overrun_control::prelude::*;
/// use overrun_control::metrics::{evaluate_worst_case, WorstCaseOptions};
/// use overrun_control::sim::{ClosedLoopSim, SimScenario};
/// use overrun_linalg::Matrix;
///
/// # fn main() -> Result<(), overrun_control::Error> {
/// let plant = plants::unstable_second_order();
/// let hset = IntervalSet::from_timing(0.010, 0.013, 2)?;
/// let table = pi::design_adaptive(&plant, &hset)?;
/// let sim = ClosedLoopSim::new(&plant, &table)?;
/// let scenario = SimScenario::step(2, Matrix::col_vec(&[1.0]));
/// let report = evaluate_worst_case(&sim, &scenario, &WorstCaseOptions {
///     num_sequences: 50, ..Default::default()
/// })?;
/// assert!(report.all_stable());
/// # Ok(())
/// # }
/// ```
pub fn evaluate_worst_case(
    sim: &ClosedLoopSim,
    scenario: &SimScenario,
    opts: &WorstCaseOptions,
) -> Result<WorstCaseReport> {
    if !(0.0..=1.0).contains(&opts.rmin_fraction) {
        return Err(Error::InvalidConfig(format!(
            "rmin_fraction {} outside [0, 1]",
            opts.rmin_fraction
        )));
    }
    let hset = sim.table().hset();
    // Each sequence draws from its own generator, seeded from the master
    // seed and the sequence index — streams are independent of how the
    // ensemble is scheduled across threads.
    run_ensemble(sim, scenario, opts, |i, modes| {
        let mut rng = SmallRng::seed_from_u64(derive_seed(opts.seed, i as u64));
        random_modes_into(hset, &mut rng, opts.rmin_fraction, modes)
    })
}

/// Sequences folded per chunk before chunks are combined in order — the
/// boundaries (and therefore every f64 operation order) depend only on
/// this constant, never on the thread count.
const ENSEMBLE_CHUNK: usize = 64;

/// Running accumulator of one ensemble chunk.
#[derive(Clone, Copy)]
struct EnsembleAcc {
    worst: f64,
    worst_integral: f64,
    sum: f64,
    diverged: usize,
}

/// Shared ensemble loop behind both worst-case evaluators: `fill_modes(i,
/// buf)` writes sequence `i`'s modes into a buffer reused across the
/// chunk, which is simulated on the cost-only fast path and accumulated
/// into the report. The scenario is lifted once per ensemble. Chunks of
/// [`ENSEMBLE_CHUNK`] sequences are evaluated in parallel and combined in
/// chunk order, so the report is bit-identical for any thread count.
fn run_ensemble<F>(
    sim: &ClosedLoopSim,
    scenario: &SimScenario,
    opts: &WorstCaseOptions,
    fill_modes: F,
) -> Result<WorstCaseReport>
where
    F: Fn(usize, &mut [usize]) -> Result<()> + Sync,
{
    if opts.num_sequences == 0 || opts.jobs_per_sequence == 0 {
        return Err(Error::InvalidConfig(
            "worst-case evaluation needs at least one sequence and one job".into(),
        ));
    }
    let n_chunks = opts.num_sequences.div_ceil(ENSEMBLE_CHUNK);
    let _sp = overrun_trace::span!(
        "mc.ensemble",
        sequences = opts.num_sequences,
        jobs = opts.jobs_per_sequence,
        chunks = n_chunks
    );
    let lifted = sim.lift(scenario)?;
    let chunks: Vec<usize> = (0..n_chunks).collect();
    let partials: Vec<EnsembleAcc> = try_parallel_map(&chunks, |_, &c| {
        let lo = c * ENSEMBLE_CHUNK;
        let hi = (lo + ENSEMBLE_CHUNK).min(opts.num_sequences);
        let mut acc = EnsembleAcc {
            worst: 0.0,
            worst_integral: 0.0,
            sum: 0.0,
            diverged: 0,
        };
        let mut modes = vec![0; opts.jobs_per_sequence];
        let mut buffers = sim.buffers();
        for i in lo..hi {
            fill_modes(i, &mut modes)?;
            let summary = sim.run_cost(&lifted, &modes, &mut buffers)?;
            if summary.diverged {
                acc.diverged += 1;
                acc.worst = f64::INFINITY;
                acc.worst_integral = f64::INFINITY;
            } else {
                acc.worst = acc.worst.max(summary.cost);
                acc.worst_integral = acc.worst_integral.max(summary.cost_integral);
                acc.sum += summary.cost;
            }
        }
        // Instrumentation batches at chunk granularity: one counter event
        // per chunk, never per sequence or per simulation step.
        overrun_trace::counter!("mc.sequences", (hi - lo) as u64);
        overrun_trace::counter!("mc.jobs", ((hi - lo) * opts.jobs_per_sequence) as u64);
        overrun_trace::counter!("mc.divergence_exits", acc.diverged as u64);
        overrun_trace::histogram!("mc.chunk_worst", acc.worst);
        Ok::<_, Error>(acc)
    })?;

    // Serial fold in chunk order — the only place partials meet.
    let mut worst = 0.0_f64;
    let mut worst_integral = 0.0_f64;
    let mut sum = 0.0_f64;
    let mut diverged = 0usize;
    for acc in partials {
        worst = worst.max(acc.worst);
        worst_integral = worst_integral.max(acc.worst_integral);
        sum += acc.sum;
        diverged += acc.diverged;
    }
    let completed = opts.num_sequences - diverged;
    Ok(WorstCaseReport {
        worst_cost: worst,
        worst_integral_cost: worst_integral,
        mean_cost: if completed > 0 {
            sum / completed as f64
        } else {
            f64::NAN
        },
        diverged,
        sequences: opts.num_sequences,
    })
}

/// Evaluates the worst-case cost over sequences drawn from an explicit
/// [`ResponseTimeModel`] (e.g. the bursty Markov model) instead of the
/// default uniform law — overruns may then cluster, which is the regime
/// where delay compensation matters most.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for zero-sized ensembles or a model
/// whose `Rmax` exceeds the design `Rmax` of the simulator's interval set,
/// and propagates simulation failures.
///
/// # Example
///
/// ```
/// use overrun_control::prelude::*;
/// use overrun_control::metrics::{evaluate_worst_case_with_model, WorstCaseOptions};
/// use overrun_control::sim::{ClosedLoopSim, SimScenario};
/// use overrun_linalg::Matrix;
/// use overrun_rtsim::{ResponseTimeModel, Span};
///
/// # fn main() -> Result<(), overrun_control::Error> {
/// let plant = plants::unstable_second_order();
/// let hset = IntervalSet::from_timing(0.010, 0.013, 2)?;
/// let table = pi::design_adaptive(&plant, &hset)?;
/// let sim = ClosedLoopSim::new(&plant, &table)?;
/// let scenario = SimScenario::step(2, Matrix::col_vec(&[1.0]));
/// let bursty = ResponseTimeModel::Markov {
///     min: Span::from_millis(1),
///     period: Span::from_millis(10),
///     max: Span::from_millis(13),
///     enter_prob: 0.05,
///     leave_prob: 0.4,
/// };
/// let report = evaluate_worst_case_with_model(&sim, &scenario, &bursty,
///     &WorstCaseOptions { num_sequences: 50, ..Default::default() })?;
/// assert!(report.all_stable());
/// # Ok(())
/// # }
/// ```
pub fn evaluate_worst_case_with_model(
    sim: &ClosedLoopSim,
    scenario: &SimScenario,
    model: &ResponseTimeModel,
    opts: &WorstCaseOptions,
) -> Result<WorstCaseReport> {
    let hset = sim.table().hset();
    if model.rmax() > Span::from_secs_f64(hset.rmax()) + Span::from_nanos(1) {
        return Err(Error::InvalidConfig(format!(
            "workload Rmax {} exceeds the design Rmax {:.6} s",
            model.rmax(),
            hset.rmax()
        )));
    }
    run_ensemble(sim, scenario, opts, |i, modes| {
        // Independent sequences: one generator per sequence, seeded
        // deterministically.
        let mut gen = SequenceGenerator::new(model.clone(), opts.seed.wrapping_add(i as u64))?;
        for slot in modes {
            let r = gen.next_response();
            *slot = hset.mode_for_response(r.as_secs_f64().min(hset.rmax()))?;
        }
        Ok(())
    })
}

/// Exhaustively evaluates **all** `#H^m` mode sequences of length `m` and
/// returns the worst cost — the true adversarial `J_w` for short horizons
/// (use for validation; exponential in `m`).
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] when the enumeration would exceed
/// `max_sequences`, and propagates simulation failures.
pub fn exhaustive_worst_case(
    sim: &ClosedLoopSim,
    scenario: &SimScenario,
    m: usize,
    max_sequences: usize,
) -> Result<f64> {
    let q = sim.table().len();
    let total = q.checked_pow(m as u32).unwrap_or(usize::MAX);
    if total > max_sequences {
        return Err(Error::InvalidConfig(format!(
            "{q}^{m} = {total} sequences exceed the cap {max_sequences}"
        )));
    }
    let _sp = overrun_trace::span!("mc.exhaustive", horizon = m, total = total);
    let lifted = sim.lift(scenario)?;
    let mut buffers = sim.buffers();
    let mut worst = 0.0_f64;
    let mut modes = vec![0usize; m];
    for index in 0..total {
        let mut x = index;
        for slot in modes.iter_mut() {
            *slot = x % q;
            x /= q;
        }
        let summary = sim.run_cost(&lifted, &modes, &mut buffers)?;
        if summary.diverged {
            return Ok(f64::INFINITY);
        }
        worst = worst.max(summary.cost);
    }
    Ok(worst)
}

#[cfg(test)]
mod test_fixtures {
    use super::*;
    use crate::{pi, plants};
    use overrun_linalg::Matrix;

    pub(super) fn sim() -> ClosedLoopSim {
        let plant = plants::unstable_second_order();
        let hset = IntervalSet::from_timing(0.010, 0.013, 2).unwrap();
        let table = pi::design_adaptive(&plant, &hset).unwrap();
        ClosedLoopSim::new(&plant, &table).unwrap()
    }

    pub(super) fn scenario() -> SimScenario {
        SimScenario::step(2, Matrix::col_vec(&[1.0]))
    }
}

#[cfg(test)]
mod tests {
    use super::test_fixtures::{scenario, sim};
    use super::*;

    #[test]
    fn random_sequences_are_valid_modes() {
        let hset = IntervalSet::from_timing(0.010, 0.016, 5).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut modes = vec![usize::MAX; 500];
        random_modes_into(&hset, &mut rng, 0.05, &mut modes).unwrap();
        assert!(modes.iter().all(|&m| m < hset.len()));
        // With Rmax = 1.6T and uniform R, a healthy share must be overruns.
        let overruns = modes.iter().filter(|&&m| m > 0).count();
        assert!(overruns > 100, "only {overruns} overruns in 500 draws");
    }

    #[test]
    fn worst_case_exceeds_mean() {
        let report = evaluate_worst_case(
            &sim(),
            &scenario(),
            &WorstCaseOptions {
                num_sequences: 100,
                jobs_per_sequence: 50,
                seed: 7,
                rmin_fraction: 0.05,
            },
        )
        .unwrap();
        assert!(report.all_stable());
        assert!(report.worst_cost >= report.mean_cost);
        assert!(report.worst_cost.is_finite());
        assert_eq!(report.sequences, 100);
    }

    #[test]
    fn deterministic_given_seed() {
        let opts = WorstCaseOptions {
            num_sequences: 30,
            seed: 11,
            ..WorstCaseOptions::default()
        };
        let a = evaluate_worst_case(&sim(), &scenario(), &opts).unwrap();
        let b = evaluate_worst_case(&sim(), &scenario(), &opts).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn option_validation() {
        let s = sim();
        assert!(evaluate_worst_case(
            &s,
            &scenario(),
            &WorstCaseOptions {
                num_sequences: 0,
                ..WorstCaseOptions::default()
            }
        )
        .is_err());
        assert!(evaluate_worst_case(
            &s,
            &scenario(),
            &WorstCaseOptions {
                rmin_fraction: 2.0,
                ..WorstCaseOptions::default()
            }
        )
        .is_err());
    }

    #[test]
    fn exhaustive_bounds_random() {
        let s = sim();
        let sc = scenario();
        // All 2^6 sequences of length 6.
        let exact = exhaustive_worst_case(&s, &sc, 6, 100).unwrap();
        // Random search over the same horizon can never beat the exhaustive
        // maximum.
        let report = evaluate_worst_case(
            &s,
            &sc,
            &WorstCaseOptions {
                num_sequences: 40,
                jobs_per_sequence: 6,
                seed: 3,
                rmin_fraction: 0.05,
            },
        )
        .unwrap();
        assert!(report.worst_cost <= exact + 1e-12);
    }

    #[test]
    fn exhaustive_cap_enforced() {
        let s = sim();
        assert!(exhaustive_worst_case(&s, &scenario(), 40, 1000).is_err());
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let s = sim();
        let sc = scenario();
        let opts = WorstCaseOptions {
            num_sequences: 130, // spans three chunks, last one partial
            jobs_per_sequence: 40,
            seed: 19,
            rmin_fraction: 0.05,
        };
        overrun_par::set_thread_override(Some(1));
        let serial = evaluate_worst_case(&s, &sc, &opts).unwrap();
        overrun_par::set_thread_override(Some(4));
        let parallel = evaluate_worst_case(&s, &sc, &opts).unwrap();
        overrun_par::set_thread_override(None);
        assert_eq!(serial.worst_cost.to_bits(), parallel.worst_cost.to_bits());
        assert_eq!(serial.mean_cost.to_bits(), parallel.mean_cost.to_bits());
        assert_eq!(
            serial.worst_integral_cost.to_bits(),
            parallel.worst_integral_cost.to_bits()
        );
        assert_eq!(serial.diverged, parallel.diverged);
    }
}

#[cfg(test)]
mod model_tests {
    use super::test_fixtures::{scenario, sim};
    use super::*;

    fn bursty(max_ms: u64) -> ResponseTimeModel {
        ResponseTimeModel::Markov {
            min: Span::from_millis(1),
            period: Span::from_millis(10),
            max: Span::from_millis(max_ms),
            enter_prob: 0.05,
            leave_prob: 0.4,
        }
    }

    #[test]
    fn bursty_workload_stays_stable() {
        let report = evaluate_worst_case_with_model(
            &sim(),
            &scenario(),
            &bursty(13),
            &WorstCaseOptions {
                num_sequences: 100,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(report.all_stable());
        assert!(report.worst_cost.is_finite());
        assert!(report.worst_cost >= report.mean_cost);
    }

    #[test]
    fn workload_beyond_design_rmax_rejected() {
        let res = evaluate_worst_case_with_model(
            &sim(),
            &scenario(),
            &bursty(20), // design Rmax is 13 ms
            &WorstCaseOptions::default(),
        );
        assert!(res.is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let opts = WorstCaseOptions {
            num_sequences: 20,
            seed: 3,
            ..Default::default()
        };
        let a = evaluate_worst_case_with_model(&sim(), &scenario(), &bursty(13), &opts).unwrap();
        let b = evaluate_worst_case_with_model(&sim(), &scenario(), &bursty(13), &opts).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sporadic_model_also_supported() {
        let model = ResponseTimeModel::Sporadic {
            min: Span::from_millis(1),
            period: Span::from_millis(10),
            max: Span::from_millis(13),
            overrun_prob: 0.15,
        };
        let report = evaluate_worst_case_with_model(
            &sim(),
            &scenario(),
            &model,
            &WorstCaseOptions {
                num_sequences: 50,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(report.all_stable());
    }
}
