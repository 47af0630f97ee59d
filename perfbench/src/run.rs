//! One benchmark run: iterations, the output check, and the metrics.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::check::{check, CheckContext, Value};
use crate::metrics::{self, Metric, END_TO_END};
use crate::workloads::{run_iteration, DriverInputs, Inputs, Iteration, Scale};

/// The outcome of a run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No operation failed and every output passed the check.
    pub correct: bool,
    /// Driver operations attempted.
    pub attempted: usize,
    /// Operations that failed or whose output failed the check.
    pub failed: usize,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// What failed, one line per failed operation.
    pub failures: Vec<String>,
    /// Per-run details for the record line: `(key, JSON value)`.
    pub details: Vec<(&'static str, String)>,
}

/// Iterations a run makes, however short `--seconds` is.
pub const MIN_ITERATIONS: usize = 2;

/// Set-up samples taken after each iteration.
pub const SETUP_SAMPLES_PER_ITERATION: usize = 20;

/// Shortest span of one set-up sample. A set-up takes microseconds (a few
/// milliseconds on `certify_grid`), so a sample repeats it back to back
/// for at least this long and reports the time per set-up.
pub const SETUP_SAMPLE_S: f64 = 0.002;

/// Checks the iterations' outputs: returns `(attempted, failures)`.
/// `floors` are the designs' nominal costs (`workloads::nominal_floors`).
///
/// An operation fails when it returns an error, ends `Unknown`, or its
/// output fails the check against the reference.
pub fn check_iterations(
    inputs: &Inputs,
    floors: &BTreeMap<String, f64>,
    iterations: &[Iteration],
) -> (usize, Vec<String>) {
    let mut failures = Vec::new();
    let ctx = CheckContext {
        reference: &inputs.reference,
        seed: inputs.seed,
        sequences: inputs.cfg.num_sequences,
        floors,
        complete: inputs.scale == Scale::Bench,
    };
    let reference_costs = inputs
        .reference
        .items
        .values()
        .filter(|v| matches!(v, Value::Cost(_)))
        .count();
    let mut attempted = 0;
    for it in iterations {
        let ops = it.operations(reference_costs);
        attempted += ops;
        let mut failed: Vec<String> = it
            .certify
            .iter()
            .filter(|c| !c.decided)
            .map(|_| "certification returned an error or an undecided verdict".to_string())
            .collect();
        failed.extend(it.failures.iter().cloned());
        match &it.items {
            Ok(items) => failed.extend(check(items, &ctx)),
            Err(e) => failed.extend(std::iter::repeat_n(e.clone(), reference_costs.max(1))),
        }
        failed.truncate(ops.max(1));
        failures.extend(failed);
    }
    (attempted.max(1), failures)
}

fn json_list(values: &[f64]) -> String {
    let mut s = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        metrics::push_json_num(&mut s, *v);
    }
    s.push(']');
    s
}

/// One set-up sample: seconds per `setup` call, over back-to-back calls
/// spanning at least [`SETUP_SAMPLE_S`].
fn setup_sample(setup: &dyn Fn() -> Result<DriverInputs, String>) -> Result<f64, String> {
    let started = Instant::now();
    let mut calls = 0u32;
    loop {
        black_box(setup()?);
        calls += 1;
        let secs = started.elapsed().as_secs_f64();
        if secs >= SETUP_SAMPLE_S {
            return Ok(secs / f64::from(calls));
        }
    }
}

/// The untraced run: iterations on `first` for about `seconds` (at least
/// [`MIN_ITERATIONS`]; no iteration starts that the median so far says
/// would end past `seconds`), checked, with every end-to-end metric.
/// After each iteration `setup` is sampled
/// [`SETUP_SAMPLES_PER_ITERATION`] times, so the set-up samples spread
/// over the run like the iterations.
pub fn run_end_to_end(
    first: &Inputs,
    setup: &dyn Fn() -> Result<DriverInputs, String>,
    floors: &BTreeMap<String, f64>,
    seconds: f64,
) -> Outcome {
    let started = Instant::now();
    let mut setup_samples = Vec::new();
    let mut setup_failures = Vec::new();
    let mut runs = Vec::new();
    let mut walls = Vec::new();
    loop {
        let it = run_iteration(first, false);
        walls.push(it.wall_s);
        runs.push(it);
        for _ in 0..SETUP_SAMPLES_PER_ITERATION {
            match setup_sample(setup) {
                Ok(secs) => setup_samples.push(secs),
                Err(e) => setup_failures.push(format!("set-up: {e}")),
            }
        }
        let next_ends = started.elapsed().as_secs_f64() + metrics::median(&walls);
        if runs.len() >= MIN_ITERATIONS && next_ends > seconds {
            break;
        }
    }
    let verdicts: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.verdict_s.iter().copied())
        .collect();
    let (tail, tail_pct) = metrics::tail(&verdicts);
    let rss = metrics::peak_rss_mib().unwrap_or(0.0);
    let (attempted, mut failures) = check_iterations(first, floors, &runs);
    setup_failures.truncate(1);
    failures.extend(setup_failures);
    let failed = failures.len();
    let values = [
        metrics::median(&walls),
        metrics::median(&setup_samples),
        rss,
        metrics::median(&verdicts),
        tail,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, unit, value))
        .collect();
    let details = vec![
        ("iterations", runs.len().to_string()),
        ("wall_s_samples", json_list(&walls)),
        ("setup_s_samples", setup_samples.len().to_string()),
        ("verdict_calls", verdicts.len().to_string()),
        ("verdict_tail_percentile", format!("{tail_pct:?}")),
    ];
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        failures,
        details,
    }
}
