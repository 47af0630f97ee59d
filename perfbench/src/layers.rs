//! The traced run (`--trace 1`): per-layer metrics.
//!
//! One untraced iteration, then one traced iteration, from the same
//! process. The traced iteration records the program's own spans and
//! counters (`mc.ensemble`, `jsr.ellipsoid`, `jsr.depth`, `pi.tune`,
//! `jsr.screen.*`, ...) plus the benchmark's spans around each call into
//! a layer: `bench.driver`, `bench.certify`, `bench.sweep_cold` /
//! `bench.sweep_warm`, and, after the drivers return, `bench.lifted`
//! (`lifted::build_omega_set` on each distinct certified table) and the
//! linalg probes `bench.norm2` / `bench.expm` on the workload's own
//! matrices. The trace is written as JSONL, read back with
//! `Trace::parse_jsonl`, and aggregated with `Trace::span_tree`.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::Path;

use overrun_control::{lifted, IntervalSet};
use overrun_jsr::ScreenStats;
use overrun_linalg::{expm, norm_2, Matrix};
use overrun_sweep::{certification_key, Canon};
use overrun_trace::{MonotonicClock, SpanNode, Trace};

use crate::metrics::{self, Metric, PER_LAYER};
use crate::run::{check_iterations, Outcome};
use crate::workloads::{run_iteration, Inputs, Iteration, Workload};

/// Repetitions of each linalg probe call.
const PROBE_REPS: usize = 64;

#[derive(Debug, Default, Clone, Copy)]
struct Agg {
    calls: u64,
    total_ns: u64,
    self_ns: u64,
}

/// Sums calls and times per span name over every path of the tree.
fn aggregate(nodes: &[SpanNode], out: &mut BTreeMap<String, Agg>) {
    for n in nodes {
        let a = out.entry(n.name.clone()).or_default();
        a.calls += n.calls;
        a.total_ns += n.total_ns;
        a.self_ns += n.self_ns;
        aggregate(&n.children, out);
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What the benchmark learns from the certified tables after the
/// drivers return.
#[derive(Debug, Default)]
struct Probes {
    distinct_tables: usize,
    distinct_omega_sets: usize,
    gaps: Vec<f64>,
    norm2_calls: usize,
    expm_calls: usize,
}

/// Builds Ω for each distinct certified table and runs the linalg probes
/// on the workload's own matrices, inside the active trace.
fn probe(inputs: &Inputs, traced: &Iteration) -> Result<Probes, String> {
    let mut p = Probes::default();
    let mut by_key = BTreeMap::new();
    for call in &traced.certify {
        if let Some((plant, table, opts, bounds)) = &call.recorded {
            by_key
                .entry(certification_key(plant, table, opts))
                .or_insert((plant, table, *bounds));
        }
    }
    p.distinct_tables = by_key.len();
    let mut omega_sets = BTreeSet::new();
    let mut omegas: Vec<Matrix> = Vec::new();
    for (plant, table, bounds) in by_key.values() {
        p.gaps.push(bounds.upper - bounds.lower);
        let set = {
            let _sp = overrun_trace::span!("bench.lifted", modes = table.len());
            let m = lifted::measurement_matrix(plant, table).map_err(|e| e.to_string())?;
            lifted::build_omega_set(plant, table, &m).map_err(|e| e.to_string())?
        };
        let mut canon = Canon::new();
        for m in &set {
            canon.matrix_field(m);
        }
        omega_sets.insert(canon.finish());
        omegas.extend(set);
    }
    p.distinct_omega_sets = omega_sets.len();
    for m in &omegas {
        let _sp = overrun_trace::span!("bench.norm2", dim = m.rows());
        for _ in 0..PROBE_REPS {
            black_box(norm_2(black_box(m)));
        }
        p.norm2_calls += PROBE_REPS;
    }
    // The ZOH exponentials every design and simulator build: e^{A h} for
    // each interval of each cell.
    let t = inputs.period();
    let mut intervals: Vec<f64> = Vec::new();
    for (factor, ns) in inputs.cells() {
        let hset = IntervalSet::from_timing(t, factor * t, ns).map_err(|e| e.to_string())?;
        intervals.extend_from_slice(hset.intervals());
    }
    intervals.sort_by(f64::total_cmp);
    intervals.dedup();
    for h in intervals {
        let ah = inputs.plant.a.scale(h);
        let _sp = overrun_trace::span!("bench.expm", h_us = h * 1e6);
        for _ in 0..PROBE_REPS {
            black_box(expm(black_box(&ah)).map_err(|e| e.to_string())?);
        }
        p.expm_calls += PROBE_REPS;
    }
    Ok(p)
}

/// The traced run. The trace JSONL is left at `trace_path`.
/// `floors` are the designs' nominal costs, for the check.
pub fn run_traced(inputs: &Inputs, floors: &BTreeMap<String, f64>, trace_path: &Path) -> Outcome {
    let plain = run_iteration(inputs, false);
    if !overrun_trace::install(MonotonicClock::new()) {
        return failed_outcome("a trace sink was already active".into());
    }
    let traced = run_iteration(inputs, true);
    let probes = probe(inputs, &traced);
    let trace = overrun_trace::finish().unwrap_or_default();
    let probes = match probes {
        Ok(p) => p,
        Err(e) => return failed_outcome(format!("probe: {e}")),
    };
    let reread = std::fs::write(trace_path, trace.to_jsonl_string())
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))
        .and_then(|()| std::fs::read_to_string(trace_path).map_err(|e| e.to_string()))
        .and_then(|text| Trace::parse_jsonl(&text));
    let trace = match reread {
        Ok(t) => t,
        Err(e) => return failed_outcome(e),
    };

    let mut spans = BTreeMap::new();
    aggregate(&trace.span_tree(), &mut spans);
    let counters = trace.counter_totals();
    let span = |name: &str| spans.get(name).copied().unwrap_or_default();
    let count = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let secs = |ns: u64| ns as f64 / 1e9;
    let screen = ScreenStats {
        exact_norms: count("jsr.screen.exact_norms") as u64,
        exact_eigs: count("jsr.screen.exact_eigs") as u64,
        skipped_norms: count("jsr.screen.skipped_norms") as u64,
        skipped_eigs: count("jsr.screen.skipped_eigs") as u64,
        ..ScreenStats::default()
    };
    let certify_calls = span("bench.certify").calls as f64;
    let is_grid = inputs.workload == Workload::CertifyGrid;
    let values: BTreeMap<&str, f64> = BTreeMap::from([
        ("mc.ensemble.self_s", secs(span("mc.ensemble").self_ns)),
        (
            "mc.ns_per_job",
            ratio(span("mc.ensemble").total_ns as f64, count("mc.jobs")),
        ),
        ("mc.jobs", count("mc.jobs")),
        ("mc.ensemble.calls", span("mc.ensemble").calls as f64),
        ("mc.divergence_exits", count("mc.divergence_exits")),
        ("sim.build.self_s", secs(span("sim.build").self_ns)),
        ("driver.certify_calls", certify_calls),
        ("driver.certify_distinct", probes.distinct_tables as f64),
        (
            "driver.certify_useful_frac",
            ratio(probes.distinct_tables as f64, certify_calls),
        ),
        ("certify.self_s", secs(span("stability.certify").self_ns)),
        ("lifted.build_s", secs(span("bench.lifted").total_ns)),
        ("jsr.ellipsoid.self_s", secs(span("jsr.ellipsoid").self_ns)),
        ("jsr.depth.self_s", secs(span("jsr.depth").self_ns)),
        (
            "jsr.precondition.self_s",
            secs(span("jsr.precondition").self_ns),
        ),
        ("jsr.refine_levels", span("jsr.refine_level").calls as f64),
        ("jsr.screen.nodes", count("jsr.screen.nodes")),
        ("jsr.screen.exact_norms", count("jsr.screen.exact_norms")),
        (
            "jsr.screen.skipped_norms",
            count("jsr.screen.skipped_norms"),
        ),
        ("jsr.screen.exact_eigs", count("jsr.screen.exact_eigs")),
        ("jsr.screen.hit_rate", screen.hit_rate()),
        ("jsr.gap_median", metrics::median(&probes.gaps)),
        (
            "jsr.gap_max",
            probes.gaps.iter().copied().fold(0.0, f64::max),
        ),
        (
            "linalg.norm2_ns",
            ratio(
                span("bench.norm2").total_ns as f64,
                probes.norm2_calls as f64,
            ),
        ),
        (
            "linalg.expm_ns",
            ratio(span("bench.expm").total_ns as f64, probes.expm_calls as f64),
        ),
        ("design.pi.tune.self_s", secs(span("pi.tune").self_ns)),
        ("design.pi.nm_evals", count("pi.nm_evals")),
        (
            "design.lqr.self_s",
            secs(span("table.lqr").self_ns + span("lqr.mode").self_ns),
        ),
        ("design.lqr.riccati_iters", count("lqr.riccati_iters")),
        ("sweep.cold_s", secs(span("bench.sweep_cold").total_ns)),
        ("sweep.warm_s", secs(span("bench.sweep_warm").total_ns)),
        ("sweep.computed", count("sweep.computed")),
        ("sweep.cache_hits", count("sweep.cache_hits")),
        (
            "sweep.record_bytes",
            traced.sweep.as_ref().map_or(0, |s| s.record_bytes) as f64,
        ),
        (
            "sweep.distinct_omega_frac",
            if is_grid {
                ratio(probes.distinct_omega_sets as f64, certify_calls)
            } else {
                0.0
            },
        ),
        (
            "trace.overhead_frac",
            ratio(traced.wall_s, plain.wall_s) - 1.0,
        ),
    ]);
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, values.get(name).copied().unwrap_or(f64::NAN)))
        .collect();
    let (attempted, mut failures) =
        check_iterations(inputs, floors, &[plain.clone(), traced.clone()]);
    if let Some((name, _, _)) = metrics.iter().find(|m| !m.2.is_finite()) {
        failures.push(format!("per-layer metric {name} has no value"));
    }
    let details = vec![
        ("untraced_wall_s", format!("{:?}", plain.wall_s)),
        ("traced_wall_s", format!("{:?}", traced.wall_s)),
        ("trace_events", trace.events.len().to_string()),
    ];
    Outcome {
        correct: failures.is_empty(),
        attempted,
        failed: failures.len(),
        metrics,
        failures,
        details,
    }
}

fn failed_outcome(why: String) -> Outcome {
    Outcome {
        correct: false,
        attempted: 1,
        failed: 1,
        metrics: Vec::new(),
        failures: vec![why],
        details: Vec::new(),
    }
}
