//! Metric names and units, the order statistics the benchmark reports,
//! and the JSON result line.

use std::fmt::Write as _;

/// A reported metric: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

/// The end-to-end metrics (`--trace 0`), as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("verdict_s_p50", "s"),
    ("verdict_s_tail", "s"),
];

/// The per-layer metrics (`--trace 1`), as in `BENCHMARK.json`. A layer
/// a workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("mc.ensemble.self_s", "s"),
    ("mc.ns_per_job", "ns"),
    ("mc.jobs", "count"),
    ("mc.ensemble.calls", "count"),
    ("mc.divergence_exits", "count"),
    ("sim.build.self_s", "s"),
    ("driver.certify_calls", "count"),
    ("driver.certify_distinct", "count"),
    ("driver.certify_useful_frac", "ratio"),
    ("certify.self_s", "s"),
    ("lifted.build_s", "s"),
    ("jsr.ellipsoid.self_s", "s"),
    ("jsr.depth.self_s", "s"),
    ("jsr.precondition.self_s", "s"),
    ("jsr.refine_levels", "count"),
    ("jsr.screen.nodes", "count"),
    ("jsr.screen.exact_norms", "count"),
    ("jsr.screen.skipped_norms", "count"),
    ("jsr.screen.exact_eigs", "count"),
    ("jsr.screen.hit_rate", "ratio"),
    ("jsr.gap_median", "1"),
    ("jsr.gap_max", "1"),
    ("linalg.norm2_ns", "ns"),
    ("linalg.expm_ns", "ns"),
    ("design.pi.tune.self_s", "s"),
    ("design.pi.nm_evals", "count"),
    ("design.lqr.self_s", "s"),
    ("design.lqr.riccati_iters", "count"),
    ("sweep.cold_s", "s"),
    ("sweep.warm_s", "s"),
    ("sweep.computed", "count"),
    ("sweep.cache_hits", "count"),
    ("sweep.record_bytes", "bytes"),
    ("sweep.distinct_omega_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Samples the tail percentile leaves above it.
pub const TAIL_BEYOND: usize = 10;

/// The median, as Python's `statistics.median` takes it (mean of the two
/// middle values for an even count); `0` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: `(value, percentile)`. With too few samples for that percentile to
/// lie above the median, the maximum (percentile 100).
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 100.0);
    }
    if n <= 2 * TAIL_BEYOND {
        return (v[n - 1], 100.0);
    }
    let i = n - TAIL_BEYOND - 1;
    (v[i], 100.0 * (i + 1) as f64 / n as f64)
}

/// Peak resident memory of this process in MiB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Appends `s` as a JSON string literal.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a finite number with all its digits (`null` otherwise).
pub fn push_json_num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut s = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        push_json_str(&mut s, name);
        s.push_str(": {\"value\": ");
        push_json_num(&mut s, *value);
        s.push_str(", \"unit\": ");
        push_json_str(&mut s, unit);
        s.push('}');
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_matches_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), (30.0, 75.0));
        assert_eq!(tail(&[5.0, 1.0]), (5.0, 100.0));
        let few: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&few), (20.0, 100.0));
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let line = result_line(true, 3, 0, &[("wall_s", "s", 0.1 + 0.2)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}}}"
        );
    }
}
