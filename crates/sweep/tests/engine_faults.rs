//! Engine behavior tests: fault isolation, tightened-budget retry, cache
//! integrity re-verification, resume-after-kill through the cache.
//!
//! These use an injected [`CertifyRunner`] (the engine's fault seam), so
//! they are fast and exercise the engine logic — the differential oracle
//! in `tests/sweep_differential.rs` covers the real certifier.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use overrun_control::stability::{CertifyOptions, StabilityReport};
use overrun_control::plants;
use overrun_jsr::{JsrBounds, ScreenStats, StabilityVerdict};
use overrun_sweep::{run_sweep_with, DesignPolicy, GridSpec, SweepOptions};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "overrun-sweep-engine-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A cheap, deterministic stand-in certifier: "bounds" derived from the
/// table size so distinct scenarios get distinct records.
fn fake_report(table: &overrun_control::ControllerTable) -> StabilityReport {
    let n = table.len() as f64;
    StabilityReport {
        bounds: JsrBounds {
            lower: 0.5 + 0.01 * n,
            upper: 0.9 + 0.01 * n,
        },
        verdict: StabilityVerdict::Stable,
        screen: ScreenStats {
            nodes: table.len() as u64,
            ..ScreenStats::default()
        },
    }
}

fn grid(n_rmax: usize) -> Vec<overrun_sweep::PreparedScenario> {
    let spec = GridSpec {
        plants: vec![("uso".into(), plants::unstable_second_order())],
        periods: vec![0.010],
        rmax_factors: (0..n_rmax).map(|i| 1.05 + 0.05 * i as f64).collect(),
        ns_values: vec![2],
        policies: vec![("adaptive".into(), DesignPolicy::PiAdaptive)],
        opts: CertifyOptions::default(),
    };
    spec.expand()
        .iter()
        .map(|s| s.prepare().expect("design"))
        .collect()
}

#[test]
fn panic_is_isolated_and_retry_succeeds() {
    let scenarios = grid(3);
    let calls = AtomicU64::new(0);
    // Every scenario's *first* attempt (full budget) panics, mimicking a
    // sanitize poison; the tightened-budget retry succeeds.
    let report = run_sweep_with(&scenarios, &SweepOptions::default(), &|_, t, o| {
        calls.fetch_add(1, Ordering::SeqCst);
        assert!(
            (o.max_depth == CertifyOptions::default().max_depth) || o.max_depth <= 4,
            "retry must tighten the budget"
        );
        if o.max_depth == CertifyOptions::default().max_depth {
            panic!("[sanitize] injected poison");
        }
        Ok(fake_report(t))
    })
    .expect("sweep must not abort on scenario panics");

    assert_eq!(report.stats.errors, 0);
    assert_eq!(report.stats.retried, 3);
    assert_eq!(calls.load(Ordering::SeqCst), 6, "one retry per scenario");
    for o in &report.outcomes {
        let rec = o.result.as_ref().expect("retry succeeded");
        assert_eq!(rec.attempts, 2);
    }
}

#[test]
fn double_fault_is_a_structured_error_not_an_abort() {
    let scenarios = grid(2);
    // A runner only sees the materialized triple; the content key is how
    // it (and the cache) identifies a scenario.
    let poisoned = scenarios[1].key;
    let report = run_sweep_with(&scenarios, &SweepOptions::default(), &|p, t, _| {
        // Key with the *grid* budget so the tightened retry still matches
        // (the retry passes different opts, but it is the same scenario).
        if overrun_sweep::certification_key(p, t, &CertifyOptions::default()) == poisoned {
            panic!("[sanitize] non-finite value");
        }
        Ok(fake_report(t))
    })
    .expect("sweep survives double faults");

    assert_eq!(report.stats.errors, 1);
    assert!(report.outcomes[0].result.is_ok());
    let err = report.outcomes[1].result.as_ref().expect_err("faulted");
    assert_eq!(err.attempts, 2);
    assert!(matches!(
        err.fault,
        overrun_sweep::ScenarioFault::Panicked(_)
    ));
    assert_eq!(report.errors().len(), 1);
}

#[test]
fn err_results_are_faults_too() {
    let scenarios = grid(1);
    let report = run_sweep_with(
        &scenarios,
        &SweepOptions {
            retry: false,
            ..SweepOptions::default()
        },
        &|_, _, _| {
            Err(overrun_control::Error::Design(
                "no stabilising gain".to_string(),
            ))
        },
    )
    .expect("sweep survives Err results");
    assert_eq!(report.stats.errors, 1);
    let err = report.outcomes[0].result.as_ref().expect_err("faulted");
    assert_eq!(err.attempts, 1);
    assert!(matches!(err.fault, overrun_sweep::ScenarioFault::Failed(_)));
}

#[test]
fn warm_cache_reports_all_hits_and_identical_records() {
    let dir = tmp_dir("warm");
    let scenarios = grid(4);
    let opts = SweepOptions {
        cache_dir: Some(dir.clone()),
        ..SweepOptions::default()
    };
    let runner: overrun_sweep::CertifyRunner =
        &|_, t: &overrun_control::ControllerTable, _: &CertifyOptions| Ok(fake_report(t));

    let cold = run_sweep_with(&scenarios, &opts, runner).expect("cold run");
    assert_eq!(cold.stats.cache_hits, 0);
    assert_eq!(cold.stats.cache_misses, 4);
    assert_eq!(cold.stats.computed, 4);

    // Second run: 100% hits, and records identical to the cold run's.
    let warm = run_sweep_with(&scenarios, &opts, &|_, _, _| {
        panic!("warm run must not recompute")
    })
    .expect("warm run");
    assert_eq!(warm.stats.cache_hits, 4);
    assert_eq!(warm.stats.cache_misses, 0);
    for (c, w) in cold.outcomes.iter().zip(&warm.outcomes) {
        assert_eq!(
            c.result.as_ref().expect("ok"),
            w.result.as_ref().expect("ok")
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_and_resume_converges_to_uninterrupted_result() {
    let dir_full = tmp_dir("uninterrupted");
    let dir_kill = tmp_dir("killed");
    let scenarios = grid(6);
    let runner: overrun_sweep::CertifyRunner =
        &|_, t: &overrun_control::ControllerTable, _: &CertifyOptions| Ok(fake_report(t));

    // Reference: one uninterrupted cached run.
    let reference = run_sweep_with(
        &scenarios,
        &SweepOptions {
            cache_dir: Some(dir_full.clone()),
            ..SweepOptions::default()
        },
        runner,
    )
    .expect("reference run");

    // "Killed" run: complete, then simulate a kill after the first two
    // scenarios by deleting the records the kill would have lost.
    let opts_kill = SweepOptions {
        cache_dir: Some(dir_kill.clone()),
        ..SweepOptions::default()
    };
    let first = run_sweep_with(&scenarios, &opts_kill, runner).expect("first run");
    assert_eq!(first.stats.computed, 6);
    for o in &first.outcomes[2..] {
        std::fs::remove_file(dir_kill.join(format!("{}.record", o.key.to_hex())))
            .expect("remove record");
    }

    // Rerun: the two stored records replay, the other four recompute.
    let resumed = run_sweep_with(&scenarios, &opts_kill, runner).expect("resumed run");
    assert_eq!(resumed.stats.cache_hits, 2);
    assert_eq!(resumed.stats.computed, 4);
    assert_eq!(resumed.outcomes.len(), reference.outcomes.len());
    for (r, u) in resumed.outcomes.iter().zip(&reference.outcomes) {
        let (r, u) = (r.result.as_ref().expect("ok"), u.result.as_ref().expect("ok"));
        assert_eq!(r.verdict, u.verdict);
        assert_eq!(r.bounds.lower.to_bits(), u.bounds.lower.to_bits());
        assert_eq!(r.bounds.upper.to_bits(), u.bounds.upper.to_bits());
    }
    let _ = std::fs::remove_dir_all(&dir_full);
    let _ = std::fs::remove_dir_all(&dir_kill);
}

#[test]
fn duplicate_keys_hit_the_earlier_record_at_one_worker() {
    let dir = tmp_dir("duplicates");
    let one = grid(1);
    let scenarios = vec![one[0].clone(), one[0].clone()];
    let runner: overrun_sweep::CertifyRunner =
        &|_, t: &overrun_control::ControllerTable, _: &CertifyOptions| Ok(fake_report(t));
    overrun_par::set_thread_override(Some(1));
    let report = run_sweep_with(
        &scenarios,
        &SweepOptions {
            cache_dir: Some(dir.clone()),
            ..SweepOptions::default()
        },
        runner,
    );
    overrun_par::set_thread_override(None);
    let report = report.expect("sweep");
    assert_eq!(report.stats.computed, 1);
    assert_eq!(report.stats.cache_hits, 1);
    assert!(!report.outcomes[0].from_cache);
    assert!(report.outcomes[1].from_cache);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_record_is_reverified_and_replaced_on_load() {
    let dir = tmp_dir("corrupt-reload");
    let scenarios = grid(2);
    let opts = SweepOptions {
        cache_dir: Some(dir.clone()),
        ..SweepOptions::default()
    };
    let runner: overrun_sweep::CertifyRunner =
        &|_, t: &overrun_control::ControllerTable, _: &CertifyOptions| Ok(fake_report(t));
    let first = run_sweep_with(&scenarios, &opts, runner).expect("first run");

    // Corrupt one record in place.
    let victim = dir.join(format!("{}.record", first.outcomes[0].key.to_hex()));
    let text = std::fs::read_to_string(&victim).expect("read record");
    std::fs::write(&victim, &text[..text.len() - 20]).expect("corrupt record");

    let second = run_sweep_with(&scenarios, &opts, runner).expect("second run");
    assert_eq!(second.stats.corrupt_records, 1);
    assert_eq!(second.stats.cache_hits, 1);
    assert_eq!(second.stats.computed, 1);
    // The replacement matches the original bits.
    let a = first.outcomes[0].result.as_ref().expect("ok");
    let b = second.outcomes[0].result.as_ref().expect("ok");
    assert_eq!(a.bounds.upper.to_bits(), b.bounds.upper.to_bits());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn faulted_scenarios_are_not_cached_and_retry_on_rerun() {
    let dir = tmp_dir("fault-rerun");
    let scenarios = grid(4);
    let opts = SweepOptions {
        cache_dir: Some(dir.clone()),
        retry: false,
    };
    let bad = scenarios[3].key;
    // First run: the last scenario faults, and the fault is not cached.
    let first = run_sweep_with(&scenarios, &opts, &|p, t, o| {
        if overrun_sweep::certification_key(p, t, o) == bad {
            return Err(overrun_control::Error::Design("transient".into()));
        }
        Ok(fake_report(t))
    })
    .expect("first run");
    assert_eq!(first.stats.errors, 1);
    assert_eq!(first.stats.computed, 4);
    assert!(!dir.join(format!("{}.record", bad.to_hex())).exists());

    // Rerun with a healthy runner: the faulted scenario is recomputed,
    // the healthy ones hit.
    let second = run_sweep_with(&scenarios, &opts, &|_, t, _| Ok(fake_report(t)))
        .expect("second run");
    assert_eq!(second.stats.errors, 0);
    assert_eq!(second.stats.cache_hits, 3);
    assert_eq!(second.stats.computed, 1);
    assert!(dir.join(format!("{}.record", bad.to_hex())).exists());
    let _ = std::fs::remove_dir_all(&dir);
}
