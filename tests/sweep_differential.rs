//! Differential oracle for the batch sweep engine: on a randomized grid of
//! small stable and unstable plants, every replay mode of the engine —
//! cold cache, warm cache, resumed-after-kill, 1 worker vs 4 workers —
//! must reproduce the direct `stability::certify` answer bit for bit, and
//! the Eq.-12 brute-force bounds must stay consistent with the Gripenberg
//! `[LB, UB]` interval on every scenario.
//!
//! Engine *mechanics* (fault isolation, record formats, corrupt-record
//! replacement) are covered with injected runners in
//! `crates/sweep/tests/engine_faults.rs`; this file always runs the real
//! certifier.

use std::path::PathBuf;
use std::sync::Mutex;

use overrun_control::stability::{self, CertifyOptions, StabilityReport};
use overrun_control::{plants, ContinuousSs};
use overrun_jsr::StabilityVerdict;
use overrun_linalg::Matrix;
use overrun_par::{derive_seed, set_thread_override};
use overrun_sweep::{
    run_sweep, DesignPolicy, GridSpec, PreparedScenario, ScenarioRecord, SweepOptions,
};

/// The thread override is process-global; every test that touches it holds
/// this lock and restores the default before releasing it (same idiom as
/// `tests/par_determinism.rs`).
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "overrun-sweep-differential-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A deterministic pseudo-random draw in `[0, 1)` from the workspace's
/// SplitMix-style seed derivation — no RNG dependency needed.
fn rand_unit(seed: u64, index: u64) -> f64 {
    (derive_seed(seed, index) >> 11) as f64 / (1u64 << 53) as f64
}

/// A random controllable second-order SISO plant in companion form.
/// `a21` spans both signs, so the draw mixes open-loop stable and
/// unstable dynamics.
fn random_companion_plant(seed: u64) -> ContinuousSs {
    let a21 = -60.0 + 120.0 * rand_unit(seed, 0);
    let a22 = -6.0 + 8.0 * rand_unit(seed, 1);
    ContinuousSs::new(
        Matrix::from_rows(&[&[0.0, 1.0], &[a21, a22]]).unwrap(),
        Matrix::col_vec(&[0.0, 1.0]),
        Matrix::row_vec(&[1.0, 0.0]),
    )
    .unwrap()
}

/// The randomized differential grid: two named plants plus two seeded
/// random draws, each certified under the adaptive PI design and under a
/// zero static gain (open loop — certified unstable whenever the plant
/// is). A reduced Gripenberg budget keeps the oracle fast; the comparison
/// only needs both sides to run the *same* budget.
fn differential_grid() -> Vec<PreparedScenario> {
    let master = 0x5eed_2021_u64;
    let spec = GridSpec {
        plants: vec![
            ("uso".into(), plants::unstable_second_order()),
            ("dint".into(), plants::double_integrator()),
            ("rand0".into(), random_companion_plant(derive_seed(master, 0))),
            ("rand1".into(), random_companion_plant(derive_seed(master, 1))),
        ],
        periods: vec![0.010],
        rmax_factors: vec![1.3],
        ns_values: vec![2],
        policies: vec![
            ("pi-adaptive".into(), DesignPolicy::PiAdaptive),
            (
                "zero-gain".into(),
                DesignPolicy::StaticGain(Matrix::zeros(1, 1)),
            ),
        ],
        opts: CertifyOptions {
            delta: 1e-4,
            max_depth: 6,
            max_products: 50_000,
            max_power: 3,
        },
    };
    // Random plants may admit no stabilising PI design — those draws are
    // simply not certifiable problems, so the grid drops them. The zero
    // gain always designs, so at least half the grid survives.
    let prepared: Vec<PreparedScenario> =
        spec.expand().iter().filter_map(|s| s.prepare().ok()).collect();
    assert!(
        prepared.len() >= 6,
        "expected most of the grid to design, got {}",
        prepared.len()
    );
    prepared
}

fn assert_record_matches(record: &ScenarioRecord, direct: &StabilityReport, what: &str) {
    assert_eq!(record.verdict, direct.verdict, "{what}: verdict");
    assert_eq!(
        record.bounds.lower.to_bits(),
        direct.bounds.lower.to_bits(),
        "{what}: lower bound bits"
    );
    assert_eq!(
        record.bounds.upper.to_bits(),
        direct.bounds.upper.to_bits(),
        "{what}: upper bound bits"
    );
}

/// The main oracle: direct certification at one thread is the reference;
/// the engine must match it bitwise cold, warm, after a simulated kill,
/// and at four workers.
#[test]
fn sweep_replay_modes_match_direct_certification() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let scenarios = differential_grid();
    let n = scenarios.len();

    // Reference: direct `stability::certify`, serial.
    set_thread_override(Some(1));
    let direct: Vec<StabilityReport> = scenarios
        .iter()
        .map(|s| stability::certify(&s.plant, &s.table, &s.opts).expect("direct certify"))
        .collect();

    // The grid genuinely mixes outcomes: the zero-gain scenarios on the
    // open-loop-unstable plants are certified unstable, and at least one
    // adaptive design is certified stable.
    assert!(
        direct.iter().any(|r| r.verdict == StabilityVerdict::Stable),
        "grid has no certified-stable scenario"
    );
    assert!(
        direct
            .iter()
            .any(|r| r.verdict == StabilityVerdict::Unstable),
        "grid has no certified-unstable scenario"
    );

    // Cold cache, one worker: recomputes everything, matches the direct
    // answers including the screening statistics (same thread count).
    let dir = tmp_dir("replay");
    let opts = SweepOptions {
        cache_dir: Some(dir.clone()),
        ..SweepOptions::default()
    };
    let cold = run_sweep(&scenarios, &opts).expect("cold sweep");
    assert_eq!(cold.stats.computed, n as u64);
    assert_eq!(cold.stats.errors, 0);
    for (o, d) in cold.outcomes.iter().zip(&direct) {
        let rec = o.result.as_ref().expect("cold outcome");
        assert_record_matches(rec, d, "cold");
        assert_eq!(rec.screen, d.screen, "cold: screen stats at one worker");
    }

    // Warm cache: every verdict replays from disk, none recomputes, and
    // the replayed records still match the direct answers bitwise.
    let warm = run_sweep(&scenarios, &opts).expect("warm sweep");
    assert_eq!(warm.stats.cache_hits, n as u64);
    assert_eq!(warm.stats.computed, 0);
    for (o, d) in warm.outcomes.iter().zip(&direct) {
        assert_record_matches(o.result.as_ref().expect("warm outcome"), d, "warm");
    }

    // Simulated kill after the first three scenarios: delete the records
    // the kill would have lost. The rerun must converge to the same bits
    // as the uninterrupted runs.
    for o in &cold.outcomes[3..] {
        std::fs::remove_file(dir.join(format!("{}.record", o.key.to_hex())))
            .expect("remove record");
    }

    let resumed = run_sweep(&scenarios, &opts).expect("resumed sweep");
    assert_eq!(resumed.stats.cache_hits, 3);
    assert_eq!(resumed.stats.computed, n as u64 - 3);
    for (o, d) in resumed.outcomes.iter().zip(&direct) {
        assert_record_matches(o.result.as_ref().expect("resumed outcome"), d, "resumed");
    }

    // Four workers, fresh cache: scheduling must not leak into the
    // certified bounds (screen counters legitimately differ across worker
    // counts, so only the contract — bounds and verdict — is compared).
    set_thread_override(Some(4));
    let dir4 = tmp_dir("replay-mt");
    let wide = run_sweep(
        &scenarios,
        &SweepOptions {
            cache_dir: Some(dir4.clone()),
            ..SweepOptions::default()
        },
    )
    .expect("four-worker sweep");
    assert_eq!(wide.stats.computed, n as u64);
    for (o, d) in wide.outcomes.iter().zip(&direct) {
        assert_record_matches(o.result.as_ref().expect("wide outcome"), d, "four workers");
    }

    set_thread_override(None);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir4);
}

/// The Eq.-12 brute-force enumeration and the Gripenberg certificate are
/// independent bound computations on the same lifted set; both intervals
/// contain the true JSR, so they must overlap on every scenario of the
/// randomized grid. (Neither interval need *contain* the other: the
/// brute-force lower bound at a fixed depth can exceed Gripenberg's, and
/// vice versa for the uppers.)
#[test]
fn bruteforce_interval_is_consistent_with_gripenberg() {
    for s in differential_grid() {
        let g = stability::certify(&s.plant, &s.table, &s.opts)
            .expect("certify")
            .bounds;
        let bf = stability::eq12_bounds(&s.plant, &s.table, 4).expect("eq12 bounds");
        assert!(bf.lower <= bf.upper + 1e-9, "{}: bf={bf:?}", s.label);
        assert!(
            g.lower <= bf.upper + 1e-9,
            "{}: gripenberg lower above bruteforce upper — g={g:?} bf={bf:?}",
            s.label
        );
        assert!(
            bf.lower <= g.upper + 1e-9,
            "{}: bruteforce lower above gripenberg upper — g={g:?} bf={bf:?}",
            s.label
        );
    }
}
