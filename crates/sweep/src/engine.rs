//! The batch certification engine: memoization and fault isolation.
//!
//! A sweep maps its prepared scenarios over the `overrun-par` workers in
//! one order-preserving pass, so the report is bit-identical at any
//! thread count. Per scenario:
//!
//! 1. probe the content-addressed cache (hit → done, corrupt → recompute
//!    and overwrite);
//! 2. run the certification inside `catch_unwind` — a panic (in practice
//!    the `sanitize` feature poisoning a NaN at the producing kernel) or
//!    an `Err` is a *scenario* fault, not an engine fault;
//! 3. on a fault, retry **once** with a tightened budget
//!    ([`tightened_budget`]); a second fault yields a structured
//!    [`ScenarioError`] in the report while the sweep continues;
//! 4. on success, store the record atomically.
//!
//! The record cache is also the resume mechanism. Faults are never
//! stored, so a rerun retries them. Killing the process loses only the
//! records not yet stored; a rerun over the same cache replays every
//! stored record (each re-verified on load) and recomputes the rest,
//! converging to the uninterrupted result. At one worker the scenarios
//! run in grid order, so a later scenario with a duplicate key hits the
//! record an earlier one stored.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use overrun_control::stability::{self, CertifyOptions, StabilityReport};
use overrun_control::{ContinuousSs, ControllerTable};

use crate::cache::{CacheProbe, ResultCache};
use crate::error::{ScenarioError, ScenarioFault, SweepError};
use crate::hash::ContentHash;
use crate::record::ScenarioRecord;
use crate::scenario::PreparedScenario;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Cache directory; `None` disables memoization.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Retry a faulted scenario once with a tightened budget.
    pub retry: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            cache_dir: None,
            retry: true,
        }
    }
}

/// Aggregate counters of one sweep run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Scenarios in the grid.
    pub scenarios: usize,
    /// Scenarios answered by the cache.
    pub cache_hits: u64,
    /// Scenarios not found in the cache (computed; only counted when a
    /// cache is configured).
    pub cache_misses: u64,
    /// Corrupt cache records detected (recomputed and overwritten).
    pub corrupt_records: u64,
    /// Certifications actually executed.
    pub computed: u64,
    /// Scenarios that needed the tightened-budget retry.
    pub retried: u64,
    /// Scenarios that faulted on both attempts.
    pub errors: u64,
}

/// Result of one scenario within a sweep.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Index in the input grid.
    pub index: usize,
    /// Human label.
    pub label: String,
    /// Content key.
    pub key: ContentHash,
    /// Whether the record came from the cache (vs freshly computed).
    pub from_cache: bool,
    /// Whether a corrupt cache record was detected and replaced.
    pub replaced_corrupt: bool,
    /// The certified record, or the structured fault.
    pub result: Result<ScenarioRecord, ScenarioError>,
}

/// Full report of a sweep run.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Per-scenario outcomes, in grid order.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Aggregate counters.
    pub stats: SweepStats,
}

impl SweepReport {
    /// The scenario errors of the run, in grid order.
    pub fn errors(&self) -> Vec<&ScenarioError> {
        self.outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().err())
            .collect()
    }
}

/// The function a sweep runs per scenario — [`run_sweep`] plugs in
/// [`overrun_control::stability::certify`]; tests plug in fault injectors.
pub type CertifyRunner<'a> = &'a (dyn Fn(
    &ContinuousSs,
    &ControllerTable,
    &CertifyOptions,
) -> overrun_control::Result<StabilityReport>
             + Sync);

/// The tightened budget of the single fault retry: shallower tree, fewer
/// products, no high power lifts — terminates fast on inputs whose full
/// budget diverged or poisoned.
pub fn tightened_budget(opts: &CertifyOptions) -> CertifyOptions {
    CertifyOptions {
        delta: opts.delta.max(1e-3),
        max_depth: opts.max_depth.min(4),
        max_products: (opts.max_products / 4).max(1_000),
        max_power: opts.max_power.min(2),
    }
}

/// Runs the sweep with the real certifier.
///
/// # Errors
///
/// Returns [`SweepError`] only for infrastructure failures (cache I/O);
/// per-scenario faults land in the report.
pub fn run_sweep(
    scenarios: &[PreparedScenario],
    opts: &SweepOptions,
) -> Result<SweepReport, SweepError> {
    run_sweep_with(scenarios, opts, &|p, t, o| stability::certify(p, t, o))
}

/// Runs the sweep with a caller-supplied certifier (fault-injection
/// seam; see [`CertifyRunner`]).
///
/// # Errors
///
/// Returns [`SweepError`] for infrastructure failures.
pub fn run_sweep_with(
    scenarios: &[PreparedScenario],
    opts: &SweepOptions,
    runner: CertifyRunner<'_>,
) -> Result<SweepReport, SweepError> {
    let _sp = overrun_trace::span!("sweep.run", scenarios = scenarios.len());
    let cache = match opts.cache_dir.as_deref() {
        Some(dir) => Some(ResultCache::open(dir)?),
        None => None,
    };
    let outcomes = overrun_par::try_parallel_map(scenarios, |i, s| {
        run_one(i, s, cache.as_ref(), opts.retry, runner)
    })?;

    let mut stats = SweepStats {
        scenarios: scenarios.len(),
        ..SweepStats::default()
    };
    for o in &outcomes {
        if o.from_cache {
            stats.cache_hits += 1;
            continue;
        }
        stats.computed += 1;
        if cache.is_some() {
            stats.cache_misses += 1;
        }
        if o.replaced_corrupt {
            stats.corrupt_records += 1;
        }
        match &o.result {
            Ok(rec) if rec.attempts > 1 => stats.retried += 1,
            Ok(_) => {}
            Err(_) => stats.errors += 1,
        }
    }

    overrun_trace::counter!("sweep.cache_hits", stats.cache_hits);
    overrun_trace::counter!("sweep.cache_misses", stats.cache_misses);
    overrun_trace::counter!("sweep.computed", stats.computed);
    overrun_trace::counter!("sweep.errors", stats.errors);
    Ok(SweepReport { outcomes, stats })
}

/// One scenario: probe, certify under `catch_unwind`, retry once, store.
fn run_one(
    index: usize,
    s: &PreparedScenario,
    cache: Option<&ResultCache>,
    retry: bool,
    runner: CertifyRunner<'_>,
) -> Result<ScenarioOutcome, SweepError> {
    let mut replaced_corrupt = false;
    if let Some(cache) = cache {
        match cache.probe(s.key)? {
            CacheProbe::Hit(rec) => {
                return Ok(ScenarioOutcome {
                    index,
                    label: s.label.clone(),
                    key: s.key,
                    from_cache: true,
                    replaced_corrupt: false,
                    result: Ok(rec),
                });
            }
            CacheProbe::Miss => {}
            CacheProbe::Corrupt(_) => replaced_corrupt = true,
        }
    }

    let start = Instant::now();
    let mut attempts: u32 = 1;
    let mut result = attempt(s, &s.opts, runner);
    if result.is_err() && retry {
        attempts = 2;
        result = attempt(s, &tightened_budget(&s.opts), runner);
    }
    let elapsed_ms = start.elapsed().as_millis() as u64;

    match result {
        Ok(report) => {
            let rec = ScenarioRecord {
                key: s.key,
                crate_version: env!("CARGO_PKG_VERSION").to_string(),
                label: s.label.clone(),
                verdict: report.verdict,
                bounds: report.bounds,
                screen: report.screen,
                elapsed_ms,
                attempts,
            };
            if let Some(cache) = cache {
                cache.store(&rec, index as u64)?;
            }
            Ok(ScenarioOutcome {
                index,
                label: s.label.clone(),
                key: s.key,
                from_cache: false,
                replaced_corrupt,
                result: Ok(rec),
            })
        }
        Err(fault) => Ok(ScenarioOutcome {
            index,
            label: s.label.clone(),
            key: s.key,
            from_cache: false,
            replaced_corrupt,
            result: Err(ScenarioError {
                index,
                key: s.key,
                label: s.label.clone(),
                attempts,
                fault,
            }),
        }),
    }
}

/// One certification attempt with panic isolation.
fn attempt(
    s: &PreparedScenario,
    opts: &CertifyOptions,
    runner: CertifyRunner<'_>,
) -> Result<StabilityReport, ScenarioFault> {
    match catch_unwind(AssertUnwindSafe(|| runner(&s.plant, &s.table, opts))) {
        Ok(Ok(report)) => Ok(report),
        Ok(Err(e)) => Err(ScenarioFault::Failed(e.to_string())),
        Err(payload) => Err(ScenarioFault::Panicked(panic_message(payload))),
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
