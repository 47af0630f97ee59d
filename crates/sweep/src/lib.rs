//! # overrun-sweep — memoized batch certification sweeps
//!
//! The paper's workflow certifies `JSR({Ω(h) : h ∈ H}) < 1` for every
//! candidate design point (plant × `Rmax` × `Ns` × policy) — an
//! embarrassingly sweepable workload that the bench binaries used to
//! recompute from scratch on every run. This crate turns it into a batch
//! engine with:
//!
//! - **Declarative grids** ([`GridSpec`] → [`Scenario`] →
//!   [`PreparedScenario`]): the cartesian product of plants, periods,
//!   `Rmax` factors, oversampling factors and design policies, expanded
//!   deterministically.
//! - **Content-addressed memoization** ([`ResultCache`]): each scenario is
//!   keyed by a hand-rolled FNV-128 hash over the *materialized* inputs —
//!   plant matrices, controller table, certification budget, certifier
//!   revision (`stability::CERTIFIER_REVISION`) — with every `f64` hashed
//!   by exact bit pattern
//!   ([`certification_key`]). Records round-trip byte-exactly
//!   ([`ScenarioRecord`]), in the same human-readable-but-exact style as
//!   the trace JSONL.
//! - **Deterministic parallelism** ([`run_sweep`]): scenarios run on the
//!   `overrun-par` workers, order-preserving, so sweep reports are
//!   bit-identical at any thread count.
//! - **Resume through the cache**: a killed sweep rerun over the same
//!   cache directory replays every stored record (re-verified on load)
//!   and recomputes only what the kill lost.
//! - **Fault isolation**: a diverging or `sanitize`-poisoned scenario is
//!   caught (`catch_unwind`), retried once at a tightened budget, and on a
//!   second fault recorded as a structured [`ScenarioError`] while the
//!   sweep continues.
//!
//! The bench binaries (`table2`, `ts_tradeoff`) send each certification
//! through [`run_sweep`] over a one-scenario slice when run with
//! `--cache DIR`, so they hit the same records the declarative path
//! writes — their CSV output stays byte-identical to the direct path.
//!
//! ```
//! use overrun_control::{plants, stability::CertifyOptions};
//! use overrun_sweep::{
//!     run_sweep, DesignPolicy, GridSpec, SweepOptions,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let grid = GridSpec {
//!     plants: vec![("uso".into(), plants::unstable_second_order())],
//!     periods: vec![0.010],
//!     rmax_factors: vec![1.3],
//!     ns_values: vec![2],
//!     policies: vec![("adaptive".into(), DesignPolicy::PiAdaptive)],
//!     opts: CertifyOptions::default(),
//! };
//! let prepared = grid
//!     .expand()
//!     .iter()
//!     .map(|s| s.prepare())
//!     .collect::<Result<Vec<_>, _>>()?;
//! let report = run_sweep(&prepared, &SweepOptions::default())?;
//! assert_eq!(report.stats.computed, 1);
//! assert!(report.errors().is_empty());
//! # Ok(())
//! # }
//! ```
//!
//! Unlike the certified numeric crates, this crate *owns* wall-clock and
//! filesystem access (elapsed metadata, the on-disk cache), so it is
//! registered in `lint.toml` without the determinism rule — the numeric
//! results it memoizes remain bit-reproducible because the clock never
//! feeds the content key.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod engine;
mod error;
mod hash;
mod record;
mod scenario;

pub use cache::{CacheProbe, ResultCache};
pub use engine::{
    run_sweep, run_sweep_with, tightened_budget, CertifyRunner, ScenarioOutcome, SweepOptions,
    SweepReport, SweepStats,
};
pub use error::{ScenarioError, ScenarioFault, SweepError};
pub use hash::{Canon, ContentHash};
pub use record::{ScenarioRecord, RECORD_HEADER};
pub use scenario::{
    certification_key, DesignPolicy, GainSchedule, GridSpec, PreparedScenario, Scenario,
};
