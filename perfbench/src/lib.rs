//! The repository benchmark: the paper's workloads timed through the
//! public drivers on one worker thread, with an output check against a
//! stored reference and a traced per-layer breakdown. See `README.md`.

#![forbid(unsafe_code)]

pub mod check;
#[cfg(feature = "trace")]
pub mod layers;
pub mod metrics;
pub mod run;
pub mod workloads;
