//! Error types of the sweep engine.
//!
//! Two layers, deliberately separate: [`SweepError`] is *infrastructure*
//! failure (cache I/O) and aborts the sweep; [`ScenarioError`] is a
//! *per-scenario* fault (a certification that diverged, errored, or
//! tripped the `sanitize` poison) and is recorded in the report while the
//! rest of the sweep proceeds.

use std::fmt;
use std::path::PathBuf;

use crate::hash::ContentHash;

/// Infrastructure failure that aborts a sweep.
#[derive(Debug)]
#[non_exhaustive]
pub enum SweepError {
    /// A filesystem operation on the cache failed.
    Io {
        /// File or directory the operation targeted.
        path: PathBuf,
        /// Short verb describing the operation ("create", "read", ...).
        op: &'static str,
        /// Underlying error message.
        msg: String,
    },
    /// A cache record does not parse.
    Parse {
        /// File that failed to parse.
        path: PathBuf,
        /// 1-based line number of the offending line (0 = whole file).
        line: usize,
        /// What was expected.
        msg: String,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Io { path, op, msg } => {
                write!(f, "cache i/o: {op} {}: {msg}", path.display())
            }
            SweepError::Parse { path, line, msg } => {
                write!(f, "corrupt record {}:{line}: {msg}", path.display())
            }
        }
    }
}

impl std::error::Error for SweepError {}

impl SweepError {
    pub(crate) fn io(path: &std::path::Path, op: &'static str, e: std::io::Error) -> Self {
        SweepError::Io {
            path: path.to_path_buf(),
            op,
            msg: e.to_string(),
        }
    }
}

/// How a single scenario failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioFault {
    /// The certification returned an error (design, lifting, or JSR
    /// machinery failure).
    Failed(String),
    /// The certification panicked — in practice the `sanitize` feature
    /// poisoning a NaN/Inf at the producing kernel, or an internal
    /// invariant breach.
    Panicked(String),
}

impl fmt::Display for ScenarioFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioFault::Failed(msg) => write!(f, "failed: {msg}"),
            ScenarioFault::Panicked(msg) => write!(f, "panicked: {msg}"),
        }
    }
}

/// Structured record of a scenario that could not be certified, kept in
/// the [`crate::SweepReport`] instead of aborting the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// Index of the scenario in the input grid.
    pub index: usize,
    /// Content key of the scenario (its would-be cache address).
    pub key: ContentHash,
    /// Human label of the scenario.
    pub label: String,
    /// Certification attempts made (1, or 2 when the tightened-budget
    /// retry also failed).
    pub attempts: u32,
    /// The fault of the **last** attempt.
    pub fault: ScenarioFault,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scenario #{} ({}) after {} attempt(s): {}",
            self.index, self.label, self.attempts, self.fault
        )
    }
}
