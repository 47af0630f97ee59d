//! The output check: every workload's results, compared against a stored
//! reference.
//!
//! A run turns its driver outputs into [`Item`]s and [`check`] compares
//! them with the reference file of its workload (`reference/<name>.txt`):
//!
//! - a verdict must equal the reference verdict, and its `[LB, UB]` must
//!   overlap the reference interval (tighter bounds still pass);
//! - a seed-free number (a nominal cost) must match within `1e-9`
//!   relative at any seed;
//! - a worst-case cost `J_w` must match within `1e-9` relative at the
//!   reference seed and size; at any seed it must be finite exactly where
//!   the reference is, and at least the design's nominal cost.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use overrun_jsr::StabilityVerdict;

/// Relative tolerance of every numeric comparison against the reference.
pub const REL_TOL: f64 = 1e-9;

/// One checked output of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Item {
    /// Stable identifier, e.g. `r1.6_ns2_lqr-adaptive`.
    pub id: String,
    /// The output value.
    pub value: Value,
}

/// The kinds of checked outputs.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A stability certificate.
    Verdict {
        /// Certified verdict.
        verdict: StabilityVerdict,
        /// Certified lower bound on the JSR.
        lb: f64,
        /// Certified upper bound on the JSR.
        ub: f64,
    },
    /// A Monte Carlo worst-case cost; `None` is the driver's "unstable".
    Cost(Option<f64>),
    /// A number that does not depend on the seed.
    Exact(f64),
}

impl Item {
    /// A verdict item.
    pub fn verdict(id: String, verdict: StabilityVerdict, lb: f64, ub: f64) -> Item {
        Item {
            id,
            value: Value::Verdict { verdict, lb, ub },
        }
    }

    /// A worst-case cost item.
    pub fn cost(id: String, jw: Option<f64>) -> Item {
        Item {
            id,
            value: Value::Cost(jw),
        }
    }

    /// A seed-free number.
    pub fn exact(id: String, v: f64) -> Item {
        Item {
            id,
            value: Value::Exact(v),
        }
    }
}

/// The stored reference outputs of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Seed the `J_w` values were produced with.
    pub seed: u64,
    /// Monte Carlo sequences per evaluation the `J_w` values used.
    pub sequences: usize,
    /// Reference items by id.
    pub items: BTreeMap<String, Value>,
}

impl Reference {
    /// Builds a reference from a run's items.
    pub fn from_items(seed: u64, sequences: usize, items: &[Item]) -> Reference {
        Reference {
            seed,
            sequences,
            items: items
                .iter()
                .map(|it| (it.id.clone(), it.value.clone()))
                .collect(),
        }
    }

    /// Serializes the reference; floats use Rust's shortest round-trip
    /// form, so [`Reference::parse`] restores them bit for bit.
    pub fn to_text(&self, header: &str) -> String {
        let mut s = format!(
            "# {header}\nseed {}\nsequences {}\n",
            self.seed, self.sequences
        );
        for (id, v) in &self.items {
            match v {
                Value::Verdict { verdict, lb, ub } => {
                    let _ = writeln!(s, "verdict {id} {verdict} {lb:?} {ub:?}");
                }
                Value::Cost(Some(c)) => {
                    let _ = writeln!(s, "cost {id} {c:?}");
                }
                Value::Cost(None) => {
                    let _ = writeln!(s, "cost {id} unstable");
                }
                Value::Exact(x) => {
                    let _ = writeln!(s, "exact {id} {x:?}");
                }
            }
        }
        s
    }

    /// Parses [`Reference::to_text`] output.
    ///
    /// # Errors
    ///
    /// Returns the offending line for any malformed or duplicate entry.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut seed = None;
        let mut sequences = None;
        let mut items = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("reference line {}: `{line}`", n + 1);
            let f: Vec<&str> = line.split_whitespace().collect();
            let num = |s: &str| s.parse::<f64>().map_err(|_| bad());
            let (id, value) = match f.as_slice() {
                ["seed", v] => {
                    seed = Some(v.parse::<u64>().map_err(|_| bad())?);
                    continue;
                }
                ["sequences", v] => {
                    sequences = Some(v.parse::<usize>().map_err(|_| bad())?);
                    continue;
                }
                ["verdict", id, v, lb, ub] => {
                    let verdict = match *v {
                        "stable" => StabilityVerdict::Stable,
                        "unstable" => StabilityVerdict::Unstable,
                        _ => return Err(bad()),
                    };
                    let (lb, ub) = (num(lb)?, num(ub)?);
                    (id, Value::Verdict { verdict, lb, ub })
                }
                ["cost", id, "unstable"] => (id, Value::Cost(None)),
                ["cost", id, c] => (id, Value::Cost(Some(num(c)?))),
                ["exact", id, x] => (id, Value::Exact(num(x)?)),
                _ => return Err(bad()),
            };
            if items.insert((*id).to_string(), value).is_some() {
                return Err(bad());
            }
        }
        Ok(Reference {
            seed: seed.ok_or("reference has no `seed` line")?,
            sequences: sequences.ok_or("reference has no `sequences` line")?,
            items,
        })
    }
}

/// What a run's items are checked against.
#[derive(Debug, Clone, Copy)]
pub struct CheckContext<'a> {
    /// The workload's reference.
    pub reference: &'a Reference,
    /// The run's seed.
    pub seed: u64,
    /// The run's Monte Carlo sequences per evaluation.
    pub sequences: usize,
    /// Nominal (no-overrun) cost of each design, by cost id: a lower
    /// bound on its `J_w`.
    pub floors: &'a BTreeMap<String, f64>,
    /// Whether the run covers the whole reference (every reference item
    /// must then be present).
    pub complete: bool,
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * b.abs()
}

/// Checks a run's items; returns one message per failed item (empty when
/// everything passes).
pub fn check(items: &[Item], ctx: &CheckContext<'_>) -> Vec<String> {
    let exact_jw = ctx.seed == ctx.reference.seed && ctx.sequences == ctx.reference.sequences;
    let mut failures = Vec::new();
    let mut seen = BTreeSet::new();
    for it in items {
        if !seen.insert(it.id.as_str()) {
            failures.push(format!("{}: reported twice", it.id));
            continue;
        }
        let Some(want) = ctx.reference.items.get(&it.id) else {
            failures.push(format!("{}: not in the reference", it.id));
            continue;
        };
        let ok = match (&it.value, want) {
            (
                Value::Verdict { verdict, lb, ub },
                Value::Verdict {
                    verdict: rv,
                    lb: rlb,
                    ub: rub,
                },
            ) => verdict == rv && *verdict != StabilityVerdict::Unknown && lb <= rub && rlb <= ub,
            (Value::Exact(x), Value::Exact(r)) => close(*x, *r),
            (Value::Cost(None), Value::Cost(None)) => true,
            (Value::Cost(Some(c)), Value::Cost(Some(r))) => {
                let floor = ctx.floors.get(&it.id).copied().unwrap_or(f64::NEG_INFINITY);
                c.is_finite() && *c >= floor - REL_TOL * floor.abs() && (!exact_jw || close(*c, *r))
            }
            _ => false,
        };
        if !ok {
            failures.push(format!(
                "{}: got {:?}, reference {:?}",
                it.id, it.value, want
            ));
        }
    }
    if ctx.complete {
        for id in ctx.reference.items.keys() {
            if !seen.contains(id.as_str()) {
                failures.push(format!("{id}: missing from the output"));
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_text_round_trips_bit_for_bit() {
        let items = vec![
            Item::verdict("a".into(), StabilityVerdict::Stable, 0.1 + 0.2, 1.0 / 3.0),
            Item::verdict("b".into(), StabilityVerdict::Unstable, 1.02, 1.05),
            Item::cost("c".into(), Some(123.456_789_012_345_67)),
            Item::cost("d".into(), None),
            Item::exact("e".into(), 6.02e-23),
        ];
        let r = Reference::from_items(7, 100, &items);
        assert_eq!(Reference::parse(&r.to_text("test")).unwrap(), r);
    }

    #[test]
    fn malformed_reference_lines_are_rejected() {
        assert!(Reference::parse("seed 1\nsequences 2\nverdict x maybe 0.1 0.2\n").is_err());
        assert!(Reference::parse("seed 1\nsequences 2\ncost x 1\ncost x 2\n").is_err());
        assert!(Reference::parse("sequences 2\n").is_err());
    }
}
