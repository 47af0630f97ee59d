//! The benchmark's own tests. Run them optimized:
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! cargo test --release --manifest-path perfbench/Cargo.toml --features trace
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;

use overrun_jsr::StabilityVerdict;
use overrun_perfbench::check::{check, CheckContext, Item, Reference, Value};
use overrun_perfbench::metrics::{END_TO_END, PER_LAYER};
use overrun_perfbench::run::run_end_to_end;
use overrun_perfbench::workloads::{
    nominal_floors, reference_path, run_iteration, DriverInputs, Inputs, Scale, Workload,
    REFERENCE_SEED,
};

/// With the `trace` feature on, the trace sink is process-wide: tests
/// that run workloads take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn smoke(workload: Workload, seed: u64) -> Inputs {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-work");
    Inputs::setup(workload, Scale::Smoke, seed, &work).expect("smoke set-up")
}

fn reference(workload: Workload) -> Reference {
    Reference::parse(&std::fs::read_to_string(reference_path(workload)).expect("reference file"))
        .expect("reference parses")
}

fn well_formed_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

/// The `"name"` values listed under `key` in `BENCHMARK.json`.
fn declared_names(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let section = &json[start..];
    let end = section.find(']').expect("list closes");
    section[..end]
        .split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn metric_names_and_units_are_well_formed_and_unique() {
    let mut seen = BTreeMap::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(well_formed_name(name), "bad metric name {name}");
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit} of {name}"
        );
        assert!(seen.insert(*name, ()).is_none(), "{name} listed twice");
    }
    for w in Workload::ALL {
        assert!(well_formed_name(w.name()));
    }
}

#[test]
fn benchmark_json_declares_exactly_what_the_binary_reports() {
    let json = std::fs::read_to_string(manifest_dir().join("..").join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let names = |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(declared_names(&json, "end_to_end"), names(&END_TO_END));
    assert_eq!(declared_names(&json, "per_layer"), names(&PER_LAYER));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(declared_names(&json, "workloads"), workloads);
}

#[test]
fn every_workload_reports_each_end_to_end_metric() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for w in Workload::ALL {
        let inputs = smoke(w, 5);
        let floors = nominal_floors(&inputs).expect("nominal costs");
        let setup = || DriverInputs::build(w, Scale::Smoke, 5);
        let out = run_end_to_end(&inputs, &setup, &floors, 0.0);
        assert!(out.correct, "{}: {:?}", w.name(), out.failures);
        assert!(out.attempted > 0 && out.failed == 0);
        let got: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(got, want, "{}", w.name());
        for (name, unit, value) in &out.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{}: {name} = {value} {unit}",
                w.name()
            );
        }
    }
}

#[cfg(feature = "trace")]
#[test]
fn every_workload_reports_each_per_layer_metric() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for w in Workload::ALL {
        let inputs = smoke(w, 5);
        let path = inputs.work_dir.join(format!("{}.trace.jsonl", w.name()));
        let floors = nominal_floors(&inputs).expect("nominal costs");
        let out = overrun_perfbench::layers::run_traced(&inputs, &floors, &path);
        assert!(out.correct, "{}: {:?}", w.name(), out.failures);
        let got: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(got, want, "{}", w.name());
        let value = |name: &str| out.metrics.iter().find(|m| m.0 == name).map(|m| m.2);
        match w {
            Workload::Table1PiMc => assert!(value("mc.jobs") > Some(0.0)),
            Workload::CertifyGrid => {
                assert_eq!(value("sweep.computed"), value("sweep.cache_hits"));
                assert!(value("jsr.ellipsoid.self_s") > Some(0.0));
            }
            _ => assert!(value("driver.certify_calls") > Some(0.0)),
        }
    }
}

fn reference_items(r: &Reference) -> Vec<Item> {
    r.items
        .iter()
        .map(|(id, v)| Item {
            id: id.clone(),
            value: v.clone(),
        })
        .collect()
}

#[test]
fn check_catches_a_perturbed_jw_and_a_flipped_verdict() {
    let r = reference(Workload::Table2Lqr);
    let floors = BTreeMap::new();
    let ctx = CheckContext {
        reference: &r,
        seed: REFERENCE_SEED,
        sequences: r.sequences,
        floors: &floors,
        complete: true,
    };
    let items = reference_items(&r);
    assert!(check(&items, &ctx).is_empty());

    let mut perturbed = items.clone();
    let cost = perturbed
        .iter_mut()
        .find_map(|it| match &mut it.value {
            Value::Cost(Some(c)) => Some(c),
            _ => None,
        })
        .expect("a finite J_w");
    *cost *= 1.0 + 1e-6;
    assert_eq!(check(&perturbed, &ctx).len(), 1);

    let mut flipped = items.clone();
    let verdict = flipped
        .iter_mut()
        .find_map(|it| match &mut it.value {
            Value::Verdict { verdict, .. } => Some(verdict),
            _ => None,
        })
        .expect("a verdict");
    *verdict = StabilityVerdict::Unstable;
    assert_eq!(check(&flipped, &ctx).len(), 1);

    let mut missing = items.clone();
    missing.pop();
    assert_eq!(check(&missing, &ctx).len(), 1);
}

#[test]
fn check_at_another_seed_keeps_the_seed_free_invariants() {
    let r = reference(Workload::Table2Lqr);
    let items = reference_items(&r);
    let (id, jw) = items
        .iter()
        .find_map(|it| match it.value {
            Value::Cost(Some(c)) => Some((it.id.clone(), c)),
            _ => None,
        })
        .expect("a finite J_w");
    let with_cost = |cost: Option<f64>| -> Vec<Item> {
        let mut v = items.clone();
        for it in &mut v {
            if it.id == id {
                it.value = Value::Cost(cost);
            }
        }
        v
    };
    let failures = |items: &[Item], floors: &BTreeMap<String, f64>| {
        let ctx = CheckContext {
            reference: &r,
            seed: REFERENCE_SEED + 1,
            sequences: r.sequences,
            floors,
            complete: true,
        };
        check(items, &ctx).len()
    };
    // Away from the reference seed J_w may move, but not below the
    // nominal cost, not to "unstable", and not to a non-finite value.
    let no_floors = BTreeMap::new();
    assert_eq!(failures(&with_cost(Some(jw * 1.5)), &no_floors), 0);
    let floors = BTreeMap::from([(id.clone(), jw * 2.0)]);
    assert_eq!(failures(&with_cost(Some(jw * 1.5)), &floors), 1);
    assert_eq!(failures(&with_cost(None), &no_floors), 1);
    assert_eq!(failures(&with_cost(Some(f64::INFINITY)), &no_floors), 1);
}

#[test]
fn check_flags_a_flipped_verdict_in_a_real_run() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let inputs = smoke(Workload::Table2Lqr, 3);
    let mut items = run_iteration(&inputs, false).items.expect("driver runs");
    let ctx = CheckContext {
        reference: &inputs.reference,
        seed: inputs.seed,
        sequences: inputs.cfg.num_sequences,
        floors: &BTreeMap::new(),
        complete: false,
    };
    assert!(check(&items, &ctx).is_empty());
    for it in &mut items {
        if let Value::Verdict { verdict, .. } = &mut it.value {
            *verdict = StabilityVerdict::Unknown;
        }
    }
    assert_eq!(check(&items, &ctx).len(), inputs.cells().len());
}

#[test]
fn the_seed_changes_monte_carlo_inputs_but_not_verdicts() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let w = Workload::Table2Lqr;
    let a = run_iteration(&smoke(w, 1), false)
        .items
        .expect("driver runs");
    let b = run_iteration(&smoke(w, 2), false)
        .items
        .expect("driver runs");
    let split = |items: &[Item]| {
        let verdicts: Vec<Item> = items
            .iter()
            .filter(|i| matches!(i.value, Value::Verdict { .. } | Value::Exact(_)))
            .cloned()
            .collect();
        let costs: Vec<Item> = items
            .iter()
            .filter(|i| matches!(i.value, Value::Cost(_)))
            .cloned()
            .collect();
        (verdicts, costs)
    };
    let (va, ca) = split(&a);
    let (vb, cb) = split(&b);
    assert!(!va.is_empty() && !ca.is_empty());
    assert_eq!(
        va,
        vb,
        "{}: verdicts and seed-free costs must not depend on the seed",
        w.name()
    );
    assert_ne!(
        ca,
        cb,
        "{}: the seed must change the Monte Carlo sequences",
        w.name()
    );
}
