//! `overrun-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload on one worker thread and prints, last on stdout, one
//! JSON line with exactly `correct`, `attempted`, `failed` and `metrics`
//! (end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`, which needs the `trace` feature). The line before it is
//! the run's record. Exits non-zero when an output fails its check.
//!
//! `--bless` instead rewrites the workload's reference from one iteration
//! at the reference seed.

use std::path::PathBuf;
use std::process::ExitCode;

use overrun_perfbench::check::Reference;
use overrun_perfbench::metrics::{self, push_json_str};
use overrun_perfbench::run::{run_end_to_end, Outcome};
use overrun_perfbench::workloads::{
    nominal_floors, reference_path, run_iteration, DriverInputs, Inputs, Scale, Workload,
    REFERENCE_SEED,
};

type Floors = std::collections::BTreeMap<String, f64>;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = REFERENCE_SEED;
    let mut seconds = 40.0;
    let mut trace = false;
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    let mut bless = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--work-dir" => work_dir = PathBuf::from(value()?),
            "--bless" => bless = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        work_dir,
        bless,
    })
}

fn bless(args: &Args, inputs: &Inputs) -> Result<(), String> {
    if args.seed != REFERENCE_SEED {
        return Err(format!(
            "--bless runs at the reference seed {REFERENCE_SEED}"
        ));
    }
    let it = run_iteration(inputs, false);
    let items = it.items?;
    if let Some(f) = it.failures.first() {
        return Err(f.clone());
    }
    let reference = Reference::from_items(args.seed, inputs.cfg.num_sequences, &items);
    let path = reference_path(args.workload);
    let header = format!(
        "{}: reference outputs (written by `overrun-perfbench --workload {} --bless`)",
        args.workload.name(),
        args.workload.name()
    );
    std::fs::write(&path, reference.to_text(&header))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {} ({} items)", path.display(), items.len());
    Ok(())
}

#[cfg(feature = "trace")]
fn run_traced(args: &Args, inputs: &Inputs, floors: &Floors) -> Outcome {
    let path = args
        .work_dir
        .join(format!("{}.trace.jsonl", args.workload.name()));
    overrun_perfbench::layers::run_traced(inputs, floors, &path)
}

#[cfg(not(feature = "trace"))]
fn run_traced(_args: &Args, _inputs: &Inputs, _floors: &Floors) -> Outcome {
    Outcome {
        correct: false,
        attempted: 1,
        failed: 1,
        metrics: Vec::new(),
        failures: vec!["--trace 1 needs a build with `--features trace`".into()],
        details: Vec::new(),
    }
}

fn record_line(args: &Args, inputs: &Inputs, out: &Outcome) -> String {
    let mut s = String::from("{\"perfbench_record\": {\"workload\": ");
    push_json_str(&mut s, args.workload.name());
    s.push_str(&format!(
        ", \"seed\": {}, \"seconds\": {:?}, \"trace\": {}, \"threads\": {}, \"sequences\": {}, \"jobs\": {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        overrun_par::max_threads(),
        inputs.cfg.num_sequences,
        inputs.cfg.jobs_per_sequence
    ));
    for (key, value) in &out.details {
        s.push_str(", ");
        push_json_str(&mut s, key);
        s.push_str(": ");
        s.push_str(value);
    }
    s.push_str(", \"failures\": [");
    for (i, f) in out.failures.iter().take(20).enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        push_json_str(&mut s, f);
    }
    s.push_str("]}}");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // One worker thread: the host is small and shared, and every result
    // is bit-identical at any thread count.
    overrun_par::set_thread_override(Some(1));

    let inputs = match Inputs::setup(args.workload, Scale::Bench, args.seed, &args.work_dir) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("error: set-up failed: {e}");
            return ExitCode::from(1);
        }
    };

    if args.bless {
        return match bless(&args, &inputs) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(1)
            }
        };
    }

    // The check's nominal-cost floors do not depend on the seed: computed
    // once, outside the timed set-up.
    let floors = match nominal_floors(&inputs) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: nominal costs: {e}");
            return ExitCode::from(1);
        }
    };
    let out = if args.trace {
        run_traced(&args, &inputs, &floors)
    } else {
        let setup = || DriverInputs::build(args.workload, Scale::Bench, args.seed);
        run_end_to_end(&inputs, &setup, &floors, args.seconds)
    };
    for f in &out.failures {
        eprintln!("check failed: {f}");
    }
    println!("{}", record_line(&args, &inputs, &out));
    println!(
        "{}",
        metrics::result_line(out.correct, out.attempted, out.failed, &out.metrics)
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
