//! `l15-benchmark` — end-to-end and per-layer performance of the L1.5
//! stack, measured from outside through each crate's public API.
//!
//! ```text
//! l15-benchmark run <workload> [--seed N] [--quick] [--out DIR]
//! l15-benchmark --workload <name> --seed N --seconds S --trace 0|1
//! l15-benchmark compare A B
//! l15-benchmark merge DIR
//! l15-benchmark manifest
//! ```
//!
//! `run` is what `benchmark/run.sh` calls once per workload: set-up, a
//! timed run with tracing off, a traced run, every check; it prints every
//! metric by name and writes `DIR/<workload>.json` and
//! `DIR/trace-<workload>.json`. The flag-only form is the driver's: one
//! run of one kind, ending in a single JSON result line.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

mod compare;
mod harness;
mod ladder;
mod manifest;
mod report;
mod span;
mod stats;
mod suite;
mod workloads;

use suite::Options;

const USAGE: &str = "usage:
  l15-benchmark run <workload> [--seed N] [--quick] [--out DIR]
  l15-benchmark --workload <name> --seed N --seconds S --trace 0|1
  l15-benchmark compare A B
  l15-benchmark merge DIR
  l15-benchmark manifest";

/// Removes `flag` and its value from `args`.
fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Ok(Some(value))
}

fn take_number<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
) -> Result<Option<T>, String> {
    take_value(args, flag)?
        .map(|v| v.parse().map_err(|_| format!("{flag}: `{v}` is not a number")))
        .transpose()
}

fn write(dir: &Path, file: String, text: String) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// `run <workload> …`: the whole run shape, for people and for `out/`.
fn cmd_run(mut args: Vec<String>, start: Instant) -> Result<bool, String> {
    let seed = take_number(&mut args, "--seed")?.unwrap_or(1);
    let out = take_value(&mut args, "--out")?.map(PathBuf::from);
    let quick = args.iter().any(|a| a == "--quick");
    args.retain(|a| a != "--quick");
    let [workload] = args.as_slice() else {
        return Err(format!("run takes one workload name\n{USAGE}"));
    };
    let opts = Options {
        workload: workload.clone(),
        seed,
        timed_s: Some(if quick { 0.5 } else { manifest::RUN_SECONDS as f64 }),
        traced_s: Some(if quick { 0.3 } else { 4.0 }),
        setup_repeats: 1,
        quick,
    };
    let outcome = suite::run(&opts, start)?;
    print!("{}", outcome.report.human());
    if let Some(dir) = out {
        write(&dir, format!("{workload}.json"), outcome.report.to_json())?;
        let trace = report::trace_json(workload, &outcome.recordings);
        write(&dir, format!("trace-{workload}.json"), trace)?;
    }
    Ok(outcome.report.correct())
}

/// The driver's form: one kind of run, one JSON line last on stdout.
fn cmd_driver(mut args: Vec<String>, start: Instant) -> Result<bool, String> {
    let workload = take_value(&mut args, "--workload")?.ok_or("--workload is required")?;
    let seed = take_number(&mut args, "--seed")?.unwrap_or(1);
    let seconds: f64 = take_number(&mut args, "--seconds")?.unwrap_or(manifest::RUN_SECONDS as f64);
    let trace = match take_value(&mut args, "--trace")?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    if let Some(extra) = args.first() {
        return Err(format!("unknown argument `{extra}`\n{USAGE}"));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    let opts = Options {
        workload,
        seed,
        timed_s: (!trace).then_some(seconds),
        // The layers' extra work after the op loop takes the rest of the
        // traced run's time.
        traced_s: trace.then_some(seconds * 0.4),
        setup_repeats: if trace { 1 } else { 3 },
        quick: false,
    };
    let outcome = suite::run(&opts, start)?;
    eprint!("{}", outcome.report.human());
    println!("{}", outcome.report.driver_line(trace));
    Ok(outcome.report.correct())
}

fn cmd_merge(dir: &Path) -> Result<(), String> {
    let docs = workloads::WORKLOADS
        .iter()
        .map(|(name, _)| {
            let path = dir.join(format!("{name}.json"));
            let doc =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(((*name).to_owned(), doc))
        })
        .collect::<Result<Vec<_>, String>>()?;
    println!("{}", report::merge_json(&docs));
    Ok(())
}

fn dispatch(args: Vec<String>, start: Instant) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(args[1..].to_vec(), start),
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(Path::new(a), Path::new(b)).map(|fail| !fail),
            _ => Err(format!("compare takes two result sets\n{USAGE}")),
        },
        Some("merge") => match &args[1..] {
            [dir] => cmd_merge(Path::new(dir)).map(|()| true),
            _ => Err(format!("merge takes one directory\n{USAGE}")),
        },
        Some("manifest") => {
            print!("{}", manifest::benchmark_json());
            Ok(true)
        }
        Some(flag) if flag.starts_with("--") => cmd_driver(args, start),
        _ => Err(USAGE.to_owned()),
    }
}

fn main() -> ExitCode {
    let start = Instant::now();
    // The in-process server fans onto `L15_JOBS` pool workers; pin them so
    // a run does not depend on the box's core count. Set before any thread
    // exists; an explicit `L15_JOBS` wins.
    if std::env::var_os(l15_testkit::pool::JOBS_ENV).is_none() {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::env::set_var(l15_testkit::pool::JOBS_ENV, nproc.min(2).to_string());
    }
    match dispatch(std::env::args().skip(1).collect(), start) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("l15-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
