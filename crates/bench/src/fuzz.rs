//! `l15 fuzz`: parallel regression fuzzer for the L1.5 memory subsystem.
//!
//! Generates per-core op streams from shared/private address pools
//! (FlexiCAS `ParallelRegressionGen` style), executes them on a real SoC
//! and judges only what the run shows: every load and the final image
//! against a flat sequential memory oracle, the run's always-on counters
//! against the case's clean contract (plus exact accounting and the
//! absint bounds on clean runs), and R6, the Walloc model check. Any
//! divergence is shrunk to a minimal replayable case with its
//! `L15_PROP_SEED` printed.
//!
//! ```sh
//! # sweep generated cases (quick profile under --quick); `l15 fuzz` alone
//! # is `l15 fuzz run`
//! l15 fuzz run --quick --cases 8 --seed 1
//! # replay (and re-shrink) one seed, as printed by `run`
//! l15 fuzz replay --quick --seed 0x1282c5cd2debcee8
//! L15_PROP_SEED=0x1282c5cd2debcee8 l15 fuzz replay
//! # replay the seeded regression corpus
//! l15 fuzz corpus crates/testkit/corpus/fuzz
//! ```
//!
//! Case seeds derive from the master seed via `l15_testkit::pool`
//! per-item SplitMix64 streams and results return in index order, so the
//! report is byte-identical at any `L15_JOBS`.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use l15_check::fuzz::{
    case_from_seed, check_case, clean_case_property, parse_corpus_entry, sweep, FuzzBug,
};
use l15_testkit::cli::Parsed;
use l15_testkit::fuzz::FuzzKnobs;
use l15_testkit::pool::payload_message;
use l15_testkit::prop;

use crate::{env_seed, file_name, files_in, Error, Outcome};

/// The injectable bugs by their `--bug` names, in protocol order.
const BUGS: [(&str, FuzzBug); 5] = [
    ("drop-ip-set", FuzzBug::DropIpSet),
    ("leak-ways", FuzzBug::LeakWays),
    ("skip-gv-set", FuzzBug::SkipGvSet),
    ("foreign-tid", FuzzBug::ForeignTid),
    ("stuck-walloc", FuzzBug::StuckWalloc),
];

/// The `--bug` class, if given.
fn bug(p: &Parsed) -> Result<Option<FuzzBug>, Error> {
    let Some(name) = p.string("--bug") else { return Ok(None) };
    let valid = BUGS.map(|(n, _)| n).join(", ");
    let found = BUGS.iter().find(|(n, _)| *n == name).map(|&(_, b)| Some(b));
    found.ok_or_else(|| Error::Usage(format!("unknown bug class {name:?}; valid: {valid}")))
}

fn knobs_for(quick: bool) -> FuzzKnobs {
    if quick {
        FuzzKnobs::quick()
    } else {
        FuzzKnobs::default()
    }
}

/// Replays `seed` through the shrinker, printing either a clean line or
/// the shrunk counterexample with its `L15_PROP_SEED` repro. Returns
/// whether the seed is clean.
fn shrink_and_report(knobs: &FuzzKnobs, seed: u64) -> bool {
    // Shrinking replays failing cases on purpose; keep the default hook's
    // per-replay backtrace spam off stderr.
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        prop::check_seed("l15_fuzz_case", seed, clean_case_property(knobs));
    }));
    match outcome {
        Ok(()) => {
            println!("seed {seed:#018x}: clean");
            true
        }
        Err(payload) => {
            println!("{}", payload_message(payload.as_ref()));
            println!(
                "corpus entry for this finding:\n\
                 seed = {seed:#x}\nops = {}\ncores = {}\nclusters = {}\nways = {}\n\
                 private = {}\nshared = {}\narrivals = {}",
                knobs.ops,
                knobs.cores,
                knobs.clusters,
                knobs.ways,
                knobs.private_slots,
                knobs.shared_slots,
                knobs.arrivals
            );
            false
        }
    }
}

/// `fuzz [run] [--quick] [--cases N] [--seed S] [--bug CLASS]`: sweeps
/// generated cases (default 8 quick / 32 full, master seed `L15_SEED`),
/// optionally with one rule class's bug injected.
pub fn run(p: &Parsed) -> Outcome {
    let bug = bug(p)?;
    let knobs = knobs_for(p.quick);
    let cases = p.value_or("--cases", if p.quick { 8 } else { 32 }) as usize;
    let master_seed = p.value_or("--seed", env_seed());
    println!(
        "l15-fuzz: {cases} case(s), master seed {master_seed}, {} ops x {} cores, \
         {}+{} slots{}",
        knobs.ops,
        knobs.cores,
        knobs.private_slots,
        knobs.shared_slots,
        match bug {
            Some(b) => format!(", injected {b:?}"),
            None => String::new(),
        }
    );
    let outcomes = sweep(&knobs, master_seed, cases, bug);
    let mut failing: Vec<u64> = Vec::new();
    let mut findings = 0usize;
    for o in &outcomes {
        let v = &o.verdict;
        if v.is_clean() {
            println!("case {:>4} seed {:#018x} [{}]: clean", o.index, o.seed, o.summary);
        } else {
            let n = v.divergences.len() + v.soundness.len() + v.findings.len();
            findings += n;
            println!("case {:>4} seed {:#018x} [{}]: {n} finding(s)", o.index, o.seed, o.summary);
            print!("{}", v.render(&format!("  case {}", o.index)));
            failing.push(o.seed);
        }
    }
    // Shrink clean-contract failures to minimal replayable cases (an
    // injected bug is expected to fail, so there is nothing to shrink).
    if bug.is_none() {
        for seed in failing {
            shrink_and_report(&knobs, seed);
        }
    }
    println!("l15-fuzz: {} case(s), {findings} finding(s)", outcomes.len());
    Ok(findings == 0)
}

/// `fuzz replay [--quick] [--seed S]`: `--seed` wins, else
/// `L15_PROP_SEED`.
pub fn replay(p: &Parsed) -> Outcome {
    let seed = p.value("--seed").or_else(prop::env_seed).ok_or_else(|| {
        Error::Usage("replay needs --seed S or L15_PROP_SEED=S (decimal or 0x hex)".into())
    })?;
    let knobs = knobs_for(p.quick);
    println!("replaying seed {seed:#018x}: {}", case_from_seed(&knobs, seed).summary());
    Ok(shrink_and_report(&knobs, seed))
}

/// `fuzz corpus <dir>`: replays every `.case` entry of a regression
/// corpus.
pub fn corpus(p: &Parsed) -> Outcome {
    let paths = files_in(Path::new(p.positional(0).unwrap_or_default()), "case")?;
    let mut findings = 0usize;
    for path in &paths {
        let name = file_name(path);
        let text = fs::read_to_string(path).map_err(|e| format!("{name}: {e}"))?;
        let entry = parse_corpus_entry(&text).map_err(|e| format!("{name}: {e}"))?;
        let verdict = check_case(&entry.case());
        if verdict.is_clean() {
            println!("{name}: clean (seed {:#018x})", entry.seed);
        } else {
            findings +=
                verdict.divergences.len() + verdict.soundness.len() + verdict.findings.len();
            print!("{}", verdict.render(&name));
        }
    }
    println!("corpus: {} case(s), {findings} finding(s)", paths.len());
    Ok(findings == 0)
}
