//! `l15` — one command for the whole reproduction, one module per
//! subcommand, one table of subcommands over one flag grammar
//! ([`l15_testkit::cli`]); `l15` alone prints every usage line.
//!
//! | subcommand  | reproduces / does |
//! |-------------|-------------------|
//! | `fig7`      | Fig. 7(a)–(c): average normalised makespan vs `U_i`, `p`, `cpr` |
//! | `table2`    | Tab. 2: worst-case normalised makespan vs `U_i`, `p`, `cpr` |
//! | `fig8ab`    | Fig. 8(a)/(b): success ratios on 8/16-core SoCs |
//! | `fig8c`     | Fig. 8(c): L1.5 utilisation and misconfiguration ratio φ |
//! | `area`      | Sec. 5.4: post-layout area comparison |
//! | `fullstack` | cycle-level proposed-vs-legacy cross-check on the simulated SoC |
//! | `ablation`  | Alg. 1 design ablation, by mean makespan |
//! | `corpus`    | generate / evaluate archived `.dag` corpora |
//! | `cluster`   | federated success ratio vs cluster count |
//! | `absint`    | certified static bounds vs observed cycles |
//! | `online`    | online admission latency and success-ratio curve |
//! | `trace`     | flight-recorder capture, Gantt diff, trace validation |
//! | `fuzz`      | parallel regression fuzzer of the memory subsystem |
//! | `loadgen`   | load generator for a running `l15 serve` |
//! | `check`     | R1–R6 protocol lint of generated programs or `.dag` files |
//! | `serve`     | the scheduling-as-a-service HTTP front-end |
//!
//! Every subcommand accepts `--quick` (a seconds-scale smoke run) and
//! exits 0 clean, 1 on findings or a failed run, 2 on a usage error.
//! Environment knobs: `L15_DAGS` (default 500), `L15_TRIALS` (200),
//! `L15_SEED` (1) and `L15_JOBS` (sweep workers; output is byte-identical
//! at any value). Timing lives in the standalone `benchmark/` package.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use l15_testkit::cli::{self, Grammar, Parsed};

mod ablation;
mod absint;
mod area;
mod check;
mod cluster;
mod corpus;
mod fig7;
mod fig8ab;
mod fig8c;
mod fullstack;
mod fuzz;
mod loadgen;
mod online;
mod serve;
mod table2;
mod trace;

/// Why a subcommand stopped.
#[derive(Debug)]
enum Error {
    /// Bad arguments: reported with the usage lines, exit status 2.
    Usage(String),
    /// The run failed: exit status 1.
    Failed(String),
}

impl From<String> for Error {
    fn from(e: String) -> Self {
        Error::Failed(e)
    }
}

/// A subcommand's result: `Ok(true)` clean (exit 0), `Ok(false)`
/// findings or a failed check (exit 1).
type Outcome = Result<bool, Error>;

/// One row of the subcommand table: `l15 <name> [<verb>] <grammar>`.
struct Command {
    name: &'static str,
    /// The sub-verb (`trace capture`); `None` is the bare form.
    verb: Option<&'static str>,
    grammar: Grammar,
    run: fn(&Parsed) -> Outcome,
}

/// `--quick` and nothing else.
const QUICK: Grammar = Grammar { bools: &[], numbers: &[], strings: &[], positionals: &[] };
const DIR: Grammar = Grammar { positionals: &["<dir>"], ..QUICK };
const GEN: Grammar = Grammar { positionals: &["<dir>", "[count]"], ..QUICK };
const FILE: Grammar = Grammar { positionals: &["<file>"], ..QUICK };
const OUT: Grammar = Grammar { strings: &["--out"], ..QUICK };
const PRESET: Grammar = Grammar { strings: &["--preset"], ..QUICK };
const PRESET_OUT: Grammar = Grammar { strings: &["--preset", "--out"], ..QUICK };
const FUZZ_RUN: Grammar = Grammar { numbers: &["--cases", "--seed"], strings: &["--bug"], ..QUICK };
const SEED: Grammar = Grammar { numbers: &["--seed"], ..QUICK };
const LOADGEN: Grammar = Grammar {
    bools: &["--smoke", "--open", "--sporadic", "--shutdown"],
    numbers: &["--port", "--conns", "--requests", "--seed", "--rate"],
    ..QUICK
};
const SERVE: Grammar =
    Grammar { numbers: &["--port", "--queue", "--deadline-ms", "--max-body"], ..QUICK };

const COMMANDS: &[Command] = &[
    Command { name: "fig7", verb: None, grammar: QUICK, run: fig7::run },
    Command { name: "table2", verb: None, grammar: QUICK, run: table2::run },
    Command { name: "fig8ab", verb: None, grammar: QUICK, run: fig8ab::run },
    Command { name: "fig8c", verb: None, grammar: QUICK, run: fig8c::run },
    Command { name: "area", verb: None, grammar: QUICK, run: area::run },
    Command { name: "fullstack", verb: None, grammar: QUICK, run: fullstack::run },
    Command { name: "ablation", verb: None, grammar: QUICK, run: ablation::run },
    Command { name: "corpus", verb: None, grammar: QUICK, run: corpus::round_trip },
    Command { name: "corpus", verb: Some("gen"), grammar: GEN, run: corpus::gen },
    Command { name: "corpus", verb: Some("eval"), grammar: DIR, run: corpus::eval },
    Command { name: "cluster", verb: None, grammar: QUICK, run: cluster::run },
    Command { name: "absint", verb: None, grammar: QUICK, run: absint::run },
    Command { name: "online", verb: None, grammar: OUT, run: online::run },
    Command { name: "trace", verb: None, grammar: QUICK, run: trace::smoke },
    Command { name: "trace", verb: Some("capture"), grammar: PRESET_OUT, run: trace::capture },
    Command { name: "trace", verb: Some("gantt"), grammar: PRESET, run: trace::gantt },
    Command { name: "trace", verb: Some("validate"), grammar: FILE, run: trace::validate },
    Command { name: "trace", verb: Some("bench"), grammar: OUT, run: trace::bench },
    Command { name: "fuzz", verb: None, grammar: FUZZ_RUN, run: fuzz::run },
    Command { name: "fuzz", verb: Some("run"), grammar: FUZZ_RUN, run: fuzz::run },
    Command { name: "fuzz", verb: Some("replay"), grammar: SEED, run: fuzz::replay },
    Command { name: "fuzz", verb: Some("corpus"), grammar: DIR, run: fuzz::corpus },
    Command { name: "loadgen", verb: None, grammar: LOADGEN, run: loadgen::run },
    Command { name: "check", verb: None, grammar: QUICK, run: check::sweep },
    Command { name: "check", verb: Some("lint"), grammar: DIR, run: check::lint },
    Command { name: "serve", verb: None, grammar: SERVE, run: serve::run },
];

/// The usage lines of `name`'s rows, or of every row for an unknown name.
fn usage(name: &str) -> String {
    let known = COMMANDS.iter().any(|c| c.name == name);
    let mut out = String::from("usage:\n");
    for c in COMMANDS.iter().filter(|c| !known || c.name == name) {
        let head = match c.verb {
            Some(verb) => format!("l15 {} {verb}", c.name),
            None => format!("l15 {}", c.name),
        };
        out += &format!("  {}\n", cli::usage(&head, &c.grammar));
    }
    out
}

/// Runs `args` (program name stripped) through the table.
fn dispatch(args: &[String]) -> Outcome {
    let name = args.first().map(String::as_str).unwrap_or_default();
    let verb = args.get(1).map(String::as_str);
    let rows = || COMMANDS.iter().filter(|c| c.name == name);
    let (command, rest) = match rows().find(|c| c.verb.is_some() && c.verb == verb) {
        Some(c) => (c, &args[2..]),
        None => match rows().find(|c| c.verb.is_none()) {
            Some(c) => (c, &args[1..]),
            None if name.is_empty() => return Err(Error::Usage("missing subcommand".into())),
            None => return Err(Error::Usage("unknown subcommand".into())),
        },
    };
    let parsed = cli::parse_args(rest, &command.grammar).map_err(Error::Usage)?;
    (command.run)(&parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map(String::as_str).unwrap_or_default();
    let who = format!("l15 {name}");
    let who = who.trim_end();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(Error::Failed(e)) => {
            eprintln!("{who}: {e}");
            ExitCode::FAILURE
        }
        Err(Error::Usage(e)) => {
            eprint!("{who}: {e}\n{}", usage(name));
            ExitCode::from(2)
        }
    }
}

/// Reads an environment scale knob.
fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// The experiment seed: `L15_SEED` (decimal or `0x` hex), default 1.
fn env_seed() -> u64 {
    std::env::var("L15_SEED").ok().and_then(|v| cli::parse_u64(&v)).unwrap_or(1)
}

/// `full` normally, `quick` under `--quick` — the standard pattern for
/// scale knobs.
fn scaled(p: &Parsed, full: usize, quick: usize) -> usize {
    if p.quick {
        quick
    } else {
        full
    }
}

/// The `*.<ext>` files directly inside `dir`, in path order.
fn files_in(dir: &Path, ext: &str) -> Result<Vec<PathBuf>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == ext))
        .collect();
    if paths.is_empty() {
        return Err(format!("no .{ext} files in {}", dir.display()));
    }
    paths.sort();
    Ok(paths)
}

/// A file's name for reports.
fn file_name(path: &Path) -> String {
    path.file_name().unwrap_or_default().to_string_lossy().into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Outcome {
        dispatch(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_subcommand_table_covers_every_former_binary() {
        let mut names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        names.dedup();
        let want = "fig7 table2 fig8ab fig8c area fullstack ablation corpus cluster absint \
                    online trace fuzz loadgen check serve";
        assert_eq!(names, want.split_whitespace().collect::<Vec<_>>(), "each name once, in order");
        for name in names {
            let bare = COMMANDS.iter().filter(|c| c.name == name && c.verb.is_none()).count();
            assert_eq!(bare, 1, "{name}: one bare row, so `l15 {name} --quick` always parses");
        }

        // The service rows keep the flags scripts/ci.sh and README pass.
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let p =
            cli::parse_args(&args(&["--port", "0", "--queue", "8", "--quick"]), &SERVE).unwrap();
        assert!(p.quick);
        assert_eq!((p.value("--queue"), p.value_or("--deadline-ms", 2000)), (Some(8), 2000));
        let p = cli::parse_args(&args(&["--port", "8080", "--open", "--rate", "200"]), &LOADGEN)
            .unwrap();
        assert!(p.flag("--open") && !p.flag("--smoke"));
        assert_eq!(p.value("--rate"), Some(200));
        assert!(cli::parse_args(&args(&["--prot", "1"]), &LOADGEN).is_err());
    }

    #[test]
    fn bad_invocations_are_usage_errors() {
        for args in [
            &[][..],
            &["fig9"],
            &["fig7", "--typo"],
            &["fig7", "extra"],
            &["trace", "validate"],
            &["trace", "capture", "--out"],
            &["corpus", "gen"],
            &["corpus", "bogus"],
            &["fuzz", "run", "--seed", "lots"],
            &["fuzz", "run", "--bug", "no-such-bug"],
            &["serve", "--port", "70000"],
            &["loadgen", "--port", "70000"],
            &["loadgen"],
        ] {
            assert!(matches!(run(args), Err(Error::Usage(_))), "{args:?}: {:?}", run(args));
        }
        assert!(usage("fig9").contains("  l15 serve [--quick] [--port N]"));
        assert_eq!(usage("trace").lines().count(), 1 + 5);
    }

    #[test]
    fn the_directory_walk_is_sorted_and_filtered() {
        let dir = std::env::temp_dir().join(format!("l15-files-in-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for f in ["b.dag", "a.dag", "c.case", "d.txt"] {
            std::fs::write(dir.join(f), "").unwrap();
        }
        let names = |ext| files_in(&dir, ext).map(|v| v.iter().map(|p| file_name(p)).collect());
        assert_eq!(names("dag"), Ok(vec!["a.dag".to_owned(), "b.dag".to_owned()]));
        assert_eq!(names("case"), Ok(vec!["c.case".to_owned()]));
        assert!(names("json").is_err(), "an empty match is an error");
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(files_in(&dir, "dag").is_err(), "a missing directory is an error");
    }
}
