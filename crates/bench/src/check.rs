//! `l15 check` — lint L1.5 programs against the six protocol rules.
//!
//! ```sh
//! # the built-in sweep, each program run on proposed_8core: generated corpus
//! # + case-study programs + the Walloc FSM model check (--quick: CI size)
//! l15 check [--quick]
//! # lint a directory of .dag files (optionally with embedded plan lines)
//! l15 check lint <dir>
//! ```
//!
//! Reports go through the shared testkit formatter, one block per
//! program, in deterministic order regardless of `L15_JOBS`. Exit status
//! 1 when any finding is reported.

use std::path::Path;

use l15_check::program::{parse_program_text, CheckProgram, ProgramSpec};
use l15_check::{fsm, Finding};
use l15_core::casestudy::{generate_case_study, CaseStudyParams};
use l15_dag::gen::{DagGenParams, DagGenerator};
use l15_dag::DagTask;
use l15_runtime::kernel::{preset_plan, KernelConfig};
use l15_runtime::WorkScale;
use l15_soc::SocConfig;
use l15_testkit::cli::Parsed;
use l15_testkit::diag::format_report;
use l15_testkit::pool;
use l15_testkit::rng::SmallRng;

use crate::{env_seed, file_name, files_in, Outcome};

/// Renders one program's findings: the report and the finding count.
fn render(name: &str, findings: &[Finding]) -> (String, usize) {
    let diags: Vec<_> = findings.iter().map(Finding::diagnostic).collect();
    (format_report(name, &diags), findings.len())
}

/// Runs one program on `proposed_8core`, under its preset (Alg. 1) plan
/// when it carries none, and checks the recording; a failed run counts one.
fn check_program(name: &str, spec: ProgramSpec) -> (String, usize) {
    let cfg = SocConfig::proposed_8core();
    let max_cycles = KernelConfig::default().max_cycles;
    let (preset, kcfg) = preset_plan(&spec.task, &cfg, WorkScale::default(), max_cycles);
    let plan = spec.plan.unwrap_or(preset);
    match CheckProgram::new(spec.task, &plan, spec.tids, &cfg, &kcfg) {
        Ok(prog) => render(name, &prog.check()),
        Err(e) => (format!("{name}: error: {e}\n"), 1),
    }
}

/// Prints the reports in order; returns the total finding count.
fn print_reports(reports: impl IntoIterator<Item = (String, usize)>) -> usize {
    let mut total = 0;
    for (text, count) in reports {
        print!("{text}");
        total += count;
    }
    total
}

/// Prints the trailer and maps the finding count to the outcome.
fn verdict(total: usize) -> Outcome {
    if total == 0 {
        println!("l15-check: all programs clean");
    } else {
        println!("l15-check: {total} finding(s)");
    }
    Ok(total == 0)
}

/// `check [--quick]`, the built-in sweep: synthetic corpus, case-study
/// shapes, FSM check.
pub fn sweep(p: &Parsed) -> Outcome {
    let seed = env_seed();
    let spec = |task: DagTask| ProgramSpec { task, plan: None, tids: None };

    let n_gen = if p.quick { 3 } else { 12 };
    let generator = DagGenerator::new(DagGenParams::default());
    let gen_reports = pool::run_seeded(seed, n_gen, |i, item_seed| {
        let mut rng = SmallRng::seed_from_u64(item_seed);
        let task = generator.generate(&mut rng).expect("default parameters are valid");
        check_program(&format!("gen_{i:02}"), spec(task))
    });

    // Case-study workload shapes (Sec. 5.2), generated up front (cheap),
    // checked on the pool.
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5ca1_ab1e);
    let n_cs = if p.quick { 2 } else { 4 };
    let tasks = generate_case_study(n_cs, 2.0, &CaseStudyParams::default(), &mut rng)
        .map_err(|e| format!("case-study generation: {e}"))?;
    let cs_reports =
        pool::run(tasks.len(), |i| check_program(&format!("case_{i:02}"), spec(tasks[i].clone())));

    let bounds = if p.quick {
        fsm::FsmBounds { max_cores: 2, max_ways: 3 }
    } else {
        fsm::FsmBounds::default()
    };
    let fsm_report = render("walloc_fsm", &fsm::check_walloc(&bounds));
    verdict(print_reports(gen_reports.into_iter().chain(cs_reports).chain([fsm_report])))
}

/// `check lint <dir>`.
pub fn lint(p: &Parsed) -> Outcome {
    verdict(lint_dir(Path::new(p.positional(0).unwrap_or_default()))?)
}

/// Lints every `.dag` file in `dir` — embedded `plan` lines are honoured,
/// files without them get an Alg. 1 plan — printing one report per file;
/// returns the finding count (an unreadable file counts one).
pub fn lint_dir(dir: &Path) -> Result<usize, String> {
    let paths = files_in(dir, "dag")?;
    let reports = pool::run(paths.len(), |i| {
        let name = file_name(&paths[i]);
        let text = std::fs::read_to_string(&paths[i]).map_err(|e| e.to_string());
        let spec = match text.and_then(|t| parse_program_text(&t).map_err(|e| e.to_string())) {
            Ok(s) => s,
            Err(e) => return (format!("{name}: error: {e}\n"), 1),
        };
        check_program(&name, spec)
    });
    Ok(print_reports(reports))
}
