//! The `l15` command as a process: stdout of the cheap `--quick` runs
//! against a golden recorded from the per-experiment binaries `l15`
//! replaced, the exit-status convention (0 clean, 1 findings, 2 usage),
//! and the seed a `fuzz run` line prints replaying through `fuzz replay`.

use std::path::PathBuf;
use std::process::{Command, Output};

/// The scale knobs a golden run must not inherit from the environment.
const KNOBS: [&str; 6] =
    ["L15_SEED", "L15_DAGS", "L15_TRIALS", "L15_INSTANCES", "L15_CORES", "L15_COMPUTE_ITERS"];

fn l15(args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_l15"));
    for knob in KNOBS {
        cmd.env_remove(knob);
    }
    cmd.args(args).output().expect("l15 runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

#[test]
fn quick_runs_reproduce_the_golden() {
    let mut got = String::new();
    for sub in [
        "fig7",
        "table2",
        "fig8ab",
        "fig8c",
        "area",
        "ablation",
        "cluster",
        "online",
        "check",
        "fullstack",
    ] {
        let out = l15(&[sub, "--quick"]);
        assert!(out.status.success(), "l15 {sub} --quick: {out:?}");
        got += &format!("===== {sub} --quick =====\n{}", stdout(&out));
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/quick.txt");
    if std::env::var_os("L15_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden");
    }
    let want = std::fs::read_to_string(&path).expect("golden present");
    assert!(got == want, "stdout differs from {}:\n{got}", path.display());
}

#[test]
fn exit_status_is_zero_clean_one_findings_two_usage() {
    // More malformed invocations are unit-tested against the table; these
    // pin the exit status itself, the port range included.
    for args in [
        &["fig9"][..],
        &["fig7", "--typo"],
        &["serve", "--port", "70000"],
        &["loadgen", "--port", "70000"],
    ] {
        let out = l15(args);
        assert_eq!(out.status.code(), Some(2), "l15 {args:?}: {out:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"), "{out:?}");
    }

    let out = l15(&["fuzz", "run", "--quick", "--bug", "drop-ip-set"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(!stdout(&out).contains(" 0 finding(s)"), "{}", stdout(&out));

    let dir = std::env::temp_dir().join(format!("l15-exit-status-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let lint = || l15(&["check", "lint", dir.to_str().unwrap()]);
    // A program whose plan crosses a TID boundary: R4 findings.
    let program = "task period=100 deadline=90\nnode 0 wcet=1 data=2048\n\
                   node 1 wcet=2 data=2048\nnode 2 wcet=3 data=2048\nnode 3 wcet=1 data=0\n\
                   edge 0 1 cost=1.5 alpha=0.5\nedge 0 2 cost=1.5 alpha=0.5\n\
                   edge 1 3 cost=1 alpha=0.6\nedge 2 3 cost=1 alpha=0.6\n";
    std::fs::write(dir.join("p.dag"), program).unwrap();
    assert_eq!(lint().status.code(), Some(0));
    let crossing = format!(
        "{program}plan 0 pri=3 ways=4 tid=0\nplan 1 pri=2 ways=4 tid=1\n\
         plan 2 pri=2 ways=4 tid=0\nplan 3 pri=1 ways=4 tid=0\n"
    );
    std::fs::write(dir.join("p.dag"), crossing).unwrap();
    std::fs::write(dir.join("q.dag"), "garbage\n").unwrap();
    let out = lint();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("R4_TID_PROTECTOR") && text.contains("q.dag: error: "), "{text}");
}

#[test]
fn a_seed_printed_by_run_replays() {
    let out = l15(&["fuzz", "run", "--quick", "--cases", "2", "--seed", "3"]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    let seed = text
        .lines()
        .find_map(|l| l.strip_prefix("case    1 seed ")?.split_whitespace().next())
        .unwrap_or_else(|| panic!("no case line in:\n{text}"));
    assert!(seed.starts_with("0x"), "run prints hex seeds: {seed}");

    let out = l15(&["fuzz", "replay", "--quick", "--seed", seed]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert!(text.starts_with(&format!("replaying seed {seed}: ")), "{text}");
    assert!(text.contains(&format!("seed {seed}: clean")), "{text}");
}
