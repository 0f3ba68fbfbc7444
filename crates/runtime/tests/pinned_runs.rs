//! Kernel runs pinned bit for bit, so an engine change that claims "same
//! simulation" is held to it on inputs the benchmark does not draw.
//!
//! `golden/pinned_runs.txt` was generated at the commit *before* the cycle
//! engine learned to run ahead (PR 22) and must be reproduced unmodified:
//! 24 seeded DAGs × {`proposed_8core` under the Alg. 1 plan, `cmp_l2_8core`
//! and `cmp_l1_8core` under baseline priorities} × `compute_iters` {4, 32},
//! every `RunReport` field (`f64`s as bits), `HierarchyStats`,
//! `TraceCounters`, every core's `CoreStats` and clock and the memory
//! fingerprint (the leading columns in clear, all of it in the row's
//! digest) — plus three of the runs under `max_cycles` swept across their
//! makespan, pinning `Ok` / `Timeout { completed }` at every step.
//!
//! Regenerate (only for a change that is *meant* to move a simulated
//! cycle) with `L15_UPDATE_GOLDEN=1 cargo test -p l15-runtime --test
//! pinned_runs`.

use std::fmt::Write as _;
use std::path::PathBuf;

use l15_dag::gen::{DagGenParams, DagGenerator};
use l15_dag::DagTask;
use l15_runtime::kernel::{preset_plan, run_task, KernelConfig, KernelError};
use l15_runtime::WorkScale;
use l15_soc::{Soc, SocConfig};
use l15_testkit::rng::{fnv1a, SmallRng, FNV1A_OFFSET};

const DAGS: u64 = 24;
const ITERS: [u32; 2] = [4, 32];
const SWEEP_STEPS: u64 = 52;

/// Small enough for a debug-build test, wide enough that nodes share a
/// cluster's four cores and data sizes straddle the 2 KiB way.
fn dag(seed: u64) -> DagTask {
    let gen = DagGenerator::new(DagGenParams {
        layers: (2, 3),
        max_width: 2 + (seed % 3) as usize,
        data_bytes_range: (1024, 6 * 1024),
        ..DagGenParams::default()
    });
    gen.generate(&mut SmallRng::seed_from_u64(0x7069_6e00 + seed)).expect("valid parameters")
}

struct System {
    name: &'static str,
    cfg: SocConfig,
}

/// Each runs under its preset plan: Alg. 1 over the L1.5's 16 ways on
/// `proposed_8core`, baseline priorities in legacy mode on the CMPs.
fn systems() -> [System; 3] {
    [
        System { name: "proposed_8core", cfg: SocConfig::proposed_8core() },
        System { name: "cmp_l2_8core", cfg: SocConfig::cmp_l2_8core() },
        System { name: "cmp_l1_8core", cfg: SocConfig::cmp_l1_8core() },
    ]
}

/// One table row: the headline numbers in clear, everything in the digest.
fn run_row(task: &DagTask, sys: &System, iters: u32) -> (String, u64) {
    let mut soc = Soc::new(sys.cfg.clone(), 0);
    let scale = WorkScale { compute_iters: iters };
    let (plan, cfg) = preset_plan(task, &sys.cfg, scale, KernelConfig::default().max_cycles);
    let r = run_task(&mut soc, task, &plan, &cfg).expect("pinned runs complete");
    let cores: Vec<_> = (0..soc.n_cores()).map(|i| (*soc.core(i).stats(), soc.clock(i))).collect();
    let instructions: u64 = cores.iter().map(|(s, _)| s.instructions).sum();
    let memory = soc.uncore().memory_fingerprint();
    let everything = format!(
        "{} {:?} {:?} {:016x} {:016x} {} {} {} {:?} {:?} {cores:?} {memory:016x}",
        r.makespan_cycles,
        r.node_start,
        r.node_finish,
        r.l15_utilisation.to_bits(),
        r.phi.to_bits(),
        r.l15_hits,
        r.l15_misses,
        r.dataflow_ok,
        soc.uncore().stats(),
        soc.uncore().trace().counters(),
    );
    let row = format!(
        "makespan={} util={:016x} phi={:016x} l15={}/{} ok={} instr={instructions} \
         mem={memory:016x} all={:016x}",
        r.makespan_cycles,
        r.l15_utilisation.to_bits(),
        r.phi.to_bits(),
        r.l15_hits,
        r.l15_misses,
        r.dataflow_ok,
        fnv1a(FNV1A_OFFSET, everything.as_bytes()),
    );
    (row, r.makespan_cycles)
}

/// `max_cycles` from 0 to just past `makespan`: `ok` or the completed count.
fn sweep_row(task: &DagTask, sys: &System, iters: u32, makespan: u64) -> String {
    let (plan, cfg) = preset_plan(task, &sys.cfg, WorkScale { compute_iters: iters }, 0);
    let mut row = String::new();
    for k in 0..=SWEEP_STEPS {
        let max_cycles = makespan * k / (SWEEP_STEPS - 2);
        let mut soc = Soc::new(sys.cfg.clone(), 0);
        match run_task(&mut soc, task, &plan, &KernelConfig { max_cycles, ..cfg }) {
            Ok(r) => write!(row, " ok:{}", r.makespan_cycles),
            Err(KernelError::Timeout { completed, total }) => write!(row, " {completed}/{total}"),
            Err(other) => panic!("unexpected error at max_cycles={max_cycles}: {other}"),
        }
        .expect("writing to a String");
    }
    row
}

fn table() -> String {
    let systems = systems();
    let mut out = String::new();
    for seed in 0..DAGS {
        let task = dag(seed);
        for (s, sys) in systems.iter().enumerate() {
            for iters in ITERS {
                let (row, makespan) = run_row(&task, sys, iters);
                writeln!(out, "dag={seed} {} iters={iters} {row}", sys.name).expect("String");
                // Three sweeps, one per system, on different DAGs.
                if iters == ITERS[0] && seed == 5 + 6 * s as u64 {
                    let sweep = sweep_row(&task, sys, iters, makespan);
                    writeln!(out, "dag={seed} {} iters={iters} max_cycles-sweep{sweep}", sys.name)
                        .expect("String");
                }
            }
        }
    }
    out
}

#[test]
fn kernel_runs_reproduce_the_table_pinned_before_run_ahead() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/pinned_runs.txt");
    let actual = table();
    if std::env::var_os("L15_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("has a parent")).expect("create golden dir");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("golden/pinned_runs.txt is committed");
    for (n, (got, want)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(got, want, "row {n} moved");
    }
    assert_eq!(actual.lines().count(), expected.lines().count(), "row count");
}
