//! Property tests on programs lifted from recorded kernel runs: random
//! valid programs are clean; seeded mutations make exactly the injected
//! rule fire. Failures replay bit-for-bit with
//! `L15_PROP_SEED=<seed>` (printed in the failure report).

use std::collections::BTreeSet;

use l15_check::program::CheckProgram;
use l15_core::alg1::schedule_with_l15;
use l15_dag::gen::{DagGenParams, DagGenerator};
use l15_dag::ExecutionTimeModel;
use l15_runtime::kernel::{preset_plan, KernelConfig};
use l15_runtime::WorkScale;
use l15_soc::SocConfig;
use l15_testkit::prop::{self, Config, G};
use l15_testkit::rng::SmallRng;

/// Draws a random generated task, Alg. 1 plan and cluster geometry, runs
/// it and lifts the recording.
fn draw_program(g: &mut G) -> CheckProgram {
    let mut rng = SmallRng::seed_from_u64(g.any_u64());
    let task = DagGenerator::new(DagGenParams::default())
        .generate(&mut rng)
        .expect("default parameters are valid");
    let zeta = g.usize_in(2..=16);
    let cores = g.usize_in(1..=4);
    let plan = schedule_with_l15(&task, zeta, &ExecutionTimeModel::new(2048).unwrap());
    let mut cfg = SocConfig { cores_per_cluster: cores, ..SocConfig::proposed_8core() };
    cfg.l15.iter_mut().for_each(|l15| l15.ways = zeta);
    // One compute iteration per node: the protocol is under test, not the
    // work between its steps.
    let kcfg = KernelConfig { scale: WorkScale { compute_iters: 1 }, ..KernelConfig::default() };
    CheckProgram::new(task, &plan, None, &cfg, &kcfg).expect("the run lifts")
}

#[test]
fn random_valid_programs_check_clean() {
    prop::run_with(Config::with_cases(24), "random_valid_programs_check_clean", |g| {
        let prog = draw_program(g);
        let findings = prog.check();
        assert!(
            findings.is_empty(),
            "a valid (task, plan) pair must be protocol-clean:\n{}",
            findings.iter().map(|f| f.render()).collect::<Vec<_>>().join("\n")
        );
    });
}

#[test]
fn seeded_mutations_fire_exactly_the_injected_rule() {
    prop::run_with(
        Config::with_cases(24),
        "seeded_mutations_fire_exactly_the_injected_rule",
        |g| {
            let prog = draw_program(g);
            let candidates = prog.mutations();
            if candidates.is_empty() {
                return; // degenerate geometry (e.g. no ways granted at all)
            }
            let m = *g.pick(&candidates);
            let mut mutated = prog.clone();
            assert!(mutated.apply(&m), "candidates from mutations() always apply: {m:?}");
            let fired: BTreeSet<_> = mutated.check().iter().map(|f| f.rule).collect();
            assert_eq!(
                fired,
                BTreeSet::from([m.expected_rule()]),
                "{m:?} must fire its rule and nothing else"
            );
        },
    );
}

/// The 24 DAGs `l15-runtime`'s `pinned_runs.txt` pins, on `proposed_8core`
/// under their preset plan at both pinned `compute_iters`: the kernel's
/// own runs are protocol-clean.
#[test]
fn pinned_run_dags_lift_clean() {
    let cfg = SocConfig::proposed_8core();
    for seed in 0..24u64 {
        let task = DagGenerator::new(DagGenParams {
            layers: (2, 3),
            max_width: 2 + (seed % 3) as usize,
            data_bytes_range: (1024, 6 * 1024),
            ..DagGenParams::default()
        })
        .generate(&mut SmallRng::seed_from_u64(0x7069_6e00 + seed))
        .expect("valid parameters");
        for compute_iters in [4, 32] {
            let max_cycles = KernelConfig::default().max_cycles;
            let (plan, kcfg) = preset_plan(&task, &cfg, WorkScale { compute_iters }, max_cycles);
            let prog = CheckProgram::new(task.clone(), &plan, None, &cfg, &kcfg).expect("lifts");
            let findings: Vec<String> = prog.check().iter().map(|f| f.render()).collect();
            assert!(findings.is_empty(), "dag {seed} iters {compute_iters}: {findings:#?}");
        }
    }
}
