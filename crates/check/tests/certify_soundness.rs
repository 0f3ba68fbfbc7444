//! The DAG certifier against the cycle-accurate kernel: on Sec. 5.1
//! generator DAGs under Alg. 1 plans or random priorities and way demands,
//! every node's observed cycles stay within its certified bound on the
//! proposed and the legacy presets.

use l15_check::certify_task;
use l15_dag::gen::{DagGenParams, DagGenerator};
use l15_dag::DagTask;
use l15_runtime::kernel::{preset_plan, run_task, KernelConfig};
use l15_runtime::WorkScale;
use l15_soc::{Soc, SocConfig};
use l15_testkit::prop::{self, Config, G};
use l15_testkit::rng::SmallRng;

fn arb_task(g: &mut G) -> DagTask {
    let gen = DagGenerator::new(DagGenParams {
        layers: (2, 3),
        max_width: 5,
        data_bytes_range: (0, *g.pick(&[2048, 8192])),
        period_range: (50.0, 100.0),
        utilisation: 0.5,
        ..Default::default()
    });
    gen.generate(&mut SmallRng::seed_from_u64(g.any_u64())).expect("valid parameters")
}

#[test]
fn certified_bounds_cover_observed_on_random_dags() {
    prop::run_with(Config::with_cases(64), "certified_bounds_cover_observed", |g| {
        let preset =
            *g.pick(&["proposed_8core", "proposed_16core", "cmp_l1_8core", "cmp_l2_8core"]);
        let cfg = SocConfig::preset(preset).expect("known preset");
        let task = arb_task(g);
        let scale = WorkScale { compute_iters: g.u32_in(1..=4) };
        let (mut plan, kcfg) = preset_plan(&task, &cfg, scale, KernelConfig::default().max_cycles);
        // Random plans overcommit the ways or demand none at all.
        if g.bool() {
            for (p, w) in plan.priorities.iter_mut().zip(&mut plan.local_ways) {
                *p = g.u32_in(0..64);
                *w = g.usize_in(0..=9);
            }
        }
        let report = certify_task(&task, &plan, &cfg, scale);
        let run = run_task(&mut Soc::new(cfg, 0), &task, &plan, &kcfg).expect("runs");
        for nb in report.node_bounds.iter().filter(|nb| nb.bound_cycles != u64::MAX) {
            let observed = run.node_finish[nb.node] - run.node_start[nb.node];
            assert!(
                observed <= nb.bound_cycles,
                "{preset} node {}: observed {observed} > bound {} ({:?})",
                nb.node,
                nb.bound_cycles,
                report.findings
            );
        }
    });
}
