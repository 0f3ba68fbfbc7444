//! Cross-crate integration tests: the complete co-design pipeline from the
//! planner (`l15-core`) through the programming model (`l15-runtime`) down
//! to ISA-level execution on the simulated SoC (`l15-soc` / `l15-rvcore` /
//! `l15-cache`), plus consistency between the analytic experiments and the
//! full-stack measurements.

use l15::core::alg1::schedule_with_l15;
use l15::core::baseline::{baseline_priorities, SystemModel};
use l15::core::casestudy::{generate_case_study, CaseStudyParams};
use l15::core::federated::{federated_partition, ClusterTopology};
use l15::core::periodic::{simulate_taskset, PeriodicParams};
use l15::dag::gen::{DagGenParams, DagGenerator};
use l15::dag::{DagBuilder, DagTask, ExecutionTimeModel, Node};
use l15::runtime::kernel::{run_task, KernelConfig};
use l15::runtime::{run_cluster_plan, run_task_traced, WorkScale};
use l15::rvcore::core::TimingConfig;
use l15::soc::{Soc, SocConfig};
use l15::trace::{EventKind, FlightRecorder};
use l15_testkit::rng::SmallRng;

fn small_dag(data_bytes: u64) -> DagTask {
    let mut b = DagBuilder::new();
    let s = b.add_node(Node::new(1.0, data_bytes));
    let x = b.add_node(Node::new(1.0, data_bytes));
    let y = b.add_node(Node::new(1.0, data_bytes));
    let z = b.add_node(Node::new(1.0, data_bytes));
    let t = b.add_node(Node::new(1.0, 0));
    b.add_edge(s, x, 1.0, 0.6).unwrap();
    b.add_edge(s, y, 1.0, 0.6).unwrap();
    b.add_edge(s, z, 1.0, 0.6).unwrap();
    b.add_edge(x, t, 1.0, 0.6).unwrap();
    b.add_edge(y, t, 1.0, 0.6).unwrap();
    b.add_edge(z, t, 1.0, 0.6).unwrap();
    DagTask::new(b.build().unwrap(), 1e6, 1e6).unwrap()
}

#[test]
fn plan_to_silicon_pipeline_runs_end_to_end() {
    let task = small_dag(4096);
    let etm = ExecutionTimeModel::new(2048).unwrap();
    let plan = schedule_with_l15(&task, 16, &etm);

    let mut soc = Soc::new(SocConfig::proposed_8core(), 0);
    let report = run_task(&mut soc, &task, &plan, &KernelConfig::default()).unwrap();

    assert!(report.dataflow_ok, "dependent data must flow end to end");
    assert!(report.l15_hits > 0, "consumers hit the L1.5");
    assert!(report.phi < 0.05, "φ stays small: {}", report.phi);
    // Plan rounds and measured completion order agree on precedence.
    let g = task.graph();
    for e in g.edge_ids() {
        let edge = g.edge(e);
        assert!(report.node_finish[edge.from.0] <= report.node_finish[edge.to.0]);
    }
}

#[test]
fn full_stack_confirms_the_analytic_ranking() {
    // The analytic model says Proposed < CMP on makespan. Check the
    // full-stack cycle counts agree for a data-heavy DAG.
    let task = small_dag(8192);
    let etm = ExecutionTimeModel::new(2048).unwrap();

    let plan_p = schedule_with_l15(&task, 16, &etm);
    let mut soc_p = Soc::new(SocConfig::proposed_8core(), 0);
    let rep_p = run_task(&mut soc_p, &task, &plan_p, &KernelConfig::default()).unwrap();

    let plan_b = baseline_priorities(&task);
    let mut soc_b = Soc::new(SocConfig::cmp_l2_8core(), 0);
    let cfg_b = KernelConfig { use_l15: false, ..Default::default() };
    let rep_b = run_task(&mut soc_b, &task, &plan_b, &cfg_b).unwrap();

    assert!(rep_p.dataflow_ok && rep_b.dataflow_ok);
    assert!(
        rep_p.makespan_cycles <= rep_b.makespan_cycles,
        "proposed {} cycles vs legacy {} cycles",
        rep_p.makespan_cycles,
        rep_b.makespan_cycles
    );
}

#[test]
fn forwarding_channel_never_slows_execution() {
    let task = small_dag(4096);
    let etm = ExecutionTimeModel::new(2048).unwrap();
    let plan = schedule_with_l15(&task, 16, &etm);

    let run_with = |forwarding: bool| {
        let timing = TimingConfig { l15_forwarding: forwarding, ..Default::default() };
        let mut soc = Soc::with_timing(SocConfig::proposed_8core(), 0, timing);
        run_task(&mut soc, &task, &plan, &KernelConfig::default()).unwrap().makespan_cycles
    };
    let with = run_with(true);
    let without = run_with(false);
    assert!(with <= without, "the Fig. 3 ⓓ channel must not hurt: with={with} without={without}");
}

#[test]
fn generated_workloads_run_on_the_simulated_soc() {
    // A small generated DAG (not hand-built) executes correctly through
    // the whole stack.
    let gen = DagGenerator::new(DagGenParams {
        layers: (2, 3),
        max_width: 3,
        data_bytes_range: (2048, 4096),
        period_range: (50.0, 100.0),
        ..Default::default()
    });
    let mut rng = SmallRng::seed_from_u64(5);
    let task = gen.generate(&mut rng).unwrap();
    let etm = ExecutionTimeModel::new(2048).unwrap();
    let plan = schedule_with_l15(&task, 16, &etm);
    let mut soc = Soc::new(SocConfig::proposed_8core(), 0);
    let cfg =
        KernelConfig { scale: l15::runtime::WorkScale { compute_iters: 8 }, ..Default::default() };
    let report = run_task(&mut soc, &task, &plan, &cfg).unwrap();
    assert!(report.dataflow_ok);
    assert_eq!(report.node_finish.len(), task.graph().node_count(), "every node completed");
}

#[test]
fn case_study_pipeline_is_consistent_across_systems() {
    // The same task sets, simulated under all four systems: the proposed
    // one must miss no more deadlines than the worst comparator, and all
    // outcome metrics must stay in range.
    let params = PeriodicParams::default();
    let cs = CaseStudyParams::default();
    let systems = [
        SystemModel::proposed(),
        SystemModel::cmp_l1(),
        SystemModel::cmp_l2(),
        SystemModel::cmp_shared_l1(),
    ];
    let mut total_misses = [0usize; 4];
    for trial in 0..10u64 {
        let mut set_rng = SmallRng::seed_from_u64(trial);
        let tasks = generate_case_study(4, 5.6, &cs, &mut set_rng).unwrap(); // 70 %
        for (i, m) in systems.iter().enumerate() {
            let mut rng = SmallRng::seed_from_u64(trial + 100);
            let out = simulate_taskset(&tasks, m, &params, &mut rng);
            total_misses[i] += out.misses;
            assert!(out.jobs > 0);
            assert!(out.phi_max <= 1.0);
            assert!(out.l15_utilisation <= 1.0 + 1e-9);
        }
    }
    let worst_cmp = total_misses[1..].iter().copied().max().unwrap();
    assert!(
        total_misses[0] <= worst_cmp,
        "proposed misses {} vs worst comparator {}",
        total_misses[0],
        worst_cmp
    );
}

#[test]
fn capacity_equalisation_between_socs() {
    // The three hardware configurations expose equal total cache capacity
    // (the paper's fairness requirement).
    let prop = SocConfig::proposed_8core();
    let l1 = SocConfig::cmp_l1_8core();
    let l2 = SocConfig::cmp_l2_8core();
    assert_eq!(prop.total_cache_bytes(), l1.total_cache_bytes());
    assert_eq!(prop.total_cache_bytes(), l2.total_cache_bytes());
}

#[test]
fn running_ahead_reports_what_single_stepping_does() {
    // A data-heavy DAG of the benchmark's engine shape, on the L1.5 system
    // (Alg. 1 plan) and on the legacy one (baseline priorities). Recording
    // disables run-ahead, so the traced run is the single-stepped reference.
    let gen = DagGenerator::new(DagGenParams {
        layers: (2, 4),
        max_width: 4,
        data_bytes_range: (2 * 1024, 16 * 1024),
        ..Default::default()
    });
    let task = gen.generate(&mut SmallRng::seed_from_u64(3)).unwrap();
    let etm = ExecutionTimeModel::new(2048).unwrap();
    let scale = WorkScale { compute_iters: 4 };
    let runs = [
        (SocConfig::proposed_8core(), schedule_with_l15(&task, 16, &etm), true),
        (SocConfig::cmp_l2_8core(), baseline_priorities(&task), false),
    ];
    for (cfg, plan, use_l15) in runs {
        let kcfg = KernelConfig { use_l15, scale, ..Default::default() };
        let mut ahead = Soc::new(cfg.clone(), 0);
        let report = run_task(&mut ahead, &task, &plan, &kcfg).unwrap();
        let mut stepped = Soc::new(cfg, 0);
        let (reference, rec) = run_task_traced(&mut stepped, &task, &plan, &kcfg, 1 << 19).unwrap();
        assert_eq!(rec.dropped().total(), 0, "the recording is complete");
        assert_eq!(report, reference, "use_l15 = {use_l15}");
        assert!(ahead.run_ahead_stats().1 > 0, "use_l15 = {use_l15}: nothing ran ahead");
        let stalls = rec.events().filter(|e| matches!(e.kind, EventKind::SduStall { .. })).count();
        if use_l15 {
            assert!(stalls > 0, "no Walloc stalled: the stalled case is not covered");
        }
    }

    // Light tasks of the benchmark's co-resident shape, federated over the
    // eight clusters of the 32-core preset.
    let gen = DagGenerator::new(DagGenParams {
        layers: (2, 3),
        max_width: 4,
        data_bytes_range: (2 * 1024, 2 * 1024),
        utilisation: 0.9,
        ..Default::default()
    });
    let mut rng = SmallRng::seed_from_u64(1);
    let tasks: Vec<DagTask> = (0..16).map(|_| gen.generate(&mut rng).unwrap()).collect();
    let topology = ClusterTopology { clusters: 8, cores_per_cluster: 4 };
    let plan = federated_partition(&tasks, topology, &SystemModel::proposed()).unwrap();
    let kcfg = KernelConfig { scale: WorkScale { compute_iters: 32 }, ..Default::default() };
    let mut ahead = Soc::new(SocConfig::proposed_32core(), 0);
    let report = run_cluster_plan(&mut ahead, &tasks, &plan, &kcfg).unwrap();
    let mut stepped = Soc::new(SocConfig::proposed_32core(), 0);
    let kept = |k: &EventKind| {
        matches!(
            k,
            EventKind::Fetch { .. }
                | EventKind::NodeStart { .. }
                | EventKind::NodeFinish { .. }
                | EventKind::WallocDone { .. }
        )
    };
    stepped.uncore_mut().trace_mut().attach(FlightRecorder::keeping(1 << 22, kept));
    let reference = run_cluster_plan(&mut stepped, &tasks, &plan, &kcfg).unwrap();
    let rec = stepped.uncore_mut().trace_mut().detach().unwrap();
    assert_eq!(rec.dropped().total(), 0, "the recording is complete");
    assert_eq!(report, reference, "co-resident on proposed_32core");
    assert!(ahead.posted_stores() > 0, "no routed store was posted");
    // Per core, the instructions of nodes whose Walloc episode never
    // settled (a demand a reclaim cancelled, a stalled one or one the SDU
    // dropped). More of them than the core single-stepped in all means
    // some ran ahead: only a lane with its demand met can.
    let n = stepped.n_cores();
    let (mut open, mut settled, mut unsettled) = (vec![0u64; n], vec![false; n], vec![0u64; n]);
    for e in rec.events() {
        match e.kind {
            EventKind::NodeStart { core, .. } => {
                (open[core as usize], settled[core as usize]) = (0, false)
            }
            EventKind::WallocDone { core, .. } => settled[core as usize] = true,
            EventKind::Fetch { core, .. } => open[core as usize] += 1,
            EventKind::NodeFinish { core, .. } if !settled[core as usize] => {
                unsettled[core as usize] += open[core as usize];
            }
            _ => {}
        }
    }
    let stepped_of = |c: usize| ahead.core(c).stats().instructions - ahead.ran_ahead(c);
    assert!(
        (0..n).any(|c| stepped_of(c) < unsettled[c]),
        "no lane whose demand a reclaim cancelled ran ahead"
    );
}

#[test]
fn both_absint_front_ends_cover_what_the_engine_observes() {
    use l15::check::certify_task;
    use l15::check::fuzz::{case_from_seed, check_case};
    use l15::dag::topology::{fork_join, UniformPayload};
    use l15::runtime::kernel::preset_plan;
    use l15::testkit::fuzz::FuzzKnobs;

    // Fuzz cases: every step's observed cycles within the stream charge.
    for seed in 1..=4 {
        let verdict = check_case(&case_from_seed(&FuzzKnobs::quick(), seed));
        assert!(verdict.soundness.is_empty(), "seed {seed}: {}", verdict.headline());
    }

    // The DAG certifier on a fullstack-shaped fork-join, proposed and legacy.
    let p = UniformPayload { wcet: 1.0, data_bytes: 2048, edge_cost: 1.0, alpha: 0.6 };
    let task = DagTask::new(fork_join(3, p).unwrap(), 1e9, 1e9).unwrap();
    let scale = WorkScale { compute_iters: 4 };
    for preset in ["proposed_8core", "cmp_l2_8core"] {
        let cfg = SocConfig::preset(preset).unwrap();
        let (plan, kcfg) = preset_plan(&task, &cfg, scale, KernelConfig::default().max_cycles);
        let report = certify_task(&task, &plan, &cfg, scale);
        assert!(report.certified(), "{preset}: {:?}", report.findings);
        let run = run_task(&mut Soc::new(cfg, 0), &task, &plan, &kcfg).unwrap();
        for nb in &report.node_bounds {
            let observed = run.node_finish[nb.node] - run.node_start[nb.node];
            assert!(
                observed <= nb.bound_cycles,
                "{preset} node {}: {observed} > {}",
                nb.node,
                nb.bound_cycles
            );
        }
    }
}
