//! The tracing parity contract: observation must never perturb the run.
//!
//! Attaching an `l15-trace` flight recorder to the monitor
//! (`run_task_traced`, or `Trace::attach` around any other driver) may not
//! change *anything* the simulation computes: aggregate counters, the
//! kernel's run report, hierarchy statistics, per-core execution
//! statistics, or the final memory image. Traced-vs-untraced cycle parity
//! is what makes a trace trustworthy: a capture shows the run you would
//! have had anyway.
//!
//! Also a regression for a gap where `gv_set` updates advanced no counter
//! at all, so they were invisible in every untraced run (the default in
//! every experiment binary).
//!
//! An attached recorder also stops every core from running ahead, so a
//! traced run is the single-step reference the run-ahead engine must
//! reproduce: `running_ahead_equals_single_stepping_on_random_dags` holds
//! `run_task` and `run_cluster_plan` to it on generated DAGs and plans.

use std::sync::atomic::{AtomicU64, Ordering};

use l15_core::alg1::schedule_with_l15;
use l15_core::baseline::SystemModel;
use l15_core::federated::{federated_partition, ClusterTopology};
use l15_core::plan::SchedulePlan;
use l15_dag::gen::{DagGenParams, DagGenerator};
use l15_dag::{DagBuilder, DagTask, ExecutionTimeModel, Node};
use l15_runtime::coresidency::{run_cluster_plan, CoResidencyReport};
use l15_runtime::kernel::{run_task, KernelConfig, RunReport};
use l15_runtime::{run_task_traced, WorkScale};
use l15_rvcore::CoreStats;
use l15_soc::uncore::HierarchyStats;
use l15_soc::{ClusterStats, Soc, SocConfig, TraceCounters};
use l15_testkit::prop::{self, Config, G};
use l15_testkit::rng::SmallRng;
use l15_trace::FlightRecorder;

fn diamond() -> DagTask {
    let mut b = DagBuilder::new();
    let s = b.add_node(Node::new(1.0, 2048));
    let a = b.add_node(Node::new(1.0, 2048));
    let c = b.add_node(Node::new(1.0, 2048));
    let t = b.add_node(Node::new(1.0, 0));
    b.add_edge(s, a, 1.0, 0.5).unwrap();
    b.add_edge(s, c, 1.0, 0.5).unwrap();
    b.add_edge(a, t, 1.0, 0.5).unwrap();
    b.add_edge(c, t, 1.0, 0.5).unwrap();
    DagTask::new(b.build().unwrap(), 1e6, 1e6).unwrap()
}

/// Everything observable a run leaves behind.
#[derive(Debug, Clone, PartialEq)]
struct Observables {
    report: RunReport,
    counters: TraceCounters,
    hierarchy: HierarchyStats,
    clusters: Vec<ClusterStats>,
    cores: Vec<CoreStats>,
    clocks: Vec<u64>,
    memory: u64,
}

/// Runs the diamond, traced or not; a traced run also hands back its
/// recording.
fn run_diamond(traced: bool) -> (Observables, Option<FlightRecorder>) {
    let task = diamond();
    let etm = ExecutionTimeModel::new(2048).unwrap();
    let plan = schedule_with_l15(&task, 16, &etm);
    let mut soc = Soc::new(SocConfig::proposed_8core(), 0);
    let cfg = KernelConfig::default();
    let (report, rec) = if traced {
        let (report, rec) = run_task_traced(&mut soc, &task, &plan, &cfg, 1 << 18).unwrap();
        assert!(rec.recorded() > 0, "the recorder must have observed the run");
        (report, Some(rec))
    } else {
        (run_task(&mut soc, &task, &plan, &cfg).unwrap(), None)
    };
    (observe(&soc, report), rec)
}

fn observe(soc: &Soc, report: RunReport) -> Observables {
    Observables {
        report,
        counters: *soc.uncore().trace().counters(),
        hierarchy: soc.uncore().stats(),
        clusters: soc.uncore().per_cluster_stats(),
        cores: (0..soc.n_cores()).map(|i| *soc.core(i).stats()).collect(),
        clocks: (0..soc.n_cores()).map(|i| soc.clock(i)).collect(),
        memory: soc.uncore().memory_fingerprint(),
    }
}

#[test]
fn traced_and_untraced_runs_are_indistinguishable() {
    let (untraced, _) = run_diamond(false);
    let (traced, _) = run_diamond(true);
    assert_eq!(
        untraced, traced,
        "attaching a flight recorder must not change any observable state"
    );
}

#[test]
fn a_complete_recording_folds_back_into_the_live_counters() {
    // The counters are `TraceCounters::observe` folded over the very
    // events the recorder receives, so a loss-free capture must
    // reproduce them exactly — fetches and loads per level included.
    let (live, rec) = run_diamond(true);
    let rec = rec.expect("traced run");
    assert_eq!(rec.dropped().total(), 0, "capture must be loss-free: {:?}", rec.dropped());
    let mut folded = TraceCounters::default();
    for e in rec.events() {
        folded.observe(&e.kind);
    }
    assert_eq!(folded, live.counters);
}

/// Two-application co-residency observables: the federated runner on a
/// 2-cluster preset, each application under its own TID.
struct CoResObservables {
    report: CoResidencyReport,
    obs: Observables,
}

/// A light-but-chunky application: wide enough that two of them exceed a
/// cluster's first-fit utilisation cap, so the federated tier must place
/// them on distinct clusters of the 2-cluster preset.
fn wide_app() -> DagTask {
    let mut b = DagBuilder::new();
    let s = b.add_node(Node::new(0.1, 2048));
    let t = b.add_node(Node::new(0.1, 0));
    for _ in 0..6 {
        let v = b.add_node(Node::new(1.0, 2048));
        b.add_edge(s, v, 0.2, 0.5).unwrap();
        b.add_edge(v, t, 0.2, 0.5).unwrap();
    }
    DagTask::new(b.build().unwrap(), 4.0, 4.0).unwrap()
}

fn run_coresident(traced: bool) -> CoResObservables {
    let tasks = vec![wide_app(), wide_app()];
    let plan = federated_partition(
        &tasks,
        ClusterTopology { clusters: 2, cores_per_cluster: 4 },
        &SystemModel::proposed(),
    )
    .unwrap();
    let mut soc = Soc::new(SocConfig::proposed_8core(), 0);
    let cfg = KernelConfig::default();
    if traced {
        soc.uncore_mut().trace_mut().attach(FlightRecorder::new(1 << 18));
    }
    let report = run_cluster_plan(&mut soc, &tasks, &plan, &cfg).unwrap();
    if traced {
        let rec = soc.uncore_mut().trace_mut().detach().expect("attached above");
        assert!(rec.recorded() > 0, "the recorder must have observed the run");
    }
    // The federated report's app 0 report stands in for Observables.report
    // (the aggregate struct still carries counters, stats, memory, ...).
    let first = report.apps[0].report.clone();
    CoResObservables { obs: observe(&soc, first), report }
}

#[test]
fn coresident_two_apps_on_two_clusters_have_traced_untraced_parity() {
    let untraced = run_coresident(false);
    let traced = run_coresident(true);
    assert_eq!(untraced.report, traced.report, "recorder must not perturb co-residency");
    assert_eq!(untraced.obs, traced.obs);

    // The co-residency contract itself: two applications, two distinct
    // TIDs, distinct clusters, and per-cluster stats showing both L1.5s
    // served their own application's traffic.
    let r = &untraced.report;
    assert!(r.dataflow_ok());
    assert_ne!(r.apps[0].tid, r.apps[1].tid);
    assert_ne!(r.apps[0].cluster, r.apps[1].cluster);
    assert_eq!(r.clusters.len(), 2);
    for app in &r.apps {
        let s = &r.clusters[app.cluster];
        assert!(s.l15.accesses() > 0, "cluster {} L1.5 saw no traffic", app.cluster);
        assert!(s.l1.accesses() > 0, "cluster {} L1s saw no traffic", app.cluster);
    }
}

#[test]
fn kernel_workload_reaches_every_counter_family() {
    // The diamond kernel run exercises the paper's full pipeline:
    // fetches/loads, L1.5-routed stores, control ops, way grants and
    // gv_set updates must all be visible without tracing enabled.
    let c = run_diamond(false).0.counters;
    assert!(c.fetches.iter().sum::<u64>() > 0, "no fetches counted: {c:?}");
    assert!(c.loads.iter().sum::<u64>() > 0, "no loads counted: {c:?}");
    assert!(c.stores_via_l15 > 0, "no L1.5 stores counted: {c:?}");
    assert!(c.ctrl_ops > 0, "no control ops counted: {c:?}");
    assert!(c.grants > 0, "no way grants counted: {c:?}");
    assert!(c.gv_updates > 0, "gv_set updates must be counted untraced: {c:?}");
}

/// A small generated DAG: 2–3 inner layers of up to `width` nodes, up to
/// 8 KiB of dependent data per node.
fn arb_task(g: &mut G, width: usize, utilisation: f64) -> DagTask {
    let gen = DagGenerator::new(DagGenParams {
        layers: (2, 3),
        max_width: width,
        data_bytes_range: (0, *g.pick(&[2048, 8192])),
        period_range: (50.0, 100.0),
        utilisation,
        ..Default::default()
    });
    gen.generate(&mut SmallRng::seed_from_u64(g.any_u64())).expect("valid parameters")
}

/// Alg. 1's plan for `task`, or one with priorities and local ways drawn at
/// random: demands past the cluster's ways are dropped by the SDU, sums
/// past them stall the Walloc, and reclaims cancel growing lanes.
fn arb_plan(g: &mut G, task: &DagTask) -> SchedulePlan {
    let etm = ExecutionTimeModel::new(2048).expect("valid way size");
    let mut plan = schedule_with_l15(task, 16, &etm);
    if g.bool() {
        for (p, w) in plan.priorities.iter_mut().zip(&mut plan.local_ways) {
            *p = g.u32_in(0..64);
            *w = g.usize_in(0..=9);
        }
    }
    plan
}

#[test]
fn running_ahead_equals_single_stepping_on_random_dags() {
    let (ahead, posted) = (AtomicU64::new(0), AtomicU64::new(0));
    prop::run_with(Config::with_cases(16), "running_ahead_equals_single_stepping", |g| {
        let cfg = KernelConfig {
            scale: WorkScale { compute_iters: g.u32_in(1..=8) },
            ..KernelConfig::default()
        };
        // `run_task` on one cluster of the 8-core preset, or a federated
        // plan over all eight clusters of the 32-core one.
        let coresident = g.bool();
        let run = |soc: &mut Soc, job: &(Vec<DagTask>, Vec<SchedulePlan>)| {
            if coresident {
                let topology = ClusterTopology { clusters: 8, cores_per_cluster: 4 };
                let mut plan = federated_partition(&job.0, topology, &SystemModel::proposed())
                    .expect("light tasks fit");
                for (a, p) in plan.assignments.iter_mut().zip(&job.1) {
                    a.plan = p.clone();
                }
                let report = run_cluster_plan(soc, &job.0, &plan, &cfg).expect("runs");
                (format!("{report:?}"), observe(soc, report.apps[0].report.clone()))
            } else {
                let report = run_task(soc, &job.0[0], &job.1[0], &cfg).expect("runs");
                (format!("{report:?}"), observe(soc, report))
            }
        };
        let tasks: Vec<DagTask> = if coresident {
            (0..g.usize_in(2..=8)).map(|_| arb_task(g, 3, 0.05)).collect()
        } else {
            vec![arb_task(g, 5, 0.5)]
        };
        let plans = tasks.iter().map(|t| arb_plan(g, t)).collect();
        let job = (tasks, plans);
        let preset =
            if coresident { SocConfig::proposed_32core() } else { SocConfig::proposed_8core() };

        let mut soc = Soc::new(preset.clone(), 0);
        let got = run(&mut soc, &job);
        ahead.fetch_add(soc.run_ahead_stats().1, Ordering::Relaxed);
        posted.fetch_add(got.1.counters.stores_via_l15, Ordering::Relaxed);
        let mut reference = Soc::new(preset, 0);
        reference.uncore_mut().trace_mut().attach(FlightRecorder::new(1));
        let want = run(&mut reference, &job);
        assert_eq!(reference.run_ahead_stats().1, 0, "a recording SoC single-steps");
        assert_eq!(got, want);
    });
    assert!(ahead.into_inner() > 0 && posted.into_inner() > 0);
}
