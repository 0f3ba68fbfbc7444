//! The six workloads. Names are fixed: later issues cite them.

use l15_core::alg1::schedule_with_l15;
use l15_core::plan::SchedulePlan;
use l15_dag::gen::{DagGenParams, DagGenerator};
use l15_dag::{DagTask, ExecutionTimeModel};
use l15_soc::Soc;
use l15_testkit::pool;
use l15_testkit::rng::SmallRng;

use crate::harness::{Metric, Workload};
use crate::span::Tracer;
use crate::stats::fnv1a;

pub mod analytic;
pub mod engine;
pub mod online;
pub mod serve;

/// Workload names with the one-line reason each is here (the `why` of
/// `BENCHMARK.json`).
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "fullstack_8core",
        "Sec. 5.3 cross-check: data-heavy DAGs on proposed_8core and cmp_l2_8core, so soc/cache miss paths and both publish paths (L1.5 routed stores, L1D flush) do the work; core/serve/online idle",
    ),
    (
        "cluster_32core",
        "Compute-heavy, L1-resident tasks on all 8 clusters of proposed_32core: Core::step, the Soc::step core scan and Uncore::advance dominate, the miss path does little",
    ),
    (
        "analytic_sweep",
        "The Fig. 7(a)/8(a) pipeline a reproducer waits for (generate, Alg. 1, evaluate x3 systems, periodic trials): dag + core only, so an engine change must leave it flat",
    ),
    (
        "serve_analytic",
        "Closed loop, 2 connections, cheap /schedule and /analyze handlers (~0.1 ms): connect, read_request, queue, dispatcher and JSON are most of each op, so only serve-glue work shows",
    ),
    (
        "serve_simulate",
        "Closed loop, 2 connections, engine-backed /simulate, /certify, /trace over the fullstack_8core DAGs: the gap to fullstack_8core is what HTTP + parse + serialise add",
    ),
    (
        "online_admission",
        "OnlineSession admission on 8x4 with residents climbing to ~200: submit re-runs federated_partition over every resident, the superlinear curve ROADMAP wants recorded; engine idle",
    ),
];

/// Sets `name` up from `seed`: generates inputs, computes the expected
/// outputs with direct calls and starts any server. `quick` shrinks the
/// corpora to a smoke run (its numbers compare with no full run).
///
/// # Errors
///
/// An unknown name, or a set-up step that could not produce its
/// reference output (the message says which).
pub fn setup(name: &str, seed: u64, quick: bool) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "fullstack_8core" => Box::new(engine::Fullstack::setup(seed, quick)?),
        "cluster_32core" => Box::new(engine::Cluster::setup(seed, quick)?),
        "analytic_sweep" => Box::new(analytic::Sweep::setup(seed, quick)),
        "serve_analytic" => Box::new(serve::Serve::setup_analytic(seed, quick)?),
        "serve_simulate" => Box::new(serve::Serve::setup_simulate(seed, quick)?),
        "online_admission" => Box::new(online::Admission::setup(seed)),
        other => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!("unknown workload `{other}`; one of: {}", names.join(", ")));
        }
    })
}

/// Candidates drawn per task kept where op cost follows DAG size.
pub const STRATIFY: usize = 64;

/// Bytes a run of `task` moves, near enough: every node stores its
/// payload once and each successor loads it; a constant per node stands
/// for the compute loop.
fn traffic(task: &DagTask) -> u64 {
    let dag = task.graph();
    dag.node_ids().map(|v| dag.node(v).data_bytes * (1 + dag.out_degree(v) as u64) + 256).sum()
}

/// `n` tasks from the Sec. 5.1 generator, as a stratified sample:
/// `oversample · n` candidates, each a function of `(seed, salt, index)`
/// alone, are ordered by [`traffic`] and the middle one of every
/// `oversample` is kept, in draw order (`oversample = 1` is a plain
/// draw). Another seed gives other DAGs, but the corpus's size profile —
/// and with it how long each op takes — repeats from seed to seed, so
/// timings taken on two seeds compare.
pub fn corpus(
    tr: &mut Tracer,
    seed: u64,
    salt: u64,
    n: usize,
    oversample: usize,
    params: &DagGenParams,
) -> Vec<DagTask> {
    let gen = DagGenerator::new(params.clone());
    let mut drawn: Vec<(u64, usize, DagTask)> = (0..n * oversample)
        .map(|i| {
            let mut rng = SmallRng::seed_from_u64(pool::item_seed(seed ^ salt, i));
            let task = tr
                .span("dag.generate", |_| gen.generate(&mut rng))
                .expect("benchmark generator parameters are valid");
            (traffic(&task), i, task)
        })
        .collect();
    drawn.sort_by_key(|&(weight, i, _)| (weight, i));
    let mut kept: Vec<(u64, usize, DagTask)> =
        drawn.into_iter().skip(oversample / 2).step_by(oversample).collect();
    kept.sort_by_key(|&(_, i, _)| i);
    kept.into_iter().map(|(_, _, task)| task).collect()
}

/// Digest of a corpus: the `.dag` text of every task.
pub fn corpus_digest(acc: u64, tasks: &[DagTask]) -> u64 {
    tasks.iter().fold(acc, |h, t| fnv1a(h, l15_dag::textio::write_task(t).as_bytes()))
}

/// The DAGs `fullstack_8core` runs and `serve_simulate` posts.
pub fn fullstack_corpus(tr: &mut Tracer, seed: u64, quick: bool) -> Vec<DagTask> {
    let params = DagGenParams {
        layers: (2, 4),
        max_width: 4,
        data_bytes_range: (2 * 1024, 16 * 1024),
        ..DagGenParams::default()
    };
    corpus(tr, seed, 0x6675_6c6c, if quick { 3 } else { 12 }, STRATIFY, &params)
}

/// Work scale of the data-heavy engine runs.
pub const FULLSTACK_ITERS: u32 = 32;

/// The simulated statistics of one or more engine runs. Exact for a seed:
/// a host-speed change must leave every field as it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineCounters {
    pub makespan_cycles: u64,
    pub instructions: u64,
    pub core_cycles: u64,
    pub hazard_stall_cycles: u64,
    pub flush_cycles: u64,
    pub loads: [u64; 4],
    pub fetches: [u64; 4],
    pub stores_via_l15: u64,
    pub stores_conventional: u64,
    pub ctrl_ops: u64,
    pub way_grants: u64,
    pub way_revokes: u64,
    pub gv_updates: u64,
    pub mem_lines: u64,
    /// `(hits, accesses)` of the merged L1s, the L1.5s and the L2.
    pub l1: (u64, u64),
    pub l15: (u64, u64),
    pub l2: (u64, u64),
}

impl EngineCounters {
    /// Reads every counter a finished run left on `soc`.
    pub fn harvest(soc: &Soc, makespan_cycles: u64) -> Self {
        let mut c = EngineCounters { makespan_cycles, ..Default::default() };
        for i in 0..soc.n_cores() {
            let s = soc.core(i).stats();
            c.instructions += s.instructions;
            c.core_cycles += s.cycles;
            c.hazard_stall_cycles += s.hazard_stalls;
            c.flush_cycles += s.flush_cycles;
        }
        let t = soc.uncore().trace().counters();
        c.loads = t.loads;
        c.fetches = t.fetches;
        c.stores_via_l15 = t.stores_via_l15;
        c.stores_conventional = t.stores_conventional;
        c.ctrl_ops = t.ctrl_ops;
        c.way_grants = t.grants;
        c.way_revokes = t.revokes;
        c.gv_updates = t.gv_updates;
        let h = soc.uncore().stats();
        c.mem_lines = h.mem_lines;
        c.l1 = (h.l1.hits(), h.l1.accesses());
        c.l15 = (h.l15.hits(), h.l15.accesses());
        c.l2 = (h.l2.hits(), h.l2.accesses());
        c
    }

    /// Field-wise sum.
    pub fn add(&mut self, o: &EngineCounters) {
        self.makespan_cycles += o.makespan_cycles;
        self.instructions += o.instructions;
        self.core_cycles += o.core_cycles;
        self.hazard_stall_cycles += o.hazard_stall_cycles;
        self.flush_cycles += o.flush_cycles;
        for i in 0..4 {
            self.loads[i] += o.loads[i];
            self.fetches[i] += o.fetches[i];
        }
        self.stores_via_l15 += o.stores_via_l15;
        self.stores_conventional += o.stores_conventional;
        self.ctrl_ops += o.ctrl_ops;
        self.way_grants += o.way_grants;
        self.way_revokes += o.way_revokes;
        self.gv_updates += o.gv_updates;
        self.mem_lines += o.mem_lines;
        for (a, b) in [(&mut self.l1, o.l1), (&mut self.l15, o.l15), (&mut self.l2, o.l2)] {
            a.0 += b.0;
            a.1 += b.1;
        }
    }

    /// Sum over runs.
    pub fn sum<'a>(runs: impl IntoIterator<Item = &'a EngineCounters>) -> Self {
        let mut total = EngineCounters::default();
        for r in runs {
            total.add(r);
        }
        total
    }

    /// Folds every field into a digest.
    pub fn digest(&self, acc: u64) -> u64 {
        fnv1a(acc, format!("{self:?}").as_bytes())
    }

    /// Simulated instructions per simulated core cycle.
    pub fn ipc(&self) -> f64 {
        ratio(self.instructions, self.core_cycles)
    }

    /// The exact `soc.*` and `cache.*` per-layer metrics of one corpus pass.
    pub fn layer_metrics(&self) -> Vec<Metric> {
        let count = |name: &str, v: u64| Metric::new(name, "count", v as f64);
        vec![
            count("soc.instructions", self.instructions),
            Metric::new("soc.cycles", "cycles", self.core_cycles as f64),
            Metric::new("soc.hazard_stall_cycles", "cycles", self.hazard_stall_cycles as f64),
            Metric::new("soc.flush_cycles", "cycles", self.flush_cycles as f64),
            count("soc.loads_l1", self.loads[0]),
            count("soc.loads_l15", self.loads[1]),
            count("soc.loads_l2", self.loads[2]),
            count("soc.loads_mem", self.loads[3]),
            count("soc.fetches_l1", self.fetches[0]),
            count("soc.fetches_l2", self.fetches[2]),
            count("soc.fetches_mem", self.fetches[3]),
            count("soc.stores_via_l15", self.stores_via_l15),
            count("soc.stores_conventional", self.stores_conventional),
            count("soc.ctrl_ops", self.ctrl_ops),
            count("soc.way_grants", self.way_grants),
            count("soc.way_revokes", self.way_revokes),
            count("soc.gv_updates", self.gv_updates),
            count("soc.mem_lines", self.mem_lines),
            Metric::new("cache.l1_hit_ratio", "ratio", ratio(self.l1.0, self.l1.1)),
            Metric::new("cache.l15_hit_ratio", "ratio", ratio(self.l15.0, self.l15.1)),
            Metric::new("cache.l2_hit_ratio", "ratio", ratio(self.l2.0, self.l2.1)),
        ]
    }
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The Alg. 1 plan every L1.5 run goes under: the paper's 16 ways of
/// 2 KiB.
pub fn alg1_plan(task: &DagTask) -> SchedulePlan {
    let etm = ExecutionTimeModel::new(2048).expect("2 KiB is a valid way size");
    schedule_with_l15(task, 16, &etm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::FNV_SEED;

    fn digest(seed: u64) -> u64 {
        corpus_digest(FNV_SEED, &fullstack_corpus(&mut Tracer::off(), seed, false))
    }

    #[test]
    fn corpora_are_a_pure_function_of_the_seed() {
        assert_eq!(digest(1), digest(1));
        assert_ne!(digest(1), digest(2), "another seed gives other inputs");
    }

    #[test]
    fn a_corpus_keeps_one_task_per_stratum_of_the_size_order() {
        let params = DagGenParams::default();
        let n = 6;
        let kept: Vec<u64> =
            corpus(&mut Tracer::off(), 7, 1, n, 8, &params).iter().map(traffic).collect();
        assert_eq!(kept.len(), n);
        // Redraw the candidates and check each stratum's median was kept.
        let gen = DagGenerator::new(params);
        let mut all: Vec<u64> = (0..n * 8)
            .map(|i| {
                let mut rng = SmallRng::seed_from_u64(pool::item_seed(7 ^ 1, i));
                traffic(&gen.generate(&mut rng).unwrap())
            })
            .collect();
        all.sort_unstable();
        let mut sorted = kept.clone();
        sorted.sort_unstable();
        let medians: Vec<u64> = all.chunks(8).map(|c| c[4]).collect();
        assert_eq!(sorted, medians);
    }

    #[test]
    fn every_workload_name_sets_up_and_unknown_names_are_refused() {
        assert!(setup("no_such_workload", 1, true).is_err());
        for (name, why) in WORKLOADS {
            assert!(why.len() <= 200, "{name}: why is {} chars", why.len());
        }
    }

    #[test]
    fn counters_sum_field_wise() {
        let a = EngineCounters {
            instructions: 3,
            loads: [1, 2, 3, 4],
            l15: (1, 2),
            ..Default::default()
        };
        let total = EngineCounters::sum([&a, &a]);
        assert_eq!(total.instructions, 6);
        assert_eq!(total.loads, [2, 4, 6, 8]);
        assert_eq!(total.l15, (2, 4));
        assert_eq!(ratio(total.l15.0, total.l15.1), 0.5);
        assert_eq!(ratio(1, 0), 0.0);
    }
}
