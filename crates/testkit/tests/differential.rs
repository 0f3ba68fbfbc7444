//! Differential / golden-trace harness: generated DAG workloads executed
//! through the L1.5 path and the baseline path, checked against the four
//! paper invariants (each assertion message names the one it checks):
//!
//! 1. **Memory equivalence** — the proposed SoC and the legacy SoC
//!    produce byte-identical dependent-data images at quiesce; the
//!    co-design changes timing, never results.
//! 2. **Stats conservation** — `CacheStats` counters add up at every
//!    level of the hierarchy, and per-core L1.5 tallies sum to the
//!    aggregate.
//! 3. **TID non-interference** — a core's hit/miss sequence and its data
//!    are unaffected by another core running under a different TID on its
//!    own ways.
//! 4. **Makespan dominance** — Alg. 1 never schedules worse than the
//!    baseline priority assignment on cache-fit workloads (analytic
//!    model, deterministic interference draw).
//!
//! The property runner runs every case it is configured for (a property
//! cannot pass having checked fewer) and shards them over the `L15_JOBS`
//! pool workers: every case constructs its own `Soc`/`L15Cache` instances
//! on whichever worker thread runs it (no simulator state is ever shared
//! between threads), so the suite is parallel yet byte-identically
//! reproducible at any worker count.

use l15_cache::l15::{L15Cache, L15Config};
use l15_core::alg1::schedule_with_l15;
use l15_core::baseline::{baseline_priorities, SystemModel};
use l15_dag::gen::{DagGenParams, DagGenerator};
use l15_dag::{DagTask, ExecutionTimeModel};
use l15_runtime::kernel::{run_task, KernelConfig};
use l15_runtime::layout::TaskLayout;
use l15_runtime::WorkScale;
use l15_soc::{Soc, SocConfig};
use l15_testkit::prop::{self, Config, G};
use l15_testkit::rng::{Rng, SmallRng};

/// Constant-output RNG: `gen_range(0.0..1.0)` yields exactly 0.5, making
/// the analytic simulators deterministic so dominance is a property of
/// the schedules, not of a lucky interference draw.
struct ConstRng(u64);

impl Rng for ConstRng {
    fn next_u64(&mut self) -> u64 {
        self.0
    }
}

fn gen_task(g: &mut G, layers: (usize, usize), width: usize, data_range: (u64, u64)) -> DagTask {
    let seed = g.any_u64();
    let params = DagGenParams {
        layers,
        max_width: width,
        data_bytes_range: data_range,
        period_range: (50.0, 200.0),
        ..Default::default()
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    DagGenerator::new(params).generate(&mut rng).expect("valid parameters")
}

/// Invariant 4: Alg. 1's schedule, simulated on the proposed system, never
/// loses to the baseline priorities simulated on the same system — the
/// paper's claim that the co-designed plan dominates on workloads whose
/// dependent data fits the allocated ways.
fn check_makespan_dominance(g: &mut G) {
    // Cache-fit: every node's dependent data fits a single 2 KiB way.
    let width = g.usize_in(2..=5);
    let task = gen_task(g, (2, 4), width, (256, 2048));
    let etm = ExecutionTimeModel::new(2048).expect("valid way size");
    let model = SystemModel::proposed();
    let alg1 = schedule_with_l15(&task, 16, &etm);
    let base = baseline_priorities(&task);
    for k in [0usize, 1, 4] {
        let a = model.simulate_instance(&task, 8, &alg1, k, &mut ConstRng(1 << 63)).makespan;
        let b = model.simulate_instance(&task, 8, &base, k, &mut ConstRng(1 << 63)).makespan;
        assert!(
            a <= b * (1.0 + 1e-9),
            "makespan-dominance: Alg.1 makespan {a} > baseline {b} at instance {k}"
        );
    }
}

fn image_of(soc: &mut Soc, task: &DagTask, layout: &TaskLayout) -> Vec<Vec<u8>> {
    let g = task.graph();
    (0..g.node_count())
        .map(|v| {
            let node = g.node(l15_dag::NodeId(v));
            let mut buf = vec![0u8; node.data_bytes as usize];
            soc.uncore_mut().host_read(layout.output_of(l15_dag::NodeId(v)), &mut buf);
            buf
        })
        .collect()
}

fn check_level(stats: &l15_cache::stats::CacheStats, level: &str) {
    assert_eq!(
        stats.accesses(),
        stats.hits() + stats.misses(),
        "stats-conservation: {level} accesses must equal hits + misses"
    );
    // Note: no ordering between fills and misses is asserted — the L2
    // allocates on write-back (fill without a demand miss) and the L1.5
    // drops fills when no way is writable (miss without a fill).
}

/// Invariants 1 + 2 on the full stack: the same generated task, with the
/// same dependent data, executed instruction-by-instruction on the
/// proposed SoC (L1.5 path) and on the capacity-equalised legacy SoC
/// (flush-to-L2 path). At quiesce the dependent-data images must match
/// byte for byte, and the hierarchy counters must add up.
fn check_memory_equivalence(g: &mut G) {
    // Small topologies: each case is two cycle-accurate whole-SoC runs.
    let width = g.usize_in(2..=3);
    let task = gen_task(g, (2, 3), width, (2048, 4096));
    let etm = ExecutionTimeModel::new(2048).expect("valid way size");
    let layout = TaskLayout::new(task.graph());
    let scale = WorkScale { compute_iters: 4 };

    let plan_p = schedule_with_l15(&task, 16, &etm);
    let mut soc_p = Soc::new(SocConfig::proposed_8core(), 0);
    let cfg_p = KernelConfig { scale, ..Default::default() };
    let rep_p = run_task(&mut soc_p, &task, &plan_p, &cfg_p).expect("proposed run");

    let plan_b = baseline_priorities(&task);
    let mut soc_b = Soc::new(SocConfig::cmp_l1_8core(), 0);
    let cfg_b = KernelConfig { use_l15: false, scale, ..Default::default() };
    let rep_b = run_task(&mut soc_b, &task, &plan_b, &cfg_b).expect("legacy run");

    assert!(rep_p.dataflow_ok && rep_b.dataflow_ok, "dependent data must flow");

    // 1. Memory images at quiesce (run_task flushes all levels).
    let img_p = image_of(&mut soc_p, &task, &layout);
    let img_b = image_of(&mut soc_b, &task, &layout);
    for (v, (a, b)) in img_p.iter().zip(&img_b).enumerate() {
        assert!(
            a == b,
            "memory-equivalence: node {v} output differs between L1.5 and legacy paths"
        );
    }

    // 2. Counter conservation on both hierarchies.
    for (soc, rep, l15_expected) in [(&soc_p, &rep_p, true), (&soc_b, &rep_b, false)] {
        let h = soc.uncore().stats();
        check_level(&h.l1, "L1");
        check_level(&h.l15, "L1.5");
        check_level(&h.l2, "L2");
        if l15_expected {
            let agree = "stats-conservation: monitor and hierarchy must agree";
            assert_eq!(h.l15.hits(), rep.l15_hits, "{agree}");
            assert_eq!(h.l15.misses(), rep.l15_misses, "{agree}");
        } else {
            assert_eq!(h.l15.accesses(), 0, "stats-conservation: legacy SoC has no L1.5 traffic");
        }
    }
}

/// One step of the TID workload on its 4-line pool (all in one set, so a
/// 4-way allocation never self-evicts and the hit/miss outcome depends
/// only on the core's own history).
#[derive(Debug, Clone, Copy)]
enum TidOp {
    Read(usize),
    Write(usize),
}

fn line_addr(set_stride: u64, k: usize) -> u64 {
    (k as u64) * set_stride
}

/// Replays `ops` for `core` against `cache`, filling on read misses the
/// way the SoC datapath does. Returns the observed hit/miss sequence.
fn replay(cache: &mut L15Cache, core: usize, pool_base: usize, ops: &[TidOp]) -> Vec<bool> {
    let set_stride = cache.config().way_bytes; // one line per way per set
    let line = cache.config().line_bytes as usize;
    let mut outcomes = Vec::with_capacity(ops.len());
    for &op in ops {
        match op {
            TidOp::Read(k) => {
                let addr = line_addr(set_stride, pool_base + k);
                let mut buf = [0u8; 8];
                let out = cache.read(core, addr, addr, &mut buf).expect("core in range");
                if !out.hit {
                    let data = vec![(pool_base + k) as u8; line];
                    cache.fill(core, addr, addr, &data, false).expect("core in range");
                }
                outcomes.push(out.hit);
            }
            TidOp::Write(k) => {
                let addr = line_addr(set_stride, pool_base + k);
                let data = [(pool_base + k) as u8; 8];
                let out = cache.write(core, addr, addr, &data).expect("core in range");
                outcomes.push(out.hit);
            }
        }
    }
    outcomes
}

fn protected_cache() -> L15Cache {
    let mut cache = L15Cache::new(L15Config::default()).expect("paper config is valid");
    cache.demand(0, 4).expect("within zeta");
    cache.demand(1, 4).expect("within zeta");
    cache.settle();
    cache.set_tid(0, 100).expect("core in range");
    cache.set_tid(1, 200).expect("core in range");
    cache
}

/// Invariant 3 (+2 at cache level): core 0's hit/miss sequence and final
/// data are identical whether or not core 1 runs an arbitrary interleaved
/// workload under a different TID on its own ways.
fn check_tid_non_interference(g: &mut G) {
    let arb_op = |g: &mut G| -> TidOp {
        let k = g.usize_in(0..4);
        if g.bool() {
            TidOp::Read(k)
        } else {
            TidOp::Write(k)
        }
    };
    let ops0: Vec<TidOp> = g.vec_of(1..40, arb_op);
    let ops1: Vec<TidOp> = g.vec_of(1..40, arb_op);

    // Solo: core 0 alone.
    let mut solo = protected_cache();
    let expected = replay(&mut solo, 0, 0, &ops0);

    // Interleaved: the same core-0 workload with core 1 injecting its own
    // ops (pool lines 8..12, same sets, different TID) between each step.
    let mut shared = protected_cache();
    let mut observed = Vec::with_capacity(ops0.len());
    let mut it1 = ops1.iter().cycle();
    for &op in &ops0 {
        observed.extend(replay(&mut shared, 0, 0, &[op]));
        let intruder = *it1.next().expect("cycle is infinite");
        replay(&mut shared, 1, 8, &[intruder]);
    }
    assert_eq!(
        expected, observed,
        "tid-non-interference: core 0's hit/miss sequence changed under interference"
    );

    // Core 0's lines still hold core 0's data (no cross-TID leakage).
    for k in 0..4 {
        let addr = line_addr(shared.config().way_bytes, k);
        let mut buf = [0u8; 8];
        let out = shared.read(0, addr, addr, &mut buf).expect("core in range");
        if out.hit {
            assert_eq!(buf, [k as u8; 8], "tid-non-interference: core 0 data corrupted by core 1");
        }
    }

    // Cache-level counter conservation: per-core tallies sum to the
    // aggregate.
    let agg = shared.stats();
    let mut hits = 0;
    let mut misses = 0;
    for core in 0..shared.config().cores {
        let s = shared.core_stats(core).expect("core in range");
        hits += s.hits();
        misses += s.misses();
    }
    assert_eq!(agg.hits(), hits, "stats-conservation: per-core hits must sum to the aggregate");
    assert_eq!(
        agg.misses(),
        misses,
        "stats-conservation: per-core misses must sum to the aggregate"
    );
}

/// 100 generated DAG workloads through the analytic planners.
#[test]
fn differential_makespan_dominance() {
    prop::run_with(Config::with_cases(100), "diff_makespan_dominance", check_makespan_dominance);
}

/// Full-stack cycle-level runs are expensive; a handful suffices for the
/// equivalence/conservation invariants, and the shrink budget is capped
/// so a failure reports quickly instead of re-simulating for minutes.
#[test]
fn differential_memory_equivalence() {
    let cfg = Config { max_shrink_iters: 16, ..Config::with_cases(4) };
    prop::run_with(cfg, "diff_memory_equivalence", check_memory_equivalence);
}

#[test]
fn differential_tid_non_interference() {
    prop::run_with(Config::with_cases(32), "diff_tid_non_interference", check_tid_non_interference);
}
