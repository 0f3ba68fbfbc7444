//! Abstract interpretation of a fuzz case's per-core access streams — the
//! adversarially-checked half of the analyzer.
//!
//! [`analyze_case`] replays the exact operation sequence the fuzz harness
//! ([`crate::fuzz::check_case`]) drives through the SoC, but over the
//! abstract domains of [`super::domain`], and emits the cycles it charges
//! each global core at every step. The harness then asserts, step by step
//! and core by core, that the concrete cycles never exceed the charge —
//! the **soundness** verdict.
//!
//! The abstract machine mirrors the protocol semantics:
//!
//! * per-core L1D must/may caches (cold start — the SoC is fresh), plus a
//!   may-dirty set: evicting a dirty line can back-invalidate its L1.5
//!   copy, so every possible eviction is a
//!   [`L15Must::back_invalidate`];
//! * per cluster, the L1.5 must-facts of [`L15Must`] — the same transfers
//!   the DAG certifier ([`super::node`]) steps — and a may-set of the
//!   lines possibly present. The init demands settle before the first
//!   step; the first mid-stream `Reconfig` may leave a Walloc backlog that
//!   revokes arbitrary ways (GV ways included) during any later `advance`,
//!   so it permanently drops every L1.5 must-fact of its cluster.

use std::collections::BTreeSet;

use l15_cache::plru::TreePlru;
use l15_soc::config::SocConfig;
use l15_testkit::fuzz::{CoreOp, FuzzCase};

use super::cost::CostModel;
use super::domain::{Census, Classification, L15Must, MaySet, MustCache};

/// The sound static bound (and classification census) of one core's
/// stream, including its share of control operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreBound {
    /// Global core index (cluster-major).
    pub core: usize,
    /// Upper bound on the cycles the harness charges this core.
    pub bound_cycles: u64,
    /// Classification of the core's accesses.
    pub census: Census,
}

/// The analysis result over every core of a case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamAnalysis {
    /// One bound per global core, in core order.
    pub per_core: Vec<CoreBound>,
    /// Cycles charged per phase and global core, row-major: row 0 is the
    /// initial demands, row `1 + i` is `case.steps[i]`, the last row the
    /// epilogue. Each core's column sums to its `bound_cycles`.
    pub charges: Vec<u64>,
}

impl StreamAnalysis {
    /// The cycles charged to `core` in phase `row` (see [`Self::charges`]).
    pub fn charge(&self, row: usize, core: usize) -> u64 {
        self.charges[row * self.per_core.len() + core]
    }
}

/// Abstract per-core L1D state.
struct CoreState {
    must: MustCache,
    may: MaySet,
    /// Lines this core may hold **dirty** in its L1D.
    may_dirty: BTreeSet<u64>,
}

/// Abstract state of one cluster's L1.5.
struct ClusterState {
    must: L15Must,
    /// Lines possibly present anywhere in this L1.5.
    may: MaySet,
}

struct Analyzer {
    cost: CostModel,
    line_bytes: u64,
    cores: Vec<CoreState>,
    clusters: Vec<ClusterState>,
    bounds: Vec<CoreBound>,
    charges: Vec<u64>,
    /// The phase being charged (a row of [`StreamAnalysis::charges`]).
    row: usize,
}

/// Computes the sound per-step, per-core cycle charges of `case` as run by
/// the fuzz harness on a fresh SoC configured as `cfg` (the harness's own
/// configuration — pass `Uncore::config()`).
///
/// The analysis is sequential and pure: its output is a function of
/// `(case, cfg)` only, hence byte-identical at any `L15_JOBS`.
///
/// # Panics
///
/// Panics if `cfg` has no L1.5 or its shape disagrees with the case's
/// knobs (the harness always passes its own matching config), or if the
/// case lacks an initial demand per lane (generated cases never do).
pub fn analyze_case(case: &FuzzCase, cfg: &SocConfig) -> StreamAnalysis {
    let knobs = &case.knobs;
    let l15cfg = cfg.l15.as_ref().expect("fuzz SoC always has an L1.5");
    assert_eq!(l15cfg.ways, knobs.ways, "config/knob way mismatch");
    assert_eq!(cfg.cores_per_cluster, knobs.cores, "config/knob core mismatch");
    assert_eq!(case.init_demand.len(), knobs.cores, "one initial demand per lane");

    let line_bytes = cfg.l1d.line_bytes;
    let l1_sets = ((cfg.l1d.capacity / line_bytes) as usize / cfg.l1d.ways).max(1);
    let l1_cap = TreePlru::must_capacity(cfg.l1d.ways);
    let l15_sets = ((l15cfg.way_bytes / line_bytes) as usize).max(1);

    let total = knobs.total_cores();
    let mut a = Analyzer {
        cost: CostModel::from_soc(cfg),
        line_bytes,
        cores: (0..total)
            .map(|_| CoreState {
                must: MustCache::new(l1_sets, l1_cap, line_bytes),
                may: MaySet::empty(line_bytes),
                may_dirty: BTreeSet::new(),
            })
            .collect(),
        clusters: (0..knobs.clusters)
            .map(|_| ClusterState {
                must: L15Must::new(l15_sets, line_bytes, &case.init_demand, BTreeSet::new()),
                may: MaySet::empty(line_bytes),
            })
            .collect(),
        bounds: (0..total)
            .map(|core| CoreBound { core, bound_cycles: 0, census: Census::default() })
            .collect(),
        charges: vec![0; (case.steps.len() + 2) * total],
        row: 0,
    };
    a.run(case);
    StreamAnalysis { per_core: a.bounds, charges: a.charges }
}

impl Analyzer {
    fn charge(&mut self, core: usize, cycles: u64) {
        self.bounds[core].bound_cycles += cycles;
        self.charges[self.row * self.bounds.len() + core] += cycles;
    }

    /// Counts a classified access of `core` and charges its bound.
    fn tally(&mut self, core: usize, access: (Classification, u64)) {
        let cycles = self.bounds[core].census.tally(access);
        self.charge(core, cycles);
    }

    /// A fill may happen in `core`'s L1D set of `addr`: every line this
    /// core may hold dirty in that set (other than `addr` itself) may be
    /// evicted and back-invalidate its L1.5 copy.
    fn prune_dirty_victims(&mut self, cl: usize, core: usize, addr: u64) {
        let c = &self.cores[core];
        let (line, set) = (addr & !(self.line_bytes - 1), c.must.set_of(addr));
        for &x in c.may_dirty.iter().filter(|&&x| x != line && c.must.set_of(x) == set) {
            self.clusters[cl].must.back_invalidate(x);
        }
    }

    /// Transfer of a load (private or consume) or a conventional store:
    /// they share the read path (write-allocate) and differ only in the
    /// store leaving its line may-dirty.
    fn access(&mut self, cl: usize, lane: usize, core: usize, addr: u64, store: bool) {
        let l1_hit = self.cores[core].must.contains(addr);
        let l15_hit = self.clusters[cl].must.hits(lane, addr);
        let first_touch =
            !self.cores[core].may.contains(addr) && !self.clusters[cl].may.contains(addr);

        if !l1_hit {
            self.prune_dirty_victims(cl, core, addr);
        }
        self.tally(core, self.cost.access(l1_hit, l15_hit, first_touch));

        let c = &mut self.cores[core];
        c.must.access(addr);
        c.may.insert(addr);
        if store {
            c.may_dirty.insert(addr & !(self.line_bytes - 1));
        }
        if !l1_hit {
            // The access may reach the L1.5 and, missing there, fill one
            // of the lane's writable ways (definitely, on a first touch).
            let st = &mut self.clusters[cl];
            st.may.insert(addr);
            if !l15_hit {
                st.must.fill(lane, addr, first_touch);
            }
        }
    }

    /// Transfer of `flush_l1d(core)`: every possibly-dirty line is written
    /// back through the L1.5.
    fn flush_l1d(&mut self, cl: usize, lane: usize, core: usize) {
        let c = &mut self.cores[core];
        for &x in &c.may_dirty {
            self.clusters[cl].must.write_back(lane, x);
        }
        c.must.clear();
        c.may.clear();
        c.may_dirty.clear();
    }

    /// Transfer of the produce episode (ip_set → store → supply → gv_set
    /// [→ flush] → ip_set), charging its four control ops.
    fn produce(&mut self, cl: usize, lane: usize, core: usize, addr: u64) {
        let line = addr & !(self.line_bytes - 1);
        self.charge(core, 4 * self.cost.ctrl);

        match self.clusters[cl].must.routing(lane) {
            Some(true) => {
                // Routed: the L1D copy is definitely invalidated and the
                // line definitely ends up in a writable way.
                let posted = self.clusters[cl].must.routed_store(lane, addr);
                self.tally(core, self.cost.routed(posted));
                let c = &mut self.cores[core];
                c.must.remove(addr);
                c.may.remove(addr);
                c.may_dirty.remove(&line);
                self.clusters[cl].may.insert(addr);
            }
            Some(false) => {
                // No writable way: the conventional path plus the
                // flush-and-share fallback.
                self.access(cl, lane, core, addr, true);
                self.flush_l1d(cl, lane, core);
            }
            None => {
                // Routing statically unknown (unsettled cluster): charge
                // the worst of both paths; keep only state facts common to
                // both outcomes. The conventional branch ends in a full
                // flush, the routed one invalidates the line: the L1D
                // must-cache empties, and the produced line leaves the
                // may-set (flushed in one branch, invalidated in the
                // other).
                self.tally(core, (Classification::Nc, self.cost.store_unknown()));
                let c = &mut self.cores[core];
                c.must.clear();
                c.may.remove(addr);
                c.may_dirty.remove(&line);
                let st = &mut self.clusters[cl];
                st.must.unknown_store(lane, addr);
                // The flush branch may back-invalidate any dirty line.
                for &x in &c.may_dirty {
                    st.must.back_invalidate(x);
                }
                st.may.insert(addr);
            }
        }

        // gv_set(supply): every owned way becomes GV.
        self.clusters[cl].must.publish(lane, |_| true);
    }

    fn run(&mut self, case: &FuzzCase) {
        let knobs = &case.knobs;
        let clusters = knobs.clusters;
        let core_of = |cl: usize, lane: usize| cl * knobs.cores + lane;

        // Init: one demand per lane per cluster, then a settle long enough
        // to apply every initial grant (Σ init demands ≤ ways, all free).
        for lane in 0..case.init_demand.len() {
            for cl in 0..clusters {
                self.charge(core_of(cl, lane), self.cost.ctrl);
            }
        }
        for st in &mut self.clusters {
            st.must.settle();
        }

        for &(lane, op) in &case.steps {
            self.row += 1;
            for cl in 0..clusters {
                let core = core_of(cl, lane);
                match op {
                    CoreOp::Load { slot } => {
                        self.access(cl, lane, core, knobs.private_addr(core, slot), false);
                    }
                    CoreOp::Store { slot, .. } => {
                        self.access(cl, lane, core, knobs.private_addr(core, slot), true);
                    }
                    CoreOp::Consume { slot } => {
                        self.access(cl, lane, core, knobs.shared_addr_in(cl, slot), false);
                    }
                    CoreOp::Produce { slot, .. } => {
                        self.produce(cl, lane, core, knobs.shared_addr_in(cl, slot));
                    }
                    CoreOp::Reconfig { .. } => {
                        self.charge(core, self.cost.ctrl);
                        self.clusters[cl].must.reconfig();
                    }
                    CoreOp::Advance { .. } => {}
                }
            }
        }

        // Epilogue: one release demand per core (flush_all and the final
        // settle are free on core clocks).
        self.row += 1;
        for core in 0..knobs.total_cores() {
            self.charge(core, self.cost.ctrl);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l15_testkit::fuzz::FuzzKnobs;
    use l15_testkit::prop;

    fn knobs() -> FuzzKnobs {
        FuzzKnobs::quick()
    }

    fn some_case(seed: u64) -> FuzzCase {
        l15_testkit::fuzz::draw_case(&mut prop::seeded_g(seed), &knobs())
    }

    fn fuzz_cfg(case: &FuzzCase) -> SocConfig {
        crate::fuzz::fuzz_soc_config(&case.knobs)
    }

    #[test]
    fn analysis_is_deterministic() {
        let case = some_case(7);
        let cfg = fuzz_cfg(&case);
        assert_eq!(analyze_case(&case, &cfg), analyze_case(&case, &cfg));
    }

    #[test]
    fn bounds_cover_control_ops_at_minimum() {
        let case = some_case(11);
        let cfg = fuzz_cfg(&case);
        let analysis = analyze_case(&case, &cfg);
        // Every core pays at least its init + epilogue control ops.
        for b in &analysis.per_core {
            assert!(b.bound_cycles >= 2, "core {} bound {}", b.core, b.bound_cycles);
        }
        assert_eq!(analysis.per_core.len(), case.knobs.total_cores());
    }

    #[test]
    fn repeated_private_loads_classify_always_hit() {
        // A hand-written case: one core loads the same private line three
        // times. First touch is AM (cold SoC), the rest AH.
        let mut case = some_case(1);
        case.steps = vec![
            (0, CoreOp::Load { slot: 0 }),
            (0, CoreOp::Load { slot: 0 }),
            (0, CoreOp::Load { slot: 0 }),
        ];
        let cfg = fuzz_cfg(&case);
        let analysis = analyze_case(&case, &cfg);
        let b = &analysis.per_core[0];
        assert_eq!(b.census, Census { ah: 2, am: 1, nc: 0 }, "first touch misses, the rest hit");
    }

    #[test]
    fn reconfig_drops_l15_facts_but_keeps_l1_facts() {
        let mut case = some_case(1);
        case.steps = vec![
            (0, CoreOp::Load { slot: 0 }),
            (0, CoreOp::Reconfig { ways: 1, settle: 0 }),
            (0, CoreOp::Load { slot: 0 }),
        ];
        let cfg = fuzz_cfg(&case);
        let analysis = analyze_case(&case, &cfg);
        let b = &analysis.per_core[0];
        // The second load still must-hits the (per-core, unrevocable) L1D.
        assert_eq!((b.census.ah, b.census.am), (1, 1));
    }
}
