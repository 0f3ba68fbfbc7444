//! Abstract interpretation of a fuzz case's per-core access streams — the
//! adversarially-checked half of the analyzer.
//!
//! [`analyze_case`] replays the exact operation sequence the fuzz harness
//! ([`crate::fuzz::check_case`]) drives through the SoC, but over the
//! abstract domains of [`super::domain`], and emits one sound cycle bound
//! per global core. The harness then asserts, case by case, that the
//! concrete per-core cycles never exceed the bound — the **soundness**
//! verdict.
//!
//! The abstract machine mirrors the protocol semantics:
//!
//! * per-core L1D must/may caches (cold start — the SoC is fresh);
//! * per cluster, a **published** must-set: lines guaranteed resident in
//!   `gv_set` ways. GV ways are outside every write mask, so no fill can
//!   evict them; the only threat is back-invalidation by a dirty L1 victim
//!   of the same line, tracked through a per-core may-dirty set;
//! * per lane, an **own-view** must-map of at most one line per L1.5 set:
//!   lines guaranteed resident in the lane's writable ways. Masked-PLRU
//!   victim selection gives no life-span guarantee beyond the most recent
//!   fill, so any possible fill into a set clears that set's fact (see
//!   [`l15_cache::plru::TreePlru::must_capacity`]);
//! * a per-cluster **settled** flag: a mid-stream `Reconfig` may leave a
//!   Walloc backlog that revokes arbitrary ways (including GV ways) during
//!   any later `advance`, so the first reconfiguration conservatively and
//!   permanently drops every L1.5 must-fact of its cluster.

use std::collections::{BTreeMap, BTreeSet};

use l15_cache::plru::TreePlru;
use l15_soc::config::SocConfig;
use l15_testkit::fuzz::{CoreOp, FuzzCase};

use super::cost::CostModel;
use super::domain::{Classification, MaySet, MustCache};

/// The sound static bound (and classification census) of one core's
/// stream, including its share of control operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreBound {
    /// Global core index (cluster-major).
    pub core: usize,
    /// Upper bound on the cycles the harness charges this core.
    pub bound_cycles: u64,
    /// Accesses classified always-hit.
    pub ah: u64,
    /// Accesses classified always-miss (first touches; bound is exact).
    pub am: u64,
    /// Accesses not classified (bounded by the full chain).
    pub nc: u64,
}

/// The analysis result over every core of a case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamAnalysis {
    /// One bound per global core, in core order.
    pub per_core: Vec<CoreBound>,
}

/// Per-lane view of the L1.5: must-facts about the lane's writable ways.
#[derive(Debug, Clone)]
struct LaneView {
    /// At most one guaranteed-resident line per L1.5 set.
    own: BTreeMap<usize, u64>,
    /// Writable (owned, non-GV) way count, when statically known.
    writable: Option<usize>,
}

/// Abstract state of one cluster's L1.5.
#[derive(Debug, Clone)]
struct ClusterState {
    /// False from the first mid-stream `Reconfig` on: revocations may then
    /// strike during any later `advance`, so no L1.5 must-fact survives.
    settled: bool,
    /// Lines guaranteed resident in GV ways (readable by every lane of
    /// the same application).
    published: BTreeSet<u64>,
    /// Lines possibly present anywhere in this L1.5.
    may: MaySet,
    lanes: Vec<LaneView>,
}

/// Abstract per-core L1D state.
#[derive(Debug, Clone)]
struct CoreState {
    must: MustCache,
    may: MaySet,
    /// Lines this core may hold **dirty** in its L1D. Evicting such a line
    /// can back-invalidate a same-address L1.5 copy (including a published
    /// one), so possible evictions prune published/own-view facts.
    may_dirty: BTreeSet<u64>,
}

struct Analyzer {
    cost: CostModel,
    line_bytes: u64,
    l15_sets: usize,
    cores: Vec<CoreState>,
    clusters: Vec<ClusterState>,
    bounds: Vec<CoreBound>,
}

/// Computes the sound per-core cycle bound of `case` as run by the fuzz
/// harness on a fresh SoC configured as `cfg` (the harness's own
/// configuration — pass `Uncore::config()`).
///
/// The analysis is sequential and pure: its output is a function of
/// `(case, cfg)` only, hence byte-identical at any `L15_JOBS`.
///
/// # Panics
///
/// Panics if `cfg` has no L1.5 or its shape disagrees with the case's
/// knobs (the harness always passes its own matching config).
pub fn analyze_case(case: &FuzzCase, cfg: &SocConfig) -> StreamAnalysis {
    let knobs = &case.knobs;
    let l15cfg = cfg.l15.as_ref().expect("fuzz SoC always has an L1.5");
    assert_eq!(l15cfg.ways, knobs.ways, "config/knob way mismatch");
    assert_eq!(cfg.cores_per_cluster, knobs.cores, "config/knob core mismatch");

    let line_bytes = cfg.l1d.line_bytes;
    let l1_sets = ((cfg.l1d.capacity / line_bytes) as usize / cfg.l1d.ways).max(1);
    let l1_cap = TreePlru::must_capacity(cfg.l1d.ways);
    let l15_sets = ((l15cfg.way_bytes / line_bytes) as usize).max(1);

    let total = knobs.total_cores();
    let mut a = Analyzer {
        cost: CostModel::from_soc(cfg),
        line_bytes,
        l15_sets,
        cores: (0..total)
            .map(|_| CoreState {
                must: MustCache::new(l1_sets, l1_cap, line_bytes),
                may: MaySet::empty(line_bytes),
                may_dirty: BTreeSet::new(),
            })
            .collect(),
        clusters: (0..knobs.clusters)
            .map(|_| ClusterState {
                settled: true,
                published: BTreeSet::new(),
                may: MaySet::empty(line_bytes),
                lanes: (0..knobs.cores)
                    .map(|_| LaneView { own: BTreeMap::new(), writable: None })
                    .collect(),
            })
            .collect(),
        bounds: (0..total)
            .map(|core| CoreBound { core, bound_cycles: 0, ah: 0, am: 0, nc: 0 })
            .collect(),
    };
    a.run(case);
    StreamAnalysis { per_core: a.bounds }
}

impl Analyzer {
    fn line(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes - 1)
    }

    fn l15_set(&self, addr: u64) -> usize {
        ((addr / self.line_bytes) as usize) % self.l15_sets
    }

    fn charge(&mut self, core: usize, cycles: u64) {
        self.bounds[core].bound_cycles += cycles;
    }

    fn classify(&mut self, core: usize, c: Classification) {
        match c {
            Classification::Ah => self.bounds[core].ah += 1,
            Classification::Am => self.bounds[core].am += 1,
            Classification::Nc => self.bounds[core].nc += 1,
        }
    }

    /// Whether `addr` is guaranteed resident in the cluster's L1.5 from
    /// `lane`'s point of view (its own writable ways, or any GV way —
    /// both are in the lane's read mask under a single application tid).
    fn l15_must(&self, cl: usize, lane: usize, addr: u64) -> bool {
        let line = self.line(addr);
        let st = &self.clusters[cl];
        st.settled
            && (st.published.contains(&line)
                || st.lanes[lane].own.get(&self.l15_set(addr)) == Some(&line))
    }

    /// A fill may happen in `core`'s L1D set of `addr`: every line this
    /// core may hold dirty in that set (other than `addr` itself) may be
    /// evicted and back-invalidate its L1.5 copy — published or own-view.
    fn prune_dirty_victims(&mut self, cl: usize, core: usize, addr: u64) {
        let line = self.line(addr);
        let set = self.cores[core].must.set_of(addr);
        let victims: Vec<(u64, usize)> = self.cores[core]
            .may_dirty
            .iter()
            .copied()
            .filter(|&x| x != line && self.cores[core].must.set_of(x) == set)
            .map(|x| (x, ((x / self.line_bytes) as usize) % self.l15_sets))
            .collect();
        let st = &mut self.clusters[cl];
        for (x, s) in victims {
            st.published.remove(&x);
            for lane in &mut st.lanes {
                if lane.own.get(&s) == Some(&x) {
                    lane.own.remove(&s);
                }
            }
        }
    }

    /// Transfer of a load (private or consume): classification, bound,
    /// then the L1D and L1.5 state updates.
    fn load(&mut self, cl: usize, lane: usize, core: usize, addr: u64) {
        let l1_hit = self.cores[core].must.contains(addr);
        let l1_may = self.cores[core].may.contains(addr);
        let l15_hit = self.l15_must(cl, lane, addr);
        let l15_may = self.clusters[cl].may.contains(addr);

        if !l1_hit {
            self.prune_dirty_victims(cl, core, addr);
        }
        let (class, cycles) = if l1_hit {
            (Classification::Ah, self.cost.read_l1_hit())
        } else if l15_hit {
            (Classification::Ah, self.cost.read_l15_hit())
        } else if !l1_may && !l15_may {
            // First touch anywhere: the full chain is the exact cost.
            (Classification::Am, self.cost.read_chain())
        } else {
            (Classification::Nc, self.cost.read_chain())
        };
        self.classify(core, class);
        self.charge(core, cycles);

        self.cores[core].must.access(addr);
        self.cores[core].may.insert(addr);
        if !l1_hit {
            // The access may reach the L1.5 and, missing there, fill one
            // of the lane's writable ways.
            self.clusters[cl].may.insert(addr);
            if !l15_hit {
                self.possible_l15_fill(cl, lane, addr, !l1_may && !l15_may);
            }
        }
    }

    /// A fill into `lane`'s writable ways may (or, when `definite`, must)
    /// occur: the affected set loses its own-view fact; a definite fill
    /// with a known writable way installs the line as the new fact.
    fn possible_l15_fill(&mut self, cl: usize, lane: usize, addr: u64, definite: bool) {
        let line = self.line(addr);
        let set = self.l15_set(addr);
        let st = &mut self.clusters[cl];
        let view = &mut st.lanes[lane];
        if view.own.get(&set) != Some(&line) {
            view.own.remove(&set);
            if definite && st.settled && view.writable.unwrap_or(0) > 0 {
                view.own.insert(set, line);
            }
        }
    }

    /// Transfer of a conventional (non-routed) store.
    fn store_conventional(&mut self, cl: usize, lane: usize, core: usize, addr: u64) {
        let l1_hit = self.cores[core].must.contains(addr);
        let l1_may = self.cores[core].may.contains(addr);
        let l15_hit = self.l15_must(cl, lane, addr);
        let l15_may = self.clusters[cl].may.contains(addr);

        if !l1_hit {
            self.prune_dirty_victims(cl, core, addr);
        }
        let (class, cycles) = if l1_hit {
            (Classification::Ah, self.cost.store_l1_hit())
        } else if l15_hit {
            (Classification::Ah, self.cost.store_l15_hit())
        } else if !l1_may && !l15_may {
            (Classification::Am, self.cost.store_chain())
        } else {
            (Classification::Nc, self.cost.store_chain())
        };
        self.classify(core, class);
        self.charge(core, cycles);

        self.cores[core].must.access(addr);
        self.cores[core].may.insert(addr);
        let line = self.line(addr);
        self.cores[core].may_dirty.insert(line);
        if !l1_hit {
            self.clusters[cl].may.insert(addr);
            if !l15_hit {
                // Write-allocate goes through the shared read path, which
                // fills the lane's writable ways exactly like a load miss.
                self.possible_l15_fill(cl, lane, addr, !l1_may && !l15_may);
            }
        }
    }

    /// Transfer of `flush_l1d(core)`: dirty lines are merged into a
    /// writable L1.5 copy when one is guaranteed, otherwise they may
    /// back-invalidate a same-address L1.5 copy on the way down.
    fn flush_l1d(&mut self, cl: usize, lane: usize, core: usize) {
        let dirty: Vec<(u64, usize)> = self.cores[core]
            .may_dirty
            .iter()
            .copied()
            .map(|x| (x, ((x / self.line_bytes) as usize) % self.l15_sets))
            .collect();
        for (x, s) in dirty {
            let st = &mut self.clusters[cl];
            let in_own = st.settled && st.lanes[lane].own.get(&s) == Some(&x);
            if !in_own {
                st.published.remove(&x);
                for l in &mut st.lanes {
                    if l.own.get(&s) == Some(&x) {
                        l.own.remove(&s);
                    }
                }
            }
        }
        self.cores[core].must.clear();
        self.cores[core].may.clear();
        self.cores[core].may_dirty.clear();
    }

    /// Transfer of the produce episode (ip_set → store → supply → gv_set
    /// [→ flush] → ip_set), charging its four control ops.
    fn produce(&mut self, cl: usize, lane: usize, core: usize, addr: u64) {
        let line = self.line(addr);
        self.charge(core, 4 * self.cost.ctrl);

        let settled = self.clusters[cl].settled;
        let writable = self.clusters[cl].lanes[lane].writable;
        match (settled, writable) {
            (true, Some(w)) if w > 0 => {
                // Routed: the L1D copy is definitely invalidated and the
                // line definitely ends up in a writable way.
                let posted = self.l15_must(cl, lane, addr)
                    && self.clusters[cl].lanes[lane].own.get(&self.l15_set(addr)) == Some(&line);
                let cycles = if posted {
                    self.classify(core, Classification::Ah);
                    self.cost.store_posted()
                } else {
                    self.classify(core, Classification::Nc);
                    self.cost.store_routed_chain()
                };
                self.charge(core, cycles);
                self.cores[core].must.remove(addr);
                self.cores[core].may.remove(addr);
                self.cores[core].may_dirty.remove(&line);
                self.clusters[cl].may.insert(addr);
                let set = self.l15_set(addr);
                let view = &mut self.clusters[cl].lanes[lane];
                view.own.remove(&set);
                view.own.insert(set, line);
            }
            (true, Some(_)) => {
                // No writable way: the conventional path plus the
                // flush-and-share fallback.
                self.store_conventional(cl, lane, core, addr);
                self.flush_l1d(cl, lane, core);
            }
            _ => {
                // Routing statically unknown (unsettled cluster): charge
                // the worst of both paths; keep only state facts common to
                // both outcomes.
                self.classify(core, Classification::Nc);
                self.charge(core, self.cost.store_unknown());
                // Conventional branch ends in a full flush; routed branch
                // invalidates the line. Must-intersection: empty L1D.
                // May-union: everything previously possible minus the
                // produced line (flushed in one branch, invalidated in the
                // other)… except lines the conventional fill could add.
                self.cores[core].must.clear();
                self.cores[core].may.remove(addr);
                self.cores[core].may_dirty.remove(&line);
                // The flush branch may back-invalidate any dirty line.
                let dirty: Vec<u64> = self.cores[core].may_dirty.iter().copied().collect();
                for x in dirty {
                    self.clusters[cl].published.remove(&x);
                }
                self.clusters[cl].may.insert(addr);
            }
        }

        // gv_set(supply): every owned way becomes GV — own-view facts are
        // promoted to published, and the writable count drops to zero.
        if self.clusters[cl].settled {
            let lines: Vec<u64> = self.clusters[cl].lanes[lane].own.values().copied().collect();
            self.clusters[cl].published.extend(lines);
            let view = &mut self.clusters[cl].lanes[lane];
            view.own.clear();
            if view.writable.is_some() {
                view.writable = Some(0);
            }
        }
    }

    fn run(&mut self, case: &FuzzCase) {
        let knobs = &case.knobs;
        let clusters = knobs.clusters;

        // Init: one demand per lane per cluster, then a settle long enough
        // to apply every initial grant (Σ init demands ≤ ways, all free).
        for (lane, &d) in case.init_demand.iter().enumerate() {
            for cl in 0..clusters {
                self.charge(cl * knobs.cores + lane, self.cost.ctrl);
                self.clusters[cl].lanes[lane].writable = Some(d);
            }
        }

        for &(lane, op) in &case.steps {
            match op {
                CoreOp::Load { slot } => {
                    for cl in 0..clusters {
                        let core = cl * knobs.cores + lane;
                        self.load(cl, lane, core, knobs.private_addr(core, slot));
                    }
                }
                CoreOp::Store { slot, .. } => {
                    for cl in 0..clusters {
                        let core = cl * knobs.cores + lane;
                        self.store_conventional(cl, lane, core, knobs.private_addr(core, slot));
                    }
                }
                CoreOp::Consume { slot } => {
                    for cl in 0..clusters {
                        let core = cl * knobs.cores + lane;
                        self.load(cl, lane, core, knobs.shared_addr_in(cl, slot));
                    }
                }
                CoreOp::Produce { slot, .. } => {
                    for cl in 0..clusters {
                        let core = cl * knobs.cores + lane;
                        self.produce(cl, lane, core, knobs.shared_addr_in(cl, slot));
                    }
                }
                CoreOp::Reconfig { .. } => {
                    // A mid-stream demand change may leave a Walloc backlog
                    // whose revocations strike during any later advance —
                    // permanently drop the cluster's L1.5 must-facts.
                    for cl in 0..clusters {
                        self.charge(cl * knobs.cores + lane, self.cost.ctrl);
                        let st = &mut self.clusters[cl];
                        st.settled = false;
                        st.published.clear();
                        for l in &mut st.lanes {
                            l.own.clear();
                            l.writable = None;
                        }
                    }
                }
                CoreOp::Advance { .. } => {}
            }
        }

        // Epilogue: one release demand per core (flush_all and the final
        // settle are free on core clocks).
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
        assert_eq!(b.am, 1, "first touch is an always-miss");
        assert_eq!(b.ah, 2, "subsequent touches are always-hits");
        assert_eq!(b.nc, 0);
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
        assert_eq!(b.ah, 1);
        assert_eq!(b.am, 1);
    }
}
