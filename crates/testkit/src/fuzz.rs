//! `ParallelRegressionGen`-style stimulus generation for the L1.5 memory
//! subsystem (FlexiCAS's parallel regression scheme, adapted to the
//! paper's protocol), plus the flat sequential memory oracle the harness
//! checks against.
//!
//! # Address pools
//!
//! Following FlexiCAS's `PAddrN`/`SAddrN` split, every core draws from a
//! *private* pool (`private_slots` lines, disjoint per core) and all
//! cores share one *shared* pool (`shared_slots` lines). Private traffic
//! exercises the plain hierarchy; shared traffic exercises the L1.5
//! producer/consumer protocol — supply writes, GV publication, TID
//! protection and Walloc reconfiguration.
//!
//! # Legality by construction
//!
//! The platform has no inter-L1 coherence: sharing is only legal through
//! the L1.5 (same cluster, same TID, published via GV) or through an
//! explicit flush to the L2. [`draw_case`] therefore only emits
//! protocol-*legal* interleavings — each shared line has exactly one
//! producer, consumers touch a line only after its produce step, and way
//! demands never oversubscribe the cluster. Any divergence from the
//! sequential oracle is then a real (or deliberately injected) bug, never
//! an artefact of racy stimulus. The decoder keeps this invariant under
//! the [`crate::prop`] shrinker: every legality decision falls back to a
//! simpler legal op (an unproducible produce becomes a private store, an
//! unconsumable consume a private load), so *any* choice stream — shrunk,
//! zero-padded or truncated — decodes to a legal case.
//!
//! # Determinism
//!
//! A case is a pure function of `(knobs, seed)`: `l15 fuzz` derives
//! per-case seeds via [`crate::pool::item_seed`] and decodes through
//! [`crate::prop::seeded_g`], so findings are byte-identical at any
//! `L15_JOBS` and every reported seed replays bit-for-bit.

use std::collections::BTreeMap;

use crate::prop::G;

/// Base physical address of the private pools (per-core, disjoint).
pub const PRIVATE_BASE: u64 = 0x0010_0000;
/// Base physical address of the shared pool.
pub const SHARED_BASE: u64 = 0x0020_0000;

/// Relative weights of the op categories [`draw_case`] mixes.
///
/// Categories are drawn via [`G::weighted`] in field order, so a zero
/// choice shrinks towards a plain private load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMix {
    /// Demand load from the core's private pool.
    pub load: u32,
    /// Demand store to the core's private pool.
    pub store: u32,
    /// Consume (load) of an already-produced shared line.
    pub consume: u32,
    /// Produce episode: supply write + GV publication of a shared line.
    pub produce: u32,
    /// Mid-stream Walloc reconfiguration (new demand + partial settle).
    pub reconfig: u32,
    /// Idle cycles (lets reconfiguration backlog drain asynchronously).
    pub advance: u32,
}

impl Default for OpMix {
    fn default() -> Self {
        OpMix { load: 40, store: 30, consume: 12, produce: 8, reconfig: 5, advance: 5 }
    }
}

impl OpMix {
    /// The weights in category order (the argument to [`G::weighted`]).
    pub fn weights(&self) -> [u32; 6] {
        [self.load, self.store, self.consume, self.produce, self.reconfig, self.advance]
    }
}

/// Generator knobs — the `NCore`/`PAddrN`/`SAddrN`/`TestN` quartet of
/// FlexiCAS's `ParallelRegressionGen`, plus the protocol-specific mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzKnobs {
    /// Cores per cluster.
    pub cores: usize,
    /// Identical L1.5 clusters the case is replicated across (the
    /// co-residency axis): the harness replays the same per-lane stream
    /// on every cluster, each under its own TID and disjoint address
    /// pools, so cross-cluster isolation is checked for free.
    pub clusters: usize,
    /// L1.5 ways of the cluster (the Walloc demand budget).
    pub ways: usize,
    /// Private pool size per core, in lines (FlexiCAS `PAddrN`).
    pub private_slots: usize,
    /// Shared pool size, in lines (FlexiCAS `SAddrN`).
    pub shared_slots: usize,
    /// Interleaved ops per case (FlexiCAS `TestN`).
    pub ops: usize,
    /// Sporadic mode-switch arrivals injected mid-stream. Each arrival
    /// is a quiesce/re-admit pair on one core — a `Reconfig` dropping its
    /// demand to zero followed by a `Reconfig` re-admitting a fresh
    /// demand — mimicking the online layer's admission-driven Walloc
    /// churn. Adds `2 * arrivals` steps on top of `ops`.
    pub arrivals: usize,
    /// Cache line size in bytes (fixed across the hierarchy).
    pub line_bytes: u64,
    /// Upper bound on one `Advance`/`Reconfig` settle draw, in cycles.
    pub max_advance: u32,
    /// Op category mix.
    pub mix: OpMix,
}

impl Default for FuzzKnobs {
    fn default() -> Self {
        FuzzKnobs {
            cores: 4,
            clusters: 1,
            ways: 8,
            private_slots: 1024,
            shared_slots: 256,
            ops: (1024 + 256) * 4 * 2,
            arrivals: 0,
            line_bytes: 64,
            max_advance: 8,
            mix: OpMix::default(),
        }
    }
}

impl FuzzKnobs {
    /// The seconds-scale smoke configuration (FlexiCAS's quick profile:
    /// `PAddrN=128`, `SAddrN=64`, `TestN=512`).
    pub fn quick() -> Self {
        FuzzKnobs { private_slots: 128, shared_slots: 64, ops: 512, ..Default::default() }
    }

    /// Total cores across every cluster.
    pub fn total_cores(&self) -> usize {
        self.clusters * self.cores
    }

    /// Physical address of private line `slot` of global core `core`
    /// (cluster-major numbering: `cluster * cores + lane`).
    ///
    /// # Panics
    ///
    /// Panics when `core` or `slot` is out of range.
    pub fn private_addr(&self, core: usize, slot: usize) -> u64 {
        assert!(core < self.total_cores() && slot < self.private_slots, "private pool index");
        PRIVATE_BASE + ((core * self.private_slots + slot) as u64) * self.line_bytes
    }

    /// Physical address of shared line `slot` of cluster 0 — the
    /// single-cluster view; see [`FuzzKnobs::shared_addr_in`].
    ///
    /// # Panics
    ///
    /// Panics when `slot` is out of range.
    pub fn shared_addr(&self, slot: usize) -> u64 {
        self.shared_addr_in(0, slot)
    }

    /// Physical address of shared line `slot` of `cluster`. Each cluster
    /// owns a disjoint shared pool: with no inter-cluster coherence,
    /// producer/consumer sharing is only legal within one cluster's L1.5.
    ///
    /// # Panics
    ///
    /// Panics when `cluster` or `slot` is out of range.
    pub fn shared_addr_in(&self, cluster: usize, slot: usize) -> u64 {
        assert!(cluster < self.clusters && slot < self.shared_slots, "shared pool index");
        SHARED_BASE + ((cluster * self.shared_slots + slot) as u64) * self.line_bytes
    }

    /// Whether both pools fit their regions without overlap (and below
    /// the 32-bit physical address space of the SoC model).
    pub fn pools_fit(&self) -> bool {
        let private_end =
            PRIVATE_BASE + (self.total_cores() * self.private_slots) as u64 * self.line_bytes;
        let shared_end = SHARED_BASE + (self.clusters * self.shared_slots) as u64 * self.line_bytes;
        private_end <= SHARED_BASE && shared_end <= u64::from(u32::MAX)
    }
}

/// One generated per-core operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreOp {
    /// Demand load from the core's private pool.
    Load {
        /// Private pool slot.
        slot: usize,
    },
    /// Demand store to the core's private pool.
    Store {
        /// Private pool slot.
        slot: usize,
        /// Value written.
        value: u32,
    },
    /// Consume (load) of shared line `slot`, produced by an earlier step.
    Consume {
        /// Shared pool slot.
        slot: usize,
    },
    /// Produce episode over shared line `slot`: inclusive store routed
    /// into the L1.5 (or flushed to L2 when the core owns no ways),
    /// followed by GV publication of the supply mask.
    Produce {
        /// Shared pool slot (each slot is produced at most once).
        slot: usize,
        /// Value published.
        value: u32,
    },
    /// Walloc reconfiguration: the core demands `ways` ways, then the
    /// cluster settles for `settle` cycles (possibly leaving a backlog —
    /// the mid-stream reconfiguration episodes the SDU must survive).
    Reconfig {
        /// New way demand for the acting core.
        ways: usize,
        /// Settle cycles granted before the stream resumes.
        settle: u32,
    },
    /// Idle cycles with no memory traffic.
    Advance {
        /// Cycles to advance.
        cycles: u32,
    },
}

/// How many times each category was *drawn* (before legality fallback
/// downgraded impossible consumes/produces), for mix-ratio properties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MixCounts {
    /// Draws of the load category.
    pub load: usize,
    /// Draws of the store category.
    pub store: usize,
    /// Draws of the consume category (including those downgraded).
    pub consume: usize,
    /// Draws of the produce category (including those downgraded).
    pub produce: usize,
    /// Draws of the reconfig category.
    pub reconfig: usize,
    /// Draws of the advance category.
    pub advance: usize,
}

impl MixCounts {
    /// The counts in category order, matching [`OpMix::weights`].
    pub fn as_array(&self) -> [usize; 6] {
        [self.load, self.store, self.consume, self.produce, self.reconfig, self.advance]
    }
}

/// One generated regression case: a legal interleaving of per-core ops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzCase {
    /// The knobs the case was drawn under.
    pub knobs: FuzzKnobs,
    /// Base TID: cluster `c` runs its replica under `tid + c`, so
    /// co-resident clusters hold distinct TIDs (sharing requires TID
    /// equality *within* a cluster; the R4 bug injection perturbs one
    /// core's copy).
    pub tid: u32,
    /// Initial per-core way demand (Σ ≤ `knobs.ways`; every core gets at
    /// least one way when the budget allows, so produce episodes route
    /// through the L1.5 rather than degenerating to flush-to-L2).
    pub init_demand: Vec<usize>,
    /// The interleaved stream: `(lane, op)` in global program order. The
    /// lane indexes a core *within* a cluster; multi-cluster harnesses
    /// replay each step on every cluster's lane.
    pub steps: Vec<(usize, CoreOp)>,
    /// Category draw counts (see [`MixCounts`]).
    pub mix: MixCounts,
}

impl FuzzCase {
    /// Emitted ops per category — the post-fallback complement of
    /// [`FuzzCase::mix`].
    pub fn emitted_counts(&self) -> MixCounts {
        let mut c = MixCounts::default();
        for (_, op) in &self.steps {
            match op {
                CoreOp::Load { .. } => c.load += 1,
                CoreOp::Store { .. } => c.store += 1,
                CoreOp::Consume { .. } => c.consume += 1,
                CoreOp::Produce { .. } => c.produce += 1,
                CoreOp::Reconfig { .. } => c.reconfig += 1,
                CoreOp::Advance { .. } => c.advance += 1,
            }
        }
        c
    }

    /// One-line shape summary (`ops=512 load=210 ... produce=31`).
    pub fn summary(&self) -> String {
        let c = self.emitted_counts();
        format!(
            "ops={} load={} store={} consume={} produce={} reconfig={} advance={}",
            self.steps.len(),
            c.load,
            c.store,
            c.consume,
            c.produce,
            c.reconfig,
            c.advance
        )
    }
}

/// Draws one legal case from `g` under `knobs` (see the module docs for
/// the legality invariants the decoder maintains).
///
/// # Panics
///
/// Panics when the knobs are degenerate: zero cores/slots or pools that
/// do not fit their address regions.
pub fn draw_case(g: &mut G, knobs: &FuzzKnobs) -> FuzzCase {
    assert!(knobs.cores > 0, "need at least one core");
    assert!(knobs.clusters > 0, "need at least one cluster");
    assert!(knobs.private_slots > 0 && knobs.shared_slots > 0, "need non-empty pools");
    assert!(knobs.max_advance > 0, "need a positive advance bound");
    assert!(knobs.pools_fit(), "pools must fit their address regions");

    let tid = g.u32_in(1..=3);

    // Initial demand: hand every core a way while the budget lasts
    // (reserving one for each core still to draw), so producers normally
    // own ways and supply writes exercise the L1.5 routing path.
    let mut init_demand = Vec::with_capacity(knobs.cores);
    let mut remaining = knobs.ways;
    for core in 0..knobs.cores {
        let later = knobs.cores - core - 1;
        let lo = usize::from(remaining > later);
        let hi = remaining.saturating_sub(later).max(lo);
        let n = g.usize_in(lo..=hi);
        init_demand.push(n);
        remaining -= n;
    }

    // Sporadic mode-switch positions: one switch point drawn inside each
    // of `arrivals` equal windows of the op stream, so arrivals are
    // spread across the run (and positions are distinct by construction).
    let mut arrival_at: Vec<usize> = Vec::with_capacity(knobs.arrivals);
    if knobs.arrivals > 0 && knobs.ops > 0 {
        let window = (knobs.ops / knobs.arrivals).max(1);
        for i in 0..knobs.arrivals {
            let lo = (i * window).min(knobs.ops - 1);
            let hi = (lo + window - 1).min(knobs.ops - 1);
            arrival_at.push(g.usize_in(lo..=hi));
        }
    }
    let mut next_arrival = 0usize;

    let weights = knobs.mix.weights();
    let mut demand = init_demand.clone();
    let mut produced = vec![false; knobs.shared_slots];
    let mut produced_list: Vec<usize> = Vec::new();
    let mut steps = Vec::with_capacity(knobs.ops + 2 * knobs.arrivals);
    let mut mix = MixCounts::default();

    for step in 0..knobs.ops {
        // Mode-switch arrival due at this step: quiesce one core's ways
        // to zero, then re-admit it with a fresh demand drawn under the
        // budget freed by the quiesce — the online layer's admission
        // churn, expressed in the op vocabulary the harness replays.
        while next_arrival < arrival_at.len() && arrival_at[next_arrival] <= step {
            next_arrival += 1;
            mix.reconfig += 2;
            let core = g.usize_in(0..knobs.cores);
            demand[core] = 0;
            steps.push((
                core,
                CoreOp::Reconfig { ways: 0, settle: g.u32_in(0..=knobs.max_advance) },
            ));
            let others: usize = demand.iter().sum();
            let n = g.usize_in(0..=knobs.ways - others);
            demand[core] = n;
            steps.push((
                core,
                CoreOp::Reconfig { ways: n, settle: g.u32_in(0..=knobs.max_advance) },
            ));
        }
        let core = g.usize_in(0..knobs.cores);
        let op = match g.weighted(&weights) {
            0 => {
                mix.load += 1;
                CoreOp::Load { slot: g.usize_in(0..knobs.private_slots) }
            }
            1 => {
                mix.store += 1;
                CoreOp::Store { slot: g.usize_in(0..knobs.private_slots), value: g.any_u32() }
            }
            2 => {
                mix.consume += 1;
                if produced_list.is_empty() {
                    // Nothing published yet: downgrade to a private load.
                    CoreOp::Load { slot: g.usize_in(0..knobs.private_slots) }
                } else {
                    CoreOp::Consume { slot: produced_list[g.usize_in(0..produced_list.len())] }
                }
            }
            3 => {
                mix.produce += 1;
                let free: Vec<usize> = (0..knobs.shared_slots).filter(|&s| !produced[s]).collect();
                if free.is_empty() {
                    // Single-writer pool exhausted: downgrade to a store.
                    CoreOp::Store { slot: g.usize_in(0..knobs.private_slots), value: g.any_u32() }
                } else {
                    let slot = free[g.usize_in(0..free.len())];
                    produced[slot] = true;
                    produced_list.push(slot);
                    CoreOp::Produce { slot, value: g.any_u32() }
                }
            }
            4 => {
                mix.reconfig += 1;
                let others: usize = demand.iter().sum::<usize>() - demand[core];
                let n = g.usize_in(0..=knobs.ways - others);
                demand[core] = n;
                CoreOp::Reconfig { ways: n, settle: g.u32_in(0..=knobs.max_advance) }
            }
            _ => {
                mix.advance += 1;
                CoreOp::Advance { cycles: g.u32_in(1..=knobs.max_advance) }
            }
        };
        steps.push((core, op));
    }

    FuzzCase { knobs: knobs.clone(), tid, init_demand, steps, mix }
}

// ---------------------------------------------------------------------
// Sequential oracle
// ---------------------------------------------------------------------

/// Provenance of the freshest write to an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LastWrite {
    /// Writing core.
    pub core: usize,
    /// Global step index of the write (`usize::MAX` for host writes).
    pub step: usize,
    /// Value written.
    pub value: u32,
}

/// The flat sequential memory oracle: a byte-addressed map with zero
/// default and per-address last-writer provenance.
///
/// The oracle executes the case's global program order with *immediate*
/// writes — no posted-write buffering, no cache residency, no timing.
/// Because generated cases are single-writer per shared line and private
/// lines are per-core, the final image of a correct hierarchy must equal
/// the oracle's regardless of caching effects; any load must observe the
/// oracle's current value at that step.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeqOracle {
    bytes: BTreeMap<u64, u8>,
    writers: BTreeMap<u64, LastWrite>,
}

impl SeqOracle {
    /// An empty (all-zero) oracle.
    pub fn new() -> Self {
        SeqOracle::default()
    }

    /// Writes a little-endian `u32`, recording `(core, step)` provenance.
    pub fn write_u32(&mut self, addr: u64, value: u32, core: usize, step: usize) {
        for (i, b) in value.to_le_bytes().into_iter().enumerate() {
            if b == 0 {
                self.bytes.remove(&(addr + i as u64));
            } else {
                self.bytes.insert(addr + i as u64, b);
            }
        }
        self.writers.insert(addr, LastWrite { core, step, value });
    }

    /// Reads a little-endian `u32`; unwritten memory reads zero.
    pub fn read_u32(&self, addr: u64) -> u32 {
        let mut raw = [0u8; 4];
        for (i, b) in raw.iter_mut().enumerate() {
            *b = self.bytes.get(&(addr + i as u64)).copied().unwrap_or(0);
        }
        u32::from_le_bytes(raw)
    }

    /// The freshest write covering `addr` (word-aligned lookup).
    pub fn last_writer(&self, addr: u64) -> Option<LastWrite> {
        self.writers.get(&addr).copied()
    }

    /// Human-readable provenance for a diverging address.
    pub fn describe_writer(&self, addr: u64) -> String {
        match self.last_writer(addr & !3) {
            Some(w) => {
                format!("last writer core {} at step {} (value {:#010x})", w.core, w.step, w.value)
            }
            None => "never written".to_owned(),
        }
    }

    /// Every byte that reads non-zero, sorted by address — directly
    /// comparable with `MainMemory::nonzero_bytes` /
    /// `Uncore::memory_nonzero_bytes` after a full flush.
    pub fn nonzero_bytes(&self) -> Vec<(u64, u8)> {
        self.bytes.iter().map(|(&a, &b)| (a, b)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop;

    #[test]
    fn default_knobs_are_well_formed() {
        for knobs in [FuzzKnobs::default(), FuzzKnobs::quick()] {
            assert!(knobs.pools_fit(), "{knobs:?}");
            assert!(knobs.mix.weights().iter().sum::<u32>() > 0);
        }
    }

    #[test]
    fn address_pools_are_disjoint() {
        let knobs = FuzzKnobs::default();
        let last_private = knobs.private_addr(knobs.cores - 1, knobs.private_slots - 1);
        assert!(last_private + knobs.line_bytes <= SHARED_BASE);
        // Distinct (core, slot) pairs map to distinct lines.
        assert_ne!(knobs.private_addr(0, 1), knobs.private_addr(1, 0));
        assert_eq!(knobs.shared_addr(1) - knobs.shared_addr(0), knobs.line_bytes);
    }

    #[test]
    fn cluster_pools_are_disjoint_and_replicated() {
        let knobs = FuzzKnobs { clusters: 2, ..FuzzKnobs::quick() };
        assert!(knobs.pools_fit(), "{knobs:?}");
        assert_eq!(knobs.total_cores(), 2 * knobs.cores);
        // Cluster 0's shared view is the single-cluster address map.
        assert_eq!(knobs.shared_addr_in(0, 3), knobs.shared_addr(3));
        // Cluster 1's pools start where cluster 0's end.
        assert_eq!(
            knobs.shared_addr_in(1, 0),
            knobs.shared_addr(knobs.shared_slots - 1) + knobs.line_bytes
        );
        // Private pools extend across the global core range.
        let last = knobs.private_addr(knobs.total_cores() - 1, knobs.private_slots - 1);
        assert!(last + knobs.line_bytes <= SHARED_BASE);
    }

    #[test]
    fn zero_choice_stream_decodes_to_a_legal_case() {
        // The shrinker pads exhausted streams with zeros; the all-zero
        // decode must be legal (and is the global minimum every shrink
        // converges towards).
        let knobs = FuzzKnobs { ops: 32, ..FuzzKnobs::quick() };
        let mut g = prop::seeded_g(0);
        let case = draw_case(&mut g, &knobs);
        assert_eq!(case.steps.len(), knobs.ops);
        let total: usize = case.init_demand.iter().sum();
        assert!(total <= knobs.ways);
    }

    #[test]
    fn arrivals_insert_mode_switch_pairs_within_budget() {
        let knobs = FuzzKnobs { ops: 64, arrivals: 5, ..FuzzKnobs::quick() };
        let mut g = prop::seeded_g(0xA11);
        let case = draw_case(&mut g, &knobs);
        assert_eq!(case.steps.len(), knobs.ops + 2 * knobs.arrivals);
        // Replay the demand ledger: Σ demand ≤ ways at every reconfig.
        let mut demand = case.init_demand.clone();
        let mut reconfigs = 0usize;
        let mut zero_then_readmit = 0usize;
        let mut prev: Option<(usize, usize)> = None;
        for &(core, op) in &case.steps {
            if let CoreOp::Reconfig { ways, .. } = op {
                reconfigs += 1;
                demand[core] = ways;
                assert!(demand.iter().sum::<usize>() <= knobs.ways, "budget oversubscribed");
                if let Some((pc, pw)) = prev {
                    if pc == core && pw == 0 {
                        zero_then_readmit += 1;
                    }
                }
                prev = Some((core, ways));
            } else {
                prev = None;
            }
        }
        assert!(reconfigs >= 2 * knobs.arrivals);
        assert!(zero_then_readmit >= knobs.arrivals, "each arrival quiesces then re-admits");
    }

    #[test]
    fn arrivals_knob_is_deterministic_and_spreads_positions() {
        let knobs = FuzzKnobs { ops: 128, arrivals: 4, ..FuzzKnobs::quick() };
        let a = draw_case(&mut prop::seeded_g(7), &knobs);
        let b = draw_case(&mut prop::seeded_g(7), &knobs);
        assert_eq!(a, b);
        // A zero-arrival draw of the same seed differs (the knob is live).
        let plain = draw_case(&mut prop::seeded_g(7), &FuzzKnobs { arrivals: 0, ..knobs.clone() });
        assert_eq!(plain.steps.len(), knobs.ops);
        assert_ne!(a.steps.len(), plain.steps.len());
    }

    #[test]
    fn oracle_reads_what_it_wrote() {
        let mut o = SeqOracle::new();
        assert_eq!(o.read_u32(0x40), 0);
        o.write_u32(0x40, 0xdead_beef, 2, 17);
        assert_eq!(o.read_u32(0x40), 0xdead_beef);
        let w = o.last_writer(0x40).unwrap();
        assert_eq!((w.core, w.step, w.value), (2, 17, 0xdead_beef));
        // Overwriting with zero clears the non-zero image.
        o.write_u32(0x40, 0, 2, 18);
        assert_eq!(o.read_u32(0x40), 0);
        assert!(o.nonzero_bytes().is_empty());
        assert!(o.describe_writer(0x40).contains("step 18"));
        assert_eq!(o.describe_writer(0x80), "never written");
    }

    #[test]
    fn oracle_nonzero_bytes_are_little_endian() {
        let mut o = SeqOracle::new();
        o.write_u32(0x100, 0x0000_ff01, 0, 0);
        assert_eq!(o.nonzero_bytes(), vec![(0x100, 0x01), (0x101, 0xff)]);
    }
}
