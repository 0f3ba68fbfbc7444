//! Abstract cache domains for the must/may analysis (Ferdinand-style
//! AH/AM/NC classification adapted to the L1/L1.5 hierarchy).
//!
//! * [`MustCache`] — per-set maps from line address to an **upper bound on
//!   its replacement age**. A line present in the must-cache is guaranteed
//!   resident in the concrete cache, so an access to it is an *always hit*
//!   (AH). The per-set capacity is the PLRU must-capacity
//!   ([`l15_cache::plru::TreePlru::must_capacity`]): `⌊log2 W⌋ + 1` for
//!   full-tree replacement (exact LRU for the 2-way L1s), and **1** for the
//!   L1.5's per-way-masked fills, where the tree walk gives no
//!   minimum-life-span guarantee beyond the most recent fill.
//! * [`MaySet`] — over-approximation of the lines *possibly* present
//!   anywhere in a cache level. An access absent from every level's may-set
//!   is an *always miss* (AM): its first-touch cost is exact. Only the
//!   stream analysis tracks one; a DAG node's incoming machine state is
//!   unknown, so the certifier never classifies an access AM.
//! * [`L15Must`] — the must-facts about one cluster's L1.5 that both
//!   front-ends step ([`super::stream`] per fuzz op, [`super::node`] per
//!   trace step): lines published in globally-visible (GV) ways, a per-lane
//!   own-view of at most one line per L1.5 set, and whether the Walloc has
//!   settled.
//! * [`Census`] — the AH/AM/NC tally of one core's or node's accesses.
//!
//! Both front-ends run over straight-line streams (node programs are
//! unrolled by [`super::interp`]), so no control-flow join is needed. Every
//! container is ordered, so analysis output is deterministic.

use std::collections::{BTreeMap, BTreeSet};

/// Static classification of one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Classification {
    /// Always hit: the line is in a must-cache of the L1 or L1.5 level, so
    /// the access is bounded by that level's worst probe latency.
    Ah,
    /// Always miss: the line is in no level's may-set — a first touch whose
    /// full-chain (L1 → L1.5 → L2 → memory) cost is charged exactly.
    Am,
    /// Not classified: the access may hit or miss; the sound bound charges
    /// the full chain.
    Nc,
}

/// Abstract must-cache: per set, the lines guaranteed resident with an
/// upper bound on their age. Age `0` is most recently used; a line whose
/// age bound reaches `capacity` may have been evicted and is dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MustCache {
    sets: usize,
    capacity: usize,
    line_bytes: u64,
    lines: Vec<BTreeMap<u64, usize>>,
}

impl MustCache {
    /// A must-cache over `sets` sets of must-capacity `capacity`, indexing
    /// line addresses by `line_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `sets == 0`, `capacity == 0` or `line_bytes == 0`.
    pub fn new(sets: usize, capacity: usize, line_bytes: u64) -> Self {
        assert!(sets > 0 && capacity > 0 && line_bytes > 0);
        MustCache { sets, capacity, line_bytes, lines: vec![BTreeMap::new(); sets] }
    }

    /// The set index of the line containing `addr`.
    #[inline]
    pub fn set_of(&self, addr: u64) -> usize {
        ((addr / self.line_bytes) % self.sets as u64) as usize
    }

    #[inline]
    fn line_of(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes - 1)
    }

    /// Whether the line containing `addr` is guaranteed resident.
    pub fn contains(&self, addr: u64) -> bool {
        let line = self.line_of(addr);
        self.lines[self.set_of(addr)].contains_key(&line)
    }

    /// Abstract transfer of an access to `addr` (the classic LRU must
    /// update): the touched line becomes age 0; lines that were younger
    /// than it age by one; lines reaching the capacity are dropped.
    /// Returns whether the access was a guaranteed hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let line = self.line_of(addr);
        let set = self.set_of(addr);
        let entries = &mut self.lines[set];
        let old_age = entries.get(&line).copied();
        // Already the youngest (most fetches): nothing ages.
        if old_age == Some(0) {
            return true;
        }
        let (threshold, capacity) = (old_age.unwrap_or(self.capacity), self.capacity);
        entries.retain(|_, age| {
            *age += (*age < threshold) as usize;
            *age < capacity
        });
        entries.insert(line, 0);
        old_age.is_some()
    }

    /// Removes the line containing `addr` (invalidation).
    pub fn remove(&mut self, addr: u64) {
        let line = self.line_of(addr);
        let set = self.set_of(addr);
        self.lines[set].remove(&line);
    }

    /// Drops every line (a flush).
    pub fn clear(&mut self) {
        for set in &mut self.lines {
            set.clear();
        }
    }
}

/// Abstract may-set: the lines possibly present at one cache level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaySet {
    line_bytes: u64,
    lines: BTreeSet<u64>,
}

impl MaySet {
    /// An empty may-set (a cold, invalidated cache — e.g. a fresh SoC).
    pub fn empty(line_bytes: u64) -> Self {
        assert!(line_bytes > 0);
        MaySet { line_bytes, lines: BTreeSet::new() }
    }

    /// Whether the line containing `addr` may be present.
    pub fn contains(&self, addr: u64) -> bool {
        self.lines.contains(&(addr & !(self.line_bytes - 1)))
    }

    /// Marks the line containing `addr` possibly present.
    pub fn insert(&mut self, addr: u64) {
        self.lines.insert(addr & !(self.line_bytes - 1));
    }

    /// Removes the line containing `addr` — only sound after a *definite*
    /// invalidation of that line.
    pub fn remove(&mut self, addr: u64) {
        self.lines.remove(&(addr & !(self.line_bytes - 1)));
    }

    /// Empties the set — only sound after a definite full flush.
    pub fn clear(&mut self) {
        self.lines.clear();
    }
}

/// AH/AM/NC tally of one core's or node's accesses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Census {
    /// Accesses classified always-hit.
    pub ah: u64,
    /// Accesses classified always-miss (first touches; bound is exact).
    pub am: u64,
    /// Accesses not classified (bounded by the full chain).
    pub nc: u64,
}

impl Census {
    /// Counts one classified access and passes its cycle bound through.
    #[inline]
    pub fn tally(&mut self, (class, cycles): (Classification, u64)) -> u64 {
        match class {
            Classification::Ah => self.ah += 1,
            Classification::Am => self.am += 1,
            Classification::Nc => self.nc += 1,
        }
        cycles
    }
}

/// Must-facts about one cluster's L1.5, from each lane's point of view.
///
/// * **Published** lines are guaranteed resident in GV ways. GV ways are
///   outside every write mask, so no fill can evict them; only a
///   back-invalidation (a dirty L1 victim of the same line) or a
///   reconfiguration removes one.
/// * Each lane's **own-view** holds at most one line per L1.5 set,
///   guaranteed resident in the lane's writable ways. Masked-PLRU victim
///   selection gives no life-span guarantee beyond the most recent fill
///   ([`l15_cache::plru::TreePlru::must_capacity`] is 1), so any possible
///   fill into a set prunes that set's fact.
/// * **Settled** means the Walloc has applied every demand: the way masks,
///   hence store routing, are known. Only a settled state learns own-view
///   lines from fills.
///
/// A lane's read sees published and own lines alike: under one
/// application tid every GV way and the lane's writable ways are in its
/// read mask. Every transfer is allocation-free except [`Self::publish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct L15Must {
    sets: usize,
    line_bytes: u64,
    settled: bool,
    published: BTreeSet<u64>,
    lanes: Vec<OwnView>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct OwnView {
    /// Per L1.5 set, the line guaranteed resident in a writable way.
    lines: Vec<Option<u64>>,
    /// Writable (owned, non-GV) ways once settled.
    writable: usize,
}

impl L15Must {
    /// An unsettled L1.5 of `sets` sets whose lanes demanded `writable`
    /// ways each, with `published` lines already guaranteed in GV ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets == 0` or `line_bytes` is not a power of two.
    pub fn new(sets: usize, line_bytes: u64, writable: &[usize], published: BTreeSet<u64>) -> Self {
        assert!(sets > 0 && line_bytes.is_power_of_two());
        let lanes = writable
            .iter()
            .map(|&writable| OwnView { lines: vec![None; sets], writable })
            .collect();
        L15Must { sets, line_bytes, settled: false, published, lanes }
    }

    /// The line containing `addr` and its L1.5 set.
    #[inline]
    fn locate(&self, addr: u64) -> (u64, usize) {
        let line = addr >> self.line_bytes.trailing_zeros();
        (addr & !(self.line_bytes - 1), (line % self.sets as u64) as usize)
    }

    /// The published lines.
    pub fn published(&self) -> &BTreeSet<u64> {
        &self.published
    }

    /// Whether `lane`'s stores are routed into its writable ways: `None`
    /// while unsettled, when a Walloc backlog may still move the masks.
    pub fn routing(&self, lane: usize) -> Option<bool> {
        self.settled.then(|| self.lanes[lane].writable > 0)
    }

    /// Whether a read of `addr` by `lane` is guaranteed to hit the L1.5.
    #[inline]
    pub fn hits(&self, lane: usize, addr: u64) -> bool {
        let (line, set) = self.locate(addr);
        self.published.contains(&line) || self.lanes[lane].lines[set] == Some(line)
    }

    /// A fill of `addr` into `lane`'s writable ways may (or, when
    /// `definite`, must) occur: the set's own-view fact is pruned, and a
    /// definite fill into a settled lane with a writable way installs the
    /// line as the new fact.
    #[inline]
    pub fn fill(&mut self, lane: usize, addr: u64, definite: bool) {
        let (line, set) = self.locate(addr);
        let settled = self.settled;
        let view = &mut self.lanes[lane];
        if view.lines[set] != Some(line) {
            view.lines[set] = (definite && settled && view.writable > 0).then_some(line);
        }
    }

    /// A routed store by `lane` lands in a writable way: posted (returns
    /// true) only when the set's own-view already holds the line, which it
    /// does afterwards either way.
    pub fn routed_store(&mut self, lane: usize, addr: u64) -> bool {
        let (line, set) = self.locate(addr);
        let fact = &mut self.lanes[lane].lines[set];
        let posted = *fact == Some(line);
        *fact = Some(line);
        posted
    }

    /// A store by `lane` whose routing is unknown may fill a writable way.
    pub fn unknown_store(&mut self, lane: usize, addr: u64) {
        self.fill(lane, addr, false);
    }

    /// A dirty L1 copy of `addr`'s line may back-invalidate every L1.5
    /// copy: published or in any lane's own-view.
    pub fn back_invalidate(&mut self, addr: u64) {
        let (line, set) = self.locate(addr);
        self.published.remove(&line);
        for view in &mut self.lanes {
            if view.lines[set] == Some(line) {
                view.lines[set] = None;
            }
        }
    }

    /// `lane` writes a dirty L1 line back: merged into its own copy when
    /// the own-view guarantees one, otherwise it may back-invalidate.
    pub fn write_back(&mut self, lane: usize, addr: u64) {
        let (line, set) = self.locate(addr);
        if self.lanes[lane].lines[set] != Some(line) {
            self.back_invalidate(addr);
        }
    }

    /// `gv_set`: every owned way of `lane` becomes globally visible. Its
    /// own-view lines that `keep` accepts are published, the view is
    /// emptied and no writable way is left.
    pub fn publish(&mut self, lane: usize, keep: impl Fn(u64) -> bool) {
        let view = &mut self.lanes[lane];
        self.published.extend(view.lines.iter_mut().filter_map(Option::take).filter(|&l| keep(l)));
        view.writable = 0;
    }

    /// A demand change whose Walloc backlog may revoke any way (GV ways
    /// included) during any later cycle: every fact is dropped and the
    /// state stays unsettled.
    pub fn reconfig(&mut self) {
        self.settled = false;
        self.published.clear();
        for view in &mut self.lanes {
            view.lines.fill(None);
        }
    }

    /// The Walloc has applied every demand.
    pub fn settle(&mut self) {
        self.settled = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn must_access_ages_and_evicts() {
        // 2-way LRU-equivalent must-cache, one set.
        let mut m = MustCache::new(1, 2, 64);
        assert!(!m.access(0x000)); // A: miss, age 0
        assert!(!m.access(0x040)); // B: A ages to 1
        assert!(m.contains(0x000) && m.contains(0x040));
        assert!(!m.access(0x080)); // C evicts A (age bound reached)
        assert!(!m.contains(0x000));
        assert!(m.contains(0x040) && m.contains(0x080));
        // Touching B refreshes it; C ages but survives (age 1 < 2).
        assert!(m.access(0x040));
        assert!(m.contains(0x080));
    }

    #[test]
    fn must_hit_does_not_age_older_lines() {
        // Capacity 2: A then B then re-touch B — A was *older* than B, so
        // B's refresh must not age A out.
        let mut m = MustCache::new(1, 2, 64);
        m.access(0x000);
        m.access(0x040);
        assert!(m.access(0x040));
        assert!(m.contains(0x000), "re-touching the MRU line keeps older lines");
    }

    #[test]
    fn sets_are_independent() {
        let mut m = MustCache::new(2, 1, 64);
        m.access(0x000); // set 0
        m.access(0x040); // set 1
        assert!(m.contains(0x000) && m.contains(0x040));
        m.access(0x080); // set 0 again: evicts 0x000 only
        assert!(!m.contains(0x000));
        assert!(m.contains(0x040));
    }

    /// A settled two-lane L1.5 of two 64-byte sets, two writable ways each.
    fn l15() -> L15Must {
        let mut m = L15Must::new(2, 64, &[2, 2], BTreeSet::new());
        m.settle();
        m
    }

    #[test]
    fn possible_fill_prunes_the_sets_own_view_fact() {
        let mut m = l15();
        m.routed_store(0, 0x000);
        m.fill(0, 0x040, false); // set 1: the set-0 fact survives
        assert!(m.hits(0, 0x000));
        m.fill(0, 0x080, false); // set 0, another line
        assert!(!m.hits(0, 0x000) && !m.hits(0, 0x080));
    }

    #[test]
    fn definite_settled_fill_installs_the_line() {
        let mut unsettled = L15Must::new(2, 64, &[2], BTreeSet::new());
        unsettled.fill(0, 0x000, true);
        assert!(!unsettled.hits(0, 0x000), "an unsettled fill may land anywhere");
        let mut m = l15();
        m.fill(0, 0x000, true);
        assert!(m.hits(0, 0x000));
        assert!(!m.hits(0, 0x080), "the fact is the line's, not its set's");
        assert!(!m.hits(1, 0x000), "the fact is the filling lane's");
    }

    #[test]
    fn routed_store_is_posted_only_onto_the_own_view_line() {
        let mut m = l15();
        assert!(!m.routed_store(0, 0x000), "first store fetches the line");
        assert!(m.routed_store(0, 0x004), "same line: posted");
        assert!(!m.routed_store(0, 0x080), "same set, other line");
        assert!(!m.routed_store(1, 0x080), "another lane's view does not count");
    }

    #[test]
    fn back_invalidate_clears_published_and_every_own_view() {
        let mut m = l15();
        m.routed_store(0, 0x000);
        m.publish(0, |_| true);
        m.routed_store(1, 0x000);
        assert!(m.hits(0, 0x000) && m.hits(1, 0x000));
        m.back_invalidate(0x000);
        assert!(m.published().is_empty());
        assert!(!m.hits(0, 0x000) && !m.hits(1, 0x000));
    }

    #[test]
    fn publish_promotes_own_view_lines() {
        let mut m = l15();
        m.routed_store(0, 0x000);
        m.routed_store(0, 0x040);
        m.publish(0, |line| line != 0x040);
        assert_eq!(m.published().iter().copied().collect::<Vec<_>>(), [0x000]);
        assert!(m.hits(1, 0x000), "published lines hit for every lane");
        assert!(!m.hits(0, 0x040), "a line not kept is dropped with the view");
        assert_eq!(m.routing(0), Some(false), "no writable way is left");
    }

    #[test]
    fn reconfig_drops_every_fact() {
        let mut m = l15();
        m.routed_store(0, 0x000);
        m.publish(0, |_| true);
        m.routed_store(1, 0x040);
        m.reconfig();
        assert!(!m.hits(0, 0x000) && !m.hits(1, 0x040));
        assert_eq!(m.routing(1), None, "routing is unknown until settled");
        m.fill(1, 0x040, true);
        assert!(!m.hits(1, 0x040), "an unsettled state learns nothing");
    }
}
