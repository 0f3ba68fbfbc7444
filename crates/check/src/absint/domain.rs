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
//!   is an *always miss* (AM): its first-touch cost is exact. `⊤` (unknown
//!   contents, used for DAG nodes whose incoming machine state is not
//!   tracked) makes every line possibly present.
//!
//! Joins at control-flow merges are the classic ones: must = intersection
//! with maximum age, may = union. Both are implemented on ordered
//! containers so analysis output is deterministic.

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
    pub fn set_of(&self, addr: u64) -> usize {
        ((addr / self.line_bytes) % self.sets as u64) as usize
    }

    /// The base address of the line containing `addr`.
    pub fn line_of(&self, addr: u64) -> u64 {
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

    /// Drops every line (a flush, or a join with an unknown state).
    pub fn clear(&mut self) {
        for set in &mut self.lines {
            set.clear();
        }
    }

    /// Join at a control-flow merge: intersection of the resident lines,
    /// keeping the **maximum** age bound of each survivor.
    ///
    /// # Panics
    ///
    /// Panics if the two caches have different geometry.
    pub fn join(&mut self, other: &MustCache) {
        assert!(
            self.sets == other.sets
                && self.capacity == other.capacity
                && self.line_bytes == other.line_bytes,
            "must-cache join requires identical geometry"
        );
        for (mine, theirs) in self.lines.iter_mut().zip(&other.lines) {
            mine.retain(|l, age| {
                if let Some(&other_age) = theirs.get(l) {
                    *age = (*age).max(other_age);
                    true
                } else {
                    false
                }
            });
        }
    }

    /// Number of lines guaranteed resident across all sets.
    pub fn len(&self) -> usize {
        self.lines.iter().map(BTreeMap::len).sum()
    }

    /// Whether no line is guaranteed resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Abstract may-set: the lines possibly present at one cache level, with a
/// `⊤` element for "anything may be present".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaySet {
    line_bytes: u64,
    top: bool,
    lines: BTreeSet<u64>,
}

impl MaySet {
    /// An empty may-set (a cold, invalidated cache — e.g. a fresh SoC).
    pub fn empty(line_bytes: u64) -> Self {
        assert!(line_bytes > 0);
        MaySet { line_bytes, top: false, lines: BTreeSet::new() }
    }

    /// The `⊤` may-set: every line possibly present (unknown start state).
    pub fn top(line_bytes: u64) -> Self {
        assert!(line_bytes > 0);
        MaySet { line_bytes, top: true, lines: BTreeSet::new() }
    }

    /// Whether the line containing `addr` may be present.
    pub fn contains(&self, addr: u64) -> bool {
        self.top || self.lines.contains(&(addr & !(self.line_bytes - 1)))
    }

    /// Marks the line containing `addr` possibly present.
    pub fn insert(&mut self, addr: u64) {
        if !self.top {
            self.lines.insert(addr & !(self.line_bytes - 1));
        }
    }

    /// Removes the line containing `addr` — only sound after a *definite*
    /// invalidation of that line.
    pub fn remove(&mut self, addr: u64) {
        if !self.top {
            self.lines.remove(&(addr & !(self.line_bytes - 1)));
        }
    }

    /// Empties the set — only sound after a definite full flush.
    pub fn clear(&mut self) {
        self.top = false;
        self.lines.clear();
    }

    /// Join at a control-flow merge: union (⊤ absorbs).
    pub fn join(&mut self, other: &MaySet) {
        if other.top {
            self.top = true;
            self.lines.clear();
        } else if !self.top {
            self.lines.extend(other.lines.iter().copied());
        }
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
    fn must_join_intersects_with_max_age() {
        let mut a = MustCache::new(1, 4, 64);
        let mut b = MustCache::new(1, 4, 64);
        a.access(0x000); // age 0 in a
        a.access(0x040);
        b.access(0x040);
        b.access(0x000); // age 0 in b, but age 1 in a
        b.access(0x080); // only in b
        a.join(&b);
        assert!(a.contains(0x000) && a.contains(0x040));
        assert!(!a.contains(0x080), "join keeps only the intersection");
        // 0x000 carries the max age (1): one more distinct fill evicts it
        // in a capacity-2 cache — here capacity 4, so check via aging:
        a.access(0x0c0);
        a.access(0x100);
        a.access(0x140);
        assert!(!a.contains(0x000), "max-age survivor ages out first");
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

    #[test]
    fn may_top_contains_everything() {
        let mut s = MaySet::top(64);
        assert!(s.contains(0xdead_b000));
        s.remove(0xdead_b000); // no-op on ⊤
        assert!(s.contains(0xdead_b000));
        s.clear();
        assert!(!s.contains(0xdead_b000));
    }

    #[test]
    fn may_join_is_union() {
        let mut a = MaySet::empty(64);
        let mut b = MaySet::empty(64);
        a.insert(0x000);
        b.insert(0x040);
        a.join(&b);
        assert!(a.contains(0x000) && a.contains(0x040));
        b.join(&MaySet::top(64));
        assert!(b.contains(0x123456));
    }
}
