//! Tree pseudo-LRU replacement, the policy the paper applies to *all* caches
//! ("The pseudo-LRU is applied for all caches", Sec. 5).
//!
//! A binary tree of direction bits covers the next power of two above the way
//! count; victim selection walks the tree against the bits, and every access
//! flips the bits on its path. [`TreePlru::victim_in`] restricts the choice
//! to a way mask — the L1.5 mask logic only ever replaces within the ways a
//! core may write.

use crate::geometry::WayMask;

/// Tree-PLRU state for one cache set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreePlru {
    ways: usize,
    /// Tree nodes, one bit each (at most 63 for 64 ways): a clear bit `i`
    /// points to the left subtree as the colder half. Bit 0 is the root;
    /// children of `i` are `2i+1`, `2i+2`.
    bits: u64,
    /// Number of leaves = ways rounded up to a power of two.
    leaves: usize,
}

impl TreePlru {
    /// Creates PLRU state for `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways == 0` or `ways > 64`.
    pub fn new(ways: usize) -> Self {
        assert!(ways > 0 && ways <= 64, "ways must be in 1..=64");
        let leaves = ways.next_power_of_two();
        TreePlru { ways, bits: 0, leaves }
    }

    /// Number of ways covered.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Records an access to `way`, flipping the tree bits along its path to
    /// point away from it.
    ///
    /// # Panics
    ///
    /// Panics if `way >= self.ways()`.
    #[inline]
    pub fn touch(&mut self, way: usize) {
        assert!(way < self.ways, "way {way} out of range");
        if self.leaves == 1 {
            return;
        }
        // Walk from root to the leaf `way`.
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.leaves;
        loop {
            let mid = (lo + hi) / 2;
            let right = way >= mid;
            // Point the bit at the *other* half (the one not just used).
            self.bits = (self.bits & !(1 << node)) | (u64::from(!right) << node);
            if hi - lo == 2 {
                break;
            }
            node = 2 * node + if right { 2 } else { 1 };
            if right {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }

    /// Selects the pseudo-least-recently-used way among *all* ways.
    pub fn victim(&self) -> usize {
        self.victim_in(WayMask::first_n(self.ways)).expect("full mask always yields a victim")
    }

    /// Must-analysis capacity of a full-tree PLRU set: the number of
    /// pairwise-distinct most-recently-used lines guaranteed to survive in
    /// a `ways`-associative tree-PLRU set, `⌊log2(ways)⌋ + 1` (Reineke's
    /// minimum-life-span bound; exact LRU for 2 ways, where the tree
    /// degenerates to a single bit). Static cache analyses bound the
    /// abstract must-cache age at this value. The bound only holds when
    /// replacement chooses over the **full** tree — a masked
    /// [`victim_in`](Self::victim_in) walk restarts from interior bits the
    /// mask may have made stale, so per-way-masked fills (the L1.5 write
    /// masks) must assume a capacity of 1.
    pub fn must_capacity(ways: usize) -> usize {
        if ways <= 1 {
            1
        } else {
            (usize::BITS - 1 - ways.leading_zeros()) as usize + 1
        }
    }

    /// Selects the PLRU victim restricted to `allowed`.
    ///
    /// Walks the tree following the direction bits, but when the indicated
    /// half contains no allowed way, takes the other half instead. Returns
    /// `None` if `allowed` contains no valid way.
    pub fn victim_in(&self, allowed: WayMask) -> Option<usize> {
        let allowed = allowed.intersect(WayMask::first_n(self.ways));
        allowed.lowest()?;
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.leaves;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let has_left = self.half_has_allowed(allowed, lo, mid);
            let has_right = self.half_has_allowed(allowed, mid, hi);
            let go_right = match (has_left, has_right) {
                (true, true) => (self.bits >> node) & 1 == 1,
                (false, true) => true,
                (true, false) => false,
                (false, false) => return None,
            };
            node = 2 * node + if go_right { 2 } else { 1 };
            if go_right {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(lo)
    }

    fn half_has_allowed(&self, allowed: WayMask, lo: usize, hi: usize) -> bool {
        (lo..hi.min(self.ways)).any(|w| allowed.contains(w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_way() {
        let mut p = TreePlru::new(1);
        p.touch(0);
        assert_eq!(p.victim(), 0);
    }

    #[test]
    fn touching_the_most_recent_way_again_changes_nothing() {
        // What lets a cache skip the PLRU update for a repeat of its set's
        // last access: for every associativity, after any history.
        for ways in 1usize..=64 {
            let mut p = TreePlru::new(ways);
            for step in 0..ways {
                p.touch((step * 7 + 3) % ways);
                for way in 0..ways {
                    let mut once = p.clone();
                    once.touch(way);
                    let mut twice = once.clone();
                    twice.touch(way);
                    assert_eq!(once, twice, "ways={ways} way={way} after {step} touches");
                }
            }
        }
    }

    #[test]
    fn two_ways_alternate() {
        let mut p = TreePlru::new(2);
        p.touch(0);
        assert_eq!(p.victim(), 1);
        p.touch(1);
        assert_eq!(p.victim(), 0);
    }

    #[test]
    fn victim_is_not_most_recent() {
        for ways in [2usize, 4, 8, 16] {
            let mut p = TreePlru::new(ways);
            for w in 0..ways {
                p.touch(w);
                assert_ne!(p.victim(), w, "ways={ways}, touched {w}");
            }
        }
    }

    #[test]
    fn round_robin_touch_cycles_all_ways() {
        // Touching every way repeatedly must keep the victim inside range and
        // eventually visit distinct ways.
        let mut p = TreePlru::new(8);
        let mut victims = std::collections::HashSet::new();
        for i in 0..64 {
            let v = p.victim();
            assert!(v < 8);
            victims.insert(v);
            p.touch(i % 8);
        }
        assert!(victims.len() >= 2);
    }

    #[test]
    fn masked_victim_respects_mask() {
        let mut p = TreePlru::new(8);
        for w in 0..8 {
            p.touch(w);
        }
        let allowed: WayMask = [2usize, 5].into_iter().collect();
        for _ in 0..10 {
            let v = p.victim_in(allowed).unwrap();
            assert!(allowed.contains(v));
            p.touch(v);
        }
    }

    #[test]
    fn empty_mask_yields_none() {
        let p = TreePlru::new(4);
        assert_eq!(p.victim_in(WayMask::EMPTY), None);
    }

    #[test]
    fn mask_outside_range_yields_none() {
        let p = TreePlru::new(4);
        assert_eq!(p.victim_in(WayMask::single(7)), None);
    }

    #[test]
    fn non_power_of_two_ways() {
        let mut p = TreePlru::new(12); // the paper's Fig. 4 shows 12 ways
        for w in 0..12 {
            p.touch(w);
            let v = p.victim();
            assert!(v < 12);
            assert_ne!(v, w);
        }
    }

    #[test]
    fn mask_confined_to_the_padded_half() {
        // 6 ways pad the tree to 8 leaves: leaves 6 and 7 exist but only
        // way-index < 6 is real. A mask living entirely in the padded
        // right half ({4, 5}) must still resolve — the walk has to treat
        // phantom leaves 6/7 as "not allowed" rather than descend into
        // them and return an out-of-range victim.
        let mut p = TreePlru::new(6);
        let allowed: WayMask = [4usize, 5].into_iter().collect();
        for round in 0..16 {
            let v = p.victim_in(allowed).expect("mask holds valid ways");
            assert!(allowed.contains(v), "round {round}: victim {v} outside mask");
            assert!(v < 6, "round {round}: phantom way {v}");
            p.touch(v);
        }
        // With both allowed ways touched, PLRU must not evict the most
        // recent of the pair.
        p.touch(4);
        p.touch(5);
        assert_eq!(p.victim_in(allowed), Some(4));
    }

    #[test]
    fn exhaustive_small_geometries() {
        // Every ways count 1..=8 × every mask × a round-robin touch
        // history: the victim must lie in mask ∩ range, and when the mask
        // allows more than one way the most recently touched allowed way
        // must be protected.
        for ways in 1usize..=8 {
            for mask_bits in 0u32..(1 << 8) {
                let allowed: WayMask = (0..8usize).filter(|w| mask_bits & (1 << w) != 0).collect();
                let n_valid = (0..ways).filter(|&w| allowed.contains(w)).count();
                let mut p = TreePlru::new(ways);
                for step in 0..(2 * ways) {
                    p.touch(step % ways);
                    match p.victim_in(allowed) {
                        Some(v) => {
                            assert!(
                                v < ways && allowed.contains(v),
                                "ways={ways} mask={mask_bits:#b} step={step}: victim {v}"
                            );
                            if n_valid > 1 && allowed.contains(step % ways) {
                                assert_ne!(
                                    v,
                                    step % ways,
                                    "ways={ways} mask={mask_bits:#b} step={step}: \
                                     evicted the way just touched"
                                );
                            }
                        }
                        None => assert_eq!(
                            n_valid, 0,
                            "ways={ways} mask={mask_bits:#b}: None despite valid ways"
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn plru_tracks_true_lru_for_two_ways() {
        // With 2 ways, tree-PLRU is exact LRU.
        let mut p = TreePlru::new(2);
        p.touch(0);
        p.touch(1);
        p.touch(0);
        assert_eq!(p.victim(), 1);
    }
}
