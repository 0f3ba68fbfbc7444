//! Sound per-access cycle bounds derived from a [`SocConfig`].
//!
//! The concrete memory system (`l15_soc::Uncore`) charges, per access, a
//! probe at each level it reaches; every probe — hit at any depth or a full
//! miss scan — is bounded by
//! [`l15_cache::sa::worst_probe_latency`]. Fills, write-backs and victim
//! absorption are free on the requesting core's clock, and `l15_ctrl`
//! operations cost exactly one cycle, so the bounds below enumerate the
//! worst path through each operation kind:
//!
//! * load / fetch: L1 probe, then on miss an L1.5 probe, then an L2 probe,
//!   then memory;
//! * conventional store: an L1 write probe, then on miss the same shared
//!   read path (write-allocate); the post-fill line write is free;
//! * routed store (`ip_set` ways): the L1 pass-through at `lat_min`, then
//!   on an L1.5 write miss a write probe + line fetch from below + the
//!   post-fill write probe.

use l15_cache::sa::worst_probe_latency;
use l15_soc::SocConfig;

use super::domain::Classification;

/// Worst-case cycle costs of the memory hierarchy of one SoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Worst L1 (I or D) probe: hit at any depth, or the miss scan.
    pub l1_any: u64,
    /// The L1 pass-through charged by a routed (posted) store.
    pub l1_pass: u64,
    /// Worst L1.5 probe (0 when the SoC has no L1.5).
    pub l15_any: u64,
    /// Worst L2 probe.
    pub l2_any: u64,
    /// External memory latency.
    pub mem: u64,
    /// Cycles charged by one `l15_ctrl` operation.
    pub ctrl: u64,
}

impl CostModel {
    /// Extracts the cost model of `cfg`.
    pub fn from_soc(cfg: &SocConfig) -> Self {
        let l1i = worst_probe_latency(cfg.l1i.lat_min, cfg.l1i.lat_max, cfg.l1i.ways);
        let l1d = worst_probe_latency(cfg.l1d.lat_min, cfg.l1d.lat_max, cfg.l1d.ways);
        let l15 = cfg
            .l15
            .as_ref()
            .map(|l| worst_probe_latency(l.lat_min, l.lat_max, l.ways))
            .unwrap_or(0);
        CostModel {
            l1_any: u64::from(l1i.max(l1d)),
            l1_pass: u64::from(cfg.l1d.lat_min),
            l15_any: u64::from(l15),
            l2_any: u64::from(worst_probe_latency(cfg.l2.lat_min, cfg.l2.lat_max, cfg.l2.ways)),
            mem: u64::from(cfg.mem_latency),
            ctrl: 1,
        }
    }

    /// Bound on a load, fetch or conventional store guaranteed to hit the
    /// L1.
    #[inline]
    pub fn l1_hit(&self) -> u64 {
        self.l1_any
    }

    /// Bound on a load, fetch or conventional store whose line is
    /// guaranteed resident in the L1.5 (the L1 outcome may be anything;
    /// write-allocate fetches the line from there).
    #[inline]
    pub fn l15_hit(&self) -> u64 {
        self.l1_any + self.l15_any
    }

    /// Bound on an arbitrary load, fetch or conventional store: the full
    /// chain down to memory. Also the *exact* cost of an always-miss first
    /// touch, because every miss probe equals the worst probe at its level.
    #[inline]
    pub fn chain(&self) -> u64 {
        self.l1_any + self.l15_any + self.l2_any + self.mem
    }

    /// Classification and bound of a load, fetch or conventional store
    /// (write-allocate shares the read path): an L1 must-hit, else an L1.5
    /// must-hit, else the full chain — always-miss on a `first_touch`.
    #[inline]
    pub fn access(&self, l1_hit: bool, l15_hit: bool, first_touch: bool) -> (Classification, u64) {
        if l1_hit {
            (Classification::Ah, self.l1_hit())
        } else if l15_hit {
            (Classification::Ah, self.l15_hit())
        } else if first_touch {
            (Classification::Am, self.chain())
        } else {
            (Classification::Nc, self.chain())
        }
    }

    /// Classification and bound of a routed store: when posted into a
    /// resident writable L1.5 line, exactly the L1 pass-through; otherwise
    /// the full routed chain.
    pub fn routed(&self, posted: bool) -> (Classification, u64) {
        if posted {
            (Classification::Ah, self.l1_pass)
        } else {
            (Classification::Nc, self.store_routed_chain())
        }
    }

    /// Bound on an arbitrary routed store: pass-through, write-miss probe,
    /// line fetch from below, post-fill write probe.
    pub fn store_routed_chain(&self) -> u64 {
        self.l1_pass + self.l15_any + self.l2_any + self.mem + self.l15_any
    }

    /// Bound on a store whose routing (conventional vs `ip_set`) is
    /// statically unknown.
    pub fn store_unknown(&self) -> u64 {
        self.chain().max(self.store_routed_chain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proposed_8core_costs() {
        let m = CostModel::from_soc(&SocConfig::proposed_8core());
        // L1 1–2 over 2 ways: 1 + 1*1/2 = 1 by integer division.
        assert_eq!(m.l1_any, 1);
        // L1.5 2–8 over 16 ways: 2 + 6*15/16 = 7.
        assert_eq!(m.l15_any, 7);
        // L2 15–25 over 8 ways: 15 + 10*7/8 = 23.
        assert_eq!(m.l2_any, 23);
        assert_eq!(m.mem, 100);
        assert_eq!(m.chain(), 1 + 7 + 23 + 100);
        assert!(m.store_unknown() >= m.store_routed_chain());
    }

    #[test]
    fn legacy_preset_has_no_l15_term() {
        let m = CostModel::from_soc(&SocConfig::preset("cmp_l1_8core").expect("known preset"));
        assert_eq!(m.l15_any, 0);
        assert_eq!(m.chain(), m.l1_any + m.l2_any + m.mem);
    }
}
