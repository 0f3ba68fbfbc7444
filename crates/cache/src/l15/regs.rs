//! Per-core control registers of the L1.5 cache (Fig. 4(a) ⓐ).
//!
//! Each core in the cluster owns one register group: a Task-ID (TID)
//! register naming the application the core currently runs, an Ownership
//! (OW) bitmap of the ways assigned to the core, and a Global-Visibility
//! (GV) bitmap marking which of those ways are shared read-only with the
//! rest of the cluster.

use crate::geometry::WayMask;
use crate::CacheError;

/// The control register file: `TID[c]`, `OW[c]`, `GV[c]` for each core `c`.
///
/// Invariants maintained by all mutators:
/// * OW bitmaps are pairwise disjoint (a way has at most one owner);
/// * `GV[c] ⊆ OW[c]` (only owned ways can be made visible).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlRegs {
    n_ways: usize,
    tid: Vec<u32>,
    ow: Vec<WayMask>,
    gv: Vec<WayMask>,
}

impl ControlRegs {
    /// Creates registers for `n_cores` cores sharing `n_ways` ways; all ways
    /// start unowned and all TIDs at 0.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores == 0` or `n_ways` is 0 or exceeds 64.
    pub fn new(n_cores: usize, n_ways: usize) -> Self {
        assert!(n_cores > 0, "need at least one core");
        assert!(n_ways > 0 && n_ways <= 64, "ways must be in 1..=64");
        ControlRegs {
            n_ways,
            tid: vec![0; n_cores],
            ow: vec![WayMask::EMPTY; n_cores],
            gv: vec![WayMask::EMPTY; n_cores],
        }
    }

    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.tid.len()
    }

    /// Number of ways.
    pub fn n_ways(&self) -> usize {
        self.n_ways
    }

    fn check_core(&self, core: usize) -> Result<(), CacheError> {
        if core >= self.tid.len() {
            Err(CacheError::UnknownCore(core))
        } else {
            Ok(())
        }
    }

    /// Task ID currently registered for `core`.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownCore`] for an out-of-range core.
    pub fn tid(&self, core: usize) -> Result<u32, CacheError> {
        self.check_core(core)?;
        Ok(self.tid[core])
    }

    /// Sets the TID of `core` (written by the OS on a context switch).
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownCore`] for an out-of-range core.
    pub fn set_tid(&mut self, core: usize, tid: u32) -> Result<(), CacheError> {
        self.check_core(core)?;
        self.tid[core] = tid;
        Ok(())
    }

    /// Ownership bitmap of `core`.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownCore`] for an out-of-range core.
    pub fn ow(&self, core: usize) -> Result<WayMask, CacheError> {
        self.check_core(core)?;
        Ok(self.ow[core])
    }

    /// Global-visibility bitmap of `core`.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownCore`] for an out-of-range core.
    pub fn gv(&self, core: usize) -> Result<WayMask, CacheError> {
        self.check_core(core)?;
        Ok(self.gv[core])
    }

    /// The owner of `way`, if any.
    pub fn owner_of(&self, way: usize) -> Option<usize> {
        (0..self.n_cores()).find(|&c| self.ow[c].contains(way))
    }

    /// Ways owned by nobody.
    pub fn unowned(&self) -> WayMask {
        let mut owned = WayMask::EMPTY;
        for m in &self.ow {
            owned = owned.union(*m);
        }
        WayMask::first_n(self.n_ways).difference(owned)
    }

    /// Number of ways currently owned by some core.
    pub fn owned_ways(&self) -> usize {
        self.ow.iter().map(|m| m.count()).sum()
    }

    /// Fraction of ways currently owned (the utilisation metric of
    /// Fig. 8(c)).
    pub fn utilisation(&self) -> f64 {
        self.owned_ways() as f64 / self.n_ways as f64
    }

    /// Grants `way` to `core` (Walloc write). Clears any previous owner's OW
    /// and GV bits for that way.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownCore`] / [`CacheError::UnknownWay`] on
    /// out-of-range arguments.
    pub fn grant(&mut self, core: usize, way: usize) -> Result<(), CacheError> {
        self.check_core(core)?;
        if way >= self.n_ways {
            return Err(CacheError::UnknownWay(way));
        }
        for c in 0..self.n_cores() {
            self.ow[c].remove(way);
            self.gv[c].remove(way);
        }
        self.ow[core].insert(way);
        Ok(())
    }

    /// Revokes `way` from its owner (marks it N/U), clearing its GV bit.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownWay`] on an out-of-range way.
    pub fn revoke(&mut self, way: usize) -> Result<(), CacheError> {
        if way >= self.n_ways {
            return Err(CacheError::UnknownWay(way));
        }
        for c in 0..self.n_cores() {
            self.ow[c].remove(way);
            self.gv[c].remove(way);
        }
        Ok(())
    }

    /// Sets the global visibility of `core`'s owned ways to
    /// `mask ∩ OW[core]`, returning the effective mask (hardware silently
    /// ignores bits for ways the core does not own).
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownCore`] for an out-of-range core.
    pub fn set_gv(&mut self, core: usize, mask: WayMask) -> Result<WayMask, CacheError> {
        self.check_core(core)?;
        let effective = mask.intersect(self.ow[core]);
        self.gv[core] = effective;
        Ok(effective)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_regs_are_empty() {
        let r = ControlRegs::new(4, 16);
        assert_eq!(r.n_cores(), 4);
        assert_eq!(r.n_ways(), 16);
        assert_eq!(r.unowned().count(), 16);
        assert_eq!(r.utilisation(), 0.0);
        assert_eq!(r.owner_of(3), None);
    }

    #[test]
    fn grant_moves_ownership() {
        let mut r = ControlRegs::new(2, 8);
        r.grant(0, 3).unwrap();
        assert_eq!(r.owner_of(3), Some(0));
        r.grant(1, 3).unwrap();
        assert_eq!(r.owner_of(3), Some(1));
        assert!(!r.ow(0).unwrap().contains(3));
        assert_eq!(r.utilisation(), 1.0 / 8.0);
    }

    #[test]
    fn revoke_clears_ow_and_gv() {
        let mut r = ControlRegs::new(2, 8);
        r.grant(0, 2).unwrap();
        r.set_gv(0, WayMask::single(2)).unwrap();
        r.revoke(2).unwrap();
        assert_eq!(r.owner_of(2), None);
        assert!(r.gv(0).unwrap().is_empty());
    }

    #[test]
    fn gv_restricted_to_owned_ways() {
        let mut r = ControlRegs::new(2, 8);
        r.grant(0, 1).unwrap();
        r.grant(0, 6).unwrap();
        // Paper's example: gv_set(0x42) marks ways 1 and 6.
        let eff = r.set_gv(0, WayMask::from(0xffu64)).unwrap();
        assert_eq!(eff, WayMask::from(0x42u64));
        assert_eq!(r.gv(0).unwrap(), WayMask::from(0x42u64));
    }

    #[test]
    fn grant_clears_previous_gv() {
        let mut r = ControlRegs::new(2, 8);
        r.grant(0, 4).unwrap();
        r.set_gv(0, WayMask::single(4)).unwrap();
        r.grant(1, 4).unwrap();
        assert!(r.gv(0).unwrap().is_empty());
        assert!(r.gv(1).unwrap().is_empty());
    }

    #[test]
    fn out_of_range_errors() {
        let mut r = ControlRegs::new(2, 8);
        assert_eq!(r.tid(5).unwrap_err(), CacheError::UnknownCore(5));
        assert_eq!(r.grant(0, 8).unwrap_err(), CacheError::UnknownWay(8));
        assert_eq!(r.revoke(99).unwrap_err(), CacheError::UnknownWay(99));
    }

    #[test]
    fn tid_roundtrip() {
        let mut r = ControlRegs::new(2, 4);
        r.set_tid(1, 77).unwrap();
        assert_eq!(r.tid(1).unwrap(), 77);
        assert_eq!(r.tid(0).unwrap(), 0);
    }
}
