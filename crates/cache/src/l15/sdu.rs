//! The Supply-Demand Unit (SDU, Fig. 5).
//!
//! Per-core Supply (S) and Demand (D) registers are linked by comparators
//! (subtractor + XOR): whenever `S ≠ D` for some core, the mismatch and the
//! signed gap are forwarded to the Way Allocator (Walloc). The Walloc is an
//! FSM over a register bank that shadows the ways' ownership; it processes
//! **one way per cycle** — granting an unoccupied (N/U) slot when the gap is
//! positive, or marking one of the core's slots N/U when negative — and then
//! updates the S register and the core's OW control register.
//!
//! The one-way-per-cycle constraint is load-bearing: Sec. 5.3 attributes the
//! residual misconfiguration ratio φ to exactly this serialisation.

use crate::l15::regs::ControlRegs;
use crate::CacheError;

/// A single Walloc action, completed in one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SduEvent {
    /// `way` was granted to `core`.
    Granted {
        /// Receiving core.
        core: usize,
        /// Newly owned way.
        way: usize,
    },
    /// `way` was revoked from `core` (marked N/U).
    Revoked {
        /// Previous owner.
        core: usize,
        /// Released way.
        way: usize,
    },
}

/// The Supply-Demand Unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sdu {
    demand: Vec<usize>,
    supply: Vec<usize>,
    /// Round-robin pointer so no core starves the Walloc.
    rr: usize,
    /// Total Walloc actions performed (for overhead accounting).
    actions: u64,
    /// The last tick found a demand it could not serve. Nothing but a
    /// demand or a resync can change that, so ticks are skipped until one
    /// of them clears the mark.
    stalled: bool,
}

impl Sdu {
    /// Creates an SDU for `n_cores` cores; all D/S registers start at zero.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores == 0`.
    pub fn new(n_cores: usize) -> Self {
        assert!(n_cores > 0, "need at least one core");
        Sdu {
            demand: vec![0; n_cores],
            supply: vec![0; n_cores],
            rr: 0,
            actions: 0,
            stalled: false,
        }
    }

    /// Number of cores served.
    pub fn n_cores(&self) -> usize {
        self.demand.len()
    }

    /// The `demand rs1` instruction: records that `core` wants `n` ways in
    /// total. Privileged — the OS/hypervisor arbitrates contention.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownCore`] for an out-of-range core and
    /// [`CacheError::DemandTooLarge`] when `n` exceeds the way count of
    /// `regs`.
    pub fn demand(&mut self, regs: &ControlRegs, core: usize, n: usize) -> Result<(), CacheError> {
        if core >= self.demand.len() {
            return Err(CacheError::UnknownCore(core));
        }
        if n > regs.n_ways() {
            return Err(CacheError::DemandTooLarge { requested: n, total: regs.n_ways() });
        }
        self.demand[core] = n;
        self.stalled = false;
        Ok(())
    }

    /// Demand register of `core`.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownCore`] for an out-of-range core.
    pub fn demand_of(&self, core: usize) -> Result<usize, CacheError> {
        self.demand.get(core).copied().ok_or(CacheError::UnknownCore(core))
    }

    /// Supply register of `core` (number of ways currently granted).
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownCore`] for an out-of-range core.
    pub fn supply_of(&self, core: usize) -> Result<usize, CacheError> {
        self.supply.get(core).copied().ok_or(CacheError::UnknownCore(core))
    }

    /// Whether any comparator currently signals `S ≠ D`.
    pub fn pending(&self) -> bool {
        self.demand.iter().zip(&self.supply).any(|(d, s)| d != s)
    }

    /// Total outstanding reconfiguration work: `Σ |S − D|` over all cores
    /// (the backlog the one-way-per-cycle Walloc still has to drain).
    pub fn pending_gap(&self) -> usize {
        self.demand.iter().zip(&self.supply).map(|(&d, &s)| d.abs_diff(s)).sum()
    }

    /// Whether the Walloc is stalled: a demand is outstanding but no way
    /// is free, and no demand or resync has happened since it found that.
    /// A stalled SDU is [`pending`](Self::pending), and [`tick`](Self::tick)
    /// returns `None` at once until the mark clears.
    pub fn stalled(&self) -> bool {
        self.stalled
    }

    /// Total Walloc actions executed so far.
    pub fn actions(&self) -> u64 {
        self.actions
    }

    /// Advances the Walloc FSM by one cycle: performs at most **one**
    /// grant/revoke, updating `regs` and the S register.
    ///
    /// Shrinking cores are served before growing ones (a grant may need the
    /// way a shrink is about to free); among equals a round-robin pointer
    /// provides fairness. Returns `None`, changing nothing, when all
    /// comparators match or no action is possible (demand exceeds free
    /// ways — best effort; the SDU is [`stalled`](Self::stalled) until a
    /// demand or a resync).
    ///
    /// `regs` is the bank this SDU shadows: each S register counts its
    /// core's owned ways, which every out-of-band ownership change keeps
    /// true through [`resync`](Self::resync).
    pub fn tick(&mut self, regs: &mut ControlRegs) -> Option<SduEvent> {
        if self.stalled {
            return None;
        }
        let n = self.n_cores();
        // Pass 1: revocations (free capacity first).
        for i in 0..n {
            let core = (self.rr + i) % n;
            if self.supply[core] > self.demand[core] {
                let owned = regs.ow(core).expect("core index checked by ctor");
                let way = owned.iter().last().expect("the S register counts owned ways");
                regs.revoke(way).expect("owned way is in range");
                self.supply[core] -= 1;
                self.actions += 1;
                self.rr = (core + 1) % n;
                return Some(SduEvent::Revoked { core, way });
            }
        }
        // Pass 2: grants from the N/U pool.
        for i in 0..n {
            let core = (self.rr + i) % n;
            if self.demand[core] > self.supply[core] {
                if let Some(way) = regs.unowned().lowest() {
                    regs.grant(core, way).expect("way from unowned pool");
                    self.supply[core] += 1;
                    self.actions += 1;
                    self.rr = (core + 1) % n;
                    return Some(SduEvent::Granted { core, way });
                }
                // No free way: best effort — leave pending.
                self.stalled = true;
                return None;
            }
        }
        None
    }

    /// Runs [`tick`](Self::tick) until quiescent, returning all events and
    /// the number of cycles consumed (events + one idle detection cycle).
    ///
    /// Intended for tests and for planning-level code that does not model
    /// per-cycle timing.
    pub fn settle(&mut self, regs: &mut ControlRegs) -> (Vec<SduEvent>, u32) {
        let mut events = Vec::new();
        let mut cycles = 0u32;
        while self.pending() {
            cycles += 1;
            match self.tick(regs) {
                Some(e) => events.push(e),
                None => break, // starved: demand exceeds capacity
            }
        }
        (events, cycles.max(1))
    }

    /// Re-synchronises the S register of `core` with the ownership bank
    /// after an out-of-band ownership change (e.g. an OS-level transfer of a
    /// global way to a successor's core).
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownCore`] for an out-of-range core.
    pub fn resync(&mut self, regs: &ControlRegs, core: usize) -> Result<(), CacheError> {
        if core >= self.supply.len() {
            return Err(CacheError::UnknownCore(core));
        }
        let owned = regs.ow(core)?.count();
        self.supply[core] = owned;
        self.stalled = false;
        // A transfer also implies the core's demand includes those ways.
        if self.demand[core] < owned {
            self.demand[core] = owned;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::WayMask;

    fn setup(cores: usize, ways: usize) -> (Sdu, ControlRegs) {
        (Sdu::new(cores), ControlRegs::new(cores, ways))
    }

    #[test]
    fn grant_one_way_per_cycle() {
        let (mut sdu, mut regs) = setup(2, 8);
        sdu.demand(&regs, 0, 3).unwrap();
        assert!(sdu.pending());
        let mut grants = 0;
        for _ in 0..3 {
            match sdu.tick(&mut regs) {
                Some(SduEvent::Granted { core: 0, .. }) => grants += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(grants, 3);
        assert!(!sdu.pending());
        assert_eq!(regs.ow(0).unwrap().count(), 3);
        assert_eq!(sdu.supply_of(0).unwrap(), 3);
        assert_eq!(sdu.tick(&mut regs), None);
    }

    #[test]
    fn shrink_releases_highest_way_first() {
        let (mut sdu, mut regs) = setup(1, 8);
        sdu.demand(&regs, 0, 4).unwrap();
        sdu.settle(&mut regs);
        sdu.demand(&regs, 0, 2).unwrap();
        let e1 = sdu.tick(&mut regs).unwrap();
        let e2 = sdu.tick(&mut regs).unwrap();
        assert_eq!(e1, SduEvent::Revoked { core: 0, way: 3 });
        assert_eq!(e2, SduEvent::Revoked { core: 0, way: 2 });
        assert_eq!(regs.ow(0).unwrap(), WayMask::from(0b11u64));
    }

    #[test]
    fn revocation_precedes_grant_when_pool_is_empty() {
        let (mut sdu, mut regs) = setup(2, 4);
        sdu.demand(&regs, 0, 4).unwrap();
        sdu.settle(&mut regs);
        // Core 1 wants 2; core 0 gives up 2. Each cycle does one action.
        sdu.demand(&regs, 0, 2).unwrap();
        sdu.demand(&regs, 1, 2).unwrap();
        let (events, cycles) = sdu.settle(&mut regs);
        assert_eq!(cycles, 4);
        assert_eq!(events.iter().filter(|e| matches!(e, SduEvent::Revoked { .. })).count(), 2);
        assert_eq!(regs.ow(0).unwrap().count(), 2);
        assert_eq!(regs.ow(1).unwrap().count(), 2);
    }

    #[test]
    fn best_effort_when_overcommitted() {
        let (mut sdu, mut regs) = setup(2, 4);
        sdu.demand(&regs, 0, 4).unwrap();
        sdu.settle(&mut regs);
        sdu.demand(&regs, 1, 2).unwrap();
        // No free ways and nobody shrinking: tick must not livelock.
        assert_eq!(sdu.tick(&mut regs), None);
        assert!(sdu.pending());
        assert_eq!(sdu.supply_of(1).unwrap(), 0);
        // Once core 0 shrinks, core 1 is served.
        sdu.demand(&regs, 0, 2).unwrap();
        let (_, _) = sdu.settle(&mut regs);
        assert_eq!(sdu.supply_of(1).unwrap(), 2);
    }

    #[test]
    fn demand_larger_than_cache_is_rejected() {
        let (mut sdu, regs) = setup(1, 4);
        assert!(matches!(
            sdu.demand(&regs, 0, 5).unwrap_err(),
            CacheError::DemandTooLarge { requested: 5, total: 4 }
        ));
        assert!(sdu.demand(&regs, 9, 1).is_err());
    }

    #[test]
    fn round_robin_interleaves_cores() {
        let (mut sdu, mut regs) = setup(4, 16);
        for c in 0..4 {
            sdu.demand(&regs, c, 2).unwrap();
        }
        let (events, _) = sdu.settle(&mut regs);
        assert_eq!(events.len(), 8);
        // First four grants go to four distinct cores.
        let first: std::collections::HashSet<usize> = events[..4]
            .iter()
            .map(|e| match e {
                SduEvent::Granted { core, .. } => *core,
                SduEvent::Revoked { .. } => unreachable!(),
            })
            .collect();
        assert_eq!(first.len(), 4);
    }

    #[test]
    fn actions_counter_tracks_reconfigurations() {
        let (mut sdu, mut regs) = setup(1, 8);
        sdu.demand(&regs, 0, 5).unwrap();
        sdu.settle(&mut regs);
        sdu.demand(&regs, 0, 1).unwrap();
        sdu.settle(&mut regs);
        assert_eq!(sdu.actions(), 5 + 4);
    }

    #[test]
    fn a_stall_changes_nothing_until_a_demand_or_resync() {
        let (mut sdu, mut regs) = setup(2, 4);
        sdu.demand(&regs, 0, 4).unwrap();
        sdu.settle(&mut regs);
        sdu.demand(&regs, 1, 1).unwrap();
        assert_eq!(sdu.tick(&mut regs), None);
        assert!(sdu.stalled() && sdu.pending());
        let (before, owners) = (sdu.clone(), regs.clone());
        assert_eq!(sdu.tick(&mut regs), None);
        assert_eq!((&sdu, &regs), (&before, &owners), "a stalled tick is inert");
        sdu.demand(&regs, 0, 3).unwrap();
        assert!(!sdu.stalled());
        assert_eq!(sdu.tick(&mut regs), Some(SduEvent::Revoked { core: 0, way: 3 }));
        assert_eq!(sdu.tick(&mut regs), Some(SduEvent::Granted { core: 1, way: 3 }));
        assert!(!sdu.pending());

        // An out-of-band revocation frees a way; its resync clears the mark.
        sdu.demand(&regs, 1, 2).unwrap();
        assert_eq!(sdu.tick(&mut regs), None);
        regs.revoke(0).unwrap();
        sdu.resync(&regs, 0).unwrap();
        assert!(!sdu.stalled());
        assert!(matches!(sdu.tick(&mut regs), Some(SduEvent::Granted { way: 0, .. })));
    }

    #[test]
    fn resync_after_external_transfer() {
        let (mut sdu, mut regs) = setup(2, 8);
        sdu.demand(&regs, 0, 2).unwrap();
        sdu.settle(&mut regs);
        // OS transfers way 0 from core 0 to core 1 out of band.
        regs.grant(1, 0).unwrap();
        sdu.resync(&regs, 0).unwrap();
        sdu.resync(&regs, 1).unwrap();
        assert_eq!(sdu.supply_of(0).unwrap(), 1);
        assert_eq!(sdu.supply_of(1).unwrap(), 1);
        // Demands adjusted so the SDU does not immediately undo the move.
        assert!(!sdu.pending() || sdu.demand_of(0).unwrap() == 2);
    }
}
