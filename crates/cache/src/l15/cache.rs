//! The L1.5 cache proper: the ways, the one masked hit check and the new-ISA
//! control port (Sec. 2.3 / Sec. 3.1).
//!
//! Organisation: `ζ` ways, each a direct-mapped array of
//! `κ / line_bytes` lines — equivalently a set-associative array of
//! `κ / line_bytes` sets by `ζ` ways, which is how the Line Selectors (one
//! per way) and Data Selectors (one per core) of Fig. 4 traverse it. The
//! selectors' per-way hit checkers are modelled at word level: a lookup
//! matches the tag only in the ways the core's read or write mask enables.
//!
//! Addressing is VIPT: the set index comes from the **virtual** address
//! (available before translation) and the tag from the **physical** address
//! returned by the TLB; both are presented together at the address port, as
//! the IPU does in Fig. 3.

use crate::geometry::{Geometry, WayMask};
use crate::l15::mask::MaskLogic;
use crate::l15::regs::ControlRegs;
use crate::l15::sdu::{Sdu, SduEvent};
use crate::sa::{AccessKind, AccessOutcome, EvictedLine, SetAssocCache, ALL_WAYS};
use crate::stats::CacheStats;
use crate::CacheError;

/// Per-way inclusion policy (`ip_set`, Tab. 1).
///
/// *Inclusive* ways capture store traffic coming down from the L1 (so a
/// producer node's dependent data lands in the L1.5); *non-inclusive* ways
/// (the default) only buffer lines that missed in L1 and were fetched from
/// below.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InclusionPolicy {
    /// Fills only on L1.5 misses serviced from below (default).
    #[default]
    NonInclusive,
    /// Additionally captures write traffic from the L1 above.
    Inclusive,
}

/// Configuration of an [`L15Cache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L15Config {
    /// Bytes per cache line.
    pub line_bytes: u64,
    /// Way size `κ` in bytes (the paper: 2 KiB).
    pub way_bytes: u64,
    /// Number of ways `ζ` (the paper: 16 per cluster).
    pub ways: usize,
    /// Number of cores sharing the cache (the paper: 4 per cluster).
    pub cores: usize,
    /// Minimum hit latency in cycles (the paper: 2).
    pub lat_min: u32,
    /// Maximum hit latency in cycles (the paper: 8).
    pub lat_max: u32,
}

impl Default for L15Config {
    /// The paper's cluster configuration: 16 ways × 2 KiB, 4 cores,
    /// 2–8 cycle latency, 64-byte lines.
    fn default() -> Self {
        L15Config {
            line_bytes: 64,
            way_bytes: 2 * 1024,
            ways: 16,
            cores: 4,
            lat_min: 2,
            lat_max: 8,
        }
    }
}

impl L15Config {
    /// The ways as a set-associative array (`way_bytes / line_bytes` sets
    /// by `ways`), once the fields an [`L15Cache`] needs are checked.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::BadGeometry`] for zero cores, an inverted
    /// latency band, a way size that is not a power-of-two multiple of the
    /// line size, or a way count [`Geometry::new`] rejects.
    pub fn geometry(&self) -> Result<Geometry, CacheError> {
        if self.cores == 0 {
            return Err(CacheError::BadGeometry {
                name: "cores",
                reason: "need at least one core".to_owned(),
            });
        }
        if self.lat_min > self.lat_max {
            return Err(CacheError::BadGeometry {
                name: "lat_min",
                reason: format!("latency band inverted: {} > {}", self.lat_min, self.lat_max),
            });
        }
        if self.line_bytes == 0 || !self.way_bytes.is_multiple_of(self.line_bytes) {
            return Err(CacheError::BadGeometry {
                name: "way_bytes",
                reason: format!(
                    "way size {} must be a multiple of the line size {}",
                    self.way_bytes, self.line_bytes
                ),
            });
        }
        Geometry::new(self.line_bytes, self.way_bytes / self.line_bytes, self.ways)
    }
}

/// Architectural L1.5 configuration state (see [`L15Cache::snapshot`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct L15ConfigState {
    /// Per-core task IDs.
    pub tid: Vec<u32>,
    /// Per-core ownership bitmaps.
    pub ow: Vec<crate::geometry::WayMask>,
    /// Per-core global-visibility bitmaps.
    pub gv: Vec<crate::geometry::WayMask>,
    /// Per-way inclusion policies.
    pub ip: Vec<InclusionPolicy>,
}

/// Outcome of an L1.5 lookup: whether a permitted way hit, the cycles
/// spent in the L1.5, and the way that hit.
pub type L15Outcome = AccessOutcome;

/// The L1.5 cache of one computing cluster.
#[derive(Debug, Clone)]
pub struct L15Cache {
    cfg: L15Config,
    /// The ways: lookups index by virtual and tag by physical address,
    /// behind the masks the control registers yield.
    lines: SetAssocCache,
    regs: ControlRegs,
    mask: MaskLogic,
    sdu: Sdu,
    ip: Vec<InclusionPolicy>,
    per_core_stats: Vec<CacheStats>,
}

impl L15Cache {
    /// Builds an L1.5 cache from `cfg`.
    ///
    /// # Errors
    ///
    /// See [`L15Config::geometry`].
    pub fn new(cfg: L15Config) -> Result<Self, CacheError> {
        let geo = cfg.geometry()?;
        Ok(L15Cache {
            cfg,
            lines: SetAssocCache::new(geo, cfg.lat_min, cfg.lat_max),
            regs: ControlRegs::new(cfg.cores, cfg.ways),
            mask: MaskLogic::new(),
            sdu: Sdu::new(cfg.cores),
            ip: vec![InclusionPolicy::NonInclusive; cfg.ways],
            per_core_stats: vec![CacheStats::default(); cfg.cores],
        })
    }

    /// The cache's configuration.
    pub fn config(&self) -> &L15Config {
        &self.cfg
    }

    /// The derived geometry (sets × ways × line bytes).
    pub fn geometry(&self) -> &Geometry {
        self.lines.geometry()
    }

    /// Shared control registers (read-only view).
    pub fn regs(&self) -> &ControlRegs {
        &self.regs
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &CacheStats {
        self.lines.stats()
    }

    /// Statistics for one core.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownCore`] for an out-of-range core.
    pub fn core_stats(&self, core: usize) -> Result<&CacheStats, CacheError> {
        self.per_core_stats.get(core).ok_or(CacheError::UnknownCore(core))
    }

    // --- New-ISA control port (Tab. 1) ---------------------------------

    /// `demand rs1` (privileged): ask the SDU for `n` ways for `core`.
    ///
    /// The request is fulfilled by the Walloc at one way per
    /// [`tick`](Self::tick).
    ///
    /// # Errors
    ///
    /// See [`Sdu::demand`].
    pub fn demand(&mut self, core: usize, n: usize) -> Result<(), CacheError> {
        self.sdu.demand(&self.regs, core, n)
    }

    /// `supply rd`: the bitmap of ways currently assigned to `core`.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownCore`] for an out-of-range core.
    pub fn supply(&self, core: usize) -> Result<WayMask, CacheError> {
        self.regs.ow(core)
    }

    /// `gv_set rs1`: sets the global visibility of `core`'s owned ways to
    /// `mask` (bits for un-owned ways are ignored, as in hardware). Returns
    /// the effective mask.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownCore`] for an out-of-range core.
    pub fn gv_set(&mut self, core: usize, mask: WayMask) -> Result<WayMask, CacheError> {
        self.regs.set_gv(core, mask)
    }

    /// `gv_get rd`: the global-visibility bitmap of `core`.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownCore`] for an out-of-range core.
    pub fn gv_get(&self, core: usize) -> Result<WayMask, CacheError> {
        self.regs.gv(core)
    }

    /// `ip_set rs1`: sets the inclusion policy of **all** ways currently
    /// owned by `core`.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownCore`] for an out-of-range core.
    pub fn ip_set(&mut self, core: usize, policy: InclusionPolicy) -> Result<(), CacheError> {
        let owned = self.regs.ow(core)?;
        for w in owned.iter() {
            self.ip[w] = policy;
        }
        Ok(())
    }

    /// Inclusion policy of `way`.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownWay`] for an out-of-range way.
    pub fn ip_of(&self, way: usize) -> Result<InclusionPolicy, CacheError> {
        self.ip.get(way).copied().ok_or(CacheError::UnknownWay(way))
    }

    /// Whether `core` currently owns at least one way configured inclusive
    /// and not globally shared — i.e. whether the IPU should route the
    /// core's store traffic into the L1.5.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownCore`] for an out-of-range core.
    pub fn routes_stores(&self, core: usize) -> Result<bool, CacheError> {
        let writable = self.mask.write_mask(&self.regs, core)?;
        Ok(writable.iter().any(|w| self.ip[w] == InclusionPolicy::Inclusive))
    }

    /// Whether `core`'s SDU comparator matches (`S == D`).
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownCore`] for an out-of-range core.
    pub fn demand_met(&self, core: usize) -> Result<bool, CacheError> {
        Ok(self.sdu.demand_of(core)? == self.sdu.supply_of(core)?)
    }

    /// Registers the task ID of the application running on `core`
    /// (written by the OS on a context switch; feeds the protector).
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownCore`] for an out-of-range core.
    pub fn set_tid(&mut self, core: usize, tid: u32) -> Result<(), CacheError> {
        self.regs.set_tid(core, tid)
    }

    /// Advances the Walloc FSM by one cycle (at most one way reassigned).
    ///
    /// When a way is revoked, its dirty lines are returned for write-back
    /// and the way's contents are invalidated; a newly granted way starts
    /// clean with the default (non-inclusive) policy.
    pub fn tick(&mut self) -> (Option<SduEvent>, Vec<EvictedLine>) {
        let event = self.sdu.tick(&mut self.regs);
        let mut writebacks = Vec::new();
        match event {
            Some(SduEvent::Revoked { way, .. }) => {
                writebacks = self.purge_way(way);
                self.ip[way] = InclusionPolicy::NonInclusive;
            }
            Some(SduEvent::Granted { way, .. }) => {
                self.ip[way] = InclusionPolicy::NonInclusive;
            }
            None => {}
        }
        (event, writebacks)
    }

    /// Whether the SDU still has unsatisfied demands.
    pub fn reconfig_pending(&self) -> bool {
        self.sdu.pending()
    }

    /// Whether the Walloc is stalled on a demand no free way can serve
    /// (see [`Sdu::stalled`]): ticking it changes nothing until a control
    /// op, a transfer or a reclaim touches the cache.
    pub fn reconfig_stalled(&self) -> bool {
        self.sdu.stalled()
    }

    /// Outstanding reconfiguration backlog: `Σ |S − D|` over the lanes
    /// (how many one-way-per-cycle Walloc actions are still owed).
    pub fn reconfig_backlog(&self) -> usize {
        self.sdu.pending_gap()
    }

    /// Total Walloc actions performed (reconfiguration overhead metric).
    pub fn reconfig_actions(&self) -> u64 {
        self.sdu.actions()
    }

    /// Runs the Walloc to quiescence, returning `(events, write-backs,
    /// cycles)`. Convenience for code that does not interleave per-cycle.
    pub fn settle(&mut self) -> (Vec<SduEvent>, Vec<EvictedLine>, u32) {
        let mut events = Vec::new();
        let mut wbs = Vec::new();
        let mut cycles = 0u32;
        while self.reconfig_pending() {
            cycles += 1;
            let (e, mut w) = self.tick();
            wbs.append(&mut w);
            match e {
                Some(ev) => events.push(ev),
                None => break,
            }
        }
        (events, wbs, cycles.max(1))
    }

    /// OS-level ownership transfer of `way` to `new_owner`, **preserving the
    /// way's contents** — this is how a finished producer's local ways are
    /// handed to `suc(v).first()` when they flip to global (Alg. 1 l. 5–7).
    /// The way is marked globally visible by the new owner.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownWay`] / [`CacheError::UnknownCore`] on
    /// out-of-range arguments.
    pub fn transfer_way(&mut self, way: usize, new_owner: usize) -> Result<(), CacheError> {
        if way >= self.cfg.ways {
            return Err(CacheError::UnknownWay(way));
        }
        let old = self.regs.owner_of(way);
        self.regs.grant(new_owner, way)?;
        let gv = self.regs.gv(new_owner)?.union(WayMask::single(way));
        self.regs.set_gv(new_owner, gv)?;
        if let Some(o) = old {
            self.sdu.resync(&self.regs, o)?;
        }
        self.sdu.resync(&self.regs, new_owner)?;
        Ok(())
    }

    /// A saved L1.5 configuration: everything the OS must preserve across
    /// an application switch (TIDs, ownership, visibility, inclusion
    /// policies) — cache *contents* are not part of the architectural
    /// state and are flushed on restore where ownership changes.
    pub fn snapshot(&self) -> L15ConfigState {
        L15ConfigState {
            tid: (0..self.cfg.cores).map(|c| self.regs.tid(c).expect("core in range")).collect(),
            ow: (0..self.cfg.cores).map(|c| self.regs.ow(c).expect("core in range")).collect(),
            gv: (0..self.cfg.cores).map(|c| self.regs.gv(c).expect("core in range")).collect(),
            ip: self.ip.clone(),
        }
    }

    /// Restores a configuration saved by [`snapshot`](Self::snapshot).
    /// Ways whose ownership differs from the current state are purged
    /// (their dirty lines are returned for write-back), since their
    /// contents belong to the outgoing application.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::BadGeometry`] if the snapshot's shape does not
    /// match this cache.
    pub fn restore(&mut self, state: &L15ConfigState) -> Result<Vec<EvictedLine>, CacheError> {
        if state.ow.len() != self.cfg.cores || state.ip.len() != self.cfg.ways {
            return Err(CacheError::BadGeometry {
                name: "snapshot",
                reason: format!(
                    "snapshot shape ({} cores, {} ways) does not match ({}, {})",
                    state.ow.len(),
                    state.ip.len(),
                    self.cfg.cores,
                    self.cfg.ways
                ),
            });
        }
        // Purge ways whose owner changes.
        let mut writebacks = Vec::new();
        for way in 0..self.cfg.ways {
            let current = self.regs.owner_of(way);
            let target = (0..self.cfg.cores).find(|&c| state.ow[c].contains(way));
            if current != target {
                writebacks.extend(self.purge_way(way));
            }
        }
        // Apply registers.
        for way in 0..self.cfg.ways {
            self.regs.revoke(way)?;
        }
        for core in 0..self.cfg.cores {
            self.regs.set_tid(core, state.tid[core])?;
            for way in state.ow[core].iter() {
                self.regs.grant(core, way)?;
            }
        }
        for core in 0..self.cfg.cores {
            self.regs.set_gv(core, state.gv[core])?;
        }
        self.ip = state.ip.clone();
        // Re-synchronise the SDU with the restored ownership.
        for core in 0..self.cfg.cores {
            let owned = self.regs.ow(core)?.count();
            self.sdu.demand(&self.regs, core, owned)?;
            self.sdu.resync(&self.regs, core)?;
        }
        Ok(writebacks)
    }

    /// OS-level revocation of one *specific* way (the kernel, holding "a
    /// comprehensive view of the system" as Sec. 2.3 puts it, frees the
    /// ways whose dependent data has been fully consumed). Dirty lines are
    /// returned for write-back; the S register of the previous owner is
    /// re-synchronised so the Walloc does not fight the decision.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownWay`] for an out-of-range way.
    pub fn revoke_way(&mut self, way: usize) -> Result<Vec<EvictedLine>, CacheError> {
        if way >= self.cfg.ways {
            return Err(CacheError::UnknownWay(way));
        }
        let old = self.regs.owner_of(way);
        self.regs.revoke(way)?;
        self.ip[way] = InclusionPolicy::NonInclusive;
        if let Some(o) = old {
            // Lower both S and D so the SDU does not re-grant immediately.
            let owned = self.regs.ow(o)?.count();
            self.sdu.demand(&self.regs, o, owned)?;
            self.sdu.resync(&self.regs, o)?;
        }
        Ok(self.purge_way(way))
    }

    /// Ways currently owned: [`utilisation`](Self::utilisation)'s numerator.
    pub fn owned_ways(&self) -> usize {
        self.regs.owned_ways()
    }

    /// Utilisation: fraction of ways currently owned (Fig. 8(c) metric).
    pub fn utilisation(&self) -> f64 {
        self.regs.utilisation()
    }

    // --- Data path -------------------------------------------------------

    /// One masked lookup for `core`: VIPT (`vaddr` indexes, `paddr` tags),
    /// the hit checkers running only on the ways in `allowed`.
    fn lookup(&mut self, core: usize, vaddr: u64, paddr: u64, allowed: WayMask) -> L15Outcome {
        let out = self.lines.lookup(vaddr, paddr, allowed, AccessKind::Read);
        if out.hit {
            self.per_core_stats[core].record_hit();
        } else {
            self.per_core_stats[core].record_miss();
        }
        out
    }

    /// Read lookup for `core`: VIPT (`vaddr` indexes, `paddr` tags), masked
    /// to the core's read-permitted ways. On a hit, `buf` is filled from the
    /// line (must not cross the line boundary).
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownCore`] for an out-of-range core.
    pub fn read(
        &mut self,
        core: usize,
        vaddr: u64,
        paddr: u64,
        buf: &mut [u8],
    ) -> Result<L15Outcome, CacheError> {
        let allowed = self.mask.read_mask(&self.regs, core)?;
        let out = self.lookup(core, vaddr, paddr, allowed);
        if let (Some(way), Some(span)) = (out.way, self.lines.span(vaddr, buf.len())) {
            buf.copy_from_slice(&self.lines.line(vaddr, way)[span]);
        }
        Ok(out)
    }

    /// Write lookup for `core`, masked to the core's write-permitted ways
    /// (owned and not globally shared — Fig. 4(b)). On a hit the line is
    /// updated and marked dirty.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownCore`] for an out-of-range core.
    pub fn write(
        &mut self,
        core: usize,
        vaddr: u64,
        paddr: u64,
        data: &[u8],
    ) -> Result<L15Outcome, CacheError> {
        let allowed = self.mask.write_mask(&self.regs, core)?;
        let out = self.lookup(core, vaddr, paddr, allowed);
        if let (Some(way), Some(span)) = (out.way, self.lines.span(vaddr, data.len())) {
            self.lines.line_mut(vaddr, way)[span].copy_from_slice(data);
        }
        Ok(out)
    }

    /// A [`write`](Self::write) hit without its tree-PLRU touch, left to
    /// [`touch_posted`](Self::touch_posted): the way, or `None` and no change.
    pub fn write_posted(
        &mut self,
        core: usize,
        vaddr: u64,
        paddr: u64,
        data: &[u8],
    ) -> Option<usize> {
        let allowed = self.mask.write_mask(&self.regs, core).ok()?;
        let way = self.lines.find(vaddr, paddr, allowed)?;
        let span = self.lines.span(vaddr, data.len());
        let line = self.lines.line_mut(vaddr, way);
        if let Some(span) = span {
            line[span].copy_from_slice(data);
        }
        self.lines.record_hits(1);
        self.per_core_stats[core].record_hit();
        Some(way)
    }

    /// The touch a [`write_posted`](Self::write_posted) hit in `way` left out.
    ///
    /// # Panics
    ///
    /// Unless `core` still routes stores and `way`, still writable by it,
    /// still holds the line (the posted-write contract, `DESIGN.md` §4.7).
    pub fn touch_posted(&mut self, core: usize, vaddr: u64, paddr: u64, way: usize) {
        let writable = self.mask.write_mask(&self.regs, core).expect("lane in range");
        assert!(
            self.lines.find(vaddr, paddr, writable) == Some(way)
                && self.routes_stores(core) == Ok(true),
            "posted-write contract broken: lane {core}'s write to {paddr:#x} in way {way} was \
             revoked, published or evicted before it was accounted"
        );
        self.lines.touch(vaddr, way);
    }

    /// Installs a full line for `core` into one of its write-permitted ways,
    /// evicting the masked PLRU victim. Returns the installed way (or `None`
    /// if the core has no writable way) plus any dirty eviction.
    ///
    /// `dirty` marks the installed line dirty immediately (used when the
    /// fill originates from a store that allocates).
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownCore`] for an out-of-range core.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not exactly one line.
    pub fn fill(
        &mut self,
        core: usize,
        vaddr: u64,
        paddr: u64,
        data: &[u8],
        dirty: bool,
    ) -> Result<(Option<usize>, Option<EvictedLine>), CacheError> {
        let allowed = self.mask.write_mask(&self.regs, core)?;
        Ok(match self.lines.install(vaddr, paddr, data, allowed, allowed, dirty) {
            Some((way, evicted)) => (Some(way), evicted),
            None => (None, None),
        })
    }

    /// Invalidates every line of `way`, returning dirty lines for
    /// write-back.
    fn purge_way(&mut self, way: usize) -> Vec<EvictedLine> {
        self.lines.sweep(WayMask::single(way), true)
    }

    /// Writes back every dirty line (leaving lines valid and clean) without
    /// disturbing way ownership — software cache maintenance used before
    /// host-level result inspection.
    pub fn flush_dirty(&mut self) -> Vec<EvictedLine> {
        self.lines.sweep(ALL_WAYS, false)
    }

    /// Back-invalidates every resident copy of the line at
    /// (`vaddr`, `paddr`), regardless of way permissions, returning the
    /// dropped contents when a copy was dirty (the caller must write them
    /// back below). A write-back that bypasses the L1.5 — no
    /// write-permitted way holds the line, e.g. after `gv_set` removed
    /// the way from the owner's write mask — must purge stale readable
    /// copies, or later reads through a GV-shared way would return
    /// pre-write data.
    pub fn invalidate_line(&mut self, vaddr: u64, paddr: u64) -> Option<EvictedLine> {
        self.lines.invalidate_all(vaddr, paddr)
    }

    /// Number of valid lines currently buffered (occupancy diagnostics).
    pub fn valid_lines(&self) -> usize {
        self.lines.valid_lines()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> L15Cache {
        // 4 ways x 128 B (2 lines of 64 B), 2 cores.
        L15Cache::new(L15Config {
            line_bytes: 64,
            way_bytes: 128,
            ways: 4,
            cores: 2,
            lat_min: 2,
            lat_max: 8,
        })
        .unwrap()
    }

    fn grant_ways(c: &mut L15Cache, core: usize, n: usize) {
        c.demand(core, n).unwrap();
        c.settle();
    }

    fn line(v: u8) -> Vec<u8> {
        vec![v; 64]
    }

    #[test]
    fn default_config_matches_paper() {
        let c = L15Cache::new(L15Config::default()).unwrap();
        assert_eq!(c.geometry().capacity_bytes(), 32 * 1024);
        assert_eq!(c.config().ways, 16);
        assert_eq!(c.config().cores, 4);
    }

    #[test]
    fn bad_configs_rejected() {
        assert!(L15Cache::new(L15Config { cores: 0, ..Default::default() }).is_err());
        assert!(L15Cache::new(L15Config { way_bytes: 100, ..Default::default() }).is_err());
        assert!(L15Cache::new(L15Config { lat_min: 9, lat_max: 8, ..Default::default() }).is_err());
    }

    #[test]
    fn read_requires_permission() {
        let mut c = small();
        grant_ways(&mut c, 0, 2);
        // Core 0 installs a line; core 1 cannot see it (no GV).
        c.fill(0, 0x1000, 0x1000, &line(7), false).unwrap();
        let mut buf = [0u8; 4];
        let o0 = c.read(0, 0x1000, 0x1000, &mut buf).unwrap();
        assert!(o0.hit);
        assert_eq!(buf, [7; 4]);
        let o1 = c.read(1, 0x1000, 0x1000, &mut buf).unwrap();
        assert!(!o1.hit, "core 1 must not hit a private way of core 0");
    }

    #[test]
    fn invalidate_line_purges_all_copies_and_returns_dirty_contents() {
        let mut c = small();
        grant_ways(&mut c, 0, 2);
        c.fill(0, 0x1000, 0x1000, &line(7), true).unwrap();
        let dropped = c.invalidate_line(0x1000, 0x1000).expect("dirty contents returned");
        assert_eq!(dropped.addr, 0x1000);
        assert_eq!(dropped.data, line(7));
        let mut buf = [0u8; 4];
        let o = c.read(0, 0x1000, 0x1000, &mut buf).unwrap();
        assert!(!o.hit, "invalidated line must not hit");
        assert!(c.invalidate_line(0x1000, 0x1000).is_none(), "nothing left to drop");

        // A clean copy is dropped silently, even from a GV-shared way the
        // owner can no longer write (the back-invalidate ignores masks).
        let (way, _) = c.fill(0, 0x2000, 0x2000, &line(9), false).unwrap();
        c.gv_set(0, WayMask::single(way.unwrap())).unwrap();
        assert!(c.invalidate_line(0x2000, 0x2000).is_none(), "clean copy has no contents");
        let o = c.read(0, 0x2000, 0x2000, &mut buf).unwrap();
        assert!(!o.hit, "clean copy purged from the shared way");
    }

    #[test]
    fn gv_makes_way_readable_but_not_writable() {
        let mut c = small();
        grant_ways(&mut c, 0, 2);
        let (way, _) = c.fill(0, 0x1000, 0x1000, &line(9), false).unwrap();
        let way = way.unwrap();
        c.gv_set(0, WayMask::single(way)).unwrap();
        let mut buf = [0u8; 2];
        let o1 = c.read(1, 0x1000, 0x1000, &mut buf).unwrap();
        assert!(o1.hit, "shared way must be readable by core 1");
        assert_eq!(buf, [9; 2]);
        // The owner itself can no longer write the shared way.
        let ow = c.write(0, 0x1000, 0x1000, &[1]).unwrap();
        assert!(!ow.hit);
        let o1w = c.write(1, 0x1000, 0x1000, &[1]).unwrap();
        assert!(!o1w.hit);
    }

    #[test]
    fn protector_blocks_cross_tid_reads() {
        let mut c = small();
        grant_ways(&mut c, 0, 1);
        let (way, _) = c.fill(0, 0x40, 0x40, &line(3), false).unwrap();
        c.gv_set(0, WayMask::single(way.unwrap())).unwrap();
        c.set_tid(1, 99).unwrap();
        let mut buf = [0u8; 1];
        assert!(!c.read(1, 0x40, 0x40, &mut buf).unwrap().hit);
        c.set_tid(1, 0).unwrap();
        assert!(c.read(1, 0x40, 0x40, &mut buf).unwrap().hit);
    }

    #[test]
    fn fill_without_ways_is_rejected_gracefully() {
        let mut c = small();
        let (way, ev) = c.fill(0, 0x0, 0x0, &line(1), false).unwrap();
        assert_eq!(way, None);
        assert!(ev.is_none());
        assert_eq!(c.valid_lines(), 0);
    }

    #[test]
    fn revoked_way_writes_back_dirty_lines() {
        let mut c = small();
        grant_ways(&mut c, 0, 1);
        c.fill(0, 0x0, 0x0, &line(5), true).unwrap();
        c.demand(0, 0).unwrap();
        let (events, wbs, _) = c.settle();
        assert!(matches!(events[0], SduEvent::Revoked { core: 0, .. }));
        assert_eq!(wbs.len(), 1);
        assert_eq!(wbs[0].addr, 0x0);
        assert_eq!(wbs[0].data[0], 5);
        assert_eq!(c.valid_lines(), 0);
    }

    #[test]
    fn transfer_preserves_contents_and_sets_gv() {
        let mut c = small();
        grant_ways(&mut c, 0, 1);
        let (way, _) = c.fill(0, 0x80, 0x80, &line(8), false).unwrap();
        let way = way.unwrap();
        c.transfer_way(way, 1).unwrap();
        // Core 1 now owns the way, it is global, contents intact.
        assert!(c.supply(1).unwrap().contains(way));
        assert!(c.gv_get(1).unwrap().contains(way));
        let mut buf = [0u8; 1];
        assert!(c.read(0, 0x80, 0x80, &mut buf).unwrap().hit);
        assert!(c.read(1, 0x80, 0x80, &mut buf).unwrap().hit);
        assert_eq!(buf[0], 8);
    }

    #[test]
    fn ip_set_applies_to_owned_ways_only() {
        let mut c = small();
        grant_ways(&mut c, 0, 2);
        grant_ways(&mut c, 1, 1);
        c.ip_set(0, InclusionPolicy::Inclusive).unwrap();
        let owned0 = c.supply(0).unwrap();
        let owned1 = c.supply(1).unwrap();
        for w in owned0.iter() {
            assert_eq!(c.ip_of(w).unwrap(), InclusionPolicy::Inclusive);
        }
        for w in owned1.iter() {
            assert_eq!(c.ip_of(w).unwrap(), InclusionPolicy::NonInclusive);
        }
        assert!(c.routes_stores(0).unwrap());
        assert!(!c.routes_stores(1).unwrap());
    }

    #[test]
    fn granted_way_resets_inclusion_policy() {
        let mut c = small();
        grant_ways(&mut c, 0, 1);
        c.ip_set(0, InclusionPolicy::Inclusive).unwrap();
        let w = c.supply(0).unwrap().lowest().unwrap();
        c.demand(0, 0).unwrap();
        c.settle();
        grant_ways(&mut c, 1, 1);
        assert_eq!(c.supply(1).unwrap().lowest().unwrap(), w);
        assert_eq!(c.ip_of(w).unwrap(), InclusionPolicy::NonInclusive);
    }

    #[test]
    fn vipt_uses_virtual_index_and_physical_tag() {
        let mut c = small();
        grant_ways(&mut c, 0, 2);
        // Two sets (128 B way / 64 B lines). vaddr selects the set, paddr
        // the tag: fill with vaddr in set 1, paddr far away.
        c.fill(0, 0x40, 0x9000_0040, &line(2), false).unwrap();
        let mut buf = [0u8; 1];
        // Same vaddr + same paddr: hit.
        assert!(c.read(0, 0x40, 0x9000_0040, &mut buf).unwrap().hit);
        // Same vaddr, different paddr (tag mismatch): miss.
        assert!(!c.read(0, 0x40, 0x8000_0040, &mut buf).unwrap().hit);
        // Different vaddr set, same paddr: miss (indexes another set).
        assert!(!c.read(0, 0x00, 0x9000_0040, &mut buf).unwrap().hit);
    }

    #[test]
    fn latency_band_respected() {
        let mut c = small();
        grant_ways(&mut c, 0, 4);
        c.fill(0, 0x0, 0x0, &line(1), false).unwrap();
        let mut buf = [0u8; 1];
        let o = c.read(0, 0x0, 0x0, &mut buf).unwrap();
        assert!(o.latency >= 2 && o.latency <= 8);
        let miss = c.read(0, 0x1000, 0x1000, &mut buf).unwrap();
        assert!(miss.latency >= 2 && miss.latency <= 8);
    }

    #[test]
    fn per_core_stats_are_separated() {
        let mut c = small();
        grant_ways(&mut c, 0, 1);
        c.fill(0, 0x0, 0x0, &line(1), false).unwrap();
        let mut buf = [0u8; 1];
        c.read(0, 0x0, 0x0, &mut buf).unwrap();
        c.read(1, 0x0, 0x0, &mut buf).unwrap();
        assert_eq!(c.core_stats(0).unwrap().hits(), 1);
        assert_eq!(c.core_stats(1).unwrap().misses(), 1);
        assert_eq!(c.stats().accesses(), 2);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut c = small();
        grant_ways(&mut c, 0, 2);
        c.gv_set(0, c.supply(0).unwrap()).unwrap();
        c.ip_set(0, InclusionPolicy::Inclusive).unwrap();
        c.set_tid(0, 42).unwrap();
        let snap = c.snapshot();

        // Disturb everything.
        c.demand(0, 0).unwrap();
        c.settle();
        grant_ways(&mut c, 1, 3);
        c.set_tid(0, 0).unwrap();

        // Restore brings the architectural state back bit-exactly.
        c.restore(&snap).unwrap();
        assert_eq!(c.snapshot(), snap);
        assert_eq!(c.supply(0).unwrap().count(), 2);
        assert_eq!(c.supply(1).unwrap().count(), 0);
        assert!(c.routes_stores(0).unwrap() || c.gv_get(0).unwrap().count() == 2);
        // The SDU agrees with the restored ownership (no churn afterwards).
        let (events, _, _) = c.settle();
        assert!(events.is_empty(), "restore must leave the SDU quiescent: {events:?}");
    }

    #[test]
    fn restore_purges_reassigned_ways() {
        let mut c = small();
        grant_ways(&mut c, 0, 1);
        let snap = c.snapshot(); // way 0 owned by core 0, clean state

        // Same way now owned by core 1 with dirty contents.
        c.demand(0, 0).unwrap();
        c.settle();
        grant_ways(&mut c, 1, 1);
        c.fill(1, 0x0, 0x0, &line(9), true).unwrap();

        let wbs = c.restore(&snap).unwrap();
        assert_eq!(wbs.len(), 1, "dirty line of the reassigned way written back");
        assert_eq!(wbs[0].data[0], 9);
        // Contents are gone: the restored owner starts cold.
        let mut buf = [0u8; 1];
        assert!(!c.read(0, 0x0, 0x0, &mut buf).unwrap().hit);
    }

    #[test]
    fn restore_rejects_mismatched_shape() {
        let mut c = small();
        let mut snap = c.snapshot();
        snap.ip.pop();
        assert!(matches!(c.restore(&snap), Err(CacheError::BadGeometry { name: "snapshot", .. })));
    }

    #[test]
    fn utilisation_tracks_ownership() {
        let mut c = small();
        assert_eq!(c.utilisation(), 0.0);
        grant_ways(&mut c, 0, 2);
        grant_ways(&mut c, 1, 1);
        assert!((c.utilisation() - 0.75).abs() < 1e-12);
    }
}
