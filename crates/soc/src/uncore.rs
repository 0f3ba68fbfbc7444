//! The memory system ("uncore"): per-core L1 I/D caches, one L1.5 per
//! cluster, a shared L2 and external memory, glued together by the IPU
//! routing rules of Sec. 2.2.
//!
//! # Routing
//!
//! *Reads/fetches*: L1 → L1.5 (ways permitted by the mask logic) → L2 →
//! memory; lines fetched from below are allocated upwards (write-allocate,
//! write-back).
//!
//! *Stores*: when the requesting core owns **inclusive** L1.5 ways (the
//! producer-node configuration of Sec. 4.3), the IPU routes the store
//! through the L1 into the L1.5 — the dependent data lands in the L1.5 and
//! becomes sharable via `gv_set`. Otherwise stores follow the conventional
//! write-back/write-allocate L1 path.
//!
//! *Evictions*: dirty L1 victims are absorbed by the L1.5 when a permitted
//! way holds the line, else they fall through to the L2; dirty L1.5 and L2
//! victims fall through to L2 and memory respectively.

use std::collections::VecDeque;

use l15_cache::geometry::WayMask;
use l15_cache::l15::{InclusionPolicy, L15Cache, L15Config, L15ConfigState, SduEvent};
use l15_cache::mem::MainMemory;
use l15_cache::sa::{AccessKind, EvictedLine, SetAssocCache};
use l15_cache::stats::CacheStats;
use l15_cache::CacheError;
use l15_rvcore::bus::{CtrlAccess, FetchLine, Fetched, MemAccess, SystemBus};
use l15_rvcore::isa::{self, Instr, L15Op};
use l15_trace::{EventKind, Level};

use crate::config::{LevelConfig, SocConfig};
use crate::trace::{ctrl_kind, Trace};

fn build_level(cfg: &LevelConfig) -> SetAssocCache {
    let geo = cfg.geometry().expect("level configuration must be a valid geometry");
    SetAssocCache::new(geo, cfg.lat_min, cfg.lat_max)
}

/// Aggregated hierarchy statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HierarchyStats {
    /// All L1 (I+D) counters merged.
    pub l1: CacheStats,
    /// All L1.5 counters merged (zero when the SoC has no L1.5).
    pub l15: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// Line transfers served by external memory.
    pub mem_lines: u64,
}

/// Per-cluster statistics: the counters of one cluster's private L1s and
/// its L1.5, kept separate so multi-application co-residency runs can
/// attribute cache behaviour to the cluster an application was pinned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterStats {
    /// The cluster's L1 (I+D) counters merged over its cores.
    pub l1: CacheStats,
    /// The cluster's L1.5 counters (zero when the SoC has no L1.5).
    pub l15: CacheStats,
}

/// The levels every cluster shares: the L2 and the external memory behind
/// it. A field of its own so the clusters' caches can be borrowed beside it.
#[derive(Debug, Clone)]
struct Below {
    l2: SetAssocCache,
    mem: MainMemory,
    /// Line transfers to or from external memory.
    mem_lines: u64,
}

impl Below {
    /// Reads the line at base address `base` into `line`, allocating it in
    /// the L2 on a miss. Returns `(cycles, serving level)`.
    fn read_line(&mut self, base: u64, line: &mut [u8]) -> (u32, Level) {
        let out = self.l2.access(base, AccessKind::Read);
        if let Some(way) = out.way {
            line.copy_from_slice(self.l2.line(base, way));
            return (out.latency, Level::L2);
        }
        self.mem.read(base, line);
        self.mem_lines += 1;
        if let Some(victim) = self.l2.fill(base, line, None) {
            self.mem.write(victim.addr, &victim.data);
            self.mem_lines += 1;
        }
        (out.latency + self.mem.latency(), Level::Mem)
    }

    /// Writes one dirty line into the L2 (allocating if absent), spilling
    /// L2 victims to memory.
    fn write_back(&mut self, addr: u64, data: &[u8]) {
        if let Some(way) = self.l2.probe(addr) {
            self.l2.line_mut(addr, way).copy_from_slice(data);
            return;
        }
        if let Some(victim) = self.l2.fill(addr, data, None) {
            self.mem.write(victim.addr, &victim.data);
            self.mem_lines += 1;
        }
        // Mark dirty by writing the data through the normal path.
        let ok = self.l2.write_bytes(addr, data);
        debug_assert!(ok, "freshly filled line accepts a write");
    }

    fn write_back_all(&mut self, lines: Vec<EvictedLine>) {
        for line in lines {
            self.write_back(line.addr, &line.data);
        }
    }
}

/// Little-endian value of the `size` bytes at `off` of `line`; zero when
/// they would cross the line's end (only a misaligned access can).
fn value_at(line: &[u8], off: usize, size: usize) -> u32 {
    let bytes = line.get(off..off + size).unwrap_or(&[]);
    match <[u8; 4]>::try_from(bytes) {
        Ok(word) => u32::from_le_bytes(word),
        Err(_) => bytes.iter().rev().fold(0, |v, &b| v << 8 | u32::from(b)),
    }
}

/// The L1I line a core touched last in one set, the way holding it and what
/// a hit in that way costs. A closed window names no line: `base` is beyond
/// the 32-bit physical address space.
#[derive(Debug, Clone, Copy)]
struct FetchWindow {
    base: u64,
    way: usize,
    latency: u32,
}

const CLOSED: FetchWindow = FetchWindow { base: u64::MAX, way: 0, latency: 0 };

/// One core's L1I behind the two tables that let a fetch skip the probe and
/// the decode (`DESIGN.md` §4.7 has their invariants).
#[derive(Debug, Clone)]
struct Frontend {
    l1i: SetAssocCache,
    /// Per set: the set's most recent touch, or [`CLOSED`].
    windows: Vec<FetchWindow>,
    /// Per slot and word: [`isa::decode`] of the resident line's word,
    /// written when the line is filled. Allocated by the core's first fill.
    decoded: Vec<Option<Instr>>,
}

impl Frontend {
    /// Index in `decoded` of the word at `paddr`, resident in `way`.
    fn word(&self, paddr: u64, way: usize) -> usize {
        let geo = self.l1i.geometry();
        let slot = geo.index_of(paddr) as usize * geo.ways() + way;
        (slot * geo.line_bytes() as usize + geo.offset_of(paddr) as usize) / 4
    }

    /// The L1I was just filled with `line` for `paddr`: decodes it into its
    /// slot and closes the set's window, which the fill touched.
    fn filled(&mut self, paddr: u64, line: &[u8]) {
        let geo = *self.l1i.geometry();
        let way = self.l1i.probe(paddr).expect("the line was just filled");
        self.windows[geo.index_of(paddr) as usize] = CLOSED;
        if self.decoded.is_empty() {
            self.decoded = vec![None; (geo.capacity_bytes() / 4) as usize];
        }
        let first = self.word(geo.line_base(paddr), way);
        for (slot, word) in self.decoded[first..].iter_mut().zip(line.chunks_exact(4)) {
            *slot = isa::decode(value_at(word, 0, 4)).ok();
        }
    }
}

/// How far the Walloc FSMs may be from settled (`DESIGN.md` §4.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Walloc {
    /// Every SDU is settled: [`Uncore::advance`] returns at once.
    Settled,
    /// Every pending SDU is stalled: no way moves until a `demand` or a
    /// resync, which raise the state, whatever order cycles are counted in.
    Stalled,
    /// Some Walloc may grant or revoke on its next tick.
    Acting,
}

/// The memory system shared by all cores.
#[derive(Debug, Clone)]
pub struct Uncore {
    cfg: SocConfig,
    front: Vec<Frontend>,
    l1d: Vec<SetAssocCache>,
    l15: Vec<Option<L15Cache>>,
    below: Below,
    line_bytes: u64,
    /// The line an L1 miss is refilling, so the miss path allocates nothing.
    line_buf: Vec<u8>,
    /// Per core, oldest first: the line and L1.5 way of each posted store
    /// whose tree-PLRU touch is still owed.
    posted: Vec<VecDeque<(u32, usize)>>,
    /// What the clusters' Walloc FSMs may still do: raised to
    /// [`Walloc::Acting`] by everything that can create or change a demand
    /// or clear a stall, lowered only by what [`advance`](Self::advance)
    /// saw. It may be spuriously high, never spuriously low.
    pub(crate) walloc: Walloc,
    trace: Trace,
}

impl Uncore {
    /// Builds the memory system for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if any level configuration is geometrically invalid, or if
    /// the L1, L1.5 and L2 line sizes disagree.
    pub fn new(cfg: SocConfig) -> Self {
        assert_eq!(cfg.l1i.line_bytes, cfg.l1d.line_bytes, "line sizes must agree");
        assert_eq!(cfg.l1d.line_bytes, cfg.l2.line_bytes, "line sizes must agree");
        if let Some(l15) = &cfg.l15 {
            assert_eq!(l15.line_bytes, cfg.l2.line_bytes, "line sizes must agree");
        }
        let cores = cfg.total_cores();
        let l15 = (0..cfg.clusters)
            .map(|_| {
                cfg.l15.map(|c| {
                    L15Cache::new(L15Config { cores: cfg.cores_per_cluster, ..c })
                        .expect("valid L1.5 configuration")
                })
            })
            .collect();
        Uncore {
            front: (0..cores)
                .map(|_| {
                    let l1i = build_level(&cfg.l1i);
                    let windows = vec![CLOSED; l1i.geometry().sets() as usize];
                    Frontend { l1i, windows, decoded: Vec::new() }
                })
                .collect(),
            l1d: (0..cores).map(|_| build_level(&cfg.l1d)).collect(),
            l15,
            below: Below {
                l2: build_level(&cfg.l2),
                mem: MainMemory::new(cfg.mem_latency),
                mem_lines: 0,
            },
            line_bytes: cfg.l1d.line_bytes,
            line_buf: vec![0; cfg.l1d.line_bytes as usize],
            posted: vec![VecDeque::new(); cores],
            walloc: Walloc::Settled,
            trace: Trace::default(),
            cfg,
        }
    }

    /// The cycle-accurate monitor (Sec. 5.3).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable monitor access (attach or detach a recorder, stamp, emit).
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// The SoC configuration.
    pub fn config(&self) -> &SocConfig {
        &self.cfg
    }

    fn cluster_of(&self, core: usize) -> (usize, usize) {
        (core / self.cfg.cores_per_cluster, core % self.cfg.cores_per_cluster)
    }

    /// Whether the IPU routes `core`'s stores into its L1.5 (Sec. 4.3).
    #[inline]
    fn routes_stores(&self, core: usize) -> bool {
        let (cluster, lane) = self.cluster_of(core);
        self.l15[cluster].as_ref().is_some_and(|l15| l15.routes_stores(lane).unwrap_or(false))
    }

    /// Applies the touch `core`'s oldest posted store owes, as the SoC
    /// accounts the store.
    ///
    /// # Panics
    ///
    /// If `core` owes none, or as [`L15Cache::touch_posted`] does.
    pub fn apply_posted(&mut self, core: usize) {
        let (paddr, way) =
            self.posted[core].pop_front().expect("an entry marked posted has its touch queued");
        let (cluster, lane) = self.cluster_of(core);
        let l15 = self.l15[cluster].as_mut().expect("only a routed store posts");
        l15.touch_posted(lane, paddr as u64, paddr as u64, way);
    }

    /// Direct (host) memory write, bypassing the caches — used to load
    /// programs and input data before reset.
    pub fn host_write(&mut self, paddr: u32, data: &[u8]) {
        self.below.mem.write(paddr as u64, data);
    }

    /// Direct (host) memory read. Beware: dirty cache lines are not
    /// snooped; call [`flush_all`](Self::flush_all) first when inspecting
    /// results.
    pub fn host_read(&mut self, paddr: u32, buf: &mut [u8]) {
        self.below.mem.read(paddr as u64, buf);
    }

    /// Loads a program image (little-endian words) at `paddr`. Like every
    /// host write it reaches memory only: an L1I that holds one of its lines
    /// keeps executing the old contents until [`flush_all`](Self::flush_all).
    pub fn load_program(&mut self, paddr: u32, words: &[u32]) {
        for (i, w) in words.iter().enumerate() {
            self.below.mem.write(paddr as u64 + i as u64 * 4, &w.to_le_bytes());
        }
    }

    /// The L1.5 of `cluster`, if the SoC has one.
    pub fn l15(&self, cluster: usize) -> Option<&L15Cache> {
        self.l15.get(cluster).and_then(|o| o.as_ref())
    }

    /// Mutable L1.5 access (kernel-level operations such as
    /// [`L15Cache::transfer_way`]). The caller may change a demand behind
    /// the uncore's back, so this raises the Walloc state.
    pub fn l15_mut(&mut self, cluster: usize) -> Option<&mut L15Cache> {
        self.walloc = Walloc::Acting;
        self.l15.get_mut(cluster).and_then(|o| o.as_mut())
    }

    /// Registers the task/application id running on `core` (drives the
    /// cross-application protector).
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownCore`] for an out-of-range core.
    pub fn set_tid(&mut self, core: usize, tid: u32) -> Result<(), CacheError> {
        let (cluster, lane) = self.cluster_of(core);
        if core >= self.cfg.total_cores() {
            return Err(CacheError::UnknownCore(core));
        }
        if let Some(l15) = self.l15[cluster].as_mut() {
            l15.set_tid(lane, tid)?;
        }
        Ok(())
    }

    /// Advances every cluster's Walloc FSM by `cycles` cycles (one way per
    /// cycle per cluster), writing back any lines displaced by revocations.
    /// Returns at once while no Walloc can have work.
    #[inline]
    pub fn advance(&mut self, cycles: u32) {
        if self.walloc != Walloc::Settled {
            self.run_wallocs(cycles);
        }
    }

    fn run_wallocs(&mut self, cycles: u32) {
        let mut walloc = Walloc::Settled;
        for (cluster, l15) in self.l15.iter_mut().enumerate() {
            let Some(l15) = l15 else { continue };
            for _ in 0..cycles {
                if !l15.reconfig_pending() || l15.reconfig_stalled() {
                    break;
                }
                let (event, wbs) = l15.tick();
                match event {
                    Some(SduEvent::Granted { core, way }) => {
                        self.trace.record(EventKind::WayGrant {
                            cluster: cluster as u32,
                            lane: core as u32,
                            way: way as u32,
                        });
                    }
                    Some(SduEvent::Revoked { way, .. }) => {
                        self.trace.record(EventKind::WayRevoke {
                            cluster: cluster as u32,
                            way: way as u32,
                        });
                    }
                    None => {}
                }
                self.below.write_back_all(wbs);
            }
            // Demand outstanding but no way free: a reconfiguration stall.
            // Its remaining cycles are not ticked, and it is reported once
            // per advance — the backlog cannot change until someone shrinks.
            if cycles > 0 && l15.reconfig_stalled() && self.trace.recording() {
                let backlog = l15.reconfig_backlog() as u32;
                self.trace.emit(EventKind::SduStall { cluster: cluster as u32, backlog });
            }
            if l15.reconfig_pending() {
                let state = if l15.reconfig_stalled() { Walloc::Stalled } else { Walloc::Acting };
                walloc = walloc.max(state);
            }
        }
        self.walloc = walloc;
    }

    /// Kernel-level revocation of one specific L1.5 way in `cluster`
    /// (frees ways whose dependent data was fully consumed), writing dirty
    /// lines back to the L2.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownWay`] for an out-of-range way; a
    /// cluster without an L1.5 is a no-op.
    pub fn kernel_revoke_way(&mut self, cluster: usize, way: usize) -> Result<(), CacheError> {
        let Some(l15) = self.l15_mut(cluster) else {
            return Ok(());
        };
        let wbs = l15.revoke_way(way)?;
        self.trace.record(EventKind::WayRevoke { cluster: cluster as u32, way: way as u32 });
        self.below.write_back_all(wbs);
        Ok(())
    }

    /// Kernel-level restore of a saved L1.5 configuration (application
    /// context switch), writing back any dirty lines displaced by
    /// ownership changes.
    ///
    /// # Errors
    ///
    /// Propagates [`L15Cache::restore`] errors; a cluster without an L1.5
    /// is a no-op.
    pub fn kernel_restore_l15(
        &mut self,
        cluster: usize,
        state: &L15ConfigState,
    ) -> Result<(), CacheError> {
        let Some(l15) = self.l15_mut(cluster) else {
            return Ok(());
        };
        let wbs = l15.restore(state)?;
        self.below.write_back_all(wbs);
        Ok(())
    }

    /// Flushes the L1 data cache of `core` down the hierarchy (software
    /// cache maintenance; legacy systems use this to publish a finished
    /// task's data).
    pub fn flush_l1d(&mut self, core: usize) {
        let dirty = self.l1d[core].flush();
        let (cluster, lane) = self.cluster_of(core);
        for line in dirty {
            self.absorb_l1_victim(cluster, lane, line.addr, &line.data);
        }
    }

    /// Flushes everything (all L1s, L1.5s, L2) to memory. Used before host
    /// inspection of results.
    pub fn flush_all(&mut self) {
        for core in 0..self.cfg.total_cores() {
            self.flush_l1d(core);
            self.front[core].l1i.flush();
            self.front[core].windows.fill(CLOSED);
        }
        for l15 in self.l15.iter_mut().flatten() {
            // `flush_dirty` hands every dirty line down and leaves it
            // resident and clean; way ownership is untouched.
            self.below.write_back_all(l15.flush_dirty());
        }
        for line in self.below.l2.flush() {
            self.below.mem.write(line.addr, &line.data);
            self.below.mem_lines += 1;
        }
    }

    /// Content fingerprint of external memory (see
    /// [`MainMemory::fingerprint`]); used by the traced-vs-untraced parity
    /// tests to assert final memory state equality.
    pub fn memory_fingerprint(&self) -> u64 {
        self.below.mem.fingerprint()
    }

    /// Every non-zero byte of external memory, sorted by address (see
    /// [`MainMemory::nonzero_bytes`]). The fuzz harness diffs this against
    /// its sequential oracle after [`Uncore::flush_all`], so the snapshot
    /// reflects every cached dirty line only once the hierarchy has been
    /// written back.
    pub fn memory_nonzero_bytes(&self) -> Vec<(u64, u8)> {
        self.below.mem.nonzero_bytes()
    }

    /// Merged statistics over the whole hierarchy.
    pub fn stats(&self) -> HierarchyStats {
        let mut s = HierarchyStats::default();
        for c in self.front.iter().map(|f| &f.l1i).chain(&self.l1d) {
            s.l1.merge(c.stats());
        }
        for l15 in self.l15.iter().flatten() {
            s.l15.merge(l15.stats());
        }
        s.l2.merge(self.below.l2.stats());
        s.mem_lines = self.below.mem_lines;
        s
    }

    /// Statistics of one cluster: its cores' L1s merged plus its L1.5.
    /// Returns `None` for an out-of-range cluster.
    pub fn cluster_stats(&self, cluster: usize) -> Option<ClusterStats> {
        if cluster >= self.cfg.clusters {
            return None;
        }
        let mut s = ClusterStats::default();
        let base = cluster * self.cfg.cores_per_cluster;
        for core in base..base + self.cfg.cores_per_cluster {
            s.l1.merge(self.front[core].l1i.stats());
            s.l1.merge(self.l1d[core].stats());
        }
        if let Some(l15) = self.l15(cluster) {
            s.l15.merge(l15.stats());
        }
        Some(s)
    }

    /// [`Self::cluster_stats`] for every cluster, in cluster order.
    pub fn per_cluster_stats(&self) -> Vec<ClusterStats> {
        (0..self.cfg.clusters).map(|c| self.cluster_stats(c).expect("cluster in range")).collect()
    }

    /// Absorbs a dirty L1 victim line: into a permitted L1.5 way when it
    /// holds the line, else down to L2.
    fn absorb_l1_victim(&mut self, cluster: usize, lane: usize, addr: u64, data: &[u8]) {
        if let Some(l15) = self.l15[cluster].as_mut() {
            // The L1.5 is VIPT; for write-back we only have the physical
            // address. Kernel data is identity-mapped and user windows are
            // segment-offsets, so indexing by the physical address of the
            // same line keeps index bits consistent with how it was filled
            // (see Runtime: dependent-data buffers are mapped with matching
            // index bits).
            if let Ok(out) = l15.write(lane, addr, addr, data) {
                if out.hit {
                    return;
                }
            }
            // The lane has no write-permitted way holding the line (e.g.
            // `gv_set` moved the way out of its write mask), so the victim
            // bypasses the L1.5. Any copy a read-permitted way still holds
            // is about to go stale and must be back-invalidated; its dirty
            // contents go down first so the newer L1 data lands on top.
            if let Some(stale) = l15.invalidate_line(addr, addr) {
                self.below.write_back(stale.addr, &stale.data);
            }
        }
        self.below.write_back(addr, data);
    }

    /// Shared read path under L1: L1.5 → L2 → memory, into the scratch
    /// line. Returns `(cycles, serving level)`.
    fn read_line_shared(
        &mut self,
        cluster: usize,
        lane: usize,
        vaddr: u64,
        paddr: u64,
    ) -> (u32, Level) {
        let vbase = vaddr & !(self.line_bytes - 1);
        let pbase = paddr & !(self.line_bytes - 1);
        let Some(l15) = self.l15[cluster].as_mut() else {
            return self.below.read_line(pbase, &mut self.line_buf);
        };
        let out = l15
            .read(lane, vbase, pbase, &mut self.line_buf)
            .expect("lane index is within the cluster");
        if let Some(way) = out.way {
            // A hit in a way the reading lane does not own is dependent
            // data flowing producer → consumer through the L1.5.
            if self.trace.recording() && !l15.supply(lane).is_ok_and(|m| m.contains(way)) {
                let core = cluster * self.cfg.cores_per_cluster + lane;
                self.trace.emit(EventKind::GvConsume {
                    core: core as u32,
                    cluster: cluster as u32,
                    way: way as u32,
                });
            }
            return (out.latency, Level::L15);
        }
        // Miss in L1.5: fetch from below and allocate into the core's
        // writable ways (non-exclusive allocation on refill).
        let (cycles, served) = self.below.read_line(pbase, &mut self.line_buf);
        if let Ok((Some(_), Some(v))) = l15.fill(lane, vbase, pbase, &self.line_buf, false) {
            self.below.write_back(v.addr, &v.data);
        }
        (cycles + out.latency, served)
    }

    /// Services an L1 miss of `core`: brings the line of `paddr` through
    /// L1.5/L2/memory into the scratch line (where the caller reads it),
    /// installs it in the L1 (`instr` picks I over D) and absorbs the
    /// victim. Returns `(cycles below the L1, serving level)`.
    fn refill_l1(&mut self, core: usize, instr: bool, vaddr: u64, paddr: u64) -> (u32, Level) {
        let (cluster, lane) = self.cluster_of(core);
        let (cycles, served) = self.read_line_shared(cluster, lane, vaddr, paddr);
        let l1 = if instr { &mut self.front[core].l1i } else { &mut self.l1d[core] };
        if let Some(v) = l1.fill(paddr, &self.line_buf, None) {
            self.absorb_l1_victim(cluster, lane, v.addr, &v.data);
        }
        if instr {
            self.front[core].filled(paddr, &self.line_buf);
        }
        (cycles, served)
    }

    /// A fetch (`instr`) or load of `size` bytes: one L1 probe, the hit
    /// served through the way it returned.
    fn read_through_l1(
        &mut self,
        core: usize,
        instr: bool,
        vaddr: u32,
        paddr: u32,
        size: u32,
    ) -> (MemAccess, Level) {
        let paddr = paddr as u64;
        let l1 = if instr { &mut self.front[core].l1i } else { &mut self.l1d[core] };
        let out = l1.access(paddr, AccessKind::Read);
        let off = (paddr & (self.line_bytes - 1)) as usize;
        if let Some(way) = out.way {
            let value = value_at(l1.line(paddr, way), off, size as usize);
            if instr {
                let (geo, latency) = (*l1.geometry(), out.latency);
                let window = FetchWindow { base: geo.line_base(paddr), way, latency };
                self.front[core].windows[geo.index_of(paddr) as usize] = window;
            }
            return (MemAccess { value, cycles: out.latency, from_l15: false }, Level::L1);
        }
        let (below, served) = self.refill_l1(core, instr, vaddr as u64, paddr);
        let value = value_at(&self.line_buf, off, size as usize);
        let cycles = out.latency + below;
        (MemAccess { value, cycles, from_l15: served == Level::L15 }, served)
    }

    /// The window compare: `paddr`'s line and way, if word-aligned in its
    /// set's most recent touch.
    #[inline]
    fn window_line(&self, core: usize, paddr: u32) -> Option<(FetchLine, usize)> {
        let (front, addr) = (&self.front[core], paddr as u64);
        let geo = front.l1i.geometry();
        let window = front.windows[geo.index_of(addr) as usize];
        if window.base != geo.line_base(addr) || !paddr.is_multiple_of(4) {
            return None;
        }
        let (base, bytes, slot) =
            (window.base as u32, geo.line_bytes() as u32, front.word(window.base, window.way));
        Some((FetchLine { base, bytes, slot, cycles: window.latency }, window.way))
    }

    /// A fetch its set's window does not cover: probe the L1I, decode the
    /// word. Kept out of line, so `Core::step` inlines the window hit only.
    #[inline(never)]
    fn fetch_probed(&mut self, core: usize, vaddr: u32, paddr: u32) -> Fetched {
        let (access, level) = self.read_through_l1(core, true, vaddr, paddr, 4);
        self.trace.record(EventKind::Fetch { core: core as u32, level });
        Fetched { word: access.value, cycles: access.cycles, instr: isa::decode(access.value).ok() }
    }
}

impl SystemBus for Uncore {
    #[inline]
    fn fetch(&mut self, core: usize, vaddr: u32, paddr: u32) -> Fetched {
        let Some((line, way)) = self.window_line(core, paddr) else {
            return self.fetch_probed(core, vaddr, paddr);
        };
        let front = &mut self.front[core];
        let off = (paddr - line.base) as usize;
        let word = value_at(front.l1i.line(paddr as u64, way), off, 4);
        let instr = front.decoded[line.slot + off / 4];
        front.l1i.record_hits(1);
        self.trace.record(EventKind::Fetch { core: core as u32, level: Level::L1 });
        Fetched { word, cycles: line.cycles, instr }
    }

    /// The window's line, while no recorder needs each fetch as an event.
    #[inline]
    fn fetch_line(&self, core: usize, paddr: u32) -> Option<FetchLine> {
        let (line, _) = self.window_line(core, paddr).filter(|_| !self.trace.recording())?;
        Some(line)
    }

    #[inline]
    fn predecoded(&self, core: usize, slot: usize) -> Option<Instr> {
        self.front[core].decoded[slot]
    }

    #[inline]
    fn count_line_fetches(&mut self, core: usize, n: u64) {
        self.front[core].l1i.record_hits(n);
        self.trace.count_l1_fetches(n);
    }

    fn load(&mut self, core: usize, vaddr: u32, paddr: u32, size: u32) -> MemAccess {
        let (access, level) = self.read_through_l1(core, false, vaddr, paddr, size);
        self.trace.record(EventKind::Load { core: core as u32, level });
        access
    }

    #[inline]
    fn load_private(&mut self, core: usize, paddr: u32, size: u32) -> Option<MemAccess> {
        let paddr = paddr as u64;
        let (way, cycles) = self.l1d[core].access_if_hit(paddr, AccessKind::Read)?;
        let off = (paddr & (self.line_bytes - 1)) as usize;
        let value = value_at(self.l1d[core].line(paddr, way), off, size as usize);
        self.trace.record(EventKind::Load { core: core as u32, level: Level::L1 });
        Some(MemAccess { value, cycles, from_l15: false })
    }

    /// A conventional L1D hit, or a routed write hit posted when the L1D
    /// holds no copy to merge: done now at the L1 pass-through's cost but
    /// for its L1.5 PLRU touch ([`apply_posted`](Uncore::apply_posted)).
    /// Exact under `Soc::run_ahead`'s contract (`DESIGN.md` §4.7).
    #[inline]
    fn store_private(
        &mut self,
        core: usize,
        paddr: u32,
        size: u32,
        value: u32,
    ) -> Option<(u32, bool)> {
        let (addr, bytes) = (paddr as u64, &value.to_le_bytes()[..size as usize]);
        if !self.routes_stores(core) {
            let (way, cycles) = self.l1d[core].access_if_hit(addr, AccessKind::Write)?;
            let off = (addr & (self.line_bytes - 1)) as usize;
            if let Some(dst) = self.l1d[core].line_mut(addr, way).get_mut(off..off + bytes.len()) {
                dst.copy_from_slice(bytes);
            }
            self.trace.record(EventKind::Store { core: core as u32, via_l15: false });
            return Some((cycles, false));
        }
        if self.l1d[core].probe(addr).is_some() {
            return None;
        }
        let (cluster, lane) = self.cluster_of(core);
        let l15 = self.l15[cluster].as_mut().expect("a routed lane has an L1.5");
        let way = l15.write_posted(lane, addr, addr, bytes)?;
        self.posted[core].push_back((paddr, way));
        self.trace.record(EventKind::Store { core: core as u32, via_l15: true });
        Some((self.cfg.l1d.lat_min, true))
    }

    fn store(&mut self, core: usize, vaddr: u32, paddr: u32, size: u32, value: u32) -> u32 {
        // The conventional path's L1D hit is the private store.
        if !self.routes_stores(core) {
            if let Some((cycles, _)) = self.store_private(core, paddr, size, value) {
                return cycles;
            }
        }
        let (cluster, lane) = self.cluster_of(core);
        let vaddr = vaddr as u64;
        let paddr = paddr as u64;
        let bytes = &value.to_le_bytes()[..size as usize];

        // IPU: inclusive L1.5 ways route the store through the L1 into the
        // L1.5 (Sec. 4.3), making dependent data immediately sharable.
        let routed =
            self.l15[cluster].as_mut().filter(|l15| l15.routes_stores(lane).unwrap_or(false));
        self.trace.record(EventKind::Store { core: core as u32, via_l15: routed.is_some() });
        if let Some(l15) = routed {
            let mut cycles = self.cfg.l1d.lat_min; // the L1 pass-through

            // Keep the L1 copy coherent if present (clean: L1.5 owns the
            // dirty data). A dirty L1 copy is merged into the L1.5 first —
            // and must never be dropped: if the L1.5 write misses, install
            // the dirty line, and if no writable way exists, push it down
            // to the L2.
            if let Some(dirty) = self.l1d[core].invalidate(paddr) {
                let out =
                    l15.write(lane, dirty.addr, dirty.addr, &dirty.data).expect("lane in range");
                if !out.hit {
                    match l15.fill(lane, dirty.addr, dirty.addr, &dirty.data, true) {
                        Ok((Some(_), Some(v))) => self.below.write_back(v.addr, &v.data),
                        Ok((Some(_), None)) => {}
                        _ => self.below.write_back(dirty.addr, &dirty.data),
                    }
                }
            }
            let out = l15.write(lane, vaddr, paddr, bytes).expect("lane in range");
            if out.hit {
                // Posted write: the store buffer retires the L1.5 update in
                // the background, so the core only pays the L1 pass-through.
                return cycles;
            }
            cycles += out.latency;
            // Write-allocate into the L1.5: fetch the line, install dirty,
            // then apply the store.
            let pbase = paddr & !(self.line_bytes - 1);
            let vbase = vaddr & !(self.line_bytes - 1);
            cycles += self.below.read_line(pbase, &mut self.line_buf).0;
            if let Ok((Some(_), victim)) = l15.fill(lane, vbase, pbase, &self.line_buf, false) {
                if let Some(v) = victim {
                    self.below.write_back(v.addr, &v.data);
                }
                let out = l15.write(lane, vaddr, paddr, bytes).expect("lane in range");
                debug_assert!(out.hit, "line was just installed");
                cycles += out.latency;
            } else {
                // No writable way after all (races with reconfiguration):
                // the store lands in the L2 copy of the line.
                self.below.write_back(pbase, &self.line_buf);
                let ok = self.below.l2.write_bytes(paddr, bytes);
                debug_assert!(ok);
            }
            return cycles;
        }

        // Conventional write-back / write-allocate L1 path, on a miss.
        let out = self.l1d[core].access(paddr, AccessKind::Write);
        debug_assert!(!out.hit, "a hit was a private store");
        let (below, _) = self.refill_l1(core, false, vaddr, paddr);
        let ok = self.l1d[core].write_bytes(paddr, bytes);
        debug_assert!(ok, "line was just filled");
        out.latency + below
    }

    fn l15_ctrl(&mut self, core: usize, op: L15Op, arg: u32) -> CtrlAccess {
        let (cluster, lane) = self.cluster_of(core);
        self.trace.record(EventKind::Ctrl { core: core as u32, op: ctrl_kind(op), arg });
        let Some(l15) = self.l15[cluster].as_mut() else {
            return CtrlAccess { value: 0, cycles: 1 };
        };
        let value = match op {
            L15Op::Demand => {
                // Errors (over-demand) are dropped as in hardware: the SDU
                // simply keeps the previous demand.
                let _ = l15.demand(lane, arg as usize);
                self.walloc = Walloc::Acting;
                0
            }
            L15Op::Supply => l15.supply(lane).map_or(0, WayMask::port_word),
            L15Op::GvSet => {
                if let Ok(mask) = l15.gv_set(lane, WayMask::from(arg as u64)) {
                    self.trace.record(EventKind::GvPublish {
                        cluster: cluster as u32,
                        lane: lane as u32,
                        mask: mask.port_word(),
                    });
                }
                0
            }
            L15Op::GvGet => l15.gv_get(lane).map_or(0, WayMask::port_word),
            L15Op::IpSet => {
                let policy = if arg != 0 {
                    InclusionPolicy::Inclusive
                } else {
                    InclusionPolicy::NonInclusive
                };
                let _ = l15.ip_set(lane, policy);
                0
            }
        };
        CtrlAccess { value, cycles: 1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PORT_WAYS;
    use l15_trace::FlightRecorder;

    fn uncore() -> Uncore {
        Uncore::new(SocConfig::proposed_8core())
    }

    #[test]
    fn load_miss_then_hit() {
        let mut u = uncore();
        u.host_write(0x1000, &42u32.to_le_bytes());
        let miss = u.load(0, 0x1000, 0x1000, 4);
        assert_eq!(miss.value, 42);
        assert!(miss.cycles > 10, "miss goes to L2/memory: {}", miss.cycles);
        let hit = u.load(0, 0x1000, 0x1000, 4);
        assert_eq!(hit.value, 42);
        assert!(hit.cycles <= 2, "L1 hit: {}", hit.cycles);
    }

    #[test]
    fn store_load_roundtrip_without_l15_ways() {
        let mut u = uncore();
        let c = u.store(0, 0x2000, 0x2000, 4, 0xabcd);
        assert!(c >= 1);
        let v = u.load(0, 0x2000, 0x2000, 4);
        assert_eq!(v.value, 0xabcd);
    }

    #[test]
    fn second_core_sees_data_via_l2_after_flush() {
        let mut u = uncore();
        u.store(0, 0x3000, 0x3000, 4, 7);
        u.flush_l1d(0);
        let v = u.load(1, 0x3000, 0x3000, 4);
        assert_eq!(v.value, 7);
    }

    #[test]
    fn dependent_data_flows_through_l15() {
        let mut u = uncore();
        // Core 0 (cluster 0) gets 2 inclusive ways.
        {
            let l15 = u.l15_mut(0).unwrap();
            l15.demand(0, 2).unwrap();
            l15.settle();
            l15.ip_set(0, InclusionPolicy::Inclusive).unwrap();
        }
        // Producer stores into the L1.5.
        u.store(0, 0x4000, 0x4000, 4, 0xfeed);
        assert!(u.l15(0).unwrap().valid_lines() > 0, "store allocated in L1.5");
        // Share the ways and read from core 1 (same cluster): L1.5 hit.
        {
            let l15 = u.l15_mut(0).unwrap();
            let owned = l15.supply(0).unwrap();
            l15.gv_set(0, owned).unwrap();
        }
        let v = u.load(1, 0x4000, 0x4000, 4);
        assert_eq!(v.value, 0xfeed);
        assert!(v.from_l15, "consumer is served by the L1.5");
        assert!(v.cycles <= 2 + 8, "no L2 round-trip: {}", v.cycles);
    }

    #[test]
    fn cross_cluster_needs_l2() {
        let mut u = uncore();
        {
            let l15 = u.l15_mut(0).unwrap();
            l15.demand(0, 2).unwrap();
            l15.settle();
            l15.ip_set(0, InclusionPolicy::Inclusive).unwrap();
        }
        u.store(0, 0x5000, 0x5000, 4, 0xbeef);
        // Core 4 is in cluster 1 and cannot see cluster 0's L1.5; the data
        // is still dirty up there, so it must be flushed for correctness.
        u.flush_all();
        let v = u.load(4, 0x5000, 0x5000, 4);
        assert_eq!(v.value, 0xbeef);
        assert!(!v.from_l15);
    }

    #[test]
    fn gv_bypass_write_back_invalidates_stale_l15_copy() {
        // Regression (found by the l15-fuzz differential harness): a core
        // with one way loads a private line (clean copy lands in its L1.5
        // way), dirties it in the L1, then `gv_set` removes the way from
        // its write mask. The dirty L1 victim can no longer be absorbed
        // and bypasses to the L2 — the stale readable L1.5 copy must be
        // back-invalidated, or the next load returns pre-store data.
        let mut u = uncore();
        {
            let l15 = u.l15_mut(0).unwrap();
            l15.demand(0, 1).unwrap();
            l15.settle();
        }
        u.load(0, 0x6000, 0x6000, 4); // clean copy in L1 and the L1.5 way
        u.store(0, 0x6000, 0x6000, 4, 0x1234_5678); // dirty in L1 only
        {
            let l15 = u.l15_mut(0).unwrap();
            let owned = l15.supply(0).unwrap();
            l15.gv_set(0, owned).unwrap(); // write mask is now empty
        }
        u.flush_l1d(0); // victim bypasses the L1.5
        let v = u.load(0, 0x6000, 0x6000, 4);
        assert_eq!(v.value, 0x1234_5678, "stale L1.5 copy must not serve the load");
    }

    #[test]
    fn ctrl_ops_route_to_cluster() {
        let mut u = uncore();
        u.l15_ctrl(5, L15Op::Demand, 3); // core 5 = cluster 1, lane 1
        u.advance(10);
        let supplied = u.l15_ctrl(5, L15Op::Supply, 0).value;
        assert_eq!(supplied.count_ones(), 3);
        assert_eq!(u.l15(1).unwrap().supply(1).unwrap().count(), 3);
        assert_eq!(u.l15(0).unwrap().utilisation(), 0.0);
    }

    #[test]
    fn advance_progresses_sdu_one_way_per_cycle() {
        let mut u = uncore();
        u.l15_ctrl(0, L15Op::Demand, 4);
        u.advance(2);
        assert_eq!(u.l15(0).unwrap().supply(0).unwrap().count(), 2);
        u.advance(2);
        assert_eq!(u.l15(0).unwrap().supply(0).unwrap().count(), 4);
    }

    #[test]
    fn fetch_path_works() {
        let mut u = uncore();
        u.load_program(0x100, &[0x0000_0013]); // nop
        let f = u.fetch(2, 0x100, 0x100);
        assert_eq!((f.word, f.instr), (0x0000_0013, isa::decode(0x0000_0013).ok()));
        let f2 = u.fetch(2, 0x100, 0x100);
        assert!(f2.cycles < f.cycles, "second fetch hits L1I");
    }

    #[test]
    fn stats_accumulate() {
        let mut u = uncore();
        u.load(0, 0x0, 0x0, 4);
        u.load(0, 0x0, 0x0, 4);
        let s = u.stats();
        assert_eq!(s.l1.accesses(), 2);
        assert_eq!(s.l1.hits(), 1);
        assert!(s.mem_lines >= 1);
    }

    #[test]
    fn monitor_counts_the_dependent_data_route() {
        let mut u = uncore();
        u.trace_mut().attach(FlightRecorder::new(64));
        {
            let l15 = u.l15_mut(0).unwrap();
            l15.demand(0, 2).unwrap();
            l15.settle();
            l15.ip_set(0, InclusionPolicy::Inclusive).unwrap();
        }
        u.store(0, 0x4000, 0x4000, 4, 0xfeed);
        {
            let l15 = u.l15_mut(0).unwrap();
            let owned = l15.supply(0).unwrap();
            l15.gv_set(0, owned).unwrap();
        }
        u.load(1, 0x4000, 0x4000, 4);
        let c = *u.trace().counters();
        assert_eq!(c.stores_via_l15, 1, "the IPU routed the store");
        assert_eq!(c.loads[1], 1, "the consumer load was served by the L1.5");
        let rec = u.trace_mut().detach().expect("attached above");
        let kinds: Vec<EventKind> = rec.events().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::Store { core: 0, via_l15: true }));
        assert!(kinds.contains(&EventKind::Load { core: 1, level: Level::L15 }));
        assert!(
            kinds.iter().any(|k| matches!(k, EventKind::GvConsume { core: 1, cluster: 0, .. })),
            "core 1 read a way it does not own: {kinds:?}"
        );
    }

    #[test]
    fn monitor_records_walloc_events() {
        let mut u = uncore();
        u.trace_mut().attach(FlightRecorder::new(64));
        u.l15_ctrl(0, L15Op::Demand, 3);
        u.advance(10);
        let c = *u.trace().counters();
        assert_eq!(c.grants, 3);
        assert_eq!(c.ctrl_ops, 1);
        let rec = u.trace_mut().detach().expect("attached above");
        let grants = rec.events().filter(|e| matches!(e.kind, EventKind::WayGrant { .. })).count();
        assert_eq!(grants, 3);
    }

    #[test]
    fn the_top_way_of_a_32_way_l15_round_trips_through_the_port() {
        let mut cfg = SocConfig::proposed_8core();
        cfg.l15.iter_mut().for_each(|c| c.ways = PORT_WAYS);
        cfg.validate().expect("32 ways fit the port");
        let mut u = Uncore::new(cfg);
        u.trace_mut().attach(FlightRecorder::new(64));
        // Lane 1 of cluster 1 (core 5) takes every way, way 31 included.
        u.l15_ctrl(5, L15Op::Demand, PORT_WAYS as u32);
        u.advance(PORT_WAYS as u32);
        assert_eq!(u.l15_ctrl(5, L15Op::Supply, 0).value, u32::MAX);
        u.l15_ctrl(5, L15Op::IpSet, 1);
        assert_eq!(u.l15(1).unwrap().ip_of(31), Ok(InclusionPolicy::Inclusive));
        let top = 1u32 << 31;
        u.l15_ctrl(5, L15Op::GvSet, top);
        assert_eq!(u.l15_ctrl(5, L15Op::GvGet, 0).value, top);
        assert_eq!(u.l15(1).unwrap().gv_get(1), Ok(WayMask::single(31)));
        let rec = u.trace_mut().detach().expect("attached above");
        let published: Vec<EventKind> = rec
            .events()
            .map(|e| e.kind)
            .filter(|k| matches!(k, EventKind::GvPublish { .. }))
            .collect();
        assert_eq!(published, [EventKind::GvPublish { cluster: 1, lane: 1, mask: top }]);
    }

    #[test]
    #[should_panic(expected = "wider than the 32-bit control port")]
    fn a_way_beyond_the_port_never_crosses_it_truncated() {
        let mut cfg = SocConfig::proposed_8core();
        cfg.l15.iter_mut().for_each(|c| c.ways = 40);
        assert!(cfg.validate().is_err());
        // Built without validation, the engine refuses to drop way 39.
        let mut u = Uncore::new(cfg);
        u.l15_ctrl(0, L15Op::Demand, 40);
        u.advance(40);
        u.l15_ctrl(0, L15Op::Supply, 0);
    }

    #[test]
    fn a_stalled_walloc_is_not_ticked_and_reports_once_per_advance() {
        let mut u = uncore();
        u.trace_mut().attach(FlightRecorder::new(256));
        // Lane 0 holds 12 of 16 ways; lane 1 wants 8 and gets the 4 free.
        u.l15_ctrl(0, L15Op::Demand, 12);
        u.advance(12);
        u.l15_ctrl(1, L15Op::Demand, 8);
        u.advance(100);
        let l15 = u.l15(0).unwrap();
        assert!(l15.reconfig_stalled() && l15.reconfig_pending());
        let actions = l15.reconfig_actions();
        assert_eq!(actions, 16);
        for _ in 0..3 {
            u.advance(1000);
            u.advance(0);
        }
        assert_eq!(u.l15(0).unwrap().reconfig_actions(), actions);
        let rec = u.trace_mut().detach().expect("attached above");
        let stalls: Vec<EventKind> = rec
            .events()
            .map(|e| e.kind)
            .filter(|k| matches!(k, EventKind::SduStall { .. }))
            .collect();
        // One per advance of at least one cycle: the first stalled one and
        // the three that followed.
        assert_eq!(stalls, [EventKind::SduStall { cluster: 0, backlog: 4 }; 4]);
        // A control op clears the mark: lane 0 shrinks, lane 1 is served.
        u.l15_ctrl(0, L15Op::Demand, 8);
        u.advance(100);
        let l15 = u.l15(0).unwrap();
        assert!(!l15.reconfig_stalled() && !l15.reconfig_pending());
        assert_eq!(l15.supply(1).unwrap().count(), 8);
    }

    #[test]
    fn per_cluster_stats_attribute_traffic_to_the_right_cluster() {
        let mut u = uncore();
        // Core 0 (cluster 0) and core 5 (cluster 1, lane 1) each touch
        // their own line; cluster stats must not bleed across.
        u.load(0, 0x1000, 0x1000, 4);
        u.load(5, 0x2000, 0x2000, 4);
        u.load(5, 0x2000, 0x2000, 4);
        let per = u.per_cluster_stats();
        assert_eq!(per.len(), 2);
        assert_eq!(per[0].l1.accesses(), 1);
        assert_eq!(per[1].l1.accesses(), 2);
        assert!(u.cluster_stats(2).is_none(), "out-of-range cluster");
        // The merged view is exactly the sum of the per-cluster views.
        let merged = u.stats();
        assert_eq!(merged.l1.accesses(), per.iter().map(|c| c.l1.accesses()).sum::<u64>());
        assert_eq!(merged.l15.accesses(), per.iter().map(|c| c.l15.accesses()).sum::<u64>());
    }

    #[test]
    fn ctrl_on_l15_less_soc_is_inert() {
        let mut u = Uncore::new(SocConfig::cmp_l1_8core());
        let r = u.l15_ctrl(0, L15Op::Demand, 4);
        assert_eq!(r.value, 0);
        let r = u.l15_ctrl(0, L15Op::Supply, 0);
        assert_eq!(r.value, 0);
    }
}
