//! Generic set-associative, write-back, write-allocate cache with tree-PLRU
//! replacement — the model for the private L1 I/D caches and the shared L2.
//!
//! The cache stores real line contents so the full-stack simulation
//! (`l15-rvcore` / `l15-soc`) executes actual programs through it. Latency is
//! reported per access from a configured `[min, max]` band (the paper quotes
//! 1–2 cycles for L1 and 15–25 for L2): a hit in the first probed way costs
//! the minimum and the cost grows linearly with the probe depth, which is how
//! the banded latencies of the paper's FPGA prototype arise.

use crate::geometry::{Geometry, WayMask};
use crate::plru::TreePlru;
use crate::stats::CacheStats;

/// Whether an access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load (or instruction fetch).
    Read,
    /// A store.
    Write,
}

/// A dirty line evicted by a fill; must be written back to the next level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictedLine {
    /// Base address of the evicted line.
    pub addr: u64,
    /// The line's contents.
    pub data: Vec<u8>,
}

/// Latency of a probe that resolves at depth `d` of a `[lat_min, lat_max]`
/// banded, `ways`-associative lookup: the first probed way costs the
/// minimum, deeper ways grow linearly towards (but, by integer division,
/// never quite reach) the maximum. Exposed so static analyses can reproduce
/// the exact latency model without instantiating a cache.
pub fn probe_latency_at(lat_min: u32, lat_max: u32, ways: usize, d: usize) -> u32 {
    let span = lat_max - lat_min;
    let w = ways.max(1) as u32;
    lat_min + span * (d as u32).min(w - 1) / w
}

/// Worst-case latency of any probe — hit in the deepest way or a full miss
/// scan both cost `probe_latency_at(.., ways - 1)`. This is the sound
/// per-probe upper bound a static timing analysis may charge.
pub fn worst_probe_latency(lat_min: u32, lat_max: u32, ways: usize) -> u32 {
    probe_latency_at(lat_min, lat_max, ways, ways.max(1) - 1)
}

/// Result of [`SetAssocCache::access`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was present.
    pub hit: bool,
    /// Cycles spent probing this level.
    pub latency: u32,
    /// The way that hit (if any).
    pub way: Option<usize>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Meta {
    tag: u64,
    valid: bool,
    dirty: bool,
}

/// A set-associative, write-back, write-allocate cache.
///
/// Tags and state sit in one array and the line contents in one contiguous
/// slab; line `(set, way)` is slot `set * ways + way` of both. The
/// crate-internal entry points take the index and the tag address apart
/// and a mask of the ways they may use — the [`L15Cache`](crate::l15) is
/// this array behind its VIPT addressing and mask logic.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geo: Geometry,
    meta: Vec<Meta>,
    data: Vec<u8>,
    plru: Vec<TreePlru>,
    /// [`probe_latency_at`] for every way depth, so a probe divides nothing.
    latency: Vec<u32>,
    stats: CacheStats,
}

/// Lookups and fills without an explicit mask may use every way.
pub(crate) const ALL_WAYS: WayMask = WayMask(u64::MAX);

impl SetAssocCache {
    /// Creates an empty cache with the given geometry and latency band.
    ///
    /// # Panics
    ///
    /// Panics if `lat_min > lat_max`.
    pub fn new(geo: Geometry, lat_min: u32, lat_max: u32) -> Self {
        assert!(lat_min <= lat_max, "latency band must be ordered");
        let (sets, ways) = (geo.sets() as usize, geo.ways());
        SetAssocCache {
            geo,
            meta: vec![Meta::default(); sets * ways],
            data: vec![0; sets * ways * geo.line_bytes() as usize],
            plru: vec![TreePlru::new(ways); sets],
            latency: (0..ways).map(|d| probe_latency_at(lat_min, lat_max, ways, d)).collect(),
            stats: CacheStats::default(),
        }
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geo
    }

    /// Accumulated hit/miss statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn set_of(&self, addr: u64) -> usize {
        self.geo.index_of(addr) as usize
    }

    #[inline]
    fn slot(&self, set: usize, way: usize) -> usize {
        assert!(way < self.geo.ways(), "way {way} out of range");
        set * self.geo.ways() + way
    }

    /// The lowest way of `set` in `allowed` whose line satisfies `pred`.
    #[inline]
    fn way_where(
        &self,
        set: usize,
        allowed: WayMask,
        pred: impl Fn(&Meta) -> bool,
    ) -> Option<usize> {
        let ways = self.geo.ways();
        self.meta[set * ways..(set + 1) * ways]
            .iter()
            .enumerate()
            .position(|(w, m)| pred(m) && allowed.contains(w))
    }

    /// The hit checkers (XNOR on tag, AND with valid) behind a way mask.
    #[inline]
    pub(crate) fn find(&self, index_addr: u64, tag_addr: u64, allowed: WayMask) -> Option<usize> {
        let tag = self.geo.tag_of(tag_addr);
        self.way_where(self.set_of(index_addr), allowed, |m| m.valid && m.tag == tag)
    }

    /// The replacement touch of a hit in `way` of `index_addr`'s set, alone.
    #[inline]
    pub(crate) fn touch(&mut self, index_addr: u64, way: usize) {
        let set = self.set_of(index_addr);
        self.plru[set].touch(way);
    }

    /// Probes for `addr` without touching replacement state or statistics.
    pub fn probe(&self, addr: u64) -> Option<usize> {
        self.find(addr, addr, ALL_WAYS)
    }

    /// Performs a read or write probe for `addr`, updating PLRU and stats.
    ///
    /// On a hit the outcome carries the way, which [`line`](Self::line) /
    /// [`line_mut`](Self::line_mut) turn into the line's bytes without a
    /// second probe; a write hit marks the line dirty (write-back). On a
    /// miss the caller is expected to consult the next level and then
    /// [`fill`] the line (write-allocate).
    ///
    /// [`fill`]: Self::fill
    #[inline]
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> AccessOutcome {
        self.lookup(addr, addr, ALL_WAYS, kind)
    }

    /// Counts `n` read hits the caller resolved without a probe: repeats of
    /// the most recent [`access`](Self::access) to their sets change nothing
    /// else, because tree-PLRU `touch` is idempotent.
    #[inline]
    pub fn record_hits(&mut self, n: u64) {
        self.stats.record_hits(n);
    }

    /// [`access`](Self::access) if it hits — `(way, latency)` — else nothing
    /// at all, not even a counted miss.
    #[inline]
    pub fn access_if_hit(&mut self, addr: u64, kind: AccessKind) -> Option<(usize, u32)> {
        let way = self.find(addr, addr, ALL_WAYS)?;
        self.hit(self.set_of(addr), way, kind);
        Some((way, self.latency[way]))
    }

    /// A hit in `way` of `set`: touch, dirty on a write, count.
    #[inline]
    fn hit(&mut self, set: usize, way: usize, kind: AccessKind) {
        self.plru[set].touch(way);
        if kind == AccessKind::Write {
            let slot = self.slot(set, way);
            self.meta[slot].dirty = true;
        }
        self.stats.record_hit();
    }

    /// [`access`](Self::access) with the set taken from `index_addr`, the
    /// tag from `tag_addr`, and only the ways in `allowed` checked.
    #[inline]
    pub(crate) fn lookup(
        &mut self,
        index_addr: u64,
        tag_addr: u64,
        allowed: WayMask,
        kind: AccessKind,
    ) -> AccessOutcome {
        let way = self.find(index_addr, tag_addr, allowed);
        let depth = match way {
            Some(way) => {
                self.hit(self.set_of(index_addr), way, kind);
                way
            }
            None => {
                self.stats.record_miss();
                self.geo.ways() - 1
            }
        };
        AccessOutcome { hit: way.is_some(), latency: self.latency[depth], way }
    }

    /// The bytes of the line in `way` of `addr`'s set — the line holding
    /// `addr` when `way` came from [`access`](Self::access) or
    /// [`probe`](Self::probe).
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range.
    #[inline]
    pub fn line(&self, addr: u64, way: usize) -> &[u8] {
        let n = self.geo.line_bytes() as usize;
        &self.data[self.slot(self.set_of(addr), way) * n..][..n]
    }

    /// Mutable [`line`](Self::line); the line is marked dirty.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range.
    #[inline]
    pub fn line_mut(&mut self, addr: u64, way: usize) -> &mut [u8] {
        let slot = self.slot(self.set_of(addr), way);
        self.meta[slot].dirty = true;
        let n = self.geo.line_bytes() as usize;
        &mut self.data[slot * n..][..n]
    }

    /// The span `len` bytes from `addr` cover within their line, unless
    /// they cross its end.
    pub(crate) fn span(&self, addr: u64, len: usize) -> Option<std::ops::Range<usize>> {
        let off = self.geo.offset_of(addr) as usize;
        (off + len <= self.geo.line_bytes() as usize).then_some(off..off + len)
    }

    /// Reads `buf.len()` bytes starting at `addr` from a resident line.
    ///
    /// Returns `false` (leaving `buf` untouched) when the line is absent or
    /// the range crosses the line boundary.
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) -> bool {
        let (Some(way), Some(span)) = (self.probe(addr), self.span(addr, buf.len())) else {
            return false;
        };
        buf.copy_from_slice(&self.line(addr, way)[span]);
        true
    }

    /// Writes `data` into a resident line, marking it dirty.
    ///
    /// Returns `false` when the line is absent or the range crosses the line
    /// boundary.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) -> bool {
        let (Some(way), Some(span)) = (self.probe(addr), self.span(addr, data.len())) else {
            return false;
        };
        self.line_mut(addr, way)[span].copy_from_slice(data);
        true
    }

    /// Installs the line containing `addr` with `data` (one full line),
    /// evicting the PLRU victim. `allowed` optionally restricts the victim
    /// ways (`None` = all ways).
    ///
    /// Returns a dirty evicted line, if any, which the caller must write
    /// back. Returns `None` for both "clean eviction" and "no eviction".
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the line size.
    pub fn fill(
        &mut self,
        addr: u64,
        data: &[u8],
        allowed: Option<WayMask>,
    ) -> Option<EvictedLine> {
        self.install(addr, addr, data, ALL_WAYS, allowed.unwrap_or(ALL_WAYS), false)?.1
    }

    /// [`fill`](Self::fill) with the index and tag addresses apart: a copy
    /// resident in `resident_in` is refreshed in place (and dirtied if
    /// `dirty`), else the line goes to the lowest invalid way of
    /// `victim_in` or its PLRU victim. Returns the way used and the dirty
    /// line it displaced, or `None` when `victim_in` offers no way.
    pub(crate) fn install(
        &mut self,
        index_addr: u64,
        tag_addr: u64,
        data: &[u8],
        resident_in: WayMask,
        victim_in: WayMask,
        dirty: bool,
    ) -> Option<(usize, Option<EvictedLine>)> {
        let n = self.geo.line_bytes() as usize;
        assert_eq!(data.len(), n, "fill requires exactly one line of data");
        let set = self.set_of(index_addr);
        let resident = self.find(index_addr, tag_addr, resident_in);
        let way = resident
            .or_else(|| self.way_where(set, victim_in, |m| !m.valid))
            .or_else(|| self.plru[set].victim_in(victim_in))?;
        let slot = self.slot(set, way);
        let mut evicted = None;
        if resident.is_none() {
            evicted = self.take_dirty(set, way);
            self.meta[slot] = Meta { tag: self.geo.tag_of(tag_addr), valid: true, dirty: false };
            self.stats.record_fill();
        }
        self.meta[slot].dirty |= dirty;
        self.data[slot * n..][..n].copy_from_slice(data);
        self.plru[set].touch(way);
        Some((way, evicted))
    }

    /// The contents of `(set, way)` if it holds a dirty line, which is
    /// left valid and clean.
    fn take_dirty(&mut self, set: usize, way: usize) -> Option<EvictedLine> {
        let slot = self.slot(set, way);
        let m = &mut self.meta[slot];
        if !(m.valid && m.dirty) {
            return None;
        }
        m.dirty = false;
        let addr = self.geo.addr_of(m.tag, set as u64);
        let n = self.geo.line_bytes() as usize;
        Some(EvictedLine { addr, data: self.data[slot * n..][..n].to_vec() })
    }

    /// Invalidates the line containing `addr`, returning it if it was dirty.
    pub fn invalidate(&mut self, addr: u64) -> Option<EvictedLine> {
        self.invalidate_all(addr, addr)
    }

    /// Invalidates every copy of the line indexed by `index_addr` and
    /// tagged by `tag_addr` (a masked array can hold several), returning
    /// the first dirty one's contents.
    pub(crate) fn invalidate_all(&mut self, index_addr: u64, tag_addr: u64) -> Option<EvictedLine> {
        let set = self.set_of(index_addr);
        let mut dropped = None;
        while let Some(way) = self.find(index_addr, tag_addr, ALL_WAYS) {
            let contents = self.take_dirty(set, way);
            dropped = dropped.or(contents);
            let slot = self.slot(set, way);
            self.meta[slot].valid = false;
        }
        dropped
    }

    /// Invalidates the whole cache, returning all dirty lines for write-back.
    pub fn flush(&mut self) -> Vec<EvictedLine> {
        self.sweep(ALL_WAYS, true)
    }

    /// Hands back every dirty line in `ways`, set by set, leaving the lines
    /// clean — and invalid if `invalidate`.
    pub(crate) fn sweep(&mut self, ways: WayMask, invalidate: bool) -> Vec<EvictedLine> {
        let ways = ways.intersect(WayMask::first_n(self.geo.ways()));
        let mut dirty = Vec::new();
        for set in 0..self.geo.sets() as usize {
            for way in ways.iter() {
                dirty.extend(self.take_dirty(set, way));
                let slot = self.slot(set, way);
                self.meta[slot].valid &= !invalidate;
            }
        }
        dirty
    }

    /// Number of currently valid lines (occupancy).
    pub fn valid_lines(&self) -> usize {
        self.meta.iter().filter(|m| m.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> SetAssocCache {
        // 2 sets x 2 ways x 8-byte lines = 32 bytes.
        SetAssocCache::new(Geometry::new(8, 2, 2).unwrap(), 1, 2)
    }

    fn line(v: u8) -> Vec<u8> {
        vec![v; 8]
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small_cache();
        assert!(!c.access(0x100, AccessKind::Read).hit);
        assert!(c.fill(0x100, &line(7), None).is_none());
        let out = c.access(0x100, AccessKind::Read);
        assert!(out.hit);
        let mut buf = [0u8; 4];
        assert!(c.read_bytes(0x100, &mut buf));
        assert_eq!(buf, [7, 7, 7, 7]);
    }

    #[test]
    fn write_marks_dirty_and_evicts_dirty_line() {
        let mut c = small_cache();
        // Set 0 holds addresses with (addr/8) % 2 == 0: 0x00, 0x10, 0x20...
        c.fill(0x00, &line(1), None);
        c.access(0x00, AccessKind::Write);
        c.write_bytes(0x00, &[9, 9]);
        c.fill(0x10, &line(2), None);
        // Third distinct line in set 0 forces an eviction; victim should be
        // the PLRU (0x00 was touched more recently by the write... fill 0x10
        // touched after). Evicting 0x00 must return its dirty data.
        let ev = c.fill(0x20, &line(3), None);
        let ev = ev.expect("a dirty line must be written back");
        assert_eq!(ev.addr, 0x00);
        assert_eq!(&ev.data[..2], &[9, 9]);
    }

    #[test]
    fn clean_eviction_returns_none() {
        let mut c = small_cache();
        c.fill(0x00, &line(1), None);
        c.fill(0x10, &line(2), None);
        assert!(c.fill(0x20, &line(3), None).is_none());
    }

    #[test]
    fn refill_existing_line_updates_data() {
        let mut c = small_cache();
        c.fill(0x00, &line(1), None);
        c.fill(0x00, &line(5), None);
        let mut b = [0u8; 1];
        c.read_bytes(0x00, &mut b);
        assert_eq!(b[0], 5);
        assert_eq!(c.valid_lines(), 1);
    }

    #[test]
    fn masked_fill_only_uses_allowed_ways() {
        let mut c = small_cache();
        let only_way1 = WayMask::single(1);
        c.fill(0x00, &line(1), Some(only_way1));
        c.fill(0x10, &line(2), Some(only_way1));
        // Both went to way 1 of set 0, so only one can remain.
        assert_eq!(c.valid_lines(), 1);
        assert!(c.probe(0x10).is_some());
        assert!(c.probe(0x00).is_none());
    }

    #[test]
    fn fill_with_empty_mask_is_noop() {
        let mut c = small_cache();
        assert!(c.fill(0x00, &line(1), Some(WayMask::EMPTY)).is_none());
        assert_eq!(c.valid_lines(), 0);
    }

    #[test]
    fn invalidate_returns_dirty_data() {
        let mut c = small_cache();
        c.fill(0x00, &line(1), None);
        assert!(c.invalidate(0x00).is_none()); // clean
        c.fill(0x00, &line(1), None);
        c.write_bytes(0x00, &[4]);
        let ev = c.invalidate(0x00).unwrap();
        assert_eq!(ev.addr, 0x00);
        assert_eq!(ev.data[0], 4);
        assert!(c.probe(0x00).is_none());
    }

    #[test]
    fn flush_collects_all_dirty_lines() {
        let mut c = small_cache();
        c.fill(0x00, &line(1), None);
        c.fill(0x08, &line(2), None);
        c.write_bytes(0x00, &[9]);
        c.write_bytes(0x08, &[8]);
        let dirty = c.flush();
        assert_eq!(dirty.len(), 2);
        assert_eq!(c.valid_lines(), 0);
    }

    #[test]
    fn latency_band_is_respected() {
        let mut c = SetAssocCache::new(Geometry::new(64, 32, 4).unwrap(), 15, 25);
        let out = c.access(0x0, AccessKind::Read);
        assert!(out.latency >= 15 && out.latency <= 25);
        c.fill(0x0, &[0; 64], None);
        let out = c.access(0x0, AccessKind::Read);
        assert!(out.latency >= 15 && out.latency <= 25);
    }

    #[test]
    fn stats_count_hits_misses_fills() {
        let mut c = small_cache();
        c.access(0x0, AccessKind::Read);
        c.fill(0x0, &line(0), None);
        c.access(0x0, AccessKind::Read);
        assert_eq!(c.stats().hits(), 1);
        assert_eq!(c.stats().misses(), 1);
        assert_eq!(c.stats().fills(), 1);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cross_line_byte_ops_are_rejected() {
        let mut c = small_cache();
        c.fill(0x00, &line(1), None);
        let mut buf = [0u8; 4];
        assert!(!c.read_bytes(0x06, &mut buf)); // crosses 8-byte boundary
        assert!(!c.write_bytes(0x06, &[1, 2, 3, 4]));
    }
}
