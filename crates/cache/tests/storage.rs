//! The storage layer under the caches: `MainMemory`'s page-span copies
//! against the byte-wise definition, and cache hits served through the
//! way a lookup returned against `read_bytes` / `write_bytes`.

use std::collections::BTreeMap;

use l15_cache::geometry::Geometry;
use l15_cache::l15::{L15Cache, L15Config};
use l15_cache::mem::MainMemory;
use l15_cache::sa::{AccessKind, SetAssocCache};
use l15_testkit::prop::{self, Config, G};

const CASES: u32 = 128;
const PAGE: u64 = 4096;

/// Addresses bunched around the first few page boundaries, so most
/// accesses straddle one (and some straddle two).
fn arb_span(g: &mut G) -> (u64, usize) {
    let boundary = g.u64_in(1..4) * PAGE;
    let addr = boundary - g.u64_in(0..200);
    let len = if g.weighted(&[7, 1]) == 0 { g.usize_in(0..400) } else { g.usize_in(4000..9000) };
    (addr, len)
}

#[test]
fn main_memory_matches_the_bytewise_model() {
    prop::run_with(Config::with_cases(CASES), "main_memory_matches_the_bytewise_model", |g| {
        let mut mem = MainMemory::new(100);
        let mut model: BTreeMap<u64, u8> = BTreeMap::new();
        for _ in 0..g.usize_in(1..24) {
            let (addr, len) = arb_span(g);
            if g.bool() {
                // Zeros included: a page that only ever received zeros must
                // stay invisible to `fingerprint` and `nonzero_bytes`.
                let data: Vec<u8> =
                    (0..len).map(|_| if g.bool() { g.any_u8() } else { 0 }).collect();
                mem.write(addr, &data);
                for (i, &b) in data.iter().enumerate() {
                    model.insert(addr + i as u64, b);
                }
            } else {
                let mut buf = vec![0xaau8; len];
                mem.read(addr, &mut buf);
                for (i, &b) in buf.iter().enumerate() {
                    let want = model.get(&(addr + i as u64)).copied().unwrap_or(0);
                    assert_eq!(
                        b,
                        want,
                        "byte {:#x} of a {len}-byte read at {addr:#x}",
                        addr + i as u64
                    );
                }
            }
        }
        let nonzero: Vec<(u64, u8)> =
            model.iter().filter(|&(_, &b)| b != 0).map(|(&a, &b)| (a, b)).collect();
        assert_eq!(mem.nonzero_bytes(), nonzero);

        // The fingerprint is a function of the contents alone: replaying
        // the model byte by byte, in another order, hashes the same.
        let mut replay = MainMemory::new(1);
        for (&a, &b) in model.iter().rev() {
            replay.write(a, &[b]);
        }
        assert_eq!(mem.fingerprint(), replay.fingerprint());
    });
}

#[test]
fn reads_over_unwritten_pages_are_zero_and_allocate_nothing() {
    let mut mem = MainMemory::new(1);
    mem.write(2 * PAGE - 2, &[1, 2, 3, 4]); // pages 1 and 2
    let mut buf = vec![0xffu8; 3 * PAGE as usize];
    mem.read(PAGE / 2, &mut buf); // pages 0 (unwritten) .. 3 (unwritten)
    let at = |a: u64| buf[(a - PAGE / 2) as usize];
    assert_eq!([at(2 * PAGE - 2), at(2 * PAGE - 1), at(2 * PAGE), at(2 * PAGE + 1)], [1, 2, 3, 4]);
    assert_eq!(buf.iter().filter(|&&b| b != 0).count(), 4);
    assert_eq!(mem.allocated_pages(), 2);
}

#[derive(Debug, Clone)]
enum Op {
    Read { addr: u64, len: usize },
    Write { addr: u64, len: usize, value: u8 },
    Evict { addr: u64 },
}

fn arb_op(g: &mut G) -> Op {
    let addr = g.u64_in(0..512);
    let len = g.usize_in(1..=4);
    match g.weighted(&[3, 3, 1]) {
        0 => Op::Read { addr, len },
        1 => Op::Write { addr, len, value: g.any_u8() },
        _ => Op::Evict { addr },
    }
}

/// Two identical caches run the same stream: `by_probe` serves every hit
/// with `read_bytes` / `write_bytes` (which probe again), `by_way` with
/// the way `access` returned. Values, outcomes, dirty victims and final
/// contents must agree.
#[test]
fn set_assoc_hits_through_the_returned_way_match_read_and_write_bytes() {
    prop::run_with(Config::with_cases(CASES), "set_assoc_hits_through_the_returned_way", |g| {
        let geo = Geometry::new(8, 4, 2).unwrap();
        let mut by_probe = SetAssocCache::new(geo, 1, 2);
        let mut by_way = by_probe.clone();
        for op in g.vec_of(1..200, arb_op) {
            match op {
                Op::Read { addr, len } | Op::Write { addr, len, .. }
                    if geo.offset_of(addr) as usize + len > 8 =>
                {
                    // Crossing the line end: the wrappers refuse.
                    let mut buf = [0u8; 4];
                    assert!(!by_way.read_bytes(addr, &mut buf[..len]));
                    assert!(!by_way.write_bytes(addr, &buf[..len]));
                }
                Op::Read { addr, len } => {
                    let (a, b) = (
                        by_probe.access(addr, AccessKind::Read),
                        by_way.access(addr, AccessKind::Read),
                    );
                    assert_eq!(a, b);
                    let Some(way) = b.way else { continue };
                    assert_eq!(by_way.probe(addr), Some(way));
                    let mut want = [0u8; 4];
                    assert!(by_probe.read_bytes(addr, &mut want[..len]));
                    let off = geo.offset_of(addr) as usize;
                    assert_eq!(&by_way.line(addr, way)[off..off + len], &want[..len]);
                }
                Op::Write { addr, len, value } => {
                    let (a, b) = (
                        by_probe.access(addr, AccessKind::Write),
                        by_way.access(addr, AccessKind::Write),
                    );
                    assert_eq!(a, b);
                    let Some(way) = b.way else {
                        // Write-allocate, as the uncore does on a miss.
                        let base = geo.line_base(addr);
                        let line = [value; 8];
                        assert_eq!(
                            by_probe.fill(base, &line, None),
                            by_way.fill(base, &line, None)
                        );
                        continue;
                    };
                    let data = [value; 4];
                    assert!(by_probe.write_bytes(addr, &data[..len]));
                    let off = geo.offset_of(addr) as usize;
                    by_way.line_mut(addr, way)[off..off + len].copy_from_slice(&data[..len]);
                }
                Op::Evict { addr } => {
                    assert_eq!(by_probe.invalidate(addr), by_way.invalidate(addr));
                }
            }
        }
        assert_eq!(by_probe.stats(), by_way.stats());
        assert_eq!(by_probe.flush(), by_way.flush(), "same dirty lines, same bytes");
    });
}

/// The L1.5 serves a hit from the way its one lookup found: what `write`
/// put there is what `read` returns, through the same way, and what a
/// flush hands down.
#[test]
fn l15_reads_and_writes_go_through_the_way_the_lookup_returned() {
    prop::run_with(Config::with_cases(CASES), "l15_reads_and_writes_go_through_the_way", |g| {
        let mut c = L15Cache::new(L15Config {
            line_bytes: 64,
            way_bytes: 256,
            ways: 8,
            cores: 2,
            lat_min: 2,
            lat_max: 8,
        })
        .unwrap();
        c.demand(0, g.usize_in(1..=4)).unwrap();
        c.settle();
        // Every resident line is dirty (each is written right after its
        // fill), so every eviction hands the victim back and the model can
        // drop it.
        let mut model: BTreeMap<u64, u8> = BTreeMap::new();
        for _ in 0..g.usize_in(1..64) {
            let addr = g.u64_in(0..2048) & !3;
            let base = addr & !63;
            let mut line = [0u8; 64];
            if !c.read(0, base, base, &mut line).unwrap().hit {
                let fresh = g.any_u8();
                let (way, victim) = c.fill(0, base, base, &[fresh; 64], false).unwrap();
                assert!(way.is_some(), "core 0 owns ways");
                if let Some(v) = victim {
                    for (i, &b) in v.data.iter().enumerate() {
                        assert_eq!(Some(b), model.remove(&(v.addr + i as u64)), "victim byte {i}");
                    }
                }
                model.extend((base..base + 64).map(|a| (a, fresh)));
            }
            let value = g.any_u8();
            let w = c.write(0, addr, addr, &[value; 4]).unwrap();
            assert!(w.hit, "resident line accepts the write");
            model.extend((addr..addr + 4).map(|a| (a, value)));
            let r = c.read(0, base, base, &mut line).unwrap();
            assert_eq!(r.way, w.way, "read and write found the line in the same way");
            for (i, &b) in line.iter().enumerate() {
                assert_eq!(b, model[&(base + i as u64)], "byte {i} of line {base:#x}");
            }
        }
        for v in c.flush_dirty() {
            for (i, &b) in v.data.iter().enumerate() {
                assert_eq!(b, model[&(v.addr + i as u64)]);
            }
        }
    });
}
