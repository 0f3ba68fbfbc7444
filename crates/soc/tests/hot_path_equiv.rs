//! The shortcuts on the per-instruction path, checked against the
//! definitions they replace (replay a failure with the printed
//! `L15_PROP_SEED`):
//!
//! * `Uncore::fetch` behind its per-set windows and predecoded lines must be
//!   indistinguishable from probing the L1I and decoding the word on every
//!   fetch — checked against a shadow `SetAssocCache` the test drives;
//! * `Soc::laggard` scans cached keys — it must return the first core of
//!   the range with the smallest clock among those not halted, whatever was
//!   done to the cores through `core_mut` in between;
//! * `Soc::global_cycle` is a running maximum — it must equal
//!   `max_i clock(i)` after any mix of `step_core` and `advance_clock`;
//! * `Uncore::advance` returns at once unless a Walloc may be pending — an
//!   uncore whose every `advance` is forced to scan all clusters must be
//!   indistinguishable from one left to its flag, and an `advance` of at
//!   least one cycle must perform a Walloc action wherever one was owed
//!   (the flag is never spuriously down);
//! * `Soc::run_ahead` executes early and `next_real` / `step_core` account
//!   late — a SoC driven *account → step → run ahead* must show, at every
//!   executed step, the clocks of one stepped an instruction at a time, and
//!   end in the same registers, counters, masks and memory, also when it
//!   ran ahead while a Walloc was stalled, posted routed stores, or ran a
//!   lane whose demand a reclaim cancelled;
//! * `Core::run_private` does exactly what as many `Core::step`s do once
//!   its posted stores are accounted, and the instruction it refuses leaves
//!   no trace;
//! * a caller that breaks the posted-write contract gets a panic, not a
//!   silently different run.

use l15_cache::geometry::{Geometry, WayMask};
use std::sync::atomic::{AtomicU64, Ordering};

use l15_cache::l15::{InclusionPolicy, L15Config, L15ConfigState};
use l15_cache::sa::{AccessKind, SetAssocCache};
use l15_rvcore::asm::Assembler;
use l15_rvcore::bus::SystemBus;
use l15_rvcore::core::{Core, POSTED};
use l15_rvcore::csr::{addr as csr, PrivLevel};
use l15_rvcore::isa::{self, L15Op};
use l15_rvcore::mmu::Segment;
use l15_soc::{Soc, SocConfig, Uncore};
use l15_testkit::prop::{self, Config, G};
use l15_trace::{FlightRecorder, TraceEvent};

/// A loop with loads, stores and a taken branch, so steps differ in cost.
fn busy_loop() -> Vec<u32> {
    let mut a = Assembler::new();
    a.li(5, 0x8000);
    a.li(6, 1 << 20);
    a.label("spin");
    a.lw(7, 5, 0);
    a.addi(7, 7, 1);
    a.sw(5, 7, 0);
    a.addi(5, 5, 64);
    a.addi(6, 6, -1);
    a.bne(6, 0, "spin");
    a.ebreak();
    a.finish().expect("loop assembles")
}

#[test]
fn global_cycle_is_the_maximum_core_clock() {
    let program = busy_loop();
    prop::run_with(Config::with_cases(24), "global_cycle_is_the_maximum_core_clock", |g| {
        let mut soc = Soc::new(arb_preset(g), 0x100);
        soc.uncore_mut().load_program(0x100, &program);
        let n = soc.n_cores();
        for _ in 0..g.usize_in(1..400) {
            let core = g.usize_in(0..n);
            if g.weighted(&[3, 1]) == 0 {
                soc.step_core(core);
            } else {
                // Ahead of, at, or behind the core's clock (a no-op then).
                let target = (soc.clock(core) + g.u64_in(0..200)).saturating_sub(50);
                soc.advance_clock(core, target);
            }
            let max = (0..n).map(|i| soc.clock(i)).max().expect("at least one core");
            assert_eq!(soc.global_cycle(), max);
        }
    });
}

/// Either preset the benchmark's engine workloads run on.
fn arb_preset(g: &mut G) -> SocConfig {
    if g.bool() {
        SocConfig::proposed_8core()
    } else {
        SocConfig::proposed_32core()
    }
}

#[test]
fn windowed_fetch_equals_a_probed_l1i() {
    const CODE: u64 = 0x4_0000;
    let program = busy_loop();
    prop::run_with(Config::with_cases(48), "windowed_fetch_equals_a_probed_l1i", |g| {
        // On the presets every L1I way hits in one cycle (a 1..2 band over
        // two ways); a deeper band makes the way a hit came from visible.
        let mut cfg = arb_preset(g);
        cfg.l1i.ways = *g.pick(&[2, 4]);
        cfg.l1i.lat_max = g.u32_in(2..=9);
        let l1i = cfg.l1i;
        let geo = Geometry::from_capacity(l1i.capacity, l1i.line_bytes, l1i.ways).expect("preset");
        let mut shadow = SetAssocCache::new(geo, l1i.lat_min, l1i.lat_max);
        let core = g.usize_in(0..cfg.total_cores());
        let cluster = core / cfg.cores_per_cluster;
        let mut u = Uncore::new(cfg);

        // Two more lines than ways in each of two L1I sets: windows get
        // replaced, lines evicted and filled again. Words are real
        // instructions or noise (mostly undecodable).
        let way_span = geo.sets() * geo.line_bytes();
        let lines: Vec<u64> = (0..2)
            .flat_map(|set| (0..geo.ways() as u64 + 2).map(move |k| (set, k)))
            .map(|(set, k)| CODE + set * geo.line_bytes() + k * way_span)
            .collect();
        for &base in &lines {
            for word in 0..geo.line_bytes() / 4 {
                let value = if g.bool() { *g.pick(&program) } else { g.any_u32() };
                u.host_write((base + word * 4) as u32, &value.to_le_bytes());
            }
        }

        let mut line = vec![0u8; geo.line_bytes() as usize];
        let (mut fetches, mut hits) = (0u64, 0u64);
        for step in 0..g.usize_in(1..600) {
            if g.weighted(&[60, 1]) == 1 {
                u.flush_all();
                shadow.flush();
                continue;
            }
            // Mostly word-aligned; `+ 2` is a PC a `jalr` can produce.
            let off = g.u64_in(0..geo.line_bytes() / 4) * 4 + 2 * g.weighted(&[15, 1]) as u64;
            let base = *g.pick(&lines);
            let got = u.fetch(core, (base + off) as u32, (base + off) as u32);
            fetches += 1;

            let want = shadow.access(base + off, AccessKind::Read);
            u.host_read(base as u32, &mut line);
            if want.hit {
                hits += 1;
                assert_eq!(got.cycles, want.latency, "step {step}: hit latency at {off:#x}");
            } else {
                assert!(got.cycles > want.latency, "step {step}: a miss goes below the L1I");
                shadow.fill(base, &line, None);
            }
            // A fetch running over the line's end reads zero, as before.
            let word = line
                .get(off as usize..off as usize + 4)
                .map_or(0, |b| u32::from_le_bytes(b.try_into().expect("four bytes")));
            assert_eq!(got.word, word, "step {step}: word at {off:#x}");
            assert_eq!(got.instr, isa::decode(word).ok(), "step {step}: decode of {word:#010x}");
            // Only this core ran, and it only fetched: the cluster's L1
            // counters are its L1I's.
            assert_eq!(u.cluster_stats(cluster).expect("in range").l1, *shadow.stats());
            let counted = u.trace().counters().fetches;
            assert_eq!((counted[0], counted.iter().sum::<u64>()), (hits, fetches), "step {step}");
        }
    });
}

#[test]
fn laggard_is_the_first_runnable_core_with_the_smallest_clock() {
    let program = busy_loop();
    let ebreak = 0x100 + 4 * (program.len() as u32 - 1);
    prop::run_with(Config::with_cases(24), "laggard_is_the_first_runnable_core", |g| {
        let mut soc = Soc::new(arb_preset(g), 0x100);
        soc.uncore_mut().load_program(0x100, &program);
        let n = soc.n_cores();
        for _ in 0..g.usize_in(1..400) {
            let core = g.usize_in(0..n);
            match g.weighted(&[8, 2, 1, 1, 1, 1]) {
                // Also steps halted cores, and cores about to halt.
                0 => drop(soc.step_core(core)),
                1 => {
                    soc.advance_clock(core, (soc.clock(core) + g.u64_in(0..200)).saturating_sub(50))
                }
                2 => soc.core_mut(core).halt(),
                3 => soc.core_mut(core).resume(),
                4 => soc.core_mut(core).set_pc(0x100),
                _ => soc.core_mut(core).set_pc(ebreak),
            }
            let lo = g.usize_in(0..n);
            let range = lo..g.usize_in(lo..=n);
            let first_min =
                range.clone().filter(|&i| !soc.core(i).is_halted()).min_by_key(|&i| soc.clock(i));
            assert_eq!(soc.laggard(range.clone()), first_min, "over {range:?}");
        }
    });
}

/// `RawDemand` and `RawTransfer` go behind the uncore's back, through
/// `l15_mut(cluster)`; everything else is an `Uncore` call.
#[derive(Debug, Clone)]
enum Op {
    Ctrl { core: usize, op: L15Op, arg: u32 },
    Revoke { cluster: usize, way: usize },
    Snapshot { cluster: usize },
    Restore { cluster: usize },
    RawDemand { cluster: usize, lane: usize, n: usize },
    RawTransfer { cluster: usize, lane: usize, way: usize },
    Store { core: usize, slot: u32, value: u32 },
    Load { core: usize, slot: u32 },
    Advance { cycles: u32 },
}

fn arb_op(g: &mut G) -> Op {
    let core = g.usize_in(0..8);
    let (cluster, lane) = (core / 4, core % 4);
    match g.weighted(&[6, 2, 1, 1, 2, 2, 4, 4, 8]) {
        0 => {
            let (op, arg) = match g.weighted(&[4, 1, 2, 1, 2]) {
                // Up to 20 of 16 ways: over-demands are dropped, and sums
                // over 16 leave a Walloc stalled with the flag up.
                0 => (L15Op::Demand, g.u32_in(0..=20)),
                1 => (L15Op::Supply, 0),
                2 => (L15Op::GvSet, g.any_u16() as u32),
                3 => (L15Op::GvGet, 0),
                _ => (L15Op::IpSet, g.u32_in(0..=1)),
            };
            Op::Ctrl { core, op, arg }
        }
        1 => Op::Revoke { cluster, way: g.usize_in(0..18) },
        2 => Op::Snapshot { cluster },
        3 => Op::Restore { cluster },
        4 => Op::RawDemand { cluster, lane, n: g.usize_in(0..=8) },
        5 => Op::RawTransfer { cluster, lane, way: g.usize_in(0..16) },
        // One writer per line (the platform's L1s are not coherent): the
        // line's owner is fixed by its address.
        6 => {
            let slot = g.u32_in(0..512);
            Op::Store { core: (slot as usize / 16) % 8, slot, value: g.any_u32() }
        }
        7 => {
            let slot = g.u32_in(0..512);
            Op::Load { core: (slot as usize / 16) % 8, slot }
        }
        _ => Op::Advance { cycles: g.u32_in(0..=12) },
    }
}

const DATA: u32 = 0x0010_0000;

fn apply(u: &mut Uncore, saved: &mut [Option<L15ConfigState>; 2], op: &Op) -> u32 {
    match *op {
        Op::Ctrl { core, op, arg } => u.l15_ctrl(core, op, arg).value,
        Op::Revoke { cluster, way } => u.kernel_revoke_way(cluster, way).is_ok() as u32,
        Op::Snapshot { cluster } => {
            saved[cluster] = Some(u.l15(cluster).expect("proposed preset").snapshot());
            0
        }
        Op::Restore { cluster } => match &saved[cluster] {
            Some(state) => u.kernel_restore_l15(cluster, state).is_ok() as u32,
            None => 0,
        },
        Op::RawDemand { cluster, lane, n } => {
            u.l15_mut(cluster).expect("proposed preset").demand(lane, n).is_ok() as u32
        }
        Op::RawTransfer { cluster, lane, way } => {
            u.l15_mut(cluster).expect("proposed preset").transfer_way(way, lane).is_ok() as u32
        }
        Op::Store { core, slot, value } => {
            u.store(core, DATA + slot * 4, DATA + slot * 4, 4, value)
        }
        Op::Load { core, slot } => u.load(core, DATA + slot * 4, DATA + slot * 4, 4).value,
        Op::Advance { cycles } => {
            u.advance(cycles);
            0
        }
    }
}

fn masks(u: &Uncore) -> Vec<(WayMask, WayMask)> {
    (0..8)
        .map(|core| {
            let l15 = u.l15(core / 4).expect("proposed preset");
            (l15.supply(core % 4).expect("lane"), l15.gv_get(core % 4).expect("lane"))
        })
        .collect()
}

fn recording(u: &mut Uncore) -> Vec<TraceEvent> {
    u.trace_mut().detach().expect("the recorder attached below").to_vec()
}

#[test]
fn advance_behind_the_pending_flag_equals_a_forced_scan() {
    prop::run_with(Config::with_cases(48), "advance_behind_the_pending_flag", |g| {
        let ops = g.vec_of(1..160, arb_op);
        let mut flagged = Uncore::new(SocConfig::proposed_8core());
        flagged.trace_mut().attach(FlightRecorder::new(1 << 16));
        let mut scanned = flagged.clone();
        let (mut saved_f, mut saved_s) = ([None, None], [None, None]);
        for (step, op) in ops.iter().enumerate() {
            // Clusters whose Walloc can act on its next tick, with the
            // action count before this step.
            let owed: Vec<Option<u64>> = (0..2)
                .map(|c| {
                    let mut l15 = flagged.l15(c).expect("proposed preset").clone();
                    l15.tick().0.map(|_| l15.reconfig_actions() - 1)
                })
                .collect();
            if matches!(op, Op::Advance { .. }) {
                // Touching `l15_mut` raises the flag: this `advance` scans.
                let _ = scanned.l15_mut(0);
            }
            let (f, s) =
                (apply(&mut flagged, &mut saved_f, op), apply(&mut scanned, &mut saved_s, op));
            assert_eq!(f, s, "step {step}: result of {op:?}");
            assert_eq!(masks(&flagged), masks(&scanned), "step {step}: masks after {op:?}");
            assert_eq!(flagged.trace().counters(), scanned.trace().counters(), "step {step}");
            assert_eq!(flagged.stats(), scanned.stats(), "step {step}: after {op:?}");
            assert_eq!(flagged.memory_fingerprint(), scanned.memory_fingerprint(), "step {step}");
            if matches!(op, Op::Advance { cycles: 1.. }) {
                for (c, before) in owed.iter().enumerate() {
                    let after = flagged.l15(c).expect("proposed preset").reconfig_actions();
                    assert!(before.is_none_or(|b| after > b), "step {step}: cluster {c} was owed");
                }
            }
        }
        // Everything left in the caches, and every event either side saw
        // (way grants/revokes, SDU stalls, GV traffic), must agree too.
        flagged.flush_all();
        scanned.flush_all();
        assert_eq!(flagged.memory_nonzero_bytes(), scanned.memory_nonzero_bytes());
        assert_eq!(recording(&mut flagged), recording(&mut scanned));
    });
}

// --- Run-ahead -----------------------------------------------------------

/// Where a trap lands: skip the faulting instruction and return.
const HANDLER: u32 = 0x200;
/// A few lines every core loads from and stores to (the L1s are not
/// coherent; both sides of a comparison see the same stale data).
const POOL: u32 = 0x8000;
const POOL_WORDS: i32 = 96;

fn code_of(core: usize) -> u32 {
    0x1000 + core as u32 * 0x400
}

fn trap_handler() -> Vec<u32> {
    let mut a = Assembler::new();
    a.csrr(30, csr::MEPC).addi(30, 30, 4).csrw_reg(csr::MEPC, 30).mret();
    a.finish().expect("handler assembles")
}

/// A short counted loop over a random body: ALU / `mul` / forward
/// branches, loads and stores over the pool in every width, L1.5 control
/// operations, the odd unaligned access and illegal word. `x20` counts,
/// `x16` holds the pool base, the body writes `x5..=x12` only.
fn arb_program(g: &mut G) -> Vec<u32> {
    let mut a = Assembler::new();
    a.li(16, POOL as i32);
    for r in 5..=12 {
        a.li(r, g.i32_in(-3000..3000));
    }
    a.li(20, g.i32_in(2..6));
    a.label("loop");
    for k in 0..g.usize_in(8..48) {
        let (rd, rs1, rs2) = (g.u8_in(5..=12), g.u8_in(5..=12), g.u8_in(5..=12));
        let word = g.i32_in(0..POOL_WORDS) * 4;
        match g.weighted(&[8, 2, 3, 7, 7, 2, 1, 1]) {
            0 => match g.weighted(&[1, 1, 1, 1, 1, 1]) {
                0 => a.add(rd, rs1, rs2),
                1 => a.sub(rd, rs1, rs2),
                2 => a.xor(rd, rs1, rs2),
                3 => a.sltu(rd, rs1, rs2),
                4 => a.addi(rd, rs1, g.i32_in(-64..64)),
                _ => a.slli(rd, rs1, g.i32_in(0..8)),
            },
            1 => a.mul(rd, rs1, rs2),
            2 => {
                let over = format!("over{k}");
                if g.bool() {
                    a.bne(rs1, rs2, &over)
                } else {
                    a.bltu(rs1, rs2, &over)
                };
                a.addi(rd, rd, 1).label(&over)
            }
            3 => match g.weighted(&[3, 1, 1, 1]) {
                0 => a.lw(rd, 16, word),
                1 => a.lb(rd, 16, word + g.i32_in(0..4)),
                2 => a.lbu(rd, 16, word + g.i32_in(0..4)),
                _ => a.lh(rd, 16, word + 2 * g.i32_in(0..2)),
            },
            4 => match g.weighted(&[3, 1, 1]) {
                0 => a.sw(16, rs2, word),
                1 => a.sb(16, rs2, word + g.i32_in(0..4)),
                _ => a.sh(16, rs2, word + 2 * g.i32_in(0..2)),
            },
            5 => match g.weighted(&[2, 2, 1, 1]) {
                0 => a.li(28, g.i32_in(0..=5)).demand(28),
                1 => a.li(28, g.i32_in(0..=1)).ip_set(28),
                2 => a.li(28, g.any_u16() as i32).gv_set(28),
                _ => a.supply(29),
            },
            6 if g.bool() => a.lw(rd, 16, word + 2),
            6 => a.sw(16, rs2, word + 1),
            _ => a.raw(0xffff_ffff),
        };
    }
    a.addi(20, 20, -1).bne(20, 0, "loop").ebreak();
    a.finish().expect("generated program assembles")
}

/// Loads the handler and one program per core.
fn load(u: &mut Uncore, programs: &[Vec<u32>]) {
    u.load_program(HANDLER, &trap_handler());
    for (i, program) in programs.iter().enumerate() {
        u.load_program(code_of(i), program);
    }
}

/// Points core `i` at its program; a `user` core runs it in user mode
/// behind an identity segment (its `demand`s trap).
fn boot(core: &mut Core, i: usize, user: bool) {
    core.set_pc(code_of(i));
    core.csr_mut().write(csr::MTVEC, HANDLER);
    if user {
        core.csr_mut().write(csr::SASID, 5);
        core.mmu_mut().map(5, Segment { vbase: 0, pbase: 0, len: 0x1_0000 });
        core.set_priv_level(PrivLevel::User);
    }
}

#[test]
fn run_ahead_accounts_what_single_stepping_executes() {
    let (pre_executed, while_stalled) = (AtomicU64::new(0), AtomicU64::new(0));
    let (posted, cancelled) = (AtomicU64::new(0), AtomicU64::new(0));
    prop::run_with(Config::with_cases(32), "run_ahead_accounts_in_order", |g| {
        // Latency bands deep enough that the way a hit came from shows.
        let mut cfg = SocConfig::proposed_8core();
        (cfg.l1i.ways, cfg.l1i.lat_max) = (*g.pick(&[2, 4]), g.u32_in(2..=9));
        (cfg.l1d.ways, cfg.l1d.lat_max) = (*g.pick(&[2, 4]), g.u32_in(2..=9));
        let n = cfg.total_cores();
        let mut stepped = Soc::new(cfg, 0);
        let programs: Vec<Vec<u32>> = (0..n).map(|_| arb_program(g)).collect();
        load(stepped.uncore_mut(), &programs);
        let user = g.usize_in(0..n);
        for i in 0..n {
            boot(stepped.core_mut(i), i, i == user);
        }
        let mut ahead = stepped.clone();
        // Per core: its lane's last demand was cancelled by a reclaim (and
        // it has made no new one).
        let mut cut_short = vec![false; n];

        while let Some(core) = ahead.next_real(0..n) {
            ahead.step_core(core);
            // The reference catches up: the step just taken is `core`
            // reaching this clock.
            for taken in 0.. {
                let (i, _) = stepped.step().expect("the reference has this step to take");
                if i == core && stepped.clock(core) == ahead.clock(core) {
                    break;
                }
                assert!(taken < 4096, "the reference never reaches core {core}'s step");
            }
            let clocks = |soc: &Soc| (0..n).map(|i| soc.clock(i)).collect::<Vec<_>>();
            assert_eq!(clocks(&ahead), clocks(&stepped), "after a step of core {core}");
            assert_eq!(ahead.global_cycle(), stepped.global_cycle());

            // The kernel's side, between steps: it may take ways away and
            // touch the L1.5 (which raises the Walloc state), nothing that
            // could make a lane's stores routed behind its back, and acts
            // only on lanes whose cores hold no queue (`run_ahead`'s
            // contract). An over-demand stalls the cluster's Walloc till a
            // reclaim of a lane's ways frees one, while other cores hold
            // queues; a reclaim of a growing lane's way cancels its demand.
            let mut action = g.weighted(&[60, 2, 1, 1, 2, 2]);
            let (cluster, way) = (core / 4, g.usize_in(0..16));
            let l15 = ahead.uncore().l15(cluster).expect("proposed preset");
            let lane = match action {
                1 => l15.regs().owner_of(way),
                3..=5 => Some(way % 4),
                _ => None,
            };
            if lane.is_some_and(|lane| ahead.queued(cluster * 4 + lane) != 0) {
                action = 0;
            }
            let growing: Vec<bool> = (0..n)
                .map(|c| {
                    !ahead
                        .uncore()
                        .l15(c / 4)
                        .and_then(|l| l.demand_met(c % 4).ok())
                        .unwrap_or(true)
                })
                .collect();
            for soc in [&mut ahead, &mut stepped] {
                match action {
                    1 => drop(soc.uncore_mut().kernel_revoke_way(cluster, way)),
                    2 => drop(soc.uncore_mut().l15_mut(cluster)),
                    3 => {
                        let l15 = soc.uncore_mut().l15_mut(cluster).expect("proposed preset");
                        let _ = l15.demand(way % 4, way / 4);
                    }
                    4 => {
                        let l15 = soc.uncore_mut().l15_mut(cluster).expect("proposed preset");
                        let _ = l15.demand(way % 4, 16 - way % 4);
                    }
                    5 => {
                        let l15 = soc.uncore().l15(cluster).expect("proposed preset");
                        for w in l15.supply(way % 4).expect("lane").iter() {
                            drop(soc.uncore_mut().kernel_revoke_way(cluster, w));
                        }
                    }
                    _ => {}
                }
            }
            for (c, cut) in cut_short.iter_mut().enumerate() {
                let met =
                    ahead.uncore().l15(c / 4).is_some_and(|l| l.demand_met(c % 4) == Ok(true));
                *cut = met && (*cut || growing[c]);
            }
            let (before, routed) =
                (ahead.run_ahead_stats().1, ahead.uncore().trace().counters().stores_via_l15);
            ahead.run_ahead(core);
            let ran = ahead.run_ahead_stats().1 - before;
            let stalled =
                (0..2).any(|c| ahead.uncore().l15(c).is_some_and(|l| l.reconfig_stalled()));
            if stalled {
                while_stalled.fetch_add(ran, Ordering::Relaxed);
            }
            // A private run routes a store only by posting it.
            let routed = ahead.uncore().trace().counters().stores_via_l15 - routed;
            posted.fetch_add(routed, Ordering::Relaxed);
            if cut_short[core] {
                cancelled.fetch_add(ran, Ordering::Relaxed);
            }
        }
        assert!(stepped.step().is_none(), "both ran every core to its ebreak");
        pre_executed.fetch_add(ahead.run_ahead_stats().1, Ordering::Relaxed);

        for i in 0..n {
            let (a, s) = (ahead.core(i), stepped.core(i));
            let regs = |c: &Core| (0..32).map(|r| c.reg(r)).collect::<Vec<_>>();
            assert_eq!((regs(a), a.pc(), a.stats()), (regs(s), s.pc(), s.stats()), "core {i}");
        }
        let (a, s) = (ahead.uncore_mut(), stepped.uncore_mut());
        assert_eq!(a.per_cluster_stats(), s.per_cluster_stats());
        assert_eq!(a.stats(), s.stats());
        assert_eq!(a.trace().counters(), s.trace().counters());
        assert_eq!(masks(a), masks(s));
        a.flush_all();
        s.flush_all();
        assert_eq!(a.memory_nonzero_bytes(), s.memory_nonzero_bytes());
    });
    assert!(pre_executed.into_inner() > 10_000, "the property never ran anything ahead");
    assert!(while_stalled.into_inner() > 0, "nothing ran ahead while a Walloc was stalled");
    assert!(posted.into_inner() > 0, "no routed store was posted");
    assert!(cancelled.into_inner() > 0, "no lane ran ahead right after its demand was cancelled");
}

/// One cluster of two cores over caches of a few lines each, so a whole
/// `Uncore` prints in a few dozen kilobytes.
fn tiny_config() -> SocConfig {
    let level =
        |capacity| l15_soc::LevelConfig { capacity, ways: 2, ..SocConfig::proposed_8core().l1d };
    SocConfig {
        clusters: 1,
        cores_per_cluster: 2,
        l1i: level(512),
        l1d: level(512),
        l15: Some(L15Config { way_bytes: 256, ways: 4, cores: 2, ..L15Config::default() }),
        l2: l15_soc::LevelConfig { lat_min: 15, lat_max: 25, ..level(2048) },
        mem_latency: 100,
    }
}

#[test]
fn a_private_run_is_as_many_steps_and_its_refusal_leaves_no_trace() {
    let posted_total = AtomicU64::new(0);
    prop::run_with(Config::with_cases(12), "a_private_run_is_as_many_steps", |g| {
        let mut uncore = Uncore::new(tiny_config());
        let programs = [arb_program(g), arb_program(g)];
        load(&mut uncore, &programs);
        let user = g.usize_in(0..3);
        let mut cores = [Core::new(0, 0), Core::new(1, 0)];
        for (i, core) in cores.iter_mut().enumerate() {
            boot(core, i, i == user);
        }
        let (mut private, mut refused, mut posted) = (0, 0, 0);
        loop {
            let running: Vec<usize> = (0..2).filter(|&i| !cores[i].is_halted()).collect();
            let Some(&i) = running.get(g.usize_in(0..2) % running.len().max(1)) else { break };
            let (mut core, mut bus, mut queue) = (cores[i].clone(), uncore.clone(), Vec::new());
            let cap = g.usize_in(1..40);
            let total = core.run_private(&mut bus, cap, &mut queue);
            assert_eq!(total, queue.iter().map(|&e| e & !POSTED).sum::<u32>());
            // The reference steps as many times, the run's posted stores are
            // accounted, then the two compare: the instruction the run
            // refused (if it stopped short of `cap`) must have left nothing
            // behind.
            for (k, &entry) in queue.iter().enumerate() {
                let out = cores[i].step(&mut uncore);
                assert_eq!(entry & !POSTED, out.cycles, "entry {k}: {:?}", out.event);
                if entry & POSTED != 0 {
                    bus.apply_posted(i);
                    posted += 1;
                }
            }
            let print = |core: &Core, bus: &Uncore| format!("{core:?} {bus:?}");
            assert_eq!(
                print(&core, &bus),
                print(&cores[i], &uncore),
                "after {} entries",
                queue.len()
            );
            private += queue.len();
            refused += (queue.len() < cap) as usize;
            uncore.advance(total);
            let out = cores[i].step(&mut uncore);
            uncore.advance(out.cycles);
        }
        assert!(private > 0 && refused > 0, "{private} private, {refused} refused");
        posted_total.fetch_add(posted, Ordering::Relaxed);
    });
    assert!(posted_total.into_inner() > 0, "no private run posted a store");
}

#[test]
fn a_store_stops_being_private_once_its_way_is_inclusive() {
    let mut uncore = Uncore::new(SocConfig::proposed_8core());
    let l15 = uncore.l15_mut(0).expect("proposed preset");
    l15.demand(0, 1).expect("one of sixteen ways");
    l15.settle();
    let mut a = Assembler::new();
    a.li(5, POOL as i32).li(6, 1).sw(5, 6, 0).sw(5, 6, 4).ip_set(6).sw(5, 6, 8).ebreak();
    uncore.load_program(0x100, &a.finish().expect("assembles"));
    let mut core = Core::new(0, 0x100);
    // `lui`, `addi`, and the first store, which fills the line.
    for _ in 0..3 {
        core.step(&mut uncore);
    }
    // The second store hits the line the first one brought in; `ip_set` is
    // a shared event.
    let before = *uncore.trace().counters();
    let mut queue = Vec::new();
    core.run_private(&mut uncore, 8, &mut queue);
    assert_eq!(queue.len(), 1, "an L1D hit on the conventional path, then a refusal");
    assert_eq!(uncore.trace().counters().stores_conventional, before.stores_conventional + 1);
    // After `ip_set` the IPU routes the lane.
    core.step(&mut uncore);
    assert_eq!(core.run_private(&mut uncore, 8, &mut queue), 0, "the third store is routed");
    assert_eq!(queue.len(), 1);
    core.step(&mut uncore);
    assert_eq!(uncore.trace().counters().stores_via_l15, 1);
}

#[test]
#[should_panic(expected = "posted-write contract broken")]
fn revoking_a_posted_line_before_its_store_is_accounted_panics() {
    let mut soc = Soc::new(SocConfig::proposed_8core(), 0x100);
    let l15 = soc.uncore_mut().l15_mut(0).expect("proposed preset");
    l15.demand(0, 1).expect("one of sixteen ways");
    l15.settle();
    l15.ip_set(0, InclusionPolicy::Inclusive).expect("lane 0");
    let mut a = Assembler::new();
    a.li(5, POOL as i32).li(6, 1).sw(5, 6, 0).sw(5, 6, 4).ebreak();
    soc.uncore_mut().load_program(0x100, &a.finish().expect("assembles"));
    // Up to the first store, which allocates the line in the lane's way.
    while soc.uncore().trace().counters().stores_via_l15 == 0 {
        soc.step_core(0);
    }
    soc.run_ahead(0);
    assert_eq!(soc.uncore().trace().counters().stores_via_l15, 2, "the second store posted");
    assert_ne!(soc.queued(0), 0);
    // The kernel side takes the way while the store is queued: its touch, due
    // when the store is accounted, has no line to land on.
    let way = soc.uncore().l15(0).expect("proposed preset").supply(0).expect("lane 0").lowest();
    soc.uncore_mut().kernel_revoke_way(0, way.expect("lane 0 owns a way")).expect("in range");
    soc.settle(0..1);
}

#[test]
fn posted_touches_land_late_and_in_the_order_stepping_makes_them() {
    // Lanes 0 and 1 of cluster 0 each own one inclusive way and store to
    // lines of one L1.5 set: each store after the first hits and posts,
    // with a tree-PLRU touch the other lane's store undid. Core 1's posted
    // store starts before core 0's, and one bulk pass accounts both.
    let program = |addr: i32, before: usize| {
        let mut a = Assembler::new();
        a.li(5, addr).li(6, 1).sw(5, 6, 0);
        for _ in 0..before {
            a.nop();
        }
        a.sw(5, 6, 4);
        for _ in 0..40 {
            a.nop();
        }
        a.ebreak();
        a.finish().expect("assembles")
    };
    let mut stepped = Soc::new(SocConfig::proposed_8core(), 0);
    let l15 = stepped.uncore_mut().l15_mut(0).expect("proposed preset");
    for lane in 0..2 {
        l15.demand(lane, 1).expect("one of sixteen ways");
        l15.settle();
        l15.ip_set(lane, InclusionPolicy::Inclusive).expect("lane in range");
    }
    for (core, (addr, before)) in
        [(POOL as i32, 8), (POOL as i32 + 0x800, 0)].into_iter().enumerate()
    {
        stepped.uncore_mut().load_program(code_of(core), &program(addr, before));
        stepped.core_mut(core).set_pc(code_of(core));
    }
    for core in 2..8 {
        stepped.core_mut(core).halt();
    }
    let mut ahead = stepped.clone();
    while let Some(core) = ahead.next_real(0..8) {
        ahead.step_core(core);
        ahead.run_ahead(core);
    }
    while stepped.step().is_some() {}
    assert_eq!(ahead.posted_stores(), 2, "both second stores posted");
    assert_eq!(format!("{:?}", ahead.uncore()), format!("{:?}", stepped.uncore()));
}
