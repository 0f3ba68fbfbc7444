//! The two shortcuts on the per-instruction path, checked against the
//! definitions they replace (replay a failure with the printed
//! `L15_PROP_SEED`):
//!
//! * `Soc::global_cycle` is a running maximum — it must equal
//!   `max_i clock(i)` after any mix of `step_core` and `advance_clock`;
//! * `Uncore::advance` returns at once unless a Walloc may be pending — an
//!   uncore whose every `advance` is forced to scan all clusters must be
//!   indistinguishable from one left to its flag, and an `advance` of at
//!   least one cycle must perform a Walloc action wherever one was owed
//!   (the flag is never spuriously down).

use l15_cache::geometry::WayMask;
use l15_cache::l15::L15ConfigState;
use l15_rvcore::asm::Assembler;
use l15_rvcore::bus::SystemBus;
use l15_rvcore::isa::L15Op;
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
        let cfg = if g.bool() { SocConfig::proposed_8core() } else { SocConfig::proposed_32core() };
        let mut soc = Soc::new(cfg, 0x100);
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
