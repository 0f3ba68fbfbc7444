//! The ladder: the same tiny kernels timed one layer up at a time, so the
//! difference between two rungs is the host cost of the layer between
//! them. `soc.step_core_mem − rvcore.step_mem` is the memory system per
//! instruction; `soc.step_32core − soc.step_core_alu` is what `Soc::step`
//! (core scan + `Uncore::advance`) adds over stepping one core.

use std::hint::black_box;
use std::time::Instant;

use l15_cache::l15::{L15Cache, L15Config};
use l15_cache::sa::{AccessKind, SetAssocCache};
use l15_cache::Geometry;
use l15_rvcore::asm::Assembler;
use l15_rvcore::bus::FlatBus;
use l15_rvcore::core::Core;
use l15_soc::{Soc, SocConfig};

use crate::harness::Metric;
use crate::stats::median;

/// Where the kernels sit in simulated memory.
const CODE: u32 = 0x100;
const DATA: i32 = 0x8000;
/// Words the memory kernel walks: 8 KiB, twice the 4 KiB L1D, so the walk
/// misses the L1 on every new line.
const MEM_WORDS: i32 = 2048;

/// Median nanoseconds per operation over `reps` timings of `f`, which
/// returns how many operations it performed.
fn rung(name: &str, reps: usize, mut f: impl FnMut() -> u64) -> Metric {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let ops = f().max(1);
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    Metric::new(format!("{name}.ns_per_op"), "ns", median(&samples))
}

/// A register-only loop: 4 instructions per iteration, no data access.
fn alu_kernel(iters: i32) -> Vec<u32> {
    let mut a = Assembler::new();
    a.li(1, iters);
    a.li(2, 0);
    a.label("spin");
    a.addi(2, 2, 3);
    a.xor(3, 2, 1);
    a.addi(1, 1, -1);
    a.bne(1, 0, "spin");
    a.ebreak();
    a.finish().expect("alu kernel assembles")
}

/// A load/store walk over [`MEM_WORDS`] words: 5 instructions per pair.
fn mem_kernel(sweeps: i32) -> Vec<u32> {
    let mut a = Assembler::new();
    a.li(7, sweeps);
    a.label("sweep");
    a.li(5, DATA);
    a.li(6, MEM_WORDS);
    a.label("walk");
    a.lw(8, 5, 0);
    a.sw(5, 8, 4);
    a.addi(5, 5, 8);
    a.addi(6, 6, -2);
    a.bne(6, 0, "walk");
    a.addi(7, 7, -1);
    a.bne(7, 0, "sweep");
    a.ebreak();
    a.finish().expect("mem kernel assembles")
}

fn flat_steps(words: &[u32]) -> u64 {
    let mut bus = FlatBus::new(64 * 1024, 1);
    bus.load_program(CODE, words);
    let mut core = Core::new(0, CODE);
    core.run(&mut bus, u64::MAX);
    core.stats().instructions
}

fn soc_core_steps(words: &[u32]) -> u64 {
    let mut soc = Soc::new(SocConfig::proposed_8core(), CODE);
    soc.uncore_mut().load_program(CODE, words);
    soc.run_core(0, u64::MAX);
    soc.core(0).stats().instructions
}

/// Every rung, bottom to top. `quick` shortens each to a smoke run.
pub fn run(quick: bool) -> Vec<Metric> {
    let (reps, scale) = if quick { (1, 1) } else { (5, 8) };
    let mut out = Vec::new();

    // cache: raw set-associative probe, half hits, half misses.
    out.push(rung("cache.sa_access", reps, || {
        let geo = Geometry::from_capacity(4 * 1024, 64, 2).expect("L1D geometry is valid");
        let mut l1 = SetAssocCache::new(geo, 1, 2);
        let line = [0u8; 64];
        for a in (0..4096u64).step_by(64) {
            l1.fill(a, &line, None);
        }
        let n = 20_000 * scale;
        for i in 0..n {
            let addr = (i * 64) % 8192;
            black_box(l1.access(black_box(addr), AccessKind::Read).hit);
        }
        n
    }));

    // cache: L1.5 masked read and write lookups on owned ways, and one
    // Walloc reconfiguration episode (demand 8 ways, settle).
    let owned = || {
        let mut c = L15Cache::new(L15Config::default()).expect("paper config is valid");
        c.demand(0, 8).expect("within zeta");
        c.settle();
        let line = [7u8; 64];
        for a in (0..2048u64).step_by(64) {
            c.fill(0, a, a, &line, false).expect("core 0 owns ways");
        }
        c
    };
    out.push(rung("cache.l15_read", reps, || {
        let mut c = owned();
        let mut buf = [0u8; 4];
        let n = 20_000 * scale;
        for i in 0..n {
            let addr = (i * 4) % 4096;
            black_box(c.read(0, black_box(addr), addr, &mut buf).expect("core in range").hit);
        }
        n
    }));
    out.push(rung("cache.l15_write", reps, || {
        let mut c = owned();
        let n = 20_000 * scale;
        for i in 0..n {
            let addr = (i * 4) % 4096;
            black_box(c.write(0, black_box(addr), addr, &[1, 2, 3, 4]).expect("core in range").hit);
        }
        n
    }));
    out.push(rung("cache.l15_reconfigure", reps, || {
        let n = 200 * scale;
        for i in 0..n {
            let mut c = L15Cache::new(L15Config::default()).expect("paper config is valid");
            c.demand((i % 4) as usize, 8).expect("within zeta");
            black_box(c.settle().2);
        }
        n
    }));

    // rvcore on a flat bus, then the same kernels through the hierarchy.
    let alu = alu_kernel(5_000 * scale as i32);
    let mem = mem_kernel(2 * scale as i32);
    out.push(rung("rvcore.step_alu", reps, || flat_steps(&alu)));
    out.push(rung("rvcore.step_mem", reps, || flat_steps(&mem)));
    out.push(rung("soc.step_core_alu", reps, || soc_core_steps(&alu)));
    out.push(rung("soc.step_core_mem", reps, || soc_core_steps(&mem)));

    // All 32 cores live on the ALU kernel, scheduled by `Soc::step`.
    let alu32 = alu_kernel(160 * scale as i32);
    out.push(rung("soc.step_32core", reps, || {
        let mut soc = Soc::new(SocConfig::proposed_32core(), CODE);
        soc.uncore_mut().load_program(CODE, &alu32);
        soc.run(u64::MAX);
        (0..soc.n_cores()).map(|i| soc.core(i).stats().instructions).sum()
    }));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_retire_the_instruction_counts_the_rungs_divide_by() {
        // 4 instructions per ALU iteration, 5 per pair of words walked.
        assert_eq!(flat_steps(&alu_kernel(20)) - flat_steps(&alu_kernel(10)), 40);
        let per_sweep = flat_steps(&mem_kernel(2)) - flat_steps(&mem_kernel(1));
        // Plus 3 to load the two loop registers and 2 to close the sweep.
        assert_eq!(per_sweep, 5 * (MEM_WORDS as u64 / 2) + 5);
        assert_eq!(soc_core_steps(&alu_kernel(10)), flat_steps(&alu_kernel(10)));
        assert_eq!(soc_core_steps(&mem_kernel(1)), flat_steps(&mem_kernel(1)));
    }

    #[test]
    fn quick_ladder_reports_every_rung_once() {
        let names: Vec<String> = run(true).into_iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            [
                "cache.sa_access.ns_per_op",
                "cache.l15_read.ns_per_op",
                "cache.l15_write.ns_per_op",
                "cache.l15_reconfigure.ns_per_op",
                "rvcore.step_alu.ns_per_op",
                "rvcore.step_mem.ns_per_op",
                "soc.step_core_alu.ns_per_op",
                "soc.step_core_mem.ns_per_op",
                "soc.step_32core.ns_per_op",
            ]
        );
    }
}
