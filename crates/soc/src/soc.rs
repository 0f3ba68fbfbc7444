//! The SoC: RV32 cores plus the shared memory system, with a per-core-clock
//! simulation loop.
//!
//! Cores advance on private clocks; [`Soc::step`] always steps the core that
//! is furthest behind, which keeps the cores loosely synchronised the way
//! the FPGA prototype's common clock does, and advances each cluster's
//! Walloc FSM by the elapsed cycles (one way-reconfiguration per cycle, per
//! cluster).
//!
//! # Run ahead, account in order
//!
//! [`Soc::run_ahead`] executes a core's next instructions that touch only
//! its own state in one tight loop and queues only their *cycles*; no clock
//! moves. [`Soc::step_core`] accounts a queued entry exactly as it does an
//! executed instruction, so whatever observes time sees one instruction at
//! a time; [`Soc::next_real`] accounts many at once (`DESIGN.md` §4.7).

use std::ops::Range;

use l15_rvcore::core::{Core, Stalls, StepEvent, StepOutcome, TimingConfig};
use l15_rvcore::isa::Instr;
use l15_trace::EventKind;

use crate::config::SocConfig;
use crate::uncore::Uncore;

/// The cycles of each instruction a core executed ahead of its clock:
/// entries before `head` are accounted, the `left` cycles of the rest not.
#[derive(Debug, Clone, Default)]
struct Ahead {
    cycles: Vec<u32>,
    head: usize,
    left: u32,
}

impl Ahead {
    /// Accounts the entries starting less than `limit` cycles after the head
    /// entry does (`1`: that entry alone); returns their cycles. Linear: a
    /// cluster accounts a dozen entries between two executed steps.
    #[inline]
    fn pop_before(&mut self, limit: u64) -> u32 {
        let mut sum = 0;
        while self.head < self.cycles.len() && (sum as u64) < limit {
            sum += self.cycles[self.head];
            self.head += 1;
        }
        self.left -= sum;
        sum
    }
}

/// A full SoC instance.
#[derive(Debug, Clone)]
pub struct Soc {
    cores: Vec<Core>,
    uncore: Uncore,
    clocks: Vec<u64>,
    /// Running `max(clocks)`: clocks only ever grow, and only through
    /// [`Soc::step_core`] and [`Soc::advance_clock`], which keep it.
    global: u64,
    /// What [`Soc::laggard`] scans, per core: the core's clock while it can
    /// run, [`HALTED`] after a step that left it halted, or [`STALE`] since
    /// [`Soc::core_mut`] handed it out (the next scan looks the core up).
    keys: Vec<u64>,
    /// Per core: what it executed ahead of `clocks`.
    ahead: Vec<Ahead>,
    ran_ahead: (u64, u64),
}

/// Scheduling keys no clock reaches; a runnable core's key is below both.
const HALTED: u64 = u64::MAX;
const STALE: u64 = u64::MAX - 1;

impl Soc {
    /// Builds the SoC described by `cfg`, with all cores in reset at
    /// `reset_pc`.
    pub fn new(cfg: SocConfig, reset_pc: u32) -> Self {
        Self::with_timing(cfg, reset_pc, TimingConfig::default())
    }

    /// Builds the SoC with explicit core timing knobs (used by the
    /// forwarding-channel ablation).
    pub fn with_timing(cfg: SocConfig, reset_pc: u32, timing: TimingConfig) -> Self {
        let n = cfg.total_cores();
        Soc {
            cores: (0..n).map(|i| Core::with_timing(i, reset_pc, timing)).collect(),
            uncore: Uncore::new(cfg),
            clocks: vec![0; n],
            global: 0,
            keys: vec![0; n],
            ahead: vec![Ahead::default(); n],
            ran_ahead: (0, 0),
        }
    }

    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// Immutable core access: with a run-ahead queue, the state after it.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn core(&self, i: usize) -> &Core {
        &self.cores[i]
    }

    /// Mutable core access (kernel-level: set PC, registers, mappings). The
    /// caller may halt or resume the core, so this makes its scheduling key
    /// stale — the only thing that does. Not while it has a run-ahead queue.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn core_mut(&mut self, i: usize) -> &mut Core {
        debug_assert_eq!(self.ahead[i].left, 0, "core {i} has run-ahead entries to account");
        self.keys[i] = STALE;
        &mut self.cores[i]
    }

    /// The shared memory system.
    pub fn uncore(&self) -> &Uncore {
        &self.uncore
    }

    /// Mutable memory system (host loads, kernel cache operations).
    pub fn uncore_mut(&mut self) -> &mut Uncore {
        &mut self.uncore
    }

    /// Local clock of core `i` in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn clock(&self, i: usize) -> u64 {
        self.clocks[i]
    }

    /// Global time: the maximum core clock.
    pub fn global_cycle(&self) -> u64 {
        self.global
    }

    /// Fast-forwards core `i`'s clock to at least `cycle` (an idle core
    /// waiting for a dispatch does not execute, but wall time passes).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn advance_clock(&mut self, i: usize, cycle: u64) {
        if self.clocks[i] < cycle {
            self.clocks[i] = cycle;
            self.global = self.global.max(cycle);
            if self.keys[i] < STALE {
                self.keys[i] = cycle;
            }
        }
    }

    /// Steps core `i` one instruction, advancing the Walloc FSMs by the
    /// elapsed cycles. With [`run_ahead`](Self::run_ahead) entries queued it
    /// accounts the oldest instead: the outcome has its cycles and, the
    /// instruction not being kept, a retired `fence` and no stall breakdown.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn step_core(&mut self, i: usize) -> StepOutcome {
        let out = if self.ahead[i].left != 0 {
            let (event, stalls) = (StepEvent::Retired(Instr::Fence), Stalls::default());
            StepOutcome { cycles: self.ahead[i].pop_before(1), event, stalls }
        } else {
            self.uncore.trace_mut().set_now(self.clocks[i]);
            self.cores[i].step(&mut self.uncore)
        };
        if out.stalls.any() && self.uncore.trace().recording() {
            // The per-instruction stall breakdown. The event carries `u16`
            // counts (memory latency is hundreds of cycles), so saturate.
            let sat = |cycles: u32| u16::try_from(cycles).unwrap_or(u16::MAX);
            let s = out.stalls;
            self.uncore.trace_mut().emit(EventKind::PipeStall {
                core: i as u32,
                if_stall: sat(s.if_stall),
                ma_stall: sat(s.ma_stall),
                hazard: sat(s.hazard),
                flush: sat(s.flush),
                ex: sat(s.ex),
            });
        }
        self.clocks[i] += out.cycles as u64;
        self.global = self.global.max(self.clocks[i]);
        self.keys[i] = if self.cores[i].is_halted() { HALTED } else { self.clocks[i] };
        self.uncore.advance(out.cycles);
        out
    }

    /// Executes, now, the instructions core `i` executes next that touch
    /// only its own state ([`Core::step_private`]), queueing their cycles
    /// for [`step_core`](Self::step_core) / [`next_real`](Self::next_real)
    /// to account. For the SoC's driver, once it has reacted to a step; till
    /// the queue is accounted it must neither touch the core nor make a way
    /// of its lane inclusive. Does nothing while a Walloc may be pending
    /// (every cycle's order matters), events are recorded or `i` has a queue.
    pub fn run_ahead(&mut self, i: usize) {
        let ahead = &mut self.ahead[i];
        if self.uncore.walloc_maybe_pending || self.uncore.trace().recording() || ahead.left != 0 {
            return;
        }
        ahead.cycles.clear();
        ahead.head = 0;
        // At most a page of queue per run.
        while ahead.cycles.len() < 1024 {
            let Some(cycles) = self.cores[i].step_private(&mut self.uncore) else { break };
            ahead.cycles.push(cycles);
            ahead.left += cycles;
        }
        self.ran_ahead.0 += !ahead.cycles.is_empty() as u64;
        self.ran_ahead.1 += ahead.cycles.len() as u64;
    }

    /// `(run_ahead calls that executed something, instructions they did)`.
    pub fn run_ahead_stats(&self) -> (u64, u64) {
        self.ran_ahead
    }

    /// The core of `cores` that executes the next instruction, with every
    /// queued entry before it in (clock, index) order accounted: what
    /// [`laggard`](Self::laggard) + [`step_core`](Self::step_core) leave
    /// behind, repeated until a step executes. While a Walloc may be pending
    /// (each entry ticks it) just `laggard`. `None` when all have halted.
    pub fn next_real(&mut self, cores: Range<usize>) -> Option<usize> {
        let bulk = !self.uncore.walloc_maybe_pending;
        let (at, lead) = self.earliest(cores.clone(), bulk);
        for i in cores {
            if bulk && self.ahead[i].left != 0 {
                // Starting before `at`, or at it on a core `laggard` meets first.
                let limit = (at + (i <= lead) as u64).saturating_sub(self.clocks[i]);
                self.clocks[i] += self.ahead[i].pop_before(limit) as u64;
                self.keys[i] = self.clocks[i];
                self.global = self.global.max(self.clocks[i]);
            }
        }
        (at < STALE).then_some(lead)
    }

    /// Accounts everything `cores` executed ahead, core by core rather
    /// than in (clock, index) order: for a caller that stops stepping.
    pub fn settle(&mut self, cores: Range<usize>) {
        for i in cores {
            while self.ahead[i].left != 0 {
                self.step_core(i);
            }
        }
    }

    /// The core of `cores` that is furthest behind: the first one with the
    /// smallest clock among those not halted, `None` when all are.
    ///
    /// # Panics
    ///
    /// Panics if `cores` reaches past the last core.
    #[inline]
    pub fn laggard(&mut self, cores: Range<usize>) -> Option<usize> {
        let (key, i) = self.earliest(cores, false);
        (key < STALE).then_some(i)
    }

    /// The one scan: the first core of `cores` with the smallest key — plus,
    /// if `queued`, its run-ahead cycles (a halted core has none): where it
    /// next executes. The key is `STALE` or more when all have halted.
    #[inline]
    fn earliest(&mut self, cores: Range<usize>, queued: bool) -> (u64, usize) {
        let mut best = (STALE, 0);
        for i in cores {
            if self.keys[i] == STALE {
                self.keys[i] = if self.cores[i].is_halted() { HALTED } else { self.clocks[i] };
            }
            let at = self.keys[i] + if queued { self.ahead[i].left as u64 } else { 0 };
            if at < best.0 {
                best = (at, i);
            }
        }
        best
    }

    /// Steps the core that is furthest behind (skipping halted cores).
    /// Returns `(core, outcome)`, or `None` when every core has halted.
    pub fn step(&mut self) -> Option<(usize, StepOutcome)> {
        let i = self.laggard(0..self.cores.len())?;
        Some((i, self.step_core(i)))
    }

    /// Runs until every core halts or the global clock passes `max_cycles`.
    /// Returns the final global cycle.
    pub fn run(&mut self, max_cycles: u64) -> u64 {
        while self.global_cycle() < max_cycles {
            if self.step().is_none() {
                break;
            }
        }
        self.global_cycle()
    }

    /// Runs only core `i` until it halts or `max_steps` instructions retire
    /// (other cores stay frozen). Convenience for single-core tests.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn run_core(&mut self, i: usize, max_steps: u64) -> u64 {
        for _ in 0..max_steps {
            if self.cores[i].is_halted() {
                break;
            }
            let out = self.step_core(i);
            if matches!(out.event, StepEvent::Halted | StepEvent::HostCall) {
                break;
            }
        }
        self.clocks[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l15_rvcore::asm::Assembler;
    use l15_rvcore::csr::{addr, cause};
    use l15_rvcore::isa::{self, AluOp, Instr};

    fn assemble(build: impl FnOnce(&mut Assembler)) -> Vec<u32> {
        let mut a = Assembler::new();
        build(&mut a);
        a.finish().expect("test program assembles")
    }

    #[test]
    fn single_core_program_runs() {
        let mut soc = Soc::new(SocConfig::proposed_8core(), 0x100);
        let mut a = Assembler::new();
        a.li(1, 11);
        a.li(2, 31);
        a.add(3, 1, 2);
        a.ebreak();
        let words = a.finish().unwrap();
        soc.uncore_mut().load_program(0x100, &words);
        soc.run_core(0, 100);
        assert_eq!(soc.core(0).reg(3), 42);
        assert!(soc.clock(0) > 0);
    }

    #[test]
    fn a_stall_longer_than_u16_saturates_in_the_trace() {
        // The first fetch misses all the way to a 70 000-cycle memory.
        let cfg = SocConfig { mem_latency: 70_000, ..SocConfig::proposed_8core() };
        let mut soc = Soc::new(cfg, 0x100);
        let program = assemble(|a| {
            a.ebreak();
        });
        soc.uncore_mut().load_program(0x100, &program);
        soc.uncore_mut().trace_mut().attach(l15_trace::FlightRecorder::new(16));
        let out = soc.step_core(0);
        assert!(out.stalls.if_stall >= 70_000, "{:?}", out.stalls);
        let rec = soc.uncore_mut().trace_mut().detach().expect("attached above");
        let recorded = rec.events().find_map(|e| match e.kind {
            EventKind::PipeStall { if_stall, .. } => Some(if_stall),
            _ => None,
        });
        assert_eq!(recorded, Some(u16::MAX), "saturated, not wrapped to {}", 70_000 % 65_536);
    }

    #[test]
    fn two_cores_share_data_through_l15() {
        let mut soc = Soc::new(SocConfig::proposed_8core(), 0x100);

        // Producer on core 0: demand 2 ways, make them inclusive, write 42
        // to 0x8000, share the ways, then halt.
        let producer = {
            let mut a = Assembler::new();
            a.li(5, 2);
            a.demand(5); // privileged: cores reset in machine mode
                         // Give the Walloc time: poll supply until 2 ways arrive.
            a.label("wait");
            a.supply(6);
            a.li(7, 0);
            // popcount via loop: x7 += x6&1; x6 >>= 1 (8 iterations)
            a.li(28, 8);
            a.label("pop");
            a.andi(29, 6, 1);
            a.add(7, 7, 29);
            a.srli(6, 6, 1);
            a.addi(28, 28, -1);
            a.bne(28, 0, "pop");
            a.li(30, 2);
            a.bne(7, 30, "wait");
            a.li(8, 1);
            a.ip_set(8); // inclusive
            a.li(9, 0x8000);
            a.li(10, 42);
            a.sw(9, 10, 0);
            a.supply(11);
            a.gv_set(11); // share everything we own
            a.ebreak();
            a.finish().unwrap()
        };

        // Consumer on core 1: read 0x8000.
        let consumer = {
            let mut a = Assembler::new();
            a.li(9, 0x8000);
            a.lw(12, 9, 0);
            a.ebreak();
            a.finish().unwrap()
        };

        soc.uncore_mut().load_program(0x100, &producer);
        soc.uncore_mut().load_program(0x4000, &consumer);
        soc.core_mut(1).set_pc(0x4000);

        // Run producer to completion, then the consumer.
        soc.run_core(0, 10_000);
        assert!(soc.core(0).is_halted());
        soc.run_core(1, 1_000);
        assert_eq!(soc.core(1).reg(12), 42, "consumer read the dependent data");

        // The data was served by the L1.5 (hit recorded for lane 1).
        let l15 = soc.uncore().l15(0).unwrap();
        assert!(l15.core_stats(1).unwrap().hits() > 0);
    }

    #[test]
    fn lockstep_scheduler_interleaves() {
        let mut soc = Soc::new(SocConfig::proposed_8core(), 0x100);
        let mut a = Assembler::new();
        a.li(1, 100);
        a.label("spin");
        a.addi(1, 1, -1);
        a.bne(1, 0, "spin");
        a.ebreak();
        let words = a.finish().unwrap();
        soc.uncore_mut().load_program(0x100, &words);
        // All 8 cores run the same program.
        let end = soc.run(1_000_000);
        assert!(end > 0);
        for i in 0..soc.n_cores() {
            assert!(soc.core(i).is_halted(), "core {i} halted");
            assert_eq!(soc.core(i).reg(1), 0);
        }
        // Clocks stay loosely synchronised (within one instruction burst).
        let min = (0..8).map(|i| soc.clock(i)).min().unwrap();
        let max = (0..8).map(|i| soc.clock(i)).max().unwrap();
        assert!(max - min < 500, "min {min} max {max}");
    }

    #[test]
    fn an_illegal_word_traps_only_when_it_is_executed() {
        const ILLEGAL: u32 = 0xffff_ffff;
        assert!(isa::decode(ILLEGAL).is_err());
        let mut soc = Soc::new(SocConfig::proposed_8core(), 0x100);
        // Core 0 jumps over the word, which sits in the line it runs from.
        let around = assemble(|a| {
            a.li(1, 7).j("over").raw(ILLEGAL).label("over").ebreak();
        });
        soc.uncore_mut().load_program(0x100, &around);
        soc.run_core(0, 100);
        assert!(soc.core(0).is_halted());
        assert_eq!((soc.core(0).reg(1), soc.core(0).stats().traps), (7, 0));
        // Core 1 runs into it.
        let into = assemble(|a| {
            a.li(1, 7).raw(ILLEGAL).ebreak();
        });
        soc.uncore_mut().load_program(0x4000, &into);
        soc.core_mut(1).set_pc(0x4000);
        soc.run_core(1, 100);
        let core = soc.core(1);
        assert_eq!((core.reg(1), core.stats().traps), (7, 1));
        assert_eq!(core.csr().mcause(), cause::ILLEGAL_INSTRUCTION);
        assert_eq!(core.csr().read(addr::MTVAL), ILLEGAL, "tval is the raw word");
        assert_eq!(core.csr().mepc(), 0x4004);
    }

    #[test]
    fn a_jump_between_two_words_runs_what_straddles_them() {
        // Pinned at the commit before fetches were windowed and predecoded:
        // `jalr` clears bit 0 only, so a PC with `pc % 4 == 2` is reachable,
        // and the core then executes the four bytes at that PC. Here they
        // spell `addi x5, x0, 42` and, two bytes on, `ebreak`.
        let addi = isa::encode(Instr::OpImm { op: AluOp::Add, rd: 5, rs1: 0, imm: 42 });
        let ebreak = isa::encode(Instr::Ebreak);
        let program = assemble(|a| {
            a.instr(Instr::OpImm { op: AluOp::Add, rd: 6, rs1: 0, imm: 0x10a });
            a.instr(Instr::Jalr { rd: 0, rs1: 6, imm: 0 });
            a.raw(addi << 16).raw(ebreak << 16 | addi >> 16).raw(ebreak >> 16);
        });
        let mut soc = Soc::new(SocConfig::proposed_8core(), 0x100);
        soc.uncore_mut().load_program(0x100, &program);
        soc.run_core(0, 100);
        let core = soc.core(0);
        assert!(core.is_halted());
        assert_eq!((core.reg(5), core.pc(), core.stats().traps), (42, 0x112, 0));
        assert_eq!((core.stats().instructions, soc.clock(0)), (4, 136));
        let l1 = soc.uncore().stats().l1;
        assert_eq!((l1.hits(), l1.misses()), (3, 1), "one fill, then probed hits");
    }

    #[test]
    fn a_resident_line_outlives_load_program_until_flush_all() {
        // The L1I is not coherent with host writes: a program loaded over a
        // resident line runs only after `flush_all`. Predecoded lines rely
        // on exactly this (nothing rewrites a line between fill and
        // eviction), so it is pinned here.
        let program = |value| {
            assemble(|a| {
                a.li(1, value).ebreak();
            })
        };
        let mut soc = Soc::new(SocConfig::proposed_8core(), 0x100);
        let run = |soc: &mut Soc| {
            let core = soc.core_mut(0);
            core.set_pc(0x100);
            core.resume();
            soc.run_core(0, 100);
            soc.core(0).reg(1)
        };
        soc.uncore_mut().load_program(0x100, &program(1));
        assert_eq!(run(&mut soc), 1);
        soc.uncore_mut().load_program(0x100, &program(2));
        assert_eq!(run(&mut soc), 1, "the resident line still holds the old code");
        soc.uncore_mut().flush_all();
        assert_eq!(run(&mut soc), 2);
    }
}
