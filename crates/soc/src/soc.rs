//! The SoC: RV32 cores plus the shared memory system, with a per-core-clock
//! simulation loop.
//!
//! Cores advance on private clocks; [`Soc::step`] always steps the core that
//! is furthest behind, which keeps the cores loosely synchronised the way
//! the FPGA prototype's common clock does, and advances each cluster's
//! Walloc FSM by the elapsed cycles (one way-reconfiguration per cycle, per
//! cluster).

use l15_rvcore::core::{Core, StepEvent, StepOutcome, TimingConfig};
use l15_trace::EventKind;

use crate::config::SocConfig;
use crate::uncore::Uncore;

/// A full SoC instance.
#[derive(Debug, Clone)]
pub struct Soc {
    cores: Vec<Core>,
    uncore: Uncore,
    clocks: Vec<u64>,
    /// Running `max(clocks)`: clocks only ever grow, and only through
    /// [`Soc::step_core`] and [`Soc::advance_clock`], which keep it.
    global: u64,
}

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
        }
    }

    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// Immutable core access.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn core(&self, i: usize) -> &Core {
        &self.cores[i]
    }

    /// Mutable core access (kernel-level: set PC, registers, mappings).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn core_mut(&mut self, i: usize) -> &mut Core {
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
        }
    }

    /// Steps core `i` one instruction, advancing the Walloc FSMs by the
    /// elapsed cycles.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn step_core(&mut self, i: usize) -> StepOutcome {
        self.uncore.trace_mut().set_now(self.clocks[i]);
        let out = self.cores[i].step(&mut self.uncore);
        if out.stalls.any() {
            // Emit the per-instruction stall breakdown; emit() is a no-op
            // when no flight recorder is attached.
            let s = out.stalls;
            self.uncore.trace_mut().emit(EventKind::PipeStall {
                core: i as u32,
                if_stall: s.if_stall,
                ma_stall: s.ma_stall,
                hazard: s.hazard,
                flush: s.flush,
                ex: s.ex,
            });
        }
        self.clocks[i] += out.cycles as u64;
        self.global = self.global.max(self.clocks[i]);
        self.uncore.advance(out.cycles);
        out
    }

    /// Steps the core that is furthest behind (skipping halted cores).
    /// Returns `(core, outcome)`, or `None` when every core has halted.
    pub fn step(&mut self) -> Option<(usize, StepOutcome)> {
        let i = (0..self.cores.len())
            .filter(|&i| !self.cores[i].is_halted())
            .min_by_key(|&i| self.clocks[i])?;
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
}
