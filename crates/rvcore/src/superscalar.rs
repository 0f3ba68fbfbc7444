//! Superscalar / out-of-order timing estimation (Sec. 3.3).
//!
//! The L1.5 design is "compatible with superscalar OoO cores, where
//! multiple memory requests may be dispatched in one cycle", given extra
//! address/data ports towards the LSQ heads and an in-flight request
//! buffer before the mask logic. This module quantifies that claim: it
//! replays an instruction **trace** (captured from a functional run of the
//! in-order [`Core`](crate::core::Core)) through a parameterisable
//! issue-width / memory-port model and reports the cycle count, so the
//! single-port and dual-port L1.5 variants can be compared.
//!
//! The model is a dataflow scheduler with classic OoO assumptions:
//!
//! * up to `width` instructions issue per cycle, any order inside the
//!   `window` of the oldest unissued instructions (register dataflow
//!   permitting — true dependences only, no false dependences: renaming);
//! * memory operations additionally need one of `mem_ports` ports and
//!   issue **in program order among themselves** (a conservative LSQ);
//! * latencies: 1 cycle ALU, `muldiv_latency` for M-ops, and each memory
//!   op's recorded cost (its hierarchy latency, including any TLB walk).

use std::collections::VecDeque;

use crate::bus::SystemBus;
use crate::core::{Core, StepEvent};
use crate::isa::Instr;

/// One traced instruction with its observed memory cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceOp {
    /// The retired instruction.
    pub instr: Instr,
    /// Observed memory-stage cycles of a load or store (the hierarchy
    /// latency, plus any data-TLB walk); `None` for every other op.
    pub mem_cycles: Option<u32>,
}

/// Captures a trace by stepping `core` on `bus` until it halts or
/// `max_steps` instructions retire. A load or store's cost is read off its
/// own step: the MA stall beyond the base cycle, plus that cycle.
pub fn capture_trace<B: SystemBus + ?Sized>(
    core: &mut Core,
    bus: &mut B,
    max_steps: usize,
) -> Vec<TraceOp> {
    let mut trace = Vec::new();
    for _ in 0..max_steps {
        if core.is_halted() {
            break;
        }
        let out = core.step(bus);
        if let StepEvent::Retired(instr) = out.event {
            let is_mem = matches!(instr, Instr::Load { .. } | Instr::Store { .. });
            trace.push(TraceOp { instr, mem_cycles: is_mem.then_some(out.stalls.ma_stall + 1) });
        }
    }
    trace
}

/// Parameters of the OoO issue model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperscalarConfig {
    /// Issue width per cycle (the paper's baseline core is single-width;
    /// Sec. 3.3 targets ≥ 2).
    pub width: usize,
    /// Size of the scheduling window (oldest unissued instructions
    /// examined per cycle).
    pub window: usize,
    /// Concurrent memory-port slots towards the L1/L1.5 (the extra
    /// address/data ports of Sec. 3.3).
    pub mem_ports: usize,
    /// Multiply/divide latency.
    pub muldiv_latency: u32,
}

impl Default for SuperscalarConfig {
    fn default() -> Self {
        SuperscalarConfig { width: 2, window: 16, mem_ports: 2, muldiv_latency: 4 }
    }
}

/// Outcome of [`estimate_cycles`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperscalarEstimate {
    /// Estimated total cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
}

impl SuperscalarEstimate {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    ready: u64, // earliest issue cycle (dataflow)
    latency: u64,
    is_mem: bool,
}

/// Replays `trace` through the issue model, returning the cycle estimate.
///
/// # Panics
///
/// Panics if `cfg.width == 0`, `cfg.window == 0` or `cfg.mem_ports == 0`.
pub fn estimate_cycles(trace: &[TraceOp], cfg: SuperscalarConfig) -> SuperscalarEstimate {
    assert!(cfg.width > 0 && cfg.window > 0 && cfg.mem_ports > 0, "degenerate config");
    // Register scoreboard: cycle at which each architectural register's
    // latest value becomes available.
    let mut reg_ready = [0u64; 32];
    let mut slots: VecDeque<(usize, Slot)> = VecDeque::new();
    // Memory ordering: each mem op waits for the previous one to issue.
    let mut last_mem_issue = 0u64;
    let mut mem_port_free = vec![0u64; cfg.mem_ports];
    let mut cycle = 0u64;
    let mut completed = 0u64;
    let mut last_finish = 0u64;
    let mut ix = 0usize;

    // Pre-compute slot metadata lazily as instructions enter the window.
    let mut issued = vec![false; trace.len()];
    let mut finish = vec![0u64; trace.len()];

    while completed < trace.len() as u64 {
        // Refill the window in program order.
        while slots.len() < cfg.window && ix < trace.len() {
            let op = &trace[ix];
            let ready =
                op.instr.reads().iter().flatten().map(|&r| reg_ready[r as usize]).fold(0, u64::max);
            let latency = match op.instr {
                Instr::MulDiv { .. } => cfg.muldiv_latency as u64,
                Instr::Load { .. } | Instr::Store { .. } => {
                    op.mem_cycles.unwrap_or(1).max(1) as u64
                }
                _ => 1,
            };
            let is_mem = matches!(op.instr, Instr::Load { .. } | Instr::Store { .. });
            // Optimistically mark the destination ready at the earliest
            // possible finish; corrected at issue below. (We process in
            // order, so consumers entering later see a lower bound; the
            // issue loop enforces the true dependence through reg_ready
            // updates at issue time.)
            slots.push_back((ix, Slot { ready, latency, is_mem }));
            ix += 1;
        }

        // Issue up to `width` ready instructions from the window.
        let mut issued_now = 0usize;
        let mut mem_issued_now = 0usize;
        let mut i = 0usize;
        while i < slots.len() && issued_now < cfg.width {
            let (op_ix, slot) = slots[i];
            if issued[op_ix] {
                i += 1;
                continue;
            }
            // Recompute readiness against the up-to-date scoreboard.
            let ready = trace[op_ix]
                .instr
                .reads()
                .iter()
                .flatten()
                .map(|&r| reg_ready[r as usize])
                .fold(slot.ready, u64::max);
            let mut can_issue = ready <= cycle;
            let mut port = usize::MAX;
            if slot.is_mem && can_issue {
                // LSQ order + a free port.
                if last_mem_issue > cycle {
                    can_issue = false;
                } else if let Some(p) = (0..cfg.mem_ports)
                    .find(|&p| mem_port_free[p] <= cycle && mem_issued_now < cfg.mem_ports)
                {
                    port = p;
                } else {
                    can_issue = false;
                }
            }
            if can_issue {
                let fin = cycle + slot.latency;
                if let Some(rd) = trace[op_ix].instr.writes() {
                    reg_ready[rd as usize] = fin;
                }
                if slot.is_mem {
                    mem_port_free[port] = fin;
                    last_mem_issue = cycle + 1;
                    mem_issued_now += 1;
                }
                issued[op_ix] = true;
                finish[op_ix] = fin;
                last_finish = last_finish.max(fin);
                completed += 1;
                issued_now += 1;
                slots.remove(i);
                continue;
            }
            i += 1;
        }
        cycle += 1;
        // Safety valve against modelling bugs.
        if cycle > 1_000_000 + trace.len() as u64 * 64 {
            break;
        }
    }

    SuperscalarEstimate { cycles: last_finish.max(cycle), instructions: trace.len() as u64 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::bus::FlatBus;
    use crate::core::Core;

    fn trace_of(asm: Assembler) -> Vec<TraceOp> {
        let words = asm.finish().unwrap();
        let mut bus = FlatBus::new(64 * 1024, 1);
        bus.load_program(0, &words);
        let mut core = Core::new(0, 0);
        capture_trace(&mut core, &mut bus, 100_000)
    }

    #[test]
    fn independent_ops_reach_ipc_2() {
        let mut a = Assembler::new();
        for i in 0..64 {
            let rd = (1 + (i % 8)) as u8;
            a.addi(rd, 0, i);
        }
        a.ebreak();
        let trace = trace_of(a);
        let est = estimate_cycles(&trace, SuperscalarConfig::default());
        assert!(est.ipc() > 1.6, "independent ALU ops should dual-issue: ipc {}", est.ipc());
    }

    #[test]
    fn dependent_chain_is_serial() {
        let mut a = Assembler::new();
        a.li(1, 0);
        for _ in 0..64 {
            a.addi(1, 1, 1);
        }
        a.ebreak();
        let trace = trace_of(a);
        let est = estimate_cycles(&trace, SuperscalarConfig::default());
        assert!(est.ipc() < 1.2, "a true-dependence chain cannot dual-issue: ipc {}", est.ipc());
    }

    #[test]
    fn extra_mem_ports_help_memory_bursts() {
        let mut a = Assembler::new();
        a.li(1, 0x1000);
        for i in 0..32 {
            a.lw((2 + (i % 6)) as u8, 1, i * 4);
        }
        a.ebreak();
        let trace = trace_of(a);
        let one_port =
            estimate_cycles(&trace, SuperscalarConfig { mem_ports: 1, ..Default::default() });
        let two_ports =
            estimate_cycles(&trace, SuperscalarConfig { mem_ports: 2, ..Default::default() });
        assert!(
            two_ports.cycles <= one_port.cycles,
            "the Sec. 3.3 dual ports must not hurt: {} vs {}",
            two_ports.cycles,
            one_port.cycles
        );
    }

    #[test]
    fn wider_issue_never_slower() {
        let mut a = Assembler::new();
        a.li(1, 0x2000);
        for i in 0..16 {
            a.lw(2, 1, i * 4);
            a.addi(3, 2, 1);
            a.addi(4, 4, 1);
        }
        a.ebreak();
        let trace = trace_of(a);
        let w1 = estimate_cycles(&trace, SuperscalarConfig { width: 1, ..Default::default() });
        let w2 = estimate_cycles(&trace, SuperscalarConfig { width: 2, ..Default::default() });
        let w4 = estimate_cycles(&trace, SuperscalarConfig { width: 4, ..Default::default() });
        assert!(w2.cycles <= w1.cycles);
        assert!(w4.cycles <= w2.cycles);
    }

    #[test]
    fn trace_capture_records_memory_costs() {
        let mut a = Assembler::new();
        a.li(1, 0x100);
        a.sw(1, 1, 0);
        a.lw(2, 1, 0);
        a.ebreak();
        let trace = trace_of(a);
        let mems: Vec<_> = trace.iter().filter(|t| t.mem_cycles.is_some()).collect();
        assert_eq!(mems.len(), 2, "one store + one load traced");
    }

    #[test]
    fn estimate_is_deterministic() {
        let mut a = Assembler::new();
        a.li(1, 5);
        a.mul(2, 1, 1);
        a.ebreak();
        let trace = trace_of(a);
        let e1 = estimate_cycles(&trace, SuperscalarConfig::default());
        let e2 = estimate_cycles(&trace, SuperscalarConfig::default());
        assert_eq!(e1, e2);
    }
}
