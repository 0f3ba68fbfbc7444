//! The 5-stage, single-issue, in-order core (the paper bases its prototype
//! on Rocket with a 5-stage pipeline; Sec. 2.2 describes the integration
//! points this model reproduces).
//!
//! # Timing model
//!
//! The simulator is instruction-driven but charges pipeline-accurate stall
//! cycles per retired instruction:
//!
//! * base CPI of 1 (5-stage in-order, full forwarding for ALU results);
//! * instruction fetch beyond 1 cycle stalls IF (`fetch.cycles − 1`);
//! * data access beyond 1 cycle stalls MA (`mem.cycles − 1`);
//! * **load-use hazard**: an instruction consuming the result of the
//!   immediately preceding load stalls 1 cycle — unless the load was served
//!   by the L1.5 *and* the forwarding channel of Fig. 3 ⓓ is enabled, in
//!   which case the dependent data is passed straight from the L1.5's data
//!   port into EX and the stall disappears. Disabling the channel
//!   (`TimingConfig::l15_forwarding = false`) charges the write-back
//!   round-trip instead, which is the ablation the paper's channel design
//!   motivates;
//! * taken branches/jumps flush IF/ID (2 cycles);
//! * M-extension ops take 3 extra cycles;
//! * TLB walks add their penalty to the access.

use crate::bus::{FetchLine, Fetched, SystemBus};
use crate::csr::{cause, CsrFile, PrivLevel};
use crate::isa::{AluOp, BranchOp, CsrOp, Instr, L15Op, LoadOp, MulOp};
use crate::mmu::Mmu;

/// Marks an entry of a [`Core::run_private`] queue whose store the bus
/// posted; the entry's cycles are the bits below it.
pub const POSTED: u32 = 1 << 31;

/// Pipeline timing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingConfig {
    /// Cycles lost on a taken branch or jump (IF/ID flush).
    pub branch_flush: u32,
    /// Extra cycles for multiply/divide.
    pub muldiv_extra: u32,
    /// Extra stall when a dependent instruction follows a load (load-use).
    pub load_use_stall: u32,
    /// Whether the L1.5 → EX forwarding channel (Fig. 3 ⓓ) is present.
    pub l15_forwarding: bool,
    /// Write-back round-trip charged for an L1.5 load-use when the
    /// forwarding channel is absent.
    pub l15_no_forward_stall: u32,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            branch_flush: 2,
            muldiv_extra: 3,
            load_use_stall: 1,
            l15_forwarding: true,
            l15_no_forward_stall: 2,
        }
    }
}

/// What one [`Core::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// An instruction retired normally.
    Retired(Instr),
    /// A trap was taken (architecturally: `mepc`/`mcause` written, PC moved
    /// to `mtvec`). The payload is the cause code.
    Trap(u32),
    /// `ebreak` retired: the core halted (simulation convention).
    Halted,
    /// `wfi` retired: the core idles until the platform wakes it.
    Wfi,
    /// `ecall` with `mtvec == 0`: treated as a host call / clean exit for
    /// bare-metal programs.
    HostCall,
}

/// Per-stage stall breakdown of one step.
///
/// Pure accounting derived from the cycles already charged — computing it
/// never changes the timing model, so traced and untraced runs stay
/// cycle-identical (the parity contract of `l15-trace`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stalls {
    /// IF-stage bubbles: instruction TLB walk + fetch beyond 1 cycle.
    pub if_stall: u32,
    /// MA-stage bubbles: data TLB walk + access beyond 1 cycle (includes
    /// L1.5 control-port latency, which occupies MA like a store).
    pub ma_stall: u32,
    /// Load-use hazard cycles.
    pub hazard: u32,
    /// Branch/jump flush cycles.
    pub flush: u32,
    /// EX extension cycles (multiply/divide).
    pub ex: u32,
}

impl Stalls {
    /// Total stall cycles beyond the base CPI of 1.
    pub fn total(&self) -> u32 {
        self.if_stall + self.ma_stall + self.hazard + self.flush + self.ex
    }

    /// Whether any component is non-zero.
    pub fn any(&self) -> bool {
        self.total() != 0
    }
}

/// Result of one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// Cycles consumed by this instruction (≥ 1).
    pub cycles: u32,
    /// What happened.
    pub event: StepEvent,
    /// Where the cycles beyond the base CPI went.
    pub stalls: Stalls,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct HazardState {
    /// Destination of the immediately preceding load, if any.
    last_load_rd: Option<u8>,
    /// Whether that load was served by the L1.5.
    last_load_from_l15: bool,
}

/// Execution statistics of one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoreStats {
    /// Retired instructions.
    pub instructions: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Load-use stall cycles charged.
    pub hazard_stalls: u64,
    /// Branch-flush cycles charged.
    pub flush_cycles: u64,
    /// Traps taken.
    pub traps: u64,
}

/// One RV32 hart.
#[derive(Debug, Clone)]
pub struct Core {
    id: usize,
    regs: [u32; 32],
    pc: u32,
    priv_level: PrivLevel,
    csr: CsrFile,
    mmu: Mmu,
    timing: TimingConfig,
    hazard: HazardState,
    halted: bool,
    stats: CoreStats,
}

impl Core {
    /// Creates core `id` starting at `reset_pc` in machine mode.
    pub fn new(id: usize, reset_pc: u32) -> Self {
        Core::with_timing(id, reset_pc, TimingConfig::default())
    }

    /// Creates a core with explicit timing knobs.
    pub fn with_timing(id: usize, reset_pc: u32, timing: TimingConfig) -> Self {
        Core {
            id,
            regs: [0; 32],
            pc: reset_pc,
            priv_level: PrivLevel::Machine,
            csr: CsrFile::new(id as u32),
            mmu: Mmu::new(16, 20),
            timing,
            hazard: HazardState::default(),
            halted: false,
            stats: CoreStats::default(),
        }
    }

    /// Core (hart) id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Sets the program counter (e.g. when the kernel dispatches a task).
    pub fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    /// Current privilege level.
    pub fn priv_level(&self) -> PrivLevel {
        self.priv_level
    }

    /// Forces the privilege level (test/bring-up convenience).
    pub fn set_priv_level(&mut self, level: PrivLevel) {
        self.priv_level = level;
    }

    /// Reads register `x{idx}`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 32`.
    pub fn reg(&self, idx: usize) -> u32 {
        self.regs[idx]
    }

    /// Writes register `x{idx}` (writes to `x0` are discarded).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 32`.
    pub fn set_reg(&mut self, idx: usize, value: u32) {
        if idx != 0 {
            self.regs[idx] = value;
        }
    }

    /// The MMU, for installing address-space mappings.
    pub fn mmu_mut(&mut self) -> &mut Mmu {
        &mut self.mmu
    }

    /// The CSR file.
    pub fn csr(&self) -> &CsrFile {
        &self.csr
    }

    /// Mutable CSR file (kernel-level manipulation).
    pub fn csr_mut(&mut self) -> &mut CsrFile {
        &mut self.csr
    }

    /// Whether the core has halted (`ebreak`).
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Clears the halted flag (e.g. after the kernel reprograms the PC).
    pub fn resume(&mut self) {
        self.halted = false;
    }

    /// Halts the core (kernel-level: park an idle core).
    pub fn halt(&mut self) {
        self.halted = true;
    }

    /// Execution statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    #[inline]
    fn translate(&mut self, vaddr: u32) -> Result<(u32, u32), u32> {
        // Machine mode runs bare; user mode goes through the segment MMU.
        if self.priv_level == PrivLevel::Machine {
            return Ok((vaddr, 0));
        }
        self.mmu.translate(self.csr.asid(), vaddr).map_err(|_| cause::LOAD_PAGE_FAULT)
    }

    fn trap(&mut self, code: u32, tval: u32) -> StepEvent {
        self.stats.traps += 1;
        self.csr.enter_trap(code, self.pc, tval, self.priv_level);
        self.priv_level = PrivLevel::Machine;
        let tvec = self.csr.mtvec();
        if tvec == 0 {
            // No handler installed: halt rather than spin at PC 0.
            self.halted = true;
            return StepEvent::Trap(code);
        }
        self.pc = tvec;
        StepEvent::Trap(code)
    }

    /// Executes one instruction against `bus`.
    ///
    /// Returns the cycles consumed and the event. A halted core returns
    /// 1 idle cycle with [`StepEvent::Halted`].
    pub fn step<B: SystemBus + ?Sized>(&mut self, bus: &mut B) -> StepOutcome {
        if self.halted {
            self.stats.cycles += 1;
            self.csr.cycle += 1;
            return StepOutcome { cycles: 1, event: StepEvent::Halted, stalls: Stalls::default() };
        }
        // --- IF: translate + fetch ---------------------------------------
        let (ppc, tlb_cost) = match self.translate(self.pc) {
            Ok(v) => v,
            Err(_) => {
                let event = self.trap(cause::INSTRUCTION_PAGE_FAULT, self.pc);
                self.finish(1, &Stalls::default(), HazardState::default());
                return StepOutcome { cycles: 1, event, stalls: Stalls::default() };
            }
        };
        let fetch = bus.fetch(self.id, self.pc, ppc);
        self.execute::<B, false>(bus, fetch, tlb_cost).expect("only a private step refuses").0
    }

    /// [`step`](Self::step)s, cycles and every core-side update alike, while
    /// each touches only this core and what `bus` holds for it alone,
    /// pushing their cycles onto `queue` up to `cap` entries; returns their
    /// sum, an entry whose store the bus posted marked with [`POSTED`].
    /// Private: machine mode, a fetch from a [`FetchLine`], then `lui` /
    /// `auipc` / `jal` / `jalr` / a branch / an ALU or M op / `fence`, or an
    /// aligned load or store the bus serves privately or posts. The first
    /// that is not (`csr*`, L1.5 control, `ecall` / `ebreak` / `mret` /
    /// `wfi`, a trap) leaves core and bus as it found them. No private access
    /// touches an instruction line or a counter: one lookup per line, and
    /// the run's fetches, instructions and cycles counted once at its end.
    pub fn run_private<B: SystemBus + ?Sized>(
        &mut self,
        bus: &mut B,
        cap: usize,
        queue: &mut Vec<u32>,
    ) -> u32 {
        if self.halted || self.priv_level != PrivLevel::Machine {
            return 0;
        }
        let first = queue.len();
        let (mut total, mut hazard, mut flush) = (0, 0, 0);
        let mut line = FetchLine::default();
        while queue.len() < cap {
            // Machine mode runs bare: the PC is the physical address.
            let pc = self.pc;
            let Some(slot) = line.slot_of(pc).or_else(|| {
                line = bus.fetch_line(self.id, pc)?;
                line.slot_of(pc)
            }) else {
                break;
            };
            // The word is read only by traps, and a private run refuses those.
            let instr = bus.predecoded(self.id, slot);
            let fetch = Fetched { word: 0, cycles: line.cycles, instr };
            let Some((out, posted)) = self.execute::<B, true>(bus, fetch, 0) else { break };
            debug_assert!(out.cycles < POSTED, "a private step costs {} cycles", out.cycles);
            queue.push(if posted { out.cycles | POSTED } else { out.cycles });
            total += out.cycles;
            hazard += out.stalls.hazard;
            flush += out.stalls.flush;
        }
        let n = (queue.len() - first) as u64;
        bus.count_line_fetches(self.id, n);
        self.stats.instructions += n;
        self.csr.instret += n;
        self.stats.cycles += total as u64;
        self.csr.cycle += total as u64;
        self.stats.hazard_stalls += hazard as u64;
        self.stats.flush_cycles += flush as u64;
        total
    }

    /// The one execute body, from ID on: `fetch` is what IF read after a
    /// `tlb_cost`-cycle translation; returns the outcome and whether the bus
    /// posted a store. `PRIVATE` takes the private side of the bus, refuses
    /// shared events, writing nothing before the last refusal point, and
    /// leaves the counters to [`run_private`](Self::run_private).
    #[inline]
    fn execute<B: SystemBus + ?Sized, const PRIVATE: bool>(
        &mut self,
        bus: &mut B,
        fetch: Fetched,
        tlb_cost: u32,
    ) -> Option<(StepOutcome, bool)> {
        let if_stall = tlb_cost + fetch.cycles.saturating_sub(1);
        let mut cycles = 1 + if_stall;
        let mut stalls = Stalls { if_stall, ..Stalls::default() };
        let mut next_hazard = HazardState::default();

        macro_rules! take_trap {
            ($code:expr, $tval:expr) => {{
                if PRIVATE {
                    return None;
                }
                let ev = self.trap($code, $tval);
                self.finish(cycles, &stalls, next_hazard);
                return Some((StepOutcome { cycles, event: ev, stalls }, false));
            }};
        }

        // --- ID: the bus decoded the word ---------------------------------
        let Some(instr) = fetch.instr else {
            take_trap!(cause::ILLEGAL_INSTRUCTION, fetch.word);
        };
        let system = matches!(instr, Instr::Ecall | Instr::Ebreak | Instr::Mret | Instr::Wfi)
            || matches!(instr, Instr::Csr { .. } | Instr::L15 { .. });
        if PRIVATE && system {
            return None;
        }

        // Load-use hazard against the previous instruction.
        if let Some(rd) = self.hazard.last_load_rd {
            if instr.reads_reg(rd) {
                let stall = if self.hazard.last_load_from_l15 {
                    if self.timing.l15_forwarding {
                        0
                    } else {
                        self.timing.l15_no_forward_stall
                    }
                } else {
                    self.timing.load_use_stall
                };
                cycles += stall;
                stalls.hazard += stall;
            }
        }

        // --- EX/MA/WB -------------------------------------------------------
        let mut next_pc = self.pc.wrapping_add(4);
        let mut event = StepEvent::Retired(instr);
        let mut posted = false;
        // A taken branch or jump to `$target`: the IF/ID flush.
        macro_rules! jump {
            ($target:expr) => {{
                next_pc = $target;
                cycles += self.timing.branch_flush;
                stalls.flush += self.timing.branch_flush;
                if !PRIVATE {
                    self.stats.flush_cycles += self.timing.branch_flush as u64;
                }
            }};
        }

        match instr {
            Instr::Lui { rd, imm } => self.set_reg(rd as usize, imm as u32),
            Instr::Auipc { rd, imm } => self.set_reg(rd as usize, self.pc.wrapping_add(imm as u32)),
            Instr::Jal { rd, imm } => {
                self.set_reg(rd as usize, self.pc.wrapping_add(4));
                jump!(self.pc.wrapping_add(imm as u32));
            }
            Instr::Jalr { rd, rs1, imm } => {
                let target = self.regs[rs1 as usize].wrapping_add(imm as u32) & !1;
                self.set_reg(rd as usize, self.pc.wrapping_add(4));
                jump!(target);
            }
            Instr::Branch { op, rs1, rs2, imm } => {
                let a = self.regs[rs1 as usize];
                let b = self.regs[rs2 as usize];
                let taken = match op {
                    BranchOp::Eq => a == b,
                    BranchOp::Ne => a != b,
                    BranchOp::Lt => (a as i32) < (b as i32),
                    BranchOp::Ge => (a as i32) >= (b as i32),
                    BranchOp::Ltu => a < b,
                    BranchOp::Geu => a >= b,
                };
                if taken {
                    jump!(self.pc.wrapping_add(imm as u32));
                }
            }
            Instr::Load { op, rd, rs1, imm } => {
                let vaddr = self.regs[rs1 as usize].wrapping_add(imm as u32);
                if !vaddr.is_multiple_of(op.size()) {
                    take_trap!(cause::LOAD_PAGE_FAULT, vaddr);
                }
                let (paddr, tlb) = match self.translate(vaddr) {
                    Ok(v) => v,
                    Err(c) => take_trap!(c, vaddr),
                };
                cycles += tlb;
                stalls.ma_stall += tlb;
                let access = if PRIVATE {
                    bus.load_private(self.id, paddr, op.size())?
                } else {
                    bus.load(self.id, vaddr, paddr, op.size())
                };
                cycles += access.cycles.saturating_sub(1);
                stalls.ma_stall += access.cycles.saturating_sub(1);
                let value = match op {
                    LoadOp::Byte => access.value as u8 as i8 as i32 as u32,
                    LoadOp::Half => access.value as u16 as i16 as i32 as u32,
                    LoadOp::Word => access.value,
                    LoadOp::ByteU => access.value & 0xff,
                    LoadOp::HalfU => access.value & 0xffff,
                };
                self.set_reg(rd as usize, value);
                next_hazard = HazardState {
                    last_load_rd: if rd == 0 { None } else { Some(rd) },
                    last_load_from_l15: access.from_l15,
                };
            }
            Instr::Store { op, rs1, rs2, imm } => {
                let vaddr = self.regs[rs1 as usize].wrapping_add(imm as u32);
                if !vaddr.is_multiple_of(op.size()) {
                    take_trap!(cause::STORE_PAGE_FAULT, vaddr);
                }
                let (paddr, tlb) = match self.translate(vaddr) {
                    Ok(v) => v,
                    Err(_) => take_trap!(cause::STORE_PAGE_FAULT, vaddr),
                };
                cycles += tlb;
                stalls.ma_stall += tlb;
                let value = self.regs[rs2 as usize];
                let cost = if PRIVATE {
                    let (cost, was_posted) = bus.store_private(self.id, paddr, op.size(), value)?;
                    posted = was_posted;
                    cost
                } else {
                    bus.store(self.id, vaddr, paddr, op.size(), value)
                };
                cycles += cost.saturating_sub(1);
                stalls.ma_stall += cost.saturating_sub(1);
            }
            Instr::OpImm { op, rd, rs1, imm } => {
                let v = alu(op, self.regs[rs1 as usize], imm as u32);
                self.set_reg(rd as usize, v);
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                let v = alu(op, self.regs[rs1 as usize], self.regs[rs2 as usize]);
                self.set_reg(rd as usize, v);
            }
            Instr::MulDiv { op, rd, rs1, rs2 } => {
                let a = self.regs[rs1 as usize];
                let b = self.regs[rs2 as usize];
                let v = muldiv(op, a, b);
                self.set_reg(rd as usize, v);
                cycles += self.timing.muldiv_extra;
                stalls.ex += self.timing.muldiv_extra;
            }
            Instr::Fence => {}
            Instr::Ecall => {
                if self.csr.mtvec() == 0 {
                    // Bare-metal convention: host call / exit.
                    self.halted = true;
                    event = StepEvent::HostCall;
                } else {
                    let code = match self.priv_level {
                        PrivLevel::User => cause::ECALL_FROM_U,
                        PrivLevel::Machine => cause::ECALL_FROM_M,
                    };
                    take_trap!(code, 0);
                }
            }
            Instr::Ebreak => {
                self.halted = true;
                event = StepEvent::Halted;
            }
            Instr::Mret => {
                if self.priv_level != PrivLevel::Machine {
                    take_trap!(cause::ILLEGAL_INSTRUCTION, fetch.word);
                }
                self.priv_level = self.csr.mpp;
                next_pc = self.csr.mepc();
                cycles += self.timing.branch_flush;
                stalls.flush += self.timing.branch_flush;
            }
            Instr::Wfi => {
                event = StepEvent::Wfi;
            }
            Instr::Csr { op, rd, src, csr, imm_form } => {
                // Machine CSRs (0x3xx, 0xF1x) require machine mode.
                let needs_m = matches!(csr >> 8, 0x3 | 0xF | 0x7);
                if needs_m && self.priv_level != PrivLevel::Machine {
                    take_trap!(cause::ILLEGAL_INSTRUCTION, fetch.word);
                }
                let old = self.csr.read(csr);
                let operand = if imm_form { src as u32 } else { self.regs[src as usize] };
                let new = match op {
                    CsrOp::ReadWrite => Some(operand),
                    CsrOp::ReadSet => {
                        if src == 0 {
                            None
                        } else {
                            Some(old | operand)
                        }
                    }
                    CsrOp::ReadClear => {
                        if src == 0 {
                            None
                        } else {
                            Some(old & !operand)
                        }
                    }
                };
                if let Some(v) = new {
                    self.csr.write(csr, v);
                }
                self.set_reg(rd as usize, old);
            }
            Instr::L15 { op, rd, rs1 } => {
                // The Mini-Decoder routes these to the L1.5 control port
                // instead of the LSU (Fig. 3 ⓑ). `demand` is privileged.
                if op.privileged() && self.priv_level != PrivLevel::Machine {
                    take_trap!(cause::ILLEGAL_INSTRUCTION, fetch.word);
                }
                let arg = match op {
                    L15Op::Demand | L15Op::GvSet | L15Op::IpSet => self.regs[rs1 as usize],
                    L15Op::Supply | L15Op::GvGet => 0,
                };
                let ctrl = bus.l15_ctrl(self.id, op, arg);
                cycles += ctrl.cycles.saturating_sub(1);
                stalls.ma_stall += ctrl.cycles.saturating_sub(1);
                if matches!(op, L15Op::Supply | L15Op::GvGet) {
                    self.set_reg(rd as usize, ctrl.value);
                }
            }
        }

        self.pc = next_pc;
        if PRIVATE {
            self.hazard = next_hazard;
        } else {
            self.stats.instructions += 1;
            self.csr.instret += 1;
            self.finish(cycles, &stalls, next_hazard);
        }
        debug_assert_eq!(cycles, 1 + stalls.total(), "stall breakdown must account every cycle");
        Some((StepOutcome { cycles, event, stalls }, posted))
    }

    fn finish(&mut self, cycles: u32, stalls: &Stalls, next_hazard: HazardState) {
        self.hazard = next_hazard;
        self.stats.hazard_stalls += stalls.hazard as u64;
        self.stats.cycles += cycles as u64;
        self.csr.cycle += cycles as u64;
    }

    /// Runs until the core halts or `max_steps` instructions retire.
    /// Returns total cycles.
    pub fn run<B: SystemBus + ?Sized>(&mut self, bus: &mut B, max_steps: u64) -> u64 {
        let mut total = 0u64;
        for _ in 0..max_steps {
            let out = self.step(bus);
            total += out.cycles as u64;
            if self.halted {
                break;
            }
        }
        total
    }
}

fn alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a.wrapping_shl(b & 0x1f),
        AluOp::Slt => ((a as i32) < (b as i32)) as u32,
        AluOp::Sltu => (a < b) as u32,
        AluOp::Xor => a ^ b,
        AluOp::Srl => a.wrapping_shr(b & 0x1f),
        AluOp::Sra => ((a as i32).wrapping_shr(b & 0x1f)) as u32,
        AluOp::Or => a | b,
        AluOp::And => a & b,
    }
}

fn muldiv(op: MulOp, a: u32, b: u32) -> u32 {
    match op {
        MulOp::Mul => a.wrapping_mul(b),
        MulOp::Mulh => (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32,
        MulOp::Mulhsu => (((a as i32 as i64) * (b as u64 as i64)) >> 32) as u32,
        MulOp::Mulhu => (((a as u64) * (b as u64)) >> 32) as u32,
        MulOp::Div => {
            if b == 0 {
                u32::MAX
            } else if a == 0x8000_0000 && b == u32::MAX {
                a
            } else {
                ((a as i32) / (b as i32)) as u32
            }
        }
        MulOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
        MulOp::Rem => {
            if b == 0 {
                a
            } else if a == 0x8000_0000 && b == u32::MAX {
                0
            } else {
                ((a as i32) % (b as i32)) as u32
            }
        }
        MulOp::Remu => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::bus::FlatBus;
    use crate::csr::addr as csr_addr;

    fn run_program(asm: Assembler) -> (Core, FlatBus) {
        let words = asm.finish().expect("assembly succeeds");
        let mut bus = FlatBus::new(64 * 1024, 1);
        bus.load_program(0, &words);
        let mut core = Core::new(0, 0);
        core.run(&mut bus, 10_000);
        (core, bus)
    }

    #[test]
    fn arithmetic_program() {
        let mut a = Assembler::new();
        a.li(1, 20);
        a.li(2, 22);
        a.add(3, 1, 2);
        a.ebreak();
        let (core, _) = run_program(a);
        assert_eq!(core.reg(3), 42);
        assert!(core.is_halted());
    }

    #[test]
    fn memory_roundtrip() {
        let mut a = Assembler::new();
        a.li(1, 0x100);
        a.li(2, 0x1234);
        a.sw(1, 2, 0);
        a.lw(3, 1, 0);
        a.ebreak();
        let (core, bus) = run_program(a);
        assert_eq!(core.reg(3), 0x1234);
        assert_eq!(bus.read_u32(0x100), 0x1234);
    }

    #[test]
    fn branch_loop_sums() {
        // sum 1..=5 in x3
        let mut a = Assembler::new();
        a.li(1, 5); // counter
        a.li(3, 0); // acc
        a.label("loop");
        a.add(3, 3, 1);
        a.addi(1, 1, -1);
        a.bne(1, 0, "loop");
        a.ebreak();
        let (core, _) = run_program(a);
        assert_eq!(core.reg(3), 15);
    }

    #[test]
    fn signed_loads() {
        let mut a = Assembler::new();
        a.li(1, 0x200);
        a.li(2, 0xFF); // byte 0xFF
        a.sb(1, 2, 0);
        a.lb(3, 1, 0); // sign-extended: -1
        a.lbu(4, 1, 0); // zero-extended: 255
        a.ebreak();
        let (core, _) = run_program(a);
        assert_eq!(core.reg(3), 0xffff_ffff);
        assert_eq!(core.reg(4), 0xff);
    }

    #[test]
    fn muldiv_works() {
        let mut a = Assembler::new();
        a.li(1, 7);
        a.li(2, 6);
        a.mul(3, 1, 2);
        a.li(4, 100);
        a.div(5, 4, 1);
        a.rem(6, 4, 1);
        a.ebreak();
        let (core, _) = run_program(a);
        assert_eq!(core.reg(3), 42);
        assert_eq!(core.reg(5), 14);
        assert_eq!(core.reg(6), 2);
    }

    #[test]
    fn load_use_hazard_costs_a_cycle() {
        // lw followed by dependent add stalls; independent add does not.
        let mut dep = Assembler::new();
        dep.li(1, 0x100);
        dep.lw(2, 1, 0);
        dep.add(3, 2, 2); // dependent
        dep.ebreak();
        let (c_dep, _) = run_program(dep);

        let mut indep = Assembler::new();
        indep.li(1, 0x100);
        indep.lw(2, 1, 0);
        indep.add(3, 1, 1); // independent
        indep.ebreak();
        let (c_ind, _) = run_program(indep);

        assert_eq!(
            c_dep.stats().cycles,
            c_ind.stats().cycles + 1,
            "load-use must cost exactly the stall cycle"
        );
        assert_eq!(c_dep.stats().hazard_stalls, 1);
        assert_eq!(c_ind.stats().hazard_stalls, 0);
    }

    #[test]
    fn taken_branch_flushes() {
        let mut taken = Assembler::new();
        taken.li(1, 1);
        taken.beq(0, 0, "skip"); // always taken
        taken.li(1, 2);
        taken.label("skip");
        taken.ebreak();
        let (c_taken, _) = run_program(taken);
        assert_eq!(c_taken.reg(1), 1);
        assert!(c_taken.stats().flush_cycles >= 2);
    }

    #[test]
    fn ecall_without_handler_is_hostcall() {
        let mut a = Assembler::new();
        a.li(10, 99);
        a.ecall();
        let words = a.finish().unwrap();
        let mut bus = FlatBus::new(1024, 1);
        bus.load_program(0, &words);
        let mut core = Core::new(0, 0);
        let mut last = StepEvent::Retired(Instr::Fence);
        for _ in 0..10 {
            last = core.step(&mut bus).event;
            if core.is_halted() {
                break;
            }
        }
        assert_eq!(last, StepEvent::HostCall);
        assert_eq!(core.reg(10), 99);
    }

    #[test]
    fn trap_and_mret_roundtrip() {
        // Handler at 0x100 returns; main does ecall then continues.
        let mut a = Assembler::new();
        // main at 0
        a.csrw(csr_addr::MTVEC, 1, 0x100); // uses x1 as scratch
        a.li(5, 1);
        a.ecall();
        a.li(6, 2);
        a.ebreak();
        let words = a.finish().unwrap();

        // Handler: mark x7, advance mepc past the ecall, return.
        let handler = {
            let mut h = Assembler::new();
            h.li(7, 42);
            h.csrr(8, csr_addr::MEPC);
            h.addi(8, 8, 4);
            h.csrw_reg(csr_addr::MEPC, 8);
            h.mret();
            h.finish().unwrap()
        };

        let mut bus = FlatBus::new(4096, 1);
        bus.load_program(0, &words);
        bus.load_program(0x100, &handler);
        let mut core = Core::new(0, 0);
        core.run(&mut bus, 1000);
        assert_eq!(core.reg(7), 42, "handler ran");
        assert_eq!(core.reg(6), 2, "main resumed after ecall");
        assert!(core.stats().traps >= 1);
    }

    #[test]
    fn demand_is_privileged() {
        let mut a = Assembler::new();
        a.li(1, 3);
        a.demand(1);
        a.ebreak();
        let words = a.finish().unwrap();
        let mut bus = FlatBus::new(1024, 1);
        bus.load_program(0, &words);
        // In machine mode: fine.
        let mut core = Core::new(0, 0);
        core.run(&mut bus, 100);
        assert_eq!(core.stats().traps, 0);
        // In user mode: illegal instruction.
        let mut core = Core::new(0, 0);
        core.set_priv_level(PrivLevel::User);
        let mut trapped = false;
        for _ in 0..100 {
            if let StepEvent::Trap(c) = core.step(&mut bus).event {
                assert_eq!(c, cause::ILLEGAL_INSTRUCTION);
                trapped = true;
                break;
            }
            if core.is_halted() {
                break;
            }
        }
        assert!(trapped, "user-mode demand must trap");
    }

    #[test]
    fn misaligned_access_traps() {
        let mut a = Assembler::new();
        a.li(1, 0x101);
        a.lw(2, 1, 0);
        a.ebreak();
        let words = a.finish().unwrap();
        let mut bus = FlatBus::new(1024, 1);
        bus.load_program(0, &words);
        let mut core = Core::new(0, 0);
        let mut trapped = false;
        for _ in 0..10 {
            if matches!(core.step(&mut bus).event, StepEvent::Trap(_)) {
                trapped = true;
                break;
            }
            if core.is_halted() {
                break;
            }
        }
        assert!(trapped);
    }

    #[test]
    fn cycle_csr_advances() {
        let mut a = Assembler::new();
        a.nop();
        a.nop();
        a.csrr(5, csr_addr::CYCLE);
        a.ebreak();
        let (core, _) = run_program(a);
        assert!(core.reg(5) >= 2);
    }
}
