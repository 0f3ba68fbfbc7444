//! Concrete mini-interpreter over generated node programs.
//!
//! DAG node programs ([`l15_runtime::workgen`]) are loop nests whose
//! control flow depends only on immediates and loop counters — never on
//! loaded data. This interpreter executes such a program with a partially
//! known register file (`Option<u32>` per register; loaded values are
//! unknown), unrolling every loop into the **exact** dynamic instruction
//! trace the RV32 core will execute. Each trace step records precisely the
//! facts the timing bound needs: the fetch address, the data access (if
//! any), whether the step flushes the pipeline (taken branch or jump), the
//! multiply/divide penalty and the load-use hazard against the previous
//! step.
//!
//! Programs outside the supported shape — an address or branch operand
//! that is not statically known, or a trace longer than the step cap —
//! yield a typed [`InterpError`] instead of a wrong trace, which callers
//! surface as a "not statically justified" finding.

use l15_rvcore::isa::{self, AluOp, Instr};

/// One dynamically executed instruction of a node program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStep {
    /// Address the instruction was fetched from.
    pub fetch: u32,
    /// The data access: `(is_store, address)`.
    pub mem: Option<(bool, u32)>,
    /// Destination register of a load (drives the next step's load-use
    /// hazard), `None` for non-loads.
    pub load_rd: Option<u8>,
    /// Whether this step reads the previous step's load destination.
    pub load_use: bool,
    /// Taken branch / jump: the pipeline flush penalty applies.
    pub flush: bool,
    /// M-extension instruction: the multiply/divide penalty applies.
    pub muldiv: bool,
}

/// Why a program could not be interpreted to a finite concrete trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// The word at `pc` does not decode.
    BadInstruction {
        /// Fetch address of the undecodable word.
        pc: u32,
    },
    /// A branch condition, jump target or memory address depends on a
    /// value the interpreter does not track (e.g. loaded data).
    UnknownValue {
        /// Fetch address of the offending instruction.
        pc: u32,
        /// What was needed ("branch operand", "load address", …).
        what: &'static str,
    },
    /// The program ran past the step cap without halting.
    StepCap {
        /// The cap that was exceeded.
        cap: usize,
    },
    /// Control flow left the program image.
    OutOfRange {
        /// The out-of-range fetch address.
        pc: u32,
    },
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::BadInstruction { pc } => write!(f, "undecodable instruction at {pc:#x}"),
            InterpError::UnknownValue { pc, what } => {
                write!(f, "statically unknown {what} at {pc:#x}")
            }
            InterpError::StepCap { cap } => write!(f, "trace exceeds {cap} steps"),
            InterpError::OutOfRange { pc } => write!(f, "control flow left the program at {pc:#x}"),
        }
    }
}

impl std::error::Error for InterpError {}

/// Default dynamic step cap: far beyond any generated node program
/// (δ ≤ 64 KiB sweeps ≈ 82k dynamic instructions), yet bounded.
pub const STEP_CAP: usize = 2_000_000;

/// Interprets `program` (little-endian words loaded at `base`) until its
/// `ebreak`, returning the exact dynamic trace (the `ebreak` step
/// included).
///
/// # Errors
///
/// Returns [`InterpError`] when the program is not statically traceable.
pub fn trace_program(program: &[u32], base: u32) -> Result<Vec<TraceStep>, InterpError> {
    // Loops re-execute their bodies: decode each word once.
    let decoded: Vec<Option<Instr>> = program.iter().map(|&w| isa::decode(w).ok()).collect();
    let mut regs: [Option<u32>; 32] = [None; 32];
    regs[0] = Some(0);
    let mut pc = base;
    let mut out = Vec::new();
    let mut last_load_rd: Option<u8> = None;

    loop {
        if out.len() >= STEP_CAP {
            return Err(InterpError::StepCap { cap: STEP_CAP });
        }
        let index = (pc.wrapping_sub(base) / 4) as usize;
        if pc < base || index >= decoded.len() {
            return Err(InterpError::OutOfRange { pc });
        }
        let instr = decoded[index].ok_or(InterpError::BadInstruction { pc })?;

        let load_use = last_load_rd.is_some_and(|rd| instr.reads().contains(&Some(rd)));
        let mut step = TraceStep {
            fetch: pc,
            mem: None,
            load_rd: None,
            load_use,
            flush: false,
            muldiv: false,
        };
        let mut next_pc = pc.wrapping_add(4);
        let mut halt = false;

        match instr {
            Instr::Lui { rd, imm } => set(&mut regs, rd, Some(imm as u32)),
            Instr::Auipc { rd, imm } => set(&mut regs, rd, Some(pc.wrapping_add(imm as u32))),
            Instr::Jal { rd, imm } => {
                set(&mut regs, rd, Some(pc.wrapping_add(4)));
                next_pc = pc.wrapping_add(imm as u32);
                step.flush = true;
            }
            Instr::Jalr { rd, rs1, imm } => {
                let target = regs[rs1 as usize]
                    .ok_or(InterpError::UnknownValue { pc, what: "jump target" })?;
                set(&mut regs, rd, Some(pc.wrapping_add(4)));
                next_pc = target.wrapping_add(imm as u32) & !1;
                step.flush = true;
            }
            Instr::Branch { op, rs1, rs2, imm } => {
                let a = regs[rs1 as usize]
                    .ok_or(InterpError::UnknownValue { pc, what: "branch operand" })?;
                let b = regs[rs2 as usize]
                    .ok_or(InterpError::UnknownValue { pc, what: "branch operand" })?;
                if branch_taken(op, a, b) {
                    next_pc = pc.wrapping_add(imm as u32);
                    step.flush = true;
                }
            }
            Instr::Load { rd, rs1, imm, .. } => {
                let addr = regs[rs1 as usize]
                    .ok_or(InterpError::UnknownValue { pc, what: "load address" })?
                    .wrapping_add(imm as u32);
                step.mem = Some((false, addr));
                step.load_rd = if rd == 0 { None } else { Some(rd) };
                set(&mut regs, rd, None);
            }
            Instr::Store { rs1, imm, .. } => {
                let addr = regs[rs1 as usize]
                    .ok_or(InterpError::UnknownValue { pc, what: "store address" })?
                    .wrapping_add(imm as u32);
                step.mem = Some((true, addr));
            }
            Instr::OpImm { op, rd, rs1, imm } => {
                let v = regs[rs1 as usize].map(|a| alu(op, a, imm as u32));
                set(&mut regs, rd, v);
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                let v = match (regs[rs1 as usize], regs[rs2 as usize]) {
                    (Some(a), Some(b)) => Some(alu(op, a, b)),
                    _ => None,
                };
                set(&mut regs, rd, v);
            }
            Instr::MulDiv { rd, .. } => {
                // Products never feed control flow or addresses in the
                // supported programs; tracking the value is unnecessary.
                set(&mut regs, rd, None);
                step.muldiv = true;
            }
            Instr::Ebreak => halt = true,
            Instr::Fence | Instr::Wfi => {}
            Instr::Ecall | Instr::Mret | Instr::Csr { .. } | Instr::L15 { .. } => {
                return Err(InterpError::UnknownValue { pc, what: "privileged instruction" });
            }
        }

        last_load_rd = step.load_rd;
        out.push(step);
        if halt {
            return Ok(out);
        }
        pc = next_pc;
    }
}

fn set(regs: &mut [Option<u32>; 32], rd: u8, v: Option<u32>) {
    if rd != 0 {
        regs[rd as usize] = v;
    }
}

fn branch_taken(op: isa::BranchOp, a: u32, b: u32) -> bool {
    use isa::BranchOp::*;
    match op {
        Eq => a == b,
        Ne => a != b,
        Lt => (a as i32) < (b as i32),
        Ge => (a as i32) >= (b as i32),
        Ltu => a < b,
        Geu => a >= b,
    }
}

fn alu(op: AluOp, a: u32, b: u32) -> u32 {
    use AluOp::*;
    match op {
        Add => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        Sll => a.wrapping_shl(b & 31),
        Slt => u32::from((a as i32) < (b as i32)),
        Sltu => u32::from(a < b),
        Xor => a ^ b,
        Srl => a.wrapping_shr(b & 31),
        Sra => ((a as i32).wrapping_shr(b & 31)) as u32,
        Or => a | b,
        And => a & b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l15_rvcore::asm::Assembler;

    #[test]
    fn counted_loop_unrolls_exactly() {
        // li x5, 3; loop: addi x5, x5, -1; bne x5, x0, loop; ebreak
        let mut a = Assembler::new();
        a.li(5, 3);
        a.label("loop");
        a.addi(5, 5, -1);
        a.bne(5, 0, "loop");
        a.ebreak();
        let prog = a.finish().expect("assembles");
        let trace = trace_program(&prog, 0x1000).expect("traceable");
        // 1 li + 3×(addi + bne) + ebreak = 8 dynamic instructions.
        assert_eq!(trace.len(), 8);
        // The first two bne executions are taken (flush), the last is not.
        let flushes: Vec<bool> = trace.iter().map(|s| s.flush).collect();
        assert_eq!(flushes.iter().filter(|&&f| f).count(), 2);
        assert!(!trace.last().expect("nonempty").flush);
    }

    #[test]
    fn load_use_hazard_detected() {
        // lw x6, 0(x5); add x10, x10, x6 — the classic workgen read pair.
        let mut a = Assembler::new();
        a.li(5, 0x100);
        a.li(10, 0);
        a.lw(6, 5, 0);
        a.add(10, 10, 6);
        a.add(7, 5, 5);
        a.ebreak();
        let prog = a.finish().expect("assembles");
        let trace = trace_program(&prog, 0).expect("traceable");
        let steps: Vec<(bool, Option<u8>)> =
            trace.iter().map(|s| (s.load_use, s.load_rd)).collect();
        // lw records rd; the add right after it stalls; the next does not.
        assert_eq!(steps[2], (false, Some(6)));
        assert_eq!(steps[3], (true, None));
        assert_eq!(steps[4], (false, None));
    }

    #[test]
    fn loaded_data_in_a_branch_is_rejected() {
        let mut a = Assembler::new();
        a.li(5, 0x100);
        a.lw(6, 5, 0);
        a.label("spin");
        a.bne(6, 0, "spin");
        a.ebreak();
        let prog = a.finish().expect("assembles");
        match trace_program(&prog, 0) {
            Err(InterpError::UnknownValue { what, .. }) => assert_eq!(what, "branch operand"),
            other => panic!("expected UnknownValue, got {other:?}"),
        }
    }

    #[test]
    fn runaway_loop_hits_the_cap() {
        let mut a = Assembler::new();
        a.label("forever");
        a.j("forever");
        let prog = a.finish().expect("assembles");
        assert!(matches!(trace_program(&prog, 0), Err(InterpError::StepCap { .. })));
    }
}
