//! RV32I (+ M, Zicsr) instruction set with the paper's L1.5 extension.
//!
//! The five new instructions of Tab. 1 live in the *custom-0* opcode space
//! (`0001011`), with `funct3` selecting the operation:
//!
//! | funct3 | instruction | operands | privilege |
//! |--------|-------------|----------|-----------|
//! | 0      | `demand`    | `rs1`    | kernel    |
//! | 1      | `supply`    | `rd`     | user      |
//! | 2      | `gv_set`    | `rs1`    | user      |
//! | 3      | `gv_get`    | `rd`     | user      |
//! | 4      | `ip_set`    | `rs1`    | user      |
//!
//! Way selections are compacted into bitmaps carried in `rs1`/`rd`, exactly
//! as the paper's example (`gv_set 0x42` shares ways 1 and 6).

use std::error::Error;
use std::fmt;

/// Opcode of the custom-0 space hosting the L1.5 instructions.
pub const OPCODE_CUSTOM0: u32 = 0b000_1011;

/// A register index `x0..=x31`.
pub type Reg = u8;

/// Conditional branch comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchOp {
    /// `beq`
    Eq,
    /// `bne`
    Ne,
    /// `blt` (signed)
    Lt,
    /// `bge` (signed)
    Ge,
    /// `bltu`
    Ltu,
    /// `bgeu`
    Geu,
}

/// Load widths/signedness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadOp {
    /// `lb`
    Byte,
    /// `lh`
    Half,
    /// `lw`
    Word,
    /// `lbu`
    ByteU,
    /// `lhu`
    HalfU,
}

impl LoadOp {
    /// Access size in bytes.
    pub fn size(self) -> u32 {
        match self {
            LoadOp::Byte | LoadOp::ByteU => 1,
            LoadOp::Half | LoadOp::HalfU => 2,
            LoadOp::Word => 4,
        }
    }
}

/// Store widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreOp {
    /// `sb`
    Byte,
    /// `sh`
    Half,
    /// `sw`
    Word,
}

impl StoreOp {
    /// Access size in bytes.
    pub fn size(self) -> u32 {
        match self {
            StoreOp::Byte => 1,
            StoreOp::Half => 2,
            StoreOp::Word => 4,
        }
    }
}

/// Integer ALU operations (register and immediate forms share this set;
/// `Sub` and `Sra` only exist in forms where RV32I defines them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// `add`/`addi`
    Add,
    /// `sub` (register form only)
    Sub,
    /// `sll`/`slli`
    Sll,
    /// `slt`/`slti`
    Slt,
    /// `sltu`/`sltiu`
    Sltu,
    /// `xor`/`xori`
    Xor,
    /// `srl`/`srli`
    Srl,
    /// `sra`/`srai`
    Sra,
    /// `or`/`ori`
    Or,
    /// `and`/`andi`
    And,
}

/// M-extension multiply/divide operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MulOp {
    /// `mul`
    Mul,
    /// `mulh`
    Mulh,
    /// `mulhsu`
    Mulhsu,
    /// `mulhu`
    Mulhu,
    /// `div`
    Div,
    /// `divu`
    Divu,
    /// `rem`
    Rem,
    /// `remu`
    Remu,
}

/// Zicsr operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CsrOp {
    /// `csrrw`/`csrrwi`
    ReadWrite,
    /// `csrrs`/`csrrsi`
    ReadSet,
    /// `csrrc`/`csrrci`
    ReadClear,
}

/// The L1.5 reconfiguration instructions (Tab. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum L15Op {
    /// `demand rs1` — apply `rs1` ways from the L1.5 cache (privileged).
    Demand,
    /// `supply rd` — return the assigned ways (bitmap) in `rd`.
    Supply,
    /// `gv_set rs1` — set owned ways' global visibility from a bitmap.
    GvSet,
    /// `gv_get rd` — return owned ways' global visibility as a bitmap.
    GvGet,
    /// `ip_set rs1` — set the inclusion policy for all owned ways
    /// (`rs1 != 0` = inclusive).
    IpSet,
}

impl L15Op {
    /// `funct3` encoding within custom-0.
    pub fn funct3(self) -> u32 {
        match self {
            L15Op::Demand => 0,
            L15Op::Supply => 1,
            L15Op::GvSet => 2,
            L15Op::GvGet => 3,
            L15Op::IpSet => 4,
        }
    }

    /// Whether the instruction may only execute in kernel mode
    /// (Tab. 1's `Priv` column: only `demand` is privileged).
    pub fn privileged(self) -> bool {
        matches!(self, L15Op::Demand)
    }
}

/// A decoded instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // field meanings follow the RISC-V spec directly
pub enum Instr {
    Lui {
        rd: Reg,
        imm: i32,
    },
    Auipc {
        rd: Reg,
        imm: i32,
    },
    Jal {
        rd: Reg,
        imm: i32,
    },
    Jalr {
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    Branch {
        op: BranchOp,
        rs1: Reg,
        rs2: Reg,
        imm: i32,
    },
    Load {
        op: LoadOp,
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    Store {
        op: StoreOp,
        rs1: Reg,
        rs2: Reg,
        imm: i32,
    },
    OpImm {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    Op {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    MulDiv {
        op: MulOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Fence,
    Ecall,
    Ebreak,
    Mret,
    Wfi,
    Csr {
        op: CsrOp,
        rd: Reg,
        src: Reg,
        csr: u16,
        imm_form: bool,
    },
    /// One of the five L1.5 instructions; `rd` used by `supply`/`gv_get`,
    /// `rs1` by the others.
    L15 {
        op: L15Op,
        rd: Reg,
        rs1: Reg,
    },
}

/// Failed decode of a 32-bit instruction word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The raw word that failed to decode.
    pub word: u32,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot decode instruction word {:#010x}", self.word)
    }
}

impl Error for DecodeError {}

#[inline]
fn bits(word: u32, hi: u32, lo: u32) -> u32 {
    (word >> lo) & ((1 << (hi - lo + 1)) - 1)
}

#[inline]
fn sign_extend(value: u32, bits: u32) -> i32 {
    let shift = 32 - bits;
    ((value << shift) as i32) >> shift
}

fn imm_i(word: u32) -> i32 {
    sign_extend(bits(word, 31, 20), 12)
}

fn imm_s(word: u32) -> i32 {
    sign_extend((bits(word, 31, 25) << 5) | bits(word, 11, 7), 12)
}

fn imm_b(word: u32) -> i32 {
    sign_extend(
        (bits(word, 31, 31) << 12)
            | (bits(word, 7, 7) << 11)
            | (bits(word, 30, 25) << 5)
            | (bits(word, 11, 8) << 1),
        13,
    )
}

fn imm_u(word: u32) -> i32 {
    (word & 0xffff_f000) as i32
}

fn imm_j(word: u32) -> i32 {
    sign_extend(
        (bits(word, 31, 31) << 20)
            | (bits(word, 19, 12) << 12)
            | (bits(word, 20, 20) << 11)
            | (bits(word, 30, 21) << 1),
        21,
    )
}

/// Decodes one 32-bit instruction word.
///
/// # Errors
///
/// Returns [`DecodeError`] for any word outside the supported subset
/// (RV32I, M, Zicsr, `mret`, `wfi`, custom-0 L1.5 ops).
pub fn decode(word: u32) -> Result<Instr, DecodeError> {
    let opcode = bits(word, 6, 0);
    let rd = bits(word, 11, 7) as Reg;
    let rs1 = bits(word, 19, 15) as Reg;
    let rs2 = bits(word, 24, 20) as Reg;
    let funct3 = bits(word, 14, 12);
    let funct7 = bits(word, 31, 25);
    let err = Err(DecodeError { word });

    let instr = match opcode {
        0b011_0111 => Instr::Lui { rd, imm: imm_u(word) },
        0b001_0111 => Instr::Auipc { rd, imm: imm_u(word) },
        0b110_1111 => Instr::Jal { rd, imm: imm_j(word) },
        0b110_0111 => {
            if funct3 != 0 {
                return err;
            }
            Instr::Jalr { rd, rs1, imm: imm_i(word) }
        }
        0b110_0011 => {
            let op = match funct3 {
                0b000 => BranchOp::Eq,
                0b001 => BranchOp::Ne,
                0b100 => BranchOp::Lt,
                0b101 => BranchOp::Ge,
                0b110 => BranchOp::Ltu,
                0b111 => BranchOp::Geu,
                _ => return err,
            };
            Instr::Branch { op, rs1, rs2, imm: imm_b(word) }
        }
        0b000_0011 => {
            let op = match funct3 {
                0b000 => LoadOp::Byte,
                0b001 => LoadOp::Half,
                0b010 => LoadOp::Word,
                0b100 => LoadOp::ByteU,
                0b101 => LoadOp::HalfU,
                _ => return err,
            };
            Instr::Load { op, rd, rs1, imm: imm_i(word) }
        }
        0b010_0011 => {
            let op = match funct3 {
                0b000 => StoreOp::Byte,
                0b001 => StoreOp::Half,
                0b010 => StoreOp::Word,
                _ => return err,
            };
            Instr::Store { op, rs1, rs2, imm: imm_s(word) }
        }
        0b001_0011 => {
            let op = match funct3 {
                0b000 => AluOp::Add,
                0b001 => {
                    if funct7 != 0 {
                        return err;
                    }
                    AluOp::Sll
                }
                0b010 => AluOp::Slt,
                0b011 => AluOp::Sltu,
                0b100 => AluOp::Xor,
                0b101 => match funct7 {
                    0b000_0000 => AluOp::Srl,
                    0b010_0000 => AluOp::Sra,
                    _ => return err,
                },
                0b110 => AluOp::Or,
                0b111 => AluOp::And,
                _ => unreachable!("funct3 is 3 bits"),
            };
            let imm = if matches!(op, AluOp::Sll | AluOp::Srl | AluOp::Sra) {
                rs2 as i32 // shamt
            } else {
                imm_i(word)
            };
            Instr::OpImm { op, rd, rs1, imm }
        }
        0b011_0011 => match funct7 {
            0b000_0001 => {
                let op = match funct3 {
                    0b000 => MulOp::Mul,
                    0b001 => MulOp::Mulh,
                    0b010 => MulOp::Mulhsu,
                    0b011 => MulOp::Mulhu,
                    0b100 => MulOp::Div,
                    0b101 => MulOp::Divu,
                    0b110 => MulOp::Rem,
                    0b111 => MulOp::Remu,
                    _ => unreachable!("funct3 is 3 bits"),
                };
                Instr::MulDiv { op, rd, rs1, rs2 }
            }
            0b000_0000 | 0b010_0000 => {
                let sub = funct7 == 0b010_0000;
                let op = match (funct3, sub) {
                    (0b000, false) => AluOp::Add,
                    (0b000, true) => AluOp::Sub,
                    (0b001, false) => AluOp::Sll,
                    (0b010, false) => AluOp::Slt,
                    (0b011, false) => AluOp::Sltu,
                    (0b100, false) => AluOp::Xor,
                    (0b101, false) => AluOp::Srl,
                    (0b101, true) => AluOp::Sra,
                    (0b110, false) => AluOp::Or,
                    (0b111, false) => AluOp::And,
                    _ => return err,
                };
                Instr::Op { op, rd, rs1, rs2 }
            }
            _ => return err,
        },
        0b000_1111 => Instr::Fence,
        0b111_0011 => match funct3 {
            0b000 => match word {
                0x0000_0073 => Instr::Ecall,
                0x0010_0073 => Instr::Ebreak,
                0x3020_0073 => Instr::Mret,
                0x1050_0073 => Instr::Wfi,
                _ => return err,
            },
            0b001 | 0b010 | 0b011 | 0b101 | 0b110 | 0b111 => {
                let op = match funct3 & 0b11 {
                    0b01 => CsrOp::ReadWrite,
                    0b10 => CsrOp::ReadSet,
                    0b11 => CsrOp::ReadClear,
                    _ => return err,
                };
                Instr::Csr {
                    op,
                    rd,
                    src: rs1,
                    csr: bits(word, 31, 20) as u16,
                    imm_form: funct3 & 0b100 != 0,
                }
            }
            _ => return err,
        },
        OPCODE_CUSTOM0 => {
            let op = match funct3 {
                0 => L15Op::Demand,
                1 => L15Op::Supply,
                2 => L15Op::GvSet,
                3 => L15Op::GvGet,
                4 => L15Op::IpSet,
                _ => return err,
            };
            Instr::L15 { op, rd, rs1 }
        }
        _ => return err,
    };
    Ok(instr)
}

fn enc_r(opcode: u32, rd: Reg, funct3: u32, rs1: Reg, rs2: Reg, funct7: u32) -> u32 {
    opcode
        | ((rd as u32) << 7)
        | (funct3 << 12)
        | ((rs1 as u32) << 15)
        | ((rs2 as u32) << 20)
        | (funct7 << 25)
}

fn enc_i(opcode: u32, rd: Reg, funct3: u32, rs1: Reg, imm: i32) -> u32 {
    opcode
        | ((rd as u32) << 7)
        | (funct3 << 12)
        | ((rs1 as u32) << 15)
        | (((imm as u32) & 0xfff) << 20)
}

fn enc_s(opcode: u32, funct3: u32, rs1: Reg, rs2: Reg, imm: i32) -> u32 {
    let imm = imm as u32;
    opcode
        | ((imm & 0x1f) << 7)
        | (funct3 << 12)
        | ((rs1 as u32) << 15)
        | ((rs2 as u32) << 20)
        | (((imm >> 5) & 0x7f) << 25)
}

fn enc_b(opcode: u32, funct3: u32, rs1: Reg, rs2: Reg, imm: i32) -> u32 {
    let imm = imm as u32;
    opcode
        | (((imm >> 11) & 1) << 7)
        | (((imm >> 1) & 0xf) << 8)
        | (funct3 << 12)
        | ((rs1 as u32) << 15)
        | ((rs2 as u32) << 20)
        | (((imm >> 5) & 0x3f) << 25)
        | (((imm >> 12) & 1) << 31)
}

fn enc_u(opcode: u32, rd: Reg, imm: i32) -> u32 {
    opcode | ((rd as u32) << 7) | ((imm as u32) & 0xffff_f000)
}

fn enc_j(opcode: u32, rd: Reg, imm: i32) -> u32 {
    let imm = imm as u32;
    opcode
        | ((rd as u32) << 7)
        | (((imm >> 12) & 0xff) << 12)
        | (((imm >> 11) & 1) << 20)
        | (((imm >> 1) & 0x3ff) << 21)
        | (((imm >> 20) & 1) << 31)
}

/// Encodes an instruction back to its 32-bit word.
///
/// `encode(decode(w))? == w` holds for every canonical word; immediates are
/// masked to their field widths.
pub fn encode(instr: Instr) -> u32 {
    match instr {
        Instr::Lui { rd, imm } => enc_u(0b011_0111, rd, imm),
        Instr::Auipc { rd, imm } => enc_u(0b001_0111, rd, imm),
        Instr::Jal { rd, imm } => enc_j(0b110_1111, rd, imm),
        Instr::Jalr { rd, rs1, imm } => enc_i(0b110_0111, rd, 0, rs1, imm),
        Instr::Branch { op, rs1, rs2, imm } => {
            let f3 = match op {
                BranchOp::Eq => 0b000,
                BranchOp::Ne => 0b001,
                BranchOp::Lt => 0b100,
                BranchOp::Ge => 0b101,
                BranchOp::Ltu => 0b110,
                BranchOp::Geu => 0b111,
            };
            enc_b(0b110_0011, f3, rs1, rs2, imm)
        }
        Instr::Load { op, rd, rs1, imm } => {
            let f3 = match op {
                LoadOp::Byte => 0b000,
                LoadOp::Half => 0b001,
                LoadOp::Word => 0b010,
                LoadOp::ByteU => 0b100,
                LoadOp::HalfU => 0b101,
            };
            enc_i(0b000_0011, rd, f3, rs1, imm)
        }
        Instr::Store { op, rs1, rs2, imm } => {
            let f3 = match op {
                StoreOp::Byte => 0b000,
                StoreOp::Half => 0b001,
                StoreOp::Word => 0b010,
            };
            enc_s(0b010_0011, f3, rs1, rs2, imm)
        }
        Instr::OpImm { op, rd, rs1, imm } => match op {
            AluOp::Sll => enc_r(0b001_0011, rd, 0b001, rs1, (imm & 0x1f) as Reg, 0),
            AluOp::Srl => enc_r(0b001_0011, rd, 0b101, rs1, (imm & 0x1f) as Reg, 0),
            AluOp::Sra => enc_r(0b001_0011, rd, 0b101, rs1, (imm & 0x1f) as Reg, 0b010_0000),
            AluOp::Sub => {
                panic!("subi does not exist in RV32I; use addi with a negative immediate")
            }
            _ => {
                let f3 = match op {
                    AluOp::Add => 0b000,
                    AluOp::Slt => 0b010,
                    AluOp::Sltu => 0b011,
                    AluOp::Xor => 0b100,
                    AluOp::Or => 0b110,
                    AluOp::And => 0b111,
                    _ => unreachable!(),
                };
                enc_i(0b001_0011, rd, f3, rs1, imm)
            }
        },
        Instr::Op { op, rd, rs1, rs2 } => {
            let (f3, f7) = match op {
                AluOp::Add => (0b000, 0),
                AluOp::Sub => (0b000, 0b010_0000),
                AluOp::Sll => (0b001, 0),
                AluOp::Slt => (0b010, 0),
                AluOp::Sltu => (0b011, 0),
                AluOp::Xor => (0b100, 0),
                AluOp::Srl => (0b101, 0),
                AluOp::Sra => (0b101, 0b010_0000),
                AluOp::Or => (0b110, 0),
                AluOp::And => (0b111, 0),
            };
            enc_r(0b011_0011, rd, f3, rs1, rs2, f7)
        }
        Instr::MulDiv { op, rd, rs1, rs2 } => {
            let f3 = match op {
                MulOp::Mul => 0b000,
                MulOp::Mulh => 0b001,
                MulOp::Mulhsu => 0b010,
                MulOp::Mulhu => 0b011,
                MulOp::Div => 0b100,
                MulOp::Divu => 0b101,
                MulOp::Rem => 0b110,
                MulOp::Remu => 0b111,
            };
            enc_r(0b011_0011, rd, f3, rs1, rs2, 0b000_0001)
        }
        Instr::Fence => 0b000_1111,
        Instr::Ecall => 0x0000_0073,
        Instr::Ebreak => 0x0010_0073,
        Instr::Mret => 0x3020_0073,
        Instr::Wfi => 0x1050_0073,
        Instr::Csr { op, rd, src, csr, imm_form } => {
            let base = match op {
                CsrOp::ReadWrite => 0b001,
                CsrOp::ReadSet => 0b010,
                CsrOp::ReadClear => 0b011,
            };
            let f3 = if imm_form { base | 0b100 } else { base };
            enc_i(0b111_0011, rd, f3, src, csr as i32)
        }
        Instr::L15 { op, rd, rs1 } => enc_r(OPCODE_CUSTOM0, rd, op.funct3(), rs1, 0, 0),
    }
}

impl Instr {
    /// The destination register written by this instruction, if any
    /// (`x0` counts as "none").
    pub fn writes(&self) -> Option<Reg> {
        let rd = match *self {
            Instr::Lui { rd, .. }
            | Instr::Auipc { rd, .. }
            | Instr::Jal { rd, .. }
            | Instr::Jalr { rd, .. }
            | Instr::Load { rd, .. }
            | Instr::OpImm { rd, .. }
            | Instr::Op { rd, .. }
            | Instr::MulDiv { rd, .. }
            | Instr::Csr { rd, .. } => rd,
            Instr::L15 { op: L15Op::Supply | L15Op::GvGet, rd, .. } => rd,
            _ => return None,
        };
        if rd == 0 {
            None
        } else {
            Some(rd)
        }
    }

    /// The source registers read by this instruction (`x0` excluded).
    pub fn reads(&self) -> [Option<Reg>; 2] {
        self.sources().map(|r| (r != 0).then_some(r))
    }

    /// Whether [`reads`](Self::reads) names `reg` (not `x0`): the load-use
    /// test, without building the pair.
    #[inline]
    pub fn reads_reg(&self, reg: Reg) -> bool {
        self.sources().contains(&reg)
    }

    /// The source registers, `x0` standing for none.
    #[inline]
    fn sources(&self) -> [Reg; 2] {
        match *self {
            Instr::Jalr { rs1, .. } | Instr::Load { rs1, .. } | Instr::OpImm { rs1, .. } => {
                [rs1, 0]
            }
            Instr::Branch { rs1, rs2, .. }
            | Instr::Store { rs1, rs2, .. }
            | Instr::Op { rs1, rs2, .. }
            | Instr::MulDiv { rs1, rs2, .. } => [rs1, rs2],
            Instr::Csr { src, imm_form: false, .. } => [src, 0],
            Instr::L15 { op: L15Op::Demand | L15Op::GvSet | L15Op::IpSet, rs1, .. } => [rs1, 0],
            _ => [0, 0],
        }
    }

    /// Whether this is a memory load (drives the load-use hazard model).
    pub fn is_load(&self) -> bool {
        matches!(self, Instr::Load { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_addi() {
        // addi x1, x2, -5
        let w = encode(Instr::OpImm { op: AluOp::Add, rd: 1, rs1: 2, imm: -5 });
        assert_eq!(decode(w).unwrap(), Instr::OpImm { op: AluOp::Add, rd: 1, rs1: 2, imm: -5 });
    }

    #[test]
    fn roundtrip_representative_instructions() {
        let cases = vec![
            Instr::Lui { rd: 5, imm: 0x12345 << 12 },
            Instr::Auipc { rd: 1, imm: -4096 },
            Instr::Jal { rd: 1, imm: 2048 },
            Instr::Jal { rd: 0, imm: -2 },
            Instr::Jalr { rd: 1, rs1: 2, imm: -4 },
            Instr::Branch { op: BranchOp::Eq, rs1: 1, rs2: 2, imm: -8 },
            Instr::Branch { op: BranchOp::Geu, rs1: 31, rs2: 30, imm: 4094 },
            Instr::Load { op: LoadOp::Word, rd: 3, rs1: 4, imm: 16 },
            Instr::Load { op: LoadOp::ByteU, rd: 3, rs1: 4, imm: -1 },
            Instr::Store { op: StoreOp::Half, rs1: 5, rs2: 6, imm: -32 },
            Instr::OpImm { op: AluOp::Xor, rd: 7, rs1: 8, imm: 255 },
            Instr::OpImm { op: AluOp::Sra, rd: 7, rs1: 8, imm: 31 },
            Instr::Op { op: AluOp::Sub, rd: 9, rs1: 10, rs2: 11 },
            Instr::Op { op: AluOp::Sltu, rd: 9, rs1: 10, rs2: 11 },
            Instr::MulDiv { op: MulOp::Mul, rd: 12, rs1: 13, rs2: 14 },
            Instr::MulDiv { op: MulOp::Remu, rd: 12, rs1: 13, rs2: 14 },
            Instr::Ecall,
            Instr::Ebreak,
            Instr::Mret,
            Instr::Wfi,
            Instr::Fence,
            Instr::Csr { op: CsrOp::ReadWrite, rd: 1, src: 2, csr: 0x305, imm_form: false },
            Instr::Csr { op: CsrOp::ReadSet, rd: 0, src: 5, csr: 0x300, imm_form: true },
            Instr::L15 { op: L15Op::Demand, rd: 0, rs1: 10 },
            Instr::L15 { op: L15Op::Supply, rd: 11, rs1: 0 },
            Instr::L15 { op: L15Op::GvSet, rd: 0, rs1: 12 },
            Instr::L15 { op: L15Op::GvGet, rd: 13, rs1: 0 },
            Instr::L15 { op: L15Op::IpSet, rd: 0, rs1: 14 },
        ];
        for instr in cases {
            let word = encode(instr);
            assert_eq!(decode(word).unwrap(), instr, "roundtrip failed for {instr:?}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(decode(0xffff_ffff).is_err());
        assert!(decode(0x0000_0000).is_err());
        // custom-0 with unused funct3.
        let bad = enc_r(OPCODE_CUSTOM0, 0, 7, 0, 0, 0);
        assert!(decode(bad).is_err());
    }

    #[test]
    fn branch_immediates_are_even_and_signed() {
        let w = encode(Instr::Branch { op: BranchOp::Ne, rs1: 1, rs2: 2, imm: -4096 });
        match decode(w).unwrap() {
            Instr::Branch { imm, .. } => assert_eq!(imm, -4096),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn jal_immediate_range() {
        for imm in [-(1 << 20), -2, 0, 2, (1 << 20) - 2] {
            let w = encode(Instr::Jal { rd: 1, imm });
            match decode(w).unwrap() {
                Instr::Jal { imm: got, .. } => assert_eq!(got, imm),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn hazard_metadata() {
        let load = Instr::Load { op: LoadOp::Word, rd: 5, rs1: 2, imm: 0 };
        assert!(load.is_load());
        assert_eq!(load.writes(), Some(5));
        assert_eq!(load.reads(), [Some(2), None]);
        let store = Instr::Store { op: StoreOp::Word, rs1: 2, rs2: 5, imm: 0 };
        assert_eq!(store.writes(), None);
        assert_eq!(store.reads(), [Some(2), Some(5)]);
        let supply = Instr::L15 { op: L15Op::Supply, rd: 7, rs1: 0 };
        assert_eq!(supply.writes(), Some(7));
        assert_eq!(supply.reads(), [None, None]);
        // x0 never participates in hazards.
        let nop = Instr::OpImm { op: AluOp::Add, rd: 0, rs1: 0, imm: 0 };
        assert_eq!(nop.writes(), None);
        assert_eq!(nop.reads(), [None, None]);
    }

    #[test]
    fn privilege_table_matches_paper() {
        assert!(L15Op::Demand.privileged());
        assert!(!L15Op::Supply.privileged());
        assert!(!L15Op::GvSet.privileged());
        assert!(!L15Op::GvGet.privileged());
        assert!(!L15Op::IpSet.privileged());
    }
}
