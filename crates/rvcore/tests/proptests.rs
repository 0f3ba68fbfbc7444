//! Property-based tests of the core substrate: decode/encode round-trips
//! over randomised instruction fields, ALU semantics against reference
//! integer ops, and assembler label resolution.

use l15_rvcore::asm::Assembler;
use l15_rvcore::bus::FlatBus;
use l15_rvcore::core::Core;
use l15_rvcore::isa::{decode, encode, AluOp, BranchOp, Instr, L15Op, LoadOp, MulOp, StoreOp};
use l15_testkit::prop::{self, Config, G};

const CASES: u32 = 512;

fn arb_reg(g: &mut G) -> u8 {
    g.u8_in(0..32)
}

fn arb_imm12(g: &mut G) -> i32 {
    g.i32_in(-2048..=2047)
}

fn arb_instr(g: &mut G) -> Instr {
    match g.weighted(&[1; 11]) {
        0 => Instr::Lui { rd: arb_reg(g), imm: g.i32_in(-(1i32 << 19)..(1 << 19)) << 12 },
        1 => Instr::Jalr { rd: arb_reg(g), rs1: arb_reg(g), imm: arb_imm12(g) },
        2 => Instr::Jal { rd: arb_reg(g), imm: g.i32_in(-(1i32 << 20)..(1 << 20)) & !1 },
        3 => {
            let op = *g.pick(&[
                BranchOp::Eq,
                BranchOp::Ne,
                BranchOp::Lt,
                BranchOp::Ge,
                BranchOp::Ltu,
                BranchOp::Geu,
            ]);
            Instr::Branch { op, rs1: arb_reg(g), rs2: arb_reg(g), imm: g.i32_in(-4096..=4094) & !1 }
        }
        4 => {
            let op =
                *g.pick(&[LoadOp::Byte, LoadOp::Half, LoadOp::Word, LoadOp::ByteU, LoadOp::HalfU]);
            Instr::Load { op, rd: arb_reg(g), rs1: arb_reg(g), imm: arb_imm12(g) }
        }
        5 => {
            let op = *g.pick(&[StoreOp::Byte, StoreOp::Half, StoreOp::Word]);
            Instr::Store { op, rs1: arb_reg(g), rs2: arb_reg(g), imm: arb_imm12(g) }
        }
        6 => {
            let op =
                *g.pick(&[AluOp::Add, AluOp::Slt, AluOp::Sltu, AluOp::Xor, AluOp::Or, AluOp::And]);
            Instr::OpImm { op, rd: arb_reg(g), rs1: arb_reg(g), imm: arb_imm12(g) }
        }
        7 => {
            let op = *g.pick(&[AluOp::Sll, AluOp::Srl, AluOp::Sra]);
            Instr::OpImm { op, rd: arb_reg(g), rs1: arb_reg(g), imm: g.i32_in(0..32) }
        }
        8 => {
            let op = *g.pick(&[
                AluOp::Add,
                AluOp::Sub,
                AluOp::Sll,
                AluOp::Slt,
                AluOp::Sltu,
                AluOp::Xor,
                AluOp::Srl,
                AluOp::Sra,
                AluOp::Or,
                AluOp::And,
            ]);
            Instr::Op { op, rd: arb_reg(g), rs1: arb_reg(g), rs2: arb_reg(g) }
        }
        9 => {
            let op = *g.pick(&[
                MulOp::Mul,
                MulOp::Mulh,
                MulOp::Mulhsu,
                MulOp::Mulhu,
                MulOp::Div,
                MulOp::Divu,
                MulOp::Rem,
                MulOp::Remu,
            ]);
            Instr::MulDiv { op, rd: arb_reg(g), rs1: arb_reg(g), rs2: arb_reg(g) }
        }
        _ => {
            let op =
                *g.pick(&[L15Op::Demand, L15Op::Supply, L15Op::GvSet, L15Op::GvGet, L15Op::IpSet]);
            let (rd, rs1) = (arb_reg(g), arb_reg(g));
            // rd is meaningful only for supply/gv_get, rs1 for the others;
            // the unused field encodes as zero.
            match op {
                L15Op::Supply | L15Op::GvGet => Instr::L15 { op, rd, rs1: 0 },
                _ => Instr::L15 { op, rd: 0, rs1 },
            }
        }
    }
}

#[test]
fn decode_encode_roundtrip() {
    prop::run_with(Config::with_cases(CASES), "decode_encode_roundtrip", |g| {
        let instr = arb_instr(g);
        let word = encode(instr);
        let back = decode(word).expect("encoded instruction decodes");
        assert_eq!(back, instr);
    });
}

#[test]
fn decode_never_panics() {
    prop::run_with(Config::with_cases(CASES), "decode_never_panics", |g| {
        let _ = decode(g.any_u32()); // must return Ok or Err, never panic
    });
}

#[test]
fn alu_add_sub_match_reference() {
    prop::run_with(Config::with_cases(CASES), "alu_add_sub_match_reference", |g| {
        let a = g.any_u32();
        let b = g.any_u32();
        // Run `add x3, x1, x2` and `sub x4, x1, x2` on the core.
        let mut asm = Assembler::new();
        asm.add(3, 1, 2);
        asm.sub(4, 1, 2);
        asm.mul(5, 1, 2);
        asm.sltu(6, 1, 2);
        asm.xor(7, 1, 2);
        asm.ebreak();
        let words = asm.finish().unwrap();
        let mut bus = FlatBus::new(1024, 1);
        bus.load_program(0, &words);
        let mut core = Core::new(0, 0);
        core.set_reg(1, a);
        core.set_reg(2, b);
        core.run(&mut bus, 100);
        assert_eq!(core.reg(3), a.wrapping_add(b));
        assert_eq!(core.reg(4), a.wrapping_sub(b));
        assert_eq!(core.reg(5), a.wrapping_mul(b));
        assert_eq!(core.reg(6), (a < b) as u32);
        assert_eq!(core.reg(7), a ^ b);
    });
}

#[test]
fn division_follows_riscv_semantics() {
    prop::run_with(Config::with_cases(CASES), "division_follows_riscv_semantics", |g| {
        let a = g.any_u32();
        let b = g.any_u32();
        let mut asm = Assembler::new();
        asm.div(3, 1, 2);
        asm.rem(4, 1, 2);
        asm.ebreak();
        let words = asm.finish().unwrap();
        let mut bus = FlatBus::new(1024, 1);
        bus.load_program(0, &words);
        let mut core = Core::new(0, 0);
        core.set_reg(1, a);
        core.set_reg(2, b);
        core.run(&mut bus, 100);
        let (q, r) = if b == 0 {
            (u32::MAX, a)
        } else if a == 0x8000_0000 && b == u32::MAX {
            (a, 0)
        } else {
            (((a as i32) / (b as i32)) as u32, ((a as i32) % (b as i32)) as u32)
        };
        assert_eq!(core.reg(3), q);
        assert_eq!(core.reg(4), r);
    });
}

#[test]
fn store_load_roundtrip_via_core() {
    prop::run_with(Config::with_cases(CASES), "store_load_roundtrip_via_core", |g| {
        let addr = g.u32_in(0..900) * 4;
        let value = g.any_u32();
        let mut asm = Assembler::new();
        asm.sw(1, 2, 0);
        asm.lw(3, 1, 0);
        asm.ebreak();
        let words = asm.finish().unwrap();
        let mut bus = FlatBus::new(8192, 1);
        bus.load_program(0x1000, &words);
        let mut core = Core::new(0, 0x1000);
        core.set_reg(1, addr);
        core.set_reg(2, value);
        core.run(&mut bus, 100);
        assert_eq!(core.reg(3), value);
        assert_eq!(bus.read_u32(addr), value);
    });
}

#[test]
fn x0_is_hardwired_zero() {
    prop::run_with(Config::with_cases(CASES), "x0_is_hardwired_zero", |g| {
        let value = g.any_u32();
        let mut core = Core::new(0, 0);
        core.set_reg(0, value);
        assert_eq!(core.reg(0), 0);
    });
}
