//! Instruction-set architecture of the simulated machine.
//!
//! The guest ISA is a 64-bit RISC-style instruction set with a **fixed
//! 8-byte encoding**: `[opcode, rd, rs1, rs2, imm32le]`. The fixed width
//! keeps the decoder trivial and makes return-oriented-programming gadget
//! scanning (see the `cr-spectre-rop` crate) a well-defined suffix search
//! over executable pages, which mirrors how `ret`-terminated byte sequences
//! are harvested from x86 binaries.
//!
//! # Examples
//!
//! ```
//! use cr_spectre_sim::isa::{AluOp, Instr, Reg};
//!
//! let instr = Instr::Alui(AluOp::Add, Reg::R1, Reg::R1, 42);
//! let bytes = instr.encode();
//! assert_eq!(Instr::decode(&bytes)?, instr);
//! # Ok::<(), cr_spectre_sim::isa::DecodeError>(())
//! ```

use std::fmt;

/// Width of every encoded instruction in bytes.
pub const INSTR_BYTES: usize = 8;

/// A general-purpose register.
///
/// The machine has sixteen 64-bit general-purpose registers. By software
/// convention [`Reg::SP`] (`r15`) is the stack pointer used by
/// `PUSH`/`POP`/`CALL`/`RET`, and `r14` is the assembler scratch register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)] // the sixteen numbered registers document themselves
pub enum Reg {
    R0,
    R1,
    R2,
    R3,
    R4,
    R5,
    R6,
    R7,
    R8,
    R9,
    R10,
    R11,
    R12,
    R13,
    R14,
    R15,
}

impl Reg {
    /// The stack pointer by calling convention (`r15`).
    pub const SP: Reg = Reg::R15;
    /// The assembler scratch register (`r14`).
    pub const SCRATCH: Reg = Reg::R14;

    /// All sixteen registers in index order.
    pub const ALL: [Reg; 16] = [
        Reg::R0,
        Reg::R1,
        Reg::R2,
        Reg::R3,
        Reg::R4,
        Reg::R5,
        Reg::R6,
        Reg::R7,
        Reg::R8,
        Reg::R9,
        Reg::R10,
        Reg::R11,
        Reg::R12,
        Reg::R13,
        Reg::R14,
        Reg::R15,
    ];

    /// Returns the register's index in `0..16`.
    #[inline]
    pub fn index(self) -> usize {
        // The mask changes no register's index, but it tells the compiler
        // the index is in bounds where a decoded instruction's register
        // field no longer carries that fact: the step loop then indexes
        // the register file with no bounds check.
        self as usize & 15
    }

    /// Builds a register from an index.
    ///
    /// Returns `None` when `idx >= 16`.
    pub fn from_index(idx: u8) -> Option<Reg> {
        Reg::ALL.get(idx as usize).copied()
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Reg::SP {
            write!(f, "sp")
        } else {
            write!(f, "r{}", self.index())
        }
    }
}

/// Binary ALU operation selector used by [`Instr::Alu`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division; division by zero yields all-ones.
    Divu,
    /// Unsigned remainder; remainder by zero yields the dividend.
    Remu,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (by `rhs & 63`).
    Shl,
    /// Logical shift right (by `rhs & 63`).
    Shr,
    /// Arithmetic shift right (by `rhs & 63`).
    Sar,
}

impl AluOp {
    const ALL: [AluOp; 11] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Divu,
        AluOp::Remu,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::Shr,
        AluOp::Sar,
    ];

    /// Applies the operation to two 64-bit values.
    #[inline]
    pub fn apply(self, lhs: u64, rhs: u64) -> u64 {
        match self {
            AluOp::Add => lhs.wrapping_add(rhs),
            AluOp::Sub => lhs.wrapping_sub(rhs),
            AluOp::Mul => lhs.wrapping_mul(rhs),
            AluOp::Divu => lhs.checked_div(rhs).unwrap_or(u64::MAX),
            AluOp::Remu => {
                if rhs == 0 {
                    lhs
                } else {
                    lhs % rhs
                }
            }
            AluOp::And => lhs & rhs,
            AluOp::Or => lhs | rhs,
            AluOp::Xor => lhs ^ rhs,
            AluOp::Shl => lhs << (rhs & 63),
            AluOp::Shr => lhs >> (rhs & 63),
            AluOp::Sar => ((lhs as i64) >> (rhs & 63)) as u64,
        }
    }

    fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Divu => "divu",
            AluOp::Remu => "remu",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::Sar => "sar",
        }
    }
}

/// Condition selector for conditional branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// Branch if equal.
    Eq,
    /// Branch if not equal.
    Ne,
    /// Branch if signed less-than.
    Lt,
    /// Branch if signed greater-or-equal.
    Ge,
    /// Branch if unsigned less-than.
    Ltu,
    /// Branch if unsigned greater-or-equal.
    Geu,
}

impl BranchCond {
    const ALL: [BranchCond; 6] = [
        BranchCond::Eq,
        BranchCond::Ne,
        BranchCond::Lt,
        BranchCond::Ge,
        BranchCond::Ltu,
        BranchCond::Geu,
    ];

    /// Evaluates the condition over two register values.
    pub fn holds(self, lhs: u64, rhs: u64) -> bool {
        match self {
            BranchCond::Eq => lhs == rhs,
            BranchCond::Ne => lhs != rhs,
            BranchCond::Lt => (lhs as i64) < (rhs as i64),
            BranchCond::Ge => (lhs as i64) >= (rhs as i64),
            BranchCond::Ltu => lhs < rhs,
            BranchCond::Geu => lhs >= rhs,
        }
    }

    fn mnemonic(self) -> &'static str {
        match self {
            BranchCond::Eq => "beq",
            BranchCond::Ne => "bne",
            BranchCond::Lt => "blt",
            BranchCond::Ge => "bge",
            BranchCond::Ltu => "bltu",
            BranchCond::Geu => "bgeu",
        }
    }
}

/// Memory access width for loads and stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// One byte, zero-extended on load.
    B,
    /// Four bytes (little-endian), zero-extended on load.
    W,
    /// Eight bytes (little-endian).
    D,
}

impl Width {
    /// Number of bytes moved by an access of this width.
    #[inline]
    pub fn bytes(self) -> usize {
        match self {
            Width::B => 1,
            Width::W => 4,
            Width::D => 8,
        }
    }

    fn suffix(self) -> &'static str {
        match self {
            Width::B => "b",
            Width::W => "w",
            Width::D => "d",
        }
    }
}

/// A decoded machine instruction.
///
/// Immediate operands are `i32` in the encoding; address-forming immediates
/// are sign-extended to 64 bits at execution time. Branch and call offsets
/// are **relative to the address of the branch instruction itself**.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// No operation.
    Nop,
    /// Stop the machine.
    Halt,
    /// `rd = imm` (sign-extended).
    Ldi(Reg, i32),
    /// `rd = (imm as u32 as u64) << 32 | (rd & 0xffff_ffff)` — set upper half.
    Ldih(Reg, i32),
    /// `rd = rs`.
    Mov(Reg, Reg),
    /// `rd = op(rs1, rs2)`.
    Alu(AluOp, Reg, Reg, Reg),
    /// `rd = op(rs1, imm)` (immediate sign-extended).
    Alui(AluOp, Reg, Reg, i32),
    /// `rd = width-load(mem[rs1 + imm])`.
    Ld(Width, Reg, Reg, i32),
    /// `mem[rs1 + imm] = width-store(rs2)`.
    St(Width, Reg, Reg, i32),
    /// Conditional branch: `if cond(rs1, rs2) pc += imm`.
    Br(BranchCond, Reg, Reg, i32),
    /// Unconditional relative jump: `pc += imm`.
    Jmp(i32),
    /// Indirect jump: `pc = rs`.
    JmpR(Reg),
    /// Relative call: push return address, `pc += imm`.
    Call(i32),
    /// Indirect call: push return address, `pc = rs`.
    CallR(Reg),
    /// Return: pop the return address into `pc`.
    Ret,
    /// Push `rs` (SP decrements by 8 first).
    Push(Reg),
    /// Pop into `rd` (SP increments by 8 after).
    Pop(Reg),
    /// Flush the cache line containing `rs1 + imm` from the hierarchy.
    ClFlush(Reg, i32),
    /// Memory fence: serializes, draining outstanding effects.
    MFence,
    /// `rd = current cycle count` (the covert-channel timer).
    Rdtsc(Reg),
    /// System call; number in `r0`, arguments in `r1..=r3`, result in `r0`.
    Syscall,
}

/// Error produced when a byte sequence does not decode to an instruction.
///
/// Carries the offending opcode byte; used by the gadget scanner to skip
/// non-instruction bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The opcode byte that failed to decode.
    pub opcode: u8,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid instruction encoding (opcode {:#04x})", self.opcode)
    }
}

impl std::error::Error for DecodeError {}

// Opcode space layout. Contiguous blocks per family keep decode branch-free.
const OP_NOP: u8 = 0x00;
const OP_HALT: u8 = 0x01;
const OP_LDI: u8 = 0x02;
const OP_LDIH: u8 = 0x03;
const OP_MOV: u8 = 0x04;
const OP_ALU_BASE: u8 = 0x10; // 11 ops: 0x10..=0x1a
const OP_ALUI_BASE: u8 = 0x20; // 11 ops: 0x20..=0x2a
const OP_LD_BASE: u8 = 0x30; // 3 widths: 0x30..=0x32
const OP_ST_BASE: u8 = 0x33; // 3 widths: 0x33..=0x35
const OP_BR_BASE: u8 = 0x40; // 6 conds: 0x40..=0x45
const OP_JMP: u8 = 0x46;
const OP_JMPR: u8 = 0x47;
const OP_CALL: u8 = 0x48;
const OP_CALLR: u8 = 0x49;
const OP_RET: u8 = 0x4a;
const OP_PUSH: u8 = 0x4b;
const OP_POP: u8 = 0x4c;
const OP_CLFLUSH: u8 = 0x50;
const OP_MFENCE: u8 = 0x51;
const OP_RDTSC: u8 = 0x52;
const OP_SYSCALL: u8 = 0x53;

impl Instr {
    /// Encodes the instruction to its fixed 8-byte form.
    pub fn encode(&self) -> [u8; INSTR_BYTES] {
        let (op, rd, rs1, rs2, imm) = match *self {
            Instr::Nop => (OP_NOP, 0, 0, 0, 0),
            Instr::Halt => (OP_HALT, 0, 0, 0, 0),
            Instr::Ldi(rd, imm) => (OP_LDI, rd.index() as u8, 0, 0, imm),
            Instr::Ldih(rd, imm) => (OP_LDIH, rd.index() as u8, 0, 0, imm),
            Instr::Mov(rd, rs) => (OP_MOV, rd.index() as u8, rs.index() as u8, 0, 0),
            Instr::Alu(op, rd, rs1, rs2) => (
                OP_ALU_BASE + op as u8,
                rd.index() as u8,
                rs1.index() as u8,
                rs2.index() as u8,
                0,
            ),
            Instr::Alui(op, rd, rs1, imm) => (
                OP_ALUI_BASE + op as u8,
                rd.index() as u8,
                rs1.index() as u8,
                0,
                imm,
            ),
            Instr::Ld(w, rd, rs1, imm) => (
                OP_LD_BASE + w as u8,
                rd.index() as u8,
                rs1.index() as u8,
                0,
                imm,
            ),
            Instr::St(w, rs1, rs2, imm) => (
                OP_ST_BASE + w as u8,
                0,
                rs1.index() as u8,
                rs2.index() as u8,
                imm,
            ),
            Instr::Br(c, rs1, rs2, imm) => (
                OP_BR_BASE + c as u8,
                0,
                rs1.index() as u8,
                rs2.index() as u8,
                imm,
            ),
            Instr::Jmp(imm) => (OP_JMP, 0, 0, 0, imm),
            Instr::JmpR(rs) => (OP_JMPR, 0, rs.index() as u8, 0, 0),
            Instr::Call(imm) => (OP_CALL, 0, 0, 0, imm),
            Instr::CallR(rs) => (OP_CALLR, 0, rs.index() as u8, 0, 0),
            Instr::Ret => (OP_RET, 0, 0, 0, 0),
            Instr::Push(rs) => (OP_PUSH, 0, rs.index() as u8, 0, 0),
            Instr::Pop(rd) => (OP_POP, rd.index() as u8, 0, 0, 0),
            Instr::ClFlush(rs1, imm) => (OP_CLFLUSH, 0, rs1.index() as u8, 0, imm),
            Instr::MFence => (OP_MFENCE, 0, 0, 0, 0),
            Instr::Rdtsc(rd) => (OP_RDTSC, rd.index() as u8, 0, 0, 0),
            Instr::Syscall => (OP_SYSCALL, 0, 0, 0, 0),
        };
        let mut out = [0u8; INSTR_BYTES];
        out[0] = op;
        out[1] = rd;
        out[2] = rs1;
        out[3] = rs2;
        out[4..8].copy_from_slice(&imm.to_le_bytes());
        out
    }

    /// Decodes one instruction from `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] when the opcode is not assigned, a register
    /// field is out of range, or fewer than [`INSTR_BYTES`] bytes were given.
    #[inline]
    pub fn decode(bytes: &[u8]) -> Result<Instr, DecodeError> {
        if bytes.len() < INSTR_BYTES {
            return Err(DecodeError { opcode: 0xff });
        }
        let op = bytes[0];
        let err = DecodeError { opcode: op };
        let rd = Reg::from_index(bytes[1]).ok_or(err)?;
        let rs1 = Reg::from_index(bytes[2]).ok_or(err)?;
        let rs2 = Reg::from_index(bytes[3]).ok_or(err)?;
        let imm = i32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        let instr = match op {
            OP_NOP => Instr::Nop,
            OP_HALT => Instr::Halt,
            OP_LDI => Instr::Ldi(rd, imm),
            OP_LDIH => Instr::Ldih(rd, imm),
            OP_MOV => Instr::Mov(rd, rs1),
            o if (OP_ALU_BASE..OP_ALU_BASE + 11).contains(&o) => {
                Instr::Alu(AluOp::ALL[(o - OP_ALU_BASE) as usize], rd, rs1, rs2)
            }
            o if (OP_ALUI_BASE..OP_ALUI_BASE + 11).contains(&o) => {
                Instr::Alui(AluOp::ALL[(o - OP_ALUI_BASE) as usize], rd, rs1, imm)
            }
            o if (OP_LD_BASE..OP_LD_BASE + 3).contains(&o) => {
                let w = [Width::B, Width::W, Width::D][(o - OP_LD_BASE) as usize];
                Instr::Ld(w, rd, rs1, imm)
            }
            o if (OP_ST_BASE..OP_ST_BASE + 3).contains(&o) => {
                let w = [Width::B, Width::W, Width::D][(o - OP_ST_BASE) as usize];
                Instr::St(w, rs1, rs2, imm)
            }
            o if (OP_BR_BASE..OP_BR_BASE + 6).contains(&o) => {
                Instr::Br(BranchCond::ALL[(o - OP_BR_BASE) as usize], rs1, rs2, imm)
            }
            OP_JMP => Instr::Jmp(imm),
            OP_JMPR => Instr::JmpR(rs1),
            OP_CALL => Instr::Call(imm),
            OP_CALLR => Instr::CallR(rs1),
            OP_RET => Instr::Ret,
            OP_PUSH => Instr::Push(rs1),
            OP_POP => Instr::Pop(rd),
            OP_CLFLUSH => Instr::ClFlush(rs1, imm),
            OP_MFENCE => Instr::MFence,
            OP_RDTSC => Instr::Rdtsc(rd),
            OP_SYSCALL => Instr::Syscall,
            _ => return Err(err),
        };
        Ok(instr)
    }

    /// Returns `true` for instructions that end a basic block by changing
    /// control flow unconditionally (used by the gadget scanner).
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Instr::Jmp(_)
                | Instr::JmpR(_)
                | Instr::Call(_)
                | Instr::CallR(_)
                | Instr::Ret
                | Instr::Halt
        )
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::Nop => write!(f, "nop"),
            Instr::Halt => write!(f, "halt"),
            Instr::Ldi(rd, imm) => write!(f, "ldi {rd}, {imm}"),
            Instr::Ldih(rd, imm) => write!(f, "ldih {rd}, {imm}"),
            Instr::Mov(rd, rs) => write!(f, "mov {rd}, {rs}"),
            Instr::Alu(op, rd, rs1, rs2) => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
            Instr::Alui(op, rd, rs1, imm) => {
                write!(f, "{}i {rd}, {rs1}, {imm}", op.mnemonic())
            }
            Instr::Ld(w, rd, rs1, imm) => write!(f, "ld{} {rd}, [{rs1}{imm:+}]", w.suffix()),
            Instr::St(w, rs1, rs2, imm) => write!(f, "st{} [{rs1}{imm:+}], {rs2}", w.suffix()),
            Instr::Br(c, rs1, rs2, imm) => {
                write!(f, "{} {rs1}, {rs2}, {imm:+}", c.mnemonic())
            }
            Instr::Jmp(imm) => write!(f, "jmp {imm:+}"),
            Instr::JmpR(rs) => write!(f, "jmpr {rs}"),
            Instr::Call(imm) => write!(f, "call {imm:+}"),
            Instr::CallR(rs) => write!(f, "callr {rs}"),
            Instr::Ret => write!(f, "ret"),
            Instr::Push(rs) => write!(f, "push {rs}"),
            Instr::Pop(rd) => write!(f, "pop {rd}"),
            Instr::ClFlush(rs1, imm) => write!(f, "clflush [{rs1}{imm:+}]"),
            Instr::MFence => write!(f, "mfence"),
            Instr::Rdtsc(rd) => write!(f, "rdtsc {rd}"),
            Instr::Syscall => write!(f, "syscall"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_instrs() -> Vec<Instr> {
        vec![
            Instr::Nop,
            Instr::Halt,
            Instr::Ldi(Reg::R3, -7),
            Instr::Ldih(Reg::R3, 0x1234),
            Instr::Mov(Reg::R1, Reg::R2),
            Instr::Alu(AluOp::Add, Reg::R1, Reg::R2, Reg::R3),
            Instr::Alu(AluOp::Sar, Reg::R9, Reg::R10, Reg::R11),
            Instr::Alui(AluOp::Mul, Reg::R4, Reg::R5, 512),
            Instr::Ld(Width::B, Reg::R6, Reg::R7, -4),
            Instr::Ld(Width::D, Reg::R6, Reg::R7, 1024),
            Instr::St(Width::W, Reg::R8, Reg::R9, 16),
            Instr::Br(BranchCond::Ltu, Reg::R1, Reg::R2, -64),
            Instr::Jmp(80),
            Instr::JmpR(Reg::R5),
            Instr::Call(-800),
            Instr::CallR(Reg::R12),
            Instr::Ret,
            Instr::Push(Reg::SP),
            Instr::Pop(Reg::R0),
            Instr::ClFlush(Reg::R2, 64),
            Instr::MFence,
            Instr::Rdtsc(Reg::R13),
            Instr::Syscall,
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        for instr in sample_instrs() {
            let bytes = instr.encode();
            assert_eq!(Instr::decode(&bytes).unwrap(), instr, "{instr}");
        }
    }

    #[test]
    fn decode_rejects_bad_opcode() {
        let mut bytes = [0u8; INSTR_BYTES];
        bytes[0] = 0xee;
        assert!(Instr::decode(&bytes).is_err());
    }

    #[test]
    fn decode_rejects_bad_register() {
        let mut bytes = Instr::Mov(Reg::R1, Reg::R2).encode();
        bytes[1] = 200;
        assert!(Instr::decode(&bytes).is_err());
    }

    #[test]
    fn decode_rejects_short_input() {
        assert!(Instr::decode(&[0u8; 4]).is_err());
    }

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.apply(u64::MAX, 1), 0);
        assert_eq!(AluOp::Sub.apply(0, 1), u64::MAX);
        assert_eq!(AluOp::Divu.apply(10, 0), u64::MAX);
        assert_eq!(AluOp::Remu.apply(10, 0), 10);
        assert_eq!(AluOp::Shl.apply(1, 65), 2, "shift amount is masked");
        assert_eq!(AluOp::Sar.apply(u64::MAX, 8), u64::MAX);
        assert_eq!(AluOp::Shr.apply(u64::MAX, 63), 1);
    }

    #[test]
    fn branch_conditions() {
        let neg1 = u64::MAX;
        assert!(BranchCond::Lt.holds(neg1, 0), "signed comparison");
        assert!(!BranchCond::Ltu.holds(neg1, 0), "unsigned comparison");
        assert!(BranchCond::Geu.holds(neg1, 0));
        assert!(BranchCond::Eq.holds(5, 5));
        assert!(BranchCond::Ne.holds(5, 6));
        assert!(BranchCond::Ge.holds(0, neg1));
    }

    #[test]
    fn terminators() {
        assert!(Instr::Ret.is_terminator());
        assert!(Instr::Jmp(0).is_terminator());
        assert!(!Instr::Nop.is_terminator());
        assert!(!Instr::Br(BranchCond::Eq, Reg::R0, Reg::R0, 8).is_terminator());
    }

    #[test]
    fn display_is_nonempty() {
        for instr in sample_instrs() {
            assert!(!instr.to_string().is_empty());
        }
    }
}
