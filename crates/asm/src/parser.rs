//! Text assembler: parse assembly source into an [`Asm`] program.
//!
//! The syntax mirrors the programmatic builder one-to-one:
//!
//! ```text
//! ; comments with ';' or '#'
//! .text
//! main:
//!     ldi   r1, 0
//!     la    r2, msg        ; absolute address (relocated)
//!     ldb   r3, [r2+0]
//!     addi  r1, r1, 1
//!     beq   r1, r3, done
//!     jmp   main
//! done:
//!     halt
//! .data
//! msg: .asciz "hello"
//! buf: .space 64
//! val: .dq 0x42
//! ptr: .dq &msg            ; pointer to a label (relocated)
//! ```
//!
//! # Examples
//!
//! ```
//! let image = cr_spectre_asm::parser::assemble("demo", "main: halt")?;
//! assert_eq!(image.symbol("main"), Some(0));
//! # Ok::<(), cr_spectre_asm::parser::ParseError>(())
//! ```

use std::fmt;

use cr_spectre_sim::image::Image;
use cr_spectre_sim::isa::{AluOp, BranchCond, Reg, Width};

use crate::builder::{Asm, AsmError};

/// A parse failure with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<AsmError> for ParseError {
    fn from(e: AsmError) -> ParseError {
        ParseError { line: 0, message: e.to_string() }
    }
}

/// Which section directives currently apply to data labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Text,
    Data,
    Rodata,
}

/// Parses `source` and assembles it into an [`Image`] named `name`.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax problem, or a
/// label-resolution failure from the underlying builder.
pub fn assemble(name: &str, source: &str) -> Result<Image, ParseError> {
    let asm = parse(source)?;
    asm.build(name).map_err(ParseError::from)
}

/// Parses `source` into an [`Asm`] program (callers can keep extending it,
/// e.g. to append the runtime).
///
/// # Errors
///
/// Returns a [`ParseError`] for the first malformed line.
pub fn parse(source: &str) -> Result<Asm, ParseError> {
    let mut asm = Asm::new();
    let mut section = Section::Text;
    for (i, raw) in source.lines().enumerate() {
        let lineno = i + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        parse_line(&mut asm, &mut section, line, lineno)?;
    }
    Ok(asm)
}

fn strip_comment(line: &str) -> &str {
    // Respect quotes so ".asciz \"a;b\"" survives.
    let mut in_str = false;
    for (idx, ch) in line.char_indices() {
        match ch {
            '"' => in_str = !in_str,
            ';' | '#' if !in_str => return &line[..idx],
            _ => {}
        }
    }
    line
}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError { line, message: message.into() }
}

fn parse_line(
    asm: &mut Asm,
    section: &mut Section,
    mut line: &str,
    lineno: usize,
) -> Result<(), ParseError> {
    // Section directives.
    match line {
        ".text" => {
            *section = Section::Text;
            return Ok(());
        }
        ".data" => {
            *section = Section::Data;
            return Ok(());
        }
        ".rodata" => {
            *section = Section::Rodata;
            return Ok(());
        }
        _ => {}
    }
    // Leading label.
    if let Some(colon) = line.find(':') {
        let (label, rest) = line.split_at(colon);
        let label = label.trim();
        if !label.is_empty() && label.chars().all(|c| c.is_alphanumeric() || c == '_' || c == '.') {
            if asm.has_label(label) {
                return Err(err(lineno, format!("duplicate label {label:?}")));
            }
            match section {
                Section::Text => asm.label(label),
                Section::Data => asm.data_label(label),
                Section::Rodata => asm.rodata_label(label),
            }
            line = rest[1..].trim();
            if line.is_empty() {
                return Ok(());
            }
        }
    }
    if line.starts_with('.') {
        return parse_data_directive(asm, *section, line, lineno);
    }
    if *section != Section::Text {
        return Err(err(lineno, "instructions are only allowed in .text"));
    }
    parse_instr(asm, line, lineno)
}

fn parse_data_directive(
    asm: &mut Asm,
    section: Section,
    line: &str,
    lineno: usize,
) -> Result<(), ParseError> {
    let (directive, rest) = match line.find(char::is_whitespace) {
        Some(sp) => line.split_at(sp),
        None => (line, ""),
    };
    let rest = rest.trim();
    let expect_data = |ok: bool| -> Result<(), ParseError> {
        if ok {
            Ok(())
        } else {
            Err(err(lineno, format!("{directive} not allowed in this section")))
        }
    };
    match directive {
        ".entry" => {
            asm.entry(rest);
            Ok(())
        }
        ".asciz" => {
            expect_data(section == Section::Data)?;
            let s = parse_string(rest).ok_or_else(|| err(lineno, "expected quoted string"))?;
            asm.asciz(&s);
            Ok(())
        }
        ".space" => {
            expect_data(section == Section::Data)?;
            let n = parse_u64(rest).ok_or_else(|| err(lineno, "expected size"))?;
            asm.space(n);
            Ok(())
        }
        ".dq" => {
            expect_data(section == Section::Data)?;
            if let Some(label) = rest.strip_prefix('&') {
                asm.dq_label(label.trim());
            } else {
                let v = parse_u64(rest).ok_or_else(|| err(lineno, "expected value or &label"))?;
                asm.dq(v);
            }
            Ok(())
        }
        ".bytes" => {
            let bytes: Option<Vec<u8>> = rest
                .split_whitespace()
                .map(|t| u8::from_str_radix(t, 16).ok())
                .collect();
            let bytes = bytes.ok_or_else(|| err(lineno, "expected hex bytes"))?;
            match section {
                Section::Data => asm.db(&bytes),
                Section::Rodata => asm.rodata_bytes(&bytes),
                Section::Text => return Err(err(lineno, ".bytes not allowed in .text")),
            }
            Ok(())
        }
        _ => Err(err(lineno, format!("unknown directive {directive}"))),
    }
}

fn parse_string(s: &str) -> Option<String> {
    let s = s.trim();
    let inner = s.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::new();
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                '0' => out.push('\0'),
                '\\' => out.push('\\'),
                '"' => out.push('"'),
                other => out.push(other),
            }
        } else {
            out.push(c);
        }
    }
    Some(out)
}

fn parse_u64(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse_i32(s: &str) -> Option<i32> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x") {
        u32::from_str_radix(hex, 16).ok().map(|v| v as i32)
    } else if let Some(hex) = s.strip_prefix("-0x") {
        // Down to `-0x80000000`; a larger magnitude is malformed.
        u32::from_str_radix(hex, 16).ok().and_then(|v| 0i32.checked_sub_unsigned(v))
    } else {
        s.parse().ok()
    }
}

fn parse_reg(s: &str) -> Option<Reg> {
    let s = s.trim();
    if s == "sp" {
        return Some(Reg::SP);
    }
    let idx: u8 = s.strip_prefix('r')?.parse().ok()?;
    Reg::from_index(idx)
}

/// Parses `[reg+imm]` / `[reg-imm]` / `[reg]`.
fn parse_mem_operand(s: &str) -> Option<(Reg, i32)> {
    let inner = s.trim().strip_prefix('[')?.strip_suffix(']')?;
    if let Some(plus) = inner.find('+') {
        let reg = parse_reg(&inner[..plus])?;
        let imm = parse_i32(&inner[plus + 1..])?;
        Some((reg, imm))
    } else if let Some(minus) = inner.rfind('-') {
        if minus == 0 {
            return None;
        }
        let reg = parse_reg(&inner[..minus])?;
        let imm = parse_i32(&inner[minus + 1..])?;
        Some((reg, imm.checked_neg()?))
    } else {
        Some((parse_reg(inner)?, 0))
    }
}

fn alu_op(mnemonic: &str) -> Option<(AluOp, bool)> {
    let (base, imm) = match mnemonic.strip_suffix('i') {
        // `divi`/`remi` don't exist; the `u` suffix is part of the base.
        Some(base) if base != "divu" && !base.is_empty() => (base, true),
        _ => (mnemonic, false),
    };
    let op = match base {
        "add" => AluOp::Add,
        "sub" => AluOp::Sub,
        "mul" => AluOp::Mul,
        "divu" => AluOp::Divu,
        "remu" => AluOp::Remu,
        "and" => AluOp::And,
        "or" => AluOp::Or,
        "xor" => AluOp::Xor,
        "shl" => AluOp::Shl,
        "shr" => AluOp::Shr,
        "sar" => AluOp::Sar,
        _ => return None,
    };
    Some((op, imm))
}

fn branch_cond(mnemonic: &str) -> Option<BranchCond> {
    Some(match mnemonic {
        "beq" => BranchCond::Eq,
        "bne" => BranchCond::Ne,
        "blt" => BranchCond::Lt,
        "bge" => BranchCond::Ge,
        "bltu" => BranchCond::Ltu,
        "bgeu" => BranchCond::Geu,
        _ => return None,
    })
}

fn parse_instr(asm: &mut Asm, line: &str, lineno: usize) -> Result<(), ParseError> {
    let (mnemonic, rest) = match line.find(char::is_whitespace) {
        Some(sp) => line.split_at(sp),
        None => (line, ""),
    };
    let ops: Vec<&str> = rest.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
    let bad = || err(lineno, format!("malformed operands for {mnemonic}: {rest:?}"));
    let need = |n: usize| -> Result<(), ParseError> {
        if ops.len() == n {
            Ok(())
        } else {
            Err(err(lineno, format!("{mnemonic} expects {n} operands, got {}", ops.len())))
        }
    };

    match mnemonic {
        "nop" => asm.nop(),
        "halt" => asm.halt(),
        "ret" => asm.ret(),
        "mfence" => asm.mfence(),
        "syscall" => asm.syscall(),
        "ldi" => {
            need(2)?;
            asm.ldi(parse_reg(ops[0]).ok_or_else(bad)?, parse_i32(ops[1]).ok_or_else(bad)?);
        }
        "ldih" => {
            need(2)?;
            asm.instr(cr_spectre_sim::isa::Instr::Ldih(
                parse_reg(ops[0]).ok_or_else(bad)?,
                parse_i32(ops[1]).ok_or_else(bad)?,
            ));
        }
        "mov" => {
            need(2)?;
            asm.mov(parse_reg(ops[0]).ok_or_else(bad)?, parse_reg(ops[1]).ok_or_else(bad)?);
        }
        "la" => {
            need(2)?;
            asm.la(parse_reg(ops[0]).ok_or_else(bad)?, ops[1]);
        }
        "ldb" | "ldw" | "ldd" => {
            need(2)?;
            let w = width_of(mnemonic);
            let rd = parse_reg(ops[0]).ok_or_else(bad)?;
            let (rs, imm) = parse_mem_operand(ops[1]).ok_or_else(bad)?;
            asm.ld(w, rd, rs, imm);
        }
        "stb" | "stw" | "std" => {
            need(2)?;
            let w = width_of(mnemonic);
            let (rs1, imm) = parse_mem_operand(ops[0]).ok_or_else(bad)?;
            let rs2 = parse_reg(ops[1]).ok_or_else(bad)?;
            asm.st(w, rs1, rs2, imm);
        }
        "jmp" => {
            need(1)?;
            asm.jmp(ops[0]);
        }
        "jmpr" => {
            need(1)?;
            asm.jmpr(parse_reg(ops[0]).ok_or_else(bad)?);
        }
        "call" => {
            need(1)?;
            asm.call(ops[0]);
        }
        "callr" => {
            need(1)?;
            asm.callr(parse_reg(ops[0]).ok_or_else(bad)?);
        }
        "push" => {
            need(1)?;
            asm.push(parse_reg(ops[0]).ok_or_else(bad)?);
        }
        "pop" => {
            need(1)?;
            asm.pop(parse_reg(ops[0]).ok_or_else(bad)?);
        }
        "clflush" => {
            need(1)?;
            let (rs, imm) = parse_mem_operand(ops[0]).ok_or_else(bad)?;
            asm.clflush(rs, imm);
        }
        "rdtsc" => {
            need(1)?;
            asm.rdtsc(parse_reg(ops[0]).ok_or_else(bad)?);
        }
        m => {
            if let Some(cond) = branch_cond(m) {
                need(3)?;
                asm.br(
                    cond,
                    parse_reg(ops[0]).ok_or_else(bad)?,
                    parse_reg(ops[1]).ok_or_else(bad)?,
                    ops[2],
                );
            } else if let Some((op, is_imm)) = alu_op(m) {
                need(3)?;
                let rd = parse_reg(ops[0]).ok_or_else(bad)?;
                let rs1 = parse_reg(ops[1]).ok_or_else(bad)?;
                if is_imm {
                    asm.alui(op, rd, rs1, parse_i32(ops[2]).ok_or_else(bad)?);
                } else {
                    asm.alu(op, rd, rs1, parse_reg(ops[2]).ok_or_else(bad)?);
                }
            } else {
                return Err(err(lineno, format!("unknown mnemonic {m:?}")));
            }
        }
    }
    Ok(())
}

fn width_of(mnemonic: &str) -> Width {
    match mnemonic.as_bytes()[2] {
        b'b' => Width::B,
        b'w' => Width::W,
        _ => Width::D,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_spectre_sim::config::MachineConfig;
    use cr_spectre_sim::cpu::Machine;

    fn run_src(src: &str) -> Machine {
        let image = assemble("t", src).unwrap();
        let mut m = Machine::new(MachineConfig::default());
        let li = m.load(&image).unwrap();
        m.start(li.entry);
        let out = m.run();
        assert!(out.exit.is_clean(), "{:?}", out.exit);
        m
    }

    #[test]
    fn counting_loop() {
        let m = run_src(
            "
            main:
                ldi r1, 0
                ldi r2, 4
            loop:
                addi r1, r1, 1
                bne r1, r2, loop
                halt
            ",
        );
        assert_eq!(m.reg(Reg::R1), 4);
    }

    #[test]
    fn data_access_and_comments() {
        let m = run_src(
            "
            ; a comment
            main:
                la r1, val     # trailing comment
                ldd r2, [r1]
                ldd r3, [r1+8]
                halt
            .data
            val: .dq 0x10
                 .dq 32
            ",
        );
        assert_eq!(m.reg(Reg::R2), 0x10);
        assert_eq!(m.reg(Reg::R3), 32);
    }

    #[test]
    fn mem_operand_forms() {
        assert_eq!(parse_mem_operand("[r1]"), Some((Reg::R1, 0)));
        assert_eq!(parse_mem_operand("[r2+16]"), Some((Reg::R2, 16)));
        assert_eq!(parse_mem_operand("[r2-8]"), Some((Reg::R2, -8)));
        assert_eq!(parse_mem_operand("[sp+0x10]"), Some((Reg::SP, 16)));
        assert_eq!(parse_mem_operand("r1"), None);
    }

    #[test]
    fn string_escapes() {
        assert_eq!(parse_string(r#""a\nb\0""#), Some("a\nb\0".into()));
        assert_eq!(parse_string("nope"), None);
    }

    #[test]
    fn pointer_directive() {
        let m = run_src(
            "
            main:
                la r1, ptr
                ldd r2, [r1]
                ldb r3, [r2]
                halt
            .data
            msg: .asciz \"Q\"
            ptr: .dq &msg
            ",
        );
        assert_eq!(m.reg(Reg::R3), b'Q' as u64);
    }

    #[test]
    fn unknown_mnemonic_reports_line() {
        let e = assemble("t", "main:\n    frobnicate r1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("frobnicate"));
    }

    #[test]
    fn operand_count_checked() {
        let e = assemble("t", "ldi r1").unwrap_err();
        assert!(e.message.contains("expects 2 operands"));
    }

    fn duplicate_at(src: &str) -> usize {
        let e = assemble("t", src).unwrap_err();
        assert!(e.message.contains("duplicate label"), "{e}");
        e.line
    }

    #[test]
    fn duplicate_text_label_is_an_error() {
        assert_eq!(duplicate_at("main: halt\nloop: nop\nloop: halt"), 3);
    }

    #[test]
    fn duplicate_data_label_is_an_error() {
        assert_eq!(duplicate_at("main: halt\n.data\nv: .dq 1\nv: .dq 2"), 4);
    }

    #[test]
    fn duplicate_rodata_label_is_an_error() {
        assert_eq!(duplicate_at("main: halt\n.rodata\nt: .bytes 00\n\nt: .bytes 01"), 5);
    }

    #[test]
    fn text_label_reused_in_data_is_an_error() {
        assert_eq!(duplicate_at("main: halt\n.data\nmain: .dq 1"), 3);
    }

    #[test]
    fn instructions_outside_text_rejected() {
        let e = assemble("t", ".data\nldi r1, 0").unwrap_err();
        assert!(e.message.contains("only allowed in .text"));
    }

    #[test]
    fn rodata_bytes_directive() {
        let image = assemble(
            "t",
            "
            main: halt
            .rodata
            tbl: .bytes de ad be ef
            ",
        )
        .unwrap();
        let sym = image.symbol("tbl").unwrap();
        let seg = image.segments.iter().find(|s| s.name == ".rodata").unwrap();
        assert_eq!(&seg.bytes[(sym - seg.offset) as usize..][..4], &[0xde, 0xad, 0xbe, 0xef]);
    }

    #[test]
    fn entry_directive() {
        let image = assemble("t", "main: halt\nalt: halt\n.entry alt").unwrap();
        assert_eq!(image.entry, image.symbol("alt").unwrap());
    }

    #[test]
    fn shift_and_alu_immediates() {
        let m = run_src(
            "
            main:
                ldi r1, 1
                shli r1, r1, 9
                muli r2, r1, 3
                andi r3, r2, 0xff0
                halt
            ",
        );
        assert_eq!(m.reg(Reg::R1), 512);
        assert_eq!(m.reg(Reg::R2), 1536);
        assert_eq!(m.reg(Reg::R3), 1536 & 0xff0);
    }
}
