//! Property-based tests of the assembler: label resolution, layout and
//! the parser/builder equivalence.

use proptest::prelude::*;

use cr_spectre_asm::builder::Asm;
use cr_spectre_asm::parser::assemble;
use cr_spectre_sim::config::MachineConfig;
use cr_spectre_sim::cpu::Machine;
use cr_spectre_sim::isa::{AluOp, Reg, INSTR_BYTES};
use cr_spectre_sim::mem::PAGE_SIZE;

proptest! {
    /// Any number of instructions before a label still resolves the
    /// branch to the exact instruction.
    #[test]
    fn labels_resolve_regardless_of_padding(pad in 0usize..64) {
        let mut asm = Asm::new();
        asm.label("main");
        asm.jmp("target");
        for _ in 0..pad {
            asm.ldi(Reg::R9, -1); // skipped
        }
        asm.label("target");
        asm.ldi(Reg::R1, 7);
        asm.halt();
        let image = asm.build("t").unwrap();
        prop_assert_eq!(
            image.symbol("target").unwrap(),
            (pad as u64 + 1) * INSTR_BYTES as u64
        );
        let mut machine = Machine::new(MachineConfig::default());
        let loaded = machine.load(&image).unwrap();
        machine.start(loaded.entry);
        prop_assert!(machine.run().exit.is_clean());
        prop_assert_eq!(machine.reg(Reg::R1), 7);
        prop_assert_eq!(machine.reg(Reg::R9), 0, "padding must be jumped over");
    }

    /// Data labels are laid out sequentially, with exact sizes, for any
    /// mix of directives.
    #[test]
    fn data_layout_is_exact(sizes in proptest::collection::vec(1u64..64, 1..10)) {
        let mut asm = Asm::new();
        asm.label("main");
        asm.halt();
        let mut expected = Vec::new();
        let mut offset = 0u64;
        for (i, &size) in sizes.iter().enumerate() {
            asm.data_label(format!("blk{i}"));
            asm.space(size);
            expected.push(offset);
            offset += size;
        }
        let image = asm.build("t").unwrap();
        let base = image.symbol("blk0").unwrap();
        prop_assert_eq!(base % PAGE_SIZE, 0, "data starts page-aligned");
        for (i, &off) in expected.iter().enumerate() {
            prop_assert_eq!(image.symbol(&format!("blk{i}")).unwrap(), base + off);
        }
    }

    /// The loader relocates `la` under any ASLR seed: the loaded pointer
    /// always matches the loaded symbol.
    #[test]
    fn la_survives_aslr(seed in any::<u64>()) {
        let mut asm = Asm::new();
        asm.label("main");
        asm.la(Reg::R1, "value");
        asm.halt();
        asm.data_label("value");
        asm.dq(0x55);
        let image = asm.build("t").unwrap();
        let mut cfg = MachineConfig::default();
        cfg.protect.aslr_seed = Some(seed);
        cfg.seed = seed;
        let mut machine = Machine::new(cfg);
        let loaded = machine.load(&image).unwrap();
        machine.start(loaded.entry);
        prop_assert!(machine.run().exit.is_clean());
        prop_assert_eq!(machine.reg(Reg::R1), loaded.addr("value"));
    }

    /// Immediate arithmetic written in text assembly computes exactly
    /// what Rust computes, for any operands.
    #[test]
    fn text_assembly_arithmetic(a in any::<i32>(), b in -1000i32..1000) {
        let src = format!(
            "main:\n  ldi r1, {a}\n  addi r2, r1, {b}\n  subi r3, r1, {b}\n  halt\n"
        );
        let image = assemble("t", &src).unwrap();
        let mut machine = Machine::new(MachineConfig::default());
        let loaded = machine.load(&image).unwrap();
        machine.start(loaded.entry);
        prop_assert!(machine.run().exit.is_clean());
        let a64 = a as i64 as u64;
        prop_assert_eq!(machine.reg(Reg::R2), a64.wrapping_add(b as i64 as u64));
        prop_assert_eq!(machine.reg(Reg::R3), a64.wrapping_sub(b as i64 as u64));
    }

    /// Builder and parser produce byte-identical text segments for the
    /// same ALU program.
    #[test]
    fn parser_matches_builder(ops in proptest::collection::vec((0u8..4, 1i32..100), 1..16)) {
        let mnemonics = ["add", "sub", "and", "or"];
        let alu = [AluOp::Add, AluOp::Sub, AluOp::And, AluOp::Or];
        let mut src = String::from("main:\n");
        let mut asm = Asm::new();
        asm.label("main");
        for &(op, imm) in &ops {
            src.push_str(&format!("  {}i r1, r2, {}\n", mnemonics[op as usize], imm));
            asm.alui(alu[op as usize], Reg::R1, Reg::R2, imm);
        }
        src.push_str("  halt\n");
        asm.halt();
        let from_text = assemble("t", &src).unwrap();
        let from_builder = asm.build("t").unwrap();
        prop_assert_eq!(&from_text.segments[0].bytes, &from_builder.segments[0].bytes);
    }

    /// Label definitions in any section order never panic the text
    /// assembler: a program whose names are all distinct assembles, and
    /// the first redefinition is reported as an error on its own line.
    #[test]
    fn label_definitions_never_panic(
        defs in proptest::collection::vec((0u8..3, 0u8..5, any::<bool>()), 0..24)
    ) {
        let mut src = String::from("main: halt\n");
        let mut lines = 1;
        let mut seen = std::collections::BTreeSet::from(["main".to_string()]);
        let mut first_duplicate = None;
        for &(section, name, with_body) in &defs {
            let (directive, body) = match section {
                0 => (".text", "nop"),
                1 => (".data", ".dq 1"),
                _ => (".rodata", ".bytes 00"),
            };
            let label = if name == 4 { "main".to_string() } else { format!("l{name}") };
            src.push_str(&format!("{directive}\n{label}:"));
            if with_body {
                src.push_str(&format!(" {body}"));
            }
            src.push('\n');
            lines += 2;
            if !seen.insert(label) && first_duplicate.is_none() {
                first_duplicate = Some(lines);
            }
        }
        match (assemble("t", &src), first_duplicate) {
            (Ok(image), None) => {
                for label in &seen {
                    prop_assert!(image.symbol(label).is_some(), "{} missing", label);
                }
            }
            (Err(e), Some(line)) => {
                prop_assert_eq!(e.line, line);
                prop_assert!(e.message.contains("duplicate label"), "{}", e);
            }
            (result, expected) => {
                prop_assert!(false, "{:?} for first duplicate at {:?}", result.err(), expected);
            }
        }
    }
}

/// Line heads for [`assembling_token_soup_never_panics`]: mnemonics
/// (real, near-misses and empty), directives and label definitions.
const HEADS: &[&str] = &[
    "nop", "halt", "ret", "mfence", "syscall", "ldi", "ldih", "mov", "la", "ldb", "ldw", "ldd",
    "stb", "stw", "std", "jmp", "jmpr", "call", "callr", "push", "pop", "clflush", "rdtsc",
    "beq", "bne", "blt", "bge", "bltu", "bgeu", "add", "addi", "sub", "subi", "mul", "muli",
    "divu", "divui", "remu", "remui", "and", "or", "xor", "shl", "shr", "sar", "sari", "i", "u",
    "ld", "st", "b", ".text", ".data", ".rodata", ".entry", ".asciz", ".space", ".dq",
    ".bytes", ".", ".zero", "main:", "l0:", "l1:", "l0: nop", "main: .dq", ":", "",
];

/// Operands: registers in and out of range, labels and label
/// references, numbers at the `i32`, `i64` and `u64` boundaries and with
/// a bad radix, memory operands, strings and stray punctuation.
const OPERANDS: &[&str] = &[
    "r0", "r1", "r9", "r15", "r16", "r99", "r-1", "r", "sp", "R1", "main", "l0", "l1", "&l0",
    "&main", "&", "0", "1", "-1", "7", "2147483647", "2147483648", "-2147483648",
    "-2147483649", "4294967295", "4294967296", "9223372036854775807", "9223372036854775808",
    "-9223372036854775808", "18446744073709551615", "18446744073709551616", "0x", "0x0",
    "0x7fffffff", "0x80000000", "-0x80000000", "-0x80000001", "0xffffffff", "-0xffffffff",
    "0x100000000", "0xffffffffffffffff", "0x10000000000000000", "0xg", "0b101", "0o17", "1e9",
    "--1", "+1", "[r1]", "[r1+8]", "[r1-8]", "[r1+-8]", "[r1-2147483648]", "[r1+0x80000000]",
    "[r1--0x80000000]", "[r1-0x80000000]", "[r16]", "[sp+0x10]", "[]", "[", "]", "[r1+]",
    "[-1]", "\"", "\"a;b\"", "\"\\\"", "\"\\n\\0\"", "ff", "00", "zz", "100", ",", ";",
    "#", "+", "-", "*", ":", "é", "\t", "\u{0}",
];

/// A line of token soup: the first pair of `tokens` picks a head, the
/// rest operands, each followed by the separator its second byte picks
/// (mostly a comma).
fn soup_line(tokens: &[(u8, u8)]) -> String {
    let mut line = String::new();
    for (k, &(token, sep)) in tokens.iter().enumerate() {
        let pool = if k == 0 { HEADS } else { OPERANDS };
        line.push_str(pool[token as usize % pool.len()]);
        line.push_str([", ", ", ", " ", ""][sep as usize % 4]);
    }
    line
}

proptest! {
    /// Assembler text is guest input: whatever it holds, `assemble`
    /// returns an image or a typed error, and never panics. Token soup
    /// over every mnemonic, register, directive and boundary number,
    /// with a very long line in one case in four.
    #[test]
    fn assembling_token_soup_never_panics(
        lines in proptest::collection::vec(proptest::collection::vec((any::<u8>(), any::<u8>()), 1..5), 0..24),
        long in (any::<u8>(), any::<u8>(), 0usize..16_000),
    ) {
        let mut src: String = lines.iter().map(|tokens| soup_line(tokens) + "\n").collect();
        let (token, sep, repeat) = long;
        if repeat % 4 == 0 {
            src.push_str(&soup_line(&[(token, sep)]));
            src.push_str(&soup_line(&[(0, 0), (token, sep)])[5..].repeat(repeat / 4));
            src.push('\n');
        }
        let _ = assemble("soup", &src);
    }
}

/// Inputs token soup found panicking the assembler (with overflow
/// checks on), pinned: each now assembles or is a typed error.
#[test]
fn pinned_soup_inputs_do_not_panic() {
    // The most negative hex immediate still assembles.
    let image = assemble("pinned", "main: ldi r1, -0x80000000\nhalt\n").unwrap();
    let mut machine = Machine::new(MachineConfig::default());
    let loaded = machine.load(&image).unwrap();
    machine.start(loaded.entry);
    assert!(machine.run().exit.is_clean());
    assert_eq!(machine.reg(Reg::R1), i32::MIN as i64 as u64);
    for (src, message) in [
        // Negating a hex magnitude beyond `i32::MIN`.
        ("ldi r1, -0xffffffff\n", "malformed operands"),
        // Negating the displacement `i32::MIN`.
        ("ldd r1, [r2--0x80000000]\n", "malformed operands"),
        // Reserving more than any image can hold, and overflowing the
        // section's length.
        (".data\n.space 18446744073709551615\n", "image exceeds"),
        (".data\nx: .space 9223372036854775807\n.space 9223372036854775807\ny: .dq 1\n", "image exceeds"),
    ] {
        let e = assemble("pinned", src).expect_err(src);
        assert!(e.message.contains(message), "{src:?}: {e}");
    }
}
