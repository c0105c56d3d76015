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
