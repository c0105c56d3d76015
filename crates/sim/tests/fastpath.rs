//! The execution fast path must be invisible: the predecoded-instruction
//! cache and the page-permission cache may never change a single
//! architectural or microarchitectural outcome, and — the load-bearing
//! case for CR-Spectre, whose ROP chain injects the Spectre binary into
//! the host image at runtime — self-modifying code must always execute
//! the *new* bytes, never a stale decode.

use std::hash::{DefaultHasher, Hash, Hasher};

use cr_spectre_sim::config::MachineConfig;
use cr_spectre_sim::cpu::{Machine, StepStatus};
use cr_spectre_sim::image::{Image, ImageSegment, SegKind};
use cr_spectre_sim::isa::{AluOp, BranchCond, Instr, Reg, Width, INSTR_BYTES};
use cr_spectre_sim::mem::{Perms, PAGE_SIZE};
use cr_spectre_sim::pmu::HpcEvent;

fn image_from(instrs: &[Instr]) -> Image {
    let bytes: Vec<u8> = instrs.iter().flat_map(|i| i.encode()).collect();
    Image::new(
        "test",
        vec![ImageSegment { name: ".text".into(), kind: SegKind::Text, offset: 0, bytes }],
        0,
    )
}

/// A guest that patches an instruction it has *already executed*, jumps
/// back, and re-executes it. Needs DEP off (text is then RWX) — exactly
/// the self-modifying shape a runtime code injection produces.
fn self_patching_program() -> Vec<Instr> {
    // The patch target starts as `Ldi(R5, 1)` and is overwritten, by the
    // guest itself, with the encoding of `Ldi(R5, 99)`.
    let patched = u64::from_le_bytes(Instr::Ldi(Reg::R5, 99).encode());
    let lo = (patched & 0xffff_ffff) as u32;
    let hi = (patched >> 32) as u32;
    vec![
        /* i0 */ Instr::Ldi(Reg::R4, 0),
        /* i1 */ Instr::Ldi(Reg::R5, 1), // patch target (R7 = its address)
        /* i2 */ Instr::Br(BranchCond::Ne, Reg::R4, Reg::R0, 6 * INSTR_BYTES as i32),
        /* i3 */ Instr::Ldi(Reg::R6, lo as i32),
        /* i4 */ Instr::Ldih(Reg::R6, hi as i32),
        /* i5 */ Instr::St(Width::D, Reg::R7, Reg::R6, 0),
        /* i6 */ Instr::Ldi(Reg::R4, 1),
        /* i7 */ Instr::Jmp(-(6 * INSTR_BYTES as i32)),
        /* i8 */ Instr::Halt,
    ]
}

fn run_self_patching(fast_path: bool) -> Machine {
    let mut cfg = MachineConfig { fast_path, ..MachineConfig::default() };
    cfg.protect.dep = false;
    let mut m = Machine::new(cfg);
    let li = m.load(&image_from(&self_patching_program())).unwrap();
    m.start(li.entry);
    m.set_reg(Reg::R7, li.entry + INSTR_BYTES as u64); // address of i1
    let out = m.run();
    assert!(out.exit.is_clean(), "self-patching run exits cleanly: {:?}", out.exit);
    m
}

#[test]
fn guest_store_into_own_text_executes_new_bytes() {
    let m = run_self_patching(true);
    assert_eq!(
        m.reg(Reg::R5),
        99,
        "second pass over the patched instruction must see the new decode"
    );
}

#[test]
fn self_modifying_run_is_identical_with_fast_path_off() {
    let fast = run_self_patching(true);
    let slow = run_self_patching(false);
    assert_eq!(fast.reg(Reg::R5), slow.reg(Reg::R5));
    assert_eq!(fast.cycles(), slow.cycles(), "identical timing");
    assert_eq!(
        fast.pmu().snapshot(),
        slow.pmu().snapshot(),
        "identical performance-counter trace"
    );
}

#[test]
fn host_poke_of_already_executed_address_is_served_fresh() {
    // DEP stays on: `poke` bypasses permissions, like the debugger/loader
    // (and the attack harness) does.
    let mut m = Machine::new(MachineConfig::default());
    let li = m
        .load(&image_from(&[
            Instr::Ldi(Reg::R5, 1),
            Instr::Jmp(-(INSTR_BYTES as i32)),
        ]))
        .unwrap();
    m.start(li.entry);
    // Execute both instructions twice so every slot is warm in the
    // predecode cache.
    for _ in 0..4 {
        assert_eq!(m.step(), StepStatus::Running);
    }
    assert_eq!(m.reg(Reg::R5), 1);
    // Host patches the already-executed, already-cached first instruction.
    m.mem_mut().poke(li.entry, &Instr::Ldi(Reg::R5, 42).encode());
    for _ in 0..2 {
        assert_eq!(m.step(), StepStatus::Running);
    }
    assert_eq!(m.reg(Reg::R5), 42, "poked bytes must be decoded, not the stale cache");
    // And a second poke turns the loop into a halt.
    m.mem_mut().poke(li.entry + INSTR_BYTES as u64, &Instr::Halt.encode());
    for _ in 0..4 {
        if let StepStatus::Done(exit) = m.step() {
            assert!(exit.is_clean());
            return;
        }
    }
    panic!("machine did not halt after the loop was patched out");
}

#[test]
fn transient_execution_sees_poked_code() {
    // Speculation fetches through the same decode cache; a poke between
    // bursts must invalidate it there too.
    let run = |fast_path: bool| {
        let cfg = MachineConfig { fast_path, ..MachineConfig::default() };
        let mut m = Machine::new(cfg);
        let probe = m.alloc(PAGE_SIZE, Perms::RW);
        let code = m.alloc(PAGE_SIZE, Perms::RW);
        let body: Vec<u8> = [Instr::Ld(Width::B, Reg::R9, Reg::R6, 0), Instr::Halt]
            .iter()
            .flat_map(|i| i.encode())
            .collect();
        m.mem_mut().poke(code, &body);
        m.mem_mut().set_perms(code, PAGE_SIZE, Perms::RX);
        m.set_reg(Reg::R6, probe);
        m.caches_mut().flush_line(probe);
        m.speculate_at(code, 400);
        let first = (m.pmu().snapshot(), m.caches().data_resident(probe));
        // Rewrite the transient gadget: now it's a pure Halt, no load.
        m.mem_mut().poke(code, &Instr::Halt.encode());
        m.caches_mut().flush_line(probe);
        m.speculate_at(code, 400);
        let loads_after = m.pmu().count(HpcEvent::SpecLoads);
        let resident_after = m.caches().data_resident(probe);
        (first, loads_after, resident_after)
    };
    let fast = run(true);
    let slow = run(false);
    assert_eq!(fast, slow, "transient fast path is invisible");
    let (_, loads_after, resident_after) = fast;
    assert_eq!(loads_after, 1, "the second burst must not replay the stale load");
    assert!(!resident_after, "no transient fill after the gadget was patched out");
}

#[test]
fn whole_workload_equivalence_fast_vs_slow() {
    // A branchy, memory-heavy guest with speculation: checksum a buffer
    // with a data-dependent branch in the loop.
    let run = |fast_path: bool| {
        let cfg = MachineConfig { fast_path, ..MachineConfig::default() };
        let mut m = Machine::new(cfg);
        let buf = m.alloc(PAGE_SIZE, Perms::RW);
        let data: Vec<u8> = (0u32..512).map(|i| (i * 31 % 251) as u8).collect();
        m.mem_mut().poke(buf, &data);
        let li = m
            .load(&image_from(&[
                /* i0 */ Instr::Ldi(Reg::R1, buf as i32),
                /* i1 */ Instr::Ldi(Reg::R2, 0),   // index
                /* i2 */ Instr::Ldi(Reg::R3, 512), // len
                /* i3 */ Instr::Ldi(Reg::R4, 0),   // accumulator
                // loop:
                /* i4 */ Instr::Alu(cr_spectre_sim::isa::AluOp::Add, Reg::R8, Reg::R1, Reg::R2),
                /* i5 */ Instr::Ld(Width::B, Reg::R9, Reg::R8, 0),
                // data-dependent branch: skip odd bytes.
                /* i6 */ Instr::Alui(cr_spectre_sim::isa::AluOp::And, Reg::R10, Reg::R9, 1),
                /* i7 */ Instr::Br(BranchCond::Ne, Reg::R10, Reg::R0, 2 * INSTR_BYTES as i32),
                /* i8 */ Instr::Alu(cr_spectre_sim::isa::AluOp::Add, Reg::R4, Reg::R4, Reg::R9),
                /* i9 */ Instr::Alui(cr_spectre_sim::isa::AluOp::Add, Reg::R2, Reg::R2, 1),
                /* i10 */ Instr::Br(BranchCond::Ne, Reg::R2, Reg::R3, -(6 * INSTR_BYTES as i32)),
                /* i11 */ Instr::Halt,
            ]))
            .unwrap();
        m.start(li.entry);
        let out = m.run();
        assert!(out.exit.is_clean());
        (out, m.reg(Reg::R4), m.pmu().snapshot())
    };
    let fast = run(true);
    let slow = run(false);
    assert_eq!(fast.0, slow.0, "identical run outcome (instructions, cycles, exit)");
    assert_eq!(fast.1, slow.1, "identical checksum");
    assert_eq!(fast.2, slow.2, "identical 56-counter PMU trace");
    assert!(
        fast.2.count(HpcEvent::SpecInstrs) > 0,
        "the workload actually speculated — the equivalence is not vacuous"
    );
}

/// The interpreter's steady-state diet: `iters` round trips through a
/// 14-instruction loop body — 6 ALU ops, 2 loads, 1 store, a call/ret
/// pair to a leaf that counts calls in `R11`, and the back edge —
/// striding through a 64 KiB read-write buffer whose base the host
/// passes in `R1`.
fn mix_program(iters: u32) -> Vec<Instr> {
    let b = INSTR_BYTES as i32; // branch immediates are byte offsets
    vec![
        /* i0  */ Instr::Ldi(Reg::R2, iters as i32),
        /* i1  */ Instr::Ldi(Reg::R3, 0), // i = 0
        // loop:
        /* i2  */ Instr::Alui(AluOp::Add, Reg::R4, Reg::R3, 13),
        /* i3  */ Instr::Alui(AluOp::Xor, Reg::R5, Reg::R4, 0x55),
        /* i4  */ Instr::Alu(AluOp::Add, Reg::R6, Reg::R4, Reg::R5),
        /* i5  */ Instr::Alui(AluOp::And, Reg::R7, Reg::R6, 0xfff8),
        /* i6  */ Instr::Alu(AluOp::Add, Reg::R8, Reg::R1, Reg::R7),
        /* i7  */ Instr::Ld(Width::D, Reg::R9, Reg::R8, 0),
        /* i8  */ Instr::Alu(AluOp::Add, Reg::R9, Reg::R9, Reg::R6),
        /* i9  */ Instr::St(Width::D, Reg::R8, Reg::R9, 0),
        /* i10 */ Instr::Ld(Width::W, Reg::R10, Reg::R1, 64),
        /* i11 */ Instr::Call(4 * b), // leaf at i15
        /* i12 */ Instr::Alui(AluOp::Add, Reg::R3, Reg::R3, 1),
        /* i13 */ Instr::Br(BranchCond::Ne, Reg::R3, Reg::R2, -(11 * b)), // back to i2
        /* i14 */ Instr::Halt,
        // leaf:
        /* i15 */ Instr::Alui(AluOp::Add, Reg::R11, Reg::R11, 1),
        /* i16 */ Instr::Ret,
    ]
}

#[test]
fn call_ret_mix_over_64k_buffer_is_identical_fast_vs_slow() {
    const ITERS: u32 = 40_000;
    const BUF: u64 = 64 * 1024;
    let run = |fast_path: bool| {
        let cfg = MachineConfig { fast_path, ..MachineConfig::default() };
        let mut m = Machine::new(cfg);
        let li = m.load(&image_from(&mix_program(ITERS))).unwrap();
        let buf = m.alloc(BUF, Perms::RW);
        m.start(li.entry);
        m.set_reg(Reg::R1, buf);
        let out = m.run();
        assert!(out.exit.is_clean(), "mix halts cleanly: {:?}", out.exit);
        let mut h = DefaultHasher::new();
        m.mem().peek(buf, BUF as usize).hash(&mut h);
        (out, m.reg(Reg::R11), m.reg(Reg::R3), m.pmu().snapshot(), h.finish())
    };
    let fast = run(true);
    let slow = run(false);
    assert_eq!(fast.0, slow.0, "identical run outcome (instructions, cycles, exit)");
    assert_eq!((fast.1, fast.2), (slow.1, slow.2), "identical leaf-call count and loop index");
    assert_eq!(fast.3, slow.3, "identical 56-counter PMU trace");
    assert_eq!(fast.4, slow.4, "identical buffer contents");
    assert_eq!(fast.1, u64::from(ITERS), "the leaf ran once per iteration");
    assert!(
        fast.3.count(HpcEvent::L1dMiss) > 0 && fast.3.count(HpcEvent::Returns) == u64::from(ITERS),
        "the mix actually missed in L1D and returned from every call — the equivalence is not vacuous"
    );
}
