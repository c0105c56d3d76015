//! The execution fast path must be invisible: a `Machine<Fast>` (block
//! cache, the caches' hit batches, batched PMU counters, permission
//! cache) and a `Machine<Reference>` built from the same configuration
//! may never differ in a single architectural or microarchitectural
//! outcome — the cache counters included, read mid-run — and —
//! the load-bearing case for CR-Spectre, whose ROP chain injects the
//! Spectre binary into the host image at runtime — self-modifying code
//! must always execute the *new* bytes, never a stale decode.

use std::hash::{DefaultHasher, Hash, Hasher};

use cr_spectre_sim::config::{ExecPath, Fast, MachineConfig, Reference};
use cr_spectre_sim::cpu::{Machine, StepStatus};
use cr_spectre_sim::error::{ExitReason, Fault, RunOutcome};
use cr_spectre_sim::image::{Image, ImageSegment, SegKind};
use cr_spectre_sim::isa::{AluOp, BranchCond, Instr, Reg, Width, INSTR_BYTES};
use cr_spectre_sim::mem::{Perms, PAGE_SIZE};
use cr_spectre_sim::pmu::{HpcEvent, PmuSnapshot};

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

/// A started machine (DEP off) about to run [`self_patching_program`].
fn self_patching_machine<P: ExecPath>() -> Machine<P> {
    let mut cfg = MachineConfig::default().with_path::<P>();
    cfg.protect.dep = false;
    let mut m = Machine::new(cfg);
    let li = m.load(&image_from(&self_patching_program())).unwrap();
    m.start(li.entry);
    m.set_reg(Reg::R7, li.entry + INSTR_BYTES as u64); // address of i1
    m
}

fn run_self_patching<P: ExecPath>() -> Machine<P> {
    let mut m = self_patching_machine::<P>();
    let out = m.run();
    assert!(out.exit.is_clean(), "self-patching run exits cleanly: {:?}", out.exit);
    m
}

#[test]
fn guest_store_into_own_text_executes_new_bytes() {
    let m = run_self_patching::<Fast>();
    assert_eq!(
        m.reg(Reg::R5),
        99,
        "second pass over the patched instruction must see the new decode"
    );
}

#[test]
fn self_modifying_run_is_identical_with_fast_path_off() {
    let mut fast = run_self_patching::<Fast>();
    let mut slow = run_self_patching::<Reference>();
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
    // Execute both instructions twice so both are warm in the block
    // cache.
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
    // Speculation fetches through the same block cache; a poke between
    // bursts must invalidate it there too.
    fn run<P: ExecPath>() -> ((PmuSnapshot, bool), u64, bool) {
        let mut m = Machine::new(MachineConfig::default().with_path::<P>());
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
    }
    let fast = run::<Fast>();
    let slow = run::<Reference>();
    assert_eq!(fast, slow, "transient fast path is invisible");
    let (_, loads_after, resident_after) = fast;
    assert_eq!(loads_after, 1, "the second burst must not replay the stale load");
    assert!(!resident_after, "no transient fill after the gadget was patched out");
}

#[test]
fn whole_workload_equivalence_fast_vs_slow() {
    // A branchy, memory-heavy guest with speculation: checksum a buffer
    // with a data-dependent branch in the loop.
    fn run<P: ExecPath>() -> (RunOutcome, u64, PmuSnapshot) {
        let mut m = Machine::new(MachineConfig::default().with_path::<P>());
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
    }
    let fast = run::<Fast>();
    let slow = run::<Reference>();
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

const MIX_BUF: u64 = 64 * 1024;

/// A started machine about to run [`mix_program`] over a fresh
/// [`MIX_BUF`]-byte buffer; returns the buffer's address too.
fn mix_machine<P: ExecPath>(iters: u32) -> (Machine<P>, u64) {
    let mut m = Machine::new(MachineConfig::default().with_path::<P>());
    let li = m.load(&image_from(&mix_program(iters))).unwrap();
    let buf = m.alloc(MIX_BUF, Perms::RW);
    m.start(li.entry);
    m.set_reg(Reg::R1, buf);
    (m, buf)
}

#[test]
fn call_ret_mix_over_64k_buffer_is_identical_fast_vs_slow() {
    const ITERS: u32 = 40_000;
    const BUF: u64 = MIX_BUF;
    fn run<P: ExecPath>() -> (RunOutcome, u64, u64, PmuSnapshot, u64) {
        let (mut m, buf) = mix_machine::<P>(ITERS);
        let out = m.run();
        assert!(out.exit.is_clean(), "mix halts cleanly: {:?}", out.exit);
        let mut h = DefaultHasher::new();
        m.mem().peek(buf, BUF as usize).hash(&mut h);
        (out, m.reg(Reg::R11), m.reg(Reg::R3), m.pmu().snapshot(), h.finish())
    }
    let fast = run::<Fast>();
    let slow = run::<Reference>();
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

#[test]
fn only_the_fast_path_has_a_decode_cache() {
    // The loader's permission changes all precede the first fetch, so the
    // blocks decode once each, under one flush, and the 2000 loop
    // iterations run from the cache. Seven blocks: i0..i7 and i8..i11
    // (eight instructions at most, the call ends the second), the leaf
    // i15..i16, i12..i13 after the return, then the loop entered at i2:
    // i2..i9 and i10..i11, and the final halt.
    let (mut fast, _) = mix_machine::<Fast>(2_000);
    fast.run();
    assert_eq!(fast.decode_cache_stats(), (7, 1));
    // Every instruction ran inside a block, four per iteration: the
    // first runs i0..i7 and i8..i11, the others i2..i9 and i10..i11, and
    // each the leaf and i12..i13. The halt is one more.
    assert_eq!(fast.blocks_run(), 4 * 2_000 + 1);
    assert_eq!(fast.instructions(), 2 + 14 * 2_000 + 1);
    let (mut slow, _) = mix_machine::<Reference>(2_000);
    slow.run();
    assert_eq!(slow.decode_cache_stats(), (0, 0));
    assert_eq!(slow.blocks_run(), 0);
    // A guest store into its own text drops the cache once more.
    assert_eq!(run_self_patching::<Fast>().decode_cache_stats().1, 2);
}

#[test]
fn reading_the_pmu_after_every_step_changes_nothing() {
    // Each read settles the fast path's batched counts; a settle that lost
    // or double-counted a batch, or disturbed the cache model, would show
    // up against the run that never reads.
    let run = |read_every_step: bool| {
        let (mut m, _) = mix_machine::<Fast>(500);
        while m.step() == StepStatus::Running {
            if read_every_step {
                m.pmu();
            }
        }
        let caches = m.caches();
        let levels = [caches.l1d(), caches.l1i(), caches.l2()]
            .map(|c| (c.hits(), c.misses(), c.evictions()));
        (m.cycles(), levels, m.pmu().snapshot())
    };
    assert_eq!(run(true), run(false));
}

/// Nine instruction lines 4 KiB apart, so all in one L1i set: the first
/// holds a leaf function that `main` (in another set) calls three times,
/// and the other eight are a chain of jumps ending in `Halt`. The ninth
/// line evicts the least recently used one, which is only the leaf's line
/// if the fast path's batched hits on it reach the cache model in order.
fn l1i_set_conflict_program() -> Vec<Instr> {
    const SET_STRIDE: usize = 512; // instructions per 4 KiB
    let b = INSTR_BYTES as i32;
    let mut text = vec![Instr::Nop; 8 * SET_STRIDE + 1];
    text[0] = Instr::Jmp(8 * b); // to main
    text[1] = Instr::Alui(AluOp::Add, Reg::R11, Reg::R11, 1); // leaf
    text[2] = Instr::Ret;
    for (at, slot) in text.iter_mut().enumerate().take(11).skip(8) {
        *slot = Instr::Call((1 - at as i32) * b); // main: three calls of the leaf
    }
    text[11] = Instr::Jmp((SET_STRIDE as i32 - 11) * b);
    for line in 1..8 {
        text[line * SET_STRIDE] = Instr::Jmp(SET_STRIDE as i32 * b);
    }
    text[8 * SET_STRIDE] = Instr::Halt;
    text
}

#[test]
fn l1i_set_conflicts_are_identical_on_both_paths() {
    fn run<P: ExecPath>() -> (RunOutcome, u64, PmuSnapshot, u64) {
        let mut m = Machine::new(MachineConfig::default().with_path::<P>());
        let li = m.load(&image_from(&l1i_set_conflict_program())).unwrap();
        m.start(li.entry);
        let out = m.run();
        assert!(out.exit.is_clean(), "{:?}", out.exit);
        (out, m.reg(Reg::R11), m.pmu().snapshot(), m.caches().l1i().evictions())
    }
    let fast = run::<Fast>();
    assert_eq!(fast, run::<Reference>());
    assert_eq!(fast.1, 3, "the leaf ran three times");
    assert!(fast.3 > 0, "the ninth line evicted one — the equivalence is not vacuous");
}

/// Everything a window sampler can observe of a machine between calls.
fn observe<P: ExecPath>(m: &mut Machine<P>) -> (u64, Vec<u64>, u64, u64, PmuSnapshot) {
    let regs = Reg::ALL.iter().map(|&r| m.reg(r)).collect();
    (m.pc(), regs, m.cycles(), m.instructions(), m.pmu().snapshot())
}

/// Drives `window` (the `run_until` loop) and `oracle` (single steps
/// while `cycles() < limit`) over the same ladder of cycle limits and
/// asserts they agree after every window and on the final exit.
fn assert_ladder_matches_steps<P: ExecPath>(
    mut window: Machine<P>,
    mut oracle: Machine<P>,
    rung: u64,
) {
    let mut limit = 0;
    let mut windows = 0;
    loop {
        limit += rung;
        let got = window.run_until(limit);
        let mut want = None;
        while oracle.cycles() < limit {
            if let StepStatus::Done(exit) = oracle.step() {
                want = Some(exit);
                break;
            }
        }
        windows += 1;
        assert_eq!(got, want, "window {windows} (limit {limit}): exit");
        assert_eq!(observe(&mut window), observe(&mut oracle), "window {windows} (limit {limit}): state");
        if got.is_some() {
            break;
        }
    }
    assert!(windows > 3, "the ladder cut the run into several windows, got {windows}");
}

#[test]
fn run_until_ladder_matches_single_steps_on_self_patching_code() {
    fn check<P: ExecPath>() {
        // The program is short: a small rung still cuts it several times.
        assert_ladder_matches_steps(self_patching_machine::<P>(), self_patching_machine::<P>(), 7);
    }
    check::<Fast>();
    check::<Reference>();
}

#[test]
fn run_until_ladder_matches_single_steps_on_call_ret_mix() {
    fn check<P: ExecPath>() {
        let (window, _) = mix_machine::<P>(2_000);
        let (oracle, _) = mix_machine::<P>(2_000);
        assert_ladder_matches_steps(window, oracle, 997);
    }
    check::<Fast>();
    check::<Reference>();
}

#[test]
fn run_until_edge_cases() {
    fn check<P: ExecPath>() {
        // A limit at or below the current cycle executes nothing.
        let (mut m, _) = mix_machine::<P>(100);
        assert_eq!(m.run_until(500), None);
        let before = observe(&mut m);
        assert!(before.2 >= 500);
        assert_eq!(m.run_until(before.2), None, "limit == cycles()");
        assert_eq!(m.run_until(0), None, "limit < cycles()");
        assert_eq!(observe(&mut m), before, "no instruction ran");

        // A stopped machine returns its stored exit, whatever the limit.
        let exit = m.run_until(u64::MAX);
        assert_eq!(exit, Some(ExitReason::Halted));
        let stopped = observe(&mut m);
        assert_eq!(m.run_until(u64::MAX), exit);
        assert_eq!(m.run_until(0), exit);
        assert_eq!(observe(&mut m), stopped, "a stopped machine stays put");

        // The instruction budget surfaces through `run_until` too.
        let cfg = MachineConfig { max_instructions: 1_000, ..MachineConfig::default() };
        let mut m = Machine::new(cfg.with_path::<P>());
        let li = m.load(&image_from(&[Instr::Jmp(0)])).unwrap();
        m.start(li.entry);
        assert_eq!(m.run_until(u64::MAX), Some(ExitReason::Fault(Fault::MaxInstructions)));
        assert_eq!(m.instructions(), 1_000);
    }
    check::<Fast>();
    check::<Reference>();
}

/// Each cache level's `(hits, misses, evictions)`, L1d, L1i, L2.
type CacheCounts = [(u64, u64, u64); 3];

/// Everything `run_traced` leaves behind on one path: the trace, the
/// registers, the cycle count, the cache counters (read before the PMU,
/// so before anything settles) and the full PMU snapshot.
type TracedRun = (Vec<(u64, Instr)>, Vec<u64>, u64, CacheCounts, PmuSnapshot);

fn traced<P: ExecPath>(mut m: Machine<P>, limit: usize) -> TracedRun {
    let trace = m.run_traced(limit);
    let regs = Reg::ALL.iter().map(|&r| m.reg(r)).collect();
    let caches = m.caches();
    let levels = [caches.l1d(), caches.l1i(), caches.l2()]
        .map(|c| (c.hits(), c.misses(), c.evictions()));
    (trace, regs, m.cycles(), levels, m.pmu().snapshot())
}

#[test]
fn run_traced_is_identical_on_both_paths() {
    // Self-patching code: the trace must show the patched instruction's
    // new decode on the second pass, on both paths.
    let fast = traced(self_patching_machine::<Fast>(), 1_000);
    assert_eq!(fast, traced(self_patching_machine::<Reference>(), 1_000));
    let patched: Vec<_> =
        fast.0.iter().filter(|(_, i)| matches!(i, Instr::Ldi(Reg::R5, _))).collect();
    assert_eq!(patched.len(), 2);
    assert_eq!(patched[1].1, Instr::Ldi(Reg::R5, 99), "the trace shows the new bytes");
    // The call/ret mix, cut by the limit mid-run and then run to the end.
    for limit in [777, 100_000] {
        let fast = traced(mix_machine::<Fast>(300).0, limit);
        assert_eq!(fast, traced(mix_machine::<Reference>(300).0, limit), "limit {limit}");
        let retired = fast.4.count(HpcEvent::Instructions);
        assert_eq!(fast.0.len() as u64, retired, "one entry per retired instruction");
        assert!(fast.0.len() == limit || fast.0.last().unwrap().1 == Instr::Halt, "limit {limit}");
        assert!(fast.4.count(HpcEvent::Returns) > 0);
    }
}

/// The shape of the dispersal loop the generation-2 perturbations run: a
/// six-instruction block (multiply, xor, add, the counter's decrement,
/// the zero load and the back edge) taken `iters` times, then a halt.
fn hash_loop_program(iters: i32) -> Vec<Instr> {
    let b = INSTR_BYTES as i32;
    vec![
        /* i0 */ Instr::Ldi(Reg::R10, iters),
        // top:
        /* i1 */ Instr::Alui(AluOp::Mul, Reg::R9, Reg::R10, 0x0100_0193),
        /* i2 */ Instr::Alui(AluOp::Xor, Reg::R9, Reg::R9, 0x5bd1),
        /* i3 */ Instr::Alu(AluOp::Add, Reg::R9, Reg::R9, Reg::R9),
        /* i4 */ Instr::Alui(AluOp::Sub, Reg::R10, Reg::R10, 1),
        /* i5 */ Instr::Ldi(Reg::R0, 0),
        /* i6 */ Instr::Br(BranchCond::Ne, Reg::R10, Reg::R0, -(5 * b)),
        /* i7 */ Instr::Halt,
    ]
}

/// A started machine about to run [`hash_loop_program`] under an
/// instruction budget of `max_instructions`.
fn hash_loop_machine<P: ExecPath>(iters: i32, max_instructions: u64) -> Machine<P> {
    let cfg = MachineConfig { max_instructions, ..MachineConfig::default() };
    let mut m = Machine::new(cfg.with_path::<P>());
    let li = m.load(&image_from(&hash_loop_program(iters))).unwrap();
    m.start(li.entry);
    m
}

#[test]
fn instruction_budget_inside_a_block_faults_on_the_same_instruction() {
    // Budgets that end the run at every instruction of the first loop
    // iterations, the blocks' middles included, and one that lets it halt.
    fn run<P: ExecPath>(max_instructions: u64) -> (RunOutcome, (u64, Vec<u64>, u64, u64, PmuSnapshot)) {
        let mut m = hash_loop_machine::<P>(100, max_instructions);
        (m.run(), observe(&mut m))
    }
    for max_instructions in (1..=20).chain([1_000]) {
        let fast = run::<Fast>(max_instructions);
        let slow = run::<Reference>(max_instructions);
        assert_eq!(fast, slow, "max_instructions {max_instructions}");
        let (outcome, state) = fast;
        if max_instructions < 1_000 {
            assert_eq!(outcome.exit, ExitReason::Fault(Fault::MaxInstructions));
            assert_eq!(state.3, max_instructions, "retired exactly the budget");
        } else {
            assert_eq!(outcome.exit, ExitReason::Halted);
        }
    }
}

#[test]
fn run_until_every_limit_over_a_block_loop_matches_the_reference() {
    // One window per cycle: every window edge falls inside a block, at
    // every position of it, and each window's counter deltas must agree.
    let mut fast = hash_loop_machine::<Fast>(40, u64::MAX);
    let mut slow = hash_loop_machine::<Reference>(40, u64::MAX);
    let (mut last_fast, mut last_slow) = (fast.pmu().snapshot(), slow.pmu().snapshot());
    for limit in 1.. {
        let exit = fast.run_until(limit);
        assert_eq!(exit, slow.run_until(limit), "limit {limit}: exit");
        let (now_fast, now_slow) = (fast.pmu().snapshot(), slow.pmu().snapshot());
        assert_eq!(now_fast - last_fast, now_slow - last_slow, "limit {limit}: window deltas");
        assert_eq!(observe(&mut fast), observe(&mut slow), "limit {limit}: state");
        (last_fast, last_slow) = (now_fast, now_slow);
        if exit.is_some() {
            assert_eq!(exit, Some(ExitReason::Halted));
            assert!(limit > 200, "the loop ran over many windows, got {limit}");
            break;
        }
    }
    assert!(fast.blocks_run() > 40, "the loop ran in blocks");
}
