//! Property-based tests over the core invariants of the whole stack.

use proptest::prelude::*;

use cr_spectre::hpc::dataset::{Dataset, Label};
use cr_spectre::hpc::features::Normalizer;
use cr_spectre::rop::payload::{cyclic, cyclic_find, PayloadBuilder};
use cr_spectre::sim::cache::{Cache, CacheConfig};
use cr_spectre::sim::config::MachineConfig;
use cr_spectre::sim::cpu::Machine;
use cr_spectre::sim::isa::{AluOp, BranchCond, Instr, Reg, Width};
use cr_spectre::sim::mem::{Memory, Perms, PAGE_SIZE};

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..16).prop_map(|i| Reg::from_index(i).expect("in range"))
}

fn arb_alu_op() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::Mul),
        Just(AluOp::Divu),
        Just(AluOp::Remu),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
        Just(AluOp::Shl),
        Just(AluOp::Shr),
        Just(AluOp::Sar),
    ]
}

fn arb_cond() -> impl Strategy<Value = BranchCond> {
    prop_oneof![
        Just(BranchCond::Eq),
        Just(BranchCond::Ne),
        Just(BranchCond::Lt),
        Just(BranchCond::Ge),
        Just(BranchCond::Ltu),
        Just(BranchCond::Geu),
    ]
}

fn arb_width() -> impl Strategy<Value = Width> {
    prop_oneof![Just(Width::B), Just(Width::W), Just(Width::D)]
}

fn arb_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        Just(Instr::Nop),
        Just(Instr::Halt),
        Just(Instr::Ret),
        Just(Instr::MFence),
        Just(Instr::Syscall),
        (arb_reg(), any::<i32>()).prop_map(|(r, i)| Instr::Ldi(r, i)),
        (arb_reg(), any::<i32>()).prop_map(|(r, i)| Instr::Ldih(r, i)),
        (arb_reg(), arb_reg()).prop_map(|(a, b)| Instr::Mov(a, b)),
        (arb_alu_op(), arb_reg(), arb_reg(), arb_reg())
            .prop_map(|(o, a, b, c)| Instr::Alu(o, a, b, c)),
        (arb_alu_op(), arb_reg(), arb_reg(), any::<i32>())
            .prop_map(|(o, a, b, i)| Instr::Alui(o, a, b, i)),
        (arb_width(), arb_reg(), arb_reg(), any::<i32>())
            .prop_map(|(w, a, b, i)| Instr::Ld(w, a, b, i)),
        (arb_width(), arb_reg(), arb_reg(), any::<i32>())
            .prop_map(|(w, a, b, i)| Instr::St(w, a, b, i)),
        (arb_cond(), arb_reg(), arb_reg(), any::<i32>())
            .prop_map(|(c, a, b, i)| Instr::Br(c, a, b, i)),
        any::<i32>().prop_map(Instr::Jmp),
        arb_reg().prop_map(Instr::JmpR),
        any::<i32>().prop_map(Instr::Call),
        arb_reg().prop_map(Instr::CallR),
        arb_reg().prop_map(Instr::Push),
        arb_reg().prop_map(Instr::Pop),
        (arb_reg(), any::<i32>()).prop_map(|(r, i)| Instr::ClFlush(r, i)),
        arb_reg().prop_map(Instr::Rdtsc),
    ]
}

proptest! {
    /// Every instruction round-trips through its encoding.
    #[test]
    fn isa_encode_decode_round_trip(instr in arb_instr()) {
        let bytes = instr.encode();
        prop_assert_eq!(Instr::decode(&bytes).unwrap(), instr);
    }

    /// Memory reads return exactly what was written, for any in-range
    /// address and value.
    #[test]
    fn memory_round_trip(offset in 0u64..(PAGE_SIZE * 4 - 8), value in any::<u64>()) {
        let mut mem: Memory = Memory::new(PAGE_SIZE * 4);
        mem.set_perms(0, PAGE_SIZE * 4, Perms::RW);
        mem.write_u64(offset, value).unwrap();
        prop_assert_eq!(mem.read_u64(offset).unwrap(), value);
    }

    /// A line is resident immediately after access and gone immediately
    /// after flush, for any address.
    #[test]
    fn cache_access_flush_invariant(addr in any::<u64>()) {
        let mut cache: Cache = Cache::new(CacheConfig::l1d());
        cache.access(addr);
        prop_assert!(cache.probe(addr));
        cache.flush(addr);
        prop_assert!(!cache.probe(addr));
    }

    /// The payload layout is exact: padding length, then chain words in
    /// order, recoverable by parsing.
    #[test]
    fn payload_layout_round_trip(
        offset in 8usize..256,
        words in proptest::collection::vec(any::<u64>(), 1..12),
    ) {
        let payload = PayloadBuilder::new(offset).build(&words);
        prop_assert_eq!(payload.len(), offset + words.len() * 8);
        for (i, w) in words.iter().enumerate() {
            let at = offset + i * 8;
            let got = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
            prop_assert_eq!(got, *w);
        }
    }

    /// Cyclic patterns encode their own offsets.
    #[test]
    fn cyclic_pattern_self_describes(word_index in 0usize..512) {
        let pattern = cyclic((word_index + 1) * 8);
        let at = word_index * 8;
        let word = u64::from_le_bytes(pattern[at..at + 8].try_into().unwrap());
        prop_assert_eq!(cyclic_find(word), Some(at));
    }

    /// Dataset splits partition the data for any fraction and size.
    #[test]
    fn dataset_split_partitions(n in 10usize..200, fraction in 0.1f64..0.9, seed in any::<u64>()) {
        let mut data = Dataset::new();
        for i in 0..n {
            data.push_row(vec![i as f64], if i % 3 == 0 { Label::Attack } else { Label::Benign });
        }
        let (train, test) = data.split(fraction, seed);
        prop_assert_eq!(train.len() + test.len(), n);
        let mut seen: Vec<i64> = train.x.iter().chain(test.x.iter()).map(|r| r[0] as i64).collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..n as i64).collect::<Vec<_>>());
    }

    /// Normalized columns have near-zero mean for any data.
    #[test]
    fn normalizer_centers_columns(
        rows in proptest::collection::vec(
            proptest::collection::vec(-1e6f64..1e6, 3),
            2..50,
        )
    ) {
        let norm = Normalizer::fit(&rows);
        let mut out = rows.clone();
        for row in &mut out {
            norm.apply(row);
        }
        for col in 0..3 {
            let mean: f64 = out.iter().map(|r| r[col]).sum::<f64>() / out.len() as f64;
            prop_assert!(mean.abs() < 1e-6, "column {} mean {}", col, mean);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// THE Spectre invariant, fuzzed: transient execution of arbitrary
    /// straight-line code never changes architectural registers or
    /// memory, no matter what the code does.
    #[test]
    fn speculation_never_alters_architectural_state(
        instrs in proptest::collection::vec(arb_instr(), 1..12),
        budget in 1u64..500,
    ) {
        let mut machine = Machine::new(MachineConfig::default());
        let scratch = machine.alloc(PAGE_SIZE, Perms::RW);
        let code: Vec<u8> = instrs.iter().flat_map(|i| i.encode()).collect();
        let code_addr = machine.alloc(PAGE_SIZE, Perms::RW);
        machine.mem_mut().poke(code_addr, &code);
        machine.mem_mut().set_perms(code_addr, PAGE_SIZE, Perms::RX);
        // Pre-set registers to point somewhere readable so loads can hit.
        for r in Reg::ALL {
            machine.set_reg(r, scratch + 64 * r.index() as u64);
        }
        machine.set_reg(Reg::SP, machine.initial_sp());
        let regs_before: Vec<u64> = Reg::ALL.iter().map(|&r| machine.reg(r)).collect();
        let mem_before = machine.mem().peek(scratch, PAGE_SIZE as usize);

        machine.speculate_at(code_addr, budget);

        let regs_after: Vec<u64> = Reg::ALL.iter().map(|&r| machine.reg(r)).collect();
        prop_assert_eq!(regs_before, regs_after, "registers must be squashed");
        prop_assert_eq!(
            mem_before,
            machine.mem().peek(scratch, PAGE_SIZE as usize),
            "stores must be squashed"
        );
        prop_assert!(machine.exit_reason().is_none(), "faults must be suppressed");
    }
}
