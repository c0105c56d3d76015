//! Property-based tests of the simulator's core invariants.

use proptest::prelude::*;

use cr_spectre_sim::branch::{Counter, PatternHistoryTable, ReturnStackBuffer};
use cr_spectre_sim::cache::{Cache, CacheConfig, CacheHierarchy, HierarchyConfig};
use cr_spectre_sim::config::MachineConfig;
use cr_spectre_sim::cpu::Machine;
use cr_spectre_sim::image::{Image, ImageSegment, SegKind};
use cr_spectre_sim::isa::{AluOp, Instr, Reg};
use cr_spectre_sim::mem::{Memory, Perms, PAGE_SIZE};
use cr_spectre_sim::pmu::{HpcEvent, Pmu};

proptest! {
    /// ALU operations match Rust's wrapping semantics for all inputs.
    #[test]
    fn alu_matches_wrapping_semantics(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_eq!(AluOp::Add.apply(a, b), a.wrapping_add(b));
        prop_assert_eq!(AluOp::Sub.apply(a, b), a.wrapping_sub(b));
        prop_assert_eq!(AluOp::Mul.apply(a, b), a.wrapping_mul(b));
        prop_assert_eq!(AluOp::And.apply(a, b), a & b);
        prop_assert_eq!(AluOp::Or.apply(a, b), a | b);
        prop_assert_eq!(AluOp::Xor.apply(a, b), a ^ b);
        prop_assert_eq!(AluOp::Shl.apply(a, b), a << (b & 63));
        prop_assert_eq!(AluOp::Shr.apply(a, b), a >> (b & 63));
        prop_assert_eq!(AluOp::Sar.apply(a, b), ((a as i64) >> (b & 63)) as u64);
        if b != 0 {
            prop_assert_eq!(AluOp::Divu.apply(a, b), a / b);
            prop_assert_eq!(AluOp::Remu.apply(a, b), a % b);
        }
    }

    /// Decoding any 8 bytes either fails or re-encodes to canonical bytes
    /// that decode to the same instruction (idempotent canonicalization).
    #[test]
    fn decode_is_canonical(bytes in proptest::array::uniform8(any::<u8>())) {
        if let Ok(instr) = Instr::decode(&bytes) {
            let reencoded = instr.encode();
            prop_assert_eq!(Instr::decode(&reencoded).unwrap(), instr);
        }
    }

    /// The 2-bit counter never leaves its four states and saturates.
    #[test]
    fn counter_is_total(updates in proptest::collection::vec(any::<bool>(), 0..64)) {
        let mut c = Counter::WeakNot;
        for taken in updates {
            c = c.update(taken);
        }
        // Two consecutive same-direction updates always agree afterwards.
        let c2 = c.update(true).update(true);
        prop_assert!(c2.taken());
        let c3 = c.update(false).update(false);
        prop_assert!(!c3.taken());
    }

    /// PHT predictions converge after enough same-direction training, for
    /// any pc and any prior history.
    #[test]
    fn pht_converges(pc in any::<u64>(), history in proptest::collection::vec(any::<bool>(), 0..32)) {
        let mut pht = PatternHistoryTable::new(256);
        for h in history {
            pht.update(pc, h);
        }
        for _ in 0..2 {
            pht.update(pc, true);
        }
        prop_assert!(pht.predict(pc));
    }

    /// The RSB is LIFO for any push sequence within capacity.
    #[test]
    fn rsb_is_lifo(addrs in proptest::collection::vec(any::<u64>(), 1..16)) {
        let mut rsb = ReturnStackBuffer::new(16);
        for &a in &addrs {
            rsb.push(a);
        }
        for &a in addrs.iter().rev() {
            prop_assert_eq!(rsb.pop(), Some(a));
        }
        prop_assert_eq!(rsb.pop(), None);
    }

    /// A cache access makes exactly that line resident; same-line
    /// addresses agree, different-line addresses are unaffected unless
    /// they conflict by eviction.
    #[test]
    fn cache_line_granularity(addr in 0u64..(1 << 30)) {
        let mut c = Cache::new(CacheConfig::l1d());
        c.access(addr);
        let line = addr & !63;
        prop_assert!(c.probe(line));
        prop_assert!(c.probe(line + 63));
        prop_assert!(!c.probe(line ^ 64), "the adjacent line must stay cold");
    }

    /// Hierarchy latencies are monotone: L1 hit ≤ L2 hit ≤ memory, and
    /// a repeat access is never slower.
    #[test]
    fn hierarchy_latency_monotone(addr in any::<u64>()) {
        let mut h = CacheHierarchy::new(HierarchyConfig::default());
        let first = h.access_data(addr);
        let second = h.access_data(addr);
        prop_assert!(second.latency <= first.latency);
        prop_assert!(second.l1_hit);
    }

    /// probe_data_latency never mutates state: probing twice and then
    /// accessing gives the same miss the access would have had.
    #[test]
    fn probe_latency_is_pure(addr in any::<u64>()) {
        let mut h = CacheHierarchy::new(HierarchyConfig::default());
        let p1 = h.probe_data_latency(addr);
        let p2 = h.probe_data_latency(addr);
        prop_assert_eq!(p1, p2);
        prop_assert!(!h.data_resident(addr));
        let real = h.access_data(addr);
        prop_assert_eq!(real.latency, p1.latency);
    }

    /// Memory permissions are enforced for every page-aligned region.
    #[test]
    fn perms_partition_access(page in 0u64..8, kind in 0u8..3) {
        let mut mem = Memory::new(PAGE_SIZE * 8);
        let perms = match kind {
            0 => Perms::R,
            1 => Perms::RW,
            _ => Perms::RX,
        };
        mem.set_perms(page * PAGE_SIZE, PAGE_SIZE, perms);
        let addr = page * PAGE_SIZE + 100;
        prop_assert_eq!(mem.read_u8(addr).is_ok(), perms.r);
        prop_assert_eq!(mem.write_u8(addr, 1).is_ok(), perms.w);
        let mut buf = [0u8; 8];
        prop_assert_eq!(mem.fetch(addr, &mut buf).is_ok(), perms.x);
    }

    /// PMU deltas are consistent: delta(a→c) = delta(a→b) + delta(b→c)
    /// per event, for any increment sequence.
    #[test]
    fn pmu_deltas_compose(
        incs in proptest::collection::vec((0u8..56, 1u64..1000), 1..30),
        at_split in 0usize..30,
    ) {
        let mut pmu = Pmu::new();
        let a = pmu.snapshot();
        let split = at_split.min(incs.len());
        for &(e, n) in &incs[..split] {
            pmu.add(HpcEvent::from_index(e).unwrap(), n);
        }
        let b = pmu.snapshot();
        for &(e, n) in &incs[split..] {
            pmu.add(HpcEvent::from_index(e).unwrap(), n);
        }
        let c = pmu.snapshot();
        for event in HpcEvent::all() {
            prop_assert_eq!(
                (c - a).count(event),
                (b - a).count(event) + (c - b).count(event)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Running any straight-line ALU program retires exactly its length
    /// and the machine's cycle count is the PMU's cycle count.
    #[test]
    fn retirement_and_cycles_agree(
        ops in proptest::collection::vec((0u8..8, 0u8..14, 0u8..14, any::<i32>()), 1..40)
    ) {
        let mut text = Vec::new();
        for (op, rd, rs, imm) in &ops {
            let alu = [
                AluOp::Add, AluOp::Sub, AluOp::Mul, AluOp::And,
                AluOp::Or, AluOp::Xor, AluOp::Shl, AluOp::Shr,
            ][*op as usize];
            let instr = Instr::Alui(
                alu,
                Reg::from_index(*rd).unwrap(),
                Reg::from_index(*rs).unwrap(),
                *imm,
            );
            text.extend_from_slice(&instr.encode());
        }
        text.extend_from_slice(&Instr::Halt.encode());
        let image = Image::new(
            "prop",
            vec![ImageSegment { name: ".text".into(), kind: SegKind::Text, offset: 0, bytes: text }],
            0,
        );
        let mut machine = Machine::new(MachineConfig::default());
        let loaded = machine.load(&image).unwrap();
        machine.start(loaded.entry);
        let out = machine.run();
        prop_assert!(out.exit.is_clean());
        prop_assert_eq!(out.instructions, ops.len() as u64 + 1);
        prop_assert_eq!(machine.pmu().count(HpcEvent::Instructions), out.instructions);
        prop_assert_eq!(machine.pmu().count(HpcEvent::Cycles), out.cycles);
    }
}
