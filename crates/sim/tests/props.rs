//! Property-based tests of the simulator's core invariants.

use std::collections::BTreeSet;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use cr_spectre_sim::branch::{Counter, PatternHistoryTable, ReturnStackBuffer};
use cr_spectre_sim::cache::{Cache, CacheConfig, CacheHierarchy, HierarchyConfig, Lookup};
use cr_spectre_sim::config::{ExecPath, Fast, MachineConfig, Reference};
use cr_spectre_sim::cpu::Machine;
use cr_spectre_sim::image::{Image, ImageSegment, SegKind};
use cr_spectre_sim::isa::{AluOp, Instr, Reg};
use cr_spectre_sim::mem::{AccessKind, MemFault, Memory, Perms, PAGE_SIZE};
use cr_spectre_sim::pmu::{HpcEvent, Pmu};

/// Everything one cache operation of a random stream shows: the lookup
/// or probe result, then the hit, miss and eviction counts.
type CacheStep = (Option<Lookup>, Option<bool>, u64, u64, u64);

/// Runs a stream of `(kind, line, offset)` operations — mostly accesses,
/// with probes, line flushes and whole-cache flushes — over a pool of
/// lines from `base` on a 2-set, 4-way cache, so LRU picks its victims
/// among lines the fast path has batched hits on.
fn cache_stream<P: ExecPath>(ops: &[(u8, u64, u64)], line_size: u64, base: u64) -> Vec<CacheStep> {
    let mut c = Cache::<P>::new(CacheConfig { sets: 2, ways: 4, line_size, hit_latency: 1 });
    ops.iter()
        .map(|&(kind, line, offset)| {
            let addr = base.wrapping_add(line * line_size + offset % line_size);
            let (lookup, probe) = match kind {
                0..=10 => (Some(c.access(addr)), None),
                11 | 12 => (None, Some(c.probe(addr))),
                13 | 14 => {
                    c.flush(addr);
                    (None, None)
                }
                _ => {
                    c.flush_all();
                    (None, None)
                }
            };
            (lookup, probe, c.hits(), c.misses(), c.evictions())
        })
        .collect()
}

/// Pages of guest memory in the memory-oracle streams.
const ORACLE_PAGES: u64 = 6;
const ORACLE_SIZE: u64 = ORACLE_PAGES * PAGE_SIZE;

/// One operation of a random guest-memory stream.
#[derive(Debug, Clone)]
enum MemOp {
    Read { addr: u64, width: usize },
    Write { addr: u64, width: usize, value: u64 },
    Fetch { addr: u64, width: usize },
    Poke { addr: u64, data: Vec<u8> },
    Peek { addr: u64, len: usize },
    ReadCstr { addr: u64, max: usize },
    SetPerms { addr: u64, len: u64, perms: Perms },
    /// Clones the memory, then pokes `data` at `addr` into the clone only.
    Fork { addr: u64, data: Vec<u8> },
}

/// Addresses anywhere in memory, just past its end, around every page
/// boundary (so wide accesses straddle two pages) and at the top of the
/// address space.
fn guest_addr() -> impl Strategy<Value = u64> {
    prop_oneof![
        0..ORACLE_SIZE + 16,
        (1..ORACLE_PAGES + 1, 0u64..16).prop_map(|(page, d)| page * PAGE_SIZE - 8 + d),
        (0u64..16).prop_map(|d| u64::MAX - d),
    ]
}

/// The start of an in-range `len`-byte host access near `addr`.
fn in_range(addr: u64, len: usize) -> u64 {
    addr.min(ORACLE_SIZE - len as u64)
}

/// Reads and writes three times as often as the other operations, and
/// permission changes twice as often.
fn mem_op() -> impl Strategy<Value = MemOp> {
    // Bytes with a NUL now and then, so C-string scans end inside them.
    let bytes = proptest::collection::vec(any::<u8>().prop_map(|b| if b < 64 { 0 } else { b }), 0..24);
    (0u8..13, guest_addr(), 0..2 * PAGE_SIZE, any::<u64>(), bytes).prop_map(
        |(kind, addr, n, value, data)| {
            let width = [1, 4, 8][(n % 3) as usize];
            match kind {
                0..=2 => MemOp::Read { addr, width },
                3..=5 => MemOp::Write { addr, width, value },
                6 => MemOp::Fetch { addr, width },
                7 => MemOp::Poke { addr: in_range(addr, data.len()), data },
                8 => {
                    let len = (n % 24) as usize;
                    MemOp::Peek { addr: in_range(addr, len), len }
                }
                9 => MemOp::ReadCstr { addr, max: (n % 40) as usize },
                10 | 11 => {
                    let addr = addr.min(ORACLE_SIZE);
                    let perms = Perms { r: value & 1 != 0, w: value & 2 != 0, x: value & 4 != 0 };
                    MemOp::SetPerms { addr, len: n.min(ORACLE_SIZE - addr), perms }
                }
                _ => MemOp::Fork { addr: in_range(addr, data.len()), data },
            }
        },
    )
}

/// Flat model of guest memory: every byte, every page's permissions, and
/// the pages ever written (what the sparse storage must hold).
#[derive(Clone)]
struct FlatMem {
    bytes: Vec<u8>,
    perms: Vec<Perms>,
    written: BTreeSet<u64>,
}

impl FlatMem {
    fn new() -> FlatMem {
        FlatMem {
            bytes: vec![0; ORACLE_SIZE as usize],
            perms: vec![Perms::NONE; ORACLE_PAGES as usize],
            written: BTreeSet::new(),
        }
    }

    /// The fault of a `len`-byte access at `addr`: at `addr` when the range
    /// leaves memory, else at the first byte of the first page lacking the
    /// permission.
    fn fault(&self, addr: u64, len: u64, kind: AccessKind) -> Option<MemFault> {
        if len == 0 {
            return None;
        }
        let end = match addr.checked_add(len - 1) {
            Some(end) if end < ORACLE_SIZE => end,
            _ => return Some(MemFault { addr, kind }),
        };
        (addr / PAGE_SIZE..=end / PAGE_SIZE)
            .find(|&page| {
                let p = self.perms[page as usize];
                !match kind {
                    AccessKind::Read => p.r,
                    AccessKind::Write => p.w,
                    AccessKind::Fetch => p.x,
                }
            })
            .map(|page| MemFault { addr: (page * PAGE_SIZE).max(addr), kind })
    }

    fn load(&self, addr: u64, len: usize, kind: AccessKind) -> Result<Vec<u8>, MemFault> {
        match self.fault(addr, len as u64, kind) {
            Some(fault) => Err(fault),
            None => Ok(self.bytes[addr as usize..addr as usize + len].to_vec()),
        }
    }

    fn store(&mut self, addr: u64, data: &[u8]) {
        self.bytes[addr as usize..addr as usize + data.len()].copy_from_slice(data);
        self.written.extend((addr..addr + data.len() as u64).map(|a| a / PAGE_SIZE));
    }

    /// Applies `op` (except a fork): its result (read bytes or fault) and
    /// whether the code epoch moves.
    fn apply(&mut self, op: &MemOp) -> (Result<Vec<u8>, MemFault>, bool) {
        match *op {
            MemOp::Read { addr, width } => (self.load(addr, width, AccessKind::Read), false),
            MemOp::Fetch { addr, width } => (self.load(addr, width, AccessKind::Fetch), false),
            MemOp::Write { addr, width, value } => {
                if let Some(fault) = self.fault(addr, width as u64, AccessKind::Write) {
                    return (Err(fault), false);
                }
                let code = (addr / PAGE_SIZE..=(addr + width as u64 - 1) / PAGE_SIZE)
                    .any(|page| self.perms[page as usize].x);
                self.store(addr, &value.to_le_bytes()[..width]);
                (Ok(Vec::new()), code)
            }
            MemOp::Poke { addr, ref data } => {
                self.store(addr, data);
                (Ok(Vec::new()), !data.is_empty())
            }
            MemOp::Peek { addr, len } => {
                (Ok(self.bytes[addr as usize..addr as usize + len].to_vec()), false)
            }
            MemOp::ReadCstr { addr, max } => {
                let mut out = Vec::new();
                for a in (0..max as u64).map(|i| addr + i) {
                    if let Some(fault) = self.fault(a, 1, AccessKind::Read) {
                        return (Err(fault), false);
                    }
                    match self.bytes[a as usize] {
                        0 => break,
                        b => out.push(b),
                    }
                }
                (Ok(out), false)
            }
            MemOp::SetPerms { addr, len, perms } => {
                if len > 0 {
                    for page in addr / PAGE_SIZE..=(addr + len - 1) / PAGE_SIZE {
                        self.perms[page as usize] = perms;
                    }
                }
                (Ok(Vec::new()), len > 0)
            }
            MemOp::Fork { .. } => unreachable!("forks are applied by the stream"),
        }
    }
}

/// Applies `op` (except a fork) to `mem`: its result, as [`FlatMem::apply`].
fn apply_mem<P: ExecPath>(mem: &mut Memory<P>, op: &MemOp) -> Result<Vec<u8>, MemFault> {
    let le = |v: u64, width: usize| v.to_le_bytes()[..width].to_vec();
    match *op {
        MemOp::Read { addr, width } => match width {
            1 => mem.read_u8(addr).map(|v| vec![v]),
            4 => mem.read_u32(addr).map(|v| le(v.into(), 4)),
            _ => mem.read_u64(addr).map(|v| le(v, 8)),
        },
        MemOp::Write { addr, width, value } => match width {
            1 => mem.write_u8(addr, value as u8),
            4 => mem.write_u32(addr, value as u32),
            _ => mem.write_u64(addr, value),
        }
        .map(|()| Vec::new()),
        MemOp::Fetch { addr, width } => {
            let mut buf = vec![0; width];
            mem.fetch(addr, &mut buf).map(|()| buf)
        }
        MemOp::Poke { addr, ref data } => {
            mem.poke(addr, data);
            Ok(Vec::new())
        }
        MemOp::Peek { addr, len } => Ok(mem.peek(addr, len)),
        MemOp::ReadCstr { addr, max } => mem.read_cstr(addr, max),
        MemOp::SetPerms { addr, len, perms } => {
            mem.set_perms(addr, len, perms);
            Ok(Vec::new())
        }
        MemOp::Fork { .. } => unreachable!("forks are applied by the stream"),
    }
}

/// Every byte, every page's permissions and the resident page count of
/// `mem` match the model.
fn assert_same_memory<P: ExecPath>(mem: &Memory<P>, model: &FlatMem) -> Result<(), TestCaseError> {
    prop_assert_eq!(mem.size(), ORACLE_SIZE);
    prop_assert!(mem.peek(0, ORACLE_SIZE as usize) == model.bytes, "bytes differ from the model");
    for page in 0..ORACLE_PAGES {
        prop_assert_eq!(mem.perms_at(page * PAGE_SIZE), model.perms[page as usize], "page {}", page);
    }
    prop_assert_eq!(mem.resident_pages(), model.written.len(), "resident pages");
    Ok(())
}

/// Runs `ops` on a `Memory<P>` and the flat model side by side: after every
/// operation its result or fault, and whether the code epoch moved, must
/// agree; at the end, so must every byte of the memory and of each fork.
fn memory_stream<P: ExecPath>(ops: &[MemOp]) -> Result<(), TestCaseError> {
    let mut mem = Memory::<P>::new(ORACLE_SIZE);
    let mut model = FlatMem::new();
    let mut forks = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let epoch = mem.code_epoch();
        let (got, want) = match op {
            MemOp::Fork { addr, data } => {
                let (mut twin, mut twin_model) = (mem.clone(), model.clone());
                twin.poke(*addr, data);
                twin_model.store(*addr, data);
                forks.push((twin, twin_model));
                (Ok(Vec::new()), (Ok(Vec::new()), false))
            }
            _ => (apply_mem(&mut mem, op), model.apply(op)),
        };
        prop_assert_eq!(got, want.0, "op {}: {:?}", i, op);
        prop_assert_eq!(mem.code_epoch() != epoch, want.1, "op {}: code epoch of {:?}", i, op);
    }
    assert_same_memory(&mem, &model)?;
    for (twin, twin_model) in &forks {
        assert_same_memory(twin, twin_model)?;
    }
    Ok(())
}

proptest! {
    /// Sparse guest memory behaves as one flat byte array with a page
    /// permission table, on both execution paths: reads, writes and
    /// fetches of every width (page-straddling and out-of-range ones
    /// included), pokes, peeks, C-string scans, permission changes, and
    /// clones written independently of their original.
    #[test]
    fn memory_matches_flat_model_on_random_streams(
        ops in proptest::collection::vec(mem_op(), 1..300)
    ) {
        memory_stream::<Fast>(&ops)?;
        memory_stream::<Reference>(&ops)?;
    }
}

proptest! {
    /// `Cache<Fast>` (batched hits) and `Cache<Reference>` agree on every
    /// lookup, probe and counter along any stream over a small line pool,
    /// with 64-byte lines and with 1-byte lines up to the top address.
    #[test]
    fn fast_cache_matches_reference_on_random_streams(
        ops in proptest::collection::vec((0u8..16, 0u64..12, 0u64..64), 1..300)
    ) {
        prop_assert_eq!(cache_stream::<Fast>(&ops, 64, 0), cache_stream::<Reference>(&ops, 64, 0));
        let top = u64::MAX - 11;
        prop_assert_eq!(cache_stream::<Fast>(&ops, 1, top), cache_stream::<Reference>(&ops, 1, top));
    }

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
        let mut c: Cache = Cache::new(CacheConfig::l1d());
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
        let mut h: CacheHierarchy = CacheHierarchy::new(HierarchyConfig::default());
        let first = h.access_data(addr);
        let second = h.access_data(addr);
        prop_assert!(second.latency <= first.latency);
        prop_assert!(second.l1_hit);
    }

    /// probe_data_latency never mutates state: probing twice and then
    /// accessing gives the same miss the access would have had.
    #[test]
    fn probe_latency_is_pure(addr in any::<u64>()) {
        let mut h: CacheHierarchy = CacheHierarchy::new(HierarchyConfig::default());
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
        let mut mem: Memory = Memory::new(PAGE_SIZE * 8);
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
