//! Performance monitoring unit: 56 hardware performance counters.
//!
//! The paper collects "a total of 56 performance events available on the
//! system" offline and monitors a small subset (feature sizes 16/8/4/2/1)
//! in real time. This module defines the full event set produced by the
//! simulator and a [`Pmu`] counter bank with snapshot/delta support used by
//! the `cr-spectre-hpc` profiler.

use std::fmt;
use std::ops::{Index, Sub};

/// One hardware performance event.
///
/// The first six events are the classifier features highlighted by the
/// paper (total cache misses, total cache accesses, total branch
/// instructions, branch mispredictions, total instructions, total cycles);
/// see [`HpcEvent::PAPER_FEATURES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum HpcEvent {
    /// Total cache misses across all levels (paper feature 1).
    TotalCacheMiss,
    /// Total cache accesses across all levels (paper feature 2).
    TotalCacheAccess,
    /// Total branch instructions (paper feature 3).
    BranchInstrs,
    /// Mispredicted branches (paper feature 4).
    BranchMispredicts,
    /// Architecturally retired instructions (paper feature 5).
    Instructions,
    /// Elapsed cycles (paper feature 6; used for the IPC metric).
    Cycles,
    /// L1 data-cache accesses.
    L1dAccess,
    /// L1 data-cache hits.
    L1dHit,
    /// L1 data-cache misses.
    L1dMiss,
    /// L1 instruction-cache accesses.
    L1iAccess,
    /// L1 instruction-cache hits.
    L1iHit,
    /// L1 instruction-cache misses.
    L1iMiss,
    /// L2 accesses.
    L2Access,
    /// L2 hits.
    L2Hit,
    /// L2 misses.
    L2Miss,
    /// Demand reads that reached DRAM.
    MemReads,
    /// Writes that reached DRAM.
    MemWrites,
    /// Retired load instructions.
    Loads,
    /// Retired store instructions.
    Stores,
    /// Retired byte-wide loads.
    LoadBytes,
    /// Retired 64-bit loads.
    LoadDwords,
    /// Conditional branches retired.
    CondBranches,
    /// Conditional branches resolved taken.
    BranchTaken,
    /// Conditional branches resolved not-taken.
    BranchNotTaken,
    /// Indirect jumps/calls retired.
    IndirectBranches,
    /// Direct/indirect calls retired.
    Calls,
    /// Returns retired.
    Returns,
    /// Returns whose RSB prediction was wrong.
    RsbMispredicts,
    /// Indirect branches with no/incorrect BTB target.
    BtbMispredicts,
    /// Unconditional jumps retired.
    Jumps,
    /// `PUSH` instructions retired.
    Pushes,
    /// `POP` instructions retired.
    Pops,
    /// ALU register-register operations retired.
    AluOps,
    /// Multiply operations retired.
    MulOps,
    /// Divide/remainder operations retired.
    DivOps,
    /// Shift operations retired.
    ShiftOps,
    /// Immediate-operand ALU operations retired.
    AluImmOps,
    /// Register moves and immediate loads retired.
    MovOps,
    /// `CLFLUSH` instructions retired.
    Flushes,
    /// `MFENCE` instructions retired.
    Fences,
    /// `RDTSC` instructions retired.
    Rdtscs,
    /// System calls executed.
    Syscalls,
    /// Instructions executed transiently (later squashed).
    SpecInstrs,
    /// Loads executed transiently.
    SpecLoads,
    /// Stores buffered transiently (dropped at squash).
    SpecStores,
    /// Pipeline squashes (mispredict recoveries).
    SpecSquashes,
    /// Speculation windows that hit the depth cap.
    SpecWindowExhausted,
    /// Cycles stalled waiting on data-cache misses.
    StallCyclesMem,
    /// Cycles lost to branch-mispredict recovery.
    StallCyclesBranch,
    /// Memory-protection faults suppressed during speculation.
    SpecFaultsSuppressed,
    /// Architectural memory-protection faults raised.
    PageFaults,
    /// Stack-canary checks executed.
    CanaryChecks,
    /// Shadow-stack mismatches detected.
    ShadowStackViolations,
    /// `exec` system calls (image injections).
    ExecCalls,
    /// Bytes written through the `write` syscall.
    BytesWritten,
    /// Cache lines evicted by capacity/conflict replacement.
    CacheEvictions,
}

impl HpcEvent {
    /// Number of distinct events (matches the paper's "total of 56").
    pub const COUNT: usize = 56;

    /// The six features used by the paper's HID, in paper order.
    pub const PAPER_FEATURES: [HpcEvent; 6] = [
        HpcEvent::TotalCacheMiss,
        HpcEvent::TotalCacheAccess,
        HpcEvent::BranchInstrs,
        HpcEvent::BranchMispredicts,
        HpcEvent::Instructions,
        HpcEvent::Cycles,
    ];

    /// All events in index order.
    pub fn all() -> impl Iterator<Item = HpcEvent> {
        (0..Self::COUNT as u8).map(|i| HpcEvent::from_index(i).expect("index in range"))
    }

    /// The event's counter index in `0..56`.
#[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Builds an event from its counter index.
    pub fn from_index(idx: u8) -> Option<HpcEvent> {
        if (idx as usize) < Self::COUNT {
            // SAFETY-free: enum is repr(u8) with contiguous discriminants
            // 0..COUNT; use a lookup built from the match below instead of
            // transmute.
            Some(ALL_EVENTS[idx as usize])
        } else {
            None
        }
    }
}

const ALL_EVENTS: [HpcEvent; HpcEvent::COUNT] = [
    HpcEvent::TotalCacheMiss,
    HpcEvent::TotalCacheAccess,
    HpcEvent::BranchInstrs,
    HpcEvent::BranchMispredicts,
    HpcEvent::Instructions,
    HpcEvent::Cycles,
    HpcEvent::L1dAccess,
    HpcEvent::L1dHit,
    HpcEvent::L1dMiss,
    HpcEvent::L1iAccess,
    HpcEvent::L1iHit,
    HpcEvent::L1iMiss,
    HpcEvent::L2Access,
    HpcEvent::L2Hit,
    HpcEvent::L2Miss,
    HpcEvent::MemReads,
    HpcEvent::MemWrites,
    HpcEvent::Loads,
    HpcEvent::Stores,
    HpcEvent::LoadBytes,
    HpcEvent::LoadDwords,
    HpcEvent::CondBranches,
    HpcEvent::BranchTaken,
    HpcEvent::BranchNotTaken,
    HpcEvent::IndirectBranches,
    HpcEvent::Calls,
    HpcEvent::Returns,
    HpcEvent::RsbMispredicts,
    HpcEvent::BtbMispredicts,
    HpcEvent::Jumps,
    HpcEvent::Pushes,
    HpcEvent::Pops,
    HpcEvent::AluOps,
    HpcEvent::MulOps,
    HpcEvent::DivOps,
    HpcEvent::ShiftOps,
    HpcEvent::AluImmOps,
    HpcEvent::MovOps,
    HpcEvent::Flushes,
    HpcEvent::Fences,
    HpcEvent::Rdtscs,
    HpcEvent::Syscalls,
    HpcEvent::SpecInstrs,
    HpcEvent::SpecLoads,
    HpcEvent::SpecStores,
    HpcEvent::SpecSquashes,
    HpcEvent::SpecWindowExhausted,
    HpcEvent::StallCyclesMem,
    HpcEvent::StallCyclesBranch,
    HpcEvent::SpecFaultsSuppressed,
    HpcEvent::PageFaults,
    HpcEvent::CanaryChecks,
    HpcEvent::ShadowStackViolations,
    HpcEvent::ExecCalls,
    HpcEvent::BytesWritten,
    HpcEvent::CacheEvictions,
];

impl fmt::Display for HpcEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A snapshot of all 56 counters at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmuSnapshot {
    counts: [u64; HpcEvent::COUNT],
}

impl PmuSnapshot {
    /// The zero snapshot.
    pub fn zero() -> PmuSnapshot {
        PmuSnapshot { counts: [0; HpcEvent::COUNT] }
    }

    /// Counter value for `event`.
    pub fn count(&self, event: HpcEvent) -> u64 {
        self.counts[event.index()]
    }

    /// Adds `n` to `event`.
    pub(crate) fn add(&mut self, event: HpcEvent, n: u64) {
        self.counts[event.index()] += n;
    }

    /// Instructions-per-cycle over this snapshot (0 when no cycles).
    pub fn ipc(&self) -> f64 {
        let cycles = self.count(HpcEvent::Cycles);
        if cycles == 0 {
            0.0
        } else {
            self.count(HpcEvent::Instructions) as f64 / cycles as f64
        }
    }
}

impl Index<HpcEvent> for PmuSnapshot {
    type Output = u64;

    fn index(&self, event: HpcEvent) -> &u64 {
        &self.counts[event.index()]
    }
}

impl Sub for PmuSnapshot {
    type Output = PmuSnapshot;

    /// Per-counter saturating difference: `self - earlier`. Branch-free,
    /// so it vectorises: a lane whose subtraction borrows is masked to 0.
    fn sub(self, earlier: PmuSnapshot) -> PmuSnapshot {
        let mut counts = [0u64; HpcEvent::COUNT];
        for ((c, &a), &b) in counts.iter_mut().zip(&self.counts).zip(&earlier.counts) {
            let d = a.wrapping_sub(b);
            let borrow = ((!a & b) | (!(a ^ b) & d)) >> 63;
            *c = d & borrow.wrapping_sub(1);
        }
        PmuSnapshot { counts }
    }
}

/// The live counter bank.
///
/// Plain integers, written through `&mut self`. A machine's bank is read
/// through [`Machine::pmu`](crate::cpu::Machine::pmu), which first
/// settles the counts the simulator's fast path batches, so a reader
/// never sees a partial total.
///
/// # Examples
///
/// ```
/// use cr_spectre_sim::pmu::{HpcEvent, Pmu};
///
/// let mut pmu = Pmu::new();
/// pmu.add(HpcEvent::Instructions, 3);
/// let before = pmu.snapshot();
/// pmu.add(HpcEvent::Instructions, 2);
/// let delta = pmu.snapshot() - before;
/// assert_eq!(delta.count(HpcEvent::Instructions), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Pmu {
    counts: [u64; HpcEvent::COUNT],
}

impl Pmu {
    /// Creates a zeroed counter bank.
    pub fn new() -> Pmu {
        Pmu { counts: [0; HpcEvent::COUNT] }
    }

    /// Increments `event` by one.
    #[inline]
    pub fn incr(&mut self, event: HpcEvent) {
        self.counts[event.index()] += 1;
    }

    /// Adds `n` to `event`.
    #[inline]
    pub fn add(&mut self, event: HpcEvent, n: u64) {
        self.counts[event.index()] += n;
    }

    /// Current value of `event`.
    #[inline]
    pub fn count(&self, event: HpcEvent) -> u64 {
        self.counts[event.index()]
    }

    /// Copies the current counters into an immutable snapshot.
    pub fn snapshot(&self) -> PmuSnapshot {
        PmuSnapshot { counts: self.counts }
    }
}

impl Default for Pmu {
    fn default() -> Pmu {
        Pmu::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_count_is_56() {
        assert_eq!(HpcEvent::all().count(), 56);
        assert_eq!(HpcEvent::COUNT, 56);
    }

    #[test]
    fn index_round_trip() {
        for event in HpcEvent::all() {
            assert_eq!(HpcEvent::from_index(event.index() as u8), Some(event));
        }
        assert_eq!(HpcEvent::from_index(56), None);
    }

    #[test]
    fn all_events_table_matches_discriminants() {
        for (i, &event) in ALL_EVENTS.iter().enumerate() {
            assert_eq!(event.index(), i, "{event}");
        }
    }

    #[test]
    fn paper_features_are_the_first_six() {
        for (i, event) in HpcEvent::PAPER_FEATURES.iter().enumerate() {
            assert_eq!(event.index(), i);
        }
    }

    #[test]
    fn snapshot_delta() {
        let mut pmu = Pmu::new();
        pmu.add(HpcEvent::Cycles, 100);
        pmu.add(HpcEvent::Instructions, 50);
        let a = pmu.snapshot();
        pmu.add(HpcEvent::Cycles, 10);
        pmu.incr(HpcEvent::L1dMiss);
        let d = pmu.snapshot() - a;
        assert_eq!(d.count(HpcEvent::Cycles), 10);
        assert_eq!(d.count(HpcEvent::L1dMiss), 1);
        assert_eq!(d.count(HpcEvent::Instructions), 0);
    }

    #[test]
    fn delta_saturates_instead_of_underflowing() {
        let mut pmu = Pmu::new();
        pmu.add(HpcEvent::Cycles, 5);
        let later = pmu.snapshot();
        let mut fresh = Pmu::new();
        fresh.add(HpcEvent::Cycles, 2);
        let d = fresh.snapshot() - later;
        assert_eq!(d.count(HpcEvent::Cycles), 0);
    }

    /// The branch-free subtraction against per-lane `saturating_sub`, on
    /// the edge values and on a seeded random sweep.
    #[test]
    fn delta_matches_saturating_sub_per_lane() {
        use rand::rngs::StdRng;
        use rand::{Rng, RngCore, SeedableRng};
        let edges = [0, 1, 2, (1 << 63) - 1, 1 << 63, (1 << 63) + 1, u64::MAX - 1, u64::MAX];
        let mut pairs: Vec<(u64, u64)> =
            edges.iter().flat_map(|&a| edges.iter().map(move |&b| (a, b))).collect();
        let mut rng = StdRng::seed_from_u64(0x5eed_0056);
        pairs.extend((0..20_000).map(|i| {
            let a = rng.next_u64();
            // Every other pair a near neighbour, where the borrow turns on
            // the low bits.
            let b = if i % 2 == 0 { rng.next_u64() } else { a.wrapping_add(rng.random_range(0..5)).wrapping_sub(2) };
            (a, b)
        }));
        for chunk in pairs.chunks(HpcEvent::COUNT) {
            let (mut a, mut b) = (PmuSnapshot::zero(), PmuSnapshot::zero());
            for (i, &(x, y)) in chunk.iter().enumerate() {
                a.counts[i] = x;
                b.counts[i] = y;
            }
            let d = a - b;
            for (i, &(x, y)) in chunk.iter().enumerate() {
                assert_eq!(d.counts[i], x.saturating_sub(y), "{x} - {y}");
            }
        }
    }

    #[test]
    fn ipc() {
        let mut pmu = Pmu::new();
        assert_eq!(pmu.snapshot().ipc(), 0.0);
        pmu.add(HpcEvent::Instructions, 300);
        pmu.add(HpcEvent::Cycles, 100);
        assert!((pmu.snapshot().ipc() - 3.0).abs() < 1e-12);
    }
}
