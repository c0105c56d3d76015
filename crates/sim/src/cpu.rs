//! The machine: a speculative in-order core over the memory, cache,
//! predictor and PMU substrates.
//!
//! # Timing model
//!
//! The core is an interpreter with a *scoreboard* timing model:
//!
//! * every instruction costs one base cycle;
//! * a load issues in one cycle but its destination register only becomes
//!   *ready* after the cache latency — a later consumer stalls until then
//!   (counted as [`HpcEvent::StallCyclesMem`]);
//! * correctly predicted branches cost one cycle regardless of when their
//!   operands resolve (prediction hides latency);
//! * a mispredicted branch transiently executes the wrong path until the
//!   branch can resolve (operands ready + a fixed resolve delay), then
//!   squashes and pays [`MachineConfig::mispredict_penalty`].
//!
//! # Speculation semantics (the Spectre vulnerability)
//!
//! Transient execution runs on shadow registers with a byte-granular store
//! buffer; at squash every architectural effect is discarded **but cache
//! fills, cache flushes and PMU cache-event counts persist**. Faults during
//! transient execution are suppressed. This is precisely the behaviour
//! Spectre exploits and the behaviour hardware-assisted detectors observe
//! through performance counters.

use std::collections::{BTreeMap, HashMap};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::cache::CacheHierarchy;
use crate::config::{ExecPath, Fast, MachineConfig};
use crate::error::{ExitReason, Fault, RunOutcome};
use crate::image::{Image, LoadedImage, SegKind};
use crate::isa::{AluOp, Instr, Reg, Width, INSTR_BYTES};
use crate::mem::{Memory, Perms, PAGE_SIZE};
use crate::pmu::{HpcEvent, Pmu};
use crate::branch::Predictor;
use cr_spectre_telemetry as telemetry;

/// System-call numbers understood by the machine.
pub mod sys {
    /// `exit(code)` — ends the current image; ends the run at top level.
    pub const EXIT: u64 = 0;
    /// `write(ptr, len)` — append bytes to the machine's stdout buffer.
    pub const WRITE: u64 = 1;
    /// `exec(name_ptr)` — inject and run a registered binary in-process.
    pub const EXEC: u64 = 2;
    /// `abort()` — raise [`crate::error::Fault::Abort`] (canary failures).
    pub const ABORT: u64 = 3;
    /// `getrand()` — return a machine-seeded random `u64` in `r0`.
    pub const GETRAND: u64 = 4;
}

/// Guest address of the machine info page (holds the stack canary).
pub const INFO_PAGE: u64 = 0x1000;
/// Guest address where the canary value lives.
pub const CANARY_ADDR: u64 = INFO_PAGE;
/// Guest address of the argument area.
pub const ARG_BASE: u64 = 0x2000;
/// Size of the argument area in bytes.
pub const ARG_SIZE: u64 = 4 * PAGE_SIZE;
/// First base address used for loaded images.
pub const IMAGE_BASE: u64 = 0x10000;
/// Base of the bump-allocated heap region.
pub const HEAP_BASE: u64 = 0x0080_0000;

/// Result of one architectural step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepStatus {
    /// The machine can keep stepping.
    Running,
    /// The run is over (cleanly or by fault).
    Done(ExitReason),
}

/// The `Err` of the step helpers: the machine has stopped and
/// [`Machine::exit_reason`] holds why. Zero-sized, so a step's result
/// travels in a register rather than as a [`StepStatus`] in memory.
#[derive(Debug)]
struct Stopped;

/// Number of slots in the block cache. Power of two.
const BLOCK_SLOTS: usize = 512;

/// Most instructions one block holds: 512 blocks of 8 instructions cover
/// 32 KiB of straight-line guest text, more than any campaign workload
/// image holds.
const BLOCK_LEN: usize = 8;

/// Most distinct static PMU events one block charges (14 body events and
/// a terminator's 3 fit).
const BLOCK_EVENTS: usize = 18;

/// A decoded straight-line run of guest code: from its entry PC up to and
/// including the first control transfer or barrier (see
/// [`ends_block`]), at most [`BLOCK_LEN`] instructions, each of which
/// fetched and decoded when the block was filled.
#[derive(Debug, Clone, Copy)]
#[repr(align(128))] // a power of two, so a slot's offset is a shift
struct Block {
    /// Entry PC; `u64::MAX` marks an empty slot (that address can never
    /// fetch successfully: it is out of bounds by construction).
    entry: u64,
    /// Complete runs not yet mirrored into the PMU by [`Machine::settle`].
    runs: u64,
    instrs: [Instr; BLOCK_LEN],
    len: u8,
    /// Bit `k` set: instruction `k` is fetched from the same L1i line as
    /// instruction `k - 1`.
    same_line: u8,
    /// `(event, count)`: the static PMU events one complete run charges
    /// ([`static_events`] summed over the block), the first `n_events`
    /// entries valid.
    events: [(HpcEvent, u8); BLOCK_EVENTS],
    n_events: u8,
}

impl Block {
    const EMPTY: Block = Block {
        entry: u64::MAX,
        runs: 0,
        instrs: [Instr::Nop; BLOCK_LEN],
        len: 0,
        same_line: 0,
        events: [(HpcEvent::Instructions, 0); BLOCK_EVENTS],
        n_events: 0,
    };

    /// Adds `runs` complete runs' static events to `pmu`.
    fn charge(&self, pmu: &mut Pmu, runs: u64) {
        for &(event, n) in &self.events[..self.n_events as usize] {
            pmu.add(event, runs * n as u64);
        }
    }
}

// 64 KiB of blocks per machine, which every CR-Spectre trial clones once
// (`rop::exploit::probe_ret_offset`).
const _: () = assert!(std::mem::size_of::<Block>() * BLOCK_SLOTS == 64 * 1024);

/// Direct-mapped cache of decoded blocks, keyed by entry PC: the
/// execution fast path's instruction source, for architectural steps,
/// speculation and the tracer alike.
///
/// Validity is epoch-based: [`Memory::code_epoch`] moves on any mutation
/// that could change fetched bytes (`poke`, a store into an executable
/// page, any permission change), and the whole cache is dropped on the
/// next lookup. A hit therefore proves both that the bytes are unchanged
/// *and* that every page of the block was fetchable when it was filled,
/// which is what lets a hit skip the permission walks and the decodes.
#[derive(Debug, Clone)]
struct BlockCache {
    /// Fixed-size array (not a boxed slice) so the masked slot index
    /// provably needs no bounds check.
    blocks: Box<[Block; BLOCK_SLOTS]>,
    /// One bit per slot whose block has runs to settle: set by the first
    /// run after a settle, so the hot loop pays only a test of the count
    /// it increments.
    dirty: [u64; BLOCK_SLOTS / 64],
    /// The [`Memory::code_epoch`] the current blocks were filled under.
    epoch: u64,
    /// Runs already mirrored, early-left runs included.
    runs_settled: u64,
    /// Blocks filled and whole-cache drops (epoch changes) so far.
    fills: u64,
    flushes: u64,
}

impl BlockCache {
    fn new() -> BlockCache {
        let blocks = vec![Block::EMPTY; BLOCK_SLOTS].into_boxed_slice();
        BlockCache {
            blocks: blocks.try_into().expect("BLOCK_SLOTS blocks"),
            dirty: [0; BLOCK_SLOTS / 64],
            epoch: 0,
            runs_settled: 0,
            fills: 0,
            flushes: 0,
        }
    }

    #[inline(always)]
    fn slot(pc: u64) -> usize {
        ((pc / INSTR_BYTES as u64) as usize) & (BLOCK_SLOTS - 1)
    }

    /// Counts one complete run of the block in `slot`.
    #[inline(always)]
    fn ran(&mut self, slot: usize) {
        let block = &mut self.blocks[slot];
        if block.runs == 0 {
            self.dirty[slot / 64] |= 1 << (slot % 64);
        }
        block.runs += 1;
    }

    /// Mirrors the pending runs of `slot` into `pmu`.
    fn settle_slot(&mut self, slot: usize, pmu: &mut Pmu) {
        let block = &mut self.blocks[slot];
        let runs = std::mem::take(&mut block.runs);
        if runs > 0 {
            block.charge(pmu, runs);
            self.runs_settled += runs;
        }
    }

    /// Mirrors every pending run into `pmu`.
    fn settle(&mut self, pmu: &mut Pmu) {
        for word in 0..self.dirty.len() {
            let mut bits = std::mem::take(&mut self.dirty[word]);
            while bits != 0 {
                self.settle_slot(word * 64 + bits.trailing_zeros() as usize, pmu);
                bits &= bits - 1;
            }
        }
    }

    /// Puts `block` in `slot`, settling the block it replaces.
    fn fill(&mut self, slot: usize, block: Block, pmu: &mut Pmu) {
        self.settle_slot(slot, pmu);
        self.blocks[slot] = block;
        self.fills += 1;
    }

    /// Drops every block, settling their runs first.
    fn clear(&mut self, epoch: u64, pmu: &mut Pmu) {
        self.settle(pmu);
        self.blocks.fill(Block::EMPTY);
        self.epoch = epoch;
        self.flushes += 1;
    }

    /// Runs so far, complete or left early, pending ones included.
    fn runs(&self) -> u64 {
        self.runs_settled + self.blocks.iter().map(|block| block.runs).sum::<u64>()
    }
}

/// Whether `instr` ends a block: a control transfer, or `CLFLUSH`, which
/// can evict the block's own L1i line (a block fetches each instruction
/// after the first of a line as a hit on it). A store that moves the code
/// epoch ends a block too, but only when it does: see
/// [`Machine::run_blocks`].
fn ends_block(instr: Instr) -> bool {
    matches!(
        instr,
        Instr::Br(..)
            | Instr::Jmp(_)
            | Instr::JmpR(_)
            | Instr::Call(_)
            | Instr::CallR(_)
            | Instr::Ret
            | Instr::Syscall
            | Instr::Halt
            | Instr::ClFlush(..)
    )
}

/// The PMU events `instr` counts every time it completes, whatever its
/// operands and the machine state: what a block batches. [`Machine::exec`]
/// counts the same events itself when not batched.
fn static_events(instr: Instr) -> &'static [HpcEvent] {
    use HpcEvent::*;
    match instr {
        Instr::Nop | Instr::Halt => &[],
        Instr::Ldi(..) | Instr::Ldih(..) | Instr::Mov(..) => &[MovOps],
        Instr::Alu(op, ..) => match op {
            AluOp::Mul => &[AluOps, MulOps],
            AluOp::Divu | AluOp::Remu => &[AluOps, DivOps],
            AluOp::Shl | AluOp::Shr | AluOp::Sar => &[AluOps, ShiftOps],
            _ => &[AluOps],
        },
        Instr::Alui(op, ..) => match op {
            AluOp::Mul => &[AluImmOps, AluOps, MulOps],
            AluOp::Divu | AluOp::Remu => &[AluImmOps, AluOps, DivOps],
            AluOp::Shl | AluOp::Shr | AluOp::Sar => &[AluImmOps, AluOps, ShiftOps],
            _ => &[AluImmOps, AluOps],
        },
        Instr::Ld(Width::B, ..) => &[Loads, LoadBytes],
        Instr::Ld(Width::W, ..) => &[Loads],
        Instr::Ld(Width::D, ..) => &[Loads, LoadDwords],
        Instr::St(..) => &[Stores],
        Instr::Br(..) => &[BranchInstrs, CondBranches],
        Instr::Jmp(_) => &[BranchInstrs, Jumps],
        Instr::JmpR(_) => &[BranchInstrs, IndirectBranches],
        Instr::Call(_) => &[BranchInstrs, Calls],
        Instr::CallR(_) => &[BranchInstrs, Calls, IndirectBranches],
        Instr::Ret => &[BranchInstrs, Returns],
        Instr::Push(_) => &[Pushes],
        Instr::Pop(_) => &[Pops],
        Instr::ClFlush(..) => &[Flushes],
        Instr::MFence => &[Fences],
        Instr::Rdtsc(_) => &[Rdtscs],
        Instr::Syscall => &[Syscalls],
    }
}

/// Who is asking for an instruction; decides which side effects
/// [`Machine::fetch_decode`] performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FetchMode {
    /// Architectural step: icache access, L1i counters, miss latency.
    Step,
    /// Transient fetch: icache access and L1i counters, but no cycle
    /// charge (the speculation loop tracks its own relative time).
    Spec,
    /// Pure lookahead (the tracer): no microarchitectural effects at all.
    Peek,
}

/// Why [`Machine::fetch_decode`] failed.
enum FetchFail {
    /// Permission or bounds fault from [`Memory::fetch`].
    Mem(crate::mem::MemFault),
    /// Bytes were fetched but do not decode.
    Decode,
}

/// The simulated machine, on the execution path `P` (see [`ExecPath`]),
/// which [`Machine::new`] takes from its configuration.
///
/// # Examples
///
/// ```
/// use cr_spectre_sim::cpu::Machine;
/// use cr_spectre_sim::config::MachineConfig;
/// use cr_spectre_sim::image::{Image, ImageSegment, SegKind};
/// use cr_spectre_sim::isa::{Instr, Reg};
///
/// let text: Vec<u8> = [Instr::Ldi(Reg::R1, 7), Instr::Halt]
///     .iter()
///     .flat_map(|i| i.encode())
///     .collect();
/// let image = Image::new(
///     "demo",
///     vec![ImageSegment { name: ".text".into(), kind: SegKind::Text, offset: 0, bytes: text }],
///     0,
/// );
/// let mut machine = Machine::new(MachineConfig::default());
/// let loaded = machine.load(&image)?;
/// machine.start(loaded.entry);
/// let outcome = machine.run();
/// assert!(outcome.exit.is_clean());
/// assert_eq!(machine.reg(Reg::R1), 7);
/// # Ok::<(), cr_spectre_sim::error::Fault>(())
/// ```
#[derive(Debug, Clone)]
pub struct Machine<P: ExecPath = Fast> {
    cfg: MachineConfig<P>,
    mem: Memory<P>,
    caches: CacheHierarchy<P>,
    pred: Predictor,
    pmu: Pmu,
    regs: [u64; 16],
    reg_ready: [u64; 16],
    pc: u64,
    cycle: u64,
    retired: u64,
    stopped: Option<ExitReason>,
    registry: BTreeMap<String, Image>,
    loaded: Vec<LoadedImage>,
    exec_returns: Vec<u64>,
    /// Cycle spans of in-process `exec` injections: `(start, end)`; `end`
    /// is `u64::MAX` while the injected image still runs.
    exec_spans: Vec<(u64, u64)>,
    next_base: u64,
    heap_next: u64,
    stack_lo: u64,
    stack_hi: u64,
    stdout: Vec<u8>,
    shadow_stack: Vec<u64>,
    canary: u64,
    rng: StdRng,
    /// Portion of the caches' eviction total already mirrored into
    /// [`HpcEvent::CacheEvictions`].
    last_evictions: u64,
    /// Decoded-block cache (the execution fast path).
    blocks: BlockCache,
    /// Portion of `cycle` already mirrored into [`HpcEvent::Cycles`].
    cycles_flushed: u64,
    /// Portion of `retired` already mirrored into
    /// [`HpcEvent::Instructions`].
    instrs_flushed: u64,
    /// Fetches that hit the L1i since the last settle, each worth
    /// `L1iAccess` + `L1iHit` (one counter, not two, on the hot path).
    l1i_hits: u64,
    /// Loads and stores that hit the L1d since the last settle, each
    /// worth `L1dAccess` + `L1dHit` + `TotalCacheAccess`.
    l1d_hits: u64,
}

impl<P: ExecPath> Machine<P> {
    /// Creates a machine with the standard memory layout: guard page at 0,
    /// info page, argument area, image space, heap, and a stack below the
    /// top of memory. The execution path is the configuration's `P`.
    pub fn new(cfg: MachineConfig<P>) -> Machine<P> {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut mem = Memory::new(cfg.mem_size);
        // Info page: readable by guests (canary value lives here).
        mem.set_perms(INFO_PAGE, PAGE_SIZE, Perms::R);
        let canary = rng.next_u64() | 0xff; // never contains a zero low byte
        mem.poke(CANARY_ADDR, &canary.to_le_bytes());
        // Argument area.
        mem.set_perms(ARG_BASE, ARG_SIZE, Perms::RW);
        // Stack below a top guard page.
        let stack_hi = cfg.mem_size - PAGE_SIZE;
        let stack_lo = stack_hi - cfg.stack_size;
        let stack_perms = if cfg.protect.dep { Perms::RW } else { Perms::RWX };
        mem.set_perms(stack_lo, cfg.stack_size, stack_perms);
        Machine {
            caches: CacheHierarchy::new(cfg.caches),
            pred: Predictor::new(),
            pmu: Pmu::new(),
            regs: [0; 16],
            reg_ready: [0; 16],
            pc: 0,
            cycle: 0,
            retired: 0,
            stopped: None,
            registry: BTreeMap::new(),
            loaded: Vec::new(),
            exec_returns: Vec::new(),
            exec_spans: Vec::new(),
            next_base: IMAGE_BASE,
            heap_next: HEAP_BASE,
            stack_lo,
            stack_hi,
            stdout: Vec::new(),
            shadow_stack: Vec::new(),
            canary,
            rng,
            last_evictions: 0,
            blocks: BlockCache::new(),
            cycles_flushed: 0,
            instrs_flushed: 0,
            l1i_hits: 0,
            l1d_hits: 0,
            mem,
            cfg,
        }
    }

    // ---------------------------------------------------------------
    // Loading and process setup
    // ---------------------------------------------------------------

    /// Registers an image so the `exec` syscall can inject it by name.
    pub fn register_image(&mut self, image: Image) {
        self.registry.insert(image.name.clone(), image);
    }

    /// Places an image in guest memory, applying ASLR slide (if enabled)
    /// and relocations. Returns the resolved [`LoadedImage`].
    ///
    /// # Errors
    ///
    /// Returns a [`Fault::Mem`] write fault, with guest memory untouched,
    /// if the image does not fit in memory (including an extent that
    /// overflows the address space), a segment offset is not
    /// page-aligned, or a relocation field lies outside the image.
    pub fn load(&mut self, image: &Image) -> Result<LoadedImage, Fault> {
        let size = image.size();
        let mut base = self.next_base;
        if self.cfg.protect.aslr_seed.is_some() {
            let slide_pages = self.rng.next_u64() % 256;
            base += slide_pages * PAGE_SIZE;
        }
        let load_fault = |addr: u64| {
            Fault::Mem(crate::mem::MemFault { addr, kind: crate::mem::AccessKind::Write })
        };
        if base
            .checked_add(size)
            .is_none_or(|end| end >= self.heap_next.min(self.stack_lo))
        {
            return Err(load_fault(base));
        }
        // `base + size` fits, so every in-image address below is in range.
        if let Some(seg) = image.segments.iter().find(|s| s.offset % PAGE_SIZE != 0) {
            return Err(load_fault(base + seg.offset));
        }
        if let Some(reloc) = image.relocs.iter().find(|r| {
            r.at.checked_add(r.kind.width()).is_none_or(|end| end > size)
        }) {
            return Err(load_fault(base.wrapping_add(reloc.at)));
        }
        let mut exec_ranges = Vec::new();
        for seg in &image.segments {
            let addr = base + seg.offset;
            self.mem.poke(addr, &seg.bytes);
            let perms = if self.cfg.protect.dep {
                seg.kind.default_perms()
            } else {
                Perms::RWX
            };
            self.mem
                .set_perms(addr, (seg.bytes.len() as u64).max(1), perms);
            if seg.kind == SegKind::Text {
                exec_ranges.push((addr, addr + seg.bytes.len() as u64));
            }
        }
        for reloc in &image.relocs {
            let field = base + reloc.at;
            // Targets and symbols are plain guest addresses: one outside
            // the image wraps instead of overflowing, and faults only if
            // the guest uses it.
            let target = base.wrapping_add(reloc.addend);
            match reloc.kind {
                crate::image::RelocKind::Imm32 => {
                    self.mem.poke(field, &(target as u32).to_le_bytes());
                }
                crate::image::RelocKind::Abs64 => {
                    self.mem.poke(field, &target.to_le_bytes());
                }
            }
        }
        let symbols: BTreeMap<String, u64> =
            image.symbols.iter().map(|(k, v)| (k.clone(), base.wrapping_add(*v))).collect();
        let li = LoadedImage {
            name: image.name.clone(),
            base,
            entry: base.wrapping_add(image.entry),
            symbols,
            exec_ranges,
        };
        self.next_base = base + size + PAGE_SIZE; // guard gap between images
        self.loaded.push(li.clone());
        Ok(li)
    }

    /// Bump-allocates `len` bytes of heap with the given permissions and
    /// returns the guest address (page-aligned).
    ///
    /// # Panics
    ///
    /// Panics when the heap would run into the stack.
    pub fn alloc(&mut self, len: u64, perms: Perms) -> u64 {
        let addr = self.heap_next;
        let size = len
            .div_ceil(PAGE_SIZE)
            .checked_mul(PAGE_SIZE)
            .filter(|&size| addr.checked_add(size).is_some_and(|end| end < self.stack_lo))
            .expect("heap exhausted");
        self.mem.set_perms(addr, size, perms);
        self.heap_next += size;
        addr
    }

    /// Resets architectural state and points the machine at `entry`.
    ///
    /// Microarchitectural state (caches, predictors, PMU) is preserved so
    /// campaigns can run warm.
    pub fn start(&mut self, entry: u64) {
        self.regs = [0; 16];
        self.reg_ready = [0; 16];
        // Leave a page of headroom below the stack top (the analogue of
        // argv/env living above the initial frame on a real process).
        self.regs[Reg::SP.index()] = self.stack_hi - PAGE_SIZE;
        self.pc = entry;
        self.stopped = None;
        self.exec_returns.clear();
        self.shadow_stack.clear();
    }

    /// Like [`Machine::start`], additionally copying `arg` into the
    /// argument area and passing it as `(r1 = ptr, r2 = len)` — the
    /// machine's `argv[1]`.
    ///
    /// An `arg` that does not fit the argument area with its NUL
    /// terminator (`arg.len() >= ARG_SIZE`) is not copied: the machine is
    /// left stopped with [`Fault::ArgTooLarge`], which the next
    /// [`Machine::run_until`], [`Machine::step`] or [`Machine::run`]
    /// returns.
    pub fn start_with_arg(&mut self, entry: u64, arg: &[u8]) {
        self.start(entry);
        if arg.len() as u64 >= ARG_SIZE {
            self.stop_fault(Fault::ArgTooLarge { len: arg.len() as u64 });
            return;
        }
        self.mem.poke(ARG_BASE, arg);
        // NUL-terminate for C-string style consumers.
        self.mem.poke(ARG_BASE + arg.len() as u64, &[0]);
        self.regs[Reg::R1.index()] = ARG_BASE;
        self.regs[Reg::R2.index()] = arg.len() as u64;
    }

    // ---------------------------------------------------------------
    // Accessors
    // ---------------------------------------------------------------

    /// Current value of a register.
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Sets a register (test/exploit setup convenience).
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        self.regs[r.index()] = value;
    }

    /// The program counter.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Elapsed cycles.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Architecturally retired instructions.
    pub fn instructions(&self) -> u64 {
        self.retired
    }

    /// The performance-counter bank.
    ///
    /// This is the only way to read the bank, and it settles the batched
    /// counters first: the L1 hit, cycle, instruction and eviction
    /// mirrors. A sampler reading between steps (the HPC profiler)
    /// therefore sees exact totals, identical to the reference path's
    /// per-step settle, and reading changes nothing the machine later
    /// does.
    pub fn pmu(&mut self) -> &Pmu {
        self.settle();
        &self.pmu
    }

    /// The cache hierarchy (inspection). Residency, LRU order and every
    /// counter are exact at any time.
    pub fn caches(&self) -> &CacheHierarchy<P> {
        &self.caches
    }

    /// The cache hierarchy (mutation — e.g. priming experiments).
    pub fn caches_mut(&mut self) -> &mut CacheHierarchy<P> {
        &mut self.caches
    }

    /// Guest memory (inspection).
    pub fn mem(&self) -> &Memory<P> {
        &self.mem
    }

    /// Guest memory (mutation — exploit/test setup).
    pub fn mem_mut(&mut self) -> &mut Memory<P> {
        &mut self.mem
    }

    /// Bytes the guest wrote through the `write` syscall.
    pub fn stdout(&self) -> &[u8] {
        &self.stdout
    }

    /// Drains and returns the stdout buffer.
    pub fn take_stdout(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.stdout)
    }

    /// The stack's `[lo, hi)` range.
    pub fn stack_range(&self) -> (u64, u64) {
        (self.stack_lo, self.stack_hi)
    }

    /// The stack pointer a fresh [`Machine::start`] establishes — exploit
    /// authors use this to predict buffer addresses (no stack ASLR, as in
    /// the paper's threat model).
    pub fn initial_sp(&self) -> u64 {
        self.stack_hi - PAGE_SIZE
    }

    /// The stack canary value (the defender's secret; exposed for tests
    /// and for modelling canary-leak bypasses).
    pub fn canary(&self) -> u64 {
        self.canary
    }

    /// Images loaded so far.
    pub fn loaded_images(&self) -> &[LoadedImage] {
        &self.loaded
    }

    /// Cycle spans during which `exec`-injected images ran. A span still
    /// open at run end has `end == u64::MAX`.
    pub fn injection_spans(&self) -> &[(u64, u64)] {
        &self.exec_spans
    }

    /// Whether the run has stopped, and why.
    pub fn exit_reason(&self) -> Option<&ExitReason> {
        self.stopped.as_ref()
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig<P> {
        &self.cfg
    }

    /// Block-cache `(fills, flushes)` so far: blocks decoded and
    /// whole-cache drops. Host-side statistics, not PMU events, and both 0
    /// on the reference path (no block cache).
    pub fn decode_cache_stats(&self) -> (u64, u64) {
        (self.blocks.fills, self.blocks.flushes)
    }

    /// Blocks run so far, whole or left early (a host-side statistic; 0 on
    /// the reference path): [`Machine::instructions`] over this is the
    /// mean executed block length, when the run stepped nothing singly.
    pub fn blocks_run(&self) -> u64 {
        self.blocks.runs()
    }

    // ---------------------------------------------------------------
    // Execution
    // ---------------------------------------------------------------

    /// Runs until the guest halts, exits or faults: [`Machine::run_until`]
    /// with no cycle limit, plus the run's telemetry.
    pub fn run(&mut self) -> RunOutcome {
        let mut span = telemetry::span("sim.run");
        // `None` would mean the cycle counter reached `u64::MAX`.
        let exit = loop {
            if let Some(exit) = self.run_until(u64::MAX) {
                break exit;
            }
        };
        if span.is_recording() {
            span.field("exit", format!("{exit:?}"))
                .field("instructions", self.retired)
                .field("cycles", self.cycle);
            self.emit_telemetry();
        }
        RunOutcome { exit, instructions: self.retired, cycles: self.cycle }
    }

    /// Steps while [`Machine::cycles`] is below `cycle_limit`; returns
    /// `Some(exit)` once the machine has stopped (on this call or an
    /// earlier one), `None` when the limit was reached first.
    ///
    /// Equivalent to calling [`Machine::step`] while `cycles() <
    /// cycle_limit` and the machine runs, instruction for instruction and
    /// counter for counter, so a sampler can read [`Machine::pmu`] at each
    /// window boundary exactly as it could between steps. A limit at or
    /// below `cycles()` executes nothing.
    ///
    /// The fast path runs decoded straight-line blocks from its block
    /// cache, each instruction still checked against `cycle_limit`; the
    /// reference path steps one instruction at a time.
    ///
    /// The loop is generic over `P`, so each crate that runs a machine
    /// compiles its own copy. The small non-generic helpers it calls in
    /// `branch`, `isa` and `pmu` are `#[inline]`, so those copies inline
    /// them as this crate's own could: without that, test builds
    /// (`opt-level = 1`) ran the campaign goldens nearly 2x slower.
    pub fn run_until(&mut self, cycle_limit: u64) -> Option<ExitReason> {
        if self.stopped.is_none() {
            let max_instructions = self.cfg.max_instructions;
            while self.cycle < cycle_limit {
                let step = match self.block_at(self.pc) {
                    Some(slot) if self.fits_budget(slot, max_instructions) => {
                        self.run_blocks(slot, cycle_limit, max_instructions)
                    }
                    _ => self.step_once(max_instructions),
                };
                if step.is_err() {
                    break;
                }
            }
        }
        self.stopped.clone()
    }

    /// Whether the block in `slot` fits the instruction budget whole. The
    /// budget is checked once for such a block; one that does not fit is
    /// stepped instruction by instruction, so the budget faults on the
    /// exact one.
    #[inline(always)]
    fn fits_budget(&self, slot: usize, max_instructions: u64) -> bool {
        max_instructions.saturating_sub(self.retired) >= self.blocks.blocks[slot].len as u64
    }

    /// Runs the block in `slot`, entered at `self.pc`, then each next
    /// block while it is cached and fits the budget, until the cycle
    /// reaches `cycle_limit` between two instructions: exactly as single
    /// steps would. Each instruction still makes its own L1i access, in
    /// order, but the budget check, the block lookup, the `retired` and
    /// L1i-hit counts and the static PMU events are paid once per block:
    /// a complete run is counted for [`Machine::settle`], and a run left
    /// early is charged at once for the instructions that ran. The PC, the
    /// cycle and those two counts stay in locals until the loop ends.
    #[inline(always)]
    fn run_blocks(
        &mut self,
        mut slot: usize,
        cycle_limit: u64,
        max_instructions: u64,
    ) -> Result<(), Stopped> {
        let mut pc = self.pc;
        let mut cycle = self.cycle;
        let mut retired = self.retired;
        // L1i hits: each block's fetches are counted up front, and a miss
        // or a run left early takes its share back.
        let mut hits = 0;
        loop {
            let block = &self.blocks.blocks[slot];
            let (instrs, len, same_line) = (block.instrs, block.len as usize, block.same_line);
            retired += len as u64;
            hits += len as u64;
            let epoch = self.blocks.epoch;
            let (&last, body) = instrs[..len].split_last().expect("a block is never empty");
            for (done, instr) in body.iter().enumerate() {
                if let Some(latency) = self.block_fetch(pc, same_line & (1 << done) != 0) {
                    hits -= 1;
                    cycle += latency;
                }
                match self.exec::<true>(pc, instr, &mut cycle) {
                    Ok(next_pc) => pc = next_pc,
                    Err(stopped) => {
                        self.store_counts(cycle, retired, hits);
                        self.leave_block(slot, done, pc, true);
                        return Err(stopped);
                    }
                }
                // A store that moved the code epoch may have rewritten the
                // rest of this block: leave it, and the next lookup refills.
                let code_changed = matches!(*instr, Instr::St(..) | Instr::Push(_))
                    && self.mem.code_epoch() != epoch;
                if cycle >= cycle_limit || code_changed {
                    self.store_counts(cycle, retired, hits);
                    self.leave_block(slot, done + 1, pc, false);
                    return Ok(());
                }
            }
            if let Some(latency) = self.block_fetch(pc, same_line & (1 << body.len()) != 0) {
                hits -= 1;
                cycle += latency;
            }
            // Counted before the last instruction executes: a mispredicted
            // branch speculates, and speculation may refill this very slot.
            self.blocks.ran(slot);
            match self.exec::<true>(pc, &last, &mut cycle) {
                Ok(next_pc) => pc = next_pc,
                Err(stopped) => {
                    self.store_counts(cycle, retired, hits);
                    self.stop_in_block_end(slot, pc, last);
                    return Err(stopped);
                }
            }
            if cycle >= cycle_limit {
                break;
            }
            slot = BlockCache::slot(pc);
            let next = &self.blocks.blocks[slot];
            if next.entry != pc
                || self.blocks.epoch != self.mem.code_epoch()
                || max_instructions - retired < next.len as u64
            {
                break;
            }
        }
        self.pc = pc;
        self.store_counts(cycle, retired, hits);
        Ok(())
    }

    /// Stores the block loop's locals: the cycle, `retired` and the L1i
    /// hits counted since the loop began.
    #[inline(always)]
    fn store_counts(&mut self, cycle: u64, retired: u64, hits: u64) {
        self.cycle = cycle;
        self.retired = retired;
        self.l1i_hits += hits;
    }

    /// The L1i access of a block instruction at `pc`: the latency of a
    /// miss, which is counted in the PMU at once. When `same_line`, the
    /// previous instruction of the block was fetched from the same line,
    /// and nothing between two fetches of a block touches the L1i
    /// (`CLFLUSH` ends a block), so this fetch hits the line that one left
    /// tracked.
    #[inline(always)]
    fn block_fetch(&mut self, pc: u64, same_line: bool) -> Option<u64> {
        if same_line {
            self.caches.refetch_instr(pc);
            return None;
        }
        let miss = self.caches.fetch_instr(pc);
        if miss.is_some() {
            self.count_fetch_miss();
        }
        miss
    }

    #[cold]
    fn count_fetch_miss(&mut self) {
        self.pmu.incr(HpcEvent::L1iAccess);
        self.pmu.incr(HpcEvent::L1iMiss);
    }

    /// The last instruction of the block in `slot`, at `pc`, stopped the
    /// machine after its run was counted. A system call, or a return the
    /// shadow stack stopped, had counted its static events, so the run
    /// stands as counted (and the slot may hold another block by now).
    /// Any other stop is a fault raised before the instruction counted
    /// anything, and before it could speculate: the run is taken back and
    /// charged as left early.
    #[cold]
    fn stop_in_block_end(&mut self, slot: usize, pc: u64, instr: Instr) {
        let counted = match instr {
            Instr::Syscall => true,
            Instr::Ret => {
                matches!(self.stopped, Some(ExitReason::Fault(Fault::ShadowStack { .. })))
            }
            _ => false,
        };
        if counted {
            self.pc = pc;
        } else {
            let block = &mut self.blocks.blocks[slot];
            block.runs -= 1;
            let done = block.len as usize - 1;
            self.leave_block(slot, done, pc, true);
        }
    }

    /// Leaves the block in `slot` at `pc` after its first `done`
    /// instructions completed; when `stopped`, the instruction at `pc` was
    /// fetched and retired too, but stopped the machine before it counted
    /// anything. Gives back the precounts of the instructions never
    /// fetched and charges the static events of those that completed, so
    /// the PMU reads as single steps would have left it.
    #[cold]
    #[inline(never)]
    fn leave_block(&mut self, slot: usize, done: usize, pc: u64, stopped: bool) {
        let block = &self.blocks.blocks[slot];
        let unfetched = (block.len as usize - done - stopped as usize) as u64;
        for &instr in &block.instrs[..done] {
            for &event in static_events(instr) {
                self.pmu.incr(event);
            }
        }
        self.retired -= unfetched;
        self.l1i_hits -= unfetched;
        self.blocks.runs_settled += 1;
        self.pc = pc;
    }

    /// Publishes this machine's cumulative PMU and cache activity to the
    /// global telemetry layer (counters under `sim.*`).
    ///
    /// Called once per completed run — never from the step loop, so the
    /// hot path pays nothing beyond one relaxed atomic load, and nothing
    /// at all when telemetry is disabled. Observation only for guest
    /// state: reads the PMU (which settles the batched counts) and the
    /// caches, never the RNG or architectural state.
    pub fn emit_telemetry(&mut self) {
        if !telemetry::enabled() {
            return;
        }
        let pmu = self.pmu();
        telemetry::counter("sim.runs", 1);
        telemetry::counter("sim.instructions", pmu.count(HpcEvent::Instructions));
        telemetry::counter("sim.cycles", pmu.count(HpcEvent::Cycles));
        telemetry::counter("sim.spec_instrs", pmu.count(HpcEvent::SpecInstrs));
        telemetry::counter("sim.spec_squashes", pmu.count(HpcEvent::SpecSquashes));
        telemetry::counter("sim.branch_mispredicts", pmu.count(HpcEvent::BranchMispredicts));
        telemetry::counter("sim.stall_cycles_mem", pmu.count(HpcEvent::StallCyclesMem));
        telemetry::counter("sim.stall_cycles_branch", pmu.count(HpcEvent::StallCyclesBranch));
        telemetry::counter("sim.flushes", pmu.count(HpcEvent::Flushes));
        let (fills, flushes) = self.decode_cache_stats();
        telemetry::counter("sim.decode_fills", fills);
        telemetry::counter("sim.decode_flushes", flushes);
        telemetry::counter("sim.pages_touched", self.mem.resident_pages() as u64);
        self.caches.emit_telemetry();
    }

    /// Runs up to `limit` architectural instructions, recording each
    /// `(pc, instruction)` executed — the debugger's trace view. Stops at
    /// the limit or when the machine stops, returning the trace.
    pub fn run_traced(&mut self, limit: usize) -> Vec<(u64, Instr)> {
        let mut trace = Vec::with_capacity(limit.min(4096));
        for _ in 0..limit {
            let pc = self.pc;
            // Peek: decode without microarchitectural effects — the step
            // below performs the real fetch.
            let decoded = self.fetch_decode(pc, FetchMode::Peek).ok();
            let running = self.step() == StepStatus::Running;
            if let Some(instr) = decoded {
                trace.push((pc, instr));
            }
            if !running {
                break;
            }
        }
        trace
    }

    /// Executes one architectural instruction (including any transient
    /// execution it triggers) and reports whether the machine still runs.
    ///
    /// On the fast path, batched counters are settled when the PMU is
    /// read ([`Machine::pmu`]), so samplers reading it between steps
    /// observe exact totals without the hot loop paying a per-step mirror
    /// cost. The reference path settles after every step.
    #[inline(never)]
    pub fn step(&mut self) -> StepStatus {
        if self.stopped.is_none() {
            // A step fails exactly when it leaves the machine stopped.
            let _ = self.step_once(self.cfg.max_instructions);
        }
        match &self.stopped {
            Some(exit) => StepStatus::Done(exit.clone()),
            None => StepStatus::Running,
        }
    }

    /// One step of a running machine: the instruction budget check, then
    /// fetch, decode and execute.
    #[inline(always)]
    fn step_once(&mut self, max_instructions: u64) -> Result<(), Stopped> {
        if self.retired >= max_instructions {
            return Err(self.stop_fault(Fault::MaxInstructions));
        }
        let result = self.step_inner();
        if !P::FAST {
            self.settle();
        }
        result
    }

    #[inline(always)]
    fn step_inner(&mut self) -> Result<(), Stopped> {
        let pc = self.pc;
        let instr = match self.fetch_decode(pc, FetchMode::Step) {
            Ok(instr) => instr,
            Err(fail) => return Err(self.fetch_fault(pc, fail)),
        };
        self.retired += 1;
        let mut cycle = self.cycle;
        let next_pc = self.exec::<false>(pc, &instr, &mut cycle);
        self.cycle = cycle;
        self.pc = next_pc?;
        Ok(())
    }

    /// Stops the machine on a failed architectural fetch.
    #[cold]
    fn fetch_fault(&mut self, pc: u64, fail: FetchFail) -> Stopped {
        match fail {
            FetchFail::Mem(fault) => {
                self.pmu.incr(HpcEvent::PageFaults);
                self.stop_fault(Fault::Mem(fault))
            }
            FetchFail::Decode => self.stop_fault(Fault::Decode { pc }),
        }
    }

    /// The single-instruction fetch+decode choke point shared by `step`,
    /// `speculate` and `run_traced`.
    ///
    /// Side-effect order matches the historical open-coded sites exactly:
    /// a permission fault reports before any icache activity; a decode
    /// error reports after it. On the fast path the instruction comes from
    /// the block starting at `pc` ([`Machine::block_at`]), which skips
    /// both the permission walk and the decode; an instruction that does
    /// not fetch or decode is never cached, and takes
    /// [`Machine::fetch_decode_uncached`], as every fetch on the reference
    /// path does.
    #[inline(always)]
    fn fetch_decode(&mut self, pc: u64, mode: FetchMode) -> Result<Instr, FetchFail> {
        if let Some(slot) = self.block_at(pc) {
            let instr = self.blocks.blocks[slot].instrs[0];
            if mode != FetchMode::Peek {
                self.icache_access(pc, mode);
            }
            return Ok(instr);
        }
        self.fetch_decode_uncached(pc, mode)
    }

    /// Fetches through the permission check, counts the icache access and
    /// decodes.
    #[cold]
    #[inline(never)]
    fn fetch_decode_uncached(&mut self, pc: u64, mode: FetchMode) -> Result<Instr, FetchFail> {
        let mut bytes = [0u8; INSTR_BYTES];
        self.mem.fetch(pc, &mut bytes).map_err(FetchFail::Mem)?;
        if mode != FetchMode::Peek {
            self.icache_access(pc, mode);
        }
        Instr::decode(&bytes).map_err(|_| FetchFail::Decode)
    }

    /// The slot of the cached block entered at `pc`, filled on a miss;
    /// `None` on the reference path, or when the instruction at `pc` does
    /// not fetch or decode. The hit stays inline in the step loop.
    #[inline(always)]
    fn block_at(&mut self, pc: u64) -> Option<usize> {
        if !P::FAST {
            return None;
        }
        let slot = BlockCache::slot(pc);
        if self.blocks.blocks[slot].entry == pc && self.blocks.epoch == self.mem.code_epoch() {
            return Some(slot);
        }
        self.fill_block(pc)
    }

    /// Block-cache miss: drops a stale cache, then decodes the block
    /// entered at `pc` into its slot, whose previous block is settled
    /// first. The block ends after its first [`ends_block`] instruction,
    /// at [`BLOCK_LEN`] instructions, or before the first instruction that
    /// does not fetch or decode. Reads memory only, with no
    /// microarchitectural effect: the instructions' L1i accesses happen as
    /// they run.
    #[cold]
    #[inline(never)]
    fn fill_block(&mut self, pc: u64) -> Option<usize> {
        if self.blocks.epoch != self.mem.code_epoch() {
            self.blocks.clear(self.mem.code_epoch(), &mut self.pmu);
        }
        let mut block = Block { entry: pc, ..Block::EMPTY };
        let line_mask = !(self.caches.l1i().config().line_size - 1);
        let mut at = pc;
        while (block.len as usize) < BLOCK_LEN {
            if block.len > 0 && at & line_mask == at.wrapping_sub(INSTR_BYTES as u64) & line_mask {
                block.same_line |= 1 << block.len;
            }
            let mut bytes = [0u8; INSTR_BYTES];
            let Some(instr) = self.mem.fetch(at, &mut bytes).ok().and_then(|()| Instr::decode(&bytes).ok())
            else {
                break;
            };
            block.instrs[block.len as usize] = instr;
            block.len += 1;
            for &event in static_events(instr) {
                let n = block.n_events as usize;
                match block.events[..n].iter_mut().find(|(e, _)| *e == event) {
                    Some((_, count)) => *count += 1,
                    None => {
                        block.events[n] = (event, 1);
                        block.n_events += 1;
                    }
                }
            }
            if ends_block(instr) {
                break;
            }
            at = at.wrapping_add(INSTR_BYTES as u64);
        }
        if block.len == 0 {
            return None;
        }
        let slot = BlockCache::slot(pc);
        self.blocks.fill(slot, block, &mut self.pmu);
        Some(slot)
    }

    /// The L1i access for a fetch at `pc`. A hit is counted for the next
    /// settle; a miss is counted in the PMU at once, and an architectural
    /// fetch pays its latency at once too.
    #[inline(always)]
    fn icache_access(&mut self, pc: u64, mode: FetchMode) {
        match self.caches.fetch_instr(pc) {
            None => self.l1i_hits += 1,
            Some(latency) => {
                self.pmu.incr(HpcEvent::L1iAccess);
                self.pmu.incr(HpcEvent::L1iMiss);
                if mode == FetchMode::Step {
                    self.cycle += latency;
                }
            }
        }
    }

    /// The one settle point for the batched counters, run by
    /// [`Machine::pmu`] (and after every step on the reference path):
    /// mirrors the L1 hit, cycle, instruction and eviction deltas, and the
    /// static events of the block runs counted since.
    fn settle(&mut self) {
        if P::FAST {
            self.blocks.settle(&mut self.pmu);
        }
        let fetch_hits = std::mem::take(&mut self.l1i_hits);
        self.pmu.add(HpcEvent::L1iAccess, fetch_hits);
        self.pmu.add(HpcEvent::L1iHit, fetch_hits);
        let data_hits = std::mem::take(&mut self.l1d_hits);
        self.pmu.add(HpcEvent::L1dAccess, data_hits);
        self.pmu.add(HpcEvent::L1dHit, data_hits);
        self.pmu.add(HpcEvent::TotalCacheAccess, data_hits);
        self.pmu.add(HpcEvent::Cycles, self.cycle - self.cycles_flushed);
        self.cycles_flushed = self.cycle;
        self.pmu.add(HpcEvent::Instructions, self.retired - self.instrs_flushed);
        self.instrs_flushed = self.retired;
        self.sync_eviction_counter();
    }

    fn sync_eviction_counter(&mut self) {
        let total = self.caches.total_evictions();
        self.pmu.add(HpcEvent::CacheEvictions, total - self.last_evictions);
        self.last_evictions = total;
    }

    /// Records why the machine stopped; the returned token is the `Err`
    /// of every step helper.
    fn stop(&mut self, exit: ExitReason) -> Stopped {
        self.stopped = Some(exit);
        Stopped
    }

    fn stop_fault(&mut self, fault: Fault) -> Stopped {
        self.stop(ExitReason::Fault(fault))
    }

    /// Stops on a fault raised by a data access of the current step.
    #[cold]
    fn page_fault(&mut self, fault: Fault) -> Stopped {
        self.pmu.incr(HpcEvent::PageFaults);
        self.stop_fault(fault)
    }

    /// Stalls `cycle` until every register in `rs` holds a ready value.
    #[inline(always)]
    fn wait_ready(&mut self, cycle: &mut u64, rs: &[Reg]) {
        let ready = rs.iter().map(|r| self.reg_ready[r.index()]).max().unwrap_or(0);
        if ready > *cycle {
            let stall = ready - *cycle;
            self.pmu.add(HpcEvent::StallCyclesMem, stall);
            *cycle += stall;
        }
    }

    /// Cycle at which a branch over `rs`, reached at `cycle`, can resolve.
    #[inline(always)]
    fn resolve_cycle(&self, cycle: u64, rs: &[Reg]) -> u64 {
        let ready = rs.iter().map(|r| self.reg_ready[r.index()]).max().unwrap_or(0);
        ready.max(cycle) + BRANCH_RESOLVE_EXTRA
    }

    /// Counts an L1d access: a hit for the next settle, a miss in the PMU
    /// at once.
    #[inline(always)]
    fn count_data_access(&mut self, result: crate::cache::AccessResult, write: bool) {
        if result.l1_hit {
            self.l1d_hits += 1;
            return;
        }
        let pmu = &mut self.pmu;
        pmu.incr(HpcEvent::L1dAccess);
        pmu.incr(HpcEvent::TotalCacheAccess);
        pmu.incr(HpcEvent::L1dMiss);
        pmu.incr(HpcEvent::TotalCacheMiss);
        pmu.incr(HpcEvent::L2Access);
        if result.l2_hit {
            pmu.incr(HpcEvent::L2Hit);
        } else {
            pmu.incr(HpcEvent::L2Miss);
            if write {
                pmu.incr(HpcEvent::MemWrites);
            } else {
                pmu.incr(HpcEvent::MemReads);
            }
        }
    }

    /// The L1d access for a load or store at `addr`, counted.
    #[inline(always)]
    fn data_access(&mut self, addr: u64, write: bool) -> crate::cache::AccessResult {
        let result = self.caches.access_data(addr);
        self.count_data_access(result, write);
        result
    }

    #[inline(always)]
    fn load_value(&mut self, addr: u64, width: Width) -> Result<(u64, u64), Fault> {
        let value = match width {
            Width::B => self.mem.read_u8(addr)? as u64,
            Width::W => self.mem.read_u32(addr)? as u64,
            Width::D => self.mem.read_u64(addr)?,
        };
        let result = self.data_access(addr, false);
        Ok((value, result.latency))
    }

    #[inline(always)]
    fn store_value(&mut self, addr: u64, width: Width, value: u64) -> Result<(), Fault> {
        match width {
            Width::B => self.mem.write_u8(addr, value as u8)?,
            Width::W => self.mem.write_u32(addr, value as u32)?,
            Width::D => self.mem.write_u64(addr, value)?,
        }
        self.data_access(addr, true);
        Ok(())
    }

    /// Executes one decoded instruction at `pc` (inlined into the step
    /// loop) and returns the next PC. `Err` means the instruction stopped
    /// the machine. Time is `cycle`, which the caller keeps in a local
    /// (`self.cycle` is current only while a system call runs). When
    /// `BATCHED` (inside a block run), the instruction's [`static_events`]
    /// are left to the block's accounting.
    #[inline(always)]
    fn exec<const BATCHED: bool>(
        &mut self,
        pc: u64,
        instr: &Instr,
        cycle: &mut u64,
    ) -> Result<u64, Stopped> {
        let mut next_pc = pc.wrapping_add(INSTR_BYTES as u64);
        match *instr {
            Instr::Nop => *cycle += 1,
            Instr::Halt => {
                *cycle += 1;
                return Err(self.stop(ExitReason::Halted));
            }
            Instr::Ldi(rd, imm) => {
                self.regs[rd.index()] = imm as i64 as u64;
                self.reg_ready[rd.index()] = *cycle;
                self.count::<BATCHED>(HpcEvent::MovOps);
                *cycle += 1;
            }
            Instr::Ldih(rd, imm) => {
                self.wait_ready(cycle, &[rd]);
                let low = self.regs[rd.index()] & 0xffff_ffff;
                self.regs[rd.index()] = ((imm as u32 as u64) << 32) | low;
                self.reg_ready[rd.index()] = *cycle;
                self.count::<BATCHED>(HpcEvent::MovOps);
                *cycle += 1;
            }
            Instr::Mov(rd, rs) => {
                self.wait_ready(cycle, &[rs]);
                self.regs[rd.index()] = self.regs[rs.index()];
                self.reg_ready[rd.index()] = *cycle;
                self.count::<BATCHED>(HpcEvent::MovOps);
                *cycle += 1;
            }
            Instr::Alu(op, rd, rs1, rs2) => {
                self.wait_ready(cycle, &[rs1, rs2]);
                self.regs[rd.index()] = op.apply(self.regs[rs1.index()], self.regs[rs2.index()]);
                self.count_alu::<BATCHED>(op);
                *cycle += alu_latency(op);
                self.reg_ready[rd.index()] = *cycle;
            }
            Instr::Alui(op, rd, rs1, imm) => {
                self.wait_ready(cycle, &[rs1]);
                self.regs[rd.index()] = op.apply(self.regs[rs1.index()], imm as i64 as u64);
                self.count::<BATCHED>(HpcEvent::AluImmOps);
                self.count_alu::<BATCHED>(op);
                *cycle += alu_latency(op);
                self.reg_ready[rd.index()] = *cycle;
            }
            Instr::Ld(w, rd, rs1, imm) => {
                self.wait_ready(cycle, &[rs1]);
                let addr = self.regs[rs1.index()].wrapping_add(imm as i64 as u64);
                let (value, latency) = match self.load_value(addr, w) {
                    Ok(v) => v,
                    Err(fault) => return Err(self.page_fault(fault)),
                };
                self.count::<BATCHED>(HpcEvent::Loads);
                match w {
                    Width::B => self.count::<BATCHED>(HpcEvent::LoadBytes),
                    Width::D => self.count::<BATCHED>(HpcEvent::LoadDwords),
                    Width::W => {}
                }
                self.regs[rd.index()] = value;
                *cycle += 1;
                // InvisiSpec: every committed load re-validates against
                // the speculative buffer before exposure.
                let penalty = if self.cfg.protect.invisispec {
                    self.cfg.invisispec_load_penalty
                } else {
                    0
                };
                // Non-blocking load: value arrives after the cache latency.
                self.reg_ready[rd.index()] = *cycle + latency + penalty;
            }
            Instr::St(w, rs1, rs2, imm) => {
                self.wait_ready(cycle, &[rs1, rs2]);
                let addr = self.regs[rs1.index()].wrapping_add(imm as i64 as u64);
                if let Err(fault) = self.store_value(addr, w, self.regs[rs2.index()]) {
                    return Err(self.page_fault(fault));
                }
                self.count::<BATCHED>(HpcEvent::Stores);
                *cycle += 1;
            }
            Instr::Br(cond, rs1, rs2, imm) => {
                let taken = cond.holds(self.regs[rs1.index()], self.regs[rs2.index()]);
                let predicted = self.pred.pht.predict(pc);
                let resolve_at = self.resolve_cycle(*cycle, &[rs1, rs2]);
                self.pred.pht.update(pc, taken);
                self.count::<BATCHED>(HpcEvent::BranchInstrs);
                self.count::<BATCHED>(HpcEvent::CondBranches);
                self.pmu.incr(if taken {
                    HpcEvent::BranchTaken
                } else {
                    HpcEvent::BranchNotTaken
                });
                let target = pc.wrapping_add(imm as i64 as u64);
                if self.cfg.protect.csf {
                    // Context-Sensitive Fencing: an injected fence
                    // serializes the branch — no prediction benefit, no
                    // transient execution past it. Every branch stalls
                    // until it actually resolves.
                    let stall = resolve_at.saturating_sub(*cycle);
                    self.pmu.add(HpcEvent::StallCyclesBranch, stall);
                    *cycle += stall;
                    self.pmu.incr(HpcEvent::Fences);
                    *cycle += self.cfg.csf_fence_penalty;
                    if predicted != taken {
                        self.pmu.incr(HpcEvent::BranchMispredicts);
                    }
                } else if predicted == taken {
                    *cycle += 1;
                } else {
                    self.pmu.incr(HpcEvent::BranchMispredicts);
                    let wrong = if predicted { target } else { next_pc };
                    let budget = resolve_at.saturating_sub(*cycle);
                    self.speculate_at(wrong, budget);
                    let stall = resolve_at.saturating_sub(*cycle) + self.cfg.mispredict_penalty;
                    self.pmu.add(HpcEvent::StallCyclesBranch, stall);
                    *cycle += stall;
                }
                if taken {
                    next_pc = target;
                }
            }
            Instr::Jmp(imm) => {
                self.count::<BATCHED>(HpcEvent::BranchInstrs);
                self.count::<BATCHED>(HpcEvent::Jumps);
                *cycle += 1;
                next_pc = pc.wrapping_add(imm as i64 as u64);
            }
            Instr::JmpR(rs) => {
                self.count::<BATCHED>(HpcEvent::BranchInstrs);
                self.count::<BATCHED>(HpcEvent::IndirectBranches);
                let predicted = self.pred.btb.predict(pc);
                let resolve_at = self.resolve_cycle(*cycle, &[rs]);
                self.wait_ready(cycle, &[rs]);
                let target = self.regs[rs.index()];
                self.pred.btb.update(pc, target);
                if predicted == Some(target) {
                    *cycle += 1;
                } else {
                    self.pmu.incr(HpcEvent::BtbMispredicts);
                    self.pmu.incr(HpcEvent::BranchMispredicts);
                    if let Some(wrong) = predicted {
                        if !self.cfg.protect.csf {
                            let budget = resolve_at.saturating_sub(*cycle);
                            self.speculate_at(wrong, budget);
                        }
                    }
                    let stall = self.cfg.mispredict_penalty;
                    self.pmu.add(HpcEvent::StallCyclesBranch, stall);
                    *cycle += stall;
                }
                next_pc = target;
            }
            Instr::Call(imm) => {
                let ret = next_pc;
                self.push_u64(ret)?;
                self.pred.rsb.push(ret);
                if self.cfg.protect.shadow_stack {
                    self.shadow_stack.push(ret);
                }
                self.count::<BATCHED>(HpcEvent::BranchInstrs);
                self.count::<BATCHED>(HpcEvent::Calls);
                *cycle += 1;
                next_pc = pc.wrapping_add(imm as i64 as u64);
            }
            Instr::CallR(rs) => {
                self.wait_ready(cycle, &[rs]);
                let target = self.regs[rs.index()];
                let ret = next_pc;
                self.push_u64(ret)?;
                self.pred.rsb.push(ret);
                if self.cfg.protect.shadow_stack {
                    self.shadow_stack.push(ret);
                }
                self.count::<BATCHED>(HpcEvent::BranchInstrs);
                self.count::<BATCHED>(HpcEvent::Calls);
                self.count::<BATCHED>(HpcEvent::IndirectBranches);
                let predicted = self.pred.btb.predict(pc);
                self.pred.btb.update(pc, target);
                if predicted != Some(target) {
                    self.pmu.incr(HpcEvent::BtbMispredicts);
                }
                *cycle += 1;
                next_pc = target;
            }
            Instr::Ret => {
                self.wait_ready(cycle, &[Reg::SP]);
                let sp = self.regs[Reg::SP.index()];
                let (target, latency) = match self.load_value(sp, Width::D) {
                    Ok(v) => v,
                    Err(fault) => return Err(self.page_fault(fault)),
                };
                self.regs[Reg::SP.index()] = sp.wrapping_add(8);
                self.count::<BATCHED>(HpcEvent::BranchInstrs);
                self.count::<BATCHED>(HpcEvent::Returns);
                let predicted = self.pred.rsb.pop();
                let resolve_at = *cycle + latency + BRANCH_RESOLVE_EXTRA;
                if predicted == Some(target) {
                    *cycle += 1;
                } else {
                    // RSB mispredict: transiently execute at the stale
                    // predicted return address (the Spectre-RSB surface; a
                    // ROP chain triggers this on every gadget).
                    self.pmu.incr(HpcEvent::RsbMispredicts);
                    self.pmu.incr(HpcEvent::BranchMispredicts);
                    if let Some(wrong) = predicted {
                        if !self.cfg.protect.csf {
                            let budget = resolve_at.saturating_sub(*cycle);
                            self.speculate_at(wrong, budget);
                        }
                    }
                    let stall = resolve_at.saturating_sub(*cycle) + self.cfg.mispredict_penalty;
                    self.pmu.add(HpcEvent::StallCyclesBranch, stall);
                    *cycle += stall;
                }
                if self.cfg.protect.shadow_stack {
                    let expected = self.shadow_stack.pop().unwrap_or(0);
                    if expected != target {
                        return Err(self.stop_fault(Fault::ShadowStack { expected, got: target }));
                    }
                }
                next_pc = target;
            }
            Instr::Push(rs) => {
                self.wait_ready(cycle, &[rs, Reg::SP]);
                let value = self.regs[rs.index()];
                self.push_u64(value)?;
                self.count::<BATCHED>(HpcEvent::Pushes);
                *cycle += 1;
            }
            Instr::Pop(rd) => {
                self.wait_ready(cycle, &[Reg::SP]);
                let sp = self.regs[Reg::SP.index()];
                let (value, latency) = match self.load_value(sp, Width::D) {
                    Ok(v) => v,
                    Err(fault) => return Err(self.page_fault(fault)),
                };
                self.regs[rd.index()] = value;
                self.regs[Reg::SP.index()] = sp.wrapping_add(8);
                self.count::<BATCHED>(HpcEvent::Pops);
                *cycle += 1;
                self.reg_ready[rd.index()] = *cycle + latency;
            }
            Instr::ClFlush(rs1, imm) => {
                if !self.cfg.protect.clflush_enabled {
                    return Err(self.stop_fault(Fault::ClflushDisabled));
                }
                self.wait_ready(cycle, &[rs1]);
                let addr = self.regs[rs1.index()].wrapping_add(imm as i64 as u64);
                self.caches.flush_line(addr);
                self.count::<BATCHED>(HpcEvent::Flushes);
                *cycle += 4;
            }
            Instr::MFence => {
                // Serialize: wait for every in-flight value.
                let ready = self.reg_ready.iter().copied().max().unwrap_or(0);
                if ready > *cycle {
                    let stall = ready - *cycle;
                    self.pmu.add(HpcEvent::StallCyclesMem, stall);
                    *cycle += stall;
                }
                self.count::<BATCHED>(HpcEvent::Fences);
                *cycle += 3;
            }
            Instr::Rdtsc(rd) => {
                self.regs[rd.index()] = *cycle;
                self.reg_ready[rd.index()] = *cycle;
                self.count::<BATCHED>(HpcEvent::Rdtscs);
                *cycle += 1;
            }
            Instr::Syscall => {
                // Serializing instruction.
                let ready = self.reg_ready.iter().copied().max().unwrap_or(0);
                if ready > *cycle {
                    let stall = ready - *cycle;
                    *cycle += stall;
                }
                self.count::<BATCHED>(HpcEvent::Syscalls);
                *cycle += SYSCALL_COST;
                self.cycle = *cycle;
                if let Some(new_pc) = self.do_syscall(next_pc)? {
                    next_pc = new_pc;
                }
            }
        }
        Ok(next_pc)
    }

    /// Counts a static event, unless a block run batches it.
    #[inline(always)]
    fn count<const BATCHED: bool>(&mut self, event: HpcEvent) {
        if !BATCHED {
            self.pmu.incr(event);
        }
    }

    #[inline(always)]
    fn count_alu<const BATCHED: bool>(&mut self, op: AluOp) {
        self.count::<BATCHED>(HpcEvent::AluOps);
        match op {
            AluOp::Mul => self.count::<BATCHED>(HpcEvent::MulOps),
            AluOp::Divu | AluOp::Remu => self.count::<BATCHED>(HpcEvent::DivOps),
            AluOp::Shl | AluOp::Shr | AluOp::Sar => self.count::<BATCHED>(HpcEvent::ShiftOps),
            _ => {}
        }
    }

    #[inline(always)]
    fn push_u64(&mut self, value: u64) -> Result<(), Stopped> {
        let sp = self.regs[Reg::SP.index()].wrapping_sub(8);
        if let Err(fault) = self.store_value(sp, Width::D, value) {
            return Err(self.page_fault(fault));
        }
        self.regs[Reg::SP.index()] = sp;
        Ok(())
    }

    /// Runs the system call in `r0`; `Ok(Some(pc))` redirects the
    /// return, `Err` means the call stopped the machine.
    fn do_syscall(&mut self, return_pc: u64) -> Result<Option<u64>, Stopped> {
        let nr = self.regs[Reg::R0.index()];
        match nr {
            sys::EXIT => {
                let code = self.regs[Reg::R1.index()];
                if let Some(ret) = self.exec_returns.pop() {
                    // An injected image finished: resume the interrupted
                    // context at the instruction after its `exec`.
                    if let Some(span) = self
                        .exec_spans
                        .iter_mut()
                        .rev()
                        .find(|(_, end)| *end == u64::MAX)
                    {
                        span.1 = self.cycle;
                    }
                    self.regs[Reg::R0.index()] = code;
                    Ok(Some(ret))
                } else {
                    Err(self.stop(ExitReason::Exited(code)))
                }
            }
            sys::WRITE => {
                let ptr = self.regs[Reg::R1.index()];
                let len = self.regs[Reg::R2.index()].min(1 << 20);
                let mut buf = vec![0u8; len as usize];
                if let Err(fault) = self.mem.read(ptr, &mut buf) {
                    return Err(self.stop_fault(Fault::Mem(fault)));
                }
                self.pmu.add(HpcEvent::BytesWritten, len);
                self.stdout.extend_from_slice(&buf);
                self.regs[Reg::R0.index()] = len;
                Ok(None)
            }
            sys::EXEC => {
                let ptr = self.regs[Reg::R1.index()];
                let name_bytes = match self.mem.read_cstr(ptr, 256) {
                    Ok(b) => b,
                    Err(fault) => return Err(self.stop_fault(Fault::Mem(fault))),
                };
                let name = String::from_utf8_lossy(&name_bytes).into_owned();
                let image = match self.registry.get(&name) {
                    Some(i) => i.clone(),
                    None => return Err(self.stop_fault(Fault::UnknownBinary { name })),
                };
                self.pmu.incr(HpcEvent::ExecCalls);
                let loaded = match self.load(&image) {
                    Ok(l) => l,
                    Err(fault) => return Err(self.stop_fault(fault)),
                };
                self.exec_returns.push(return_pc);
                self.exec_spans.push((self.cycle, u64::MAX));
                Ok(Some(loaded.entry))
            }
            sys::ABORT => Err(self.stop_fault(Fault::Abort)),
            sys::GETRAND => {
                self.regs[Reg::R0.index()] = self.rng.next_u64();
                Ok(None)
            }
            _ => Err(self.stop_fault(Fault::BadSyscall { number: nr })),
        }
    }

    // ---------------------------------------------------------------
    // Transient (speculative) execution
    // ---------------------------------------------------------------

    /// Executes the wrong path at `start` transiently for up to `budget`
    /// cycles (and at most `spec_window` instructions), then squashes,
    /// exactly as an internal mispredict does. Architectural effects are
    /// discarded; cache and PMU cache-event effects persist. Public for
    /// building custom transient-execution experiments and for
    /// property-testing the squash invariant.
    #[inline(never)]
    pub fn speculate_at(&mut self, start: u64, budget: u64) {
        let mut regs = self.regs;
        // Spec-relative readiness (cycle 0 = entry into speculation).
        let mut ready = [0u64; 16];
        let mut store_buf: HashMap<u64, u8> = HashMap::new();
        let mut pc = start;
        // The cached block and index of the instruction at `pc` while the
        // path runs straight through a block, so it is not looked up again.
        let mut cursor: Option<(usize, usize)> = None;
        let mut scycle: u64 = 0;
        let mut instrs: u64 = 0;
        // Spec-event counts accumulate locally and flush once at squash —
        // the PMU is only ever observed between architectural steps.
        let mut loads: u64 = 0;
        let mut stores: u64 = 0;
        let mut suppressed: u64 = 0;
        let window = self.cfg.spec_window;
        while scycle < budget && instrs < window {
            // Transient fetches still fill the instruction cache
            // (`FetchMode::Spec`); a fetch fault is suppressed, a decode
            // failure just ends the transient path.
            let instr = match cursor {
                Some((slot, i)) => {
                    self.icache_access(pc, FetchMode::Spec);
                    self.blocks.blocks[slot].instrs[i]
                }
                None => match self.fetch_decode(pc, FetchMode::Spec) {
                    Ok(instr) => {
                        let slot = BlockCache::slot(pc);
                        cursor = (P::FAST && self.blocks.blocks[slot].entry == pc).then_some((slot, 0));
                        instr
                    }
                    Err(FetchFail::Mem(_)) => {
                        suppressed += 1;
                        break;
                    }
                    Err(FetchFail::Decode) => break,
                },
            };
            instrs += 1;
            let mut next_pc = pc.wrapping_add(INSTR_BYTES as u64);
            let wait = |ready: &[u64; 16], rs: &[Reg]| -> u64 {
                rs.iter().map(|r| ready[r.index()]).max().unwrap_or(0)
            };
            match instr {
                Instr::Nop => {}
                Instr::Halt | Instr::MFence | Instr::Syscall | Instr::Rdtsc(_) => {
                    // Serializing or privileged: transient execution stops.
                    break;
                }
                Instr::Ldi(rd, imm) => {
                    regs[rd.index()] = imm as i64 as u64;
                    ready[rd.index()] = scycle;
                }
                Instr::Ldih(rd, imm) => {
                    let low = regs[rd.index()] & 0xffff_ffff;
                    regs[rd.index()] = ((imm as u32 as u64) << 32) | low;
                    ready[rd.index()] = scycle;
                }
                Instr::Mov(rd, rs) => {
                    scycle = scycle.max(wait(&ready, &[rs]));
                    regs[rd.index()] = regs[rs.index()];
                    ready[rd.index()] = scycle;
                }
                Instr::Alu(op, rd, rs1, rs2) => {
                    scycle = scycle.max(wait(&ready, &[rs1, rs2]));
                    regs[rd.index()] = op.apply(regs[rs1.index()], regs[rs2.index()]);
                    ready[rd.index()] = scycle + alu_latency(op);
                }
                Instr::Alui(op, rd, rs1, imm) => {
                    scycle = scycle.max(wait(&ready, &[rs1]));
                    regs[rd.index()] = op.apply(regs[rs1.index()], imm as i64 as u64);
                    ready[rd.index()] = scycle + alu_latency(op);
                }
                Instr::Ld(w, rd, rs1, imm) => {
                    scycle = scycle.max(wait(&ready, &[rs1]));
                    let addr = regs[rs1.index()].wrapping_add(imm as i64 as u64);
                    match self.spec_load(addr, w, &store_buf) {
                        Some((value, latency)) => {
                            loads += 1;
                            regs[rd.index()] = value;
                            ready[rd.index()] = scycle + latency;
                        }
                        None => {
                            suppressed += 1;
                            break;
                        }
                    }
                }
                Instr::St(w, rs1, rs2, imm) => {
                    scycle = scycle.max(wait(&ready, &[rs1, rs2]));
                    let addr = regs[rs1.index()].wrapping_add(imm as i64 as u64);
                    // Buffered byte-wise; never reaches memory.
                    let value = regs[rs2.index()];
                    for (i, b) in value.to_le_bytes()[..w.bytes()].iter().enumerate() {
                        store_buf.insert(addr.wrapping_add(i as u64), *b);
                    }
                    // The line is still brought into the cache (RFO) —
                    // unless InvisiSpec keeps speculation invisible.
                    if !self.cfg.protect.invisispec {
                        self.data_access(addr, true);
                    }
                    stores += 1;
                }
                Instr::Br(cond, rs1, rs2, imm) => {
                    // Inside speculation we simply follow the (possibly
                    // nested) prediction; everything is squashed anyway.
                    let predicted = self.pred.pht.predict(pc);
                    let _ = cond;
                    let _ = (rs1, rs2);
                    if predicted {
                        next_pc = pc.wrapping_add(imm as i64 as u64);
                    }
                }
                Instr::Jmp(imm) => {
                    next_pc = pc.wrapping_add(imm as i64 as u64);
                }
                Instr::JmpR(rs) => {
                    scycle = scycle.max(wait(&ready, &[rs]));
                    next_pc = regs[rs.index()];
                }
                Instr::Call(imm) => {
                    let ret = next_pc;
                    let sp = regs[Reg::SP.index()].wrapping_sub(8);
                    for (i, b) in ret.to_le_bytes().iter().enumerate() {
                        store_buf.insert(sp.wrapping_add(i as u64), *b);
                    }
                    regs[Reg::SP.index()] = sp;
                    next_pc = pc.wrapping_add(imm as i64 as u64);
                }
                Instr::CallR(rs) => {
                    scycle = scycle.max(wait(&ready, &[rs]));
                    let ret = next_pc;
                    let sp = regs[Reg::SP.index()].wrapping_sub(8);
                    for (i, b) in ret.to_le_bytes().iter().enumerate() {
                        store_buf.insert(sp.wrapping_add(i as u64), *b);
                    }
                    regs[Reg::SP.index()] = sp;
                    next_pc = regs[rs.index()];
                }
                Instr::Ret => {
                    let sp = regs[Reg::SP.index()];
                    match self.spec_load(sp, Width::D, &store_buf) {
                        Some((target, latency)) => {
                            regs[Reg::SP.index()] = sp.wrapping_add(8);
                            scycle += latency;
                            next_pc = target;
                        }
                        None => {
                            suppressed += 1;
                            break;
                        }
                    }
                }
                Instr::Push(rs) => {
                    scycle = scycle.max(wait(&ready, &[rs]));
                    let sp = regs[Reg::SP.index()].wrapping_sub(8);
                    for (i, b) in regs[rs.index()].to_le_bytes().iter().enumerate() {
                        store_buf.insert(sp.wrapping_add(i as u64), *b);
                    }
                    regs[Reg::SP.index()] = sp;
                }
                Instr::Pop(rd) => {
                    let sp = regs[Reg::SP.index()];
                    match self.spec_load(sp, Width::D, &store_buf) {
                        Some((value, latency)) => {
                            regs[rd.index()] = value;
                            regs[Reg::SP.index()] = sp.wrapping_add(8);
                            ready[rd.index()] = scycle + latency;
                        }
                        None => {
                            suppressed += 1;
                            break;
                        }
                    }
                }
                Instr::ClFlush(rs1, imm) => {
                    if !self.cfg.protect.clflush_enabled {
                        break;
                    }
                    scycle = scycle.max(wait(&ready, &[rs1]));
                    // Flushes are microarchitectural: they persist.
                    let addr = regs[rs1.index()].wrapping_add(imm as i64 as u64);
                    self.caches.flush_line(addr);
                }
            }
            scycle += 1;
            cursor = cursor.filter(|&(slot, i)| {
                next_pc == pc.wrapping_add(INSTR_BYTES as u64)
                    && i + 1 < self.blocks.blocks[slot].len as usize
            });
            cursor = cursor.map(|(slot, i)| (slot, i + 1));
            pc = next_pc;
        }
        if instrs >= window {
            self.pmu.incr(HpcEvent::SpecWindowExhausted);
        }
        self.pmu.add(HpcEvent::SpecInstrs, instrs);
        self.pmu.add(HpcEvent::SpecLoads, loads);
        self.pmu.add(HpcEvent::SpecStores, stores);
        self.pmu.add(HpcEvent::SpecFaultsSuppressed, suppressed);
        self.pmu.incr(HpcEvent::SpecSquashes);
        // Squash: regs/ready/store_buf are dropped; cache + PMU persist.
    }

    /// Transient load: permission-checked (fault → `None`, suppressed),
    /// store-buffer forwarded, cache-filling — unless InvisiSpec routes
    /// it through the speculative buffer, leaving no cache footprint.
    fn spec_load(
        &mut self,
        addr: u64,
        width: Width,
        store_buf: &HashMap<u64, u8>,
    ) -> Option<(u64, u64)> {
        let n = width.bytes();
        let mut bytes = [0u8; 8];
        self.mem.read(addr, &mut bytes[..n]).ok()?;
        for (i, b) in bytes[..n].iter_mut().enumerate() {
            if let Some(&sb) = store_buf.get(&addr.wrapping_add(i as u64)) {
                *b = sb;
            }
        }
        let value = u64::from_le_bytes(bytes);
        if self.cfg.protect.invisispec {
            // Invisible speculation: same timing, no state change, no
            // counter-visible cache events.
            let result = self.caches.probe_data_latency(addr);
            return Some((value, result.latency));
        }
        // The microarchitectural side effect that makes Spectre work.
        let result = self.data_access(addr, false);
        Some((value, result.latency))
    }
}

/// Extra cycles between operand readiness and branch resolution
/// (execute/retire pipeline depth).
const BRANCH_RESOLVE_EXTRA: u64 = 24;

/// Fixed cost of the syscall trap.
const SYSCALL_COST: u64 = 50;

fn alu_latency(op: AluOp) -> u64 {
    match op {
        AluOp::Mul => 3,
        AluOp::Divu | AluOp::Remu => 12,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{Image, ImageSegment};

    fn image_from(instrs: &[Instr]) -> Image {
        let bytes: Vec<u8> = instrs.iter().flat_map(|i| i.encode()).collect();
        Image::new(
            "test",
            vec![ImageSegment { name: ".text".into(), kind: SegKind::Text, offset: 0, bytes }],
            0,
        )
    }

    fn run_program(instrs: &[Instr]) -> (Machine, RunOutcome) {
        let mut m = Machine::new(MachineConfig::default());
        let li = m.load(&image_from(instrs)).unwrap();
        m.start(li.entry);
        let outcome = m.run();
        (m, outcome)
    }

    #[test]
    fn arithmetic_program() {
        let (m, out) = run_program(&[
            Instr::Ldi(Reg::R1, 6),
            Instr::Ldi(Reg::R2, 7),
            Instr::Alu(AluOp::Mul, Reg::R3, Reg::R1, Reg::R2),
            Instr::Alui(AluOp::Add, Reg::R3, Reg::R3, 100),
            Instr::Halt,
        ]);
        assert!(out.exit.is_clean());
        assert_eq!(m.reg(Reg::R3), 142);
        assert_eq!(out.instructions, 5);
        assert!(out.cycles >= 5);
    }

    #[test]
    fn loads_and_stores() {
        let mut m = Machine::new(MachineConfig::default());
        let buf = m.alloc(PAGE_SIZE, Perms::RW);
        let li = m
            .load(&image_from(&[
                Instr::Ldi(Reg::R1, buf as i32),
                Instr::Ldi(Reg::R2, 0x5a),
                Instr::St(Width::B, Reg::R1, Reg::R2, 3),
                Instr::Ld(Width::B, Reg::R3, Reg::R1, 3),
                Instr::Halt,
            ]))
            .unwrap();
        m.start(li.entry);
        assert!(m.run().exit.is_clean());
        assert_eq!(m.reg(Reg::R3), 0x5a);
        assert_eq!(m.mem().read_u8(buf + 3).unwrap(), 0x5a);
    }

    #[test]
    fn branch_loop_counts_events() {
        // for (r1 = 0; r1 != 10; r1++) {}
        let (mut m, out) = run_program(&[
            Instr::Ldi(Reg::R1, 0),
            Instr::Ldi(Reg::R2, 10),
            // loop:
            Instr::Alui(AluOp::Add, Reg::R1, Reg::R1, 1),
            Instr::Br(crate::isa::BranchCond::Ne, Reg::R1, Reg::R2, -8),
            Instr::Halt,
        ]);
        assert!(out.exit.is_clean());
        assert_eq!(m.reg(Reg::R1), 10);
        assert_eq!(m.pmu().count(HpcEvent::CondBranches), 10);
        assert!(m.pmu().count(HpcEvent::BranchMispredicts) >= 1);
        assert!(m.pmu().count(HpcEvent::BranchMispredicts) <= 4);
    }

    #[test]
    fn call_ret_round_trip() {
        let (mut m, out) = run_program(&[
            Instr::Call(3 * INSTR_BYTES as i32), // call f (skips next 2)
            Instr::Ldi(Reg::R2, 99),             // after return
            Instr::Halt,
            // f:
            Instr::Ldi(Reg::R1, 41),
            Instr::Alui(AluOp::Add, Reg::R1, Reg::R1, 1),
            Instr::Ret,
        ]);
        assert!(out.exit.is_clean());
        assert_eq!(m.reg(Reg::R1), 42);
        assert_eq!(m.reg(Reg::R2), 99);
        assert_eq!(m.pmu().count(HpcEvent::Calls), 1);
        assert_eq!(m.pmu().count(HpcEvent::Returns), 1);
        assert_eq!(
            m.pmu().count(HpcEvent::RsbMispredicts),
            0,
            "a matched call/ret predicts perfectly"
        );
    }

    #[test]
    fn dep_blocks_stack_execution() {
        // Jump to the stack: fetch must fault under DEP.
        let mut m = Machine::new(MachineConfig::default());
        let (_, hi) = m.stack_range();
        let li = m
            .load(&image_from(&[
                Instr::Ldi(Reg::R1, (hi - 4096) as i32),
                Instr::JmpR(Reg::R1),
                Instr::Halt,
            ]))
            .unwrap();
        m.start(li.entry);
        let out = m.run();
        match out.exit {
            ExitReason::Fault(Fault::Mem(f)) => {
                assert_eq!(f.kind, crate::mem::AccessKind::Fetch)
            }
            other => panic!("expected DEP fetch fault, got {other:?}"),
        }
    }

    #[test]
    fn dep_disabled_allows_stack_execution() {
        let mut cfg = MachineConfig::default();
        cfg.protect.dep = false;
        let mut m = Machine::new(cfg);
        let (_, hi) = m.stack_range();
        let code_addr = hi - 4096;
        let li = m
            .load(&image_from(&[
                Instr::Ldi(Reg::R1, code_addr as i32),
                Instr::JmpR(Reg::R1),
            ]))
            .unwrap();
        // Plant shellcode on the stack.
        let shell: Vec<u8> = [Instr::Ldi(Reg::R5, 123), Instr::Halt]
            .iter()
            .flat_map(|i| i.encode())
            .collect();
        m.mem_mut().poke(code_addr, &shell);
        m.start(li.entry);
        let out = m.run();
        assert!(out.exit.is_clean());
        assert_eq!(m.reg(Reg::R5), 123);
    }

    #[test]
    fn syscall_write_and_exit() {
        let mut m = Machine::new(MachineConfig::default());
        let buf = m.alloc(PAGE_SIZE, Perms::RW);
        m.mem_mut().poke(buf, b"hi");
        let li = m
            .load(&image_from(&[
                Instr::Ldi(Reg::R0, sys::WRITE as i32),
                Instr::Ldi(Reg::R1, buf as i32),
                Instr::Ldi(Reg::R2, 2),
                Instr::Syscall,
                Instr::Ldi(Reg::R0, sys::EXIT as i32),
                Instr::Ldi(Reg::R1, 0),
                Instr::Syscall,
            ]))
            .unwrap();
        m.start(li.entry);
        let out = m.run();
        assert_eq!(out.exit, ExitReason::Exited(0));
        assert_eq!(m.stdout(), b"hi");
    }

    #[test]
    fn exec_injects_registered_binary_and_returns() {
        let mut m = Machine::new(MachineConfig::default());
        // Injected binary: set r5, then exit(7).
        let mut payload = image_from(&[
            Instr::Ldi(Reg::R5, 1234),
            Instr::Ldi(Reg::R0, sys::EXIT as i32),
            Instr::Ldi(Reg::R1, 7),
            Instr::Syscall,
        ]);
        payload.name = "payload".into();
        m.register_image(payload);
        let name_buf = m.alloc(PAGE_SIZE, Perms::RW);
        m.mem_mut().poke(name_buf, b"payload\0");
        let li = m
            .load(&image_from(&[
                Instr::Ldi(Reg::R0, sys::EXEC as i32),
                Instr::Ldi(Reg::R1, name_buf as i32),
                Instr::Syscall,
                Instr::Ldi(Reg::R6, 1), // resumed after injected exit
                Instr::Halt,
            ]))
            .unwrap();
        m.start(li.entry);
        let out = m.run();
        assert!(out.exit.is_clean());
        assert_eq!(m.reg(Reg::R5), 1234, "injected code ran");
        assert_eq!(m.reg(Reg::R6), 1, "host resumed after injection");
        assert_eq!(m.reg(Reg::R0), 7, "injected exit code returned");
        assert_eq!(m.pmu().count(HpcEvent::ExecCalls), 1);
    }

    #[test]
    fn exec_unknown_binary_faults() {
        let mut m = Machine::new(MachineConfig::default());
        let name_buf = m.alloc(PAGE_SIZE, Perms::RW);
        m.mem_mut().poke(name_buf, b"ghost\0");
        let li = m
            .load(&image_from(&[
                Instr::Ldi(Reg::R0, sys::EXEC as i32),
                Instr::Ldi(Reg::R1, name_buf as i32),
                Instr::Syscall,
            ]))
            .unwrap();
        m.start(li.entry);
        match m.run().exit {
            ExitReason::Fault(Fault::UnknownBinary { name }) => assert_eq!(name, "ghost"),
            other => panic!("expected unknown-binary fault, got {other:?}"),
        }
    }

    #[test]
    fn rdtsc_measures_cache_miss_vs_hit() {
        // t1; load (miss); mfence; t2; load (hit); mfence; t3
        let mut m = Machine::new(MachineConfig::default());
        let buf = m.alloc(PAGE_SIZE, Perms::RW);
        let li = m
            .load(&image_from(&[
                Instr::Ldi(Reg::R1, buf as i32),
                Instr::Rdtsc(Reg::R2),
                Instr::Ld(Width::B, Reg::R5, Reg::R1, 0),
                Instr::MFence,
                Instr::Rdtsc(Reg::R3),
                Instr::Ld(Width::B, Reg::R5, Reg::R1, 0),
                Instr::MFence,
                Instr::Rdtsc(Reg::R4),
                Instr::Halt,
            ]))
            .unwrap();
        m.start(li.entry);
        assert!(m.run().exit.is_clean());
        let miss_time = m.reg(Reg::R3) - m.reg(Reg::R2);
        let hit_time = m.reg(Reg::R4) - m.reg(Reg::R3);
        assert!(
            miss_time > hit_time + 100,
            "miss {miss_time} vs hit {hit_time}: the covert channel gap must be large"
        );
    }

    #[test]
    fn clflush_disabled_countermeasure_faults() {
        let mut cfg = MachineConfig::default();
        cfg.protect.clflush_enabled = false;
        let mut m = Machine::new(cfg);
        let li = m
            .load(&image_from(&[Instr::ClFlush(Reg::R1, 0), Instr::Halt]))
            .unwrap();
        m.start(li.entry);
        assert_eq!(m.run().exit, ExitReason::Fault(Fault::ClflushDisabled));
    }

    /// Plants `instrs` in an RX heap page and returns their address.
    fn plant_code(m: &mut Machine, instrs: &[Instr]) -> u64 {
        let bytes: Vec<u8> = instrs.iter().flat_map(|i| i.encode()).collect();
        let addr = m.alloc(PAGE_SIZE, Perms::RW);
        m.mem_mut().poke(addr, &bytes);
        m.mem_mut().set_perms(addr, PAGE_SIZE, Perms::RX);
        addr
    }

    #[test]
    fn transient_cache_fill_persists_after_squash() {
        let mut m = Machine::new(MachineConfig::default());
        let probe = m.alloc(PAGE_SIZE, Perms::RW);
        let code = plant_code(&mut m, &[Instr::Ld(Width::B, Reg::R9, Reg::R6, 0), Instr::Halt]);
        m.caches_mut().flush_line(probe);
        assert!(!m.caches().data_resident(probe));
        m.set_reg(Reg::R6, probe);
        let r9_before = m.reg(Reg::R9);
        m.speculate_at(code, 400);
        assert!(m.caches().data_resident(probe), "transient fill persists");
        assert_eq!(m.reg(Reg::R9), r9_before, "architectural state restored");
        assert!(m.pmu().count(HpcEvent::SpecLoads) >= 1);
        assert_eq!(m.pmu().count(HpcEvent::SpecSquashes), 1);
    }

    #[test]
    fn invisispec_leaves_no_transient_cache_footprint() {
        let mut cfg = MachineConfig::default();
        cfg.protect.invisispec = true;
        let mut m = Machine::new(cfg);
        let probe = m.alloc(PAGE_SIZE, Perms::RW);
        let code = plant_code(&mut m, &[Instr::Ld(Width::B, Reg::R9, Reg::R6, 0), Instr::Halt]);
        m.set_reg(Reg::R6, probe);
        m.speculate_at(code, 400);
        assert!(
            !m.caches().data_resident(probe),
            "InvisiSpec: speculative loads must not fill the cache"
        );
        assert!(m.pmu().count(HpcEvent::SpecLoads) >= 1, "the load still executed");
        assert_eq!(
            m.pmu().count(HpcEvent::TotalCacheMiss),
            0,
            "and left no counter-visible cache event"
        );
    }

    #[test]
    fn invisispec_charges_load_validation() {
        let run_load_chain = |invisispec: bool| {
            let mut cfg = MachineConfig::default();
            cfg.protect.invisispec = invisispec;
            let mut m = Machine::new(cfg);
            let buf = m.alloc(PAGE_SIZE, Perms::RW);
            let li = m
                .load(&image_from(&[
                    Instr::Ldi(Reg::R1, buf as i32),
                    // Dependent load chain: each consumer waits.
                    Instr::Ld(Width::D, Reg::R2, Reg::R1, 0),
                    Instr::Alu(AluOp::Add, Reg::R3, Reg::R2, Reg::R2),
                    Instr::Ld(Width::D, Reg::R4, Reg::R1, 8),
                    Instr::Alu(AluOp::Add, Reg::R5, Reg::R4, Reg::R4),
                    Instr::Halt,
                ]))
                .unwrap();
            m.start(li.entry);
            m.run().cycles
        };
        assert!(
            run_load_chain(true) > run_load_chain(false),
            "InvisiSpec validation must cost cycles"
        );
    }

    #[test]
    fn csf_serializes_branches_and_fences_speculation() {
        let run = |csf: bool| {
            let mut cfg = MachineConfig::default();
            cfg.protect.csf = csf;
            let mut m = Machine::new(cfg);
            let li = m
                .load(&image_from(&[
                    Instr::Ldi(Reg::R1, 0),
                    Instr::Ldi(Reg::R2, 50),
                    Instr::Alui(AluOp::Add, Reg::R1, Reg::R1, 1),
                    Instr::Br(crate::isa::BranchCond::Ne, Reg::R1, Reg::R2, -8),
                    Instr::Halt,
                ]))
                .unwrap();
            m.start(li.entry);
            let out = m.run();
            (out.cycles, m.pmu().count(HpcEvent::Fences), m.pmu().count(HpcEvent::SpecInstrs))
        };
        let (base_cycles, base_fences, _) = run(false);
        let (csf_cycles, csf_fences, csf_spec) = run(true);
        assert!(csf_cycles > base_cycles, "fencing every branch costs cycles");
        assert_eq!(csf_fences, base_fences + 50, "one injected fence per branch");
        assert_eq!(csf_spec, 0, "no transient execution past a fence");
    }

    #[test]
    fn transient_stores_never_reach_memory() {
        let mut m = Machine::new(MachineConfig::default());
        let buf = m.alloc(PAGE_SIZE, Perms::RW);
        m.mem_mut().write_u64(buf, 0x1111).unwrap();
        let code = plant_code(
            &mut m,
            &[
                Instr::Ldi(Reg::R1, buf as i32),
                Instr::Ldi(Reg::R2, 0x2222),
                Instr::St(Width::D, Reg::R1, Reg::R2, 0),
                // A transient load observes the buffered store...
                Instr::Ld(Width::D, Reg::R3, Reg::R1, 0),
                Instr::Halt,
            ],
        );
        m.speculate_at(code, 1000);
        // ...but memory keeps the architectural value.
        assert_eq!(m.mem().read_u64(buf).unwrap(), 0x1111);
        assert!(m.pmu().count(HpcEvent::SpecStores) >= 1);
    }

    #[test]
    fn speculation_suppresses_faults() {
        let mut m = Machine::new(MachineConfig::default());
        let bytes: Vec<u8> = [Instr::Ld(Width::B, Reg::R9, Reg::R6, 0), Instr::Halt]
            .iter()
            .flat_map(|i| i.encode())
            .collect();
        let addr = m.alloc(PAGE_SIZE, Perms::RW);
        m.mem_mut().poke(addr, &bytes);
        m.mem_mut().set_perms(addr, PAGE_SIZE, Perms::RX);
        m.set_reg(Reg::R6, 0); // guard page: architecturally fatal
        m.speculate_at(addr, 100);
        assert!(m.exit_reason().is_none(), "machine keeps running");
        assert_eq!(m.pmu().count(HpcEvent::SpecFaultsSuppressed), 1);
    }

    #[test]
    fn speculation_respects_budget() {
        let mut m = Machine::new(MachineConfig::default());
        // An infinite transient loop must stop at the window cap.
        let bytes: Vec<u8> = [Instr::Jmp(0)].iter().flat_map(|i| i.encode()).collect();
        let addr = m.alloc(PAGE_SIZE, Perms::RW);
        m.mem_mut().poke(addr, &bytes);
        m.mem_mut().set_perms(addr, PAGE_SIZE, Perms::RX);
        m.speculate_at(addr, u64::MAX);
        assert_eq!(
            m.pmu().count(HpcEvent::SpecInstrs),
            m.config().spec_window,
            "window caps transient depth"
        );
        assert_eq!(m.pmu().count(HpcEvent::SpecWindowExhausted), 1);
    }

    #[test]
    fn max_instruction_budget_faults() {
        let cfg = MachineConfig { max_instructions: 10, ..MachineConfig::default() };
        let mut m = Machine::new(cfg);
        let li = m.load(&image_from(&[Instr::Jmp(0)])).unwrap();
        m.start(li.entry);
        assert_eq!(m.run().exit, ExitReason::Fault(Fault::MaxInstructions));
    }

    #[test]
    fn misaligned_segment_is_a_load_fault() {
        let mut m = Machine::new(MachineConfig::default());
        let mut image = image_from(&[Instr::Halt]);
        image.segments[0].offset = 8;
        match m.load(&image) {
            Err(Fault::Mem(f)) => assert_eq!(f.kind, crate::mem::AccessKind::Write),
            other => panic!("expected a load fault, got {other:?}"),
        }
        assert!(m.loaded_images().is_empty(), "nothing was placed");
    }

    #[test]
    fn segment_offset_near_the_top_of_the_address_space_is_a_load_fault() {
        for offset in [u64::MAX - 7, u64::MAX - PAGE_SIZE + 1, 1 << 63] {
            let mut m = Machine::new(MachineConfig::default());
            let mut image = image_from(&[Instr::Halt]);
            image.segments[0].offset = offset & !(PAGE_SIZE - 1);
            assert!(
                matches!(m.load(&image), Err(Fault::Mem(_))),
                "offset {offset:#x} must fault, not overflow"
            );
        }
    }

    #[test]
    fn relocation_outside_the_image_is_a_load_fault() {
        let mut m = Machine::new(MachineConfig::default());
        let mut image = image_from(&[Instr::Halt]);
        image.relocs.push(crate::image::Reloc {
            at: u64::MAX - 2,
            addend: 0,
            kind: crate::image::RelocKind::Abs64,
        });
        assert!(matches!(m.load(&image), Err(Fault::Mem(_))));
    }

    #[test]
    fn oversized_argument_stops_the_machine_with_a_typed_fault() {
        for len in [ARG_SIZE, ARG_SIZE + 1] {
            let mut m = Machine::new(MachineConfig::default());
            let li = m.load(&image_from(&[Instr::Ldi(Reg::R5, 1), Instr::Halt])).unwrap();
            m.start_with_arg(li.entry, &vec![b'A'; len as usize]);
            let fault = ExitReason::Fault(Fault::ArgTooLarge { len });
            assert_eq!(m.exit_reason(), Some(&fault));
            assert_eq!(m.run_until(u64::MAX), Some(fault.clone()));
            assert_eq!(m.step(), StepStatus::Done(fault.clone()));
            assert_eq!(m.run().exit, fault);
            assert_eq!(m.instructions(), 0, "the guest never ran");
            assert_eq!(m.reg(Reg::R5), 0);
        }
        // The largest argument that fits still runs.
        let mut m = Machine::new(MachineConfig::default());
        let li = m.load(&image_from(&[Instr::Halt])).unwrap();
        m.start_with_arg(li.entry, &vec![b'A'; ARG_SIZE as usize - 1]);
        assert!(m.run().exit.is_clean());
    }

    #[test]
    fn aslr_slides_images() {
        let base_of = |seed: Option<u64>| {
            let mut cfg = MachineConfig::default();
            cfg.protect.aslr_seed = seed;
            cfg.seed = seed.unwrap_or(1);
            let mut m = Machine::new(cfg);
            m.load(&image_from(&[Instr::Halt])).unwrap().base
        };
        assert_eq!(base_of(None), IMAGE_BASE);
        let a = base_of(Some(11));
        let b = base_of(Some(1234567));
        assert_ne!(a, b, "different seeds give different bases");
        assert_eq!(a % PAGE_SIZE, 0);
    }

    #[test]
    #[should_panic(expected = "heap exhausted")]
    fn alloc_of_an_address_space_sized_block_panics() {
        let mut m = Machine::new(MachineConfig::default());
        m.alloc(u64::MAX - 5, Perms::RW);
    }

    #[test]
    fn guest_memory_holds_only_the_pages_written() {
        // A fresh machine has written only its canary, into the info page.
        let mut m = Machine::new(MachineConfig::default());
        assert_eq!(m.mem().resident_pages(), 1);
        let buf = m.alloc(4 * PAGE_SIZE, Perms::RW);
        assert_eq!(m.mem().resident_pages(), 1, "alloc sets permissions only");
        let li = m
            .load(&image_from(&[
                Instr::Ldi(Reg::R1, (buf + 2 * PAGE_SIZE) as i32),
                Instr::Ldi(Reg::R2, 0x5a),
                Instr::St(Width::D, Reg::R1, Reg::R2, 8),
                Instr::Ld(Width::D, Reg::R3, Reg::R1, 8),
                Instr::Ld(Width::D, Reg::R4, Reg::R1, PAGE_SIZE as i32),
                Instr::Halt,
            ]))
            .unwrap();
        assert_eq!(m.mem().resident_pages(), 2, "a one-page text segment");
        m.start(li.entry);
        assert!(m.run().exit.is_clean());
        assert_eq!((m.reg(Reg::R3), m.reg(Reg::R4)), (0x5a, 0));
        assert_eq!(m.mem().resident_pages(), 3, "one stored page; loads add none");
    }

    #[test]
    fn stack_is_below_guard_page() {
        let m = Machine::new(MachineConfig::default());
        let (lo, hi) = m.stack_range();
        assert!(hi > lo);
        assert_eq!(m.mem().perms_at(hi), Perms::NONE, "top guard page");
        assert!(m.mem().perms_at(hi - 1).w);
    }

    #[test]
    fn getrand_syscall() {
        let (m, out) = {
            let mut m = Machine::new(MachineConfig::default());
            let li = m
                .load(&image_from(&[
                    Instr::Ldi(Reg::R0, sys::GETRAND as i32),
                    Instr::Syscall,
                    Instr::Mov(Reg::R7, Reg::R0),
                    Instr::Halt,
                ]))
                .unwrap();
            m.start(li.entry);
            let out = m.run();
            (m, out)
        };
        assert!(out.exit.is_clean());
        assert_ne!(m.reg(Reg::R7), 0);
    }

    #[test]
    fn run_traced_records_executed_instructions() {
        let mut m = Machine::new(MachineConfig::default());
        let li = m
            .load(&image_from(&[
                Instr::Ldi(Reg::R1, 1),
                Instr::Ldi(Reg::R2, 2),
                Instr::Halt,
            ]))
            .unwrap();
        m.start(li.entry);
        let trace = m.run_traced(100);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0], (li.entry, Instr::Ldi(Reg::R1, 1)));
        assert_eq!(trace[2].1, Instr::Halt);
        // Limit is respected.
        let mut m2 = Machine::new(MachineConfig::default());
        let li2 = m2.load(&image_from(&[Instr::Jmp(0)])).unwrap();
        m2.start(li2.entry);
        assert_eq!(m2.run_traced(5).len(), 5);
    }

    #[test]
    fn ipc_is_plausible() {
        // A tight ALU loop should retire near 1 instruction per cycle.
        let (_, out) = run_program(&[
            Instr::Ldi(Reg::R1, 0),
            Instr::Ldi(Reg::R2, 1000),
            Instr::Alui(AluOp::Add, Reg::R1, Reg::R1, 1),
            Instr::Br(crate::isa::BranchCond::Ne, Reg::R1, Reg::R2, -8),
            Instr::Halt,
        ]);
        let ipc = out.ipc();
        assert!(ipc > 0.5 && ipc <= 1.5, "ALU loop IPC {ipc}");
    }
}
