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
use crate::config::MachineConfig;
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

/// Number of slots in the predecoded-instruction cache. Power of two;
/// covers 32 KiB of straight-line guest text (4096 slots × 8-byte
/// instructions), comfortably more than any campaign workload image.
const DECODE_SLOTS: usize = 4096;

/// Direct-mapped software cache of decoded instructions, keyed by guest PC.
///
/// Validity is epoch-based: [`Memory::code_epoch`] moves on any mutation
/// that could change fetched bytes (`poke`, a store into an executable
/// page, any permission change), and the whole cache is dropped on the
/// next lookup. A hit therefore proves both that the bytes are unchanged
/// *and* that the page was fetchable when the entry was filled — which is
/// what lets a hit skip the permission walk and the decode entirely.
#[derive(Debug, Clone)]
struct DecodeCache {
    /// Guest PC tags; `u64::MAX` marks an invalid slot (that address can
    /// never fetch successfully — it is out of bounds by construction).
    tags: Box<[u64; DECODE_SLOTS]>,
    /// Decoded instructions parallel to `tags`. Fixed-size arrays (not
    /// boxed slices) so the masked slot index provably needs no bounds
    /// check.
    instrs: Box<[Instr; DECODE_SLOTS]>,
    /// The [`Memory::code_epoch`] the current entries were filled under.
    epoch: u64,
}

impl DecodeCache {
    fn new() -> DecodeCache {
        DecodeCache {
            tags: Box::new([u64::MAX; DECODE_SLOTS]),
            instrs: Box::new([Instr::Nop; DECODE_SLOTS]),
            epoch: 0,
        }
    }

    #[inline]
    fn slot(pc: u64) -> usize {
        ((pc / INSTR_BYTES as u64) as usize) & (DECODE_SLOTS - 1)
    }

    fn clear(&mut self, epoch: u64) {
        self.tags.fill(u64::MAX);
        self.epoch = epoch;
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

/// The simulated machine.
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
pub struct Machine {
    cfg: MachineConfig,
    mem: Memory,
    caches: CacheHierarchy,
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
    /// Predecoded-instruction cache (the execution fast path).
    dcache: DecodeCache,
    /// Portion of `cycle` already mirrored into [`HpcEvent::Cycles`].
    cycles_flushed: u64,
    /// Portion of `retired` already mirrored into
    /// [`HpcEvent::Instructions`].
    instrs_flushed: u64,
    /// Hit coalescer for instruction fetches (tracks a few hot L1i
    /// lines; see [`FetchCoalescer`]). Batched hits are applied via
    /// [`Machine::apply_pending_ifetches`] before anything can observe
    /// or disturb L1i state.
    icoal: FetchCoalescer,
    /// Hit coalescer for data accesses — the L1d twin of `icoal`,
    /// applied via [`Machine::apply_pending_dfetches`]. Each batched hit
    /// is worth `L1dAccess` + `L1dHit` + `TotalCacheAccess` in the PMU
    /// (instruction hits are `L1iAccess` + `L1iHit`).
    dcoal: FetchCoalescer,
    /// The L1d hit latency (a coalesced hit's access result).
    l1d_hit_latency: u64,
}

/// Lines tracked per [`FetchCoalescer`]: enough for a hot loop spanning
/// a few instruction lines plus its working-set data lines.
const COALESCE_WAYS: usize = 4;

/// Coalesces cache hits on a small set of hot lines.
///
/// A line enters the table when it is *proven resident* (a real model
/// access just touched it, or a read-only probe found it). From then on,
/// accesses to tracked lines only bump counters here — no cache-model
/// work at all. That is sound because while a line is tracked only hits
/// happen (any potential miss, flush or hand-out of the caches untracks
/// every line first), and hits never evict, so tracked lines stay
/// resident. [`Machine::settle`] applies the batch without untracking.
///
/// Bit-exact replay: the model's final state after `n` interleaved hits
/// is `tick += n`, `hits += n`, and each line's LRU stamp equal to the
/// tick of its *last* hit. Recording a per-line `last_seq` (position in
/// the batch) reproduces exactly that via [`Cache::bulk_batch`].
#[derive(Debug, Clone)]
struct FetchCoalescer {
    /// Tracked line addresses; `u64::MAX` = empty slot.
    lines: [u64; COALESCE_WAYS],
    /// Batched hit count per tracked line.
    counts: [u64; COALESCE_WAYS],
    /// Batch sequence number of each line's most recent hit.
    last_seq: [u64; COALESCE_WAYS],
    /// Slot of the most recent hit — checked first, so a run of
    /// accesses to one line costs a single compare.
    mru: usize,
    /// Total batched hits (== the running sequence number).
    pending: u64,
    /// `!(line_size - 1)`, precomputed at construction.
    line_mask: u64,
}

impl FetchCoalescer {
    fn new(line_size: u64) -> FetchCoalescer {
        FetchCoalescer {
            lines: [u64::MAX; COALESCE_WAYS],
            counts: [0; COALESCE_WAYS],
            last_seq: [0; COALESCE_WAYS],
            mru: 0,
            pending: 0,
            line_mask: !(line_size - 1),
        }
    }

    /// Records a hit on `line` if it is tracked. The hot path: one
    /// compare against the MRU slot (same-line runs), falling back to a
    /// scan of the other [`COALESCE_WAYS`] slots.
    #[inline(always)]
    fn note(&mut self, line: u64) -> bool {
        let m = self.mru;
        if self.lines[m] == line {
            self.pending += 1;
            let seq = self.pending;
            self.counts[m] += 1;
            self.last_seq[m] = seq;
            return true;
        }
        self.note_scan(line)
    }

    /// The non-MRU half of [`FetchCoalescer::note`].
    fn note_scan(&mut self, line: u64) -> bool {
        for i in 0..COALESCE_WAYS {
            if self.lines[i] == line {
                self.pending += 1;
                let seq = self.pending;
                self.counts[i] += 1;
                self.last_seq[i] = seq;
                self.mru = i;
                return true;
            }
        }
        false
    }

    /// Starts tracking `line`, counting this access as a batched hit.
    /// The caller must have proven the line resident and must only call
    /// this with a free slot available (`free_slot`).
    #[inline]
    fn insert_hit(&mut self, slot: usize, line: u64) {
        self.pending += 1;
        let seq = self.pending;
        self.lines[slot] = line;
        self.counts[slot] = 1;
        self.last_seq[slot] = seq;
        self.mru = slot;
    }

    /// Starts tracking `line` with no batched hits — used right after a
    /// real model access already counted the current access.
    #[inline]
    fn insert_seeded(&mut self, slot: usize, line: u64) {
        self.lines[slot] = line;
        self.counts[slot] = 0;
        self.last_seq[slot] = 0;
        self.mru = slot;
    }

    /// An empty slot, if any.
    #[inline]
    fn free_slot(&self) -> Option<usize> {
        (0..COALESCE_WAYS).find(|&i| self.lines[i] == u64::MAX)
    }

    /// Takes the batch: returns `(entries, n, total)` where the first
    /// `n` of `entries` hold `(line, last_seq)` for every line with
    /// batched hits. The lines stay tracked, with an empty batch.
    fn take(&mut self) -> ([(u64, u64); COALESCE_WAYS], usize, u64) {
        let total = std::mem::take(&mut self.pending);
        let mut entries = [(0u64, 0u64); COALESCE_WAYS];
        let mut n = 0;
        for i in 0..COALESCE_WAYS {
            if self.lines[i] != u64::MAX && self.counts[i] > 0 {
                entries[n] = (self.lines[i], self.last_seq[i]);
                n += 1;
            }
        }
        self.counts = [0; COALESCE_WAYS];
        self.last_seq = [0; COALESCE_WAYS];
        (entries, n, total)
    }

    /// Stops tracking every line (the batch must have been taken).
    fn untrack(&mut self) {
        self.lines = [u64::MAX; COALESCE_WAYS];
        self.mru = 0;
    }
}

impl Machine {
    /// Creates a machine with the standard memory layout: guard page at 0,
    /// info page, argument area, image space, heap, and a stack below the
    /// top of memory.
    pub fn new(cfg: MachineConfig) -> Machine {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut mem = Memory::new(cfg.mem_size);
        mem.set_fast_path(cfg.fast_path);
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
        let mut caches = CacheHierarchy::new(cfg.caches);
        caches.set_fast_path(cfg.fast_path);
        Machine {
            caches,
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
            dcache: DecodeCache::new(),
            cycles_flushed: 0,
            instrs_flushed: 0,
            icoal: FetchCoalescer::new(cfg.caches.l1i.line_size),
            dcoal: FetchCoalescer::new(cfg.caches.l1d.line_size),
            l1d_hit_latency: cfg.caches.l1d.hit_latency,
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
    /// This is the only way to read the bank, and it settles the fast
    /// path's batched counters first: coalesced cache hits, the
    /// cycle/instruction mirrors and the eviction mirror. A sampler
    /// reading between steps (the HPC profiler) therefore sees exact
    /// totals, identical to the reference path's per-step mirroring, and
    /// reading changes nothing the machine later does.
    pub fn pmu(&mut self) -> &Pmu {
        self.settle();
        &self.pmu
    }

    /// The cache hierarchy (inspection).
    ///
    /// Residency is always exact. Hit and LRU bookkeeping is as of the
    /// last settle: the fast path batches hits on a few hot lines until
    /// [`Machine::pmu`], [`Machine::caches_mut`], a miss on that side, a
    /// line flush or the machine stopping applies them.
    pub fn caches(&self) -> &CacheHierarchy {
        &self.caches
    }

    /// The cache hierarchy (mutation — e.g. priming experiments).
    pub fn caches_mut(&mut self) -> &mut CacheHierarchy {
        self.untrack_lines();
        &mut self.caches
    }

    /// Guest memory (inspection).
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Guest memory (mutation — exploit/test setup).
    pub fn mem_mut(&mut self) -> &mut Memory {
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
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
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
    pub fn run_until(&mut self, cycle_limit: u64) -> Option<ExitReason> {
        if self.cfg.fast_path {
            self.run_until_on::<true>(cycle_limit)
        } else {
            self.run_until_on::<false>(cycle_limit)
        }
    }

    /// The one step loop, instantiated once per path so the hot loop
    /// never tests `cfg.fast_path`.
    fn run_until_on<const FAST: bool>(&mut self, cycle_limit: u64) -> Option<ExitReason> {
        if self.stopped.is_none() {
            let max_instructions = self.cfg.max_instructions;
            while self.cycle < cycle_limit {
                if self.step_once::<FAST>(max_instructions).is_err() {
                    break;
                }
            }
        }
        self.stopped.clone()
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
        self.caches.emit_telemetry();
    }

    /// Runs up to `limit` architectural instructions, recording each
    /// `(pc, instruction)` executed — the debugger's trace view. Stops at
    /// the limit or when the machine stops, returning the trace.
    pub fn run_traced(&mut self, limit: usize) -> Vec<(u64, Instr)> {
        if self.cfg.fast_path {
            self.run_traced_on::<true>(limit)
        } else {
            self.run_traced_on::<false>(limit)
        }
    }

    fn run_traced_on<const FAST: bool>(&mut self, limit: usize) -> Vec<(u64, Instr)> {
        let mut trace = Vec::with_capacity(limit.min(4096));
        for _ in 0..limit {
            let pc = self.pc;
            // Peek: decode without microarchitectural effects — the step
            // below performs the real fetch.
            let decoded = self.fetch_decode::<FAST>(pc, FetchMode::Peek).ok();
            let running = self.step_checked::<FAST>().is_ok();
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
    /// cost. The slow path mirrors every counter every step, as the
    /// reference implementation did.
    pub fn step(&mut self) -> StepStatus {
        // A step fails exactly when it leaves the machine stopped.
        let _ = if self.cfg.fast_path {
            self.step_checked::<true>()
        } else {
            self.step_checked::<false>()
        };
        match &self.stopped {
            Some(exit) => StepStatus::Done(exit.clone()),
            None => StepStatus::Running,
        }
    }

    /// One step of a machine that may already have stopped (the public
    /// single-step entries; the window loop checks once, up front).
    #[inline(never)]
    fn step_checked<const FAST: bool>(&mut self) -> Result<(), Stopped> {
        if self.stopped.is_some() {
            return Err(Stopped);
        }
        self.step_once::<FAST>(self.cfg.max_instructions)
    }

    /// One step of a running machine: the instruction budget check, then
    /// fetch, decode and execute.
    #[inline(always)]
    fn step_once<const FAST: bool>(&mut self, max_instructions: u64) -> Result<(), Stopped> {
        if self.retired >= max_instructions {
            return Err(self.stop_fault(Fault::MaxInstructions));
        }
        let result = self.step_inner::<FAST>();
        if !FAST {
            self.sync_eviction_counter();
        }
        result
    }

    #[inline(always)]
    fn step_inner<const FAST: bool>(&mut self) -> Result<(), Stopped> {
        let pc = self.pc;
        let instr = match self.fetch_decode::<FAST>(pc, FetchMode::Step) {
            Ok(instr) => instr,
            Err(fail) => return Err(self.fetch_fault(pc, fail)),
        };
        self.retired += 1;
        if !FAST {
            self.pmu.incr(HpcEvent::Instructions);
            self.instrs_flushed = self.retired;
        }
        self.exec::<FAST>(pc, instr)
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

    /// The single fetch+decode choke point shared by `step`, `speculate`
    /// and `run_traced`.
    ///
    /// Side-effect order matches the historical open-coded sites exactly:
    /// a permission fault reports before any icache activity; a decode
    /// error reports after it. A predecode-cache hit short-circuits both
    /// the permission walk and the decode, which is sound because every
    /// code mutation (`poke`, store to an executable page, `set_perms`)
    /// moves [`Memory::code_epoch`] and drops the cache. The hit stays
    /// inline in the step loop; everything else is
    /// [`Machine::fetch_decode_miss`].
    #[inline(always)]
    fn fetch_decode<const FAST: bool>(
        &mut self,
        pc: u64,
        mode: FetchMode,
    ) -> Result<Instr, FetchFail> {
        if FAST {
            let slot = DecodeCache::slot(pc);
            if self.dcache.tags[slot] == pc && self.dcache.epoch == self.mem.code_epoch() {
                let instr = self.dcache.instrs[slot];
                if mode != FetchMode::Peek && !self.icoal.note(pc & self.icoal.line_mask) {
                    self.count_untracked_fetch(pc, mode);
                }
                return Ok(instr);
            }
        }
        self.fetch_decode_miss::<FAST>(pc, mode)
    }

    /// Decode-cache miss (or the reference path): drop a stale cache,
    /// fetch through the permission check, count the icache access,
    /// decode, and refill the slot.
    #[cold]
    #[inline(never)]
    fn fetch_decode_miss<const FAST: bool>(
        &mut self,
        pc: u64,
        mode: FetchMode,
    ) -> Result<Instr, FetchFail> {
        if FAST && self.dcache.epoch != self.mem.code_epoch() {
            self.dcache.clear(self.mem.code_epoch());
        }
        let mut bytes = [0u8; INSTR_BYTES];
        self.mem.fetch(pc, &mut bytes).map_err(FetchFail::Mem)?;
        if mode != FetchMode::Peek {
            self.count_instr_fetch::<FAST>(pc, mode);
        }
        let instr = Instr::decode(&bytes).map_err(|_| FetchFail::Decode)?;
        if FAST {
            let slot = DecodeCache::slot(pc);
            self.dcache.tags[slot] = pc;
            self.dcache.instrs[slot] = instr;
        }
        Ok(instr)
    }

    /// Instruction-cache access for a fetch at `pc`.
    ///
    /// Fast path: fetches on a line the coalescer tracks are L1i hits by
    /// construction (tracked lines stay resident — only hits happen
    /// between batch applications, and hits never evict), so they bypass
    /// the cache model entirely and coalesce into deferred bulk-hits.
    /// Other fetches go to [`Machine::count_untracked_fetch`].
    ///
    /// Slow path: the seed implementation — a full cache-model access
    /// and immediate PMU increments per fetch.
    #[inline(always)]
    fn count_instr_fetch<const FAST: bool>(&mut self, pc: u64, mode: FetchMode) {
        if FAST {
            // One counter bump covers the model hit and both PMU
            // events; the split happens when the batch is applied.
            if !self.icoal.note(pc & self.icoal.line_mask) {
                self.count_untracked_fetch(pc, mode);
            }
        } else {
            let fetch = self.caches.access_instr(pc);
            self.pmu.incr(HpcEvent::L1iAccess);
            if fetch.l1_hit {
                self.pmu.incr(HpcEvent::L1iHit);
            } else {
                self.pmu.incr(HpcEvent::L1iMiss);
                if mode == FetchMode::Step {
                    self.tick::<false>(fetch.latency);
                }
            }
        }
    }

    /// Fast-path fetch on a line the coalescer does not track. A resident
    /// line joins the table via a read-only probe; a genuine miss applies
    /// the batch, untracks its lines, runs the real access and counts it
    /// in the PMU directly, and (for architectural fetches) pays the miss
    /// latency immediately since it orders the rest of the step.
    fn count_untracked_fetch(&mut self, pc: u64, mode: FetchMode) {
        let line = pc & self.icoal.line_mask;
        let mut slot = self.icoal.free_slot();
        if slot.is_none() {
            self.apply_pending_ifetches();
            self.icoal.untrack();
            slot = Some(0);
        }
        if self.caches.l1i_probe(line) {
            self.icoal.insert_hit(slot.expect("slot freed above"), line);
            return;
        }
        self.apply_pending_ifetches();
        self.icoal.untrack();
        let fetch = self.caches.access_instr(pc);
        self.icoal.insert_seeded(0, line);
        self.pmu.incr(HpcEvent::L1iAccess);
        if fetch.l1_hit {
            self.pmu.incr(HpcEvent::L1iHit);
        } else {
            self.pmu.incr(HpcEvent::L1iMiss);
            if mode == FetchMode::Step {
                self.tick::<true>(fetch.latency);
            }
        }
    }

    /// Applies the coalesced fetch hits to the L1i model and the PMU. The
    /// lines stay tracked: hits never change residency. Anything that
    /// may change residency (a miss, a line flush, handing out
    /// `&mut CacheHierarchy`, the machine stopping) also untracks them.
    fn apply_pending_ifetches(&mut self) {
        let (entries, n, total) = self.icoal.take();
        if total > 0 {
            self.caches.l1i_bulk_batch(&entries[..n], total);
            self.pmu.add(HpcEvent::L1iAccess, total);
            self.pmu.add(HpcEvent::L1iHit, total);
        }
    }

    /// Applies the coalesced data hits to the L1d model and the PMU — the
    /// data-side counterpart of [`Machine::apply_pending_ifetches`].
    fn apply_pending_dfetches(&mut self) {
        let (entries, n, total) = self.dcoal.take();
        if total > 0 {
            self.caches.l1d_bulk_batch(&entries[..n], total);
            self.pmu.add(HpcEvent::L1dAccess, total);
            self.pmu.add(HpcEvent::L1dHit, total);
            self.pmu.add(HpcEvent::TotalCacheAccess, total);
        }
    }

    /// Applies both batches and untracks every coalesced line, before
    /// anything that may change residency.
    fn untrack_lines(&mut self) {
        self.apply_pending_ifetches();
        self.apply_pending_dfetches();
        self.icoal.untrack();
        self.dcoal.untrack();
    }

    /// The one settle point for the fast path's batched counters, run by
    /// [`Machine::pmu`]: applies both coalescers' pending hits (keeping
    /// their lines tracked), then mirrors the cycle, instruction and
    /// eviction deltas.
    fn settle(&mut self) {
        self.apply_pending_ifetches();
        self.apply_pending_dfetches();
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
        self.untrack_lines();
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

    /// Advances time. On the fast path the [`HpcEvent::Cycles`] mirror is
    /// updated by [`Machine::settle`] when the PMU is next read; the slow
    /// path mirrors immediately, like the reference implementation always
    /// did.
    #[inline(always)]
    fn tick<const FAST: bool>(&mut self, n: u64) {
        self.cycle += n;
        if !FAST {
            self.pmu.add(HpcEvent::Cycles, n);
            self.cycles_flushed = self.cycle;
        }
    }

    /// Stalls until every register in `rs` holds a ready value.
    #[inline(always)]
    fn wait_ready<const FAST: bool>(&mut self, rs: &[Reg]) {
        let ready = rs.iter().map(|r| self.reg_ready[r.index()]).max().unwrap_or(0);
        if ready > self.cycle {
            let stall = ready - self.cycle;
            self.pmu.add(HpcEvent::StallCyclesMem, stall);
            self.tick::<FAST>(stall);
        }
    }

    /// Cycle at which a branch over `rs` can resolve.
    fn resolve_cycle(&self, rs: &[Reg]) -> u64 {
        let ready = rs.iter().map(|r| self.reg_ready[r.index()]).max().unwrap_or(0);
        ready.max(self.cycle) + BRANCH_RESOLVE_EXTRA
    }

    fn count_data_access(&mut self, result: crate::cache::AccessResult, write: bool) {
        let pmu = &mut self.pmu;
        pmu.incr(HpcEvent::L1dAccess);
        pmu.incr(HpcEvent::TotalCacheAccess);
        if result.l1_hit {
            pmu.incr(HpcEvent::L1dHit);
        } else {
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
    }

    /// Data-cache access for a load or store at `addr` (the data-side
    /// counterpart of [`Machine::count_instr_fetch`]).
    ///
    /// Fast path: accesses to a line the coalescer tracks are L1d hits
    /// by construction (tracked lines stay resident until the batch is
    /// applied), so they coalesce into deferred bulk-hits with the
    /// model's constant L1d hit latency. An untracked-but-resident line
    /// joins the table via a read-only probe; a genuine miss applies the
    /// batch and runs the real access.
    ///
    /// Slow path: the seed implementation — a full cache-model access and
    /// immediate PMU increments per access.
    #[inline(always)]
    fn data_access<const FAST: bool>(
        &mut self,
        addr: u64,
        write: bool,
    ) -> crate::cache::AccessResult {
        if FAST {
            let hit = crate::cache::AccessResult {
                latency: self.l1d_hit_latency,
                l1_hit: true,
                l2_hit: false,
            };
            let line = addr & self.dcoal.line_mask;
            if self.dcoal.note(line) {
                return hit;
            }
            let mut slot = self.dcoal.free_slot();
            if slot.is_none() {
                self.apply_pending_dfetches();
                self.dcoal.untrack();
                slot = Some(0);
            }
            if self.caches.l1d_probe(line) {
                self.dcoal.insert_hit(slot.expect("slot freed above"), line);
                return hit;
            }
            self.apply_pending_dfetches();
            self.dcoal.untrack();
            let result = self.caches.access_data(addr);
            self.dcoal.insert_seeded(0, line);
            self.count_data_access(result, write);
            result
        } else {
            let result = self.caches.access_data(addr);
            self.count_data_access(result, write);
            result
        }
    }

    #[inline(always)]
    fn load_value<const FAST: bool>(
        &mut self,
        addr: u64,
        width: Width,
    ) -> Result<(u64, u64), Fault> {
        let value = match width {
            Width::B => self.mem.read_u8(addr)? as u64,
            Width::W => self.mem.read_u32(addr)? as u64,
            Width::D => self.mem.read_u64(addr)?,
        };
        let result = self.data_access::<FAST>(addr, false);
        Ok((value, result.latency))
    }

    #[inline(always)]
    fn store_value<const FAST: bool>(
        &mut self,
        addr: u64,
        width: Width,
        value: u64,
    ) -> Result<(), Fault> {
        match width {
            Width::B => self.mem.write_u8(addr, value as u8)?,
            Width::W => self.mem.write_u32(addr, value as u32)?,
            Width::D => self.mem.write_u64(addr, value)?,
        }
        self.data_access::<FAST>(addr, true);
        Ok(())
    }

    /// Executes one decoded instruction at `pc` (inlined into the step
    /// loop). `Err` means the instruction stopped the machine.
    #[inline(always)]
    fn exec<const FAST: bool>(&mut self, pc: u64, instr: Instr) -> Result<(), Stopped> {
        let mut next_pc = pc.wrapping_add(INSTR_BYTES as u64);
        match instr {
            Instr::Nop => self.tick::<FAST>(1),
            Instr::Halt => {
                self.tick::<FAST>(1);
                return Err(self.stop(ExitReason::Halted));
            }
            Instr::Ldi(rd, imm) => {
                self.regs[rd.index()] = imm as i64 as u64;
                self.reg_ready[rd.index()] = self.cycle;
                self.pmu.incr(HpcEvent::MovOps);
                self.tick::<FAST>(1);
            }
            Instr::Ldih(rd, imm) => {
                self.wait_ready::<FAST>(&[rd]);
                let low = self.regs[rd.index()] & 0xffff_ffff;
                self.regs[rd.index()] = ((imm as u32 as u64) << 32) | low;
                self.reg_ready[rd.index()] = self.cycle;
                self.pmu.incr(HpcEvent::MovOps);
                self.tick::<FAST>(1);
            }
            Instr::Mov(rd, rs) => {
                self.wait_ready::<FAST>(&[rs]);
                self.regs[rd.index()] = self.regs[rs.index()];
                self.reg_ready[rd.index()] = self.cycle;
                self.pmu.incr(HpcEvent::MovOps);
                self.tick::<FAST>(1);
            }
            Instr::Alu(op, rd, rs1, rs2) => {
                self.wait_ready::<FAST>(&[rs1, rs2]);
                self.regs[rd.index()] = op.apply(self.regs[rs1.index()], self.regs[rs2.index()]);
                self.count_alu(op);
                self.tick::<FAST>(alu_latency(op));
                self.reg_ready[rd.index()] = self.cycle;
            }
            Instr::Alui(op, rd, rs1, imm) => {
                self.wait_ready::<FAST>(&[rs1]);
                self.regs[rd.index()] = op.apply(self.regs[rs1.index()], imm as i64 as u64);
                self.pmu.incr(HpcEvent::AluImmOps);
                self.count_alu(op);
                self.tick::<FAST>(alu_latency(op));
                self.reg_ready[rd.index()] = self.cycle;
            }
            Instr::Ld(w, rd, rs1, imm) => {
                self.wait_ready::<FAST>(&[rs1]);
                let addr = self.regs[rs1.index()].wrapping_add(imm as i64 as u64);
                let (value, latency) = match self.load_value::<FAST>(addr, w) {
                    Ok(v) => v,
                    Err(fault) => return Err(self.page_fault(fault)),
                };
                self.pmu.incr(HpcEvent::Loads);
                match w {
                    Width::B => self.pmu.incr(HpcEvent::LoadBytes),
                    Width::D => self.pmu.incr(HpcEvent::LoadDwords),
                    Width::W => {}
                }
                self.regs[rd.index()] = value;
                self.tick::<FAST>(1);
                // InvisiSpec: every committed load re-validates against
                // the speculative buffer before exposure.
                let penalty = if self.cfg.protect.invisispec {
                    self.cfg.invisispec_load_penalty
                } else {
                    0
                };
                // Non-blocking load: value arrives after the cache latency.
                self.reg_ready[rd.index()] = self.cycle + latency + penalty;
            }
            Instr::St(w, rs1, rs2, imm) => {
                self.wait_ready::<FAST>(&[rs1, rs2]);
                let addr = self.regs[rs1.index()].wrapping_add(imm as i64 as u64);
                if let Err(fault) = self.store_value::<FAST>(addr, w, self.regs[rs2.index()]) {
                    return Err(self.page_fault(fault));
                }
                self.pmu.incr(HpcEvent::Stores);
                self.tick::<FAST>(1);
            }
            Instr::Br(cond, rs1, rs2, imm) => {
                let taken = cond.holds(self.regs[rs1.index()], self.regs[rs2.index()]);
                let predicted = self.pred.pht.predict(pc);
                let resolve_at = self.resolve_cycle(&[rs1, rs2]);
                self.pred.pht.update(pc, taken);
                self.pmu.incr(HpcEvent::BranchInstrs);
                self.pmu.incr(HpcEvent::CondBranches);
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
                    let stall = resolve_at.saturating_sub(self.cycle);
                    self.pmu.add(HpcEvent::StallCyclesBranch, stall);
                    self.tick::<FAST>(stall);
                    self.pmu.incr(HpcEvent::Fences);
                    self.tick::<FAST>(self.cfg.csf_fence_penalty);
                    if predicted != taken {
                        self.pmu.incr(HpcEvent::BranchMispredicts);
                    }
                } else if predicted == taken {
                    self.tick::<FAST>(1);
                } else {
                    self.pmu.incr(HpcEvent::BranchMispredicts);
                    let wrong = if predicted { target } else { next_pc };
                    let budget = resolve_at.saturating_sub(self.cycle);
                    self.speculate::<FAST>(wrong, budget);
                    let stall = resolve_at.saturating_sub(self.cycle) + self.cfg.mispredict_penalty;
                    self.pmu.add(HpcEvent::StallCyclesBranch, stall);
                    self.tick::<FAST>(stall);
                }
                if taken {
                    next_pc = target;
                }
            }
            Instr::Jmp(imm) => {
                self.pmu.incr(HpcEvent::BranchInstrs);
                self.pmu.incr(HpcEvent::Jumps);
                self.tick::<FAST>(1);
                next_pc = pc.wrapping_add(imm as i64 as u64);
            }
            Instr::JmpR(rs) => {
                self.pmu.incr(HpcEvent::BranchInstrs);
                self.pmu.incr(HpcEvent::IndirectBranches);
                let predicted = self.pred.btb.predict(pc);
                let resolve_at = self.resolve_cycle(&[rs]);
                self.wait_ready::<FAST>(&[rs]);
                let target = self.regs[rs.index()];
                self.pred.btb.update(pc, target);
                if predicted == Some(target) {
                    self.tick::<FAST>(1);
                } else {
                    self.pmu.incr(HpcEvent::BtbMispredicts);
                    self.pmu.incr(HpcEvent::BranchMispredicts);
                    if let Some(wrong) = predicted {
                        if !self.cfg.protect.csf {
                            let budget = resolve_at.saturating_sub(self.cycle);
                            self.speculate::<FAST>(wrong, budget);
                        }
                    }
                    let stall = self.cfg.mispredict_penalty;
                    self.pmu.add(HpcEvent::StallCyclesBranch, stall);
                    self.tick::<FAST>(stall);
                }
                next_pc = target;
            }
            Instr::Call(imm) => {
                let ret = next_pc;
                self.push_u64::<FAST>(ret)?;
                self.pred.rsb.push(ret);
                if self.cfg.protect.shadow_stack {
                    self.shadow_stack.push(ret);
                }
                self.pmu.incr(HpcEvent::BranchInstrs);
                self.pmu.incr(HpcEvent::Calls);
                self.tick::<FAST>(1);
                next_pc = pc.wrapping_add(imm as i64 as u64);
            }
            Instr::CallR(rs) => {
                self.wait_ready::<FAST>(&[rs]);
                let target = self.regs[rs.index()];
                let ret = next_pc;
                self.push_u64::<FAST>(ret)?;
                self.pred.rsb.push(ret);
                if self.cfg.protect.shadow_stack {
                    self.shadow_stack.push(ret);
                }
                self.pmu.incr(HpcEvent::BranchInstrs);
                self.pmu.incr(HpcEvent::Calls);
                self.pmu.incr(HpcEvent::IndirectBranches);
                let predicted = self.pred.btb.predict(pc);
                self.pred.btb.update(pc, target);
                if predicted != Some(target) {
                    self.pmu.incr(HpcEvent::BtbMispredicts);
                }
                self.tick::<FAST>(1);
                next_pc = target;
            }
            Instr::Ret => {
                self.wait_ready::<FAST>(&[Reg::SP]);
                let sp = self.regs[Reg::SP.index()];
                let (target, latency) = match self.load_value::<FAST>(sp, Width::D) {
                    Ok(v) => v,
                    Err(fault) => return Err(self.page_fault(fault)),
                };
                self.regs[Reg::SP.index()] = sp.wrapping_add(8);
                self.pmu.incr(HpcEvent::BranchInstrs);
                self.pmu.incr(HpcEvent::Returns);
                let predicted = self.pred.rsb.pop();
                let resolve_at = self.cycle + latency + BRANCH_RESOLVE_EXTRA;
                if predicted == Some(target) {
                    self.tick::<FAST>(1);
                } else {
                    // RSB mispredict: transiently execute at the stale
                    // predicted return address (the Spectre-RSB surface; a
                    // ROP chain triggers this on every gadget).
                    self.pmu.incr(HpcEvent::RsbMispredicts);
                    self.pmu.incr(HpcEvent::BranchMispredicts);
                    if let Some(wrong) = predicted {
                        if !self.cfg.protect.csf {
                            let budget = resolve_at.saturating_sub(self.cycle);
                            self.speculate::<FAST>(wrong, budget);
                        }
                    }
                    let stall = resolve_at.saturating_sub(self.cycle) + self.cfg.mispredict_penalty;
                    self.pmu.add(HpcEvent::StallCyclesBranch, stall);
                    self.tick::<FAST>(stall);
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
                self.wait_ready::<FAST>(&[rs, Reg::SP]);
                let value = self.regs[rs.index()];
                self.push_u64::<FAST>(value)?;
                self.pmu.incr(HpcEvent::Pushes);
                self.tick::<FAST>(1);
            }
            Instr::Pop(rd) => {
                self.wait_ready::<FAST>(&[Reg::SP]);
                let sp = self.regs[Reg::SP.index()];
                let (value, latency) = match self.load_value::<FAST>(sp, Width::D) {
                    Ok(v) => v,
                    Err(fault) => return Err(self.page_fault(fault)),
                };
                self.regs[rd.index()] = value;
                self.regs[Reg::SP.index()] = sp.wrapping_add(8);
                self.pmu.incr(HpcEvent::Pops);
                self.tick::<FAST>(1);
                self.reg_ready[rd.index()] = self.cycle + latency;
            }
            Instr::ClFlush(rs1, imm) => {
                if !self.cfg.protect.clflush_enabled {
                    return Err(self.stop_fault(Fault::ClflushDisabled));
                }
                self.wait_ready::<FAST>(&[rs1]);
                let addr = self.regs[rs1.index()].wrapping_add(imm as i64 as u64);
                self.untrack_lines();
                self.caches.flush_line(addr);
                self.pmu.incr(HpcEvent::Flushes);
                self.tick::<FAST>(4);
            }
            Instr::MFence => {
                // Serialize: wait for every in-flight value.
                let ready = self.reg_ready.iter().copied().max().unwrap_or(0);
                if ready > self.cycle {
                    let stall = ready - self.cycle;
                    self.pmu.add(HpcEvent::StallCyclesMem, stall);
                    self.tick::<FAST>(stall);
                }
                self.pmu.incr(HpcEvent::Fences);
                self.tick::<FAST>(3);
            }
            Instr::Rdtsc(rd) => {
                self.regs[rd.index()] = self.cycle;
                self.reg_ready[rd.index()] = self.cycle;
                self.pmu.incr(HpcEvent::Rdtscs);
                self.tick::<FAST>(1);
            }
            Instr::Syscall => {
                // Serializing instruction.
                let ready = self.reg_ready.iter().copied().max().unwrap_or(0);
                if ready > self.cycle {
                    let stall = ready - self.cycle;
                    self.tick::<FAST>(stall);
                }
                self.pmu.incr(HpcEvent::Syscalls);
                self.tick::<FAST>(SYSCALL_COST);
                if let Some(new_pc) = self.do_syscall(next_pc)? {
                    next_pc = new_pc;
                }
            }
        }
        self.pc = next_pc;
        Ok(())
    }

    fn count_alu(&mut self, op: AluOp) {
        self.pmu.incr(HpcEvent::AluOps);
        match op {
            AluOp::Mul => self.pmu.incr(HpcEvent::MulOps),
            AluOp::Divu | AluOp::Remu => self.pmu.incr(HpcEvent::DivOps),
            AluOp::Shl | AluOp::Shr | AluOp::Sar => self.pmu.incr(HpcEvent::ShiftOps),
            _ => {}
        }
    }

    #[inline(always)]
    fn push_u64<const FAST: bool>(&mut self, value: u64) -> Result<(), Stopped> {
        let sp = self.regs[Reg::SP.index()].wrapping_sub(8);
        if let Err(fault) = self.store_value::<FAST>(sp, Width::D, value) {
            return Err(self.page_fault(fault));
        }
        self.regs[Reg::SP.index()] = sp;
        Ok(())
    }

    /// Runs the system call in `r0`; `Ok(Some(pc))` redirects the
    /// return, `Err` means the call stopped the machine. It never reads
    /// the path flag, so it has one instantiation for both paths.
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

    /// Runs transient execution at `start` for up to `budget` cycles and
    /// then squashes, exactly as an internal mispredict would — exposed
    /// for building custom transient-execution experiments and for
    /// property-testing the squash invariant.
    pub fn speculate_at(&mut self, start: u64, budget: u64) {
        if self.cfg.fast_path {
            self.speculate::<true>(start, budget);
        } else {
            self.speculate::<false>(start, budget);
        }
    }

    /// Executes the wrong path transiently for up to `budget` cycles (and
    /// at most `spec_window` instructions), then squashes. Architectural
    /// effects are discarded; cache and PMU cache-event effects persist.
    #[inline(never)]
    fn speculate<const FAST: bool>(&mut self, start: u64, budget: u64) {
        let mut regs = self.regs;
        // Spec-relative readiness (cycle 0 = entry into speculation).
        let mut ready = [0u64; 16];
        let mut store_buf: HashMap<u64, u8> = HashMap::new();
        let mut pc = start;
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
            let instr = match self.fetch_decode::<FAST>(pc, FetchMode::Spec) {
                Ok(instr) => instr,
                Err(FetchFail::Mem(_)) => {
                    suppressed += 1;
                    break;
                }
                Err(FetchFail::Decode) => break,
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
                    match self.spec_load::<FAST>(addr, w, &store_buf) {
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
                        self.data_access::<FAST>(addr, true);
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
                    match self.spec_load::<FAST>(sp, Width::D, &store_buf) {
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
                    match self.spec_load::<FAST>(sp, Width::D, &store_buf) {
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
                    self.untrack_lines();
                    self.caches.flush_line(addr);
                }
            }
            scycle += 1;
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
    fn spec_load<const FAST: bool>(
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
        let result = self.data_access::<FAST>(addr, false);
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
