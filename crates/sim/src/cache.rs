//! Set-associative cache hierarchy with flush support.
//!
//! The hierarchy models **timing and occupancy only** — data always lives in
//! [`crate::mem::Memory`]; the caches track which line tags are resident so
//! that loads can be charged a hit or miss latency. That is exactly the
//! surface the Spectre covert channel needs: a *measurable latency gap*
//! between cached and uncached lines, and a `CLFLUSH` primitive to reset a
//! probe line. Squashed speculative loads still call [`CacheHierarchy::access_data`],
//! which is the microarchitectural state leak the attack exploits.
//!
//! On the fast path each [`Cache`] batches its own hits on a few tracked
//! lines and applies them before the next fill, bit-exactly; every `&self`
//! observer includes the batched hits, so callers follow no protocol.

use std::marker::PhantomData;

use crate::config::{ExecPath, Fast};

/// Geometry and latency parameters for one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets; must be a power of two.
    pub sets: usize,
    /// Associativity (lines per set).
    pub ways: usize,
    /// Line size in bytes; must be a power of two.
    pub line_size: u64,
    /// Latency in cycles charged when this level hits.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// A 32 KiB, 8-way, 64-byte-line L1 data cache (4-cycle hit).
    pub fn l1d() -> CacheConfig {
        CacheConfig { sets: 64, ways: 8, line_size: 64, hit_latency: 4 }
    }

    /// A 32 KiB, 8-way L1 instruction cache (4-cycle hit).
    pub fn l1i() -> CacheConfig {
        CacheConfig { sets: 64, ways: 8, line_size: 64, hit_latency: 4 }
    }

    /// A 256 KiB, 8-way unified L2 (12-cycle hit).
    pub fn l2() -> CacheConfig {
        CacheConfig { sets: 512, ways: 8, line_size: 64, hit_latency: 12 }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_size
    }
}

/// Outcome of a single-level lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The line was resident.
    Hit,
    /// The line was not resident and has been filled.
    Miss,
}

/// Entries of a fast-path [`Cache`]'s hit batch, direct-mapped, so a
/// loop over this many consecutive lines stays batched.
const BATCH_WAYS: usize = 4;

/// The hit batch is indexed by the address bits above a 64-byte line,
/// the line size of every preset. Any mapping is exact; a fixed shift
/// keeps the hit path free of a shift by a register (the cache's own
/// `line_shift`), which ran tight guest loops up to 17% slower (Intel
/// Xeon, 2 vCPUs).
const BATCH_INDEX_SHIFT: u32 = 6;

/// The line address a free entry `i` of the hit batch holds: one that
/// maps to another entry, so no lookup can match it.
fn free_entry(i: usize) -> u64 {
    (((i + 1) % BATCH_WAYS) as u64) << BATCH_INDEX_SHIFT
}

/// Hits on a few tracked resident lines, not yet applied to the cache's
/// `tick` and hit count.
///
/// A tracked line is resident in its tag slot: only a fill or a flush
/// can take it out, and both untrack it first. A batched hit costs one
/// compare and two stores. It is bit-exact because the cache's `tick`
/// stays at the batch's base until the next miss applies the batch: the
/// `n`-th hit of a batch is the one at tick `base + n`, so a line whose
/// last hit was the batch's `last_seq`-th gets the LRU stamp
/// `base + last_seq`, whether it is written when the line leaves the
/// batch or when the batch is applied.
#[derive(Debug, Clone)]
struct HitBatch {
    /// Tracked line addresses; [`free_entry`] marks a free one.
    lines: [u64; BATCH_WAYS],
    /// Tag slot of each tracked line.
    slots: [usize; BATCH_WAYS],
    /// Position in the batch (1-based) of each line's last hit; 0 = none.
    last_seq: [u64; BATCH_WAYS],
    /// Hits in the batch (the running sequence number).
    pending: u64,
}

/// One set-associative cache level with true-LRU replacement.
///
/// Stores tags only; see the module docs for why no data is kept. On the
/// fast path ([`ExecPath::FAST`]) lookups use precomputed shift/mask
/// indexing, and hits on a few hot lines are batched (module docs); the
/// reference path runs divide/modulo index math and a full set scan per
/// access. Every result and counter is identical either way, at any time.
#[derive(Debug, Clone)]
pub struct Cache<P: ExecPath = Fast> {
    config: CacheConfig,
    /// `!(line_size - 1)`: masks an address down to its line address.
    line_mask: u64,
    /// `log2(line_size)`: shifts a line address down to a line number.
    line_shift: u32,
    /// `sets - 1`: masks a line number down to a set index.
    set_mask: usize,
    /// `sets × ways` tag entries; `None` = invalid.
    tags: Vec<Option<u64>>,
    /// LRU stamps parallel to `tags` (higher = more recently used).
    stamps: Vec<u64>,
    /// Hits not yet applied (always empty on the reference path).
    batch: HitBatch,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    path: PhantomData<P>,
}

impl<P: ExecPath> Cache<P> {
    /// Creates an empty cache with the given geometry, on the path its
    /// type names.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `line_size` is not a power of two, or `ways == 0`.
    pub fn new(config: CacheConfig) -> Cache<P> {
        assert!(config.sets.is_power_of_two(), "sets must be a power of two");
        assert!(config.line_size.is_power_of_two(), "line size must be a power of two");
        assert!(config.ways > 0, "ways must be nonzero");
        Cache {
            config,
            line_mask: !(config.line_size - 1),
            line_shift: config.line_size.trailing_zeros(),
            set_mask: config.sets - 1,
            tags: vec![None; config.sets * config.ways],
            stamps: vec![0; config.sets * config.ways],
            batch: HitBatch {
                lines: std::array::from_fn(free_entry),
                slots: [0; BATCH_WAYS],
                last_seq: [0; BATCH_WAYS],
                pending: 0,
            },
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            path: PhantomData,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    #[inline]
    fn line_addr(&self, addr: u64) -> u64 {
        if P::FAST {
            addr & self.line_mask
        } else {
            // Reference formula: runtime divide (not a const the compiler
            // can strength-reduce — line_size is a struct field).
            addr / self.config.line_size * self.config.line_size
        }
    }

    #[inline]
    fn set_index(&self, line: u64) -> usize {
        if P::FAST {
            ((line >> self.line_shift) as usize) & self.set_mask
        } else {
            ((line / self.config.line_size) as usize) % self.config.sets
        }
    }

    /// The set the line containing `addr` maps to (exposed so tests can pin
    /// the index math for the standard geometries).
    pub fn set_index_of(&self, addr: u64) -> usize {
        self.set_index(self.line_addr(addr))
    }

    /// The hit-batch entry `line` maps to.
    #[inline(always)]
    fn entry(line: u64) -> usize {
        (line >> BATCH_INDEX_SHIFT) as usize % BATCH_WAYS
    }

    /// Looks up `addr`, filling the line on a miss (evicting LRU if needed).
    ///
    /// On the fast path a hit on a tracked line stays inline; every other
    /// access goes out of line.
    #[inline(always)]
    pub fn access(&mut self, addr: u64) -> Lookup {
        let line = self.line_addr(addr);
        let i = Self::entry(line);
        if P::FAST && self.batch.lines[i] == line {
            self.batch.pending += 1;
            self.batch.last_seq[i] = self.batch.pending;
            return Lookup::Hit;
        }
        self.lookup(line)
    }

    /// A hit on the line of `addr`, which must be the line of this cache's
    /// last access, with no fill or flush since: an access leaves its
    /// line tracked in the hit batch, so this is the batched hit
    /// [`Cache::access`] would make, without the lookup. Fast path only.
    #[inline(always)]
    fn rehit(&mut self, addr: u64) {
        let line = self.line_addr(addr);
        let i = Self::entry(line);
        debug_assert!(P::FAST && self.batch.lines[i] == line, "rehit of an untracked line");
        self.batch.pending += 1;
        self.batch.last_seq[i] = self.batch.pending;
    }

    /// The rest of [`Cache::access`]: a hit found in the set, which the
    /// fast path starts to track, or a miss, which applies the batch
    /// before it fills.
    #[inline(never)]
    fn lookup(&mut self, line: u64) -> Lookup {
        let base = self.set_index(line) * self.config.ways;
        if let Some(slot) = (base..base + self.config.ways).find(|&s| self.tags[s] == Some(line)) {
            if P::FAST {
                let i = self.track(line, slot);
                self.batch.pending += 1;
                self.batch.last_seq[i] = self.batch.pending;
            } else {
                self.tick += 1;
                self.stamps[slot] = self.tick;
                self.hits += 1;
            }
            return Lookup::Hit;
        }
        // Miss: fill into an invalid way or evict the LRU way.
        self.apply_batch();
        self.tick += 1;
        self.misses += 1;
        let victim = (base..base + self.config.ways)
            .min_by_key(|&s| match self.tags[s] {
                None => (0, 0),
                Some(_) => (1, self.stamps[s]),
            })
            .expect("ways > 0");
        if let Some(old) = self.tags[victim] {
            self.evictions += 1;
            self.untrack_line(old);
        }
        self.tags[victim] = Some(line);
        self.stamps[victim] = self.tick;
        if P::FAST {
            self.track(line, victim);
        }
        Lookup::Miss
    }

    /// Tracks `line`, resident in tag slot `slot`, in its batch entry,
    /// which it takes from the line there; returns the entry.
    fn track(&mut self, line: u64, slot: usize) -> usize {
        let i = Self::entry(line);
        self.untrack(i);
        self.batch.lines[i] = line;
        self.batch.slots[i] = slot;
        i
    }

    /// Stamps entry `i`'s line with the tick of its last batched hit, if
    /// it has one.
    fn stamp_last_hit(&mut self, i: usize) {
        let last_seq = std::mem::take(&mut self.batch.last_seq[i]);
        if last_seq > 0 {
            self.stamps[self.batch.slots[i]] = self.tick + last_seq;
        }
    }

    /// Takes entry `i` out of the batch, stamping its line's last hit.
    fn untrack(&mut self, i: usize) {
        self.stamp_last_hit(i);
        self.batch.lines[i] = free_entry(i);
    }

    /// Takes `line` out of the batch if it is tracked.
    fn untrack_line(&mut self, line: u64) {
        let i = Self::entry(line);
        if self.batch.lines[i] == line {
            self.untrack(i);
        }
    }

    /// Applies the batch: stamps every tracked line's last hit and moves
    /// `tick` and the hit count past the batched hits. The lines stay
    /// tracked, for a new batch.
    fn apply_batch(&mut self) {
        if self.batch.pending == 0 {
            return;
        }
        for i in 0..BATCH_WAYS {
            self.stamp_last_hit(i);
        }
        let pending = std::mem::take(&mut self.batch.pending);
        self.tick += pending;
        self.hits += pending;
    }

    /// Returns whether the line containing `addr` is resident, without
    /// touching LRU state (an oracle for tests and calibration).
    pub fn probe(&self, addr: u64) -> bool {
        let line = self.line_addr(addr);
        let set = self.set_index(line);
        let base = set * self.config.ways;
        (0..self.config.ways).any(|way| self.tags[base + way] == Some(line))
    }

    /// Invalidates the line containing `addr` if resident.
    pub fn flush(&mut self, addr: u64) {
        let line = self.line_addr(addr);
        self.untrack_line(line);
        let set = self.set_index(line);
        let base = set * self.config.ways;
        for way in 0..self.config.ways {
            if self.tags[base + way] == Some(line) {
                self.tags[base + way] = None;
                self.stamps[base + way] = 0;
            }
        }
    }

    /// Invalidates every line.
    pub fn flush_all(&mut self) {
        // Every stamp becomes 0, so the tracked lines' last hits need no
        // stamping; the batched hits stay pending.
        self.batch.lines = std::array::from_fn(free_entry);
        self.batch.last_seq = [0; BATCH_WAYS];
        self.tags.fill(None);
        self.stamps.fill(0);
    }

    /// Hit count since construction, batched hits included.
    pub fn hits(&self) -> u64 {
        self.hits + self.batch.pending
    }

    /// Miss count since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of valid lines displaced by replacement since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

/// Latency and hit/miss summary of one hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Total cycles the access took.
    pub latency: u64,
    /// Whether the L1 level hit.
    pub l1_hit: bool,
    /// Whether the L2 level hit (only meaningful when `!l1_hit`).
    pub l2_hit: bool,
}

impl AccessResult {
    /// True when the access missed all cache levels and went to memory.
    pub fn is_memory_access(&self) -> bool {
        !self.l1_hit && !self.l2_hit
    }
}

/// Two-level data + instruction cache hierarchy over a flat memory.
///
/// # Examples
///
/// ```
/// use cr_spectre_sim::cache::{CacheHierarchy, HierarchyConfig};
///
/// let mut caches: CacheHierarchy = CacheHierarchy::new(HierarchyConfig::default());
/// let cold = caches.access_data(0x1000);
/// let warm = caches.access_data(0x1000);
/// assert!(cold.latency > warm.latency, "the covert-channel gap");
/// ```
#[derive(Debug, Clone)]
pub struct CacheHierarchy<P: ExecPath = Fast> {
    l1d: Cache<P>,
    l1i: Cache<P>,
    l2: Cache<P>,
    mem_latency: u64,
    next_line_prefetch: bool,
    prefetch_fills: u64,
}

/// Configuration of the full hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// DRAM access latency in cycles.
    pub mem_latency: u64,
    /// Next-line hardware prefetcher: a demand miss also fills the
    /// following line. Off by default; covert-channel strides below two
    /// lines become unreliable when enabled — the historical reason the
    /// classic Spectre PoC probes with a 512-byte stride.
    pub next_line_prefetch: bool,
}

impl Default for HierarchyConfig {
    fn default() -> HierarchyConfig {
        HierarchyConfig {
            l1d: CacheConfig::l1d(),
            l1i: CacheConfig::l1i(),
            l2: CacheConfig::l2(),
            mem_latency: 200,
            next_line_prefetch: false,
        }
    }
}

impl<P: ExecPath> CacheHierarchy<P> {
    /// Creates an empty hierarchy, on the path its type names.
    pub fn new(config: HierarchyConfig) -> CacheHierarchy<P> {
        CacheHierarchy {
            l1d: Cache::new(config.l1d),
            l1i: Cache::new(config.l1i),
            l2: Cache::new(config.l2),
            mem_latency: config.mem_latency,
            next_line_prefetch: config.next_line_prefetch,
            prefetch_fills: 0,
        }
    }

    /// Performs a data access (load or store — write-allocate).
    ///
    /// An L1 hit stays inline; a miss goes out of line.
    #[inline(always)]
    pub fn access_data(&mut self, addr: u64) -> AccessResult {
        if self.l1d.access(addr) == Lookup::Hit {
            return AccessResult { latency: self.l1d.config.hit_latency, l1_hit: true, l2_hit: false };
        }
        self.data_miss(addr)
    }

    /// An L1d miss: trains the next-line prefetcher, then goes to L2.
    #[inline(never)]
    fn data_miss(&mut self, addr: u64) -> AccessResult {
        if self.next_line_prefetch {
            let next = addr.wrapping_add(self.l1d.config.line_size) & !(self.l1d.config.line_size - 1);
            if !self.l1d.probe(next) {
                self.l1d.access(next);
                self.l2.access(next);
                self.prefetch_fills += 1;
            }
        }
        self.l2_access(addr, self.l1d.config.hit_latency)
    }

    /// Lines brought in by the next-line prefetcher so far.
    pub fn prefetch_fills(&self) -> u64 {
        self.prefetch_fills
    }

    /// Performs an instruction-fetch access: `None` on an L1 hit, else
    /// the miss's latency. An L1 hit stays inline, with no result to build,
    /// so a step loop keeps it in registers; a miss goes to L2 out of line.
    #[inline(always)]
    pub(crate) fn fetch_instr(&mut self, addr: u64) -> Option<u64> {
        if self.l1i.access(addr) == Lookup::Hit {
            return None;
        }
        Some(self.l2_access(addr, self.l1i.config.hit_latency).latency)
    }

    /// An instruction fetch that hits the line of the L1i's last access,
    /// with no L1i fill or flush since (see [`Cache::rehit`]): the next
    /// instruction of a straight-line run within one line.
    #[inline(always)]
    pub(crate) fn refetch_instr(&mut self, addr: u64) {
        self.l1i.rehit(addr);
    }

    /// The L2 half of an access that missed an L1 whose hit latency is
    /// `l1_latency`.
    #[inline(never)]
    fn l2_access(&mut self, addr: u64, l1_latency: u64) -> AccessResult {
        let latency = l1_latency + self.l2.config.hit_latency;
        if self.l2.access(addr) == Lookup::Hit {
            return AccessResult { latency, l1_hit: false, l2_hit: true };
        }
        AccessResult { latency: latency + self.mem_latency, l1_hit: false, l2_hit: false }
    }

    /// Computes the latency a data access *would* have, without touching
    /// cache state (no fill, no LRU update) — the timing path of an
    /// InvisiSpec-style speculative buffer.
    pub fn probe_data_latency(&self, addr: u64) -> AccessResult {
        if self.l1d.probe(addr) {
            AccessResult { latency: self.l1d.config.hit_latency, l1_hit: true, l2_hit: false }
        } else if self.l2.probe(addr) {
            AccessResult {
                latency: self.l1d.config.hit_latency + self.l2.config.hit_latency,
                l1_hit: false,
                l2_hit: true,
            }
        } else {
            AccessResult {
                latency: self.l1d.config.hit_latency
                    + self.l2.config.hit_latency
                    + self.mem_latency,
                l1_hit: false,
                l2_hit: false,
            }
        }
    }

    /// Flushes the line containing `addr` from every level (`CLFLUSH`).
    pub fn flush_line(&mut self, addr: u64) {
        self.l1d.flush(addr);
        self.l1i.flush(addr);
        self.l2.flush(addr);
    }

    /// Flushes the entire hierarchy.
    pub fn flush_all(&mut self) {
        self.l1d.flush_all();
        self.l1i.flush_all();
        self.l2.flush_all();
    }

    /// Whether `addr` is resident in the L1 data cache or the L2 (test
    /// oracle).
    pub fn data_resident(&self, addr: u64) -> bool {
        self.l1d.probe(addr) || self.l2.probe(addr)
    }

    /// The L1 data cache.
    pub fn l1d(&self) -> &Cache<P> {
        &self.l1d
    }

    /// The L1 instruction cache.
    pub fn l1i(&self) -> &Cache<P> {
        &self.l1i
    }

    /// The unified L2 cache.
    pub fn l2(&self) -> &Cache<P> {
        &self.l2
    }

    /// The DRAM latency in cycles.
    pub fn mem_latency(&self) -> u64 {
        self.mem_latency
    }

    /// The L1 data line size in bytes.
    pub fn line_size(&self) -> u64 {
        self.l1d.config.line_size
    }

    /// Total replacement evictions across all levels.
    pub fn total_evictions(&self) -> u64 {
        self.l1d.evictions() + self.l1i.evictions() + self.l2.evictions()
    }

    /// Publishes per-level hit/miss/eviction totals to the global
    /// telemetry layer (counters under `sim.cache.*`). Called once per
    /// completed run by [`crate::cpu::Machine::emit_telemetry`], never
    /// from the access path.
    pub fn emit_telemetry(&self) {
        use cr_spectre_telemetry as telemetry;
        if !telemetry::enabled() {
            return;
        }
        for (prefix, cache) in [
            (("sim.cache.l1d.hits", "sim.cache.l1d.misses", "sim.cache.l1d.evictions"), &self.l1d),
            (("sim.cache.l1i.hits", "sim.cache.l1i.misses", "sim.cache.l1i.evictions"), &self.l1i),
            (("sim.cache.l2.hits", "sim.cache.l2.misses", "sim.cache.l2.evictions"), &self.l2),
        ] {
            telemetry::counter(prefix.0, cache.hits());
            telemetry::counter(prefix.1, cache.misses());
            telemetry::counter(prefix.2, cache.evictions());
        }
        telemetry::counter("sim.cache.prefetch_fills", self.prefetch_fills);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_access_misses_then_hits() {
        let mut c: Cache = Cache::new(CacheConfig::l1d());
        assert_eq!(c.access(0x1000), Lookup::Miss);
        assert_eq!(c.access(0x1000), Lookup::Hit);
        assert_eq!(c.access(0x103f), Lookup::Hit, "same 64-byte line");
        assert_eq!(c.access(0x1040), Lookup::Miss, "next line");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn flush_evicts_line() {
        let mut c: Cache = Cache::new(CacheConfig::l1d());
        c.access(0x2000);
        assert!(c.probe(0x2000));
        c.flush(0x2010); // any address within the line
        assert!(!c.probe(0x2000));
        assert_eq!(c.access(0x2000), Lookup::Miss);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2-way cache, one set: third distinct line evicts the LRU one.
        let cfg = CacheConfig { sets: 1, ways: 2, line_size: 64, hit_latency: 1 };
        let mut c: Cache = Cache::new(cfg);
        c.access(0); // line A
        c.access(64); // line B
        c.access(0); // touch A → B is now LRU
        c.access(128); // line C evicts B
        assert!(c.probe(0));
        assert!(!c.probe(64));
        assert!(c.probe(128));
    }

    #[test]
    fn set_conflict_eviction() {
        // Lines that map to the same set conflict; capacity eviction works.
        let cfg = CacheConfig { sets: 4, ways: 1, line_size: 64, hit_latency: 1 };
        let mut c: Cache = Cache::new(cfg);
        let stride = 4 * 64; // same set every `sets * line_size`
        c.access(0);
        c.access(stride);
        assert!(!c.probe(0), "direct-mapped conflict evicted the first line");
    }

    #[test]
    fn hierarchy_latency_ordering() {
        let mut h: CacheHierarchy = CacheHierarchy::new(HierarchyConfig::default());
        let miss = h.access_data(0x8000);
        assert!(miss.is_memory_access());
        let hit = h.access_data(0x8000);
        assert!(hit.l1_hit);
        assert!(miss.latency > hit.latency * 10, "memory is much slower than L1");
    }

    #[test]
    fn l2_backstops_l1_eviction() {
        let mut h: CacheHierarchy = CacheHierarchy::new(HierarchyConfig::default());
        h.access_data(0x4000);
        // Evict from L1 only.
        h.l1d.flush(0x4000);
        let r = h.access_data(0x4000);
        assert!(!r.l1_hit);
        assert!(r.l2_hit);
    }

    #[test]
    fn clflush_flushes_all_levels() {
        let mut h: CacheHierarchy = CacheHierarchy::new(HierarchyConfig::default());
        h.access_data(0x4000);
        h.flush_line(0x4000);
        assert!(!h.data_resident(0x4000));
        let r = h.access_data(0x4000);
        assert!(r.is_memory_access());
    }

    #[test]
    fn instruction_and_data_paths_are_separate_at_l1() {
        let mut h: CacheHierarchy = CacheHierarchy::new(HierarchyConfig::default());
        h.fetch_instr(0x1000);
        // The first *data* access to the same line misses L1D but hits L2.
        let r = h.access_data(0x1000);
        assert!(!r.l1_hit);
        assert!(r.l2_hit);
    }

    #[test]
    fn next_line_prefetcher_fills_the_adjacent_line() {
        let cfg = HierarchyConfig { next_line_prefetch: true, ..HierarchyConfig::default() };
        let mut h: CacheHierarchy = CacheHierarchy::new(cfg);
        h.access_data(0x8000);
        assert!(h.data_resident(0x8040), "next line prefetched");
        assert_eq!(h.prefetch_fills(), 1);
        // A hit does not re-trigger the prefetcher.
        h.access_data(0x8000);
        assert_eq!(h.prefetch_fills(), 1);
        // The prefetched line hits without a demand miss.
        let r = h.access_data(0x8040);
        assert!(r.l1_hit);
    }

    #[test]
    fn prefetcher_is_off_by_default() {
        let mut h: CacheHierarchy = CacheHierarchy::new(HierarchyConfig::default());
        h.access_data(0x8000);
        assert!(!h.data_resident(0x8040));
        assert_eq!(h.prefetch_fills(), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _: Cache = Cache::new(CacheConfig { sets: 3, ways: 1, line_size: 64, hit_latency: 1 });
    }

    /// Pins the shift/mask index math to the reference formula
    /// `(addr / line_size) mod sets` for every standard geometry, so a
    /// regression in the precomputed masks cannot slip through.
    #[test]
    fn set_index_matches_reference_for_presets() {
        for cfg in [CacheConfig::l1d(), CacheConfig::l1i(), CacheConfig::l2()] {
            let c: Cache = Cache::new(cfg);
            let addrs = [
                0u64,
                1,
                cfg.line_size - 1,
                cfg.line_size,
                cfg.line_size + 1,
                cfg.capacity() - 1,
                cfg.capacity(),
                0x1040,
                0xdead_beef,
                u64::MAX,
            ];
            for addr in addrs {
                let reference = ((addr / cfg.line_size) % cfg.sets as u64) as usize;
                assert_eq!(
                    c.set_index_of(addr),
                    reference,
                    "geometry {cfg:?}, addr {addr:#x}"
                );
            }
        }
    }

    /// Spot-checks concrete set numbers for the 64-set/64-byte-line L1
    /// presets so the constants themselves are pinned, not just the formula.
    #[test]
    fn l1_preset_set_numbers() {
        let c: Cache = Cache::new(CacheConfig::l1d());
        assert_eq!(c.set_index_of(0x0000), 0);
        assert_eq!(c.set_index_of(0x003f), 0, "same line");
        assert_eq!(c.set_index_of(0x0040), 1, "next line, next set");
        assert_eq!(c.set_index_of(0x0fc0), 63, "last set");
        assert_eq!(c.set_index_of(0x1000), 0, "wraps every sets*line_size bytes");
        let l2: Cache = Cache::new(CacheConfig::l2());
        assert_eq!(l2.set_index_of(0x7fc0), 511, "L2 has 512 sets");
        assert_eq!(l2.set_index_of(0x8000), 0);
    }

    /// The hit batch is an invisible optimization: hit/miss streams with
    /// and without repeated lines, plus flushes in between, behave exactly
    /// as the unbatched lookup would.
    #[test]
    fn hit_batch_is_transparent_across_flushes() {
        let mut c: Cache = Cache::new(CacheConfig::l1d());
        assert_eq!(c.access(0x1000), Lookup::Miss);
        assert_eq!(c.access(0x1000), Lookup::Hit, "batched hit");
        c.flush(0x1000);
        assert_eq!(c.access(0x1000), Lookup::Miss, "flush untracked the line");
        c.flush_all();
        assert_eq!(c.access(0x1000), Lookup::Miss, "flush_all untracked the line");
        assert_eq!(c.access(0x2000), Lookup::Miss, "a line of the same batch entry");
        assert_eq!(c.access(0x1000), Lookup::Hit, "the set lookup still finds it");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 4);
    }

    /// The reference lookup path (`Cache<Reference>`) produces the
    /// identical hit/miss stream and identical counters over a stream
    /// that exercises conflicts, repeats, and flushes.
    #[test]
    fn reference_cache_matches_fast_cache() {
        fn run<P: ExecPath>() -> (Vec<Lookup>, u64, u64, u64) {
            let mut c = Cache::<P>::new(CacheConfig::l1d());
            let mut stream = Vec::new();
            for i in 0u64..600 {
                let addr = (i * 97) % 0x3000; // revisits lines and sets
                stream.push(c.access(addr));
                if i % 37 == 0 {
                    c.flush(addr);
                }
            }
            (stream, c.hits(), c.misses(), c.evictions())
        }
        assert_eq!(run::<Fast>(), run::<crate::config::Reference>());
    }
}
