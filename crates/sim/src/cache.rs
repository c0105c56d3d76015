//! Set-associative cache hierarchy with flush support.
//!
//! The hierarchy models **timing and occupancy only** — data always lives in
//! [`crate::mem::Memory`]; the caches track which line tags are resident so
//! that loads can be charged a hit or miss latency. That is exactly the
//! surface the Spectre covert channel needs: a *measurable latency gap*
//! between cached and uncached lines, and a `CLFLUSH` primitive to reset a
//! probe line. Squashed speculative loads still call [`CacheHierarchy::access_data`],
//! which is the microarchitectural state leak the attack exploits.

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

/// One set-associative cache level with true-LRU replacement.
///
/// Stores tags only; see the module docs for why no data is kept. On the
/// fast path ([`ExecPath::FAST`]) lookups use precomputed shift/mask
/// indexing and the MRU hint; the reference path runs divide/modulo
/// index math and a full set scan. Results are identical either way.
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
    /// MRU hint: slot of the most recent hit or fill. Validated against
    /// `tags` before use, so flushes need not reset it.
    last_slot: usize,
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
            last_slot: 0,
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

    /// Looks up `addr`, filling the line on a miss (evicting LRU if needed).
    pub fn access(&mut self, addr: u64) -> Lookup {
        let line = self.line_addr(addr);
        self.tick += 1;
        // MRU hint: straight-line code and tight probe loops hit the same
        // line back to back. Tags are unique per line and only ever written
        // in a line's home set, so a tag match proves the hint is valid.
        if P::FAST {
            let slot = self.last_slot;
            if self.tags[slot] == Some(line) {
                self.stamps[slot] = self.tick;
                self.hits += 1;
                return Lookup::Hit;
            }
        }
        let set = self.set_index(line);
        let base = set * self.config.ways;
        // Hit path.
        for way in 0..self.config.ways {
            if self.tags[base + way] == Some(line) {
                self.stamps[base + way] = self.tick;
                self.hits += 1;
                self.last_slot = base + way;
                return Lookup::Hit;
            }
        }
        // Miss: fill into an invalid way or evict the LRU way.
        self.misses += 1;
        let victim = (0..self.config.ways)
            .min_by_key(|&way| match self.tags[base + way] {
                None => (0, 0),
                Some(_) => (1, self.stamps[base + way]),
            })
            .expect("ways > 0");
        if self.tags[base + victim].is_some() {
            self.evictions += 1;
        }
        self.tags[base + victim] = Some(line);
        self.stamps[base + victim] = self.tick;
        self.last_slot = base + victim;
        Lookup::Miss
    }

    /// Applies a batch of `total` coalesced hits, interleaved across the
    /// lines in `entries`, in one go: final state (tick, LRU stamps, hit
    /// count) is exactly what the `total` individual [`Cache::access`]
    /// hits would leave behind.
    ///
    /// Each entry is `(addr, last_seq)` where `last_seq` is the 1-based
    /// position of that line's *final* hit within the batch — replaying
    /// it as `stamp = tick_before_batch + last_seq` reproduces the LRU
    /// state bit-exactly, because a sequential run stamps each line at
    /// the tick of its last hit and advances tick once per hit.
    ///
    /// The caller must guarantee every entry's line is resident and that
    /// no other access to this cache happened during the batch — the
    /// machine's fetch coalescers uphold this by applying before any
    /// potential miss, flush or observation (hits cannot evict, so
    /// tracked lines stay resident).
    pub(crate) fn bulk_batch(&mut self, entries: &[(u64, u64)], total: u64) {
        let base_tick = self.tick;
        self.tick += total;
        self.hits += total;
        'entries: for &(addr, last_seq) in entries {
            let line = self.line_addr(addr);
            let stamp = base_tick + last_seq;
            let slot = self.last_slot;
            if self.tags[slot] == Some(line) {
                self.stamps[slot] = stamp;
                continue;
            }
            let base = self.set_index(line) * self.config.ways;
            for way in 0..self.config.ways {
                if self.tags[base + way] == Some(line) {
                    self.stamps[base + way] = stamp;
                    self.last_slot = base + way;
                    continue 'entries;
                }
            }
            unreachable!("bulk_batch caller guarantees residency");
        }
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
        self.tags.fill(None);
        self.stamps.fill(0);
    }

    /// Hit count since construction.
    pub fn hits(&self) -> u64 {
        self.hits
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
    /// The machine's hit coalescers apply their batches to the L1s
    /// directly ([`Cache::bulk_batch`]).
    pub(crate) l1d: Cache<P>,
    pub(crate) l1i: Cache<P>,
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
    pub fn access_data(&mut self, addr: u64) -> AccessResult {
        let l1 = self.l1d.access(addr);
        if l1 == Lookup::Hit {
            return AccessResult {
                latency: self.l1d.config.hit_latency,
                l1_hit: true,
                l2_hit: false,
            };
        }
        // A demand L1 miss trains the next-line prefetcher.
        if self.next_line_prefetch {
            let next = addr.wrapping_add(self.l1d.config.line_size) & !(self.l1d.config.line_size - 1);
            if !self.l1d.probe(next) {
                self.l1d.access(next);
                self.l2.access(next);
                self.prefetch_fills += 1;
            }
        }
        let l2 = self.l2.access(addr);
        if l2 == Lookup::Hit {
            return AccessResult {
                latency: self.l1d.config.hit_latency + self.l2.config.hit_latency,
                l1_hit: false,
                l2_hit: true,
            };
        }
        AccessResult {
            latency: self.l1d.config.hit_latency + self.l2.config.hit_latency + self.mem_latency,
            l1_hit: false,
            l2_hit: false,
        }
    }

    /// Lines brought in by the next-line prefetcher so far.
    pub fn prefetch_fills(&self) -> u64 {
        self.prefetch_fills
    }

    /// Performs an instruction-fetch access.
    pub fn access_instr(&mut self, addr: u64) -> AccessResult {
        let l1 = self.l1i.access(addr);
        if l1 == Lookup::Hit {
            return AccessResult {
                latency: self.l1i.config.hit_latency,
                l1_hit: true,
                l2_hit: false,
            };
        }
        let l2 = self.l2.access(addr);
        if l2 == Lookup::Hit {
            return AccessResult {
                latency: self.l1i.config.hit_latency + self.l2.config.hit_latency,
                l1_hit: false,
                l2_hit: true,
            };
        }
        AccessResult {
            latency: self.l1i.config.hit_latency + self.l2.config.hit_latency + self.mem_latency,
            l1_hit: false,
            l2_hit: false,
        }
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

    /// Whether `addr` is resident in the L1 data cache (test oracle).
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
        h.access_instr(0x1000);
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

    /// The MRU hint is an invisible optimization: hit/miss streams with and
    /// without repeated lines, plus flushes in between, behave exactly as
    /// the unhinted lookup would.
    #[test]
    fn mru_hint_is_transparent_across_flushes() {
        let mut c: Cache = Cache::new(CacheConfig::l1d());
        assert_eq!(c.access(0x1000), Lookup::Miss);
        assert_eq!(c.access(0x1000), Lookup::Hit, "hint hit");
        c.flush(0x1000);
        assert_eq!(c.access(0x1000), Lookup::Miss, "stale hint rejected after flush");
        c.flush_all();
        assert_eq!(c.access(0x1000), Lookup::Miss, "stale hint rejected after flush_all");
        assert_eq!(c.access(0x2000), Lookup::Miss, "different line ignores hint");
        assert_eq!(c.access(0x1000), Lookup::Hit, "full lookup still finds it");
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
