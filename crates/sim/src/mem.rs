//! Guest physical memory with page-granular protection.
//!
//! The machine exposes one flat address space with a page-permission
//! table. Its bytes are stored sparsely: a page takes host memory only
//! once something writes to it, and every untouched page reads as zeros
//! from one shared zero page. So a 16 MiB guest that touches its text,
//! stack, argument area and probe array costs tens of KiB of host memory,
//! and cloning it copies only those pages.
//!
//! Permissions implement the defenses the paper discusses: Data Execution
//! Prevention is simply "stack and heap pages do not carry `Perms::X`",
//! which is why the attack must reuse existing code (ROP) instead of
//! injecting new code.

use std::cell::Cell;
use std::fmt;
use std::marker::PhantomData;

use crate::config::{ExecPath, Fast};

/// Page size used for the permission table, in bytes.
pub const PAGE_SIZE: u64 = 4096;

/// Page permissions (read / write / execute).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Perms {
    /// Loads allowed.
    pub r: bool,
    /// Stores allowed.
    pub w: bool,
    /// Instruction fetch allowed.
    pub x: bool,
}

impl Perms {
    /// Read-only data pages.
    pub const R: Perms = Perms { r: true, w: false, x: false };
    /// Read-write data pages.
    pub const RW: Perms = Perms { r: true, w: true, x: false };
    /// Read-execute code pages (W^X).
    pub const RX: Perms = Perms { r: true, w: false, x: true };
    /// All permissions — only used when DEP is disabled.
    pub const RWX: Perms = Perms { r: true, w: true, x: true };
    /// No access (guard pages).
    pub const NONE: Perms = Perms { r: false, w: false, x: false };
}

impl fmt::Display for Perms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.r { 'r' } else { '-' },
            if self.w { 'w' } else { '-' },
            if self.x { 'x' } else { '-' }
        )
    }
}

/// Kind of access that triggered a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data load.
    Read,
    /// Data store.
    Write,
    /// Instruction fetch.
    Fetch,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "read"),
            AccessKind::Write => write!(f, "write"),
            AccessKind::Fetch => write!(f, "fetch"),
        }
    }
}

/// A memory protection fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// Faulting guest address.
    pub addr: u64,
    /// What the access was trying to do.
    pub kind: AccessKind,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "memory fault: {} at {:#x}", self.kind, self.addr)
    }
}

impl std::error::Error for MemFault {}

/// Guest memory with a page-permission table, on the execution path `P`
/// (see [`ExecPath`]).
///
/// Addresses form one flat range of [`Memory::size`] bytes, all zero until
/// written. The storage behind them is sparse: an arena of materialised
/// pages, stored back to back, and one slot per guest page naming its arena
/// page. Arena page 0 is the shared zero page every untouched slot points
/// at. A page is materialised on its first [`Memory::write`] or
/// [`Memory::poke`], so host memory grows with
/// [`Memory::resident_pages`], not with the size, and `clone` copies only
/// the materialised pages. Both execution paths use this storage.
///
/// # Examples
///
/// ```
/// use cr_spectre_sim::mem::{Memory, Perms};
///
/// let mut mem: Memory = Memory::new(64 * 1024);
/// mem.set_perms(0x1000, 0x1000, Perms::RW);
/// mem.write_u64(0x1000, 0xdead_beef)?;
/// assert_eq!(mem.read_u64(0x1000)?, 0xdead_beef);
/// # Ok::<(), cr_spectre_sim::mem::MemFault>(())
/// ```
#[derive(Debug, Clone)]
pub struct Memory<P: ExecPath = Fast> {
    /// Materialised pages, [`PAGE_SIZE`] bytes each, back to back. Page 0
    /// is the zero page: never written, so an untouched page reads zeros.
    arena: Vec<u8>,
    /// Arena page of each guest page; 0 (the zero page) = never written.
    page_slot: Vec<u32>,
    page_perms: Vec<Perms>,
    /// Index of the last page that passed a permission check, one slot per
    /// [`AccessKind`] (`Read`, `Write`, `Fetch` in declaration order).
    /// `u64::MAX` marks an empty slot. Invalidated by [`Memory::set_perms`],
    /// and by [`Memory::materialise`] for the page it materialises. On the
    /// fast path, single-page accesses revalidate against it instead of
    /// walking the permission table.
    last_page: [Cell<u64>; 3],
    /// Arena offset of each [`Memory::last_page`] slot's page (0, the zero
    /// page, for a page never written), so a single-page access it
    /// validates skips the `page_slot` lookup too.
    last_base: [Cell<usize>; 3],
    /// Index of a page known to be writable *and not executable*: stores
    /// there can skip the self-modifying-code scan (no decoded instruction
    /// can depend on its bytes). `u64::MAX` = none; invalidated by
    /// [`Memory::set_perms`].
    nonx_write_page: Cell<u64>,
    /// Bumped whenever bytes in an executable page may have changed (any
    /// `poke`, a store into an executable page, or a permission change).
    /// Consumers caching decoded instructions revalidate against this.
    code_epoch: u64,
    path: PhantomData<P>,
}

/// Sentinel for an empty [`Memory::last_page`] slot.
const NO_PAGE: u64 = u64::MAX;

/// [`PAGE_SIZE`] as a host index.
const PAGE: usize = PAGE_SIZE as usize;

impl<P: ExecPath> Memory<P> {
    /// Creates a memory of `size` bytes (rounded up to a whole page), with
    /// all pages zero and initially inaccessible, on the path its type
    /// names. Allocates the zero page and the per-page tables only.
    pub fn new(size: u64) -> Memory<P> {
        let pages = size.div_ceil(PAGE_SIZE) as usize;
        Memory {
            arena: vec![0; PAGE],
            page_slot: vec![0; pages],
            page_perms: vec![Perms::NONE; pages],
            last_page: [Cell::new(NO_PAGE), Cell::new(NO_PAGE), Cell::new(NO_PAGE)],
            last_base: [Cell::new(0), Cell::new(0), Cell::new(0)],
            nonx_write_page: Cell::new(NO_PAGE),
            code_epoch: 0,
            path: PhantomData,
        }
    }

    /// Generation counter for code-bytes mutations: bumped on every `poke`,
    /// on stores that touch an executable page, and on permission changes.
    /// Any cache of decoded instructions is stale once this moves.
    pub fn code_epoch(&self) -> u64 {
        self.code_epoch
    }

    /// Total size in bytes.
    pub fn size(&self) -> u64 {
        self.page_slot.len() as u64 * PAGE_SIZE
    }

    /// Number of pages holding host memory: every page written or poked at
    /// least once (the shared zero page not counted).
    pub fn resident_pages(&self) -> usize {
        self.arena.len() / PAGE - 1
    }

    /// Sets permissions for all pages overlapping `[addr, addr + len)`.
    ///
    /// # Panics
    ///
    /// Panics if the range extends beyond the end of memory.
    pub fn set_perms(&mut self, addr: u64, len: u64, perms: Perms) {
        self.assert_in_range(addr, len, "set_perms");
        if len == 0 {
            return;
        }
        let first = (addr / PAGE_SIZE) as usize;
        let last = ((addr + len - 1) / PAGE_SIZE) as usize;
        for page in &mut self.page_perms[first..=last] {
            *page = perms;
        }
        // Cached page validations no longer hold, and previously
        // non-executable bytes may now be fetchable (or vice versa).
        for slot in &self.last_page {
            slot.set(NO_PAGE);
        }
        self.nonx_write_page.set(NO_PAGE);
        self.code_epoch += 1;
    }

    /// Returns the permissions of the page containing `addr`, or `NONE` for
    /// out-of-range addresses.
    pub fn perms_at(&self, addr: u64) -> Perms {
        self.page_perms
            .get((addr / PAGE_SIZE) as usize)
            .copied()
            .unwrap_or(Perms::NONE)
    }

    #[inline]
    fn check(&self, addr: u64, len: u64, kind: AccessKind) -> Result<(), MemFault> {
        if len == 0 {
            return Ok(());
        }
        let end = addr.checked_add(len - 1).ok_or(MemFault { addr, kind })?;
        // Fast path: the overwhelmingly common access stays within one page
        // and hits the same page as the previous access of the same kind.
        // The cached index is only ever a page that passed the full check,
        // and `set_perms` invalidates it, so a hit needs no further work.
        if P::FAST
            && addr / PAGE_SIZE == end / PAGE_SIZE
            && self.last_page[kind as usize].get() == addr / PAGE_SIZE
        {
            return Ok(());
        }
        self.check_slow(addr, end, kind)
    }

    /// Full page walk over `[addr, end]`; seeds the fast-path cache on a
    /// successful single-page check.
    fn check_slow(&self, addr: u64, end: u64, kind: AccessKind) -> Result<(), MemFault> {
        if end >= self.size() {
            return Err(MemFault { addr, kind });
        }
        // Check each page the access touches.
        let mut page_addr = addr & !(PAGE_SIZE - 1);
        while page_addr <= end {
            let perms = self.perms_at(page_addr);
            let ok = match kind {
                AccessKind::Read => perms.r,
                AccessKind::Write => perms.w,
                AccessKind::Fetch => perms.x,
            };
            if !ok {
                return Err(MemFault { addr: page_addr.max(addr), kind });
            }
            page_addr += PAGE_SIZE;
        }
        if P::FAST && addr / PAGE_SIZE == end / PAGE_SIZE {
            let page = addr / PAGE_SIZE;
            self.last_page[kind as usize].set(page);
            self.last_base[kind as usize].set(self.page_slot[page as usize] as usize * PAGE);
        }
        Ok(())
    }

    /// The arena offset of `[addr, addr + len)` when the fast path's cache
    /// proves the access allowed: a nonempty range within the page of the
    /// last access of `kind` that passed its check.
    #[inline(always)]
    fn cached_offset(&self, addr: u64, len: usize, kind: AccessKind) -> Option<usize> {
        let offset = (addr % PAGE_SIZE) as usize;
        (P::FAST
            && len > 0
            && offset + len <= PAGE
            && self.last_page[kind as usize].get() == addr / PAGE_SIZE)
            .then(|| self.last_base[kind as usize].get() + offset)
    }

    /// Reads `buf.len()` bytes from `addr`.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] if any touched page lacks read permission or
    /// the range is out of bounds.
    // Always inlined, so `read_u8`/`read_u32`/`read_u64` copy a constant
    // width from the page: as a call taking a slice of unknown length,
    // guest loads ran the campaign trials ~5% slower.
    #[inline(always)]
    pub fn read(&self, addr: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        if let Some(at) = self.cached_offset(addr, buf.len(), AccessKind::Read) {
            buf.copy_from_slice(&self.arena[at..at + buf.len()]);
            return Ok(());
        }
        self.check(addr, buf.len() as u64, AccessKind::Read)?;
        self.copy_out(addr, buf);
        Ok(())
    }

    /// Writes `data` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] if any touched page lacks write permission or
    /// the range is out of bounds.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), MemFault> {
        self.check(addr, data.len() as u64, AccessKind::Write)?;
        if !data.is_empty() {
            // Self-modifying code: a store into any executable page makes
            // cached decodes stale. (With DEP on, no page is both W and X,
            // so this never fires on the hardened configurations.) A store
            // that stays within a page already proven non-executable can
            // skip the scan; `set_perms` invalidates the proof.
            let end = addr + data.len() as u64 - 1;
            let page = addr / PAGE_SIZE;
            if !(P::FAST
                && page == end / PAGE_SIZE
                && self.nonx_write_page.get() == page)
            {
                let mut page_addr = addr & !(PAGE_SIZE - 1);
                let mut any_x = false;
                while page_addr <= end {
                    if self.perms_at(page_addr).x {
                        self.code_epoch += 1;
                        any_x = true;
                        break;
                    }
                    page_addr += PAGE_SIZE;
                }
                if P::FAST && !any_x && page == end / PAGE_SIZE {
                    self.nonx_write_page.set(page);
                }
            }
        }
        self.copy_in(addr, data);
        Ok(())
    }

    /// Writes `N` bytes at `addr`, as [`Memory::write`]. Inline, at a
    /// constant width, when the fast path's caches prove the store lands
    /// in one writable page that is materialised and not executable (so no
    /// code epoch moves); otherwise through [`Memory::write`].
    #[inline(always)]
    fn store<const N: usize>(&mut self, addr: u64, bytes: [u8; N]) -> Result<(), MemFault> {
        if let Some(at) = self.cached_offset(addr, N, AccessKind::Write) {
            // Arena offsets below `PAGE` are the zero page: never written.
            if at >= PAGE && self.nonx_write_page.get() == addr / PAGE_SIZE {
                self.arena[at..at + N].copy_from_slice(&bytes);
                return Ok(());
            }
        }
        self.write(addr, &bytes)
    }

    /// Fetches instruction bytes: like [`Memory::read`] but requires execute
    /// permission (DEP enforcement point).
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] when the page is not executable.
    pub fn fetch(&self, addr: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        self.check(addr, buf.len() as u64, AccessKind::Fetch)?;
        self.copy_out(addr, buf);
        Ok(())
    }

    /// The bytes of `[addr, addr + len)`, a range within one in-bounds
    /// page: the zero page's when the page was never written.
    #[inline]
    fn page_bytes(&self, addr: u64, len: usize) -> &[u8] {
        let base = self.page_slot[(addr / PAGE_SIZE) as usize] as usize * PAGE;
        let at = base + (addr % PAGE_SIZE) as usize;
        &self.arena[at..at + len]
    }

    /// Writable bytes of `[addr, addr + len)`, a range within one
    /// in-bounds page, materialising the page on its first write.
    #[inline]
    fn page_bytes_mut(&mut self, addr: u64, len: usize) -> &mut [u8] {
        let page = (addr / PAGE_SIZE) as usize;
        let mut slot = self.page_slot[page];
        if slot == 0 {
            slot = self.materialise(page);
        }
        let at = slot as usize * PAGE + (addr % PAGE_SIZE) as usize;
        &mut self.arena[at..at + len]
    }

    /// Gives guest page `page` an arena page of its own, zero-filled.
    #[cold]
    #[inline(never)]
    fn materialise(&mut self, page: usize) -> u32 {
        let slot = u32::try_from(self.arena.len() / PAGE).expect("arena page index fits u32");
        self.arena.resize(self.arena.len() + PAGE, 0);
        self.page_slot[page] = slot;
        // A cached arena offset of this page points at the zero page.
        for cached in &self.last_page {
            if cached.get() == page as u64 {
                cached.set(NO_PAGE);
            }
        }
        slot
    }

    /// Copies the in-bounds range at `addr` into `buf`: inline when it
    /// stays within one page, else page by page.
    #[inline]
    fn copy_out(&self, addr: u64, buf: &mut [u8]) {
        if !buf.is_empty() && (addr % PAGE_SIZE) as usize + buf.len() <= PAGE {
            buf.copy_from_slice(self.page_bytes(addr, buf.len()));
        } else {
            self.copy_out_split(addr, buf);
        }
    }

    #[cold]
    #[inline(never)]
    fn copy_out_split(&self, mut addr: u64, buf: &mut [u8]) {
        let mut done = 0;
        while done < buf.len() {
            let n = (PAGE - (addr % PAGE_SIZE) as usize).min(buf.len() - done);
            buf[done..done + n].copy_from_slice(self.page_bytes(addr, n));
            addr += n as u64;
            done += n;
        }
    }

    /// Copies `data` to the in-bounds range at `addr`: inline when it
    /// stays within one page, else page by page.
    #[inline]
    fn copy_in(&mut self, addr: u64, data: &[u8]) {
        if !data.is_empty() && (addr % PAGE_SIZE) as usize + data.len() <= PAGE {
            self.page_bytes_mut(addr, data.len()).copy_from_slice(data);
        } else {
            self.copy_in_split(addr, data);
        }
    }

    #[cold]
    #[inline(never)]
    fn copy_in_split(&mut self, mut addr: u64, data: &[u8]) {
        let mut done = 0;
        while done < data.len() {
            let n = (PAGE - (addr % PAGE_SIZE) as usize).min(data.len() - done);
            self.page_bytes_mut(addr, n).copy_from_slice(&data[done..done + n]);
            addr += n as u64;
            done += n;
        }
    }

    /// Panics unless `[addr, addr + len)` lies within memory.
    fn assert_in_range(&self, addr: u64, len: u64, what: &str) {
        assert!(
            addr.checked_add(len).is_some_and(|end| end <= self.size()),
            "{what} out of range"
        );
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// See [`Memory::read`].
    #[inline]
    pub fn read_u8(&self, addr: u64) -> Result<u8, MemFault> {
        let mut b = [0u8; 1];
        self.read(addr, &mut b)?;
        Ok(b[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// See [`Memory::read`].
    #[inline]
    pub fn read_u32(&self, addr: u64) -> Result<u32, MemFault> {
        let mut b = [0u8; 4];
        self.read(addr, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// See [`Memory::read`].
    #[inline]
    pub fn read_u64(&self, addr: u64) -> Result<u64, MemFault> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// See [`Memory::write`].
    #[inline]
    pub fn write_u8(&mut self, addr: u64, value: u8) -> Result<(), MemFault> {
        self.store(addr, [value])
    }

    /// Writes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// See [`Memory::write`].
    #[inline]
    pub fn write_u32(&mut self, addr: u64, value: u32) -> Result<(), MemFault> {
        self.store(addr, value.to_le_bytes())
    }

    /// Writes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// See [`Memory::write`].
    #[inline]
    pub fn write_u64(&mut self, addr: u64, value: u64) -> Result<(), MemFault> {
        self.store(addr, value.to_le_bytes())
    }

    /// Reads a NUL-terminated string of at most `max` bytes starting at
    /// `addr`.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] on an unreadable byte before the terminator.
    pub fn read_cstr(&self, addr: u64, max: usize) -> Result<Vec<u8>, MemFault> {
        let mut out = Vec::new();
        let mut cur = addr;
        let mut remaining = max as u64;
        // Scan page-sized chunks: one permission check per page instead of
        // one per byte. Pages past the terminator (or past `max`) are never
        // touched, so a string ending exactly at a page boundary does not
        // fault on an unreadable next page — same contract as the byte loop.
        while remaining > 0 {
            // One byte's check validates its whole page (perms are
            // page-granular), and a failed check faults at `cur`, the first
            // unreadable byte — identical to the per-byte scan.
            self.check(cur, 1, AccessKind::Read)?;
            let page_end = (cur & !(PAGE_SIZE - 1)) + PAGE_SIZE;
            let chunk = remaining.min(page_end - cur) as usize;
            let bytes = self.page_bytes(cur, chunk);
            match bytes.iter().position(|&b| b == 0) {
                Some(nul) => {
                    out.extend_from_slice(&bytes[..nul]);
                    return Ok(out);
                }
                None => out.extend_from_slice(bytes),
            }
            cur += chunk as u64;
            remaining -= chunk as u64;
        }
        Ok(out)
    }

    /// Writes raw bytes ignoring permissions — loader/debugger use only.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn poke(&mut self, addr: u64, data: &[u8]) {
        self.assert_in_range(addr, data.len() as u64, "poke");
        self.copy_in(addr, data);
        // A poke bypasses permissions, so it may rewrite code no matter what
        // the page table says — always treat it as a code mutation.
        if !data.is_empty() {
            self.code_epoch += 1;
        }
    }

    /// Reads raw bytes ignoring permissions — loader/debugger use only.
    /// Returns an owned copy: the range may span pages that are not
    /// adjacent in the sparse storage.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn peek(&self, addr: u64, len: usize) -> Vec<u8> {
        self.assert_in_range(addr, len as u64, "peek");
        let mut out = vec![0; len];
        self.copy_out(addr, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_memory_is_inaccessible() {
        let mem: Memory = Memory::new(PAGE_SIZE * 4);
        assert!(mem.read_u8(0).is_err());
        assert_eq!(mem.size(), PAGE_SIZE * 4);
    }

    #[test]
    fn size_rounds_up_to_page() {
        let mem: Memory = Memory::new(PAGE_SIZE + 1);
        assert_eq!(mem.size(), PAGE_SIZE * 2);
    }

    #[test]
    fn rw_round_trip() {
        let mut mem: Memory = Memory::new(PAGE_SIZE * 2);
        mem.set_perms(0, PAGE_SIZE, Perms::RW);
        mem.write_u64(8, 0x0123_4567_89ab_cdef).unwrap();
        assert_eq!(mem.read_u64(8).unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(mem.read_u32(8).unwrap(), 0x89ab_cdef);
        assert_eq!(mem.read_u8(15).unwrap(), 0x01);
    }

    #[test]
    fn write_to_readonly_faults() {
        let mut mem: Memory = Memory::new(PAGE_SIZE);
        mem.set_perms(0, PAGE_SIZE, Perms::R);
        let err = mem.write_u8(0, 1).unwrap_err();
        assert_eq!(err.kind, AccessKind::Write);
        assert!(mem.read_u8(0).is_ok());
    }

    #[test]
    fn fetch_requires_execute() {
        let mut mem: Memory = Memory::new(PAGE_SIZE * 2);
        mem.set_perms(0, PAGE_SIZE, Perms::RW);
        mem.set_perms(PAGE_SIZE, PAGE_SIZE, Perms::RX);
        let mut buf = [0u8; 8];
        // DEP: data page is readable but not executable.
        assert_eq!(
            mem.fetch(0, &mut buf).unwrap_err().kind,
            AccessKind::Fetch
        );
        assert!(mem.fetch(PAGE_SIZE, &mut buf).is_ok());
    }

    #[test]
    fn cross_page_access_checks_both_pages() {
        let mut mem: Memory = Memory::new(PAGE_SIZE * 2);
        mem.set_perms(0, PAGE_SIZE, Perms::RW);
        // Second page stays NONE; an 8-byte write straddling the boundary
        // must fault even though it starts on a writable page.
        assert!(mem.write_u64(PAGE_SIZE - 4, 0).is_err());
        mem.set_perms(PAGE_SIZE, PAGE_SIZE, Perms::RW);
        assert!(mem.write_u64(PAGE_SIZE - 4, 0).is_ok());
    }

    #[test]
    fn out_of_bounds_faults() {
        let mut mem: Memory = Memory::new(PAGE_SIZE);
        mem.set_perms(0, PAGE_SIZE, Perms::RW);
        assert!(mem.read_u64(PAGE_SIZE - 4).is_err());
        assert!(mem.read_u8(u64::MAX).is_err());
    }

    #[test]
    fn cstr_reading() {
        let mut mem: Memory = Memory::new(PAGE_SIZE);
        mem.set_perms(0, PAGE_SIZE, Perms::RW);
        mem.write(100, b"spectre\0junk").unwrap();
        assert_eq!(mem.read_cstr(100, 64).unwrap(), b"spectre");
        // Max cap stops the scan.
        assert_eq!(mem.read_cstr(100, 3).unwrap(), b"spe");
    }

    #[test]
    fn poke_peek_bypass_permissions() {
        let mut mem: Memory = Memory::new(PAGE_SIZE);
        mem.poke(0, &[1, 2, 3]);
        assert_eq!(mem.peek(0, 3), [1, 2, 3]);
        assert!(mem.read_u8(0).is_err(), "architectural access still faults");
    }

    #[test]
    fn permission_cache_is_invalidated_by_set_perms() {
        let mut mem: Memory = Memory::new(PAGE_SIZE * 2);
        mem.set_perms(0, PAGE_SIZE, Perms::RW);
        // Warm the per-kind cache on page 0.
        assert!(mem.read_u8(8).is_ok());
        assert!(mem.write_u8(8, 1).is_ok());
        // Revoking access must not be masked by the cached validation.
        mem.set_perms(0, PAGE_SIZE, Perms::NONE);
        assert!(mem.read_u8(8).is_err());
        assert!(mem.write_u8(8, 1).is_err());
    }

    #[test]
    fn reference_memory_matches_fast_memory() {
        fn build<P: ExecPath>() -> Memory<P> {
            let mut mem = Memory::new(PAGE_SIZE * 2);
            mem.set_perms(0, PAGE_SIZE, Perms::RW);
            mem
        }
        let mut fast = build::<Fast>();
        let mut slow = build::<crate::config::Reference>();
        // Each permission change lands on a permission cache the previous
        // round warmed; revoking access must reach both paths alike.
        for perms in [Perms::RW, Perms::R, Perms::NONE, Perms::RW] {
            fast.set_perms(0, PAGE_SIZE, perms);
            slow.set_perms(0, PAGE_SIZE, perms);
            for addr in [0, 8, PAGE_SIZE - 1, PAGE_SIZE, PAGE_SIZE - 4, u64::MAX] {
                let at = format!("{addr:#x} under {perms}");
                assert_eq!(fast.read_u8(addr), slow.read_u8(addr), "read at {at}");
                assert_eq!(fast.write_u8(addr, 7), slow.write_u8(addr, 7), "write at {at}");
                assert_eq!(fast.read_u64(addr), slow.read_u64(addr), "read_u64 at {at}");
            }
        }
    }

    #[test]
    fn code_epoch_tracks_code_mutations() {
        let mut mem: Memory = Memory::new(PAGE_SIZE * 2);
        mem.set_perms(0, PAGE_SIZE, Perms::RW);
        mem.set_perms(PAGE_SIZE, PAGE_SIZE, Perms::RWX);
        let e0 = mem.code_epoch();
        // Plain data store: no code could have changed.
        mem.write_u8(8, 1).unwrap();
        assert_eq!(mem.code_epoch(), e0);
        // Store into an executable page: cached decodes are stale.
        mem.write_u8(PAGE_SIZE, 1).unwrap();
        assert!(mem.code_epoch() > e0);
        // Pokes bypass permissions entirely, so every poke counts.
        let e1 = mem.code_epoch();
        mem.poke(8, &[0xcc]);
        assert!(mem.code_epoch() > e1);
        // Permission changes count too (bytes may become fetchable).
        let e2 = mem.code_epoch();
        mem.set_perms(0, PAGE_SIZE, Perms::RX);
        assert!(mem.code_epoch() > e2);
    }

    #[test]
    fn cstr_max_ending_exactly_at_page_boundary() {
        let mut mem: Memory = Memory::new(PAGE_SIZE * 2);
        // Page 0 readable, page 1 a guard page.
        mem.set_perms(0, PAGE_SIZE, Perms::RW);
        mem.write(PAGE_SIZE - 3, b"abc").unwrap();
        // `max` runs out exactly at the boundary: the unreadable next page
        // must never be touched.
        assert_eq!(mem.read_cstr(PAGE_SIZE - 3, 3).unwrap(), b"abc");
        // One byte more crosses into the guard page and faults there.
        let err = mem.read_cstr(PAGE_SIZE - 3, 4).unwrap_err();
        assert_eq!(err, MemFault { addr: PAGE_SIZE, kind: AccessKind::Read });
        // A terminator on the last byte of the page also stops the scan.
        mem.write(PAGE_SIZE - 3, b"ab\0").unwrap();
        assert_eq!(mem.read_cstr(PAGE_SIZE - 3, 64).unwrap(), b"ab");
    }

    #[test]
    fn cstr_spans_readable_pages() {
        let mut mem: Memory = Memory::new(PAGE_SIZE * 2);
        mem.set_perms(0, PAGE_SIZE * 2, Perms::RW);
        mem.write(PAGE_SIZE - 2, b"spectre\0").unwrap();
        assert_eq!(mem.read_cstr(PAGE_SIZE - 2, 64).unwrap(), b"spectre");
        // Zero-length request reads nothing, even from a bad address.
        assert_eq!(mem.read_cstr(u64::MAX, 0).unwrap(), b"");
    }

    #[test]
    #[should_panic(expected = "peek out of range")]
    fn peek_past_the_end_panics() {
        let mem: Memory = Memory::new(PAGE_SIZE);
        mem.peek(PAGE_SIZE - 2, 3);
    }

    #[test]
    #[should_panic(expected = "set_perms out of range")]
    fn set_perms_range_past_the_address_space_panics() {
        let mut mem: Memory = Memory::new(PAGE_SIZE);
        mem.set_perms(u64::MAX - 10, 20, Perms::RW);
    }
}
