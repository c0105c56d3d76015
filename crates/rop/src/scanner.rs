//! Gadget scanner: harvest `RET`-terminated sequences from executable
//! memory.
//!
//! This is the simulator analogue of loading a binary in GDB and searching
//! for `ret`-suffixed instruction runs (Section II-C of the paper). The
//! scanner walks every executable range, finds each `RET`, and emits every
//! decodable suffix of up to [`Scanner::max_len`] instructions ending at
//! that `RET` — each suffix is a distinct entry point, exactly as on x86.

use std::collections::HashMap;

use cr_spectre_sim::config::ExecPath;
use cr_spectre_sim::cpu::Machine;
use cr_spectre_sim::image::LoadedImage;
use cr_spectre_sim::isa::{Instr, Reg, INSTR_BYTES};

use crate::gadget::{Gadget, GadgetKind};

/// Configurable gadget scanner.
#[derive(Debug, Clone)]
pub struct Scanner {
    /// Longest gadget to report, in instructions (terminator included).
    pub max_len: usize,
}

impl Default for Scanner {
    fn default() -> Scanner {
        Scanner { max_len: 4 }
    }
}

impl Scanner {
    /// Creates a scanner reporting gadgets of up to `max_len` instructions.
    ///
    /// # Panics
    ///
    /// Panics when `max_len == 0`.
    pub fn new(max_len: usize) -> Scanner {
        assert!(max_len > 0, "max_len must be nonzero");
        Scanner { max_len }
    }

    /// Scans a raw byte slice that is mapped executable at guest address
    /// `base`.
    pub fn scan_bytes(&self, bytes: &[u8], base: u64) -> Vec<Gadget> {
        let mut out = Vec::new();
        let n_instrs = bytes.len() / INSTR_BYTES;
        for i in 0..n_instrs {
            let chunk = &bytes[i * INSTR_BYTES..(i + 1) * INSTR_BYTES];
            if Instr::decode(chunk) != Ok(Instr::Ret) {
                continue;
            }
            // Every decodable suffix ending at this RET is a gadget.
            for len in 1..=self.max_len.min(i + 1) {
                let start = i + 1 - len;
                let mut instrs = Vec::with_capacity(len);
                let mut ok = true;
                for j in start..=i {
                    let c = &bytes[j * INSTR_BYTES..(j + 1) * INSTR_BYTES];
                    match Instr::decode(c) {
                        // An interior control-flow change would divert
                        // before reaching the RET; skip such suffixes.
                        Ok(instr) if j < i && instr.is_terminator() => {
                            ok = false;
                            break;
                        }
                        Ok(instr) => instrs.push(instr),
                        Err(_) => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    out.push(Gadget::new(base + (start * INSTR_BYTES) as u64, instrs));
                }
            }
        }
        out
    }

    /// Scans every executable range of a loaded image inside `machine`.
    pub fn scan_image<P: ExecPath>(&self, machine: &Machine<P>, image: &LoadedImage) -> GadgetSet {
        let mut gadgets = Vec::new();
        for &(start, end) in &image.exec_ranges {
            let bytes = machine.mem().peek(start, (end - start) as usize);
            gadgets.extend(self.scan_bytes(&bytes, start));
        }
        GadgetSet::new(gadgets)
    }
}

/// An indexed catalog of scanned gadgets.
///
/// # Examples
///
/// ```
/// use cr_spectre_rop::gadget::{Gadget, GadgetKind};
/// use cr_spectre_rop::scanner::GadgetSet;
/// use cr_spectre_sim::isa::{Instr, Reg};
///
/// let set = GadgetSet::new(vec![Gadget::new(0x80, vec![Instr::Pop(Reg::R1), Instr::Ret])]);
/// assert!(set.pop_reg(Reg::R1).is_some());
/// assert!(set.pop_reg(Reg::R2).is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct GadgetSet {
    gadgets: Vec<Gadget>,
    by_kind: HashMap<GadgetKind, usize>,
}

impl GadgetSet {
    /// Builds the catalog, indexing the first gadget of each kind (lowest
    /// address wins, matching the determinism of a fixed binary).
    pub fn new(mut gadgets: Vec<Gadget>) -> GadgetSet {
        gadgets.sort_by_key(|g| (g.addr, g.len()));
        let mut by_kind = HashMap::new();
        for (i, g) in gadgets.iter().enumerate() {
            by_kind.entry(g.kind).or_insert(i);
        }
        GadgetSet { gadgets, by_kind }
    }

    /// All gadgets, sorted by address.
    pub fn iter(&self) -> impl Iterator<Item = &Gadget> {
        self.gadgets.iter()
    }

    /// Number of gadgets found.
    pub fn len(&self) -> usize {
        self.gadgets.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.gadgets.is_empty()
    }

    /// The first gadget of exactly `kind`.
    pub fn find(&self, kind: GadgetKind) -> Option<&Gadget> {
        self.by_kind.get(&kind).map(|&i| &self.gadgets[i])
    }

    /// A `pop rN; ret` gadget for the requested register — directly, or as
    /// the second half of a `pop; pop; ret`.
    pub fn pop_reg(&self, reg: Reg) -> Option<&Gadget> {
        self.find(GadgetKind::PopReg(reg))
    }

    /// A `syscall; ret` gadget.
    pub fn syscall_ret(&self) -> Option<&Gadget> {
        self.find(GadgetKind::SyscallRet)
    }

    /// A bare `ret` gadget (chain alignment sled).
    pub fn ret(&self) -> Option<&Gadget> {
        self.find(GadgetKind::Ret)
    }
}

impl IntoIterator for GadgetSet {
    type Item = Gadget;
    type IntoIter = std::vec::IntoIter<Gadget>;

    fn into_iter(self) -> Self::IntoIter {
        self.gadgets.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_spectre_sim::isa::AluOp;

    fn encode(instrs: &[Instr]) -> Vec<u8> {
        instrs.iter().flat_map(|i| i.encode()).collect()
    }

    #[test]
    fn finds_suffixes_of_a_ret() {
        // nop; pop r1; ret → gadgets: [ret], [pop r1; ret],
        // [nop; pop r1; ret]
        let bytes = encode(&[Instr::Nop, Instr::Pop(Reg::R1), Instr::Ret]);
        let scanner = Scanner::default();
        let gadgets = scanner.scan_bytes(&bytes, 0x1000);
        assert_eq!(gadgets.len(), 3);
        let pops: Vec<_> = gadgets
            .iter()
            .filter(|g| g.kind == GadgetKind::PopReg(Reg::R1))
            .collect();
        assert_eq!(pops.len(), 1);
        assert_eq!(pops[0].addr, 0x1000 + 8);
    }

    #[test]
    fn interior_terminators_break_suffixes() {
        // jmp; pop r1; ret → the 3-long suffix crosses the jmp and must be
        // dropped; [pop r1; ret] and [ret] remain.
        let bytes = encode(&[Instr::Jmp(0), Instr::Pop(Reg::R1), Instr::Ret]);
        let gadgets = Scanner::default().scan_bytes(&bytes, 0);
        assert_eq!(gadgets.len(), 2);
        assert!(gadgets.iter().all(|g| g.len() <= 2));
    }

    #[test]
    fn undecodable_bytes_break_suffixes() {
        let mut bytes = encode(&[Instr::Nop, Instr::Pop(Reg::R2), Instr::Ret]);
        bytes[0] = 0xee; // corrupt the first opcode
        let gadgets = Scanner::default().scan_bytes(&bytes, 0);
        assert_eq!(gadgets.len(), 2, "3-long suffix dropped");
    }

    #[test]
    fn max_len_caps_gadget_size() {
        let bytes = encode(&[
            Instr::Nop,
            Instr::Nop,
            Instr::Nop,
            Instr::Pop(Reg::R3),
            Instr::Ret,
        ]);
        let gadgets = Scanner::new(2).scan_bytes(&bytes, 0);
        assert!(gadgets.iter().all(|g| g.len() <= 2));
        assert_eq!(gadgets.len(), 2);
    }

    #[test]
    fn multiple_rets_found() {
        let bytes = encode(&[
            Instr::Pop(Reg::R1),
            Instr::Ret,
            Instr::Pop(Reg::R2),
            Instr::Ret,
        ]);
        let set = GadgetSet::new(Scanner::default().scan_bytes(&bytes, 0));
        assert!(set.pop_reg(Reg::R1).is_some());
        assert!(set.pop_reg(Reg::R2).is_some());
        assert!(set.ret().is_some());
    }

    #[test]
    fn set_prefers_lowest_address() {
        let bytes = encode(&[
            Instr::Pop(Reg::R1),
            Instr::Ret,
            Instr::Pop(Reg::R1),
            Instr::Ret,
        ]);
        let set = GadgetSet::new(Scanner::default().scan_bytes(&bytes, 0x100));
        assert_eq!(set.pop_reg(Reg::R1).unwrap().addr, 0x100);
    }

    #[test]
    fn scans_runtime_linked_image() {
        use cr_spectre_asm::builder::Asm;
        use cr_spectre_asm::runtime::add_runtime;
        use cr_spectre_sim::config::MachineConfig;

        let mut a = Asm::new();
        a.label("main");
        a.halt();
        add_runtime(&mut a);
        let image = a.build("host").unwrap();
        let mut m = Machine::new(MachineConfig::default());
        let li = m.load(&image).unwrap();
        let set = Scanner::default().scan_image(&m, &li);
        // The runtime guarantees the chain builder's working set.
        assert!(set.pop_reg(Reg::R1).is_some());
        assert!(set.pop_reg(Reg::R2).is_some());
        assert!(set.syscall_ret().is_some());
        assert!(set.len() > 20, "rich population, got {}", set.len());
        // Gadget addresses really live inside the image's exec range.
        let (lo, hi) = li.exec_ranges[0];
        assert!(set.iter().all(|g| g.addr >= lo && g.addr < hi));
    }

    #[test]
    fn alu_gadget_classified() {
        let bytes = encode(&[Instr::Alu(AluOp::Add, Reg::R1, Reg::R1, Reg::R2), Instr::Ret]);
        let set = GadgetSet::new(Scanner::default().scan_bytes(&bytes, 0));
        assert!(set.find(GadgetKind::Alu(AluOp::Add, Reg::R1, Reg::R1, Reg::R2)).is_some());
    }

    #[test]
    fn empty_input_yields_nothing() {
        let set = GadgetSet::new(Scanner::default().scan_bytes(&[], 0));
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
    }
}
