//! Programmatic assembler: build linked [`Image`]s instruction by
//! instruction.
//!
//! [`Asm`] is a two-pass assembler. The first pass records instructions,
//! label references and data directives; [`Asm::build`] resolves labels,
//! lays out sections (`.text` at offset 0, then `.rodata`, then `.data`,
//! each page-aligned) and emits relocation records for absolute-address
//! references so the loader can rebase the image under ASLR.
//!
//! # Examples
//!
//! ```
//! use cr_spectre_asm::builder::Asm;
//! use cr_spectre_sim::isa::{AluOp, Reg};
//!
//! let mut asm = Asm::new();
//! asm.label("main");
//! asm.ldi(Reg::R1, 40);
//! asm.alui(AluOp::Add, Reg::R1, Reg::R1, 2);
//! asm.halt();
//! let image = asm.build("demo")?;
//! assert_eq!(image.symbol("main"), Some(0));
//! # Ok::<(), cr_spectre_asm::AsmError>(())
//! ```

use std::collections::BTreeMap;
use std::fmt;

use cr_spectre_sim::cpu::{HEAP_BASE, IMAGE_BASE};
use cr_spectre_sim::image::{Image, ImageSegment, Reloc, RelocKind, SegKind};
use cr_spectre_sim::isa::{AluOp, BranchCond, Instr, Reg, Width, INSTR_BYTES};
use cr_spectre_sim::mem::PAGE_SIZE;

/// Errors produced while assembling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A referenced label was never defined.
    UndefinedLabel(String),
    /// The same label was defined twice.
    DuplicateLabel(String),
    /// A branch target is too far for the 32-bit offset field.
    OffsetOverflow(String),
    /// The image would be larger than [`MAX_IMAGE_BYTES`].
    ImageTooLarge,
}

/// The most bytes an image can span: every machine loads images between
/// [`IMAGE_BASE`] and its heap at [`HEAP_BASE`], so a larger one could
/// never load, and [`Asm::build`] rejects it before laying it out.
pub const MAX_IMAGE_BYTES: u64 = HEAP_BASE - IMAGE_BASE;

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label {l:?}"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label {l:?}"),
            AsmError::OffsetOverflow(l) => write!(f, "branch offset to {l:?} overflows"),
            AsmError::ImageTooLarge => write!(f, "image exceeds {MAX_IMAGE_BYTES} bytes"),
        }
    }
}

impl std::error::Error for AsmError {}

/// One pending text item (exactly one encoded instruction each).
#[derive(Debug, Clone)]
enum TextItem {
    /// A fully resolved instruction.
    Fixed(Instr),
    /// Conditional branch to a label (PC-relative, resolved at build).
    Branch(BranchCond, Reg, Reg, String),
    /// Unconditional jump to a label.
    JmpTo(String),
    /// Call to a label.
    CallTo(String),
    /// Load the absolute address of a label (`LDI` + `Imm32` relocation).
    La(Reg, String),
}

/// One pending data item.
#[derive(Debug, Clone)]
enum DataItem {
    /// Raw bytes.
    Bytes(Vec<u8>),
    /// Zero-filled space.
    Space(u64),
    /// A 64-bit constant.
    Quad(u64),
    /// The absolute address of a label (`Abs64` relocation).
    QuadLabel(String),
}

impl DataItem {
    fn len(&self) -> u64 {
        match self {
            DataItem::Bytes(b) => b.len() as u64,
            DataItem::Space(n) => *n,
            DataItem::Quad(_) | DataItem::QuadLabel(_) => 8,
        }
    }
}

/// Which section a label lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Text,
    Rodata,
    Data,
}

/// The two-pass programmatic assembler.
#[derive(Debug, Clone, Default)]
pub struct Asm {
    text: Vec<TextItem>,
    rodata: Vec<DataItem>,
    data: Vec<DataItem>,
    /// label → (section, item-granular offset within that section)
    labels: BTreeMap<String, (Section, u64)>,
    entry: Option<String>,
}

impl Asm {
    /// Creates an empty program.
    pub fn new() -> Asm {
        Asm::default()
    }

    /// Current `.text` offset in bytes (address of the *next* instruction,
    /// image-relative).
    pub fn here(&self) -> u64 {
        self.text.len() as u64 * INSTR_BYTES as u64
    }

    /// Defines a label at the current `.text` position.
    ///
    /// # Panics
    ///
    /// Panics on duplicate labels — label names are a programming contract.
    pub fn label(&mut self, name: impl Into<String>) {
        let name = name.into();
        let prev = self.labels.insert(name.clone(), (Section::Text, self.here()));
        assert!(prev.is_none(), "duplicate label {name:?}");
    }

    /// Whether `name` is already defined in any section (the text parser
    /// checks this to report duplicates as errors instead of panicking).
    pub(crate) fn has_label(&self, name: &str) -> bool {
        self.labels.contains_key(name)
    }

    /// Selects `label` as the entry point (default: offset 0).
    pub fn entry(&mut self, label: impl Into<String>) {
        self.entry = Some(label.into());
    }

    /// Emits a raw instruction.
    pub fn instr(&mut self, i: Instr) {
        self.text.push(TextItem::Fixed(i));
    }

    // --- instruction helpers -----------------------------------------

    /// `nop`
    pub fn nop(&mut self) {
        self.instr(Instr::Nop);
    }

    /// `halt`
    pub fn halt(&mut self) {
        self.instr(Instr::Halt);
    }

    /// `ldi rd, imm`
    pub fn ldi(&mut self, rd: Reg, imm: i32) {
        self.instr(Instr::Ldi(rd, imm));
    }

    /// `mov rd, rs`
    pub fn mov(&mut self, rd: Reg, rs: Reg) {
        self.instr(Instr::Mov(rd, rs));
    }

    /// Three-operand ALU op.
    pub fn alu(&mut self, op: AluOp, rd: Reg, rs1: Reg, rs2: Reg) {
        self.instr(Instr::Alu(op, rd, rs1, rs2));
    }

    /// Immediate ALU op.
    pub fn alui(&mut self, op: AluOp, rd: Reg, rs1: Reg, imm: i32) {
        self.instr(Instr::Alui(op, rd, rs1, imm));
    }

    /// Load of the given width: `rd = mem[rs1 + imm]`.
    pub fn ld(&mut self, w: Width, rd: Reg, rs1: Reg, imm: i32) {
        self.instr(Instr::Ld(w, rd, rs1, imm));
    }

    /// Store of the given width: `mem[rs1 + imm] = rs2`.
    pub fn st(&mut self, w: Width, rs1: Reg, rs2: Reg, imm: i32) {
        self.instr(Instr::St(w, rs1, rs2, imm));
    }

    /// Conditional branch to `label`.
    pub fn br(&mut self, cond: BranchCond, rs1: Reg, rs2: Reg, label: impl Into<String>) {
        self.text.push(TextItem::Branch(cond, rs1, rs2, label.into()));
    }

    /// Unconditional jump to `label`.
    pub fn jmp(&mut self, label: impl Into<String>) {
        self.text.push(TextItem::JmpTo(label.into()));
    }

    /// Indirect jump through `rs`.
    pub fn jmpr(&mut self, rs: Reg) {
        self.instr(Instr::JmpR(rs));
    }

    /// Call `label`.
    pub fn call(&mut self, label: impl Into<String>) {
        self.text.push(TextItem::CallTo(label.into()));
    }

    /// Indirect call through `rs`.
    pub fn callr(&mut self, rs: Reg) {
        self.instr(Instr::CallR(rs));
    }

    /// `ret`
    pub fn ret(&mut self) {
        self.instr(Instr::Ret);
    }

    /// `push rs`
    pub fn push(&mut self, rs: Reg) {
        self.instr(Instr::Push(rs));
    }

    /// `pop rd`
    pub fn pop(&mut self, rd: Reg) {
        self.instr(Instr::Pop(rd));
    }

    /// `clflush [rs1 + imm]`
    pub fn clflush(&mut self, rs1: Reg, imm: i32) {
        self.instr(Instr::ClFlush(rs1, imm));
    }

    /// `mfence`
    pub fn mfence(&mut self) {
        self.instr(Instr::MFence);
    }

    /// `rdtsc rd`
    pub fn rdtsc(&mut self, rd: Reg) {
        self.instr(Instr::Rdtsc(rd));
    }

    /// `syscall`
    pub fn syscall(&mut self) {
        self.instr(Instr::Syscall);
    }

    /// Loads the absolute address of `label` into `rd` (relocated).
    pub fn la(&mut self, rd: Reg, label: impl Into<String>) {
        self.text.push(TextItem::La(rd, label.into()));
    }

    // --- data directives ---------------------------------------------

    fn data_section(&mut self, section: Section) -> &mut Vec<DataItem> {
        match section {
            Section::Rodata => &mut self.rodata,
            Section::Data => &mut self.data,
            Section::Text => unreachable!("text handled separately"),
        }
    }

    /// The current length of `section`, saturating: one past
    /// [`MAX_IMAGE_BYTES`] fails [`Asm::build`] anyway.
    fn data_offset(&self, section: Section) -> u64 {
        let len = |items: &[DataItem]| items.iter().fold(0u64, |n, item| n.saturating_add(item.len()));
        match section {
            Section::Rodata => len(&self.rodata),
            Section::Data => len(&self.data),
            Section::Text => unreachable!(),
        }
    }

    fn define_data_label(&mut self, section: Section, name: String) {
        let off = self.data_offset(section);
        let prev = self.labels.insert(name.clone(), (section, off));
        assert!(prev.is_none(), "duplicate label {name:?}");
    }

    /// Defines a label at the current `.data` position.
    pub fn data_label(&mut self, name: impl Into<String>) {
        self.define_data_label(Section::Data, name.into());
    }

    /// Defines a label at the current `.rodata` position.
    pub fn rodata_label(&mut self, name: impl Into<String>) {
        self.define_data_label(Section::Rodata, name.into());
    }

    /// Appends raw bytes to `.data`.
    pub fn db(&mut self, bytes: &[u8]) {
        self.data_section(Section::Data).push(DataItem::Bytes(bytes.to_vec()));
    }

    /// Appends raw bytes to `.rodata`.
    pub fn rodata_bytes(&mut self, bytes: &[u8]) {
        self.data_section(Section::Rodata).push(DataItem::Bytes(bytes.to_vec()));
    }

    /// Appends a NUL-terminated string to `.data`.
    pub fn asciz(&mut self, s: &str) {
        let mut b = s.as_bytes().to_vec();
        b.push(0);
        self.db(&b);
    }

    /// Reserves `n` zero bytes in `.data`.
    pub fn space(&mut self, n: u64) {
        self.data_section(Section::Data).push(DataItem::Space(n));
    }

    /// Appends a 64-bit constant to `.data`.
    pub fn dq(&mut self, value: u64) {
        self.data_section(Section::Data).push(DataItem::Quad(value));
    }

    /// Appends the absolute address of `label` to `.data` (relocated).
    pub fn dq_label(&mut self, label: impl Into<String>) {
        self.data_section(Section::Data).push(DataItem::QuadLabel(label.into()));
    }

    // --- build ---------------------------------------------------------

    /// Assembles into a linked [`Image`] named `name`.
    ///
    /// All labels become image symbols. The entry point is the label set by
    /// [`Asm::entry`], the label `main` if present, or offset 0.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError`] for undefined labels, offsets that do not fit
    /// the instruction encoding, or an image larger than
    /// [`MAX_IMAGE_BYTES`].
    pub fn build(&self, name: impl Into<String>) -> Result<Image, AsmError> {
        let page_align = |n: u64| n.div_ceil(PAGE_SIZE).saturating_mul(PAGE_SIZE);
        let rodata_off = page_align(self.here());
        let data_off = page_align(rodata_off.saturating_add(self.data_offset(Section::Rodata)));
        if data_off.saturating_add(self.data_offset(Section::Data)) > MAX_IMAGE_BYTES {
            return Err(AsmError::ImageTooLarge);
        }

        // Resolve every label to an image-relative address.
        let resolve = |label: &str| -> Result<u64, AsmError> {
            let (section, off) = self
                .labels
                .get(label)
                .ok_or_else(|| AsmError::UndefinedLabel(label.to_string()))?;
            Ok(match section {
                Section::Text => *off,
                Section::Rodata => rodata_off + off,
                Section::Data => data_off + off,
            })
        };

        let mut relocs: Vec<Reloc> = Vec::new();
        let mut text = Vec::with_capacity(self.text.len() * INSTR_BYTES);
        for (idx, item) in self.text.iter().enumerate() {
            let pc = idx as u64 * INSTR_BYTES as u64;
            let instr = match item {
                TextItem::Fixed(i) => *i,
                TextItem::Branch(cond, rs1, rs2, label) => {
                    let target = resolve(label)?;
                    let off = rel_offset(pc, target, label)?;
                    Instr::Br(*cond, *rs1, *rs2, off)
                }
                TextItem::JmpTo(label) => {
                    let target = resolve(label)?;
                    Instr::Jmp(rel_offset(pc, target, label)?)
                }
                TextItem::CallTo(label) => {
                    let target = resolve(label)?;
                    Instr::Call(rel_offset(pc, target, label)?)
                }
                TextItem::La(rd, label) => {
                    let target = resolve(label)?;
                    // The imm field is rebased by the loader.
                    relocs.push(Reloc {
                        at: pc + 4,
                        addend: target,
                        kind: RelocKind::Imm32,
                    });
                    Instr::Ldi(*rd, target as i32)
                }
            };
            text.extend_from_slice(&instr.encode());
        }

        let mut emit_data = |items: &[DataItem], base: u64| -> Result<Vec<u8>, AsmError> {
            let mut out = Vec::new();
            for item in items {
                match item {
                    DataItem::Bytes(b) => out.extend_from_slice(b),
                    DataItem::Space(n) => out.extend(std::iter::repeat_n(0u8, *n as usize)),
                    DataItem::Quad(v) => out.extend_from_slice(&v.to_le_bytes()),
                    DataItem::QuadLabel(label) => {
                        let target = resolve(label)?;
                        relocs.push(Reloc {
                            at: base + out.len() as u64,
                            addend: target,
                            kind: RelocKind::Abs64,
                        });
                        out.extend_from_slice(&target.to_le_bytes());
                    }
                }
            }
            Ok(out)
        };

        let rodata_bytes = emit_data(&self.rodata, rodata_off)?;
        let data_bytes = emit_data(&self.data, data_off)?;

        let mut segments = vec![ImageSegment {
            name: ".text".into(),
            kind: SegKind::Text,
            offset: 0,
            bytes: text,
        }];
        if !rodata_bytes.is_empty() {
            segments.push(ImageSegment {
                name: ".rodata".into(),
                kind: SegKind::Rodata,
                offset: rodata_off,
                bytes: rodata_bytes,
            });
        }
        if !data_bytes.is_empty() {
            segments.push(ImageSegment {
                name: ".data".into(),
                kind: SegKind::Data,
                offset: data_off,
                bytes: data_bytes,
            });
        }

        let entry = match &self.entry {
            Some(label) => resolve(label)?,
            None => match self.labels.get("main") {
                Some(_) => resolve("main")?,
                None => 0,
            },
        };

        let mut image = Image::new(name, segments, entry);
        for (label, _) in self.labels.iter() {
            image.symbols.insert(label.clone(), resolve(label)?);
        }
        image.relocs = relocs;
        Ok(image)
    }
}

fn rel_offset(pc: u64, target: u64, label: &str) -> Result<i32, AsmError> {
    let off = target.wrapping_sub(pc) as i64;
    i32::try_from(off).map_err(|_| AsmError::OffsetOverflow(label.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_spectre_sim::config::MachineConfig;
    use cr_spectre_sim::cpu::Machine;

    fn run(asm: &Asm) -> Machine {
        let image = asm.build("t").unwrap();
        let mut m = Machine::new(MachineConfig::default());
        let li = m.load(&image).unwrap();
        m.start(li.entry);
        let out = m.run();
        assert!(out.exit.is_clean(), "{:?}", out.exit);
        m
    }

    #[test]
    fn forward_and_backward_branches() {
        let mut a = Asm::new();
        a.label("main");
        a.ldi(Reg::R1, 0);
        a.ldi(Reg::R2, 5);
        a.label("loop");
        a.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
        a.br(BranchCond::Ne, Reg::R1, Reg::R2, "loop");
        a.jmp("end");
        a.ldi(Reg::R1, 999); // skipped
        a.label("end");
        a.halt();
        let m = run(&a);
        assert_eq!(m.reg(Reg::R1), 5);
    }

    #[test]
    fn call_to_label() {
        let mut a = Asm::new();
        a.label("main");
        a.call("f");
        a.halt();
        a.label("f");
        a.ldi(Reg::R3, 17);
        a.ret();
        let m = run(&a);
        assert_eq!(m.reg(Reg::R3), 17);
    }

    #[test]
    fn data_and_la() {
        let mut a = Asm::new();
        a.label("main");
        a.la(Reg::R1, "value");
        a.ld(Width::D, Reg::R2, Reg::R1, 0);
        a.halt();
        a.data_label("value");
        a.dq(0xfeed);
        let m = run(&a);
        assert_eq!(m.reg(Reg::R2), 0xfeed);
    }

    #[test]
    fn dq_label_produces_relocated_pointer() {
        let mut a = Asm::new();
        a.label("main");
        a.la(Reg::R1, "ptr");
        a.ld(Width::D, Reg::R2, Reg::R1, 0); // r2 = &value
        a.ld(Width::D, Reg::R3, Reg::R2, 0); // r3 = *r2
        a.halt();
        a.data_label("ptr");
        a.dq_label("value");
        a.data_label("value");
        a.dq(42);
        let m = run(&a);
        assert_eq!(m.reg(Reg::R3), 42);
    }

    #[test]
    fn asciz_and_space() {
        let mut a = Asm::new();
        a.label("main");
        a.la(Reg::R1, "msg");
        a.ld(Width::B, Reg::R2, Reg::R1, 0);
        a.halt();
        a.data_label("msg");
        a.asciz("Hi");
        a.data_label("buf");
        a.space(64);
        let image = a.build("t").unwrap();
        let msg = image.symbol("msg").unwrap();
        let buf = image.symbol("buf").unwrap();
        assert_eq!(buf - msg, 3, "asciz includes the NUL");
        let m = run(&a);
        assert_eq!(m.reg(Reg::R2), b'H' as u64);
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut a = Asm::new();
        a.jmp("nowhere");
        assert_eq!(
            a.build("t").unwrap_err(),
            AsmError::UndefinedLabel("nowhere".into())
        );
    }

    #[test]
    #[should_panic(expected = "duplicate label")]
    fn duplicate_label_panics() {
        let mut a = Asm::new();
        a.label("x");
        a.label("x");
    }

    #[test]
    fn entry_defaults_to_main() {
        let mut a = Asm::new();
        a.nop();
        a.label("main");
        a.halt();
        let image = a.build("t").unwrap();
        assert_eq!(image.entry, INSTR_BYTES as u64);
    }

    #[test]
    fn explicit_entry_overrides_main() {
        let mut a = Asm::new();
        a.label("main");
        a.halt();
        a.label("start2");
        a.ldi(Reg::R1, 1);
        a.halt();
        a.entry("start2");
        let image = a.build("t").unwrap();
        assert_eq!(image.entry, image.symbol("start2").unwrap());
    }

    #[test]
    fn sections_are_page_aligned() {
        let mut a = Asm::new();
        a.label("main");
        a.halt();
        a.rodata_label("ro");
        a.rodata_bytes(b"const");
        a.data_label("rw");
        a.dq(1);
        let image = a.build("t").unwrap();
        for seg in &image.segments {
            assert_eq!(seg.offset % PAGE_SIZE, 0, "{}", seg.name);
        }
        assert!(image.symbol("rw").unwrap() > image.symbol("ro").unwrap());
    }

    #[test]
    fn rodata_is_not_writable_at_runtime() {
        let mut a = Asm::new();
        a.label("main");
        a.la(Reg::R1, "ro");
        a.ldi(Reg::R2, 1);
        a.st(Width::B, Reg::R1, Reg::R2, 0);
        a.halt();
        a.rodata_label("ro");
        a.rodata_bytes(b"x");
        let image = a.build("t").unwrap();
        let mut m = Machine::new(MachineConfig::default());
        let li = m.load(&image).unwrap();
        m.start(li.entry);
        assert!(!m.run().exit.is_clean(), "store to .rodata must fault");
    }
}
