//! Executable image format: segments, symbols and relocations.
//!
//! An [`Image`] is the simulator's analogue of a linked ELF binary: a set of
//! byte segments with page permissions, a symbol table, an entry point, and
//! relocation records that let the loader rebase absolute addresses when
//! ASLR slides the image. Images are built by the `cr-spectre-asm`
//! assembler and registered with a machine so the `exec` system call can
//! inject them at runtime — the paper's ROP chain ends in exactly such an
//! `execve`-style injection.

use std::collections::BTreeMap;
use std::fmt;

use crate::mem::Perms;

/// Classification of a segment (affects default permissions and gadget
/// scanning, which only looks at executable segments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegKind {
    /// Executable code (`r-x`).
    Text,
    /// Read-only data (`r--`).
    Rodata,
    /// Mutable data (`rw-`).
    Data,
}

impl SegKind {
    /// The default permissions for this kind under DEP/W^X.
    pub fn default_perms(self) -> Perms {
        match self {
            SegKind::Text => Perms::RX,
            SegKind::Rodata => Perms::R,
            SegKind::Data => Perms::RW,
        }
    }
}

/// One contiguous segment of an image.
#[derive(Debug, Clone)]
pub struct ImageSegment {
    /// Segment name (e.g. `.text`).
    pub name: String,
    /// Segment classification.
    pub kind: SegKind,
    /// Image-relative load offset.
    pub offset: u64,
    /// Raw contents.
    pub bytes: Vec<u8>,
}

/// Kind of relocation field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelocKind {
    /// A 32-bit immediate field holding an absolute guest address
    /// (the `imm32` slot of an encoded instruction).
    Imm32,
    /// A 64-bit little-endian absolute address in a data segment.
    Abs64,
}

impl RelocKind {
    /// Bytes the loader writes for a field of this kind.
    pub fn width(self) -> u64 {
        match self {
            RelocKind::Imm32 => 4,
            RelocKind::Abs64 => 8,
        }
    }
}

/// A relocation record: "the field at image-relative `at` must hold
/// `image_base + addend` once the image is placed".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reloc {
    /// Image-relative byte position of the field to patch.
    pub at: u64,
    /// Image-relative target address the field refers to.
    pub addend: u64,
    /// Field width/interpretation.
    pub kind: RelocKind,
}

/// A linked executable image.
///
/// # Examples
///
/// ```
/// use cr_spectre_sim::image::{Image, ImageSegment, SegKind};
///
/// let image = Image::new(
///     "demo",
///     vec![ImageSegment {
///         name: ".text".into(),
///         kind: SegKind::Text,
///         offset: 0,
///         bytes: cr_spectre_sim::isa::Instr::Halt.encode().to_vec(),
///     }],
///     0,
/// );
/// assert_eq!(image.size(), cr_spectre_sim::mem::PAGE_SIZE);
/// ```
#[derive(Debug, Clone)]
pub struct Image {
    /// Binary name used by the `exec` syscall registry.
    pub name: String,
    /// Load segments, each placed at `base + offset`.
    pub segments: Vec<ImageSegment>,
    /// Symbol table: name → image-relative address.
    pub symbols: BTreeMap<String, u64>,
    /// Relocation records applied at load time.
    pub relocs: Vec<Reloc>,
    /// Image-relative entry point.
    pub entry: u64,
}

impl Image {
    /// Creates an image from segments and an entry offset.
    pub fn new(name: impl Into<String>, segments: Vec<ImageSegment>, entry: u64) -> Image {
        Image {
            name: name.into(),
            segments,
            symbols: BTreeMap::new(),
            relocs: Vec::new(),
            entry,
        }
    }

    /// Total footprint in bytes, rounded up to a whole page.
    ///
    /// An extent that overflows the address space (a segment offset near
    /// `u64::MAX`) saturates to `u64::MAX`, which no memory can hold, so
    /// [`crate::cpu::Machine::load`] rejects such an image with a fault.
    pub fn size(&self) -> u64 {
        self.segments
            .iter()
            .try_fold(0u64, |end, s| {
                let seg_end = s.offset.checked_add(s.bytes.len() as u64)?;
                Some(end.max(seg_end))
            })
            .and_then(|end| end.checked_next_multiple_of(crate::mem::PAGE_SIZE))
            .unwrap_or(u64::MAX)
    }

    /// Looks up a symbol's image-relative address.
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).copied()
    }
}

impl fmt::Display for Image {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "image {} ({} bytes, entry {:#x})", self.name, self.size(), self.entry)?;
        for seg in &self.segments {
            writeln!(
                f,
                "  {:>8} {:?} offset {:#x} len {:#x}",
                seg.name,
                seg.kind,
                seg.offset,
                seg.bytes.len()
            )?;
        }
        Ok(())
    }
}

/// The result of placing an image in guest memory.
#[derive(Debug, Clone)]
pub struct LoadedImage {
    /// Name of the loaded image.
    pub name: String,
    /// Guest base address it was placed at.
    pub base: u64,
    /// Absolute entry point.
    pub entry: u64,
    /// Absolute symbol addresses.
    pub symbols: BTreeMap<String, u64>,
    /// Absolute `[start, end)` ranges of executable bytes (for gadget
    /// scanning).
    pub exec_ranges: Vec<(u64, u64)>,
}

impl LoadedImage {
    /// Absolute address of `name`.
    ///
    /// # Panics
    ///
    /// Panics when the symbol does not exist — loader-resolved symbols are
    /// a programming contract, not runtime input.
    pub fn addr(&self, name: &str) -> u64 {
        match self.symbols.get(name) {
            Some(&a) => a,
            None => panic!("undefined symbol {name:?} in image {}", self.name),
        }
    }

    /// Absolute address of `name`, or `None`.
    pub fn try_addr(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Instr;

    fn demo_image() -> Image {
        let text = ImageSegment {
            name: ".text".into(),
            kind: SegKind::Text,
            offset: 0,
            bytes: Instr::Halt.encode().to_vec(),
        };
        let data = ImageSegment {
            name: ".data".into(),
            kind: SegKind::Data,
            offset: 0x2000,
            bytes: vec![1, 2, 3],
        };
        let mut img = Image::new("demo", vec![text, data], 0);
        img.symbols.insert("main".into(), 0);
        img.symbols.insert("stuff".into(), 0x2000);
        img
    }

    #[test]
    fn size_covers_all_segments() {
        let img = demo_image();
        assert_eq!(img.size(), 0x3000);
    }

    #[test]
    fn empty_image_size_is_zero() {
        let img = Image::new("empty", vec![], 0);
        assert_eq!(img.size(), 0);
    }

    #[test]
    fn size_saturates_instead_of_overflowing() {
        let mut img = demo_image();
        img.segments[1].offset = u64::MAX - 1;
        assert_eq!(img.size(), u64::MAX, "offset + len overflows");
        img.segments[1].offset = u64::MAX - 8;
        assert_eq!(img.size(), u64::MAX, "rounding up to a page overflows");
    }

    #[test]
    fn symbol_lookup() {
        let img = demo_image();
        assert_eq!(img.symbol("stuff"), Some(0x2000));
        assert_eq!(img.symbol("missing"), None);
    }

    #[test]
    fn seg_kind_perms() {
        assert_eq!(SegKind::Text.default_perms(), Perms::RX);
        assert_eq!(SegKind::Data.default_perms(), Perms::RW);
        assert!(!SegKind::Data.default_perms().x, "DEP: data is never executable");
    }

    #[test]
    fn display_mentions_segments() {
        let s = demo_image().to_string();
        assert!(s.contains(".text"));
        assert!(s.contains(".data"));
    }

    #[test]
    #[should_panic(expected = "undefined symbol")]
    fn loaded_image_addr_panics_on_missing() {
        let li = LoadedImage {
            name: "x".into(),
            base: 0,
            entry: 0,
            symbols: BTreeMap::new(),
            exec_ranges: vec![],
        };
        let _ = li.addr("nope");
    }
}
