//! Disassembler: render executable memory as annotated assembly.
//!
//! Used by the exploit-development workflow (inspecting gadget
//! neighbourhoods), by examples, and by anyone debugging guest code.
//!
//! # Examples
//!
//! ```
//! use cr_spectre_sim::disasm::disassemble;
//! use cr_spectre_sim::isa::{Instr, Reg};
//!
//! let bytes: Vec<u8> = [Instr::Ldi(Reg::R1, 5), Instr::Ret]
//!     .iter()
//!     .flat_map(|i| i.encode())
//!     .collect();
//! let lines = disassemble(&bytes, 0x1000);
//! assert_eq!(lines[0].to_string(), "0x00001000: ldi r1, 5");
//! assert!(lines[1].to_string().ends_with("ret"));
//! ```

use std::collections::BTreeMap;
use std::fmt;

use crate::cpu::Machine;
use crate::image::LoadedImage;
use crate::isa::{Instr, INSTR_BYTES};

/// One disassembled line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisasmLine {
    /// Guest address of the instruction (or undecodable chunk).
    pub addr: u64,
    /// The decoded instruction, or `None` for undecodable bytes.
    pub instr: Option<Instr>,
    /// Raw bytes of this slot.
    pub bytes: [u8; INSTR_BYTES],
    /// Symbol defined at this address, if any.
    pub label: Option<String>,
}

impl fmt::Display for DisasmLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(label) = &self.label {
            writeln!(f, "{label}:")?;
        }
        match &self.instr {
            Some(i) => write!(f, "{:#010x}: {i}", self.addr),
            None => write!(f, "{:#010x}: .bytes {:02x?}", self.addr, self.bytes),
        }
    }
}

/// Disassembles `bytes` mapped at `base`, one line per 8-byte slot.
pub fn disassemble(bytes: &[u8], base: u64) -> Vec<DisasmLine> {
    disassemble_with_symbols(bytes, base, &BTreeMap::new())
}

/// Disassembles with a symbol table (absolute address → name).
pub fn disassemble_with_symbols(
    bytes: &[u8],
    base: u64,
    symbols: &BTreeMap<u64, String>,
) -> Vec<DisasmLine> {
    let mut out = Vec::with_capacity(bytes.len() / INSTR_BYTES);
    for (i, chunk) in bytes.chunks_exact(INSTR_BYTES).enumerate() {
        let addr = base + (i * INSTR_BYTES) as u64;
        let mut raw = [0u8; INSTR_BYTES];
        raw.copy_from_slice(chunk);
        out.push(DisasmLine {
            addr,
            instr: Instr::decode(chunk).ok(),
            bytes: raw,
            label: symbols.get(&addr).cloned(),
        });
    }
    out
}

/// Disassembles every executable range of a loaded image inside a
/// machine, annotated with the image's symbols.
pub fn disassemble_image(machine: &Machine, image: &LoadedImage) -> Vec<DisasmLine> {
    let symbols: BTreeMap<u64, String> =
        image.symbols.iter().map(|(name, &addr)| (addr, name.clone())).collect();
    let mut out = Vec::new();
    for &(start, end) in &image.exec_ranges {
        let bytes = machine.mem().peek(start, (end - start) as usize);
        out.extend(disassemble_with_symbols(&bytes, start, &symbols));
    }
    out
}

/// Renders a window of `context` instructions around `addr` (for gadget
/// inspection and crash triage).
pub fn context_around(machine: &Machine, image: &LoadedImage, addr: u64, context: usize) -> String {
    let lines = disassemble_image(machine, image);
    let center = lines.iter().position(|l| l.addr == addr);
    let Some(center) = center else {
        return format!("{addr:#010x}: <not in image {}>", image.name);
    };
    let lo = center.saturating_sub(context);
    let hi = (center + context + 1).min(lines.len());
    let mut out = String::new();
    for (i, line) in lines[lo..hi].iter().enumerate() {
        let marker = if lo + i == center { "=> " } else { "   " };
        out.push_str(marker);
        out.push_str(&line.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::image::{Image, ImageSegment, SegKind};
    use crate::isa::{AluOp, Reg};

    fn bytes_of(instrs: &[Instr]) -> Vec<u8> {
        instrs.iter().flat_map(|i| i.encode()).collect()
    }

    #[test]
    fn decodes_and_formats() {
        let bytes = bytes_of(&[
            Instr::Ldi(Reg::R2, -4),
            Instr::Alu(AluOp::Add, Reg::R1, Reg::R2, Reg::R3),
            Instr::Ret,
        ]);
        let lines = disassemble(&bytes, 0x100);
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].to_string(), "0x00000100: ldi r2, -4");
        assert_eq!(lines[1].to_string(), "0x00000108: add r1, r2, r3");
        assert_eq!(lines[2].instr, Some(Instr::Ret));
    }

    #[test]
    fn undecodable_bytes_render_raw() {
        let mut bytes = bytes_of(&[Instr::Nop]);
        bytes[0] = 0xee;
        let lines = disassemble(&bytes, 0);
        assert_eq!(lines[0].instr, None);
        assert!(lines[0].to_string().contains(".bytes"));
    }

    #[test]
    fn symbols_become_labels() {
        let bytes = bytes_of(&[Instr::Nop, Instr::Ret]);
        let mut symbols = BTreeMap::new();
        symbols.insert(8u64, "epilogue".to_string());
        let lines = disassemble_with_symbols(&bytes, 0, &symbols);
        assert_eq!(lines[1].label.as_deref(), Some("epilogue"));
        assert!(lines[1].to_string().starts_with("epilogue:\n"));
    }

    #[test]
    fn image_disassembly_round_trips() {
        let instrs = [Instr::Ldi(Reg::R1, 1), Instr::Halt];
        let image = Image::new(
            "t",
            vec![ImageSegment {
                name: ".text".into(),
                kind: SegKind::Text,
                offset: 0,
                bytes: bytes_of(&instrs),
            }],
            0,
        );
        let mut machine = Machine::new(MachineConfig::default());
        let loaded = machine.load(&image).unwrap();
        let lines = disassemble_image(&machine, &loaded);
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].instr, Some(instrs[0]));
        assert_eq!(lines[0].addr, loaded.base);
    }

    #[test]
    fn context_window_marks_the_center() {
        let instrs = [Instr::Nop, Instr::Nop, Instr::Ret, Instr::Nop, Instr::Nop];
        let image = Image::new(
            "t",
            vec![ImageSegment {
                name: ".text".into(),
                kind: SegKind::Text,
                offset: 0,
                bytes: bytes_of(&instrs),
            }],
            0,
        );
        let mut machine = Machine::new(MachineConfig::default());
        let loaded = machine.load(&image).unwrap();
        let text = context_around(&machine, &loaded, loaded.base + 16, 1);
        assert!(text.contains("=> "));
        assert!(text.lines().count() == 3);
        let miss = context_around(&machine, &loaded, 0xdead_0000, 1);
        assert!(miss.contains("not in image"));
    }
}
