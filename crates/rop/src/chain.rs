//! ROP-chain construction from a scanned gadget catalog.

use std::fmt;

use cr_spectre_sim::isa::Reg;

use crate::gadget::GadgetKind;
use crate::scanner::GadgetSet;

/// Chain-construction failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// The catalog has no gadget of the required kind.
    MissingGadget(GadgetKind),
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::MissingGadget(k) => write!(f, "no gadget of kind {k:?} available"),
        }
    }
}

impl std::error::Error for ChainError {}

/// A return-oriented program under construction.
///
/// The chain is a sequence of 64-bit stack words. The first word overwrites
/// the victim's saved return address; each gadget's terminating `RET` pops
/// the next word. [`Chain::set_reg`] uses `pop`-gadgets to stage register
/// arguments, [`Chain::invoke`] returns into a whole function (whose own
/// `RET` continues the chain), and [`Chain::resume`] terminates the chain
/// by "returning" to a legitimate continuation address, letting the host
/// carry on as if nothing happened — the stealth property CR-Spectre needs.
///
/// # Examples
///
/// ```
/// use cr_spectre_rop::chain::Chain;
/// use cr_spectre_rop::gadget::Gadget;
/// use cr_spectre_rop::scanner::GadgetSet;
/// use cr_spectre_sim::isa::{Instr, Reg};
///
/// let set = GadgetSet::new(vec![Gadget::new(0x80, vec![Instr::Pop(Reg::R1), Instr::Ret])]);
/// let mut chain = Chain::new(&set);
/// chain.set_reg(Reg::R1, 0xdead)?;
/// chain.invoke(0x4000);
/// assert_eq!(chain.words(), &[0x80, 0xdead, 0x4000]);
/// # Ok::<(), cr_spectre_rop::chain::ChainError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Chain<'a> {
    set: &'a GadgetSet,
    words: Vec<u64>,
}

impl<'a> Chain<'a> {
    /// Starts an empty chain over a gadget catalog.
    pub fn new(set: &'a GadgetSet) -> Chain<'a> {
        Chain { set, words: Vec::new() }
    }

    /// Stages `value` into `reg` via a `pop reg; ret` gadget.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::MissingGadget`] when the catalog lacks a
    /// suitable pop gadget.
    pub fn set_reg(&mut self, reg: Reg, value: u64) -> Result<&mut Self, ChainError> {
        let g = self
            .set
            .pop_reg(reg)
            .ok_or(ChainError::MissingGadget(GadgetKind::PopReg(reg)))?;
        self.words.push(g.addr);
        self.words.push(value);
        Ok(self)
    }

    /// Returns into an arbitrary address (a gadget or a whole function).
    pub fn invoke(&mut self, addr: u64) -> &mut Self {
        self.words.push(addr);
        self
    }

    /// Appends a `syscall; ret` gadget (syscall number must already be
    /// staged in `r0`).
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::MissingGadget`] when no such gadget exists.
    pub fn syscall(&mut self) -> Result<&mut Self, ChainError> {
        let g = self
            .set
            .syscall_ret()
            .ok_or(ChainError::MissingGadget(GadgetKind::SyscallRet))?;
        self.words.push(g.addr);
        Ok(self)
    }

    /// Appends a raw data word (consumed by the previous gadget's pops).
    pub fn word(&mut self, value: u64) -> &mut Self {
        self.words.push(value);
        self
    }

    /// Terminates the chain with a final return target, usually a legal
    /// continuation point inside the host.
    pub fn resume(&mut self, addr: u64) -> &mut Self {
        self.words.push(addr);
        self
    }

    /// The chain as stack words (first word = return-address overwrite).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Serializes the chain to little-endian bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gadget::Gadget;
    use cr_spectre_sim::isa::Instr;

    fn catalog() -> GadgetSet {
        GadgetSet::new(vec![
            Gadget::new(0x100, vec![Instr::Pop(Reg::R1), Instr::Ret]),
            Gadget::new(0x110, vec![Instr::Pop(Reg::R2), Instr::Ret]),
            Gadget::new(0x120, vec![Instr::Syscall, Instr::Ret]),
            Gadget::new(0x130, vec![Instr::Ret]),
        ])
    }

    #[test]
    fn builds_exec_style_chain() {
        let set = catalog();
        let mut chain = Chain::new(&set);
        chain.set_reg(Reg::R1, 0x2000).unwrap();
        chain.invoke(0x9000);
        chain.resume(0x1234);
        assert_eq!(chain.words(), &[0x100, 0x2000, 0x9000, 0x1234]);
    }

    #[test]
    fn syscall_gadget() {
        let set = catalog();
        let mut chain = Chain::new(&set);
        chain.set_reg(Reg::R2, 5).unwrap().syscall().unwrap();
        assert_eq!(chain.words(), &[0x110, 5, 0x120]);
    }

    #[test]
    fn missing_gadget_errors() {
        let set = GadgetSet::new(vec![Gadget::new(0, vec![Instr::Ret])]);
        let mut chain = Chain::new(&set);
        let err = chain.set_reg(Reg::R7, 1).unwrap_err();
        assert_eq!(err, ChainError::MissingGadget(GadgetKind::PopReg(Reg::R7)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn byte_serialization_is_little_endian() {
        let set = catalog();
        let mut chain = Chain::new(&set);
        chain.word(0x0102_0304_0506_0708);
        assert_eq!(chain.to_bytes(), vec![8, 7, 6, 5, 4, 3, 2, 1]);
    }
}
