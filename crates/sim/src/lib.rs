//! # cr-spectre-sim
//!
//! A from-scratch microarchitectural simulator: the hardware substrate on
//! which the CR-Spectre reproduction (DATE 2022) runs its entire attack
//! chain.
//!
//! The simulated machine executes a 64-bit RISC-style guest ISA and models
//! exactly the microarchitecture the paper's attack and defense need:
//!
//! * **speculative execution** past unresolved branches, with squash-on-
//!   resolve semantics that roll back architectural state but *not* cache
//!   state — the Spectre vulnerability ([`cpu`]);
//! * **branch prediction** structures that can be mistrained: a 2-bit
//!   pattern history table, a branch target buffer, and a return-stack
//!   buffer ([`branch`]);
//! * a **set-associative cache hierarchy** with `CLFLUSH`/`MFENCE` and a
//!   cycle counter (`RDTSC`) — the flush+reload covert channel ([`cache`]);
//! * **memory protection**: DEP/W^X (which forces the attack to reuse
//!   code), optional ASLR, stack canaries and a shadow stack ([`mem`],
//!   [`config`]);
//! * a **performance monitoring unit** with the paper's 56 hardware
//!   performance counters ([`pmu`]), sampled in windows ([`sampling`]);
//! * an **`exec` system call** that injects a registered binary into the
//!   running process image — the landing pad of the paper's ROP chain
//!   ([`cpu::sys`]).
//!
//! # Example
//!
//! ```
//! use cr_spectre_sim::config::MachineConfig;
//! use cr_spectre_sim::cpu::Machine;
//! use cr_spectre_sim::image::{Image, ImageSegment, SegKind};
//! use cr_spectre_sim::isa::{Instr, Reg};
//! use cr_spectre_sim::pmu::HpcEvent;
//!
//! let text: Vec<u8> = [Instr::Ldi(Reg::R1, 2), Instr::Halt]
//!     .iter()
//!     .flat_map(|i| i.encode())
//!     .collect();
//! let image = Image::new(
//!     "hello",
//!     vec![ImageSegment { name: ".text".into(), kind: SegKind::Text, offset: 0, bytes: text }],
//!     0,
//! );
//!
//! let mut machine = Machine::new(MachineConfig::default());
//! let loaded = machine.load(&image)?;
//! machine.start(loaded.entry);
//! let outcome = machine.run();
//! assert!(outcome.exit.is_clean());
//! assert_eq!(machine.pmu().count(HpcEvent::Instructions), 2);
//! # Ok::<(), cr_spectre_sim::error::Fault>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod branch;
pub mod cache;
pub mod config;
pub mod cpu;
pub mod disasm;
pub mod error;
pub mod image;
pub mod isa;
pub mod mem;
pub mod pmu;
pub mod sampling;

pub use config::{ExecPath, Fast, MachineConfig, ProtectConfig, Reference};
pub use cpu::{Machine, StepStatus};
pub use error::{ExitReason, Fault, RunOutcome};
pub use image::{Image, LoadedImage};
pub use isa::{Instr, Reg};
pub use pmu::{HpcEvent, Pmu, PmuSnapshot};
pub use sampling::Sample;
