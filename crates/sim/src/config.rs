//! Machine configuration: microarchitectural parameters, protections and
//! the execution path.

use std::marker::PhantomData;

use crate::cache::HierarchyConfig;

mod sealed {
    pub trait Sealed {}
}

/// How the simulator executes: a type parameter of [`MachineConfig`],
/// [`Machine`](crate::cpu::Machine), [`Memory`](crate::mem::Memory) and
/// the caches, read only as [`ExecPath::FAST`]. Sealed: the paths are
/// [`Fast`] and [`Reference`], and results are bit-identical on both.
pub trait ExecPath: sealed::Sealed + Copy + std::fmt::Debug + Eq + Send + Sync + 'static {
    /// Whether the interpreter's caches and batching are on.
    const FAST: bool;
}

/// The production path: block cache, the caches' hit batches, batched
/// PMU counters, the permission cache and shift/mask cache indexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fast;

/// The reference path, none of those: the oracle `Fast` is tested against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference;

impl sealed::Sealed for Fast {}
impl sealed::Sealed for Reference {}

impl ExecPath for Fast {
    const FAST: bool = true;
}

impl ExecPath for Reference {
    const FAST: bool = false;
}

/// Software/hardware mitigations that can be toggled per machine.
///
/// Defaults mirror the paper's testbed: DEP on (which is *why* the attack
/// needs ROP), ASLR and stack canaries off (the paper notes both exist and
/// are bypassable; experiments run with the adversary knowing addresses),
/// `CLFLUSH` available to unprivileged code, and no shadow stack. The
/// countermeasures of the paper's §IV are reproduced by flipping
/// [`clflush_enabled`](ProtectConfig::clflush_enabled) and
/// [`shadow_stack`](ProtectConfig::shadow_stack).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtectConfig {
    /// Data Execution Prevention: data/stack pages are non-executable.
    pub dep: bool,
    /// Address-space layout randomization seed; `None` disables ASLR.
    pub aslr_seed: Option<u64>,
    /// Stack canaries (checked by assembler-emitted epilogues).
    pub stack_canary: bool,
    /// Hardware shadow stack: `RET` to a manipulated address faults.
    pub shadow_stack: bool,
    /// Whether unprivileged `CLFLUSH` is allowed (§IV countermeasure
    /// disables it, killing both the covert channel and Algorithm 2).
    pub clflush_enabled: bool,
    /// InvisiSpec-style invisible speculation (Yan et al., MICRO'18,
    /// discussed in the paper's §I): transient loads read through a
    /// speculative buffer and **never fill the cache**; every committed
    /// load pays a validation/re-load penalty
    /// ([`MachineConfig::invisispec_load_penalty`]).
    pub invisispec: bool,
    /// Context-Sensitive Fencing (Taram et al., ASPLOS'19, §I): microcode
    /// injects fences into the dynamic instruction stream, so branches
    /// serialize and no transient execution happens past them.
    pub csf: bool,
}

impl Default for ProtectConfig {
    fn default() -> ProtectConfig {
        ProtectConfig {
            dep: true,
            aslr_seed: None,
            stack_canary: false,
            shadow_stack: false,
            clflush_enabled: true,
            invisispec: false,
            csf: false,
        }
    }
}

/// Full machine configuration. `P` picks the execution path of the
/// [`Machine`](crate::cpu::Machine) built from it; every constructor
/// builds [`Fast`], and [`MachineConfig::with_path`] converts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineConfig<P: ExecPath = Fast> {
    /// Guest physical memory size in bytes: the guest address space, and
    /// where the stack sits (at its top). Host memory grows with the pages
    /// the guest writes, not with this size (see [`crate::mem::Memory`]);
    /// only the per-page tables, 3 bytes of permissions and a 4-byte slot
    /// per page, scale with it.
    pub mem_size: u64,
    /// Cache hierarchy geometry and latencies.
    pub caches: HierarchyConfig,
    /// Maximum number of instructions executed transiently past an
    /// unresolved branch (ROB-size analogue).
    pub spec_window: u64,
    /// Cycles lost re-steering the front end after a mispredict.
    pub mispredict_penalty: u64,
    /// Protections in force.
    pub protect: ProtectConfig,
    /// Validation cost added to every committed load under InvisiSpec
    /// (the re-load from the speculative buffer).
    pub invisispec_load_penalty: u64,
    /// Serialization cost added to every conditional branch under
    /// Context-Sensitive Fencing (the injected fence micro-ops).
    pub csf_fence_penalty: u64,
    /// Architectural instruction budget; exceeded → the run faults.
    pub max_instructions: u64,
    /// Stack size in bytes.
    pub stack_size: u64,
    /// Seed for machine-internal randomness (canary value, `getrand`).
    pub seed: u64,
    /// The execution path (zero-sized).
    pub path: PhantomData<P>,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            mem_size: 16 * 1024 * 1024,
            caches: HierarchyConfig::default(),
            spec_window: 64,
            mispredict_penalty: 15,
            protect: ProtectConfig::default(),
            invisispec_load_penalty: 3,
            csf_fence_penalty: 2,
            max_instructions: 500_000_000,
            stack_size: 512 * 1024,
            seed: 0xc0ffee,
            path: PhantomData,
        }
    }
}

impl MachineConfig {
    /// A configuration with every mitigation of the paper's §IV enabled:
    /// `CLFLUSH` disabled for guest code and a shadow stack checking every
    /// return.
    pub fn hardened() -> MachineConfig {
        MachineConfig {
            protect: ProtectConfig {
                clflush_enabled: false,
                shadow_stack: true,
                ..ProtectConfig::default()
            },
            ..MachineConfig::default()
        }
    }

    /// InvisiSpec machine (§I related-work defense): speculation leaves no
    /// cache footprint; loads pay the validation penalty.
    pub fn invisispec() -> MachineConfig {
        MachineConfig {
            protect: ProtectConfig { invisispec: true, ..ProtectConfig::default() },
            ..MachineConfig::default()
        }
    }

    /// Context-Sensitive-Fencing machine (§I related-work defense):
    /// branches serialize, transient execution is fenced out.
    pub fn csf() -> MachineConfig {
        MachineConfig {
            protect: ProtectConfig { csf: true, ..ProtectConfig::default() },
            ..MachineConfig::default()
        }
    }
}

impl<P: ExecPath> MachineConfig<P> {
    /// The same configuration on the execution path `Q`.
    pub fn with_path<Q: ExecPath>(self) -> MachineConfig<Q> {
        MachineConfig {
            mem_size: self.mem_size,
            caches: self.caches,
            spec_window: self.spec_window,
            mispredict_penalty: self.mispredict_penalty,
            protect: self.protect,
            invisispec_load_penalty: self.invisispec_load_penalty,
            csf_fence_penalty: self.csf_fence_penalty,
            max_instructions: self.max_instructions,
            stack_size: self.stack_size,
            seed: self.seed,
            path: PhantomData,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_model_the_paper_testbed() {
        let c = MachineConfig::default();
        assert!(c.protect.dep, "DEP forces code reuse");
        assert!(c.protect.clflush_enabled);
        assert!(!c.protect.shadow_stack);
        assert!(c.spec_window >= 8, "enough transient depth for Spectre v1");
    }

    #[test]
    fn hardened_flips_countermeasures() {
        let c = MachineConfig::hardened();
        assert!(!c.protect.clflush_enabled);
        assert!(c.protect.shadow_stack);
    }
}
