//! # cr-spectre
//!
//! Reproduction of **"CR-Spectre: Defense-Aware ROP Injected Code-Reuse
//! Based Dynamic Spectre"** (DATE 2022) as a pure-Rust system: a
//! microarchitectural simulator with speculative execution, a complete
//! ROP toolchain, MiBench-like workloads, an ML-based hardware intrusion
//! detector, and the CR-Spectre attack itself — dynamic, defense-aware
//! perturbation included.
//!
//! This façade crate re-exports every subsystem:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`sim`] | `cr-spectre-sim` | CPU, caches, branch predictors, PMU, memory protection |
//! | [`asm`] | `cr-spectre-asm` | assembler, runtime, loader images |
//! | [`rop`] | `cr-spectre-rop` | gadget scanning, chains, overflow payloads |
//! | [`workloads`] | `cr-spectre-workloads` | MiBench-like hosts, benign apps, vulnerable host |
//! | [`hpc`] | `cr-spectre-hpc` | PMU profiling, features, datasets |
//! | [`hid`] | `cr-spectre-hid` | LR/SVM/MLP/NN detectors, offline + online |
//! | [`telemetry`] | `cr-spectre-telemetry` | spans, counters, JSONL trace export (off by default) |
//! | [`attack`], [`campaign`], [`covert`], [`perturb`], [`spectre`] | `cr-spectre-core` | the paper's contribution |
//!
//! # Quickstart
//!
//! ```no_run
//! use cr_spectre::attack::{run_cr_spectre, AttackConfig};
//! use cr_spectre::workloads::mibench::Mibench;
//!
//! let outcome = run_cr_spectre(&AttackConfig::new(Mibench::Sha1))?;
//! println!("stolen: {}", String::from_utf8_lossy(&outcome.recovered));
//! # Ok::<(), cr_spectre::attack::AttackError>(())
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios. The `cr-spectre`
//! binary regenerates the Figure 4–6 / Table I evaluation with
//! `cr-spectre campaign --artifact fig4|fig5|fig6|table1|ablations|defense_overhead|all`.

#![warn(missing_docs)]

pub use cr_spectre_asm as asm;
pub use cr_spectre_hid as hid;
pub use cr_spectre_hpc as hpc;
pub use cr_spectre_rop as rop;
pub use cr_spectre_sim as sim;
pub use cr_spectre_telemetry as telemetry;
pub use cr_spectre_workloads as workloads;

pub use cr_spectre_core::{attack, campaign, covert, perturb, spectre};

pub use cr_spectre_core::{
    build_spectre_image, run_cr_spectre, run_standalone_spectre, AttackConfig, AttackOutcome,
    CovertConfig, PerturbParams, SpectreConfig, SpectreVariant, VariantGenerator,
};
