//! # cr-spectre-core
//!
//! The paper's contribution: CR-Spectre — a defense-aware, ROP-injected,
//! code-reuse-based dynamic Spectre attack — together with the plain
//! Spectre baselines it is compared against.
//!
//! * [`spectre`] — generates the speculative attack binary (v1 bounds-
//!   check bypass and an RSB variant) as an injectable guest image;
//! * [`covert`] — the flush+reload channel: parameters and guest
//!   emitters;
//! * [`perturb`] — Algorithm 2: the parameterized `clflush`/`mfence`
//!   perturbation kernel and the defense-aware variant generator;
//! * [`attack`] — one-call orchestration of the full Figure-1 chain
//!   (host, gadget scan, payload, injection, profiling, secret recovery);
//! * [`campaign`] — multi-attempt campaigns against offline/online HIDs
//!   and the experiment drivers for the paper's Figures 4–6 and Table I;
//! * [`parallel`] — the deterministic parallel execution engine the
//!   campaign drivers fan out on: order-preserving scoped-thread
//!   `par_map` plus per-trial seed derivation, with results guaranteed
//!   bit-identical at every thread count.
//!
//! # Example: the headline attack
//!
//! ```no_run
//! use cr_spectre_core::attack::{run_cr_spectre, AttackConfig};
//! use cr_spectre_workloads::mibench::Mibench;
//!
//! let outcome = run_cr_spectre(&AttackConfig::new(Mibench::Sha1))?;
//! println!("leaked: {}", String::from_utf8_lossy(&outcome.recovered));
//! assert!(outcome.leak_accuracy() > 0.99);
//! # Ok::<(), cr_spectre_core::attack::AttackError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod attack;
pub mod campaign;
pub mod covert;
pub mod parallel;
pub mod perturb;
pub mod spectre;

pub use attack::{run_cr_spectre, run_standalone_spectre, AttackConfig, AttackOutcome};
pub use covert::CovertConfig;
pub use parallel::{derive_seed, par_map, par_map_indices};
pub use perturb::{PerturbParams, VariantGenerator};
pub use spectre::{build_spectre_image, SpectreConfig, SpectreVariant};
