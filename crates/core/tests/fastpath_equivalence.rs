//! The fast path's headline guarantee (the PR-3 analogue of
//! `parallel_equivalence.rs`): every experiment driver produces
//! **bit-identical** results on the execution fast path (`Fast`, the
//! default) and on the reference path (`Reference`, chosen with
//! `MachineConfig::with_path`).
//!
//! `Debug` formatting of `f64` round-trips every bit, so string equality
//! of the rendered artifacts is bit equality of every number in them.
//! fig5 and fig6 run the full CR-Spectre chain — ROP injection rewrites
//! host code at runtime — so these tests also cover the self-modifying
//! path of the block cache at campaign scale.

use cr_spectre_core::campaign::{fig4, fig5, fig6, table1, CampaignConfig};
use cr_spectre_sim::config::{ExecPath, Fast, Reference};

/// Smoke scale on the execution path `P`.
fn tiny<P: ExecPath>() -> CampaignConfig<P> {
    let smoke = CampaignConfig::smoke();
    CampaignConfig {
        machine: smoke.machine.with_path::<P>(),
        sample_interval: smoke.sample_interval,
        samples_per_class: smoke.samples_per_class,
        attempts: smoke.attempts,
        noise_strength: smoke.noise_strength,
        seed: smoke.seed,
        threads: smoke.threads,
    }
}

#[test]
fn fig4_is_identical_on_the_reference_path() {
    let fast = format!("{:?}", fig4(&tiny::<Fast>()));
    let slow = format!("{:?}", fig4(&tiny::<Reference>()));
    assert_eq!(fast, slow);
}

#[test]
fn fig5_is_identical_on_the_reference_path() {
    // fig5 runs the CR-Spectre attack: the ROP chain `exec`-injects the
    // Spectre binary into the running host image (self-modifying code).
    let fast = format!("{:?}", fig5(&tiny::<Fast>()));
    let slow = format!("{:?}", fig5(&tiny::<Reference>()));
    assert_eq!(fast, slow);
}

#[test]
fn fig6_is_identical_on_the_reference_path() {
    let fast = format!("{:?}", fig6(&tiny::<Fast>()));
    let slow = format!("{:?}", fig6(&tiny::<Reference>()));
    assert_eq!(fast, slow);
}

#[test]
fn table1_is_identical_on_the_reference_path() {
    let fast = format!("{:?}", table1(&tiny::<Fast>(), 2));
    let slow = format!("{:?}", table1(&tiny::<Reference>(), 2));
    assert_eq!(fast, slow);
}

/// The three-way cross-check: reference path, fast path, and fast path
/// while recording all agree, and the telemetry trace actually observed
/// the simulator's hot path (instruction counts flow through the batched
/// PMU flush).
#[test]
fn fig5_is_identical_with_fast_path_and_telemetry() {
    use cr_spectre_telemetry as telemetry;
    use cr_spectre_telemetry::sink::MemorySink;

    let slow = format!("{:?}", fig5(&tiny::<Reference>()));
    let sink = MemorySink::shared();
    assert!(telemetry::install(vec![Box::new(sink.clone())]), "no other recorder exists");
    let fast_recorded = format!("{:?}", fig5(&tiny::<Fast>()));
    let summary = telemetry::shutdown().expect("recorder was installed");
    assert_eq!(fast_recorded, slow, "fast path + telemetry still bit-identical");
    assert!(summary.spans.contains_key("campaign.fig5"));
    assert!(
        summary.counters.get("sim.instructions").copied().unwrap_or(0) > 0,
        "instruction counts reached telemetry through the batched PMU flush"
    );
}
