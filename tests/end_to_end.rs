//! Cross-crate integration tests: the full attack chain, the defenses,
//! and the detector dynamics, exercised through the public façade.

use cr_spectre::attack::{run_cr_spectre, run_standalone_spectre, AttackConfig};
use cr_spectre::campaign::{
    build_training_data, fig4, fig5, fig6, table1, CampaignConfig, EvasionResult, NoiseModel,
};
use cr_spectre::hid::detector::{Hid, HidKind, HidMode};
use cr_spectre::hpc::features::FeatureSet;
use cr_spectre::perturb::PerturbParams;
use cr_spectre::sim::config::{MachineConfig, Reference};
use cr_spectre::sim::cpu::Machine;
use cr_spectre::sim::error::{ExitReason, Fault};
use cr_spectre::sim::isa::Reg;
use cr_spectre::spectre::SpectreVariant;
use cr_spectre::workloads::host::{vulnerable_host, HostOptions, SECRET};
use cr_spectre::workloads::mibench::Mibench;

#[test]
fn cr_spectre_steals_the_secret_from_every_fig4_host() {
    for host in Mibench::FIG4_HOSTS {
        let outcome = run_cr_spectre(&AttackConfig::new(host)).expect("launches");
        assert_eq!(
            outcome.recovered,
            SECRET,
            "{host}: {:?}",
            String::from_utf8_lossy(&outcome.recovered)
        );
        assert!(outcome.trace.outcome.exit.is_clean(), "{host}: host must survive");
    }
}

#[test]
fn both_variants_leak_under_perturbation() {
    for variant in SpectreVariant::ALL {
        let config = AttackConfig::new(Mibench::Crc32)
            .with_variant(variant)
            .with_perturb(PerturbParams::evasive_default());
        let outcome = run_cr_spectre(&config).expect("launches");
        assert!(
            outcome.leak_accuracy() > 0.95,
            "{variant}: leak accuracy {}",
            outcome.leak_accuracy()
        );
    }
}

#[test]
fn unleaked_canary_stops_the_exploit_entirely() {
    // Build a canary host and deliver a payload with the *wrong* canary:
    // the epilogue check must abort before any gadget runs.
    let host = vulnerable_host(Mibench::Bitcount50M, HostOptions { canary: true, buffer_size: 104 });
    let mut machine = Machine::new(MachineConfig::default());
    let loaded = machine.load(&host.image).expect("loads");
    let mut payload = vec![0x44u8; host.offset_to_ret()];
    // Wrong canary value is already in the padding; append a fake chain.
    payload.extend_from_slice(&0xdead_beefu64.to_le_bytes());
    machine.start_with_arg(loaded.entry, &payload);
    assert_eq!(machine.run().exit, ExitReason::Fault(Fault::Abort));
}

#[test]
fn aslr_breaks_a_payload_built_for_the_unslid_base() {
    // Build the chain against a non-ASLR machine, then deliver it to an
    // ASLR machine: gadget addresses no longer point at gadgets.
    let host = vulnerable_host(Mibench::Crc32, HostOptions::default());
    let reference = {
        let mut machine = Machine::new(MachineConfig::default());
        machine.load(&host.image).expect("loads")
    };
    let mut aslr_cfg = MachineConfig::default();
    aslr_cfg.protect.aslr_seed = Some(0xfeed);
    let mut machine = Machine::new(aslr_cfg);
    let loaded = machine.load(&host.image).expect("loads");
    assert_ne!(loaded.base, reference.base, "ASLR slid the image");

    let gadgets = cr_spectre::rop::Scanner::default().scan_image(&machine, &loaded);
    // Chain aimed at the *reference* (unslid) addresses.
    let stale_pop = gadgets.iter().next().expect("gadgets exist").addr
        - (loaded.base - reference.base);
    let mut payload = vec![0x44u8; host.offset_to_ret()];
    payload.extend_from_slice(&stale_pop.to_le_bytes());
    machine.start_with_arg(loaded.entry, &payload);
    let out = machine.run();
    assert!(
        !out.exit.is_clean(),
        "a stale-address chain must not execute cleanly under ASLR"
    );
}

#[test]
fn offline_hid_detects_spectre_but_not_perturbed_cr_spectre() {
    let cfg = CampaignConfig { samples_per_class: 200, ..CampaignConfig::default() };
    let features = FeatureSet::paper_default();
    let mut training = build_training_data(&cfg, &[Mibench::Sha1, Mibench::Qsort], &features);
    let noise = NoiseModel::fit(&training.x, cfg.noise_strength);
    noise.apply(&mut training.x, cfg.seed, 3);
    let hid = Hid::train(HidKind::Mlp, HidMode::Offline, training);

    // Plain standalone Spectre: detected.
    let plain = run_standalone_spectre(&AttackConfig::new(Mibench::Sha1));
    let mut rows = plain.attack_rows(&features);
    noise.apply(&mut rows, cfg.seed, 5);
    let plain_rate = hid.detection_rate(&rows);
    assert!(Hid::detected(plain_rate), "plain Spectre rate {plain_rate}");

    // ROP-injected, perturbed CR-Spectre: evaded.
    let cr = run_cr_spectre(
        &AttackConfig::new(Mibench::Sha1).with_perturb(PerturbParams::evasive_default()),
    )
    .expect("launches");
    let mut rows = cr.attack_rows(&features);
    noise.apply(&mut rows, cfg.seed, 7);
    let cr_rate = hid.detection_rate(&rows);
    assert!(
        Hid::evaded(cr_rate),
        "CR-Spectre should evade: rate {cr_rate} (plain was {plain_rate})"
    );
    assert!(cr.leak_accuracy() > 0.99, "and the secret still leaks");
}

#[test]
fn injected_attack_does_not_corrupt_host_results() {
    for host in [Mibench::Crc32, Mibench::Fft] {
        let config = AttackConfig::new(host).with_perturb(PerturbParams::paper_default());
        let h = vulnerable_host(host, config.host_options);
        let mut machine = Machine::new(config.machine.clone());
        let loaded = machine.load(&h.image).expect("loads");
        // Benign run for reference checksum.
        machine.start_with_arg(loaded.entry, b"benign");
        assert!(machine.run().exit.is_clean());
        let benign_checksum = machine.reg(Reg::R11);
        assert_eq!(benign_checksum, host.expected_checksum());
        // Attacked run: checksum must be identical (stealth).
        let outcome = run_cr_spectre(&config).expect("launches");
        assert!(outcome.trace.outcome.exit.is_clean());
        assert_eq!(outcome.recovered, SECRET);
    }
}

#[test]
fn injection_spans_bound_the_attack_phase() {
    let outcome = run_cr_spectre(&AttackConfig::new(Mibench::Bitcount50M)).expect("launches");
    let (start, end) = outcome.injection_spans[0];
    assert!(start > 0, "host ran before the hijack");
    assert!(end < outcome.trace.outcome.cycles, "host ran after the attack exited");
    // The attack dominates the run (it leaks 41 bytes) but both host
    // phases must be visible in the trace.
    let features = FeatureSet::paper_default();
    let attack_rows = outcome.attack_rows(&features).len();
    assert!(attack_rows > 0);
    assert!(attack_rows < outcome.trace.len(), "some windows are host-only");
}

#[test]
fn hardened_machine_defeats_cr_spectre() {
    let mut config = AttackConfig::new(Mibench::Sha1);
    config.machine = MachineConfig::hardened();
    let outcome = run_cr_spectre(&config).expect("launches");
    assert!(outcome.recovered.is_empty(), "no secret under §IV countermeasures");
    assert!(matches!(outcome.trace.outcome.exit, ExitReason::Fault(_)));
}

// ---------------------------------------------------------------------
// Campaign drivers at smoke scale: tier-1 exercises every figure/table
// generator end to end, pins their structural invariants, and pins
// their exact results with golden digests.
// ---------------------------------------------------------------------

// Golden digests of the smoke-scale (`CampaignConfig::smoke()`) results,
// recorded from release builds on a tree whose fast path ≡ reference
// suite (`crates/core/tests/fastpath_equivalence.rs`) passed.
const FIG4_GOLDEN: u64 = 0x0f41_8cb7_418f_b685;
const FIG5_GOLDEN: u64 = 0xac6c_d06c_fc62_409f;
const FIG6_GOLDEN: u64 = 0x159f_b55a_4335_104e;
const TABLE1_GOLDEN: u64 = 0x219f_e678_8cdd_fc40;

/// FNV-1a-64 of a result's `Debug` text.
fn digest(result: &impl std::fmt::Debug) -> u64 {
    format!("{result:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Fails when a driver's smoke-scale result changes at all. A change
/// that alters results on purpose re-records the constant and says so.
fn assert_golden(what: &str, result: &impl std::fmt::Debug, expected: u64) {
    let got = digest(result);
    assert_eq!(got, expected, "{what}: golden digest {got:#018x} != {expected:#018x}");
}

fn assert_series_grid(result: &EvasionResult, attempts: usize, what: &str) {
    for (panel, series) in [("spectre", &result.spectre), ("cr_spectre", &result.cr_spectre)] {
        assert_eq!(series.len(), HidKind::ALL.len(), "{what} {panel}: one series per detector");
        for s in series {
            assert_eq!(s.accuracy.len(), attempts, "{what} {panel} {}: attempts", s.kind.name());
            for &acc in &s.accuracy {
                assert!(
                    (0.0..=1.0).contains(&acc),
                    "{what} {panel} {}: accuracy {acc} outside [0, 1]",
                    s.kind.name()
                );
            }
        }
    }
}

#[test]
fn fig4_driver_covers_the_host_by_feature_size_grid() {
    let rows = fig4(&CampaignConfig::smoke());
    assert_golden("fig4", &rows, FIG4_GOLDEN);
    assert_eq!(rows.len(), Mibench::FIG4_HOSTS.len(), "one row per Figure-4 host");
    for (row, &host) in rows.iter().zip(&Mibench::FIG4_HOSTS) {
        assert_eq!(row.host, host, "rows follow the paper's host order");
        let sizes: Vec<usize> = row.accuracies.iter().map(|&(s, _)| s).collect();
        assert_eq!(sizes, vec![16, 8, 4, 2, 1], "{host}: feature-size sweep");
        for &(size, acc) in &row.accuracies {
            assert!((0.0..=1.0).contains(&acc), "{host} size {size}: accuracy {acc}");
        }
    }
}

#[test]
fn fig5_driver_produces_full_series_for_every_detector() {
    let cfg = CampaignConfig::smoke();
    let result = fig5(&cfg);
    assert_golden("fig5", &result, FIG5_GOLDEN);
    assert_series_grid(&result, cfg.attempts, "fig5");
}

#[test]
fn fig6_driver_produces_full_series_for_every_detector() {
    let cfg = CampaignConfig::smoke();
    let result = fig6(&cfg);
    assert_golden("fig6", &result, FIG6_GOLDEN);
    assert_series_grid(&result, cfg.attempts, "fig6");
}

#[test]
fn table1_overheads_are_finite_and_ipcs_positive() {
    let rows = table1(&CampaignConfig::smoke(), 1);
    assert_golden("table1", &rows, TABLE1_GOLDEN);
    assert_eq!(rows.len(), Mibench::TABLE1_ROWS.len(), "one row per Table-I benchmark");
    for (row, &host) in rows.iter().zip(&Mibench::TABLE1_ROWS) {
        assert_eq!(row.host, host);
        for (what, ipc) in [
            ("original", row.ipc_original),
            ("offline", row.ipc_offline),
            ("online", row.ipc_online),
        ] {
            assert!(ipc.is_finite() && ipc > 0.0, "{host} {what}: IPC {ipc}");
        }
        assert!(row.overhead_offline().is_finite(), "{host}: offline overhead");
        assert!(row.overhead_online().is_finite(), "{host}: online overhead");
    }
}

/// Smoke scale on the reference execution path. The goldens were recorded
/// on the fast path, so these pin fast ≡ reference at campaign scale.
/// fig6, the slowest driver on this path, is left to
/// `crates/core/tests/fastpath_equivalence.rs`.
fn reference_smoke() -> CampaignConfig<Reference> {
    let smoke = CampaignConfig::smoke();
    CampaignConfig {
        machine: smoke.machine.with_path(),
        sample_interval: smoke.sample_interval,
        samples_per_class: smoke.samples_per_class,
        attempts: smoke.attempts,
        noise_strength: smoke.noise_strength,
        seed: smoke.seed,
        threads: smoke.threads,
    }
}

#[test]
fn fig4_on_the_reference_path_matches_the_golden() {
    assert_golden("fig4 (reference path)", &fig4(&reference_smoke()), FIG4_GOLDEN);
}

#[test]
fn fig5_on_the_reference_path_matches_the_golden() {
    assert_golden("fig5 (reference path)", &fig5(&reference_smoke()), FIG5_GOLDEN);
}

#[test]
fn table1_on_the_reference_path_matches_the_golden() {
    assert_golden("table1 (reference path)", &table1(&reference_smoke(), 1), TABLE1_GOLDEN);
}

/// fig4, fig5 and fig6 fan their work out through `par_map`, and their
/// goldens were recorded at the default thread count, so a serial run
/// must reproduce them exactly.
fn serial_smoke() -> CampaignConfig {
    CampaignConfig { threads: 1, ..CampaignConfig::smoke() }
}

#[test]
fn fig4_on_one_thread_matches_the_golden() {
    assert_golden("fig4 (1 thread)", &fig4(&serial_smoke()), FIG4_GOLDEN);
}

#[test]
fn fig5_on_one_thread_matches_the_golden() {
    assert_golden("fig5 (1 thread)", &fig5(&serial_smoke()), FIG5_GOLDEN);
}

#[test]
fn fig6_on_one_thread_matches_the_golden() {
    assert_golden("fig6 (1 thread)", &fig6(&serial_smoke()), FIG6_GOLDEN);
}

#[test]
fn campaign_results_do_not_depend_on_thread_count() {
    // The engine's contract, checked here through the public façade (the
    // full per-driver matrix lives in crates/core/tests/).
    let serial = serial_smoke();
    let parallel = CampaignConfig { threads: 4, ..CampaignConfig::smoke() };
    assert_eq!(
        format!("{:?}", table1(&serial, 1)),
        format!("{:?}", table1(&parallel, 1)),
        "table1 must be bit-identical at every thread count"
    );
}
