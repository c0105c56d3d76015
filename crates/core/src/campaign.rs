//! Multi-attempt attack campaigns and the paper's experiment drivers.
//!
//! This module regenerates the four evaluation artifacts:
//!
//! * [`fig4`] — HID accuracy vs feature size (16/8/4/2/1) for four
//!   MiBench hosts against standalone Spectre (variant-averaged);
//! * [`fig5`] — offline HIDs over 10 attempts: (a) plain Spectre,
//!   (b) CR-Spectre with one static perturbation;
//! * [`fig6`] — online (retraining) HIDs over 10 attempts: (a) plain
//!   Spectre, (b) CR-Spectre with dynamically generated variants;
//! * [`table1`] — host IPC overhead: original vs CR-Spectre under
//!   offline- and online-type HIDs.
//!
//! Scales (samples per class, attempts) default to paper values where
//! cheap and to documented reductions where not; every driver takes an
//! explicit [`CampaignConfig`] so harnesses and tests pick their own size.

use cr_spectre_hid::detector::{Hid, HidKind, HidMode};
use cr_spectre_hpc::dataset::{Dataset, Label};
use cr_spectre_hpc::features::FeatureSet;
use cr_spectre_hpc::profiler::{profile, Trace};
use cr_spectre_sim::config::{ExecPath, Fast, MachineConfig};
use cr_spectre_sim::cpu::Machine;
use cr_spectre_sim::pmu::HpcEvent;
use cr_spectre_telemetry as telemetry;
use cr_spectre_workloads::benign::BenignApp;
use cr_spectre_workloads::host::standalone_image;
use cr_spectre_workloads::mibench::Mibench;

use crate::attack::{run_cr_spectre, run_standalone_spectre, AttackConfig, AttackOutcome};
use crate::parallel::{default_threads, derive_seed, par_map, par_map_indices};
use crate::perturb::{PerturbParams, VariantGenerator};
use crate::spectre::SpectreVariant;

/// Shared experiment configuration, on the execution path `P` of its
/// machine configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig<P: ExecPath = Fast> {
    /// Machine (microarchitecture) configuration.
    pub machine: MachineConfig<P>,
    /// PMU sampling interval in cycles.
    pub sample_interval: u64,
    /// Target samples per class in training corpora (paper: 2000;
    /// reduced defaults keep wall-clock reasonable — see DESIGN.md).
    pub samples_per_class: usize,
    /// Attack attempts per series (paper: 10).
    pub attempts: usize,
    /// Background-activity contamination strength (see [`NoiseModel`];
    /// 0 disables). The paper's testbed is a live Ubuntu desktop whose
    /// "system noise ... caused by other applications and the operating
    /// system" contaminates every counter window; the simulator is
    /// noise-free, so this model restores that reality.
    pub noise_strength: f64,
    /// Seed for splits, shuffles and noise.
    pub seed: u64,
    /// Worker threads for the drivers' trial fan-outs (default: all
    /// cores). Results are **bit-identical for every value** — trials
    /// derive their randomness from their index via [`derive_seed`],
    /// never from scheduling; `crates/core/tests/parallel_equivalence.rs`
    /// locks this in.
    pub threads: usize,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            machine: MachineConfig::default(),
            sample_interval: 2_000,
            samples_per_class: 400,
            attempts: 10,
            noise_strength: 3.0,
            seed: 0xda7e,
            threads: default_threads(),
        }
    }
}

/// Noise-stream namespaces: every `(driver, role, trial)` triple gets
/// its own stream index into [`derive_seed`], so no two windows of any
/// campaign ever draw correlated noise.
mod streams {
    pub const FIG4_HOST: u64 = 0x0400_0000;
    pub const FIG5_TRAIN: u64 = 0x0500_0000;
    pub const FIG5_SPECTRE: u64 = 0x0501_0000;
    pub const FIG5_CR: u64 = 0x0502_0000;
    pub const FIG6_TRAIN: u64 = 0x0600_0000;
    pub const FIG6_SPECTRE: u64 = 0x0601_0000;
    pub const FIG6_CR: u64 = 0x0602_0000;
    pub const FIG6_BENIGN: u64 = 0x0603_0000;
}

/// Additive background-activity noise on counter windows.
///
/// Per-column amplitudes are a fixed fraction (`strength`) of the mean
/// magnitude that column shows in a reference corpus, so the noise is
/// commensurate with real counter activity: a window can always gain a
/// few extra cache misses or branches from an OS tick, no matter which
/// application it belongs to.
#[derive(Debug, Clone)]
pub struct NoiseModel {
    amps: Vec<f64>,
}

impl NoiseModel {
    /// Fits per-column amplitudes on a reference corpus.
    ///
    /// Degenerate inputs — no rows, zero-width rows, a non-positive or
    /// non-finite strength, or columns whose magnitudes are not finite —
    /// yield the [identity model](NoiseModel::is_identity) (or an
    /// identity column) rather than NaN amplitudes that would silently
    /// corrupt every window they touch.
    pub fn fit(rows: &[Vec<f64>], strength: f64) -> NoiseModel {
        if rows.is_empty() || !strength.is_finite() || strength <= 0.0 {
            return NoiseModel::identity();
        }
        let dim = rows[0].len();
        if dim == 0 {
            return NoiseModel::identity();
        }
        let mut amps = vec![0.0; dim];
        for row in rows {
            for (a, v) in amps.iter_mut().zip(row) {
                *a += v.abs();
            }
        }
        for a in &mut amps {
            *a = *a / rows.len() as f64 * strength;
            // A column fed NaN/∞ (or short rows leaving it at 0) becomes
            // an identity column: `apply` only perturbs positive finite
            // amplitudes.
            if !a.is_finite() {
                *a = 0.0;
            }
        }
        NoiseModel { amps }
    }

    /// The model that leaves every row untouched.
    pub fn identity() -> NoiseModel {
        NoiseModel { amps: Vec::new() }
    }

    /// Whether [`NoiseModel::apply`] is a no-op.
    pub fn is_identity(&self) -> bool {
        self.amps.iter().all(|&a| a <= 0.0)
    }

    /// Adds uniform background counts to every row.
    ///
    /// The generator is seeded with
    /// [`derive_seed`]`(base_seed, stream)`, never with a raw
    /// caller-supplied value: callers name *which* noise stream they
    /// are (a `streams::*` namespace plus trial index) and the
    /// derivation guarantees two distinct streams never replay the same
    /// noise vector — regression-tested in this module.
    pub fn apply(&self, rows: &mut [Vec<f64>], base_seed: u64, stream: u64) {
        if self.amps.is_empty() {
            return;
        }
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(derive_seed(base_seed, stream));
        for row in rows {
            for (v, &amp) in row.iter_mut().zip(&self.amps) {
                if amp > 0.0 {
                    *v += rng.random_range(0.0..amp);
                }
            }
        }
    }
}

impl CampaignConfig {
    /// A reduced configuration for unit tests.
    pub fn smoke() -> CampaignConfig {
        CampaignConfig { samples_per_class: 150, attempts: 3, ..CampaignConfig::default() }
    }
}

/// Profiles one standalone application (host or benign app) start to
/// finish.
pub fn profile_standalone<P: ExecPath>(
    machine_cfg: &MachineConfig<P>,
    image: &cr_spectre_sim::Image,
    interval: u64,
) -> Trace {
    let mut machine = Machine::new(machine_cfg.clone());
    let loaded = machine.load(image).expect("benign image loads");
    machine.start(loaded.entry);
    profile(&mut machine, &image.name, interval)
}

/// Collects benign-class traces: every MiBench host named in `hosts` plus
/// the browser/editor/idle applications, as in the paper's "scope of
/// applications profiled". Each application simulates on its own worker
/// (`cfg.threads`); the returned order is always hosts-then-apps,
/// independent of scheduling.
pub fn benign_traces<P: ExecPath>(cfg: &CampaignConfig<P>, hosts: &[Mibench]) -> Vec<Trace> {
    let mut images: Vec<cr_spectre_sim::Image> =
        hosts.iter().map(|&host| standalone_image(host)).collect();
    images.extend(BenignApp::ALL.into_iter().map(|app| app.image()));
    par_map(images, cfg.threads, |image| {
        profile_standalone(&cfg.machine, &image, cfg.sample_interval)
    })
}

/// Runs a standalone Spectre of the given variant and returns its
/// outcome. `attempt` introduces the run-to-run measurement variation a
/// real profiler sees (sampling phase).
pub fn spectre_trace<P: ExecPath>(
    cfg: &CampaignConfig<P>,
    variant: SpectreVariant,
    attempt: usize,
) -> AttackOutcome {
    let mut attack =
        AttackConfig::on_machine(Mibench::Bitcount50M, cfg.machine.clone()).with_variant(variant);
    attack.sample_interval = jittered_interval(cfg.sample_interval, attempt);
    run_standalone_spectre(&attack)
}

/// Sampling-phase jitter between attempts (real profilers never sample on
/// exactly the same cycle boundaries twice).
fn jittered_interval(base: u64, attempt: usize) -> u64 {
    base + (attempt as u64 * 37) % (base / 10 + 1)
}

/// Assembles the labelled training corpus: benign traces vs standalone
/// Spectre traces (both variants), truncated/balanced to
/// `samples_per_class`.
pub fn build_training_data<P: ExecPath>(
    cfg: &CampaignConfig<P>,
    hosts: &[Mibench],
    features: &FeatureSet,
) -> Dataset {
    let mut benign = Dataset::new();
    for trace in benign_traces(cfg, hosts) {
        benign.push_trace(&trace, Label::Benign, features);
    }
    let mut attack = Dataset::new();
    for outcome in attack_training_traces(cfg) {
        attack.push_trace(&outcome.trace, Label::Attack, features);
    }
    balance(benign, attack, cfg.samples_per_class, cfg.seed)
}

/// The four standalone-Spectre training runs (both variants, alternating)
/// every training corpus uses, fanned out over `cfg.threads` workers.
fn attack_training_traces<P: ExecPath>(cfg: &CampaignConfig<P>) -> Vec<AttackOutcome> {
    par_map_indices(4, cfg.threads, |i| {
        spectre_trace(cfg, SpectreVariant::ALL[i % SpectreVariant::ALL.len()], i)
    })
}

/// Takes up to `per_class` shuffled samples of each class.
fn balance(mut benign: Dataset, mut attack: Dataset, per_class: usize, seed: u64) -> Dataset {
    benign.shuffle(seed);
    attack.shuffle(seed.wrapping_add(1));
    let mut out = Dataset::new();
    for (src, label) in [(&benign, Label::Benign), (&attack, Label::Attack)] {
        for row in src.x.iter().take(per_class) {
            out.push_row(row.clone(), label);
        }
    }
    out
}

// ---------------------------------------------------------------------
// Figure 4
// ---------------------------------------------------------------------

/// One Figure-4 series: a host vs Spectre at each feature size.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// The benign host of this series (`Spectre_k` legend).
    pub host: Mibench,
    /// `(feature_size, test_accuracy)` pairs, sizes 16/8/4/2/1.
    pub accuracies: Vec<(usize, f64)>,
}

/// Figure 4: HID (MLP) accuracy distinguishing one MiBench host from
/// standalone Spectre (variants averaged), for feature sizes 16/8/4/2/1.
///
/// Trace collection and per-host training both fan out over
/// `cfg.threads`. The background-application traces and the four
/// Spectre traces do not depend on the series' host, so they are
/// simulated exactly once and shared by every row (the serial engine
/// recomputed identical traces per host).
pub fn fig4<P: ExecPath>(cfg: &CampaignConfig<P>) -> Vec<Fig4Row> {
    let mut driver_span = telemetry::span("campaign.fig4");
    driver_span.field("threads", cfg.threads).field("samples_per_class", cfg.samples_per_class);
    let sizes = [16usize, 8, 4, 2, 1];
    let full = FeatureSet::paper(16);
    // Collect traces once at full width, then project per size. The
    // benign class is one series host plus the always-running background
    // applications, as in the paper's profiling scope.
    let (host_traces, app_traces, attack_outcomes) = {
        let _phase = telemetry::span("fig4.collect_traces");
        let host_traces = par_map(Mibench::FIG4_HOSTS.to_vec(), cfg.threads, |host| {
            profile_standalone(&cfg.machine, &standalone_image(host), cfg.sample_interval)
        });
        let app_traces = par_map(BenignApp::ALL.to_vec(), cfg.threads, |app| {
            profile_standalone(&cfg.machine, &app.image(), cfg.sample_interval)
        });
        let attack_outcomes = attack_training_traces(cfg);
        (host_traces, app_traces, attack_outcomes)
    };

    let per_host: Vec<(usize, Mibench, Trace)> = Mibench::FIG4_HOSTS
        .iter()
        .copied()
        .enumerate()
        .zip(host_traces)
        .map(|((index, host), trace)| (index, host, trace))
        .collect();
    par_map(per_host, cfg.threads, |(host_index, host, host_trace)| {
        let mut trial_span = telemetry::span("fig4.host");
        trial_span.field("host", host.name()).field("index", host_index);
        let mut benign = Dataset::new();
        benign.push_trace(&host_trace, Label::Benign, &full);
        for trace in &app_traces {
            benign.push_trace(trace, Label::Benign, &full);
        }
        let mut attack = Dataset::new();
        for outcome in &attack_outcomes {
            attack.push_trace(&outcome.trace, Label::Attack, &full);
        }
        let mut data = balance(benign, attack, cfg.samples_per_class, cfg.seed);
        let noise = NoiseModel::fit(&data.x, cfg.noise_strength);
        noise.apply(&mut data.x, cfg.seed, streams::FIG4_HOST + host_index as u64);
        let mut accuracies = Vec::new();
        for &size in &sizes {
            let projected = project(&data, size);
            let (train, test) = projected.split(0.7, cfg.seed);
            let hid = Hid::train(HidKind::Mlp, HidMode::Offline, train);
            accuracies.push((size, hid.test_accuracy(&test)));
        }
        Fig4Row { host, accuracies }
    })
}

/// Keeps only the first `size` feature columns (the paper-ranked prefix).
fn project(data: &Dataset, size: usize) -> Dataset {
    let mut out = Dataset::new();
    for (row, &label) in data.x.iter().zip(&data.y) {
        out.push_row(
            row[..size].to_vec(),
            if label == 1 { Label::Attack } else { Label::Benign },
        );
    }
    out
}

// ---------------------------------------------------------------------
// Figures 5 and 6
// ---------------------------------------------------------------------

/// One detector's accuracy-vs-attempt series.
#[derive(Debug, Clone)]
pub struct DetectorSeries {
    /// Which classifier family.
    pub kind: HidKind,
    /// Detection accuracy (recall on attack windows) per attempt.
    pub accuracy: Vec<f64>,
}

impl DetectorSeries {
    /// Mean accuracy over all attempts.
    pub fn mean(&self) -> f64 {
        if self.accuracy.is_empty() {
            return 0.0;
        }
        self.accuracy.iter().sum::<f64>() / self.accuracy.len() as f64
    }
}

/// A Figure-5/6 style result: plain-Spectre series and CR-Spectre series
/// for all four detector families.
#[derive(Debug, Clone)]
pub struct EvasionResult {
    /// Panel (a): plain Spectre per attempt.
    pub spectre: Vec<DetectorSeries>,
    /// Panel (b): CR-Spectre per attempt.
    pub cr_spectre: Vec<DetectorSeries>,
}

/// Figure 5: **offline** HIDs. Panel (a) profiles plain standalone
/// Spectre for each attempt; panel (b) runs ROP-injected CR-Spectre with
/// a single static perturbation (no dynamic adaptation — the offline HID
/// never learns, so none is needed, saving attack overhead as the paper
/// notes).
pub fn fig5<P: ExecPath>(cfg: &CampaignConfig<P>) -> EvasionResult {
    let mut driver_span = telemetry::span("campaign.fig5");
    driver_span.field("threads", cfg.threads).field("attempts", cfg.attempts);
    let features = FeatureSet::paper_default();
    let mut phase = telemetry::span("fig5.train");
    let mut training = build_training_data(cfg, &Mibench::FIG4_HOSTS, &features);
    phase.field("rows", training.len());
    let noise = NoiseModel::fit(&training.x, cfg.noise_strength);
    noise.apply(&mut training.x, cfg.seed, streams::FIG5_TRAIN);
    // The four detector families train independently, one per worker.
    let hids: Vec<Hid> = par_map(HidKind::ALL.to_vec(), cfg.threads, |kind| {
        Hid::train(kind, HidMode::Offline, training.clone())
    });
    drop(phase);

    // Offline HIDs never learn between attempts, so every attempt is an
    // independent trial: simulate them all in parallel, then score in
    // attempt order.
    let per_attempt = par_map_indices(cfg.attempts, cfg.threads, |attempt| {
        let mut trial_span = telemetry::span("fig5.attempt");
        trial_span.field("attempt", attempt);
        // (a) plain Spectre, alternating variants (the paper averages
        // variants; alternation also provides attempt-to-attempt motion).
        let variant = SpectreVariant::ALL[attempt % 2];
        let outcome = spectre_trace(cfg, variant, attempt);
        let mut spectre_rows = outcome.attack_rows(&features);
        noise.apply(&mut spectre_rows, cfg.seed, streams::FIG5_SPECTRE + attempt as u64);
        // (b) CR-Spectre, one static perturbation.
        let host = Mibench::FIG4_HOSTS[attempt % 4];
        let mut attack = AttackConfig::on_machine(host, cfg.machine.clone())
            .with_perturb(PerturbParams::evasive_default());
        attack.sample_interval = jittered_interval(cfg.sample_interval, attempt);
        let outcome = run_cr_spectre(&attack).expect("attack launches");
        let mut cr_rows = outcome.attack_rows(&features);
        noise.apply(&mut cr_rows, cfg.seed, streams::FIG5_CR + attempt as u64);
        (spectre_rows, cr_rows)
    });

    // Scoring fans out per detector: each worker runs one trained HID
    // over every attempt's rows (batched classification inside
    // `detection_rate`). Each rate depends only on (hid, rows), so the
    // fan-out is bit-identical to the old serial double loop.
    let _score_phase = telemetry::span("fig5.score");
    let scored = par_map_indices(hids.len(), cfg.threads, |h| {
        let hid = &hids[h];
        let spectre: Vec<f64> =
            per_attempt.iter().map(|(rows, _)| hid.detection_rate(rows)).collect();
        let cr: Vec<f64> =
            per_attempt.iter().map(|(_, rows)| hid.detection_rate(rows)).collect();
        (spectre, cr)
    });
    let mut spectre_series = init_series();
    let mut cr_series = init_series();
    for (h, (spectre, cr)) in scored.into_iter().enumerate() {
        spectre_series[h].accuracy = spectre;
        cr_series[h].accuracy = cr;
    }
    EvasionResult { spectre: spectre_series, cr_spectre: cr_series }
}

/// Figure 6: **online** HIDs that retrain on every observed attempt.
/// Panel (b) is the full defense-aware loop of Figure 3: when any HID
/// detects the current variant (>80 %), the attacker mutates the
/// perturbation parameters before the next attempt.
pub fn fig6<P: ExecPath>(cfg: &CampaignConfig<P>) -> EvasionResult {
    let mut driver_span = telemetry::span("campaign.fig6");
    driver_span.field("threads", cfg.threads).field("attempts", cfg.attempts);
    let features = FeatureSet::paper_default();
    let mut phase = telemetry::span("fig6.train");
    let mut training = build_training_data(cfg, &Mibench::FIG4_HOSTS, &features);
    phase.field("rows", training.len());
    let noise = NoiseModel::fit(&training.x, cfg.noise_strength);
    noise.apply(&mut training.x, cfg.seed, streams::FIG6_TRAIN);
    drop(phase);

    // Panel (a): online HIDs vs plain Spectre. Each detector's
    // score-then-retrain chain over the attempts is a serial fold, but
    // the four detectors never read each other's state — so the attack
    // traces fan out first, then each detector folds on its own worker.
    let hids: Vec<Hid> = par_map(HidKind::ALL.to_vec(), cfg.threads, |kind| {
        Hid::train(kind, HidMode::Online, training.clone())
    });
    let attempt_rows = par_map_indices(cfg.attempts, cfg.threads, |attempt| {
        let mut trial_span = telemetry::span("fig6.spectre_attempt");
        trial_span.field("attempt", attempt);
        let variant = SpectreVariant::ALL[attempt % 2];
        let outcome = spectre_trace(cfg, variant, attempt);
        let mut rows = outcome.attack_rows(&features);
        noise.apply(&mut rows, cfg.seed, streams::FIG6_SPECTRE + attempt as u64);
        rows
    });
    let spectre_score_phase = telemetry::span("fig6.score_spectre");
    let mut spectre_series = init_series();
    let folded = par_map(hids, cfg.threads, |mut hid| {
        let mut accuracy = Vec::with_capacity(attempt_rows.len());
        for rows in &attempt_rows {
            accuracy.push(hid.detection_rate(rows));
            // The defender labels the observed windows and retrains.
            hid.observe(rows, Label::Attack);
        }
        accuracy
    });
    for (series, accuracy) in spectre_series.iter_mut().zip(folded) {
        series.accuracy = accuracy;
    }
    drop(spectre_score_phase);

    // Panel (b): online HIDs vs dynamically perturbed CR-Spectre. The
    // attempt chain is inherently serial — the next variant depends on
    // whether this one was detected — but the benign corpus the defender
    // grows each attempt is a per-application fan-out.
    let mut hids: Vec<Hid> = par_map(HidKind::ALL.to_vec(), cfg.threads, |kind| {
        Hid::train(kind, HidMode::Online, training.clone())
    });
    let mut cr_series = init_series();
    let mut generator = VariantGenerator::new(cfg.seed);
    let mut variant = generator.next_variant();
    for attempt in 0..cfg.attempts {
        let mut trial_span = telemetry::span("fig6.attempt");
        trial_span.field("attempt", attempt);
        let host = Mibench::FIG4_HOSTS[attempt % 4];
        let mut attack = AttackConfig::on_machine(host, cfg.machine.clone()).with_perturb(variant);
        attack.sample_interval = jittered_interval(cfg.sample_interval, attempt);
        let outcome = run_cr_spectre(&attack).expect("attack launches");
        let mut rows = outcome.attack_rows(&features);
        noise.apply(&mut rows, cfg.seed, streams::FIG6_CR + attempt as u64);
        // "The benign applications running on the system are also profiled
        // and fed to the HID" — the defender's corpus keeps growing on
        // both sides, which is what the camouflaged variants exploit.
        let mut benign_rows: Vec<Vec<f64>> =
            par_map(BenignApp::ALL.to_vec(), cfg.threads, |app| {
                let trace = profile_standalone(
                    &cfg.machine,
                    &app.image(),
                    jittered_interval(cfg.sample_interval, attempt + 5),
                );
                trace.feature_rows(features.events())
            })
            .into_iter()
            .flatten()
            .collect();
        noise.apply(&mut benign_rows, cfg.seed, streams::FIG6_BENIGN + attempt as u64);
        // Each detector scores and retrains on its own worker: its rate
        // and corpus update depend only on (hid, rows, benign_rows),
        // never on a sibling detector. The adaptation decision
        // aggregates the returned rates in family order afterwards, so
        // the variant chain is unchanged at any thread count.
        let scored = par_map(std::mem::take(&mut hids), cfg.threads, |mut hid| {
            let rate = hid.detection_rate(&rows);
            // The defender can only label what it (or the human in the
            // loop) actually flags. A detected or suspicious run (> 55 %)
            // is investigated and retrained as attack; a run the HID
            // classified benign can only be self-labelled window by
            // window — the semi-supervised poisoning the dynamic
            // perturbations exploit.
            if Hid::evaded(rate) {
                hid.ingest_self_labeled(&rows);
            } else {
                hid.ingest(&rows, Label::Attack);
            }
            hid.ingest(&benign_rows, Label::Benign);
            hid.retrain();
            (rate, hid)
        });
        let mut detected_by_any = false;
        let mut evaded_by_all = true;
        for (series, (rate, hid)) in cr_series.iter_mut().zip(scored) {
            series.accuracy.push(rate);
            if Hid::detected(rate) {
                detected_by_any = true;
            }
            if !Hid::evaded(rate) {
                evaded_by_all = false;
            }
            hids.push(hid);
        }
        trial_span.field("detected", detected_by_any).field("evaded", evaded_by_all);
        if detected_by_any || !evaded_by_all {
            // Defense-aware adaptation (Figure 3): the attacker's goal is
            // < 55 % — any detector still above the evasion bar triggers
            // a new variant.
            variant = generator.next_variant();
            telemetry::counter("fig6.adaptations", 1);
        }
    }
    EvasionResult { spectre: spectre_series, cr_spectre: cr_series }
}

fn init_series() -> Vec<DetectorSeries> {
    HidKind::ALL
        .iter()
        .map(|&kind| DetectorSeries { kind, accuracy: Vec::new() })
        .collect()
}

// ---------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------

/// One Table-I row: host IPC in the three scenarios.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// The benchmark.
    pub host: Mibench,
    /// IPC of the original (unattacked) application.
    pub ipc_original: f64,
    /// Host IPC under CR-Spectre with an offline-type HID (static
    /// perturbation).
    pub ipc_offline: f64,
    /// Host IPC under CR-Spectre with an online-type HID (dynamic
    /// variants).
    pub ipc_online: f64,
}

impl Table1Row {
    /// Relative overhead of the offline scenario (positive = slower).
    pub fn overhead_offline(&self) -> f64 {
        1.0 - self.ipc_offline / self.ipc_original
    }

    /// Relative overhead of the online scenario.
    pub fn overhead_online(&self) -> f64 {
        1.0 - self.ipc_online / self.ipc_original
    }
}

/// Table I: IPC of each benchmark, original vs under CR-Spectre. The
/// host's IPC is computed over the windows **outside** the injection
/// spans — the application's own work, which is what the paper's
/// "negligible overhead on the host" claim is about. `iterations` runs
/// are averaged (paper: 100).
pub fn table1<P: ExecPath>(cfg: &CampaignConfig<P>, iterations: usize) -> Vec<Table1Row> {
    let mut driver_span = telemetry::span("campaign.table1");
    driver_span.field("threads", cfg.threads).field("iterations", iterations);
    // Variant generation is a cheap serial RNG walk; do it up front so
    // the expensive simulations become a flat host × iteration fan-out
    // whose every job is a pure function of its indices.
    let jobs: Vec<(Mibench, usize, PerturbParams)> = Mibench::TABLE1_ROWS
        .iter()
        .flat_map(|&host| {
            let mut generator = VariantGenerator::new(cfg.seed);
            // The online scenario runs *mutated* variants (generation
            // ≥ 2); generation 1 is the static perturbation the offline
            // scenario already measures.
            let _ = generator.next_variant();
            (0..iterations)
                .map(|i| (host, i, generator.next_variant()))
                .collect::<Vec<_>>()
        })
        .collect();
    let measurements = par_map(jobs, cfg.threads, |(host, i, online_variant)| {
        let mut trial_span = telemetry::span("table1.job");
        trial_span.field("host", host.name()).field("iteration", i);
        let interval = jittered_interval(cfg.sample_interval, i);
        // Original application.
        let trace = profile_standalone(&cfg.machine, &standalone_image(host), interval);
        let original = trace.outcome.ipc();
        // CR-Spectre, offline-type HID: static perturbation.
        let mut attack = AttackConfig::on_machine(host, cfg.machine.clone())
            .with_perturb(PerturbParams::evasive_default());
        attack.sample_interval = interval;
        let outcome = run_cr_spectre(&attack).expect("attack launches");
        let offline = host_ipc(&outcome);
        // CR-Spectre, online-type HID: dynamic variant per run.
        let mut attack =
            AttackConfig::on_machine(host, cfg.machine.clone()).with_perturb(online_variant);
        attack.sample_interval = interval;
        let outcome = run_cr_spectre(&attack).expect("attack launches");
        let online = host_ipc(&outcome);
        (original, offline, online)
    });

    // Accumulate in job order (host-major, iteration-minor): float sums
    // see the exact same association at every thread count.
    let n = iterations as f64;
    Mibench::TABLE1_ROWS
        .iter()
        .enumerate()
        .map(|(host_index, &host)| {
            let per_host = &measurements[host_index * iterations..(host_index + 1) * iterations];
            let (mut original, mut offline, mut online) = (0.0, 0.0, 0.0);
            for &(o, off, on) in per_host {
                original += o;
                offline += off;
                online += on;
            }
            Table1Row {
                host,
                ipc_original: original / n,
                ipc_offline: offline / n,
                ipc_online: online / n,
            }
        })
        .collect()
}

/// Host-attributed IPC: instructions over cycles in the windows that do
/// **not** overlap an injection span.
pub fn host_ipc(outcome: &AttackOutcome) -> f64 {
    let mut instructions = 0u64;
    let mut cycles = 0u64;
    let mut window_start = 0u64;
    for sample in &outcome.trace.samples {
        let window_end = sample.at_cycle;
        let overlaps = outcome.injection_spans.iter().any(|&(s, e)| {
            let e = if e == u64::MAX { window_end } else { e };
            window_end >= s && window_start <= e
        });
        if !overlaps {
            instructions += sample.count(HpcEvent::Instructions);
            cycles += sample.count(HpcEvent::Cycles);
        }
        window_start = window_end;
    }
    if cycles == 0 {
        0.0
    } else {
        instructions as f64 / cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_data_is_balanced_and_labelled() {
        let cfg = CampaignConfig::smoke();
        let features = FeatureSet::paper_default();
        let data = build_training_data(&cfg, &[Mibench::Crc32], &features);
        assert!(data.len() > 100, "got {}", data.len());
        let attacks = data.attack_count();
        let benign = data.len() - attacks;
        assert!(attacks > 50 && benign > 50, "attacks {attacks} benign {benign}");
        assert!(data.x.iter().all(|r| r.len() == 4));
    }

    #[test]
    fn fig4_shape_holds_at_smoke_scale() {
        let cfg = CampaignConfig::smoke();
        let rows = fig4(&cfg);
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert_eq!(row.accuracies.len(), 5);
            // The paper's claim: ≥ 2 features ⇒ high accuracy.
            let acc4 = row.accuracies.iter().find(|(s, _)| *s == 4).expect("size 4").1;
            assert!(acc4 > 0.8, "{}: size-4 accuracy {acc4}", row.host);
        }
    }

    #[test]
    fn distinct_noise_streams_never_replay() {
        // Regression: NoiseModel::apply used to take a raw per-call seed,
        // which let two call sites accidentally draw the very same noise.
        // Routed through derive_seed, distinct (base, stream) pairs must
        // always produce distinct noise vectors.
        let reference = vec![vec![10.0; 6]; 32];
        let noise = NoiseModel::fit(&reference, 3.0);
        let mut seen = std::collections::HashSet::new();
        let mut streams: Vec<u64> = (0..48).collect();
        streams.extend([
            streams::FIG4_HOST,
            streams::FIG5_TRAIN,
            streams::FIG5_SPECTRE,
            streams::FIG5_SPECTRE + 1,
            streams::FIG5_CR,
            streams::FIG6_TRAIN,
            streams::FIG6_SPECTRE,
            streams::FIG6_CR,
            streams::FIG6_BENIGN,
        ]);
        for stream in streams {
            let mut rows = vec![vec![0.0; 6]; 2];
            noise.apply(&mut rows, 0xda7e, stream);
            assert!(
                seen.insert(format!("{rows:?}")),
                "stream {stream:#x} replayed another stream's noise vector"
            );
        }
    }

    #[test]
    fn noise_fit_degenerate_inputs_yield_identity() {
        // Empty corpus, zero-width rows, non-positive or non-finite
        // strength: all must give the identity model, not NaN amplitudes.
        for model in [
            NoiseModel::fit(&[], 3.0),
            NoiseModel::fit(&[vec![], vec![]], 3.0),
            NoiseModel::fit(&[vec![1.0, 2.0]], 0.0),
            NoiseModel::fit(&[vec![1.0, 2.0]], -1.0),
            NoiseModel::fit(&[vec![1.0, 2.0]], f64::NAN),
            NoiseModel::fit(&[vec![1.0, 2.0]], f64::INFINITY),
            NoiseModel::identity(),
        ] {
            assert!(model.is_identity(), "{model:?}");
            let mut rows = vec![vec![1.5, -2.5], vec![0.0, 4.0]];
            let before = format!("{rows:?}");
            model.apply(&mut rows, 0xda7e, 1);
            assert_eq!(format!("{rows:?}"), before, "{model:?} perturbed rows");
        }
    }

    #[test]
    fn noise_fit_nonfinite_columns_become_identity_columns() {
        // A NaN/∞-contaminated column must not poison its neighbours or
        // panic `apply` (random_range(0.0..∞) would).
        let rows = vec![vec![f64::NAN, 10.0, f64::INFINITY], vec![1.0, 10.0, 2.0]];
        let model = NoiseModel::fit(&rows, 3.0);
        assert!(!model.is_identity(), "healthy column keeps its amplitude");
        let mut out = vec![vec![0.0, 0.0, 0.0]];
        model.apply(&mut out, 0xda7e, 2);
        assert_eq!(out[0][0], 0.0, "NaN column untouched");
        assert_eq!(out[0][2], 0.0, "infinite column untouched");
        assert!(out[0][1] > 0.0 && out[0][1].is_finite(), "healthy column perturbed");
    }

    #[test]
    fn noise_application_is_reproducible_per_stream() {
        let reference = vec![vec![10.0; 6]; 32];
        let noise = NoiseModel::fit(&reference, 3.0);
        let mut a = vec![vec![0.0; 6]; 2];
        let mut b = vec![vec![0.0; 6]; 2];
        noise.apply(&mut a, 0xda7e, 7);
        noise.apply(&mut b, 0xda7e, 7);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn host_ipc_excludes_attack_windows() {
        let attack = AttackConfig::new(Mibench::Bitcount50M)
            .with_perturb(PerturbParams::evasive_default());
        let outcome = run_cr_spectre(&attack).expect("attack launches");
        let host_only = host_ipc(&outcome);
        assert!(host_only > 0.0);
        // Removing the injected windows must recover (approximately) the
        // unattacked application's own IPC — the Table-I invariant.
        let baseline = profile_standalone(
            &CampaignConfig::smoke().machine,
            &standalone_image(Mibench::Bitcount50M),
            2_000,
        )
        .outcome
        .ipc();
        let overhead = (1.0 - host_only / baseline).abs();
        assert!(
            overhead < 0.05,
            "host IPC {host_only} deviates {:.1}% from baseline {baseline}",
            overhead * 100.0
        );
    }

    #[test]
    fn table1_overheads_are_small() {
        let cfg = CampaignConfig::smoke();
        let rows = table1(&cfg, 1);
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert!(row.ipc_original > 0.1, "{}: {row:?}", row.host);
            assert!(
                row.overhead_offline().abs() < 0.15,
                "{}: offline overhead {}",
                row.host,
                row.overhead_offline()
            );
            assert!(
                row.overhead_online().abs() < 0.15,
                "{}: online overhead {}",
                row.host,
                row.overhead_online()
            );
        }
    }
}
