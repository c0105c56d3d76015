//! The paper's evaluation as `cr-spectre campaign` artifacts. Each
//! artifact prints its paper-style rows/series to stdout:
//!
//! * `fig4`   — HID accuracy vs feature size (Figure 4);
//! * `fig5`   — offline HID vs Spectre / CR-Spectre (Figure 5);
//! * `fig6`   — online HID vs Spectre / dynamic CR-Spectre (Figure 6);
//! * `table1` — IPC overhead per benchmark (Table I);
//! * `ablations` — extra sweeps of design choices (speculation window,
//!   covert-channel stride, perturbation delay, feature composition);
//! * `defense_overhead` — IPC under no defense, InvisiSpec and CSF per
//!   workload, and whether the Spectre leak survives.
//!
//! `quiet` suppresses commentary lines; result lines always print.

use cr_spectre::attack::{run_standalone_spectre, AttackConfig};
use cr_spectre::campaign::{
    benign_traces, build_training_data, profile_standalone, CampaignConfig, DetectorSeries,
    EvasionResult, NoiseModel,
};
use cr_spectre::hid::detector::{Hid, HidKind, HidMode};
use cr_spectre::hid::metrics::Confusion;
use cr_spectre::hpc::dataset::{Dataset, Label};
use cr_spectre::hpc::features::{rank_by_fisher, FeatureSet};
use cr_spectre::perturb::PerturbParams;
use cr_spectre::sim::config::MachineConfig;
use cr_spectre::spectre::SpectreVariant;
use cr_spectre::workloads::host::standalone_image;
use cr_spectre::workloads::mibench::Mibench;

/// Every artifact, in the order `--artifact all` runs them.
pub const ARTIFACTS: [&str; 6] =
    ["fig4", "fig5", "fig6", "table1", "ablations", "defense_overhead"];

/// Prints a commentary line unless `quiet`.
fn note(quiet: bool, msg: &str) {
    if !quiet {
        println!("{msg}");
    }
}

/// Formats an accuracy as the paper's percentage.
fn pct(x: f64) -> String {
    format!("{:5.1}%", x * 100.0)
}

/// Prints a Figure-5/6 style panel: one row per detector, one column per
/// attempt.
fn print_panel(title: &str, series: &[DetectorSeries]) {
    println!("\n{title}");
    print!("{:<12}", "detector");
    let attempts = series.first().map_or(0, |s| s.accuracy.len());
    for a in 1..=attempts {
        print!("{a:>8}");
    }
    println!("{:>9}", "mean");
    for s in series {
        print!("{:<12}", s.kind.name());
        for &v in &s.accuracy {
            print!("{:>8}", pct(v).trim());
        }
        println!("{:>9}", pct(s.mean()).trim());
    }
}

/// Prints a complete evasion result (both panels) with the paper's
/// panel labels.
fn print_evasion(result: &EvasionResult, figure: &str) {
    print_panel(
        &format!("{figure}(a): plain Spectre vs HID (accuracy per attempt)"),
        &result.spectre,
    );
    print_panel(
        &format!("{figure}(b): CR-Spectre vs HID (accuracy per attempt)"),
        &result.cr_spectre,
    );
}

/// Summarizes the evasion headline: average plain-Spectre accuracy vs the
/// lowest CR-Spectre accuracy (the paper's "90% to 16%" claim).
fn evasion_headline(result: &EvasionResult) -> (f64, f64) {
    let avg_spectre = mean(result.spectre.iter().map(DetectorSeries::mean));
    let min_cr = result
        .cr_spectre
        .iter()
        .flat_map(|s| s.accuracy.iter().copied())
        .fold(f64::INFINITY, f64::min);
    (avg_spectre, if min_cr.is_finite() { min_cr } else { 0.0 })
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// **Figure 4**: HID accuracy for four benign hosts vs the original
/// Spectre attack, across feature sizes 16/8/4/2/1.
pub fn fig4(cfg: &CampaignConfig, quiet: bool) {
    println!("Figure 4: HID accuracy vs feature size (MLP, 70/30 split)");
    println!("{:<16}{:>8}{:>8}{:>8}{:>8}{:>8}", "series", "16", "8", "4", "2", "1");
    let rows = cr_spectre::campaign::fig4(cfg);
    for (i, row) in rows.iter().enumerate() {
        print!("Spectre_{} ({:<6})", i + 1, row.host.name());
        let mut by_size = row.accuracies.clone();
        by_size.sort_by_key(|&(size, _)| std::cmp::Reverse(size));
        for (_, acc) in by_size {
            print!("{:>7.1}%", acc * 100.0);
        }
        println!();
    }
    let acc4: Vec<f64> = rows
        .iter()
        .map(|r| r.accuracies.iter().find(|(s, _)| *s == 4).expect("size 4").1)
        .collect();
    let mean4 = acc4.iter().sum::<f64>() / acc4.len() as f64;
    note(quiet, "\npaper: >90% average at feature size 4");
    println!("measured at feature size 4: {:.1}%", mean4 * 100.0);
}

/// **Figure 5**: offline-type HID performance against plain Spectre
/// (panel a) and CR-Spectre with a single static perturbation (panel b).
pub fn fig5(cfg: &CampaignConfig, quiet: bool) {
    let result = cr_spectre::campaign::fig5(cfg);
    print_evasion(&result, "Fig 5");
    let (avg, min) = evasion_headline(&result);
    note(quiet, "\npaper: Spectre detected 86-96%, CR-Spectre degrades below 55%;");
    println!(
        "measured: plain Spectre mean {:.1}%, CR-Spectre minimum {:.1}%",
        avg * 100.0,
        min * 100.0
    );
}

/// **Figure 6**: online-type (retraining) HID performance against plain
/// Spectre (panel a) and dynamically perturbed CR-Spectre (panel b).
pub fn fig6(cfg: &CampaignConfig, quiet: bool) {
    let result = cr_spectre::campaign::fig6(cfg);
    print_evasion(&result, "Fig 6");
    let (avg, min) = evasion_headline(&result);
    note(
        quiet,
        "\npaper: online HID holds ~86-96% on Spectre; dynamic CR-Spectre\n\
         degrades detection to <55%, lowest observed 16%;",
    );
    println!(
        "measured: plain Spectre mean {:.1}%, CR-Spectre minimum {:.1}%",
        avg * 100.0,
        min * 100.0
    );
}

/// **Table I**: host IPC overhead under CR-Spectre with offline-type and
/// online-type HIDs, per MiBench benchmark, averaged over `iterations`.
pub fn table1(cfg: &CampaignConfig, iterations: usize, quiet: bool) {
    println!("Table I: performance overhead (IPC) in evaluated benchmarks");
    println!(
        "{:<16}{:>12}{:>22}{:>22}",
        "Benchmark", "Original", "CR-Spectre offline", "CR-Spectre online"
    );
    let rows = cr_spectre::campaign::table1(cfg, iterations);
    let mut off_sum = 0.0;
    let mut on_sum = 0.0;
    for row in &rows {
        println!(
            "{:<16}{:>12.4}{:>14.4} ({:+5.2}%){:>13.4} ({:+5.2}%)",
            row.host.display_name(),
            row.ipc_original,
            row.ipc_offline,
            row.overhead_offline() * 100.0,
            row.ipc_online,
            row.overhead_online() * 100.0,
        );
        off_sum += row.overhead_offline();
        on_sum += row.overhead_online();
    }
    let n = rows.len() as f64;
    note(quiet, "\npaper: average overhead 0.6% (offline) / 1.1% (online)");
    println!(
        "measured: {:+.2}% (offline) / {:+.2}% (online)",
        off_sum / n * 100.0,
        on_sum / n * 100.0
    );
}

fn leak_with(f: impl FnOnce(&mut AttackConfig)) -> f64 {
    let mut config = AttackConfig::new(Mibench::Bitcount50M);
    config.secret_len = 16;
    f(&mut config);
    run_standalone_spectre(&config).leak_accuracy()
}

/// Ablation sweeps over the design choices DESIGN.md calls out:
///
/// 1. **speculation window depth** vs leak accuracy — how deep must
///    transient execution run for Spectre v1 to work at all;
/// 2. **mispredict-resolve latency** (via DRAM latency) vs leak accuracy —
///    the transient budget comes from the flushed bound's miss;
/// 3. **covert-channel stride** vs leak accuracy — strides below the cache
///    line alias probe slots;
/// 4. **reload threshold** vs leak accuracy — the hit/miss decision margin;
/// 5. **perturbation dispersal delay** vs HID detection rate — the knob
///    that turns Algorithm 2 from loud to evasive;
/// 6. **feature-set size** vs detection of the *perturbed* attack.
///
/// Runs at its own fixed scale (250 samples per class); only
/// `cfg.threads` is taken from the caller.
pub fn ablations(cfg: &CampaignConfig, quiet: bool) {
    println!("== Ablation 1: speculation window depth vs leak accuracy ==");
    note(quiet, "(the transient path needs ~7 instructions; shallow windows kill v1)");
    for window in [2u64, 4, 6, 8, 16, 32, 64] {
        let acc = leak_with(|c| c.machine.spec_window = window);
        println!("  spec_window {window:>3}: leak {:>5.1}%", acc * 100.0);
    }

    println!("\n== Ablation 2: DRAM latency vs leak accuracy ==");
    note(quiet, "(the flushed bound's miss latency IS the transient budget)");
    for mem_latency in [20u64, 60, 120, 200, 400] {
        let acc = leak_with(|c| c.machine.caches.mem_latency = mem_latency);
        println!("  mem_latency {mem_latency:>4}: leak {:>5.1}%", acc * 100.0);
    }

    println!("\n== Ablation 3: covert-channel stride vs leak accuracy ==");
    note(quiet, "(strides below the 64-byte line alias neighbouring byte values)");
    for stride in [16i32, 32, 64, 128, 512] {
        let acc = leak_with(|c| c.covert.stride = stride);
        println!("  stride {stride:>4}: leak {:>5.1}%", acc * 100.0);
    }

    println!("\n== Ablation 3b: same stride sweep with a next-line prefetcher ==");
    note(quiet, "(prefetch fills corrupt adjacent probe slots — the historical reason");
    note(quiet, " the classic PoC uses a 512-byte stride)");
    for stride in [64i32, 128, 256, 512] {
        let acc = leak_with(|c| {
            c.covert.stride = stride;
            c.machine.caches.next_line_prefetch = true;
        });
        println!("  stride {stride:>4}: leak {:>5.1}%", acc * 100.0);
    }

    println!("\n== Ablation 4: reload threshold vs leak accuracy ==");
    note(quiet, "(L1 hit ≈ 10 cycles, memory ≈ 230; thresholds outside break decode)");
    for threshold in [5i32, 20, 100, 200, 2000] {
        let acc = leak_with(|c| c.covert.threshold = threshold);
        println!("  threshold {threshold:>5}: leak {:>5.1}%", acc * 100.0);
    }

    // Train one MLP HID for the detection-side ablations.
    let cfg = CampaignConfig {
        samples_per_class: 250,
        threads: cfg.threads,
        ..CampaignConfig::default()
    };
    let features = FeatureSet::paper_default();
    let mut training = build_training_data(&cfg, &Mibench::FIG4_HOSTS, &features);
    let noise = NoiseModel::fit(&training.x, cfg.noise_strength);
    noise.apply(&mut training.x, cfg.seed, 7);
    let hid = Hid::train(HidKind::Mlp, HidMode::Offline, training);

    println!("\n== Ablation 5: perturbation dispersal delay vs detection rate ==");
    note(quiet, "(Algorithm 2 with growing delay loops — §II-E's dispersal mechanism)");
    for delay in [0i32, 200, 800, 2_500, 6_000] {
        let mut config = AttackConfig::new(Mibench::Bitcount50M)
            .with_variant(SpectreVariant::V1)
            .with_perturb(PerturbParams {
                delay,
                loop_count: 24,
                ..PerturbParams::paper_default()
            });
        config.secret_len = 16;
        let outcome = run_standalone_spectre(&config);
        let mut rows = outcome.attack_rows(&features);
        noise.apply(&mut rows, cfg.seed, 11 + delay as u64);
        println!(
            "  delay {delay:>5}: detection {:>5.1}%  (leak {:>5.1}%)",
            hid.detection_rate(&rows) * 100.0,
            outcome.leak_accuracy() * 100.0
        );
    }

    println!("\n== Ablation 6: extra classifier families (beyond the paper's four) ==");
    note(quiet, "(decision tree and k-NN on plain vs evasively perturbed Spectre)");
    {
        use cr_spectre::hid::{DecisionTree, Detector, Knn, Mat};
        use cr_spectre::hpc::features::Normalizer;
        let plain = run_standalone_spectre(&AttackConfig::new(Mibench::Bitcount50M));
        let mut config = AttackConfig::new(Mibench::Bitcount50M)
            .with_perturb(PerturbParams::evasive_default());
        config.secret_len = 16;
        let perturbed = run_standalone_spectre(&config);
        let mut train = build_training_data(&cfg, &Mibench::FIG4_HOSTS, &features);
        let noise2 = NoiseModel::fit(&train.x, cfg.noise_strength);
        noise2.apply(&mut train.x, cfg.seed, 19);
        let norm = Normalizer::fit(&train.x);
        let mut x = Mat::from_rows(&train.x);
        for i in 0..x.rows() {
            norm.apply(x.row_mut(i));
        }
        let mut models: Vec<Box<dyn Detector>> =
            vec![Box::new(DecisionTree::new()), Box::new(Knn::new())];
        for model in &mut models {
            model.fit(&x, &train.y);
            let rate = |outcome: &cr_spectre::attack::AttackOutcome, tag: u64| {
                let mut rows = outcome.attack_rows(&features);
                noise2.apply(&mut rows, cfg.seed, tag);
                for row in &mut rows {
                    norm.apply(row);
                }
                let hits = rows.iter().filter(|r| model.predict(r) == 1).count();
                hits as f64 / rows.len().max(1) as f64
            };
            println!(
                "  {:<4} plain Spectre {:>5.1}%   perturbed CR-Spectre {:>5.1}%",
                model.name(),
                rate(&plain, 23) * 100.0,
                rate(&perturbed, 29) * 100.0
            );
        }
    }

    println!("\n== Ablation 7: feature-set size vs detection of the perturbed attack ==");
    let mut config = AttackConfig::new(Mibench::Bitcount50M)
        .with_perturb(PerturbParams::evasive_default());
    config.secret_len = 16;
    let outcome = run_standalone_spectre(&config);
    for size in [1usize, 2, 4, 8, 16] {
        let fs = FeatureSet::paper(size);
        let mut training = build_training_data(&cfg, &Mibench::FIG4_HOSTS, &fs);
        let noise = NoiseModel::fit(&training.x, cfg.noise_strength);
        noise.apply(&mut training.x, cfg.seed, 13);
        let hid = Hid::train(HidKind::Mlp, HidMode::Offline, training);
        let mut rows = outcome.attack_rows(&fs);
        noise.apply(&mut rows, cfg.seed, 17 + size as u64);
        println!(
            "  features {size:>2}: detection of perturbed CR-Spectre {:>5.1}%",
            hid.detection_rate(&rows) * 100.0
        );
    }

    println!("\n== Ablation 8: offline Fisher ranking of all 56 events ==");
    note(quiet, "(does the paper-ranked real-time prefix agree with a data-driven rank?)");
    {
        let all = FeatureSet::all();
        let training = build_training_data(&cfg, &Mibench::FIG4_HOSTS, &all);
        let ranked = rank_by_fisher(all.events(), &training.x, &training.y);
        for (i, (event, score)) in ranked.iter().take(10).enumerate() {
            println!("  #{:<2} {:<22} fisher {score:.3}", i + 1, event.to_string());
        }
    }

    println!("\n== Ablation 9: the online HID's hidden false-alarm cost ==");
    note(quiet, "(after chasing perturbation variants, how noisy is the detector?)");
    {
        let mut training = build_training_data(&cfg, &Mibench::FIG4_HOSTS, &features);
        let noise9 = NoiseModel::fit(&training.x, cfg.noise_strength);
        noise9.apply(&mut training.x, cfg.seed, 31);
        let mut hid = Hid::train(HidKind::Mlp, HidMode::Online, training);
        // Fresh benign evaluation set (held out).
        let mut benign_eval = Dataset::new();
        for trace in benign_traces(&cfg, &[Mibench::Crc32, Mibench::Fft]) {
            benign_eval.push_trace(&trace, Label::Benign, &features);
        }
        noise9.apply(&mut benign_eval.x, cfg.seed, 37);
        let before = Confusion::measure(&hid, &benign_eval.x, &benign_eval.y);
        // Chase three evasive variants, self-labelling as a real deployment
        // would.
        for attempt in 0..3u64 {
            let mut config = AttackConfig::new(Mibench::Sha1)
                .with_perturb(PerturbParams::evasive_default());
            config.secret_len = 16;
            let outcome = cr_spectre::attack::run_cr_spectre(&config).expect("launches");
            let mut rows = outcome.attack_rows(&features);
            noise9.apply(&mut rows, cfg.seed, 41 + attempt);
            hid.ingest_self_labeled(&rows);
            hid.retrain();
        }
        let after = Confusion::measure(&hid, &benign_eval.x, &benign_eval.y);
        println!(
            "  benign false-positive rate: {:.1}% before, {:.1}% after the chase",
            before.false_positive_rate() * 100.0,
            after.false_positive_rate() * 100.0
        );
    }
}

fn ipc(machine: &MachineConfig, host: Mibench) -> f64 {
    profile_standalone(machine, &standalone_image(host), 2_000).outcome.ipc()
}

fn leak(machine: &MachineConfig) -> f64 {
    let mut cfg = AttackConfig::new(Mibench::Bitcount50M);
    cfg.machine = machine.clone();
    cfg.secret_len = 16;
    run_standalone_spectre(&cfg).leak_accuracy()
}

/// Extension experiment: the trade-off the paper's introduction argues —
/// hardware/microcode Spectre defenses (InvisiSpec, Context-Sensitive
/// Fencing, §I) stop the attack but "induce overheads and require
/// architecture level modifications", whereas the HID is low-overhead
/// but, as CR-Spectre shows, evadable.
///
/// For each MiBench workload this prints the IPC under no defense,
/// InvisiSpec and CSF, plus whether the Spectre leak survives.
pub fn defense_overhead(quiet: bool) {
    let baseline = MachineConfig::default();
    let invisispec = MachineConfig::invisispec();
    let csf = MachineConfig::csf();

    println!("Defense overhead vs protection (extension of the paper's §I argument)");
    println!(
        "\n{:<16}{:>12}{:>22}{:>22}",
        "Benchmark", "no defense", "InvisiSpec", "CSF"
    );
    let mut inv_sum = 0.0;
    let mut csf_sum = 0.0;
    let hosts = Mibench::TABLE1_ROWS;
    for &host in &hosts {
        let base = ipc(&baseline, host);
        let inv = ipc(&invisispec, host);
        let fenced = ipc(&csf, host);
        inv_sum += 1.0 - inv / base;
        csf_sum += 1.0 - fenced / base;
        println!(
            "{:<16}{:>12.4}{:>14.4} ({:+5.1}%){:>13.4} ({:+5.1}%)",
            host.display_name(),
            base,
            inv,
            (1.0 - inv / base) * 100.0,
            fenced,
            (1.0 - fenced / base) * 100.0,
        );
    }
    let n = hosts.len() as f64;
    println!(
        "\naverage slowdown: InvisiSpec {:+.1}%, CSF {:+.1}%",
        inv_sum / n * 100.0,
        csf_sum / n * 100.0
    );

    println!("\nSpectre v1 leak accuracy under each defense:");
    println!("  no defense : {:>5.1}%", leak(&baseline) * 100.0);
    println!("  InvisiSpec : {:>5.1}%", leak(&invisispec) * 100.0);
    println!("  CSF        : {:>5.1}%", leak(&csf) * 100.0);
    note(quiet, "\nThe HID's appeal (and CR-Spectre's opening): zero slowdown on the");
    note(quiet, "host, at the price of a detector an adaptive attacker can evade.");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_result() -> EvasionResult {
        let mk = |vals: &[f64]| {
            HidKind::ALL
                .iter()
                .map(|&kind| DetectorSeries { kind, accuracy: vals.to_vec() })
                .collect()
        };
        EvasionResult { spectre: mk(&[0.9, 0.92]), cr_spectre: mk(&[0.4, 0.2]) }
    }

    #[test]
    fn headline_extracts_avg_and_min() {
        let (avg, min) = evasion_headline(&fake_result());
        assert!((avg - 0.91).abs() < 1e-12);
        assert!((min - 0.2).abs() < 1e-12);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.163).trim(), "16.3%");
    }

    #[test]
    fn printing_does_not_panic() {
        print_evasion(&fake_result(), "Fig X");
    }
}
