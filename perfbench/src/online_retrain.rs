//! `online_retrain`: the Figure-6 panel-(b) arms race with the simulation
//! moved into set-up.
//!
//! Set-up simulates the training corpus (`campaign::build_training_data`)
//! and a pool of windows: the attack windows of the first few variants of
//! the seeded `VariantGenerator` chain, each a `run_cr_spectre` trial, and
//! the benign windows of `campaign::benign_traces`. It then trains four
//! `HidMode::Online` detectors and runs warm-up rounds until the
//! detectors' corpora reach the observed-row cap, as a deployed detector's
//! would. An operation is one round: each family, on its own `par_map`
//! job, runs `detection_rate` on the current variant's windows, ingests
//! them (self-labelled when evaded), ingests benign windows and retrains;
//! the attacker mutates the perturbation when any family is not evaded.
//! Generation `g` of the chain takes its windows from pool slot
//! `(g - 1) mod VARIANTS`.
//!
//! HID fitting is nearly all of the loop's work; the NN fit is the
//! straggler that sets round latency, so a round's host slowdown is the one
//! measured around the longest job, on its thread.

use std::time::Instant;

use cr_spectre_core::attack::{run_cr_spectre, AttackConfig};
use cr_spectre_core::campaign::{benign_traces, build_training_data, CampaignConfig, NoiseModel};
use cr_spectre_core::parallel::{par_map, par_map_indices};
use cr_spectre_core::perturb::{PerturbParams, VariantGenerator};
use cr_spectre_hid::detector::{Hid, HidKind, HidMode};
use cr_spectre_hpc::dataset::Label;
use cr_spectre_hpc::features::FeatureSet;
use cr_spectre_hpc::profiler::Trace;
use cr_spectre_workloads::host::SECRET;
use cr_spectre_workloads::mibench::Mibench;

use crate::calib::{Clock, Kernel};
use crate::stats::{Digest, Metric, Metrics};
use crate::trace::{self, Span};
use crate::{digest_rows, trace_counts, Finish, Op, Options, Scale, Step, Workload};

/// Noise streams of this workload (distinct from the campaign drivers').
const NOISE_TRAIN: u64 = 0x7e00_0000;
const NOISE_ATTACK: u64 = 0x7e01_0000;
const NOISE_BENIGN: u64 = 0x7e02_0000;

/// Sizes of one scale.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sizes {
    pub(crate) samples_per_class: usize,
    pub(crate) attack_rows: usize,
    pub(crate) benign_rows: usize,
    pub(crate) variants: usize,
    pub(crate) observed_cap: usize,
    pub(crate) prefix_rounds: u64,
}

pub(crate) fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            samples_per_class: 400,
            attack_rows: 512,
            benign_rows: 512,
            variants: 4,
            observed_cap: 2_400,
            prefix_rounds: 4,
        },
        Scale::Tiny => Sizes {
            samples_per_class: 40,
            attack_rows: 32,
            benign_rows: 32,
            variants: 2,
            observed_cap: 96,
            prefix_rounds: 2,
        },
    }
}

pub(crate) fn hosts(scale: Scale) -> Vec<Mibench> {
    match scale {
        Scale::Full => Mibench::FIG4_HOSTS.to_vec(),
        Scale::Tiny => vec![Mibench::Crc32],
    }
}

pub(crate) fn campaign_config(opts: &Options, sizes: &Sizes) -> CampaignConfig {
    CampaignConfig {
        samples_per_class: sizes.samples_per_class,
        seed: opts.seed,
        threads: opts.threads,
        ..CampaignConfig::default()
    }
}

fn retrain_span(kind: HidKind) -> &'static str {
    match kind {
        HidKind::Mlp => "hid.retrain.MLP",
        HidKind::Nn => "hid.retrain.NN",
        HidKind::Lr => "hid.retrain.LR",
        HidKind::Svm => "hid.retrain.SVM",
    }
}

/// `len` rows of `pool` starting at `start`, wrapping around.
pub(crate) fn cyclic(pool: &[Vec<f64>], start: usize, len: usize) -> Vec<Vec<f64>> {
    (0..len)
        .map(|i| pool[(start + i) % pool.len()].clone())
        .collect()
}

/// The `online_retrain` workload state.
#[derive(Debug)]
pub struct OnlineRetrain {
    sizes: Sizes,
    threads: usize,
    hids: Vec<Hid>,
    generator: VariantGenerator,
    variant: PerturbParams,
    attack_pool: Vec<Vec<Vec<f64>>>,
    benign_pool: Vec<Vec<f64>>,
    round: u64,
    timed_rounds: u64,
    setup_digest: u64,
    setup_ok: bool,
    sim_counts: [u64; 6],
    digest: Digest,
    rows_classified: u64,
    adaptations: u64,
    corpus_rows: u64,
    last_rates: Vec<f64>,
}

/// What one round produced.
struct Round {
    rates: Vec<f64>,
    adapted: bool,
    classified: u64,
    windows: u64,
    /// Host slowdown around the longest job.
    slowdown: f64,
}

impl OnlineRetrain {
    fn round(&mut self) -> Round {
        let s = self.sizes;
        let slot = (self.generator.generation() as usize - 1) % s.variants;
        let offset = self.round as usize;
        let attack = cyclic(
            &self.attack_pool[slot],
            offset * s.attack_rows,
            s.attack_rows,
        );
        let benign = cyclic(&self.benign_pool, offset * s.benign_rows, s.benign_rows);
        self.round += 1;
        let scored = {
            let _s = trace::span("core.parallel.par_map");
            let parent = trace::current();
            par_map(std::mem::take(&mut self.hids), self.threads, |mut hid| {
                let _job = trace::span_under("core.parallel.job", parent);
                let before = Kernel::Dense.slowdown();
                let t0 = Instant::now();
                let rate = {
                    let _s = trace::span("hid.detect");
                    hid.detection_rate(&attack)
                };
                // As in the Figure-6 driver: a run the detector classified
                // benign can only be self-labelled window by window.
                let self_labeled = Hid::evaded(rate);
                {
                    let _s = trace::span("hid.ingest");
                    if self_labeled {
                        hid.ingest_self_labeled(&attack);
                    } else {
                        hid.ingest(&attack, Label::Attack);
                    }
                    hid.ingest(&benign, Label::Benign);
                }
                {
                    let _s = trace::span(retrain_span(hid.kind()));
                    hid.retrain();
                }
                let secs = t0.elapsed().as_secs_f64();
                let slowdown = (before + Kernel::Dense.slowdown()) / 2.0;
                (rate, self_labeled, hid, secs, slowdown)
            })
        };
        let mut round = Round {
            rates: Vec::new(),
            adapted: false,
            classified: 0,
            windows: (attack.len() + benign.len()) as u64,
            slowdown: 1.0,
        };
        let (mut detected_by_any, mut evaded_by_all) = (false, true);
        let mut longest = 0.0;
        for (rate, self_labeled, hid, secs, slowdown) in scored {
            if secs > longest {
                longest = secs;
                round.slowdown = slowdown;
            }
            round.rates.push(rate);
            round.classified += attack.len() as u64 * (1 + u64::from(self_labeled));
            detected_by_any |= Hid::detected(rate);
            evaded_by_all &= Hid::evaded(rate);
            self.hids.push(hid);
        }
        if detected_by_any || !evaded_by_all {
            let _s = trace::span("core.perturb.next_variant");
            self.variant = self.generator.next_variant();
            round.adapted = true;
        }
        round
    }
}

fn fold_round(d: &mut Digest, round: &Round, variant: &PerturbParams) {
    for &r in &round.rates {
        d.f64(r);
    }
    d.u64(u64::from(round.adapted));
    d.bytes(format!("{variant:?}").as_bytes());
}

impl Workload for OnlineRetrain {
    const SETUP_REPS: usize = 3;

    fn setup(opts: &Options, clock: &mut Clock) -> OnlineRetrain {
        let sizes = sizes(opts.scale);
        let hosts = hosts(opts.scale);
        let cfg = campaign_config(opts, &sizes);
        let features = FeatureSet::paper_default();
        let mut setup_ok = true;
        let (training, attack_pool, benign_pool, sim_counts) = {
            let _s = trace::span("bench.setup.sim");
            let mut training = {
                let _s = trace::span("core.campaign.build_training_data");
                build_training_data(&cfg, &hosts, &features)
            };
            clock.lap(Kernel::Interp);
            let noise = NoiseModel::fit(&training.x, cfg.noise_strength);
            noise.apply(&mut training.x, opts.seed, NOISE_TRAIN);
            let mut generator = VariantGenerator::new(opts.seed);
            let variants: Vec<PerturbParams> = (0..sizes.variants)
                .map(|_| generator.next_variant())
                .collect();
            let outcomes = {
                let _s = trace::span("core.parallel.par_map");
                let parent = trace::current();
                par_map_indices(sizes.variants, opts.threads, |k| {
                    let _job = trace::span_under("core.parallel.job", parent);
                    let _s = trace::span("core.attack.run_cr_spectre");
                    let config =
                        AttackConfig::new(hosts[k % hosts.len()]).with_perturb(variants[k]);
                    run_cr_spectre(&config).expect("attack launches")
                })
            };
            clock.lap(Kernel::Interp);
            let benign = {
                let _s = trace::span("core.campaign.benign_traces");
                benign_traces(&cfg, &hosts)
            };
            clock.lap(Kernel::Interp);
            let mut attack_pool = Vec::new();
            for (k, o) in outcomes.iter().enumerate() {
                setup_ok &= o.trace.outcome.exit.is_clean() && o.recovered == SECRET;
                let mut rows = o.attack_rows(&features);
                noise.apply(&mut rows, opts.seed, NOISE_ATTACK + k as u64);
                attack_pool.push(rows);
            }
            let mut benign_pool: Vec<Vec<f64>> = benign
                .iter()
                .flat_map(|t| t.feature_rows(features.events()))
                .collect();
            noise.apply(&mut benign_pool, opts.seed, NOISE_BENIGN);
            let traces: Vec<&Trace> = outcomes
                .iter()
                .map(|o| &o.trace)
                .chain(benign.iter())
                .collect();
            (training, attack_pool, benign_pool, trace_counts(&traces))
        };
        let hids = {
            let _s = trace::span("bench.setup.train");
            let parent = trace::current();
            par_map(HidKind::ALL.to_vec(), opts.threads, |kind| {
                let _job = trace::span_under("core.parallel.job", parent);
                let mut hid = Hid::train(kind, HidMode::Online, training.clone());
                hid.set_observed_cap(sizes.observed_cap);
                hid
            })
        };
        clock.lap(Kernel::Dense);
        let mut generator = VariantGenerator::new(opts.seed);
        let variant = generator.next_variant();
        let mut w = OnlineRetrain {
            sizes,
            threads: opts.threads,
            hids,
            generator,
            variant,
            attack_pool,
            benign_pool,
            round: 0,
            timed_rounds: 0,
            setup_digest: 0,
            setup_ok,
            sim_counts,
            digest: Digest::default(),
            rows_classified: 0,
            adaptations: 0,
            corpus_rows: 0,
            last_rates: Vec::new(),
        };
        // Warm-up: enough rounds for every corpus to reach the cap, so
        // every timed round refits the same number of rows.
        let per_round = (sizes.attack_rows + sizes.benign_rows) as u64;
        let warmup = (sizes.observed_cap as u64).div_ceil(per_round);
        let mut d = Digest::default();
        digest_rows(&mut d, &training.x);
        for pool in &w.attack_pool {
            digest_rows(&mut d, pool);
        }
        digest_rows(&mut d, &w.benign_pool);
        {
            let _s = trace::span("bench.setup.warmup");
            for _ in 0..warmup {
                let round = w.round();
                w.setup_ok &= round.rates.iter().all(|r| (0.0..=1.0).contains(r));
                fold_round(&mut d, &round, &w.variant);
                clock.lap(Kernel::Dense);
            }
        }
        w.setup_digest = d.value();
        w
    }

    fn setup_digest(&self) -> u64 {
        self.setup_digest
    }

    fn prefix_ops(&self) -> u64 {
        self.sizes.prefix_rounds
    }

    fn step(&mut self) -> Step {
        let t0 = Instant::now();
        let _root = trace::span("bench.round");
        let round = self.round();
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        let failed = round.rates.iter().any(|r| !(0.0..=1.0).contains(r));
        if self.timed_rounds < self.sizes.prefix_rounds {
            fold_round(&mut self.digest, &round, &self.variant);
            self.rows_classified += round.classified;
            self.adaptations += u64::from(round.adapted);
            if self.timed_rounds + 1 == self.sizes.prefix_rounds {
                self.corpus_rows = self.hids.iter().map(|h| h.corpus_len() as u64).sum();
            }
        }
        self.timed_rounds += 1;
        self.last_rates = round.rates;
        Step {
            ops: vec![Op {
                latency_ms,
                slowdown: round.slowdown,
                windows: round.windows,
                instructions: 0,
            }],
            failed: u64::from(failed),
        }
    }

    fn finish(&mut self, _opts: &Options) -> Finish {
        let c = self.sim_counts;
        Finish {
            failed: 0,
            checks_ok: self.setup_ok,
            digest: self.digest.value() ^ self.setup_digest,
            counts: vec![
                ("hpc.windows", c[5]),
                ("rop.gadgets", 0),
                ("sim.instructions", c[0]),
                ("sim.cycles", c[1]),
                ("sim.spec_squashes", c[2]),
                ("sim.l1d_misses", c[3]),
                ("sim.flushes", c[4]),
                ("hid.corpus_rows", self.corpus_rows),
                ("hid.rows_classified", self.rows_classified),
                ("attack.adaptations", self.adaptations),
            ],
            notes: vec![format!(
                "adaptations in the first {} timed rounds: {}; generation now {}; last detection rates (MLP, NN, LR, SVM) {:?}",
                self.sizes.prefix_rounds,
                self.adaptations,
                self.generator.generation(),
                self.last_rates
            )],
        }
    }

    fn layer_metrics(&self, spans: &[Span], ops: u64, out: &mut Metrics) {
        let per_op = |name: &str| trace::total_ms(spans, name) / ops.max(1) as f64;
        for kind in HidKind::ALL {
            out.insert(
                format!("hid.retrain_ms.{}", kind.name()),
                Metric {
                    value: per_op(retrain_span(kind)),
                    unit: "ms",
                },
            );
        }
        out.insert(
            "hid.detect_ms".into(),
            Metric {
                value: per_op("hid.detect"),
                unit: "ms",
            },
        );
        out.insert(
            "hid.ingest_ms".into(),
            Metric {
                value: per_op("hid.ingest"),
                unit: "ms",
            },
        );
    }
}
