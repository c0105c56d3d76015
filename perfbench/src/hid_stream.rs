//! `hid_stream`: one client scoring sampling bursts, closed loop.
//!
//! Set-up trains four offline detectors on the `build_training_data`
//! corpus and builds a pool of windows: the attack windows of a V1 and an
//! RSB `run_cr_spectre` trial with a seeded generated perturbation, and
//! the benign windows of `campaign::benign_traces`. From the pool it cuts
//! distinct 64-window batches (a monitored host's sampling burst) with a
//! seeded attack share. An operation is one batch scored by all four
//! families through `Hid::classify_batch`. A step scores a block of
//! [`BLOCK`] batches between two host-slowdown probes.
//!
//! The same `hid` layer as `online_retrain`, used for prediction instead
//! of fitting. Every op's flags must equal those of the batch's first
//! scoring, and after the loop each batch's flags must equal per-row
//! `Hid::classify`.

use std::time::Instant;

use cr_spectre_core::attack::{run_cr_spectre, AttackConfig};
use cr_spectre_core::campaign::{benign_traces, build_training_data, NoiseModel};
use cr_spectre_core::parallel::par_map;
use cr_spectre_core::spectre::SpectreVariant;
use cr_spectre_hid::detector::{Hid, HidKind, HidMode};
use cr_spectre_hpc::features::FeatureSet;
use cr_spectre_hpc::profiler::Trace;
use cr_spectre_workloads::host::SECRET;

use crate::attack_sweep::generated_variant;
use crate::calib::{Clock, Kernel};
use crate::online_retrain::{campaign_config, hosts, sizes};
use crate::stats::{Digest, Metric, Metrics};
use crate::trace::{self, Span};
use crate::{digest_rows, trace_counts, Finish, Op, Options, Picks, Scale, Step, Workload};

/// Windows per batch.
pub const BATCH: usize = 64;

/// Batches per step, about 15 ms: short enough that a host slowdown
/// probed at both ends holds across it, long enough that the probes cost
/// about 2% of the loop.
pub const BLOCK: usize = 256;

const NOISE_TRAIN: u64 = 0x5e00_0000;
const NOISE_POOL: u64 = 0x5e01_0000;

fn classify_span(kind: HidKind) -> &'static str {
    match kind {
        HidKind::Mlp => "hid.classify.MLP",
        HidKind::Nn => "hid.classify.NN",
        HidKind::Lr => "hid.classify.LR",
        HidKind::Svm => "hid.classify.SVM",
    }
}

/// Attack flags of one batch as a bit mask, window `i` at bit `i`.
fn mask(flags: &[u8]) -> u64 {
    flags
        .iter()
        .enumerate()
        .fold(0, |m, (i, &f)| m | (u64::from(f == 1) << i))
}

/// Flags of one batch, per family in `HidKind::ALL` order.
type Masks = [u64; 4];

/// The `hid_stream` workload state.
#[derive(Debug)]
pub struct HidStream {
    hids: Vec<Hid>,
    batches: Vec<Vec<Vec<f64>>>,
    /// Flags of each batch's first scoring, and how many ops agreed.
    seen: Vec<Option<(Masks, u64)>>,
    ops: u64,
    prefix: u64,
    setup_digest: u64,
    setup_ok: bool,
    sim_counts: [u64; 6],
    digest: Digest,
    /// The host slowdown probed at the end of the last step.
    last_slowdown: Option<f64>,
}

impl HidStream {
    fn score(&self, batch: &[Vec<f64>]) -> Masks {
        let mut masks = [0; 4];
        for (m, hid) in masks.iter_mut().zip(&self.hids) {
            let _s = trace::span(classify_span(hid.kind()));
            *m = mask(&hid.classify_batch(batch));
        }
        masks
    }
}

impl Workload for HidStream {
    const SETUP_REPS: usize = 5;

    fn setup(opts: &Options, clock: &mut Clock) -> HidStream {
        let sizes = sizes(opts.scale);
        let hosts = hosts(opts.scale);
        let cfg = campaign_config(opts, &sizes);
        let features = FeatureSet::paper_default();
        let n_batches = match opts.scale {
            Scale::Full => 512,
            Scale::Tiny => 8,
        };
        let mut setup_ok = true;
        let (training, attack, benign, sim_counts) = {
            let _s = trace::span("bench.setup.sim");
            let mut training = {
                let _s = trace::span("core.campaign.build_training_data");
                build_training_data(&cfg, &hosts, &features)
            };
            clock.lap(Kernel::Interp);
            let noise = NoiseModel::fit(&training.x, cfg.noise_strength);
            noise.apply(&mut training.x, opts.seed, NOISE_TRAIN);
            let generated = generated_variant(opts.seed);
            let host = hosts[(opts.seed % hosts.len() as u64) as usize];
            let outcomes = {
                let _s = trace::span("core.parallel.par_map");
                let parent = trace::current();
                par_map(SpectreVariant::ALL.to_vec(), opts.threads, |variant| {
                    let _job = trace::span_under("core.parallel.job", parent);
                    let _s = trace::span("core.attack.run_cr_spectre");
                    let config = AttackConfig::new(host)
                        .with_variant(variant)
                        .with_perturb(generated);
                    run_cr_spectre(&config).expect("attack launches")
                })
            };
            let benign = {
                let _s = trace::span("core.campaign.benign_traces");
                benign_traces(&cfg, &hosts)
            };
            clock.lap(Kernel::Interp);
            let mut attack: Vec<Vec<f64>> = Vec::new();
            for o in &outcomes {
                setup_ok &= o.trace.outcome.exit.is_clean() && o.recovered == SECRET;
                attack.extend(o.attack_rows(&features));
            }
            let mut benign_rows: Vec<Vec<f64>> = benign
                .iter()
                .flat_map(|t| t.feature_rows(features.events()))
                .collect();
            noise.apply(&mut attack, opts.seed, NOISE_POOL);
            noise.apply(&mut benign_rows, opts.seed, NOISE_POOL + 1);
            let traces: Vec<&Trace> = outcomes
                .iter()
                .map(|o| &o.trace)
                .chain(benign.iter())
                .collect();
            (training, attack, benign_rows, trace_counts(&traces))
        };
        let hids = {
            let _s = trace::span("bench.setup.train");
            let parent = trace::current();
            par_map(HidKind::ALL.to_vec(), opts.threads, |kind| {
                let _job = trace::span_under("core.parallel.job", parent);
                Hid::train(kind, HidMode::Offline, training.clone())
            })
        };
        clock.lap(Kernel::Dense);
        let mut picks = Picks::new(opts.seed, 0x5e02_0000);
        let batches: Vec<Vec<Vec<f64>>> = (0..n_batches)
            .map(|_| {
                let attack_share = picks.below(BATCH + 1);
                (0..BATCH)
                    .map(|i| {
                        let pool = if i < attack_share { &attack } else { &benign };
                        pool[picks.below(pool.len())].clone()
                    })
                    .collect()
            })
            .collect();
        let mut d = Digest::default();
        digest_rows(&mut d, &training.x);
        for b in &batches {
            digest_rows(&mut d, b);
        }
        let mut w = HidStream {
            hids,
            seen: vec![None; batches.len()],
            batches,
            ops: 0,
            prefix: 2 * n_batches as u64,
            setup_digest: 0,
            setup_ok,
            sim_counts,
            digest: Digest::default(),
            last_slowdown: None,
        };
        {
            let _s = trace::span("bench.setup.warmup");
            for b in 0..w.batches.len().min(16) {
                for m in w.score(&w.batches[b]) {
                    d.u64(m);
                }
            }
        }
        clock.lap(Kernel::Dense);
        w.setup_digest = d.value();
        w
    }

    fn setup_digest(&self) -> u64 {
        self.setup_digest
    }

    fn prefix_ops(&self) -> u64 {
        self.prefix
    }

    fn step(&mut self) -> Step {
        let before = match self.last_slowdown {
            Some(s) => s,
            None => Kernel::Dense.slowdown(),
        };
        let mut step = Step::default();
        for _ in 0..BLOCK {
            let b = (self.ops % self.batches.len() as u64) as usize;
            let t0 = Instant::now();
            let masks = {
                let _root = trace::span("bench.batch");
                self.score(&self.batches[b])
            };
            let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
            let failed = match &mut self.seen[b] {
                Some((first, agreed)) if *first == masks => {
                    *agreed += 1;
                    false
                }
                Some(_) => true,
                slot @ None => {
                    *slot = Some((masks, 1));
                    false
                }
            };
            if self.ops < self.prefix {
                for m in masks {
                    self.digest.u64(u64::from(m.count_ones()));
                }
            }
            self.ops += 1;
            step.ops.push(Op {
                latency_ms,
                slowdown: 0.0,
                windows: BATCH as u64,
                instructions: 0,
            });
            step.failed += u64::from(failed);
        }
        let after = Kernel::Dense.slowdown();
        self.last_slowdown = Some(after);
        for op in &mut step.ops {
            op.slowdown = (before + after) / 2.0;
        }
        step
    }

    fn finish(&mut self, _opts: &Options) -> Finish {
        // Every op that agreed with a batch's first scoring fails too if
        // that scoring disagrees with per-row classification.
        let mut failed = 0;
        let mut wrong_batches = 0;
        for (batch, seen) in self.batches.iter().zip(&self.seen) {
            let Some((masks, agreed)) = seen else {
                continue;
            };
            let per_row: Vec<u64> = self
                .hids
                .iter()
                .map(|hid| {
                    let flags: Vec<u8> = batch.iter().map(|row| hid.classify(row)).collect();
                    mask(&flags)
                })
                .collect();
            if per_row != masks {
                failed += agreed;
                wrong_batches += 1;
            }
        }
        let c = self.sim_counts;
        let prefix = self.prefix.min(self.ops);
        Finish {
            failed,
            checks_ok: self.setup_ok && wrong_batches == 0,
            digest: self.digest.value() ^ self.setup_digest,
            counts: vec![
                ("hpc.windows", c[5]),
                ("rop.gadgets", 0),
                ("sim.instructions", c[0]),
                ("sim.cycles", c[1]),
                ("sim.spec_squashes", c[2]),
                ("sim.l1d_misses", c[3]),
                ("sim.flushes", c[4]),
                ("hid.corpus_rows", 0),
                ("hid.rows_classified", prefix * (BATCH * self.hids.len()) as u64),
                ("attack.adaptations", 0),
            ],
            notes: vec![format!(
                "per-row check: {wrong_batches} of {} distinct batches disagree with classify_batch",
                self.seen.iter().filter(|s| s.is_some()).count()
            )],
        }
    }

    fn layer_metrics(&self, spans: &[Span], _ops: u64, out: &mut Metrics) {
        for kind in HidKind::ALL {
            let name = classify_span(kind);
            let calls = trace::count(spans, name).max(1) as f64;
            out.insert(
                format!("hid.classify_us.{}", kind.name()),
                Metric {
                    value: trace::total_ms(spans, name) * 1e3 / calls,
                    unit: "us",
                },
            );
        }
    }
}
