//! `attack_sweep`: a closed-loop CR-Spectre campaign.
//!
//! Each pass is a list of trials that `core::parallel::par_map` workers
//! pull from: per MiBench host, a `run_cr_spectre` trial for each variant
//! (V1, RSB) and perturbation (the evasive default and a
//! `VariantGenerator` variant drawn from the seed), a benign
//! `profile_standalone` of the host; then the `BenignApp`s and two
//! `run_standalone_spectre` runs. The seed fixes the list once; every pass
//! of a run repeats it. An operation is one trial, timed between two
//! host-slowdown probes on its worker thread.
//!
//! Simulation dominates and the HID does no work here. Hosts repeat
//! across trials and passes, so the per-host work (image build, load,
//! scan, probe) repeats too. When tracing, CR-Spectre trials run through
//! [`split_cr_spectre`], the same chain as `run_cr_spectre` cut into its
//! public steps; [`AttackSweep::finish`] checks the two agree.

use std::collections::BTreeMap;
use std::time::Instant;

use cr_spectre_core::attack::{
    run_cr_spectre, run_standalone_spectre, AttackConfig, AttackError, AttackOutcome, ATTACK_BINARY,
};
use cr_spectre_core::campaign::profile_standalone;
use cr_spectre_core::parallel::{derive_seed, par_map};
use cr_spectre_core::perturb::{PerturbParams, VariantGenerator};
use cr_spectre_core::spectre::{build_spectre_image, SpectreConfig, SpectreVariant};
use cr_spectre_hpc::profiler::{profile, Trace};
use cr_spectre_rop::chain::Chain;
use cr_spectre_rop::exploit::probe_ret_offset;
use cr_spectre_rop::payload::PayloadBuilder;
use cr_spectre_rop::scanner::Scanner;
use cr_spectre_sim::config::MachineConfig;
use cr_spectre_sim::cpu::Machine;
use cr_spectre_sim::isa::Reg;
use cr_spectre_workloads::benign::BenignApp;
use cr_spectre_workloads::host::{
    standalone_image, vulnerable_host, HostOptions, RESUME_SYMBOL, SECRET, SECRET_SYMBOL,
};
use cr_spectre_workloads::mibench::Mibench;

use crate::calib::{Clock, Kernel};
use crate::stats::{Digest, Metric, Metrics};
use crate::trace::{self, Span};
use crate::{trace_counts, Finish, Op, Options, Scale, Step, Workload};

/// PMU sampling interval of every profiled run, in cycles.
const INTERVAL: u64 = 2_000;

/// Where a benign profile's image comes from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// A MiBench host, standalone.
    Host(Mibench),
    /// A benign background application.
    App(BenignApp),
}

/// One trial of a pass.
#[derive(Debug, Clone, Copy)]
pub enum Trial {
    /// ROP-injected CR-Spectre against a host.
    Cr {
        /// The hijacked host.
        host: Mibench,
        /// Speculation variant.
        variant: SpectreVariant,
        /// Algorithm-2 perturbation.
        perturb: PerturbParams,
    },
    /// A benign application profiled start to finish.
    Benign(Source),
    /// The attack binary run standalone.
    Standalone(SpectreVariant),
}

/// A generated perturbation for one host: of the first generated
/// variants (generation 2) of 31 `VariantGenerator`s seeded from `seed`,
/// the one whose dispersal work (`loop_count * delay`) is the median. A
/// single draw's work varies sevenfold; the median of 31 keeps runs of
/// different seeds comparable.
pub fn generated_variant(seed: u64) -> PerturbParams {
    let mut drawn: Vec<PerturbParams> = (0..31)
        .map(|k| {
            let mut generator = VariantGenerator::new(derive_seed(seed, k));
            let _evasive = generator.next_variant();
            generator.next_variant()
        })
        .collect();
    drawn.sort_by_key(|p| i64::from(p.loop_count) * i64::from(p.delay));
    drawn[drawn.len() / 2]
}

/// The trials of one pass: the attack trials host by host, then the short
/// benign and standalone trials, which fill the gap while the last attack
/// trial finishes, so the two workers end a pass within a short trial of
/// each other. The order is fixed, so which trials run side by side, and
/// with it peak memory, does not change with the seed; the seed picks the
/// generated perturbations.
pub fn pass_trials(hosts: &[Mibench], seed: u64) -> Vec<Trial> {
    let mut trials = Vec::new();
    for (i, &host) in hosts.iter().enumerate() {
        let generated = generated_variant(derive_seed(seed, i as u64));
        for variant in SpectreVariant::ALL {
            for perturb in [PerturbParams::evasive_default(), generated] {
                trials.push(Trial::Cr {
                    host,
                    variant,
                    perturb,
                });
            }
        }
    }
    trials.extend(hosts.iter().map(|&h| Trial::Benign(Source::Host(h))));
    trials.extend(BenignApp::ALL.map(|a| Trial::Benign(Source::App(a))));
    trials.extend(SpectreVariant::ALL.map(Trial::Standalone));
    trials
}

/// Which profile time a trial contributes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A CR-Spectre trial.
    Attack,
    /// A benign profile.
    Benign,
    /// A standalone Spectre run (not split, so no profile time).
    Standalone,
}

/// The checked, deterministic result of one trial.
#[derive(Debug, Clone)]
pub struct TrialResult {
    /// Trial kind.
    pub kind: Kind,
    /// Passed its check.
    pub ok: bool,
    /// Simulated cycles of the profiled run.
    pub cycles: u64,
    /// Simulated instructions of the profiled run.
    pub instructions: u64,
    /// HPC windows recorded.
    pub windows: u64,
    /// Bytes leaked over the covert channel.
    pub recovered: Vec<u8>,
    /// Window deltas summed per event, then the window count, as
    /// [`trace_counts`] gives them.
    pub counts: [u64; 6],
    /// Host seconds inside `hpc::profile` (split trials only).
    pub profile_s: f64,
    /// Host ms for the whole trial.
    pub latency_ms: f64,
    /// Host slowdown probed around the trial (1 when not probed).
    pub slowdown: f64,
}

fn attack_config(host: Mibench, variant: SpectreVariant, perturb: PerturbParams) -> AttackConfig {
    AttackConfig::new(host)
        .with_variant(variant)
        .with_perturb(perturb)
}

/// `run_cr_spectre` cut into its public steps, each under its own span.
/// Returns the outcome and the host seconds spent in `hpc::profile`.
///
/// # Errors
///
/// As `run_cr_spectre`.
pub fn split_cr_spectre(config: &AttackConfig) -> Result<(AttackOutcome, f64), AttackError> {
    let host = {
        let _s = trace::span("workloads.build");
        vulnerable_host(config.host, config.host_options)
    };
    let (mut machine, loaded) = {
        let _s = trace::span("sim.load");
        let mut machine = Machine::new(config.machine.clone());
        let loaded = machine.load(&host.image).map_err(AttackError::Load)?;
        (machine, loaded)
    };
    let spectre = SpectreConfig {
        binary_name: ATTACK_BINARY.to_string(),
        secret_addr: loaded.addr(SECRET_SYMBOL),
        secret_len: config.secret_len,
        variant: config.variant,
        covert: config.covert,
        train_rounds: 8,
        rounds_per_byte: 2,
        perturb: config.perturb,
    };
    let image = {
        let _s = trace::span("workloads.build");
        build_spectre_image(&spectre)
    };
    {
        let _s = trace::span("sim.load");
        machine.register_image(image);
    }
    let gadgets = {
        let _s = trace::span("rop.scan");
        Scanner::default().scan_image(&machine, &loaded)
    };
    let offset = {
        let _s = trace::span("rop.probe");
        probe_ret_offset(&machine, loaded.entry, host.offset_to_ret() + 128)
            .unwrap_or(host.offset_to_ret())
    };
    let payload = {
        let _s = trace::span("rop.chain");
        let buffer_addr =
            machine.initial_sp() - 8 - if host.canary { 8 } else { 0 } - u64::from(host.frame_size);
        let name_addr = buffer_addr + offset as u64 + 4 * 8;
        let mut chain = Chain::new(&gadgets);
        chain.set_reg(Reg::R1, name_addr)?;
        chain.invoke(loaded.addr("sys_exec"));
        chain.resume(loaded.addr(RESUME_SYMBOL));
        let mut builder = PayloadBuilder::new(offset);
        if let Some(canary_off) = host.canary_offset() {
            builder = builder.with_canary(canary_off, machine.canary());
        }
        let mut payload = builder.build(chain.words());
        payload.extend_from_slice(ATTACK_BINARY.as_bytes());
        payload.push(0);
        payload
    };
    machine.start_with_arg(loaded.entry, &payload);
    let t0 = Instant::now();
    let trace = {
        let _s = trace::span("hpc.profile");
        profile(
            &mut machine,
            &format!("cr_{}", config.host.name()),
            config.sample_interval,
        )
    };
    let profile_s = t0.elapsed().as_secs_f64();
    let outcome = AttackOutcome {
        trace,
        recovered: machine.take_stdout(),
        injection_spans: machine.injection_spans().to_vec(),
        sample_interval: config.sample_interval,
    };
    Ok((outcome, profile_s))
}

/// `profile_standalone` cut into its public steps; returns the trace and
/// the host seconds inside `hpc::profile`.
fn split_profile_standalone(image: &cr_spectre_sim::Image) -> (Trace, f64) {
    let mut machine = {
        let _s = trace::span("sim.load");
        let mut machine = Machine::new(MachineConfig::default());
        let loaded = machine.load(image).expect("benign image loads");
        machine.start(loaded.entry);
        machine
    };
    let t0 = Instant::now();
    let _s = trace::span("hpc.profile");
    let trace = profile(&mut machine, &image.name, INTERVAL);
    (trace, t0.elapsed().as_secs_f64())
}

/// Runs one trial, through the split steps when `split`, and checks it:
/// an attack fails on an `AttackError`, an unclean exit or a leak that
/// differs from `SECRET`; a benign profile fails on an unclean exit or
/// window deltas that do not sum to the run's totals.
pub fn run_trial(trial: Trial, split: bool) -> TrialResult {
    let t0 = Instant::now();
    let (kind, outcome, profile_s) = match trial {
        Trial::Cr {
            host,
            variant,
            perturb,
        } => {
            let config = attack_config(host, variant, perturb);
            let result = if split {
                split_cr_spectre(&config)
            } else {
                run_cr_spectre(&config).map(|o| (o, 0.0))
            };
            match result {
                Ok((o, s)) => (Kind::Attack, Some((o.trace, o.recovered)), s),
                Err(_) => (Kind::Attack, None, 0.0),
            }
        }
        Trial::Benign(source) => {
            let image = {
                let _s = trace::span("workloads.build");
                match source {
                    Source::Host(h) => standalone_image(h),
                    Source::App(a) => a.image(),
                }
            };
            let (trace, s) = if split {
                split_profile_standalone(&image)
            } else {
                (
                    profile_standalone(&MachineConfig::default(), &image, INTERVAL),
                    0.0,
                )
            };
            (Kind::Benign, Some((trace, Vec::new())), s)
        }
        Trial::Standalone(variant) => {
            let _s = trace::span("core.attack.run_standalone_spectre");
            let o = run_standalone_spectre(
                &AttackConfig::new(Mibench::Bitcount50M).with_variant(variant),
            );
            (Kind::Standalone, Some((o.trace, o.recovered)), 0.0)
        }
    };
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    let Some((trace, recovered)) = outcome else {
        return TrialResult {
            kind,
            ok: false,
            cycles: 0,
            instructions: 0,
            windows: 0,
            recovered: Vec::new(),
            counts: [0; 6],
            profile_s,
            latency_ms,
            slowdown: 1.0,
        };
    };
    let counts = trace_counts(&[&trace]);
    let clean = trace.outcome.exit.is_clean();
    let ok = match kind {
        Kind::Benign => {
            clean && counts[0] == trace.outcome.instructions && counts[1] == trace.outcome.cycles
        }
        Kind::Attack | Kind::Standalone => clean && recovered == SECRET,
    };
    TrialResult {
        kind,
        ok,
        cycles: trace.outcome.cycles,
        instructions: trace.outcome.instructions,
        windows: trace.len() as u64,
        recovered,
        counts,
        profile_s,
        latency_ms,
        slowdown: 1.0,
    }
}

/// The `attack_sweep` workload state.
#[derive(Debug)]
pub struct AttackSweep {
    /// Every pass runs these trials.
    trials: Vec<Trial>,
    threads: usize,
    pass: u64,
    /// Results of the first pass, which the digest and counts cover.
    prefix: Vec<(Trial, TrialResult)>,
    attack_instr: u64,
    attack_profile_s: f64,
    benign_instr: u64,
    benign_profile_s: f64,
    warmup: TrialResult,
}

impl Workload for AttackSweep {
    const SETUP_REPS: usize = 5;

    fn setup(opts: &Options, clock: &mut Clock) -> AttackSweep {
        let hosts = match opts.scale {
            Scale::Full => Mibench::ALL.to_vec(),
            Scale::Tiny => vec![Mibench::Crc32],
        };
        // Warm-up: one attack trial of a fixed shape, so first-use costs
        // (faulting in a fresh heap, cold code) fall in set-up rather than
        // in the loop, and set-up costs the same for every seed.
        let warmup = {
            let _s = trace::span("bench.setup.sim");
            let perturb = PerturbParams::evasive_default();
            run_trial(
                Trial::Cr {
                    host: hosts[0],
                    variant: SpectreVariant::V1,
                    perturb,
                },
                false,
            )
        };
        clock.lap(Kernel::Interp);
        AttackSweep {
            trials: pass_trials(&hosts, opts.seed),
            threads: opts.threads,
            pass: 0,
            prefix: Vec::new(),
            attack_instr: 0,
            attack_profile_s: 0.0,
            benign_instr: 0,
            benign_profile_s: 0.0,
            warmup,
        }
    }

    fn setup_digest(&self) -> u64 {
        let mut d = Digest::default();
        d.u64(self.warmup.cycles);
        d.u64(self.warmup.instructions);
        d.bytes(&self.warmup.recovered);
        d.value()
    }

    fn prefix_ops(&self) -> u64 {
        self.trials.len() as u64
    }

    fn step(&mut self) -> Step {
        let split = trace::enabled();
        let results = {
            let _s = trace::span("core.parallel.par_map");
            let parent = trace::current();
            par_map(self.trials.clone(), self.threads, |trial| {
                let _job = trace::span_under("core.parallel.job", parent);
                let before = Kernel::Interp.slowdown();
                let mut r = run_trial(trial, split);
                r.slowdown = (before + Kernel::Interp.slowdown()) / 2.0;
                r
            })
        };
        let mut step = Step::default();
        for r in &results {
            step.ops.push(Op {
                latency_ms: r.latency_ms,
                slowdown: r.slowdown,
                windows: r.windows,
                instructions: r.instructions,
            });
            step.failed += u64::from(!r.ok);
            if split {
                match r.kind {
                    Kind::Attack => {
                        self.attack_instr += r.instructions;
                        self.attack_profile_s += r.profile_s;
                    }
                    Kind::Benign => {
                        self.benign_instr += r.instructions;
                        self.benign_profile_s += r.profile_s;
                    }
                    Kind::Standalone => {}
                }
            }
        }
        if self.pass == 0 {
            self.prefix = self.trials.iter().copied().zip(results).collect();
        }
        self.pass += 1;
        step
    }

    fn finish(&mut self, opts: &Options) -> Finish {
        let mut d = Digest::default();
        let mut sums = [0u64; 6];
        for (_, r) in &self.prefix {
            d.u64(r.cycles);
            d.u64(r.instructions);
            d.u64(r.windows);
            d.bytes(&r.recovered);
            for (s, v) in sums.iter_mut().zip(r.counts) {
                *s += v;
            }
        }
        // Gadget counts: one scan per distinct host, outside the loop.
        let mut per_host: BTreeMap<&str, u64> = BTreeMap::new();
        let mut gadgets = 0;
        for (trial, _) in &self.prefix {
            if let Trial::Cr { host, .. } = *trial {
                gadgets += *per_host.entry(host.name()).or_insert_with(|| {
                    let built = vulnerable_host(host, HostOptions::default());
                    let mut m = Machine::new(MachineConfig::default());
                    let loaded = m.load(&built.image).expect("host loads");
                    Scanner::default().scan_image(&m, &loaded).len() as u64
                });
            }
        }
        let mut finish = Finish {
            checks_ok: self.warmup.ok,
            digest: d.value(),
            counts: vec![
                ("hpc.windows", sums[5]),
                ("rop.gadgets", gadgets),
                ("sim.instructions", sums[0]),
                ("sim.cycles", sums[1]),
                ("sim.spec_squashes", sums[2]),
                ("sim.l1d_misses", sums[3]),
                ("sim.flushes", sums[4]),
                ("hid.corpus_rows", 0),
                ("hid.rows_classified", 0),
                ("attack.adaptations", 0),
            ],
            ..Finish::default()
        };
        if opts.trace {
            // The split chain must reproduce the end-to-end call exactly,
            // or the per-layer breakdown would describe other work.
            let checked = split_matches(&self.prefix);
            finish.checks_ok &= checked.iter().all(|&(_, ok)| ok);
            finish.notes.push(format!(
                "split check: {} of {} trials match the unsplit call (cycles, instructions, windows, recovered bytes)",
                checked.iter().filter(|&&(_, ok)| ok).count(),
                checked.len()
            ));
        }
        finish
    }

    fn layer_metrics(&self, spans: &[Span], ops: u64, out: &mut Metrics) {
        let per_op = |name: &str| trace::total_ms(spans, name) / ops.max(1) as f64;
        let mut put = |name: &str, value: f64, unit: &'static str| {
            out.insert(name.to_string(), Metric { value, unit });
        };
        put("hpc.profile_ms", per_op("hpc.profile"), "ms");
        put("rop.probe_ms", per_op("rop.probe"), "ms");
        put("rop.scan_ms", per_op("rop.scan"), "ms");
        put("sim.load_ms", per_op("sim.load"), "ms");
        put("workloads.build_ms", per_op("workloads.build"), "ms");
        if self.attack_profile_s > 0.0 {
            put(
                "sim.attack_mips",
                self.attack_instr as f64 / self.attack_profile_s / 1e6,
                "MIPS",
            );
        }
        if self.benign_profile_s > 0.0 {
            put(
                "sim.benign_mips",
                self.benign_instr as f64 / self.benign_profile_s / 1e6,
                "MIPS",
            );
        }
    }
}

/// Re-runs the first trial of each distinct (kind, variant, perturbation)
/// shape of the prefix both ways, untraced, and compares the outcomes.
fn split_matches(prefix: &[(Trial, TrialResult)]) -> Vec<(Trial, bool)> {
    let mut seen = Vec::new();
    let mut out = Vec::new();
    for &(trial, _) in prefix {
        let shape = match trial {
            Trial::Cr {
                variant, perturb, ..
            } => {
                format!(
                    "cr {variant} {}",
                    perturb == PerturbParams::evasive_default()
                )
            }
            Trial::Benign(Source::Host(_)) => "host".to_string(),
            Trial::Benign(Source::App(_)) => "app".to_string(),
            Trial::Standalone(_) => continue,
        };
        if seen.contains(&shape) {
            continue;
        }
        seen.push(shape);
        let a = run_trial(trial, false);
        let b = run_trial(trial, true);
        let same = a.ok
            && b.ok
            && a.cycles == b.cycles
            && a.instructions == b.instructions
            && a.windows == b.windows
            && a.recovered == b.recovered
            && a.counts == b.counts;
        out.push((trial, same));
    }
    out
}
