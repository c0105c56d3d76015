//! End-to-end and per-layer benchmark of the CR-Spectre reproduction.
//!
//! Three closed-loop workloads ([`attack_sweep`], [`online_retrain`],
//! [`hid_stream`]) drive the workspace's layers through their public
//! functions from one process. [`run`] sets a workload up several times
//! (reporting the median set-up time), runs its timed loop, checks every
//! output, and returns the metrics named in `BENCHMARK.json`. Every host
//! time of the end-to-end metrics is divided by the host slowdown that a
//! [`calib`] kernel measured next to it. With tracing on, the loop runs in
//! four alternating untraced and traced quarters; the spans the benchmark
//! records around each layer call give the per-layer metrics, and the two
//! kinds of quarter give the tracing overhead. See `README.md` in this
//! directory.

pub mod attack_sweep;
pub mod calib;
pub mod hid_stream;
pub mod online_retrain;
pub mod stats;
pub mod trace;

use std::path::Path;
use std::time::Instant;

use cr_spectre_hpc::profiler::Trace;
use cr_spectre_sim::pmu::HpcEvent;

use calib::Clock;
use stats::{median, percentile, tail_percentile, Digest, Metric, Metrics};
use trace::Span;

/// Where a traced run writes its spans.
pub const SPAN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["attack_sweep", "online_retrain", "hid_stream"];

/// End-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("windows_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Layers whose self time per operation a traced run reports.
pub const LAYERS: [&str; 7] = ["bench", "core", "sim", "rop", "workloads", "hpc", "hid"];

/// Exact counts (set-up plus the digest prefix); they repeat bit for bit.
pub const EXACT_COUNTS: [&str; 10] = [
    "hpc.windows",
    "rop.gadgets",
    "sim.instructions",
    "sim.cycles",
    "sim.spec_squashes",
    "sim.l1d_misses",
    "sim.flushes",
    "hid.corpus_rows",
    "hid.rows_classified",
    "attack.adaptations",
];

/// Timed per-layer metrics every traced run reports, with units. A layer
/// a workload does not exercise reads 0.
pub const PER_LAYER_TIMED: [(&str, &str); 23] = [
    ("guest_mips", "MIPS"),
    ("hpc.profile_ms", "ms"),
    ("sim.attack_mips", "MIPS"),
    ("sim.benign_mips", "MIPS"),
    ("rop.probe_ms", "ms"),
    ("sim.load_ms", "ms"),
    ("rop.scan_ms", "ms"),
    ("workloads.build_ms", "ms"),
    ("hid.retrain_ms.MLP", "ms"),
    ("hid.retrain_ms.NN", "ms"),
    ("hid.retrain_ms.LR", "ms"),
    ("hid.retrain_ms.SVM", "ms"),
    ("hid.detect_ms", "ms"),
    ("hid.ingest_ms", "ms"),
    ("hid.classify_us.MLP", "us"),
    ("hid.classify_us.NN", "us"),
    ("hid.classify_us.LR", "us"),
    ("hid.classify_us.SVM", "us"),
    ("parallel.busy_ratio", "ratio"),
    ("setup.sim_ms", "ms"),
    ("setup.train_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("host.slowdown", "ratio"),
];

/// Every per-layer metric name a traced run reports, with its unit.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER_TIMED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    out.extend(EXACT_COUNTS.iter().map(|&n| (n.to_string(), "count")));
    out.extend(LAYERS.iter().map(|l| (format!("self_ms.{l}"), "ms")));
    out.push(("fail_ratio".to_string(), "ratio"));
    out
}

/// How large the inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// Minimal sizes for the self-tests.
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed loop in host seconds (split in four quarters
    /// when tracing).
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end.
    pub trace: bool,
    /// Worker threads (2, never more than the host's cores).
    pub threads: usize,
    /// Input sizes.
    pub scale: Scale,
}

impl Options {
    /// Benchmark defaults for `seed`, `seconds` and `trace`.
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Options {
        Options {
            seed,
            seconds,
            trace,
            threads: std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(2),
            scale: Scale::Full,
        }
    }
}

/// One completed operation.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Its latency, host ms.
    pub latency_ms: f64,
    /// Host slowdown measured next to it on the same thread (1: the
    /// reference host's speed; see [`calib`]).
    pub slowdown: f64,
    /// HPC windows it produced, scored or classified.
    pub windows: u64,
    /// Simulated instructions its profiled runs retired.
    pub instructions: u64,
}

/// What one step of a workload's loop did. A step is one or more
/// operations.
#[derive(Debug, Default)]
pub struct Step {
    /// The operations, in any order.
    pub ops: Vec<Op>,
    /// Operations that failed their check.
    pub failed: u64,
}

/// Results a workload reports once its loops are done.
#[derive(Debug, Default)]
pub struct Finish {
    /// Failures found by checks made after the loop.
    pub failed: u64,
    /// Whether every check made after the loop passed.
    pub checks_ok: bool,
    /// Digest of the deterministic outputs of the first
    /// [`Workload::prefix_ops`] operations.
    pub digest: u64,
    /// Exact counts by name (names from [`EXACT_COUNTS`]).
    pub counts: Vec<(&'static str, u64)>,
    /// Human-readable lines for the report.
    pub notes: Vec<String>,
}

/// A benchmark workload: built by one set-up, then stepped.
pub trait Workload: Sized {
    /// How many times a run sets the workload up.
    const SETUP_REPS: usize;
    /// Builds the workload (one set-up repetition), ending each phase of
    /// its work, the last one included, with a lap of `clock`.
    fn setup(opts: &Options, clock: &mut Clock) -> Self;
    /// Digest of the set-up's products; repetitions must agree.
    fn setup_digest(&self) -> u64;
    /// Operations whose outputs the digest and exact counts cover; the
    /// loop runs at least this many.
    fn prefix_ops(&self) -> u64;
    /// Runs the next step.
    fn step(&mut self) -> Step;
    /// Final checks, digest and exact counts.
    fn finish(&mut self, opts: &Options) -> Finish;
    /// Timed per-layer metrics from the traced loop's spans.
    fn layer_metrics(&self, spans: &[Span], ops: u64, out: &mut Metrics);
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// End-to-end (untraced) or per-layer (traced) metrics.
    pub metrics: Metrics,
    /// Digest of the deterministic outputs.
    pub digest: u64,
    /// Human-readable report lines.
    pub notes: Vec<String>,
}

/// One timed loop.
#[derive(Debug)]
struct Phase {
    wall_s: f64,
    /// Host seconds with each step's busy time divided by its operations'
    /// slowdowns.
    norm_s: f64,
    /// Operations, step by step.
    ops: Vec<Op>,
    /// Operations per step, in order.
    step_ops: Vec<usize>,
    failed: u64,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.wall_s += other.wall_s;
        self.norm_s += other.norm_s;
        self.ops.extend(other.ops);
        self.step_ops.extend(other.step_ops);
        self.failed += other.failed;
    }

    /// Operation latencies divided by their slowdowns, host ms.
    fn norm_latencies_ms(&self) -> Vec<f64> {
        self.ops
            .iter()
            .map(|op| op.latency_ms / op.slowdown)
            .collect()
    }

    /// The latency at the tail percentile (divided by the slowdown), and
    /// which percentile it is and how it was taken. When every step alone
    /// supports a tail percentile, the latency is the median of the steps'
    /// own tails at the highest percentile they all support, so that a step
    /// whose slowdown was misjudged does not set it; otherwise it is taken
    /// over all operations. `None` when too few operations support any
    /// tail.
    fn tail_ms(&self) -> Option<(f64, String)> {
        let latencies = self.norm_latencies_ms();
        let steps: Vec<&[f64]> = self
            .step_ops
            .iter()
            .scan(0, |from, &n| {
                *from += n;
                Some(&latencies[*from - n..*from])
            })
            .collect();
        let per_step: Option<Vec<f64>> = steps.iter().map(|s| tail_percentile(s.len())).collect();
        Some(
            match per_step.and_then(|ps| ps.into_iter().reduce(f64::min)) {
                Some(p) => {
                    let tails: Vec<f64> = steps.iter().map(|s| percentile(s, p)).collect();
                    let how = format!("p{p}, the median of {} steps' own", steps.len());
                    (median(&tails), how)
                }
                None => {
                    let p = tail_percentile(latencies.len())?;
                    let how = format!("p{p} over all {} operations", latencies.len());
                    (percentile(&latencies, p), how)
                }
            },
        )
    }
}

/// Operations every untraced run has at least, so that `op_tail_ms` is at
/// least p75.
pub const MIN_OPS: u64 = 40;

fn measure<W: Workload>(w: &mut W, seconds: f64, min_ops: u64) -> Phase {
    let start = Instant::now();
    let mut phase = Phase {
        wall_s: 0.0,
        norm_s: 0.0,
        ops: Vec::new(),
        step_ops: Vec::new(),
        failed: 0,
    };
    while start.elapsed().as_secs_f64() < seconds || (phase.ops.len() as u64) < min_ops {
        let t0 = Instant::now();
        let step = w.step();
        // The step's wall time, scaled by how much its operations' busy
        // time shrinks when each is divided by its own slowdown.
        let wall = t0.elapsed().as_secs_f64();
        let busy: f64 = step.ops.iter().map(|op| op.latency_ms).sum();
        let norm: f64 = step.ops.iter().map(|op| op.latency_ms / op.slowdown).sum();
        phase.norm_s += if busy > 0.0 { wall * norm / busy } else { wall };
        phase.step_ops.push(step.ops.len());
        phase.ops.extend(step.ops);
        phase.failed += step.failed;
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase
}

/// Runs the named workload.
///
/// # Errors
///
/// Returns a message for an unknown workload name.
pub fn run(workload: &str, opts: &Options) -> Result<Outcome, String> {
    match workload {
        "attack_sweep" => Ok(drive::<attack_sweep::AttackSweep>(workload, opts)),
        "online_retrain" => Ok(drive::<online_retrain::OnlineRetrain>(workload, opts)),
        "hid_stream" => Ok(drive::<hid_stream::HidStream>(workload, opts)),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

fn drive<W: Workload>(name: &str, opts: &Options) -> Outcome {
    let mut notes = vec![format!(
        "workload {name} seed {} threads {} seconds {} trace {}",
        opts.seed,
        opts.threads,
        opts.seconds,
        u8::from(opts.trace)
    )];
    // The set-up is repeated and its median reported, so that work moved
    // into set-up shows; repetitions must produce identical products.
    trace::set_enabled(opts.trace);
    let (mut setup_raw_s, mut setup_s) = (Vec::new(), Vec::new());
    let mut setup_digests = Vec::new();
    let mut workload = None;
    let reps = W::SETUP_REPS;
    for _ in 0..reps {
        // Free the previous repetition first, so peak memory is one set-up's.
        drop(workload.take());
        let mut clock = Clock::start();
        let w = {
            let _s = trace::span("bench.setup");
            W::setup(opts, &mut clock)
        };
        setup_raw_s.push(clock.raw_s());
        setup_s.push(clock.norm_s());
        setup_digests.push(w.setup_digest());
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up ran");
    let setup_spans = trace::take();
    trace::set_enabled(false);
    let setup_consistent = setup_digests.windows(2).all(|p| p[0] == p[1]);
    notes.push(format!(
        "setup_s median of {} = {:.4} s ({:.4} s before dividing by the slowdown); repetitions agree: {setup_consistent}",
        setup_s.len(),
        median(&setup_s),
        median(&setup_raw_s)
    ));

    let prefix = w.prefix_ops();
    let (main, traced, loop_spans) = if opts.trace {
        // Untraced and traced quarters alternate, so drift over the run
        // (warming caches, a neighbour's load) cancels out of the
        // overhead ratio. The digest prefix runs in the first quarter.
        let quarter = opts.seconds / 4.0;
        let mut untraced = measure(&mut w, quarter, prefix);
        trace::set_enabled(true);
        let mut traced = measure(&mut w, quarter, 1);
        trace::set_enabled(false);
        untraced.absorb(measure(&mut w, quarter, 1));
        trace::set_enabled(true);
        traced.absorb(measure(&mut w, quarter, 1));
        trace::set_enabled(false);
        (untraced, Some(traced), trace::take())
    } else {
        (
            measure(&mut w, opts.seconds, prefix.max(MIN_OPS)),
            None,
            Vec::new(),
        )
    };
    let finish = w.finish(opts);
    notes.extend(finish.notes.iter().cloned());

    let attempted = main.ops.len() as u64 + traced.as_ref().map_or(0, |t| t.ops.len() as u64);
    let failed = main.failed + traced.as_ref().map_or(0, |t| t.failed) + finish.failed;
    let fail_ratio = failed as f64 / attempted.max(1) as f64;
    notes.push(format!(
        "fail_ratio {fail_ratio} ({failed} of {attempted} operations failed)"
    ));
    notes.push(format!("result_digest {:016x}", finish.digest));
    let slowdowns: Vec<f64> = main
        .ops
        .iter()
        .chain(traced.iter().flat_map(|t| &t.ops))
        .map(|op| op.slowdown)
        .collect();
    let slowdown = median(&slowdowns);

    let mut metrics = Metrics::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.insert(name.to_string(), Metric { value, unit });
    };
    if let Some(traced) = &traced {
        let ops = traced.ops.len() as u64;
        for (n, u) in per_layer_metrics() {
            put(&n, 0.0, u);
        }
        let reps = reps as f64;
        put(
            "setup.sim_ms",
            trace::total_ms(&setup_spans, "bench.setup.sim") / reps,
            "ms",
        );
        put(
            "setup.train_ms",
            trace::total_ms(&setup_spans, "bench.setup.train") / reps,
            "ms",
        );
        let par_ms = trace::total_ms(&loop_spans, "core.parallel.par_map");
        if par_ms > 0.0 {
            let job_ms = trace::total_ms(&loop_spans, "core.parallel.job");
            put(
                "parallel.busy_ratio",
                job_ms / (opts.threads as f64 * par_ms),
                "ratio",
            );
        }
        // Simulated instructions per host second of the untraced quarters;
        // 0 on a workload that does not simulate in its loop.
        let instructions: u64 = main.ops.iter().map(|op| op.instructions).sum();
        put(
            "guest_mips",
            instructions as f64 / main.wall_s / 1e6,
            "MIPS",
        );
        let per_op = |t: &Phase| t.norm_s / t.ops.len().max(1) as f64;
        put(
            "trace.overhead_ratio",
            per_op(traced) / per_op(&main),
            "ratio",
        );
        put("host.slowdown", slowdown, "ratio");
        for (layer, ms) in trace::self_ms_by_layer(&loop_spans) {
            put(&format!("self_ms.{layer}"), ms / ops.max(1) as f64, "ms");
        }
        for &(n, v) in &finish.counts {
            put(n, v as f64, "count");
        }
        put("fail_ratio", fail_ratio, "ratio");
        w.layer_metrics(&loop_spans, ops, &mut metrics);
        let path = Path::new(SPAN_DIR).join(format!("spans-{name}-seed{}.csv", opts.seed));
        let mut all = setup_spans;
        all.extend(loop_spans);
        match trace::write_csv(&path, &all) {
            Ok(()) => notes.push(format!("{} spans written to {}", all.len(), path.display())),
            Err(e) => notes.push(format!("spans not written to {}: {e}", path.display())),
        }
    } else {
        let latencies = main.norm_latencies_ms();
        let ops = latencies.len();
        let windows: u64 = main.ops.iter().map(|op| op.windows).sum();
        put("setup_s", median(&setup_s), "s");
        put("ops_per_s", ops as f64 / main.norm_s, "1/s");
        put("op_p50_ms", median(&latencies), "ms");
        let (tail, label) = match main.tail_ms() {
            Some(tail) => tail,
            None => (
                percentile(&latencies, 100.0),
                format!("p100 over {ops} samples (too few for a supported tail)"),
            ),
        };
        put("op_tail_ms", tail, "ms");
        put("windows_per_s", windows as f64 / main.norm_s, "1/s");
        let raw: Vec<f64> = main.ops.iter().map(|op| op.latency_ms).collect();
        notes.push(format!(
            "median host slowdown {slowdown:.3}; before dividing by it: ops_per_s {:.4}, op_p50_ms {:.4}, windows_per_s {:.1}; op_tail_ms is {label}",
            ops as f64 / main.wall_s,
            median(&raw),
            windows as f64 / main.wall_s
        ));
        put("peak_rss_mb", stats::peak_rss_mb(), "MiB");
    }
    Outcome {
        correct: failed == 0 && finish.checks_ok && setup_consistent,
        attempted,
        failed,
        metrics,
        digest: finish.digest,
        notes,
    }
}

/// Folds a list of feature rows into a digest.
pub fn digest_rows(d: &mut Digest, rows: &[Vec<f64>]) {
    d.u64(rows.len() as u64);
    for row in rows {
        for &v in row {
            d.f64(v);
        }
    }
}

/// A deterministic index stream: `derive_seed` applied to a counter.
#[derive(Debug)]
pub struct Picks {
    seed: u64,
    next: u64,
}

impl Picks {
    /// A stream for `(seed, stream)`.
    pub fn new(seed: u64, stream: u64) -> Picks {
        Picks {
            seed: cr_spectre_core::parallel::derive_seed(seed, stream),
            next: 0,
        }
    }

    /// The next pick in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        self.next += 1;
        (cr_spectre_core::parallel::derive_seed(self.seed, self.next) % n.max(1) as u64) as usize
    }
}

/// Window deltas of `traces` summed per event (instructions, cycles,
/// speculative squashes, L1D misses, flushes), then the window count.
pub fn trace_counts(traces: &[&Trace]) -> [u64; 6] {
    let events = [
        HpcEvent::Instructions,
        HpcEvent::Cycles,
        HpcEvent::SpecSquashes,
        HpcEvent::L1dMiss,
        HpcEvent::Flushes,
    ];
    let mut out = [0u64; 6];
    for trace in traces {
        out[5] += trace.len() as u64;
        for sample in &trace.samples {
            for (o, &e) in out.iter_mut().zip(&events) {
                *o += sample.count(e);
            }
        }
    }
    out
}
