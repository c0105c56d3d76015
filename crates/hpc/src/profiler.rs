//! Runtime profiler: interval sampling of the PMU while a guest runs.
//!
//! This is the simulator analogue of the paper's PAPI-based profiling
//! tool: it runs the machine and records, every `interval` cycles, the
//! *delta* of all 56 hardware performance counters over that window. The
//! HID consumes per-window deltas, exactly as a real sampling profiler
//! delivers counter readings per sampling period.
//!
//! [`profile`] hands the window schedule to the machine for the run
//! ([`Machine::run_sampled`]), which steps to each window edge and reads
//! the PMU there, exactly as a sampler calling [`Machine::run_until`] and
//! [`Machine::pmu`] per window would. A window closes on the first
//! instruction that reaches or crosses its edge, so its `at_cycle` can
//! overshoot the edge by that instruction's latency; the next edge is the
//! first multiple of `interval` (from the start cycle) past it. Inside a
//! counted guest loop, the machine's fast-forward computes the windows it
//! jumps across in closed form.

use cr_spectre_sim::config::ExecPath;
use cr_spectre_sim::cpu::Machine;
use cr_spectre_sim::error::RunOutcome;
use cr_spectre_sim::pmu::HpcEvent;
use cr_spectre_telemetry as telemetry;

pub use cr_spectre_sim::sampling::Sample;

/// A complete profiled run.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Name tag (application identity, for bookkeeping).
    pub app: String,
    /// The sampling windows in time order.
    pub samples: Vec<Sample>,
    /// How the run ended.
    pub outcome: RunOutcome,
}

impl Trace {
    /// Number of windows recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no windows were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Extracts the feature matrix for the given event selection, one row
    /// per window.
    pub fn feature_rows(&self, events: &[HpcEvent]) -> Vec<Vec<f64>> {
        self.samples
            .iter()
            .map(|s| events.iter().map(|&e| s.count(e) as f64).collect())
            .collect()
    }
}

/// Samples all counters every `interval` cycles while running `machine`
/// to completion. A final partial window is recorded if it contains at
/// least one retired instruction.
///
/// The machine must already be started (`start`/`start_with_arg`).
pub fn profile<P: ExecPath>(machine: &mut Machine<P>, app: &str, interval: u64) -> Trace {
    assert!(interval > 0, "sampling interval must be nonzero");
    // Per-trial telemetry: one span per profiled run with wall time and
    // speculation activity. The window loop itself stays uninstrumented —
    // everything here reads the PMU once at the end.
    let mut span = telemetry::span("hpc.profile");
    let wall_start = span.is_recording().then(std::time::Instant::now);
    let (samples, exit) = machine.run_sampled(interval);
    let outcome =
        RunOutcome { exit, instructions: machine.instructions(), cycles: machine.cycles() };
    if span.is_recording() {
        // Transient work next to the retired count: instructions run
        // down mispredicted paths, and the windows squashed.
        let pmu = machine.pmu();
        let (spec_instrs, squashes) =
            (pmu.count(HpcEvent::SpecInstrs), pmu.count(HpcEvent::SpecSquashes));
        let (decode_fills, decode_flushes) = machine.decode_cache_stats();
        let ff = machine.fast_forward_stats();
        span.field("app", app)
            .field("interval", interval)
            .field("windows", samples.len())
            .field("instructions", outcome.instructions)
            .field("cycles", outcome.cycles)
            .field("ipc", outcome.ipc())
            .field("spec_instrs", spec_instrs)
            .field("squashes", squashes)
            .field("decode_fills", decode_fills)
            .field("decode_flushes", decode_flushes)
            .field("blocks_run", machine.blocks_run())
            .field("spec_fills", machine.spec_fills())
            .field("ff_jumps", ff.jumps)
            .field("ff_instrs", ff.instrs)
            .field("ff_windows", ff.windows)
            .field("pages_touched", machine.mem().resident_pages());
        if let Some(start) = wall_start {
            let wall_ms = start.elapsed().as_secs_f64() * 1_000.0;
            span.field("wall_ms", wall_ms);
            telemetry::histogram("hpc.trial_wall_ms", wall_ms);
        }
        telemetry::counter("hpc.trials", 1);
        telemetry::counter("hpc.windows", samples.len() as u64);
        telemetry::histogram("hpc.squashes_per_trial", squashes as f64);
        machine.emit_telemetry();
    }
    Trace { app: app.to_string(), samples, outcome }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_spectre_sim::config::MachineConfig;
    use cr_spectre_workloads::host::standalone_image;
    use cr_spectre_workloads::mibench::Mibench;

    fn profiled(interval: u64) -> Trace {
        let image = standalone_image(Mibench::Crc32);
        let mut m = Machine::new(MachineConfig::default());
        let li = m.load(&image).expect("loads");
        m.start(li.entry);
        profile(&mut m, "crc32", interval)
    }

    #[test]
    fn produces_many_windows() {
        let trace = profiled(2_000);
        assert!(trace.len() > 10, "got {} windows", trace.len());
        assert!(trace.outcome.exit.is_clean());
        assert!(!trace.is_empty());
    }

    #[test]
    fn deltas_sum_to_totals() {
        let trace = profiled(5_000);
        let total_instrs: u64 = trace
            .samples
            .iter()
            .map(|s| s.count(HpcEvent::Instructions))
            .sum();
        assert_eq!(total_instrs, trace.outcome.instructions);
        let total_cycles: u64 = trace.samples.iter().map(|s| s.count(HpcEvent::Cycles)).sum();
        assert_eq!(total_cycles, trace.outcome.cycles);
    }

    #[test]
    fn smaller_interval_means_more_windows() {
        assert!(profiled(1_000).len() > profiled(8_000).len());
    }

    #[test]
    fn feature_rows_shape() {
        let trace = profiled(4_000);
        let events = [HpcEvent::TotalCacheMiss, HpcEvent::Cycles];
        let rows = trace.feature_rows(&events);
        assert_eq!(rows.len(), trace.len());
        assert!(rows.iter().all(|r| r.len() == 2));
        // Cycles column is never zero for a full window.
        assert!(rows.iter().all(|r| r[1] > 0.0));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_interval_panics() {
        let _ = profiled(0);
    }

    /// A guest that halts on its first instruction: the shortest possible
    /// run. The profiler must not fabricate windows and the delta/total
    /// invariant must still hold.
    #[test]
    fn zero_length_run_yields_at_most_the_tail_window() {
        use cr_spectre_sim::image::{Image, ImageSegment, SegKind};
        use cr_spectre_sim::isa::Instr;
        let text: Vec<u8> = Instr::Halt.encode().to_vec();
        let image = Image::new(
            "halt",
            vec![ImageSegment { name: ".text".into(), kind: SegKind::Text, offset: 0, bytes: text }],
            0,
        );
        let mut m = Machine::new(MachineConfig::default());
        let li = m.load(&image).expect("loads");
        m.start(li.entry);
        let trace = profile(&mut m, "halt", 2_000);
        assert!(trace.len() <= 1, "got {} windows", trace.len());
        assert!(trace.outcome.exit.is_clean());
        let total: u64 = trace.samples.iter().map(|s| s.count(HpcEvent::Instructions)).sum();
        assert_eq!(total, trace.outcome.instructions);
        if let Some(sample) = trace.samples.first() {
            assert!(sample.count(HpcEvent::Instructions) > 0, "tail window only if non-empty");
        }
    }

    /// An interval beyond the run's total cycles: everything lands in the
    /// single final partial window, which must carry the full totals.
    #[test]
    fn interval_larger_than_run_gives_one_window_with_totals() {
        let trace = profiled(u64::MAX);
        assert_eq!(trace.len(), 1, "exactly the tail window");
        let only = &trace.samples[0];
        assert_eq!(only.count(HpcEvent::Instructions), trace.outcome.instructions);
        assert_eq!(only.count(HpcEvent::Cycles), trace.outcome.cycles);
        assert_eq!(only.at_cycle, trace.outcome.cycles);
    }

    /// The per-step sampling loop `profile` ran before it became a loop
    /// over `run_until` windows, kept as the oracle for the window loop.
    fn profile_per_step(machine: &mut Machine, app: &str, interval: u64) -> Trace {
        use cr_spectre_sim::cpu::StepStatus;
        let mut samples = Vec::new();
        let mut last = machine.pmu().snapshot();
        let mut next = machine.cycles().saturating_add(interval);
        let outcome = loop {
            match machine.step() {
                StepStatus::Running => {
                    if machine.cycles() >= next {
                        let snap = machine.pmu().snapshot();
                        samples.push(Sample { at_cycle: machine.cycles(), deltas: snap - last });
                        last = snap;
                        while next <= machine.cycles() {
                            next += interval;
                        }
                    }
                }
                StepStatus::Done(exit) => {
                    let snap = machine.pmu().snapshot();
                    let tail = snap - last;
                    if tail.count(HpcEvent::Instructions) > 0 {
                        samples.push(Sample { at_cycle: machine.cycles(), deltas: tail });
                    }
                    break RunOutcome {
                        exit,
                        instructions: machine.instructions(),
                        cycles: machine.cycles(),
                    };
                }
            }
        };
        Trace { app: app.to_string(), samples, outcome }
    }

    #[test]
    fn window_loop_matches_per_step_oracle() {
        for interval in [500u64, 2_000, 7_919, u64::MAX] {
            let image = standalone_image(Mibench::Crc32);
            let mut m = Machine::new(MachineConfig::default());
            let li = m.load(&image).expect("loads");
            m.start(li.entry);
            let oracle = profile_per_step(&mut m, "crc32", interval);
            let trace = profiled(interval);
            assert_eq!(trace.outcome, oracle.outcome, "interval {interval}: outcome");
            assert_eq!(trace.len(), oracle.len(), "interval {interval}: window count");
            for (i, (got, want)) in trace.samples.iter().zip(&oracle.samples).enumerate() {
                assert_eq!(got.at_cycle, want.at_cycle, "interval {interval}: window {i} at_cycle");
                assert_eq!(got.deltas, want.deltas, "interval {interval}: window {i} deltas");
            }
        }
    }

    /// Window boundaries are strictly increasing cycle stamps — the HID's
    /// notion of time must never see a duplicated or reordered window.
    #[test]
    fn at_cycle_is_strictly_increasing() {
        for interval in [500u64, 2_000, 7_919] {
            let trace = profiled(interval);
            assert!(trace.len() > 1, "interval {interval}");
            for pair in trace.samples.windows(2) {
                assert!(
                    pair[0].at_cycle < pair[1].at_cycle,
                    "interval {interval}: {} !< {}",
                    pair[0].at_cycle,
                    pair[1].at_cycle
                );
            }
        }
    }
}
