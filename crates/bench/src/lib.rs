//! # cr-spectre-bench
//!
//! Experiment harnesses regenerating every table and figure of the
//! paper's evaluation. Performance is measured separately, by the
//! stand-alone `perfbench/` package.
//!
//! Binaries (each prints the paper-style rows/series):
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
//! Run with `cargo run --release -p cr-spectre-bench --bin fig5`.

use cr_spectre_core::campaign::{CampaignConfig, DetectorSeries, EvasionResult};
use cr_spectre_telemetry as telemetry;
use cr_spectre_telemetry::sink::{JsonlSink, Sink, SummarySink};

/// The command-line options every experiment binary accepts:
///
/// * `--threads N` — worker threads (default: all cores; results are
///   bit-identical at every thread count, the flag only changes
///   wall-clock time);
/// * `--quick` — smoke-scale configuration;
/// * `--quiet` — suppress commentary and the telemetry summary report;
///   only final result tables are printed;
/// * `--telemetry PATH` — record a structured JSONL trace of the run.
#[derive(Debug, Clone, Default)]
pub struct BenchOpts {
    /// `--threads N`, if given.
    pub threads: Option<usize>,
    /// `--quick`: smoke-scale campaign configuration.
    pub quick: bool,
    /// `--quiet`: only final results on stdout, no summary report.
    pub quiet: bool,
    /// `--telemetry PATH`: JSONL trace destination.
    pub telemetry: Option<String>,
}

impl BenchOpts {
    /// Parses the process arguments. Unknown arguments are ignored so
    /// binaries can layer their own flags on top.
    ///
    /// # Panics
    ///
    /// Panics (with a usage message) when a flag's value is missing,
    /// unparsable, or zero — these binaries have no other error channel.
    pub fn parse() -> BenchOpts {
        BenchOpts::from_args(std::env::args().skip(1))
    }

    /// [`BenchOpts::parse`] over an explicit argument list (testable).
    pub fn from_args(args: impl IntoIterator<Item = String>) -> BenchOpts {
        let mut opts = BenchOpts::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--threads" => {
                    let raw = it.next().unwrap_or_else(|| panic!("--threads needs a value"));
                    let threads: usize = raw.parse().unwrap_or_else(|_| {
                        panic!("bad --threads value {raw:?} (expected a count)")
                    });
                    assert!(threads > 0, "--threads must be at least 1");
                    opts.threads = Some(threads);
                }
                "--telemetry" => {
                    let path = it.next().unwrap_or_else(|| panic!("--telemetry needs a path"));
                    opts.telemetry = Some(path);
                }
                "--quick" => opts.quick = true,
                "--quiet" => opts.quiet = true,
                _ => {}
            }
        }
        opts
    }

    /// The campaign configuration these options select: paper scale or
    /// `--quick` smoke scale, with `--threads` applied.
    pub fn campaign_config(&self) -> CampaignConfig {
        let mut cfg =
            if self.quick { CampaignConfig::smoke() } else { CampaignConfig::default() };
        if let Some(threads) = self.threads {
            cfg.threads = threads;
        }
        cfg
    }

    /// Installs the telemetry recorder this invocation asked for: a
    /// [`JsonlSink`] when `--telemetry PATH` was given, plus the human
    /// [`SummarySink`] report unless `--quiet`. Without `--telemetry`
    /// this is a no-op and recording stays disabled (the default).
    ///
    /// # Panics
    ///
    /// Panics when the trace file cannot be created.
    pub fn init_telemetry(&self) {
        let Some(path) = &self.telemetry else { return };
        let jsonl = JsonlSink::create(path)
            .unwrap_or_else(|e| panic!("cannot create telemetry file {path:?}: {e}"));
        let mut sinks: Vec<Box<dyn Sink>> = vec![Box::new(jsonl)];
        if !self.quiet {
            sinks.push(Box::new(SummarySink::new()));
        }
        telemetry::install(sinks);
    }

    /// Shuts the recorder down: aggregates totals, writes the JSONL
    /// footer lines, and (unless `--quiet`) prints the summary report to
    /// stderr. Call once, after the last result line.
    pub fn finish(&self) {
        let _ = telemetry::shutdown();
    }

    /// Prints a commentary/progress line — suppressed by `--quiet`.
    /// Final result tables print unconditionally via `println!`.
    pub fn note(&self, msg: &str) {
        if !self.quiet {
            println!("{msg}");
        }
    }
}

/// Formats an accuracy as the paper's percentage.
pub fn pct(x: f64) -> String {
    format!("{:5.1}%", x * 100.0)
}

/// Prints a Figure-5/6 style panel: one row per detector, one column per
/// attempt.
pub fn print_panel(title: &str, series: &[DetectorSeries]) {
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
pub fn print_evasion(result: &EvasionResult, figure: &str) {
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
pub fn evasion_headline(result: &EvasionResult) -> (f64, f64) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use cr_spectre_hid::detector::HidKind;

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

    fn opts(args: &[&str]) -> BenchOpts {
        BenchOpts::from_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn bench_opts_parse_all_flags() {
        let o = opts(&["--quick", "--threads", "3", "--quiet", "--telemetry", "t.jsonl"]);
        assert!(o.quick && o.quiet);
        assert_eq!(o.threads, Some(3));
        assert_eq!(o.telemetry.as_deref(), Some("t.jsonl"));
        let cfg = o.campaign_config();
        assert_eq!(cfg.threads, 3);
        assert_eq!(cfg.attempts, 3, "--quick selects the smoke scale");
    }

    #[test]
    fn bench_opts_defaults_and_unknown_args() {
        let o = opts(&["--frobnicate", "7"]);
        assert!(!o.quick && !o.quiet);
        assert_eq!(o.threads, None);
        assert_eq!(o.telemetry, None);
        assert_eq!(o.campaign_config().attempts, 10, "paper scale by default");
    }

    #[test]
    #[should_panic(expected = "--threads must be at least 1")]
    fn bench_opts_rejects_zero_threads() {
        let _ = opts(&["--threads", "0"]);
    }

    #[test]
    #[should_panic(expected = "--telemetry needs a path")]
    fn bench_opts_requires_telemetry_path() {
        let _ = opts(&["--telemetry"]);
    }
}
