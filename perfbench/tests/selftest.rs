//! Self-tests of the benchmark: the tail rule, metric names, and a tiny run
//! of every workload in both modes.

use cr_spectre_perfbench::stats::{tail_percentile, valid_metric_name, TAIL_PERCENTILES};
use cr_spectre_perfbench::{per_layer_metrics, run, Options, Scale, END_TO_END, WORKLOADS};

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(tail_percentile(0), None);
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(39), Some(50.0));
    assert_eq!(tail_percentile(40), Some(75.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(200), Some(95.0));
    assert_eq!(tail_percentile(999), Some(95.0));
    assert_eq!(tail_percentile(1_000), Some(99.0));
    assert_eq!(tail_percentile(100_000), Some(99.0));
    for n in 0..30_000usize {
        let beyond = |p: f64| n as f64 * (100.0 - p) / 100.0;
        match tail_percentile(n) {
            Some(p) => {
                assert!(beyond(p) >= 10.0 - 1e-9, "n {n}: p{p} has too few beyond");
                for &higher in TAIL_PERCENTILES.iter().filter(|&&q| q > p) {
                    assert!(
                        beyond(higher) < 10.0 - 1e-9,
                        "n {n}: p{higher} also qualifies"
                    );
                }
            }
            None => assert!(beyond(50.0) < 10.0 - 1e-9, "n {n}: p50 qualifies"),
        }
    }
}

#[test]
fn metric_names_are_valid_and_listed_in_benchmark_json() {
    for bad in ["", ".x", "_x", "a b", "a/b", "é", &"x".repeat(65)] {
        assert!(!valid_metric_name(bad), "{bad:?} accepted");
    }
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let names = END_TO_END
        .iter()
        .map(|&(n, _)| n.to_string())
        .chain(per_layer_metrics().into_iter().map(|(n, _)| n))
        .chain(WORKLOADS.iter().map(|w| w.to_string()));
    for name in names {
        assert!(valid_metric_name(&name), "{name:?}");
        assert!(
            manifest.contains(&format!("\"name\": \"{name}\"")),
            "{name} not in BENCHMARK.json"
        );
    }
}

/// One test, because the span recorder is process-wide: runs must not
/// overlap.
#[test]
fn tiny_runs_of_every_workload_report_every_metric_without_failures() {
    let end_to_end: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
    let per_layer: Vec<String> = per_layer_metrics().into_iter().map(|(n, _)| n).collect();
    for workload in WORKLOADS {
        let mut digests = Vec::new();
        for (seed, trace) in [(7, false), (7, true), (8, false)] {
            let mut opts = Options::new(seed, 0.0, trace);
            opts.scale = Scale::Tiny;
            let out = run(workload, &opts).expect("known workload");
            let ctx = format!("{workload} seed {seed} trace {trace}: {:?}", out.notes);
            assert!(out.correct, "{ctx}");
            assert_eq!(out.failed, 0, "{ctx}");
            assert!(out.attempted >= 1, "{ctx}");
            let got: Vec<&str> = out.metrics.keys().map(String::as_str).collect();
            let mut want: Vec<&str> = if trace {
                per_layer.iter().map(String::as_str).collect()
            } else {
                end_to_end.clone()
            };
            want.sort_unstable();
            assert_eq!(got, want, "{ctx}");
            for (name, m) in &out.metrics {
                assert!(
                    m.value.is_finite() && m.value >= 0.0,
                    "{ctx}: {name} = {}",
                    m.value
                );
            }
            if trace {
                assert_eq!(out.metrics["fail_ratio"].value, 0.0, "{ctx}");
            } else {
                for name in &end_to_end {
                    assert!(out.metrics[*name].value > 0.0, "{ctx}: {name} is 0");
                }
            }
            digests.push(out.digest);
        }
        assert_eq!(
            digests[0], digests[1],
            "{workload}: tracing changed the outputs"
        );
        assert_ne!(
            digests[0], digests[2],
            "{workload}: the seed changed nothing"
        );
    }
    assert!(run("nope", &Options::new(1, 0.0, false)).is_err());
}
