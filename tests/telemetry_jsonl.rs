//! End-to-end validation of `--telemetry` JSONL export: runs the fig5
//! smoke campaign through the real CLI binary with a trace file, then
//! checks the emitted JSONL with the telemetry crate's own parser —
//! every line must parse, carry its required keys, and the trace must
//! contain at least one span per driver phase plus per-trial timing
//! records. The same campaign without `--telemetry` must print the same
//! results. CI runs this as the telemetry smoke job.

use std::collections::BTreeSet;
use std::process::Command;

use cr_spectre::sim::config::MachineConfig;
use cr_spectre::sim::mem::PAGE_SIZE;
use cr_spectre::telemetry::json::{parse, Value};

fn require_keys(line_no: usize, line: &str, value: &Value, keys: &[&str]) {
    for key in keys {
        assert!(
            value.get(key).is_some(),
            "line {line_no} ({line}) is missing required key {key:?}"
        );
    }
}

#[test]
fn cli_fig5_smoke_campaign_emits_valid_jsonl() {
    let campaign = ["campaign", "--quick", "--artifact", "fig5", "--threads", "2", "--quiet"];
    let dir = std::env::temp_dir().join(format!("cr-spectre-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace_path = dir.join("fig5.jsonl");

    let output = Command::new(env!("CARGO_BIN_EXE_cr-spectre"))
        .args(campaign)
        .arg("--telemetry")
        .arg(&trace_path)
        .output()
        .expect("campaign subcommand runs");
    assert!(
        output.status.success(),
        "campaign failed: {}\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("measured: plain Spectre mean"),
        "final result line survives --quiet: {stdout:?}"
    );
    assert!(!stdout.contains("paper:"), "--quiet suppresses commentary: {stdout:?}");
    // Telemetry is observation only: the results are the same without it.
    let plain = Command::new(env!("CARGO_BIN_EXE_cr-spectre"))
        .args(campaign)
        .output()
        .expect("campaign subcommand runs");
    assert!(plain.status.success(), "{}", String::from_utf8_lossy(&plain.stderr));
    assert_eq!(String::from_utf8_lossy(&plain.stdout), stdout, "results with telemetry on vs off");

    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_dir(&dir);
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 10, "expected a real trace, got {} lines", lines.len());

    let mut span_names = BTreeSet::new();
    let mut counter_names = BTreeSet::new();
    let mut dense_fallbacks = None;
    let mut histogram_names = BTreeSet::new();
    let mut attempt_spans = 0usize;
    let mut profile_spans = 0usize;
    let mut types = Vec::new();
    let guest_pages = (MachineConfig::default().mem_size / PAGE_SIZE) as f64;
    for (i, line) in lines.iter().enumerate() {
        // Every line must parse with the crate's own strict parser.
        let value = parse(line).unwrap_or_else(|e| panic!("line {i} {line:?}: {e}"));
        let ty = value
            .get("type")
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("line {i} {line:?} has no string \"type\""))
            .to_string();
        match ty.as_str() {
            "meta" => require_keys(i, line, &value, &["version", "tool"]),
            "span" => {
                require_keys(i, line, &value, &["name", "id", "thread", "start_us", "dur_us"]);
                let name = value.get("name").and_then(Value::as_str).expect("span name").to_string();
                if name == "fig5.attempt" {
                    attempt_spans += 1;
                    let fields = value.get("fields").expect("fig5.attempt has fields");
                    assert!(fields.get("attempt").is_some(), "line {i}: no attempt index");
                }
                if name == "hpc.profile" {
                    profile_spans += 1;
                    let fields = value.get("fields").expect("hpc.profile has fields");
                    for key in [
                        "instructions",
                        "cycles",
                        "wall_ms",
                        "spec_instrs",
                        "squashes",
                        "decode_fills",
                        "decode_flushes",
                        "blocks_run",
                        "pages_touched",
                    ] {
                        assert!(fields.get(key).is_some(), "line {i}: no {key} field");
                    }
                    let count = |key: &str| fields.get(key).and_then(Value::as_f64).unwrap_or(0.0);
                    assert!(count("decode_fills") > 0.0, "line {i}: a profiled run fills the block cache");
                    // Every block run retires at least one instruction and at
                    // most a block's eight, and nearly every instruction runs
                    // inside a block, so the mean executed block length lies
                    // within (1, 8].
                    let mean_block = count("instructions") / count("blocks_run");
                    assert!(
                        mean_block > 1.0 && mean_block <= 8.0,
                        "line {i}: mean executed block length {mean_block} outside (1, 8]"
                    );
                    // Guest memory is sparse: a run touches some pages, never all.
                    let pages = fields.get("pages_touched").and_then(Value::as_f64).unwrap_or(0.0);
                    assert!(
                        pages > 0.0 && pages < guest_pages,
                        "line {i}: pages_touched {pages} outside (0, {guest_pages})"
                    );
                }
                span_names.insert(name);
            }
            "counter" => {
                require_keys(i, line, &value, &["name", "value"]);
                let name = value.get("name").and_then(Value::as_str).expect("name");
                if name == "hid.train.dense_fallbacks" {
                    dense_fallbacks = value.get("value").and_then(Value::as_f64);
                }
                counter_names.insert(name.to_string());
            }
            "histogram" => {
                require_keys(i, line, &value, &["name", "count", "sum", "min", "max", "mean"]);
                histogram_names
                    .insert(value.get("name").and_then(Value::as_str).expect("name").to_string());
            }
            "span_stats" => {
                require_keys(i, line, &value, &["name", "count", "total_us", "min_us", "max_us"]);
            }
            "summary" => require_keys(i, line, &value, &["spans", "counters", "histograms"]),
            other => panic!("line {i}: unknown record type {other:?}"),
        }
        types.push(ty);
    }

    assert_eq!(types.first().map(String::as_str), Some("meta"), "meta header first");
    assert_eq!(types.last().map(String::as_str), Some("summary"), "summary footer last");

    // At least one span per driver phase of the fig5 campaign.
    for phase in ["campaign.fig5", "fig5.train", "fig5.score", "fig5.attempt"] {
        assert!(span_names.contains(phase), "no {phase:?} span in {span_names:?}");
    }
    // Per-trial timing: one fig5.attempt span per smoke attempt, and a
    // profiled run (with wall time) for every simulated trial.
    assert!(attempt_spans >= 3, "got {attempt_spans} attempt spans");
    assert!(profile_spans >= attempt_spans, "got {profile_spans} hpc.profile spans");
    // Aggregates from each instrumented layer.
    for counter in [
        "sim.runs",
        "sim.instructions",
        "sim.decode_fills",
        "sim.decode_flushes",
        "sim.pages_touched",
        "hpc.trials",
        "par_map.jobs",
        "hid.fits",
        "hid.train.rows_per_sec",
        "hid.train.dense_fallbacks",
    ] {
        assert!(counter_names.contains(counter), "no {counter:?} counter in {counter_names:?}");
    }
    for histogram in [
        "hpc.trial_wall_ms",
        "hpc.squashes_per_trial",
        "hid.epochs_to_converge",
        "hid.train.epoch_us",
        "hid.train.active_fraction",
    ] {
        assert!(
            histogram_names.contains(histogram),
            "no {histogram:?} histogram in {histogram_names:?}"
        );
    }
    // Every fit of the smoke campaign stays within the sparse step's
    // magnitude bound.
    assert_eq!(dense_fallbacks, Some(0.0), "hid.train.dense_fallbacks");
}
