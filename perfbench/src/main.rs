//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload attack_sweep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints report lines, then, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 2 on bad
//! arguments.

use std::process::ExitCode;

use cr_spectre_perfbench::{run, stats, Options};

fn usage() -> String {
    "usage: perfbench --workload <attack_sweep|online_retrain|hid_stream> --seed <u64> \
     --seconds <s> --trace <0|1>"
        .to_string()
}

fn parse(args: &[String]) -> Result<(String, Options), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |what: &str| format!("bad {flag} {value:?}: {what}\n{}", usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e.to_string()))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e.to_string()))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("must be a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}\n{}", usage())),
        }
    }
    let missing = |name: &str| format!("missing --{name}\n{}", usage());
    let opts = Options::new(
        seed.ok_or_else(|| missing("seed"))?,
        seconds.ok_or_else(|| missing("seconds"))?,
        trace.ok_or_else(|| missing("trace"))?,
    );
    Ok((workload.ok_or_else(|| missing("workload"))?, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&workload, &opts) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    for (name, m) in &outcome.metrics {
        println!("  {name:<24} {} {}", m.value, m.unit);
    }
    println!(
        "{}",
        stats::result_json(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    ExitCode::SUCCESS
}
