//! `cr-spectre` — command-line front end for the reproduction.
//!
//! ```text
//! cr-spectre attack   [--host H] [--variant v1|rsb] [--perturb none|paper|evasive]
//!                     [--canary] [--no-clflush] [--evict-reload] [--aslr SEED]
//!                     [--shadow-stack] [--invisispec] [--csf]
//! cr-spectre spectre  [--host H] [--variant v1|rsb]      # standalone launch
//! cr-spectre gadgets  [--host H] [--max-len N] [--limit N]
//! cr-spectre disasm   [--host H] [--symbol S] [--context N]
//! cr-spectre profile  [--app NAME] [--interval N] [--csv PATH]
//! cr-spectre trace    [--host H] [--limit N]
//! cr-spectre campaign [--artifact A] [--threads N] [--quick] [--quiet] [--telemetry PATH]
//! cr-spectre list
//! ```

mod experiments;

use std::collections::HashMap;
use std::process::ExitCode;

use cr_spectre::attack::{run_cr_spectre, run_standalone_spectre, AttackConfig};
use cr_spectre::covert::CovertConfig;
use cr_spectre::hpc::export::trace_to_csv_full;
use cr_spectre::hpc::profiler::profile;
use cr_spectre::perturb::PerturbParams;
use cr_spectre::rop::Scanner;
use cr_spectre::sim::config::MachineConfig;
use cr_spectre::sim::cpu::Machine;
use cr_spectre::sim::disasm::{context_around, disassemble_image};
use cr_spectre::spectre::SpectreVariant;
use cr_spectre::workloads::benign::BenignApp;
use cr_spectre::workloads::host::{standalone_image, vulnerable_host, HostOptions, SECRET};
use cr_spectre::workloads::mibench::Mibench;

/// Minimal `--flag value` / `--switch` argument bag.
struct Args {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parses `raw`, rejecting any flag not named in `known` (the flags
    /// the subcommand reads).
    fn parse(raw: &[String], known: &[&str]) -> Result<Args, String> {
        let mut values = HashMap::new();
        let mut switches = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument {arg:?}"));
            };
            if !known.contains(&name) {
                return Err(format!("unknown flag {arg}"));
            }
            match it.peek() {
                Some(next) if !next.starts_with("--") => {
                    values.insert(name.to_string(), it.next().expect("peeked").clone());
                }
                _ => switches.push(name.to_string()),
            }
        }
        Ok(Args { values, switches })
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

fn host_by_name(name: &str) -> Result<Mibench, String> {
    Mibench::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown host {name:?}; see `cr-spectre list`"))
}

fn variant_by_name(name: &str) -> Result<SpectreVariant, String> {
    match name {
        "v1" => Ok(SpectreVariant::V1),
        "rsb" => Ok(SpectreVariant::Rsb),
        other => Err(format!("unknown variant {other:?} (v1 | rsb)")),
    }
}

fn machine_from(args: &Args) -> Result<MachineConfig, String> {
    let mut machine = MachineConfig::default();
    if args.switch("no-clflush") {
        machine.protect.clflush_enabled = false;
    }
    if args.switch("shadow-stack") {
        machine.protect.shadow_stack = true;
    }
    if args.switch("invisispec") {
        machine.protect.invisispec = true;
    }
    if args.switch("csf") {
        machine.protect.csf = true;
    }
    if let Some(seed) = args.value("aslr") {
        let seed: u64 = seed.parse().map_err(|_| "bad --aslr seed".to_string())?;
        machine.protect.aslr_seed = Some(seed);
    }
    Ok(machine)
}

fn attack_config(args: &Args) -> Result<AttackConfig, String> {
    let host = host_by_name(args.value("host").unwrap_or("bitcount_50m"))?;
    let mut config = AttackConfig::new(host);
    config.machine = machine_from(args)?;
    if let Some(v) = args.value("variant") {
        config.variant = variant_by_name(v)?;
    }
    match args.value("perturb").unwrap_or("none") {
        "none" => {}
        "paper" => config.perturb = Some(PerturbParams::paper_default()),
        "evasive" => config.perturb = Some(PerturbParams::evasive_default()),
        other => return Err(format!("unknown perturbation {other:?} (none | paper | evasive)")),
    }
    if args.switch("canary") {
        config.host_options = HostOptions { canary: true, ..HostOptions::default() };
    }
    if args.switch("evict-reload") {
        config.covert = CovertConfig::evict_reload();
    }
    Ok(config)
}

fn report(outcome: &cr_spectre::attack::AttackOutcome) {
    println!("exit          : {:?}", outcome.trace.outcome.exit);
    println!("instructions  : {}", outcome.trace.outcome.instructions);
    println!("cycles        : {}", outcome.trace.outcome.cycles);
    println!("windows       : {}", outcome.trace.len());
    if !outcome.injection_spans.is_empty() {
        println!("injections    : {:?}", outcome.injection_spans);
    }
    println!("recovered     : {:?}", String::from_utf8_lossy(&outcome.recovered));
    println!("leak accuracy : {:.1}%", outcome.leak_accuracy() * 100.0);
}

fn cmd_attack(args: &Args) -> Result<(), String> {
    let config = attack_config(args)?;
    println!(
        "CR-Spectre against host `{}` ({}, perturbation {:?})\n",
        config.host,
        config.variant,
        config.perturb.is_some()
    );
    let outcome = run_cr_spectre(&config).map_err(|e| e.to_string())?;
    report(&outcome);
    Ok(())
}

fn cmd_spectre(args: &Args) -> Result<(), String> {
    let config = attack_config(args)?;
    println!("standalone {} against victim `{}`\n", config.variant, config.host);
    let outcome = run_standalone_spectre(&config);
    report(&outcome);
    Ok(())
}

fn cmd_gadgets(args: &Args) -> Result<(), String> {
    let host = host_by_name(args.value("host").unwrap_or("bitcount_50m"))?;
    let max_len: usize = args.value("max-len").unwrap_or("4").parse().map_err(|_| "bad --max-len")?;
    let limit: usize = args.value("limit").unwrap_or("40").parse().map_err(|_| "bad --limit")?;
    let built = vulnerable_host(host, HostOptions::default());
    let mut machine = Machine::new(MachineConfig::default());
    let loaded = machine.load(&built.image).map_err(|e| e.to_string())?;
    let set = Scanner::new(max_len).scan_image(&machine, &loaded);
    println!("{} gadgets in host `{}` (showing {}):\n", set.len(), host, limit.min(set.len()));
    for gadget in set.iter().take(limit) {
        println!("  {gadget}");
    }
    Ok(())
}

fn cmd_disasm(args: &Args) -> Result<(), String> {
    let host = host_by_name(args.value("host").unwrap_or("bitcount_50m"))?;
    let built = vulnerable_host(host, HostOptions::default());
    let mut machine = Machine::new(MachineConfig::default());
    let loaded = machine.load(&built.image).map_err(|e| e.to_string())?;
    match args.value("symbol") {
        Some(symbol) => {
            let addr = loaded
                .try_addr(symbol)
                .ok_or_else(|| format!("no symbol {symbol:?} in {}", built.image.name))?;
            let context: usize =
                args.value("context").unwrap_or("6").parse().map_err(|_| "bad --context")?;
            print!("{}", context_around(&machine, &loaded, addr, context));
        }
        None => {
            for line in disassemble_image(&machine, &loaded) {
                println!("{line}");
            }
        }
    }
    Ok(())
}

fn cmd_profile(args: &Args) -> Result<(), String> {
    let name = args.value("app").unwrap_or("crc32");
    let interval: u64 = args.value("interval").unwrap_or("2000").parse().map_err(|_| "bad --interval")?;
    let image = if let Ok(host) = host_by_name(name) {
        standalone_image(host)
    } else if let Some(app) = BenignApp::ALL.into_iter().find(|a| a.name() == name) {
        app.image()
    } else {
        return Err(format!("unknown app {name:?}; see `cr-spectre list`"));
    };
    let mut machine = Machine::new(MachineConfig::default());
    let loaded = machine.load(&image).map_err(|e| e.to_string())?;
    machine.start(loaded.entry);
    let trace = profile(&mut machine, name, interval);
    println!(
        "{name}: {} windows, {} instructions, {} cycles, IPC {:.4}",
        trace.len(),
        trace.outcome.instructions,
        trace.outcome.cycles,
        trace.outcome.ipc()
    );
    if let Some(path) = args.value("csv") {
        let file = std::fs::File::create(path).map_err(|e| e.to_string())?;
        trace_to_csv_full(&trace, file).map_err(|e| e.to_string())?;
        println!("wrote all 56 counters to {path}");
    }
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    let host = host_by_name(args.value("host").unwrap_or("crc32"))?;
    let limit: usize = args.value("limit").unwrap_or("40").parse().map_err(|_| "bad --limit")?;
    let image = standalone_image(host);
    let mut machine = Machine::new(MachineConfig::default());
    let loaded = machine.load(&image).map_err(|e| e.to_string())?;
    machine.start(loaded.entry);
    for (pc, instr) in machine.run_traced(limit) {
        println!("{pc:#010x}: {instr}");
    }
    println!("... ({} instructions retired so far)", machine.instructions());
    Ok(())
}

fn cmd_campaign(args: &Args) -> Result<(), String> {
    use cr_spectre::campaign::CampaignConfig;
    use cr_spectre::telemetry;
    use cr_spectre::telemetry::sink::{JsonlSink, Sink, SummarySink};

    let quick = args.switch("quick");
    let mut cfg = if quick { CampaignConfig::smoke() } else { CampaignConfig::default() };
    if args.switch("threads") {
        return Err("--threads needs a value".to_string());
    }
    if let Some(raw) = args.value("threads") {
        let threads: usize = raw.parse().map_err(|_| "bad --threads".to_string())?;
        if threads == 0 {
            return Err("--threads must be at least 1".to_string());
        }
        cfg.threads = threads;
    }
    let wanted = args.value("artifact").unwrap_or("all");
    let artifacts: Vec<&str> =
        experiments::ARTIFACTS.into_iter().filter(|&a| wanted == "all" || wanted == a).collect();
    if artifacts.is_empty() {
        let known = experiments::ARTIFACTS.join(" | ");
        return Err(format!("unknown artifact {wanted:?} ({known} | all)"));
    }
    let quiet = args.switch("quiet");
    if args.switch("telemetry") {
        return Err("--telemetry needs a path".to_string());
    }
    if let Some(path) = args.value("telemetry") {
        // Recording is off by default; installing sinks turns it on for
        // this run. Telemetry observes the campaign, it never feeds back:
        // results are bit-identical with and without it.
        let jsonl = JsonlSink::create(path)
            .map_err(|e| format!("cannot create telemetry file {path:?}: {e}"))?;
        let mut sinks: Vec<Box<dyn Sink>> = vec![Box::new(jsonl)];
        if !quiet {
            sinks.push(Box::new(SummarySink::new()));
        }
        telemetry::install(sinks);
    }
    for artifact in artifacts {
        match artifact {
            "fig4" => experiments::fig4(&cfg, quiet),
            "fig5" => experiments::fig5(&cfg, quiet),
            "fig6" => experiments::fig6(&cfg, quiet),
            "table1" => experiments::table1(&cfg, if quick { 1 } else { 5 }, quiet),
            "ablations" => experiments::ablations(&cfg, quiet),
            "defense_overhead" => experiments::defense_overhead(quiet),
            other => unreachable!("artifact {other:?} is listed but has no driver"),
        }
    }
    let _ = telemetry::shutdown();
    Ok(())
}

fn cmd_list(_: &Args) -> Result<(), String> {
    println!("MiBench-like hosts:");
    for w in Mibench::ALL {
        println!("  {:<14} {}", w.name(), w.display_name());
    }
    println!("\nbenign applications:");
    for a in BenignApp::ALL {
        println!("  {}", a.name());
    }
    println!("\nsecret carried by every host: {:?}", String::from_utf8_lossy(SECRET));
    println!("\nevaluation artifacts (`cr-spectre campaign --artifact A`):");
    println!("  {} | all", experiments::ARTIFACTS.join(" | "));
    Ok(())
}

const USAGE: &str = "\
usage: cr-spectre <command> [options]

commands:
  attack    run the full ROP-injected CR-Spectre chain
  spectre   run the attack binary standalone (no injection)
  gadgets   scan a host's executable pages for ROP gadgets
  disasm    disassemble a host image (--symbol S for a window)
  profile   profile a workload and optionally export CSV (--csv PATH)
  trace     print the first --limit executed instructions of a host
  campaign  regenerate the paper's evaluation (Figures 4-6, Table I) and
            the extra experiments, in parallel
  list      list hosts, benign applications and evaluation artifacts

attack / spectre options:
  --host H          target host (default bitcount_50m)
  --variant v1|rsb  speculation variant
  --perturb none|paper|evasive
  --canary          compile the host with a stack canary
  --aslr SEED       enable ASLR
  --no-clflush / --evict-reload / --shadow-stack / --invisispec / --csf

campaign options:
  --artifact A      fig4 | fig5 | fig6 | table1 | ablations |
                    defense_overhead | all (default all, in that order)
  --threads N       worker threads (default: all cores; results are
                    bit-identical at every thread count)
  --quick           smoke-scale configuration (ablations and
                    defense_overhead always run at their one scale)
  --telemetry PATH  record a structured JSONL trace of the run (spans,
                    counters, histograms; off by default, and results
                    are bit-identical with it on)
  --quiet           only final result lines; suppresses commentary and
                    the telemetry summary report
";

/// The flags `attack` and `spectre` read through [`attack_config`].
const ATTACK_FLAGS: &[&str] = &[
    "host",
    "variant",
    "perturb",
    "canary",
    "evict-reload",
    "no-clflush",
    "shadow-stack",
    "invisispec",
    "csf",
    "aslr",
];

type Command = fn(&Args) -> Result<(), String>;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let (run, known): (Command, &[&str]) = match command.as_str() {
        "attack" => (cmd_attack, ATTACK_FLAGS),
        "spectre" => (cmd_spectre, ATTACK_FLAGS),
        "gadgets" => (cmd_gadgets, &["host", "max-len", "limit"]),
        "disasm" => (cmd_disasm, &["host", "symbol", "context"]),
        "profile" => (cmd_profile, &["app", "interval", "csv"]),
        "trace" => (cmd_trace, &["host", "limit"]),
        "campaign" => (cmd_campaign, &["artifact", "threads", "quick", "quiet", "telemetry"]),
        "list" => (cmd_list, &[]),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("error: unknown command {other:?}");
            return ExitCode::FAILURE;
        }
    };
    let args = match Args::parse(rest, known) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
