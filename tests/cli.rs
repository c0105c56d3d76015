//! Flag validation at the `cr-spectre` front end: every malformed
//! invocation must fail with `error: …` on stderr and exit code 1 before
//! any campaign runs.

use std::process::Command;

fn assert_rejected(args: &[&str], reason: &str) {
    let output = Command::new(env!("CARGO_BIN_EXE_cr-spectre"))
        .args(args)
        .output()
        .expect("cr-spectre runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{args:?} exit code; stderr: {stderr}");
    assert!(stderr.starts_with("error:"), "{args:?} stderr: {stderr:?}");
    assert!(stderr.contains(reason), "{args:?} stderr {stderr:?} lacks {reason:?}");
    assert!(output.stdout.is_empty(), "{args:?} ran something before failing");
}

#[test]
fn campaign_rejects_zero_threads() {
    assert_rejected(&["campaign", "--quick", "--threads", "0"], "--threads must be at least 1");
}

#[test]
fn campaign_rejects_threads_without_a_value() {
    assert_rejected(&["campaign", "--quick", "--threads"], "--threads needs a value");
    assert_rejected(&["campaign", "--threads", "--quick"], "--threads needs a value");
}

#[test]
fn campaign_rejects_telemetry_without_a_path() {
    assert_rejected(&["campaign", "--quick", "--telemetry"], "--telemetry needs a path");
}

#[test]
fn campaign_rejects_an_unknown_artifact() {
    assert_rejected(&["campaign", "--quick", "--artifact", "bogus"], "unknown artifact \"bogus\"");
}

#[test]
fn subcommands_reject_unknown_flags() {
    assert_rejected(
        &["campaign", "--artifact", "fig4", "--quick", "--thread", "1"],
        "unknown flag --thread",
    );
    assert_rejected(&["profile", "--ap", "crc32"], "unknown flag --ap");
    assert_rejected(&["attack", "--limit", "3"], "unknown flag --limit");
    assert_rejected(&["list", "--quick"], "unknown flag --quick");
}
