//! Malformed command lines get a one-line error and exit status 2 (bad
//! argument) or 1 (unwritable output), never a panic, and nothing is
//! simulated or printed first. Each case runs the real `k2` binary.

use std::path::PathBuf;
use std::process::Command;

const K2: &str = env!("CARGO_BIN_EXE_k2");

/// An output path whose parent directory does not exist.
fn missing_dir(file: &str) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("no-such-dir");
    assert!(!dir.exists(), "{} must not exist", dir.display());
    dir.join(file).to_string_lossy().into_owned()
}

/// Runs `k2` with `args` and checks it exits with `code` after printing
/// nothing on stdout and one `error:` line on stderr that mentions
/// `names`.
fn assert_rejects(args: &[&str], code: i32, names: &str) {
    let out = Command::new(K2).args(args).output().expect("spawn k2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let cmd = format!("k2 {}", args.join(" "));
    assert_eq!(
        out.status.code(),
        Some(code),
        "{cmd}: stderr was {stderr:?}"
    );
    assert!(!stderr.contains("panicked"), "{cmd} panicked: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "{cmd}: want one error line, got {stderr:?}");
    assert!(
        lines[0].starts_with("error: ") && lines[0].contains(names),
        "{cmd}: {:?} is not an error line naming {names:?}",
        lines[0]
    );
    assert!(
        out.stdout.is_empty(),
        "{cmd}: printed {:?} before failing",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn k2_matrix_rejects_unknown_and_non_grid_expect_targets() {
    assert_rejects(&["matrix", "--expect", "sync-storm"], 2, "sync-storm");
    assert_rejects(&["matrix", "--expect", "nope"], 2, "nope");
}

#[test]
fn k2_matrix_rejects_bad_seeds_and_unknown_cells() {
    assert_rejects(&["matrix", "--seeds", "x"], 2, "--seeds");
    assert_rejects(&["matrix", "--seeds", "2014,"], 2, "--seeds");
    assert_rejects(&["matrix", "--cell", "bogus"], 2, "bogus");
}

#[test]
fn profile_report_rejects_bad_arguments() {
    assert_rejects(&["profile-report", "--seed", "x"], 2, "--seed");
    assert_rejects(&["profile-report", "--bogus"], 2, "--bogus");
}

#[test]
fn report_and_eval_commands_take_no_arguments() {
    assert_rejects(&["table3-power", "--bogus"], 2, "--bogus");
    assert_rejects(&["table4-alloc", "--bogus"], 2, "--bogus");
    assert_rejects(&["fig6-energy", "--dma"], 2, "--dma");
    assert_rejects(&["all", "extra"], 2, "extra");
}

#[test]
fn unknown_or_missing_commands_are_usage_errors() {
    assert_rejects(&[], 2, "no command");
    assert_rejects(&["nope"], 2, "nope");
    // A builtin scenario file that is not an eval is not a command.
    assert_rejects(&["sync-storm"], 2, "sync-storm");
}

#[test]
fn k2_explore_rejects_bad_values() {
    assert_rejects(&["explore", "--budget", "x"], 2, "--budget");
    assert_rejects(&["explore", "--scenario", "nope"], 2, "nope");
    assert_rejects(&["explore", "--strategy", "nope"], 2, "nope");
}

#[test]
fn k2_trace_rejects_a_missing_value() {
    assert_rejects(&["trace", "--seed"], 2, "--seed");
}

#[test]
fn k2_fleet_trace_rejects_an_empty_fleet() {
    assert_rejects(&["fleet-trace", "--devices", "0"], 2, "devices");
}

#[test]
fn k2_fleet_trace_rejects_an_unknown_sink() {
    assert_rejects(&["fleet-trace", "--sink", "bogus"], 2, "bogus");
}

#[test]
fn out_into_a_missing_directory_is_an_io_error() {
    let path = missing_dir("campaigns.jsonl");
    assert_rejects(&["explore", "--budget", "1", "--out", &path], 1, &path);
    let path = missing_dir("udp.trace.json");
    assert_rejects(&["trace", "--out", &path], 1, &path);
    let path = missing_dir("matrix.jsonl");
    assert_rejects(&["matrix", "--out", &path], 1, &path);
    let prefix = missing_dir("fleet");
    let args = [
        "fleet-trace",
        "--devices",
        "1",
        "--hubs",
        "1",
        "--epochs",
        "1",
        "--out",
        &prefix,
    ];
    assert_rejects(&args, 1, &prefix);
}

#[test]
fn help_prints_the_usage_and_succeeds() {
    let out = Command::new(K2).arg("help").output().expect("spawn k2");
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stderr.is_empty());
    let usage = String::from_utf8_lossy(&out.stdout);
    for command in ["all", "fig6-energy", "explore", "matrix --expect"] {
        assert!(usage.contains(command), "usage does not name {command}");
    }
}
