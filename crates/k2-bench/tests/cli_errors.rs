//! Malformed command lines get a one-line error and exit status 2 (bad
//! argument) or 1 (unwritable output), never a panic, and nothing is
//! simulated first. Each case runs the real binary.

use std::path::PathBuf;
use std::process::Command;

/// An output path whose parent directory does not exist.
fn missing_dir(file: &str) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("no-such-dir");
    assert!(!dir.exists(), "{} must not exist", dir.display());
    dir.join(file).to_string_lossy().into_owned()
}

/// Runs `bin` with `args` and checks it exits with `code`, printing one
/// stderr line that mentions `names`.
fn assert_rejects(bin: &str, args: &[&str], code: i32, names: &str) {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let cmd = format!(
        "{} {}",
        bin.rsplit('/').next().unwrap_or(bin),
        args.join(" ")
    );
    assert_eq!(
        out.status.code(),
        Some(code),
        "{cmd}: stderr was {stderr:?}"
    );
    assert!(!stderr.contains("panicked"), "{cmd} panicked: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "{cmd}: want one error line, got {stderr:?}");
    assert!(
        lines[0].contains(names),
        "{cmd}: {:?} does not name {names:?}",
        lines[0]
    );
}

#[test]
fn k2_matrix_rejects_unknown_and_non_grid_expect_targets() {
    let bin = env!("CARGO_BIN_EXE_k2-matrix");
    assert_rejects(bin, &["--expect", "sync-storm"], 2, "sync-storm");
    assert_rejects(bin, &["--expect", "nope"], 2, "nope");
}

#[test]
fn profile_report_rejects_bad_arguments() {
    let bin = env!("CARGO_BIN_EXE_profile_report");
    assert_rejects(bin, &["--seed", "x"], 2, "--seed");
    assert_rejects(bin, &["--bogus"], 2, "--bogus");
}

#[test]
fn k2_fleet_trace_rejects_an_empty_fleet() {
    let bin = env!("CARGO_BIN_EXE_k2-fleet-trace");
    assert_rejects(bin, &["--devices", "0"], 2, "devices");
}

#[test]
fn out_into_a_missing_directory_is_an_io_error() {
    let path = missing_dir("campaigns.jsonl");
    assert_rejects(
        env!("CARGO_BIN_EXE_k2-explore"),
        &["--budget", "1", "--out", &path],
        1,
        &path,
    );
    let path = missing_dir("udp.trace.json");
    assert_rejects(env!("CARGO_BIN_EXE_k2-trace"), &["--out", &path], 1, &path);
    let prefix = missing_dir("fleet");
    let args = [
        "--devices",
        "1",
        "--hubs",
        "1",
        "--epochs",
        "1",
        "--out",
        &prefix,
    ];
    assert_rejects(env!("CARGO_BIN_EXE_k2-fleet-trace"), &args, 1, &prefix);
}
