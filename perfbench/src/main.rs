//! `k2-perfbench --workload <name|all> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Runs one workload (`sync-storm`, `rush-hour`, `campaign`,
//! `conformance`) or all four in turn, prints every metric by name and
//! unit, and ends with one JSON result line (for `all`, metric names are
//! prefixed with the workload's). Exits 1 when a check fails and 2 on bad usage
//! or a missing input. Run it from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --workload sync-storm
//! ```
//!
//! `--tiny` shrinks the workload to a few milliseconds (the self-test
//! size); `--probe <peak-rss|fork-rss>` is the fresh-process memory
//! probe the benchmark runs on itself.

use k2_perfbench::{combined_result_line, probe_child, run, Config, Probe, Workload};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("k2-perfbench: {msg}");
    eprintln!(
        "usage: k2-perfbench --workload <sync-storm|rush-hour|campaign|conformance|all> \
         [--seed <n>] [--seconds <s>] [--trace <0|1>]"
    );
    ExitCode::from(2)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("k2-perfbench: {msg}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workloads = Vec::new();
    let mut seed = 2014u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut tiny = false;
    let mut probe = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(&value) {
                Some(w) => workloads = vec![w],
                None if value == "all" => workloads = Workload::ALL.to_vec(),
                None => return usage(&format!("unknown workload `{value}`")),
            },
            "--seed" => match value.parse() {
                Ok(v) => seed = v,
                Err(_) => return usage(&format!("bad seed `{value}`")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 && v.is_finite() => seconds = v,
                _ => return usage(&format!("bad seconds `{value}`")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("bad trace `{value}`: want 0 or 1")),
            },
            "--probe" => match Probe::parse(&value) {
                Some(p) => probe = Some(p),
                None => return usage(&format!("unknown probe `{value}`")),
            },
            _ => return usage(&format!("unknown flag `{flag}`")),
        }
    }
    let Some(&first) = workloads.first() else {
        return usage("--workload is required");
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return fail(&format!("cannot locate the benchmark executable: {e}")),
    };
    let mut cfg = Config {
        workload: first,
        seed,
        seconds,
        trace,
        tiny,
        root: Config::default_root(),
        exe,
    };
    if let Some(probe) = probe {
        if workloads.len() > 1 {
            return usage("--probe takes one workload");
        }
        return match probe_child(&cfg, probe) {
            Ok(kib) => {
                println!("kib {kib}");
                ExitCode::SUCCESS
            }
            Err(e) => fail(&e),
        };
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut reports = Vec::new();
    for &workload in &workloads {
        cfg.workload = workload;
        println!(
            "# k2-perfbench workload={} seed={seed} seconds={seconds} trace={} nproc={nproc} \
             profile={profile} fleet_workers=1 campaign_threads=1 matrix_workers=1{}",
            workload.name(),
            u8::from(trace),
            if tiny { " tiny" } else { "" }
        );
        let report = match run(&cfg) {
            Ok(r) => r,
            Err(e) => return fail(&e),
        };
        for line in &report.lines {
            println!("{line}");
        }
        reports.push((workload, report));
    }
    let correct = reports.iter().all(|(_, r)| r.correct());
    match reports.as_slice() {
        [(_, report)] => println!("{}", report.result_line()),
        _ => println!("{}", combined_result_line(&reports)),
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
