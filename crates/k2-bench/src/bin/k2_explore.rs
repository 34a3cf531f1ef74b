//! `k2-explore`: run search campaigns and report schedule-space coverage.
//!
//! For each selected scenario × strategy, runs a [`Campaign`] and prints
//! the EXPERIMENTS.md coverage table (distinct fingerprints, distinct
//! schedules, distinct end states, failures) to stdout. With `--out`,
//! additionally streams every campaign report as JSON — one object per
//! line — straight to the file through
//! [`IoAdapter`], never staging the document in
//! memory.
//!
//! ```text
//! k2-explore [--scenario <name>] [--strategy <name>] [--seed <n>]
//!            [--budget <n>] [--out <path>]
//! ```
//!
//! Defaults: all scenarios, all strategies, seed 2014, budget 200.
//! Deterministic: the same arguments yield byte-identical output for any
//! `K2CHECK_THREADS`.

use k2_bench::{create_output, exit_with};
use k2_check::{Campaign, CampaignReport, Scenario, Strategy};
use k2_sim::json::{IoAdapter, JsonWriter};
use std::fmt::Write as _;

fn usage() -> ! {
    eprintln!(
        "usage: k2-explore [--scenario <name>] [--strategy <name>] \
         [--seed <n>] [--budget <n>] [--out <path>]"
    );
    eprintln!("scenarios:");
    for s in Scenario::ALL {
        eprintln!("  {}", s.name());
    }
    eprintln!("strategies:");
    for s in Strategy::ALL {
        eprintln!("  {}", s.name());
    }
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scenarios: Vec<Scenario> = Scenario::ALL.to_vec();
    let mut strategies: Vec<Strategy> = Strategy::ALL.to_vec();
    let mut seed = 2014u64;
    let mut budget = 200u32;
    let mut out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let value = || args.get(i + 1).unwrap_or_else(|| usage()).clone();
        match args[i].as_str() {
            "--scenario" => {
                let name = value();
                scenarios = vec![Scenario::ALL
                    .into_iter()
                    .find(|s| s.name() == name)
                    .unwrap_or_else(|| {
                        eprintln!("unknown scenario {name}");
                        usage()
                    })];
                i += 2;
            }
            "--strategy" => {
                let name = value();
                strategies = vec![Strategy::ALL
                    .into_iter()
                    .find(|s| s.name() == name)
                    .unwrap_or_else(|| {
                        eprintln!("unknown strategy {name}");
                        usage()
                    })];
                i += 2;
            }
            "--seed" => {
                seed = value().parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--budget" => {
                budget = value().parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--out" => {
                out = Some(value());
                i += 2;
            }
            _ => usage(),
        }
    }

    let mut sink = out.map(|path| {
        let file = create_output(&path);
        (path, IoAdapter::new(file))
    });

    println!("| scenario | strategy | runs | fingerprints | schedules | end states | failures |");
    println!("|---|---|---|---|---|---|---|");
    let mut reports: Vec<CampaignReport> = Vec::new();
    for &scenario in &scenarios {
        for &strategy in &strategies {
            let report = Campaign::new(scenario, strategy, seed).budget(budget).run();
            println!(
                "| {} | {} | {} | {} | {} | {} | {} |",
                report.scenario.name(),
                report.strategy.name(),
                report.runs,
                report.distinct_fingerprints,
                report.distinct_schedules,
                report.distinct_end_states,
                report.failures.len(),
            );
            if let Some((_, adapter)) = sink.as_mut() {
                let mut w = JsonWriter::compact(adapter);
                report.write_json(&mut w);
                w.finish();
                let _ = adapter.write_char('\n');
            }
            reports.push(report);
        }
    }
    for report in &reports {
        if let Some(f) = report.first_failure() {
            eprintln!(
                "{} / {}: first failure at run {} ({}): {} [{}]",
                report.scenario.name(),
                report.strategy.name(),
                report.first_failure_run.unwrap_or(0),
                f.policy,
                f.kind,
                f.schedule.token(),
            );
        }
    }
    if let Some((path, adapter)) = sink {
        adapter
            .finish()
            .unwrap_or_else(|e| exit_with(1, format!("cannot write {path}: {e}")));
        eprintln!("wrote campaign reports to {path}");
    }
}
