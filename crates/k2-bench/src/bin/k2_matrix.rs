//! `k2-matrix` — expand the scenario conformance matrix.
//!
//! Runs every builtin grid scenario (`scenarios/*.k2.md`) across
//! seed × fault-preset × chooser × sink, prints the markdown summary,
//! optionally streams the JSON-lines form to a file, and exits nonzero
//! if any oracle or declared expectation fails. The summary digest is
//! byte-identical at any worker count (`K2CHECK_THREADS` / --threads).
//!
//! ```text
//! k2-matrix [--seeds 2014,4202] [--walks 1] [--no-lite] [--threads N]
//!           [--out cells.jsonl]
//! k2-matrix --cell <scenario:seed:preset:chooser:sink>   # re-run one cell
//! k2-matrix --expect <scenario>                          # print blessed expect blocks
//! ```

use k2_bench::{conformance, exit_with};
use k2_check::dsl::builtin;
use k2_check::matrix::{MatrixSpec, CI_SEEDS};
use k2_check::{FaultSpec, RunOptions};

fn usage() -> ! {
    eprint!(
        "usage: k2-matrix [--seeds a,b] [--walks N] [--no-lite] [--threads N] [--out FILE]\n\
         \x20      k2-matrix --cell <scenario:seed:preset:chooser:sink>\n\
         \x20      k2-matrix --expect <scenario>\n"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut spec = MatrixSpec::ci();
    let mut out_path: Option<String> = None;
    let mut cell: Option<String> = None;
    let mut expect: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().cloned().unwrap_or_else(|| usage());
        match a.as_str() {
            "--seeds" => {
                spec.seeds = val()
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--walks" => spec.walks = val().parse().unwrap_or_else(|_| usage()),
            "--threads" => spec.workers = val().parse().unwrap_or_else(|_| usage()),
            "--no-lite" => spec.lite = false,
            "--out" => out_path = Some(val()),
            "--cell" => cell = Some(val()),
            "--expect" => expect = Some(val()),
            _ => usage(),
        }
    }

    if let Some(name) = expect {
        bless(&name);
        return;
    }
    if let Some(id) = cell {
        match spec.run_cell(&id) {
            Some(c) => {
                println!("{}", c.summary_line());
                std::process::exit(i32::from(!c.passed()));
            }
            None => {
                eprintln!("no such cell `{id}` in this matrix");
                std::process::exit(2);
            }
        }
    }

    let out = spec.run();
    print!("{}", out.render_markdown());
    if let Some(path) = out_path {
        std::fs::write(&path, out.render_jsonl())
            .unwrap_or_else(|e| exit_with(1, format!("cannot write {path}: {e}")));
        println!("\nwrote {path}");
    }
    std::process::exit(i32::from(!out.passed()));
}

/// Prints canonical `k2 expect` blocks with *observed* values for the
/// named builtin — the bless helper used to populate the checked-in
/// files. Grid scenarios report their end-state extras per preset (one
/// block when every CI seed agrees, per-seed blocks otherwise); eval
/// scenarios report the full conformance metric map.
fn bless(name: &str) {
    if builtin::source(name).is_none() {
        exit_with(2, format!("--expect: no builtin scenario `{name}`"));
    }
    let def = builtin::load(name);
    if def.is_eval() {
        let out = conformance::eval_builtin(name);
        println!("```k2 expect");
        println!("| metric | value |");
        println!("|---|---|");
        for (metric, value) in &out.metrics {
            println!("| {metric} | {value} |");
        }
        println!("```");
        return;
    }
    let compiled = def
        .compile()
        .unwrap_or_else(|e| exit_with(2, format!("--expect {name}: {e}")));
    let metrics: Vec<String> = {
        let mut m: Vec<String> = def.grid.iter().map(|r| r.metric.clone()).collect();
        m.extend(def.steps.iter().filter_map(|s| match s {
            k2_check::dsl::StepDef::HookLastWins { metric, .. } => Some(metric.clone()),
            k2_check::dsl::StepDef::SendMail { .. } => None,
        }));
        m
    };
    for preset in def.preset_names() {
        // (seed, observed values in metric order)
        let per_seed: Vec<(u64, Vec<String>)> = CI_SEEDS
            .iter()
            .map(|&seed| {
                let spec = def.fault_spec(&preset, seed).unwrap_or(FaultSpec::none());
                let run = compiled.run_with(&spec, None, RunOptions::full());
                let values = metrics
                    .iter()
                    .map(|m| {
                        run.end_state
                            .entries()
                            .iter()
                            .find(|(k, _)| k == m)
                            .map(|(_, v)| v.clone())
                            .unwrap_or_else(|| "<missing>".to_string())
                    })
                    .collect();
                (seed, values)
            })
            .collect();
        let all_agree = per_seed.iter().all(|(_, v)| *v == per_seed[0].1);
        let blocks: Vec<(Option<u64>, &Vec<String>)> = if all_agree {
            vec![(None, &per_seed[0].1)]
        } else {
            per_seed.iter().map(|(s, v)| (Some(*s), v)).collect()
        };
        for (seed, values) in blocks {
            print!("```k2 expect preset={preset}");
            if let Some(seed) = seed {
                print!(" seed={seed}");
            }
            println!();
            println!("| metric | value |");
            println!("|---|---|");
            for (metric, value) in metrics.iter().zip(values) {
                println!("| {metric} | {value} |");
            }
            println!("```");
        }
        println!();
    }
}
