//! `k2`: the reproduction's command line. It regenerates every table,
//! figure and ablation of the paper's evaluation, exports traces, runs
//! exploration campaigns and expands the conformance matrix; `k2 help`
//! lists the commands and their flags.
//!
//! Every command is deterministic: the same command line yields
//! byte-identical stdout and files, at any worker count. A malformed
//! argument ends the run before anything is simulated, with one
//! `error:` line on stderr and status 2; an output file that cannot be
//! created or written ends it with status 1. An eval whose expect table
//! fails, a failing matrix cell and a failing matrix also exit 1.

use k2_bench::{conformance, create_output, exit_with, write_output};
use k2_check::dsl::builtin;
use k2_check::fleet::{run_fleet_traced, warmed_snapshot, FleetSpec};
use k2_check::matrix::{MatrixSpec, CI_SEEDS};
use k2_check::{Campaign, CampaignReport, FaultSpec, RunOptions, Scenario, Strategy};
use k2_sim::json::{IoAdapter, JsonWriter};
use k2_sim::sink::SinkMode;
use k2_sim::time::SimDuration;
use std::fmt::{Display, Write as _};

const USAGE: &str = "\
usage: k2 <command> [flags]

  all                      every report below, in the order of the paper's evaluation
  table1-cores | table3-power | fig6-energy | fig6-flash
  ablation-shadowed-alloc | ablation-three-state | ablation-pin-weak
  <eval>                   any `k2 eval` file in scenarios/: fig1-trend, table2-refactoring,
                           table4-alloc, table5-dsm, table6-shared-driver, dvfs-sweep,
                           standby-estimate; prints the report and checks its expect table
  profile-report [--seed N]
  trace [--scenario S] [--seed N] [--out PATH]
  fleet-trace [--devices N] [--hubs N] [--sink MODE] [--seed N] [--epochs N]
              [--workers N] [--out PREFIX]
  explore [--scenario S] [--strategy S] [--seed N] [--budget N] [--out PATH]
  matrix [--seeds A,B] [--walks N] [--no-lite] [--workers N] [--out PATH]
  matrix --cell SCENARIO:SEED:PRESET:CHOOSER:SINK
  matrix --expect NAME
  help

scenarios: udp-cross-traffic | ext2-churn | dma-fanout | mail-race
strategies: random | pct | coverage-guided
sink modes: disabled | ring | ring:<cap> | full
";

/// `k2 all`'s reports, in the order of the paper's evaluation.
const ALL: [&str; 14] = [
    "table1-cores",
    "table3-power",
    "fig1-trend",
    "table2-refactoring",
    "fig6-energy",
    "table4-alloc",
    "table5-dsm",
    "table6-shared-driver",
    "ablation-shadowed-alloc",
    "ablation-three-state",
    "ablation-pin-weak",
    "dvfs-sweep",
    "fig6-flash",
    "standby-estimate",
];

fn main() {
    let mut argv = std::env::args().skip(1);
    let command = argv
        .next()
        .unwrap_or_else(|| exit_with(2, "no command given (see `k2 help`)"));
    let args = Args {
        command: command.clone(),
        rest: argv,
    };
    let code = match command.as_str() {
        "help" => {
            args.no_flags();
            print!("{USAGE}");
            0
        }
        "all" => {
            args.no_flags();
            ALL.iter().fold(0, |code, name| {
                let status = report(name);
                println!();
                code.max(status)
            })
        }
        "profile-report" => profile_report(args),
        "trace" => trace(args),
        "fleet-trace" => fleet_trace(args),
        "explore" => explore(args),
        "matrix" => matrix(args),
        name if ALL.contains(&name) || is_eval(name) => {
            args.no_flags();
            report(name)
        }
        name => exit_with(2, format!("unknown command `{name}` (see `k2 help`)")),
    };
    std::process::exit(code);
}

/// One command's flags, read front to back. Every malformed flag or
/// value ends the process through [`exit_with`] with status 2.
struct Args {
    command: String,
    rest: std::iter::Skip<std::env::Args>,
}

impl Args {
    /// The next flag, if any.
    fn flag(&mut self) -> Option<String> {
        self.rest.next()
    }

    /// The value after `flag`, as given.
    fn text(&mut self, flag: &str) -> String {
        self.rest
            .next()
            .unwrap_or_else(|| exit_with(2, format!("`{flag}` needs a value")))
    }

    /// The value after `flag`, converted by `parse`.
    fn parsed<T, E: Display>(&mut self, flag: &str, parse: impl FnOnce(&str) -> Result<T, E>) -> T {
        let value = self.text(flag);
        parse(&value).unwrap_or_else(|e| exit_with(2, format!("`{flag} {value}`: {e}")))
    }

    /// The value after `flag`, parsed as a `T`.
    fn value<T: std::str::FromStr>(&mut self, flag: &str) -> T
    where
        T::Err: Display,
    {
        self.parsed(flag, str::parse)
    }

    /// The value after `flag`: the one of `all` it names.
    fn named<T: Copy>(&mut self, flag: &str, all: &[T], name: fn(T) -> &'static str) -> T {
        self.parsed(flag, |v| {
            all.iter().copied().find(|&t| name(t) == v).ok_or_else(|| {
                let names: Vec<&str> = all.iter().map(|&t| name(t)).collect();
                format!("not one of {}", names.join(", "))
            })
        })
    }

    /// Ends the process: this command takes no flag `flag`.
    fn unknown(&self, flag: &str) -> ! {
        exit_with(
            2,
            format!("`k2 {}` takes no argument `{flag}`", self.command),
        )
    }

    /// Rejects any argument to a command that takes none.
    fn no_flags(mut self) {
        if let Some(flag) = self.flag() {
            self.unknown(&flag);
        }
    }
}

/// Whether `name` is a builtin `k2 eval` scenario file.
fn is_eval(name: &str) -> bool {
    builtin::source(name).is_some() && builtin::load(name).is_eval()
}

/// Prints one report and returns the exit status: an eval file also
/// prints its conformance footer and fails when its expect table does.
fn report(name: &str) -> i32 {
    let text = match name {
        "table1-cores" => k2_bench::table1_cores(),
        "table3-power" => k2_bench::table3_power(),
        "fig6-energy" => k2_bench::fig6_energy(),
        "fig6-flash" => k2_bench::fig6_flash(),
        "ablation-shadowed-alloc" => k2_bench::ablation_shadowed_alloc(),
        "ablation-three-state" => k2_bench::ablation_three_state(),
        "ablation-pin-weak" => k2_bench::ablation_pin_weak(),
        eval => return conformance::run_and_check(eval),
    };
    print!("{text}");
    0
}

/// `k2 profile-report`: the deterministic profile-report bundle
/// (`BENCH_pr2.json`) of every golden scenario; seed 2014 by default,
/// matching the golden-trace suite.
fn profile_report(mut args: Args) -> i32 {
    let mut seed = 2014u64;
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "--seed" => seed = args.value(&flag),
            _ => args.unknown(&flag),
        }
    }
    print!("{}", k2_bench::profile_report_bundle(seed));
    0
}

/// `k2 trace`: runs one grid scenario with full observability and writes
/// its timeline as Chrome trace-event JSON, which loads in Perfetto or
/// `chrome://tracing`. Defaults: `udp-cross-traffic`, seed 0,
/// `<scenario>.trace.json`.
fn trace(mut args: Args) -> i32 {
    let mut scenario = Scenario::UdpCrossTraffic;
    let mut seed = 0u64;
    let mut out: Option<String> = None;
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "--scenario" => scenario = args.named(&flag, &Scenario::ALL, Scenario::name),
            "--seed" => seed = args.value(&flag),
            "--out" => out = Some(args.text(&flag)),
            _ => args.unknown(&flag),
        }
    }
    let path = out.unwrap_or_else(|| format!("{}.trace.json", scenario.name()));
    let file = create_output(&path);

    let spec = FaultSpec {
        seed,
        ..FaultSpec::none()
    };
    eprintln!("running {} (seed {seed})...", scenario.name());
    let outcome = scenario
        .compile()
        .run_with(&spec, None, RunOptions::traced());
    let trace = outcome.chrome_trace.expect("traced run exports a trace");
    write_output(file, &path, &trace);
    eprintln!(
        "wrote {path} ({} bytes, {} machine events) — load it in ui.perfetto.dev",
        trace.len(),
        outcome.events
    );
    0
}

/// `k2 fleet-trace`: runs a traced sync-storm fleet and writes three
/// files: `<prefix>.trace.json` (one Perfetto document, each machine in
/// its own pid block, cross-machine datagram flows stitched by global
/// span id), `<prefix>.timeline.json` (per-epoch samples with
/// p50/p99/max columns and the stragglers) and `<prefix>.report.txt`.
/// Defaults: 16 devices, 2 hubs, `full` sink, seed 2014, 80 epochs,
/// prefix `fleet`.
fn fleet_trace(mut args: Args) -> i32 {
    let mut devices = 16u32;
    let mut hubs = 2u32;
    let mut sink = SinkMode::Full;
    let mut seed = 2_014u64;
    let mut epochs = 80u32;
    let mut workers = 0usize;
    let mut prefix = "fleet".to_string();
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "--devices" => devices = args.value(&flag),
            "--hubs" => hubs = args.value(&flag),
            "--sink" => {
                sink = args.parsed(&flag, |v| {
                    SinkMode::parse(v).ok_or("not one of disabled, ring, ring:<cap>, full")
                })
            }
            "--seed" => seed = args.value(&flag),
            "--epochs" => epochs = args.value(&flag),
            "--workers" => workers = args.value(&flag),
            "--out" => prefix = args.text(&flag),
            _ => args.unknown(&flag),
        }
    }

    let mut spec = FleetSpec::sync_storm(devices, hubs);
    spec.seed = seed;
    spec.epochs = epochs;
    spec.period = SimDuration::from_ms(4);
    spec.sink = sink;
    if workers > 0 {
        spec.workers = workers;
    }
    if let Err(e) = spec.validate() {
        exit_with(2, format!("invalid fleet: {e}"));
    }
    let paths = ["trace.json", "timeline.json", "report.txt"].map(|ext| format!("{prefix}.{ext}"));
    let files = paths.each_ref().map(|p| create_output(p));
    eprintln!(
        "running sync storm: {} machines, {epochs} epochs, sink {} (seed {seed})...",
        spec.machines(),
        sink.label()
    );
    let snap = warmed_snapshot();
    let (report, trace) = run_fleet_traced(&spec, &snap);

    let rendered = report.render();
    let texts = [&trace, &report.timeline.render_json(), &rendered];
    for ((file, path), text) in files.into_iter().zip(&paths).zip(texts) {
        write_output(file, path, text);
    }

    eprint!("{rendered}");
    eprintln!(
        "wrote {} ({} bytes), {}, {}",
        paths[0],
        trace.len(),
        paths[1],
        paths[2]
    );
    if sink == SinkMode::Disabled {
        eprintln!("note: sink disabled — the trace document carries no events");
    }
    0
}

/// `k2 explore`: runs a search campaign per scenario × strategy and
/// prints the coverage table (distinct fingerprints, schedules and end
/// states, failures). `--out` also streams every campaign report to the
/// file as one JSON object per line. Defaults: every scenario and
/// strategy, seed 2014, budget 200.
fn explore(mut args: Args) -> i32 {
    let mut scenarios: Vec<Scenario> = Scenario::ALL.to_vec();
    let mut strategies: Vec<Strategy> = Strategy::ALL.to_vec();
    let mut seed = 2014u64;
    let mut budget = 200u32;
    let mut out: Option<String> = None;
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "--scenario" => scenarios = vec![args.named(&flag, &Scenario::ALL, Scenario::name)],
            "--strategy" => strategies = vec![args.named(&flag, &Strategy::ALL, Strategy::name)],
            "--seed" => seed = args.value(&flag),
            "--budget" => budget = args.value(&flag),
            "--out" => out = Some(args.text(&flag)),
            _ => args.unknown(&flag),
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
    0
}

/// `k2 matrix`: runs every builtin grid scenario across seed ×
/// fault preset × chooser × sink, prints the markdown summary, and
/// with `--out` also writes the JSON-lines form. `--cell` re-runs one
/// cell; `--expect` prints a builtin's blessed expect blocks.
fn matrix(mut args: Args) -> i32 {
    let mut spec = MatrixSpec::ci();
    let mut out: Option<String> = None;
    let mut cell: Option<String> = None;
    let mut expect: Option<String> = None;
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "--seeds" => {
                spec.seeds = args.parsed(&flag, |v| {
                    v.split(',')
                        .map(|s| s.trim().parse::<u64>())
                        .collect::<Result<_, _>>()
                })
            }
            "--walks" => spec.walks = args.value(&flag),
            "--workers" => spec.workers = args.value(&flag),
            "--no-lite" => spec.lite = false,
            "--out" => out = Some(args.text(&flag)),
            "--cell" => cell = Some(args.text(&flag)),
            "--expect" => expect = Some(args.text(&flag)),
            _ => args.unknown(&flag),
        }
    }

    if let Some(name) = expect {
        bless(&name);
        return 0;
    }
    if let Some(id) = cell {
        let c = spec
            .run_cell(&id)
            .unwrap_or_else(|| exit_with(2, format!("no such cell `{id}` in this matrix")));
        println!("{}", c.summary_line());
        return i32::from(!c.passed());
    }

    let file = out.map(|path| (create_output(&path), path));
    let outcome = spec.run();
    print!("{}", outcome.render_markdown());
    if let Some((file, path)) = file {
        write_output(file, &path, &outcome.render_jsonl());
        println!("\nwrote {path}");
    }
    i32::from(!outcome.passed())
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
