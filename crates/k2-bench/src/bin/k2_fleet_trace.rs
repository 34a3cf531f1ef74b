//! `k2-fleet-trace`: run a traced sync-storm fleet and export the full
//! observability bundle — the flow-stitched cross-machine Chrome trace,
//! the per-epoch telemetry timeline, and the fleet report.
//!
//! Three files land next to each other (prefix configurable):
//!
//! * `<prefix>.trace.json` — one Perfetto-loadable document; every
//!   machine in its own pid block, cross-machine datagram flows stitched
//!   with `s`/`f` flow events keyed by global span ids.
//! * `<prefix>.timeline.json` — per-epoch samples (events/sec, in-flight
//!   datagrams, fabric drops/reorders, backlog, energy) with p50/p99/max
//!   columns and the k·MAD straggler section.
//! * `<prefix>.report.txt` — the human-readable fleet report.
//!
//! Deterministic: the same flags yield byte-identical files at any
//! `--workers` value.
//!
//! ```text
//! k2-fleet-trace [--devices <n>] [--hubs <n>] [--sink <mode>]
//!                [--seed <n>] [--epochs <n>] [--workers <n>]
//!                [--out <prefix>]
//! ```
//!
//! Defaults: 16 devices, 2 hubs, `full` sink, seed 2014, 80 epochs,
//! prefix `fleet`. Sink modes: `disabled`, `ring`, `ring:<cap>`, `full`.

use k2_bench::{create_output, exit_with, write_output};
use k2_check::fleet::{run_fleet_traced, warmed_snapshot, FleetSpec};
use k2_sim::sink::SinkMode;
use k2_sim::time::SimDuration;

fn usage() -> ! {
    eprintln!(
        "usage: k2-fleet-trace [--devices <n>] [--hubs <n>] [--sink <mode>] \
         [--seed <n>] [--epochs <n>] [--workers <n>] [--out <prefix>]"
    );
    eprintln!("sink modes: disabled | ring | ring:<cap> | full");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut devices = 16u32;
    let mut hubs = 2u32;
    let mut sink = SinkMode::Full;
    let mut seed = 2_014u64;
    let mut epochs = 80u32;
    let mut workers = 0usize;
    let mut prefix = "fleet".to_string();
    let mut i = 0;
    while i < args.len() {
        let value = || args.get(i + 1).unwrap_or_else(|| usage()).clone();
        match args[i].as_str() {
            "--devices" => devices = value().parse().unwrap_or_else(|_| usage()),
            "--hubs" => hubs = value().parse().unwrap_or_else(|_| usage()),
            "--sink" => sink = SinkMode::parse(&value()).unwrap_or_else(|| usage()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--epochs" => epochs = value().parse().unwrap_or_else(|_| usage()),
            "--workers" => workers = value().parse().unwrap_or_else(|_| usage()),
            "--out" => prefix = value(),
            _ => usage(),
        }
        i += 2;
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
}
