//! `k2-trace`: run one exploration scenario with full observability and
//! export its timeline as Chrome trace-event JSON.
//!
//! The output loads directly in [Perfetto](https://ui.perfetto.dev) or
//! `chrome://tracing`: one process per coherence domain, fixed tracks for
//! span kinds (spans/mail/irq/dma), counter timelines for active cores
//! and per-domain energy. Deterministic — the same `(scenario, seed)`
//! yields byte-identical trace files.
//!
//! ```text
//! k2-trace [--scenario <name>] [--seed <n>] [--out <path>]
//! ```
//!
//! Defaults: `udp-cross-traffic`, seed 0, `<scenario>.trace.json`.
//! Fleet traces come from `k2-fleet-trace`.

use k2_check::{FaultSpec, RunOptions, Scenario};

fn usage() -> ! {
    eprintln!("usage: k2-trace [--scenario <name>] [--seed <n>] [--out <path>]");
    eprintln!("scenarios:");
    for s in Scenario::ALL {
        eprintln!("  {}", s.name());
    }
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scenario = Scenario::UdpCrossTraffic;
    let mut seed = 0u64;
    let mut out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let value = || args.get(i + 1).unwrap_or_else(|| usage()).clone();
        match args[i].as_str() {
            "--scenario" => {
                let name = value();
                scenario = Scenario::ALL
                    .into_iter()
                    .find(|s| s.name() == name)
                    .unwrap_or_else(|| {
                        eprintln!("unknown scenario {name}");
                        usage()
                    });
                i += 2;
            }
            "--seed" => {
                seed = value().parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--out" => {
                out = Some(value());
                i += 2;
            }
            _ => usage(),
        }
    }
    let path = out.unwrap_or_else(|| format!("{}.trace.json", scenario.name()));

    let spec = FaultSpec {
        seed,
        ..FaultSpec::none()
    };
    eprintln!("running {} (seed {seed})...", scenario.name());
    let outcome = scenario.run_with(&spec, None, RunOptions::traced());
    let trace = outcome.chrome_trace.expect("traced run exports a trace");
    std::fs::write(&path, &trace).expect("write trace file");
    eprintln!(
        "wrote {path} ({} bytes, {} machine events) — load it in ui.perfetto.dev",
        trace.len(),
        outcome.events
    );
}
