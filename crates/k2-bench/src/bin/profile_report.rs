//! Emits the deterministic profile-report bundle (`BENCH_pr2.json`).
//!
//! Usage: `profile_report [--seed N] > BENCH_pr2.json` (default seed 2014,
//! matching the golden-trace suite).
use k2_bench::exit_with;

fn main() {
    let mut seed = 2014u64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                let v = args.next().unwrap_or_default();
                seed = v.parse().unwrap_or_else(|_| {
                    exit_with(2, format!("--seed takes an integer, got `{v}`"))
                });
            }
            other => exit_with(2, format!("unknown argument `{other}`")),
        }
    }
    print!("{}", k2_bench::profile_report_bundle(seed));
}
