//! The K2 simulator benchmark.
//!
//! One command runs one workload through the public API of `k2-check`,
//! `k2` and `k2-kernel`, checks every output, and prints each metric by
//! name and unit; its last line is one JSON object. An untraced run
//! (`--trace 0`) reports the end-to-end metrics; a separate traced run
//! (`--trace 1`) times each call the benchmark makes into a layer and
//! reports the per-layer metrics. `README.md` defines every metric and
//! `MAP.md` maps the figures of the retired `bench_prN` binaries onto
//! them.
//!
//! All load comes from this process and never uses more than two
//! threads: fleets run one shard worker beside the coordinator, and
//! campaigns and the matrix run serially.

mod adapter;
mod campaign;
mod conformance;
mod fleet;
mod host;
mod stats;
pub mod trace;

use stats::{median, summarize, Summary};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The end-to-end metrics every untraced run reports, with units.
///
/// The run-time metric is the tail, not the median: on the 2-vCPU VM this
/// was tuned on, host speed drifts by tens of percent over minutes, and
/// the slow runs the tail sits among repeat far more closely than the
/// median. The median, the rates and the run count are printed beside it.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("wall_s_tail", "s"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics every traced run reports, with units. Each
/// workload also prints the layer metrics that apply to it alone.
pub const PER_LAYER: [(&str, &str); 7] = [
    ("snapshot.freeze_ms", "ms"),
    ("dsl.compile_us", "us"),
    ("fork.us", "us"),
    ("fork.allocs", "count"),
    ("fork.rss_kib", "KiB"),
    ("machine.ns_per_event", "ns"),
    ("run.allocs_per_event", "count"),
];

/// Set-ups per run, spread over the timed window so they see the same
/// host conditions as the runs; `setup_s` is their median.
const SETUPS: usize = 40;
/// Timed runs per measurement, at least: the tail percentile needs ten
/// runs beyond it.
const MIN_RUNS: usize = 11;
/// Fresh processes whose peak resident memory is measured.
const RSS_PROBES: usize = 3;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `scenarios/sync-storm.k2.md` as committed.
    SyncStorm,
    /// `perfbench/rush-hour.k2.md`: a busy fleet.
    RushHour,
    /// Coverage-guided campaigns over the four grid scenarios.
    Campaign,
    /// The CI conformance matrix.
    Conformance,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SyncStorm,
        Workload::RushHour,
        Workload::Campaign,
        Workload::Conformance,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SyncStorm => "sync-storm",
            Workload::RushHour => "rush-hour",
            Workload::Campaign => "campaign",
            Workload::Conformance => "conformance",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What to run.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    /// Workload seed: 2014 is the default, 4202 is held out.
    pub seed: u64,
    /// How long the timed runs measure.
    pub seconds: f64,
    /// Run the traced (per-layer) measurement instead of the untraced one.
    pub trace: bool,
    /// Shrink every workload to a few milliseconds (the self-test size).
    /// A tiny fleet no longer matches its file's `expect` table, so
    /// that table is not checked; the invariants still are.
    pub tiny: bool,
    /// Repository root: inputs are read from here, traces written under it.
    pub root: PathBuf,
    /// The benchmark executable, re-run as a fresh process for the
    /// resident-memory probes.
    pub exe: PathBuf,
}

impl Config {
    /// The repository root this benchmark was built in.
    pub fn default_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("the benchmark lives one directory below the root")
            .to_path_buf()
    }
}

/// A measured value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Checks attempted and failed; the first few failures are kept.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one check; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Failed checks over checks attempted.
    pub fn failure_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What one run of the benchmark produced.
pub struct Report {
    /// Human-readable lines, printed before the result.
    pub lines: Vec<String>,
    /// The metrics of the result line, in order.
    pub metrics: Vec<Metric>,
    pub checks: Checks,
    /// The traced run's spans (empty for an untraced run).
    pub tracer: Tracer,
}

impl Report {
    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.checks.failed == 0
    }

    /// The one-line JSON result.
    pub fn result_line(&self) -> String {
        result_json(
            self.correct(),
            self.checks.attempted,
            self.checks.failed,
            self.metrics.iter().map(|m| (m.name.clone(), m)),
        )
    }
}

/// One JSON result for several workloads: checks summed, each metric
/// named `<workload>.<metric>`.
pub fn combined_result_line(reports: &[(Workload, Report)]) -> String {
    result_json(
        reports.iter().all(|(_, r)| r.correct()),
        reports.iter().map(|(_, r)| r.checks.attempted).sum(),
        reports.iter().map(|(_, r)| r.checks.failed).sum(),
        reports.iter().flat_map(|(w, r)| {
            r.metrics
                .iter()
                .map(move |m| (format!("{}.{}", w.name(), m.name), m))
        }),
    )
}

fn result_json<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (String, &'a Metric)>,
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, m)) in metrics.enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            json_number(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// A finite float with all its digits; JSON has no NaN or infinity.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Facts about one checked run.
pub(crate) struct RunFacts {
    /// The run's deterministic rendering; repeats must match it byte
    /// for byte.
    pub rendered: String,
    /// Simulated machine events, when the program reports them.
    pub events: Option<u64>,
    /// Forked-machine schedules completed: one per campaign run or
    /// matrix cell, one per fleet member.
    pub schedules: u64,
    /// The run's digest line, printed with the result.
    pub digest: String,
}

/// Per-layer results a workload's probes add to the common ones.
pub(crate) struct Layers {
    /// Host ns per simulated event spent inside machines, net of forks
    /// and per-machine fixed costs.
    pub machine_ns_per_event: f64,
    /// Heap allocations per simulated event in the run calls.
    pub run_allocs_per_event: f64,
    /// The workload's own layer metrics, as printed lines.
    pub lines: Vec<String>,
}

/// One workload, measured through the generic driver below.
pub(crate) trait Bench: Sized {
    /// What one timed run returns.
    type Out;
    /// Loads and compiles the inputs and freezes the image the runs
    /// fork from, recording `dsl.compile` and `snapshot.freeze` spans.
    fn setup(cfg: &Config, t: &mut Tracer) -> Result<Self, String>;
    /// One timed run.
    fn run(&self, t: &mut Tracer) -> Self::Out;
    /// Checks one run's outputs.
    fn check(&self, out: &Self::Out, checks: &mut Checks) -> RunFacts;
    /// A freshly frozen image of the kind this workload forks from, and
    /// how many machines to fork from it at once to measure their
    /// resident size.
    fn fork_image(&self) -> (adapter::Image, u32);
    /// The traced run's layer probes, within about `budget`.
    fn probe(
        &self,
        t: &mut Tracer,
        budget: Duration,
        facts: &RunFacts,
        checks: &mut Checks,
    ) -> Layers;
}

/// Runs the configured measurement.
pub fn run(cfg: &Config) -> Result<Report, String> {
    match cfg.workload {
        Workload::SyncStorm | Workload::RushHour => measure::<fleet::FleetBench>(cfg),
        Workload::Campaign => measure::<campaign::CampaignBench>(cfg),
        Workload::Conformance => measure::<conformance::ConformanceBench>(cfg),
    }
}

/// The fresh-process probes `main` answers (see [`probe_child`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    /// Set up, run once, report the peak resident KiB.
    PeakRss,
    /// Set up, fork many machines at once, report resident KiB added
    /// per machine.
    ForkRss,
}

impl Probe {
    /// The probe's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Probe::PeakRss => "peak-rss",
            Probe::ForkRss => "fork-rss",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Probe> {
        [Probe::PeakRss, Probe::ForkRss]
            .into_iter()
            .find(|p| p.name() == name)
    }
}

/// The body of a probe process: returns the measured KiB.
pub fn probe_child(cfg: &Config, probe: Probe) -> Result<f64, String> {
    match cfg.workload {
        Workload::SyncStorm | Workload::RushHour => probe_in::<fleet::FleetBench>(cfg, probe),
        Workload::Campaign => probe_in::<campaign::CampaignBench>(cfg, probe),
        Workload::Conformance => probe_in::<conformance::ConformanceBench>(cfg, probe),
    }
}

fn probe_in<B: Bench>(cfg: &Config, probe: Probe) -> Result<f64, String> {
    let bench = B::setup(cfg, &mut Tracer::off())?;
    match probe {
        Probe::PeakRss => {
            std::hint::black_box(bench.run(&mut Tracer::off()));
            Ok(host::peak_rss_kib()? as f64)
        }
        Probe::ForkRss => {
            let (image, count) = bench.fork_image();
            let before = host::rss_kib()?;
            let alive: Vec<adapter::Machine> = (0..count).map(|_| adapter::fork(&image)).collect();
            let after = host::rss_kib()?;
            drop(alive);
            Ok(after.saturating_sub(before) as f64 / f64::from(count))
        }
    }
}

/// Runs `probe` in fresh processes of the benchmark `times` times and
/// returns the median KiB.
fn probe_processes(cfg: &Config, probe: Probe, times: usize) -> Result<f64, String> {
    let mut values = Vec::with_capacity(times);
    for _ in 0..times {
        let mut cmd = Command::new(&cfg.exe);
        cmd.arg("--workload")
            .arg(cfg.workload.name())
            .arg("--seed")
            .arg(cfg.seed.to_string())
            .arg("--probe")
            .arg(probe.name());
        if cfg.tiny {
            cmd.arg("--tiny");
        }
        let out = cmd
            .output()
            .map_err(|e| format!("{} probe: {e}", probe.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let value = stdout
            .lines()
            .last()
            .and_then(|l| l.strip_prefix("kib "))
            .and_then(|v| v.trim().parse::<f64>().ok());
        match (out.status.success(), value) {
            (true, Some(v)) => values.push(v),
            _ => {
                return Err(format!(
                    "{} probe failed: {}",
                    probe.name(),
                    String::from_utf8_lossy(&out.stderr).trim()
                ))
            }
        }
    }
    Ok(median(&values))
}

/// A stable id for one run of the benchmark: FNV-1a of workload and seed.
fn run_id(cfg: &Config) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{}:{}", cfg.workload.name(), cfg.seed).bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn measure<B: Bench>(cfg: &Config) -> Result<Report, String> {
    let mut t = Tracer::new(cfg.trace, run_id(cfg));
    let mut checks = Checks::default();
    let mut lines = Vec::new();

    let mut setup_s = Vec::with_capacity(SETUPS);
    let bench = timed_setup::<B>(cfg, &mut t, &mut setup_s)?;

    // Warm-up run: fills caches and gives the reference every later run
    // must reproduce byte for byte.
    let reference = bench.check(&bench.run(&mut Tracer::off()), &mut checks);
    let timed = |t: &mut Tracer, checks: &mut Checks| {
        let start = Instant::now();
        let out = t.span("run", |t| bench.run(t));
        let secs = start.elapsed().as_secs_f64();
        let facts = bench.check(&out, checks);
        checks.check(facts.rendered == reference.rendered, || {
            "a repeated run at the same seed rendered a different report".to_string()
        });
        secs
    };

    if !cfg.trace {
        let mut wall = Vec::new();
        let start = Instant::now();
        let every = cfg.seconds / SETUPS as f64;
        while wall.len() < MIN_RUNS || start.elapsed().as_secs_f64() < cfg.seconds {
            wall.push(timed(&mut t, &mut checks));
            if setup_s.len() < SETUPS
                && start.elapsed().as_secs_f64() >= every * setup_s.len() as f64
            {
                timed_setup::<B>(cfg, &mut t, &mut setup_s)?;
            }
        }
        while setup_s.len() < SETUPS {
            timed_setup::<B>(cfg, &mut t, &mut setup_s)?;
        }
        let peak_kib = probe_processes(cfg, Probe::PeakRss, RSS_PROBES)?;
        let w = summarize(&wall);
        let values = [median(&setup_s), w.tail, peak_kib / 1024.0];
        let metrics: Vec<Metric> = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric {
                name: name.to_string(),
                value,
                unit,
            })
            .collect();
        lines.push(format!(
            "setup_s = {} s (median of {SETUPS} set-ups)",
            values[0]
        ));
        lines.push(format!(
            "wall_s = {} s p50, {} s p{} ({} runs)",
            w.p50, w.tail, w.tail_pct, w.n
        ));
        lines.push(format!(
            "wall_s_tail = {} s, the p{} run time ({} runs)",
            w.tail, w.tail_pct, w.n
        ));
        match reference.events {
            Some(events) => lines.push(format!(
                "sim_events_per_s = {} 1/s ({events} events per run, median run)",
                events as f64 / w.p50
            )),
            None => lines.push(
                "sim_events_per_s: not reported (a campaign does not expose its event count)"
                    .to_string(),
            ),
        }
        lines.push(format!(
            "schedules_per_s = {} 1/s ({} per run, median run)",
            reference.schedules as f64 / w.p50,
            reference.schedules
        ));
        lines.push(format!(
            "peak_rss_mib = {} MiB (median of {RSS_PROBES} fresh processes)",
            values[2]
        ));
        lines.push(format!("digest: {}", reference.digest));
        finish(&mut lines, &checks);
        return Ok(Report {
            lines,
            metrics,
            checks,
            tracer: t,
        });
    }

    // Traced run: more set-ups for the layer samples, then untraced and
    // traced runs alternate, then the probes.
    while setup_s.len() < SETUPS {
        timed_setup::<B>(cfg, &mut t, &mut setup_s)?;
    }
    let paired = Duration::from_secs_f64(cfg.seconds * 0.4);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    while plain.len() < MIN_RUNS || start.elapsed() < paired {
        plain.push(timed(&mut Tracer::off(), &mut checks));
        traced.push(timed(&mut t, &mut checks));
    }
    let budget = Duration::from_secs_f64(cfg.seconds * 0.6);
    let layers = t.span("probe", |t| bench.probe(t, budget, &reference, &mut checks));
    let fork_rss = probe_processes(cfg, Probe::ForkRss, 1)?;

    let freeze = summarize(&t.durations("snapshot.freeze", 1e6));
    let compile = summarize(&t.durations("dsl.compile", 1e3));
    let fork = summarize(&t.durations("fork", 1e3));
    let forks: Vec<&trace::Span> = t.named("fork").collect();
    let fork_allocs = forks.iter().map(|s| s.allocs).sum::<u64>() as f64 / forks.len() as f64;
    let values = [
        freeze.p50,
        compile.p50,
        fork.p50,
        fork_allocs,
        fork_rss,
        layers.machine_ns_per_event,
        layers.run_allocs_per_event,
    ];
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_string(),
            value,
            unit,
        })
        .collect();
    lines.push(timing_line("snapshot.freeze_ms", "ms", &freeze));
    lines.push(timing_line("dsl.compile_us", "us", &compile));
    lines.push(timing_line("fork.us", "us", &fork));
    lines.push(format!(
        "fork.allocs = {fork_allocs} count per fork ({} forks)",
        forks.len()
    ));
    lines.push(format!(
        "fork.rss_kib = {fork_rss} KiB per forked machine (fresh process)"
    ));
    lines.push(format!(
        "machine.ns_per_event = {} ns",
        layers.machine_ns_per_event
    ));
    lines.push(format!(
        "run.allocs_per_event = {} count",
        layers.run_allocs_per_event
    ));
    lines.extend(layers.lines);
    let (p, q) = (summarize(&plain), summarize(&traced));
    lines.push(format!(
        "trace.overhead_s = {} s per run (traced p50 {} s - untraced p50 {} s, {} pairs)",
        q.p50 - p.p50,
        q.p50,
        p.p50,
        p.n
    ));
    let path = write_trace(cfg, &t)?;
    lines.push(format!(
        "trace: {} spans in {}",
        t.spans().len(),
        path.display()
    ));
    lines.push(format!("digest: {}", reference.digest));
    finish(&mut lines, &checks);
    Ok(Report {
        lines,
        metrics,
        checks,
        tracer: t,
    })
}

/// One set-up, timed into `times`.
fn timed_setup<B: Bench>(cfg: &Config, t: &mut Tracer, times: &mut Vec<f64>) -> Result<B, String> {
    let start = Instant::now();
    let bench = t.span("setup", |t| B::setup(cfg, t))?;
    times.push(start.elapsed().as_secs_f64());
    Ok(bench)
}

/// `name = p50 unit, tail unit pQ (n samples)`.
pub(crate) fn timing_line(name: &str, unit: &str, s: &Summary) -> String {
    format!(
        "{name} = {} {unit} p50, {} {unit} p{} ({} samples)",
        s.p50, s.tail, s.tail_pct, s.n
    )
}

fn finish(lines: &mut Vec<String>, checks: &Checks) {
    lines.push(format!(
        "failure_rate = {} ({} of {} checks failed)",
        checks.failure_rate(),
        checks.failed,
        checks.attempted
    ));
    for f in &checks.failures {
        lines.push(format!("FAILED: {f}"));
    }
}

/// Writes the traced run's spans to `perfbench/out/` as a Chrome trace.
fn write_trace(cfg: &Config, t: &Tracer) -> Result<PathBuf, String> {
    let dir = cfg.root.join("perfbench").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-{}.trace.json", cfg.workload.name(), cfg.seed));
    std::fs::write(&path, t.chrome_trace()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}
