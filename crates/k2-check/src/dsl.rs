//! Declarative scenario files: spec = test = doc.
//!
//! A `scenarios/*.k2.md` file is an ordinary markdown document whose
//! fenced code blocks tagged `k2` carry a machine-readable scenario
//! description. Everything outside those fences is prose documentation;
//! everything inside parses into the types that run ([`GridRow`],
//! [`FaultSpec`], [`FleetSpec`]) and compiles onto the single-machine run
//! machinery ([`RunOptions`], the `TestSystem` harness), so one file
//! is simultaneously the specification of a workload, the test that pins
//! its behaviour (via `expect` tables), and the document a reader
//! studies. The four grid files campaigns explore are named by
//! [`Scenario`](crate::scenario::Scenario); this is their only
//! definition.
//!
//! # Grammar
//!
//! Seven block kinds, introduced by an info string `k2 <section>
//! [key=value …]`:
//!
//! * `k2 scenario` — key/value lines: `name` (required, kebab-case),
//!   `pulse_cores` (default 2), `pulse_rounds` (default 24).
//! * `k2 grid` — a table `| domain | task | workload | args | salt |
//!   metric |`; each row spawns one benchmark task via
//!   [`TestSystem::spawn_grid`](k2_workloads::harness::TestSystem::spawn_grid).
//!   Workloads: `udp` (`batch`, `total`), `ext2` (`file_size`, `files`),
//!   `dma` (`batch`, `total`), `cloud` (`fetches`, `reply`, `rtt_ms`).
//!   Sizes accept `K`/`M` suffixes.
//! * `k2 steps` — a table `| op | args |` of imperative setup steps, run
//!   in file order after the grid spawns: `hook-last-wins`
//!   (`domain`, `metric`) plants the last-value-wins mailbox ISR (the
//!   world's raw mail drain, `K2System::raw_mail`) and reports the
//!   domain's last payload as `metric`; `send-mail` (`from`, `to`,
//!   `value`) enqueues a cross-domain mail.
//! * `k2 faults preset=<name>` — key/value fault knobs, each a rate in
//!   `[0, 1]`, named as the rate fields of [`FaultSpec`]. The preset
//!   `none` always exists implicitly.
//! * `k2 expect [preset=<name>] [seed=<n>]` — a table `| metric | value |`
//!   of exact (tolerance-free — the simulator is deterministic)
//!   assertions against the run's end state, checked by the conformance
//!   matrix on baseline-chooser, full-sink cells.
//! * `k2 eval kind=<kind>` — for paper-evaluation files: a key/value
//!   parameter block interpreted by `k2-bench`'s conformance runner
//!   instead of the schedule-exploration harness. A file declares either
//!   a grid/steps workload or an eval, never both.
//! * `k2 fleet` — key/value lines for a multi-machine run
//!   ([`crate::fleet::run_fleet`]): `devices` and `hubs` (required),
//!   `burst`, `bursts`, `epochs`, `period_us`, `epoch_us`,
//!   `latency_min_us`, `latency_max_us`, `loss`, `reorder` and `trace`
//!   (`disabled`, `ring`, `ring:<cap>` or `full`). Unset keys keep
//!   [`FleetSpec::sync_storm`]'s values, and the block must pass
//!   [`FleetSpec::validate`]. A fleet file declares nothing else but
//!   expectations.
//!
//! Parsing is dependency-free, never panics on malformed input, and
//! reports every rejection with a 1-based line number. [`ScenarioDef::render`]
//! emits the canonical block form; parse ∘ render is the identity on the
//! structural content (prose is documentation, not state).

use crate::fleet::FleetSpec;
use crate::scenario::{self, FaultSpec, RunOptions, RunOutcome};
use k2::system::SystemSnapshot;
use k2_sim::explore::ScheduleChooser;
use k2_sim::sink::SinkMode;
use k2_sim::time::SimDuration;
use k2_soc::ids::DomainId;
use k2_soc::mailbox::Mail;
use k2_workloads::harness::{GridRow, TestSystem, Workload};
use std::fmt;

/// A parse or validation rejection, anchored to a 1-based source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DslError {
    /// 1-based line the problem was detected on.
    pub line: usize,
    /// What was wrong.
    pub msg: String,
}

impl DslError {
    fn new(line: usize, msg: impl Into<String>) -> Self {
        DslError {
            line,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for DslError {}

/// One row of a `k2 steps` table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepDef {
    /// Install the planted last-value-wins mailbox ISR on `domain`,
    /// reporting the last-drained payload under `metric` (8-hex-digit).
    HookLastWins {
        /// Domain whose mailbox ISR is replaced.
        domain: DomainId,
        /// End-state metric key.
        metric: String,
    },
    /// Enqueue one cross-domain mail.
    SendMail {
        /// Sending domain.
        from: DomainId,
        /// Receiving domain.
        to: DomainId,
        /// Payload word.
        value: u32,
    },
}

/// One `k2 expect` block: exact end-state (or eval-metric) assertions,
/// scoped to a fault preset and optionally to a single seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExpectBlock {
    /// Fault preset the assertions apply under (default `none`).
    pub preset: String,
    /// When set, the assertions apply only to this seed.
    pub seed: Option<u64>,
    /// `(metric, expected value)` rows, exact string equality.
    pub rows: Vec<(String, String)>,
}

/// A `k2 eval` block: which paper-evaluation runner interprets this file,
/// with its raw parameters (validated by the runner, kept opaque here so
/// the parser stays dependency-free).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvalSpec {
    /// Runner kind, e.g. `dvfs-sweep` or `table6-shared-driver`.
    pub kind: String,
    /// Ordered `key: value` parameters.
    pub params: Vec<(String, String)>,
}

impl EvalSpec {
    /// The value of parameter `key`, if present.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// The parsed, structural content of one `.k2.md` file.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioDef {
    /// Scenario name (kebab-case; matches the file stem by convention).
    pub name: String,
    /// Pulse tasks per domain (choice-point guarantee; default 2).
    pub pulse_cores: u32,
    /// Rounds each pulse task runs (default 24).
    pub pulse_rounds: u32,
    /// Table-driven workload grid, in file order.
    pub grid: Vec<GridRow>,
    /// Imperative setup steps, in file order.
    pub steps: Vec<StepDef>,
    /// Named fault presets in file order (excluding the implicit `none`).
    /// Their seed is 0: the run seed is a matrix axis, which
    /// [`ScenarioDef::fault_spec`] injects.
    pub presets: Vec<(String, FaultSpec)>,
    /// Expectation blocks, in file order.
    pub expects: Vec<ExpectBlock>,
    /// Present on paper-evaluation files; absent on workload scenarios.
    pub eval: Option<EvalSpec>,
    /// Present on fleet files; absent on single-machine scenarios. A
    /// fleet file declares *only* a fleet (plus optional expectations);
    /// its seed is the sync-storm default until [`FleetSpec::spec`] sets
    /// the run's.
    pub fleet: Option<FleetSpec>,
}

impl ScenarioDef {
    /// True when this file is a paper-evaluation descriptor rather than
    /// a schedule-explorable workload scenario.
    pub fn is_eval(&self) -> bool {
        self.eval.is_some()
    }

    /// True when this file describes a multi-machine fleet run rather
    /// than a single-machine scenario.
    pub fn is_fleet(&self) -> bool {
        self.fleet.is_some()
    }

    /// Every preset name the file's matrix axis expands over: `none`
    /// first, then the declared presets in file order.
    pub fn preset_names(&self) -> Vec<String> {
        let mut names = vec!["none".to_string()];
        names.extend(self.presets.iter().map(|(name, _)| name.clone()));
        names
    }

    /// The [`FaultSpec`] for `preset` under `seed`, or `None` for an
    /// unknown preset name. The implicit `none` preset is always
    /// available.
    pub fn fault_spec(&self, preset: &str, seed: u64) -> Option<FaultSpec> {
        let spec = match preset {
            "none" => FaultSpec::none(),
            _ => self.presets.iter().find(|(name, _)| name == preset)?.1,
        };
        Some(FaultSpec { seed, ..spec })
    }

    /// The expectation rows that apply to a `(preset, seed)` cell.
    pub fn expectations(&self, preset: &str, seed: u64) -> Vec<(String, String)> {
        let mut rows = Vec::new();
        for block in &self.expects {
            if block.preset == preset && block.seed.is_none_or(|s| s == seed) {
                rows.extend(block.rows.iter().cloned());
            }
        }
        rows
    }

    /// Validates and compiles the definition into a runnable scenario.
    ///
    /// Fails (with line 1 — compile errors are whole-file properties) on
    /// eval files and on files declaring no work at all.
    pub fn compile(&self) -> Result<CompiledScenario, DslError> {
        if self.eval.is_some() {
            return Err(DslError::new(
                1,
                format!(
                    "`{}` is a paper-evaluation file (`k2 eval`); only grid/steps scenarios compile to runs",
                    self.name
                ),
            ));
        }
        if self.fleet.is_some() {
            return Err(DslError::new(
                1,
                format!(
                    "`{}` is a fleet file (`k2 fleet`); it runs through `fleet::run_fleet`, not a single-machine schedule",
                    self.name
                ),
            ));
        }
        if self.grid.is_empty() && self.steps.is_empty() {
            return Err(DslError::new(
                1,
                format!(
                    "`{}` declares no work: add a `k2 grid` or `k2 steps` block",
                    self.name
                ),
            ));
        }
        Ok(CompiledScenario {
            name: self.name.clone(),
            rows: self.grid.clone(),
            steps: self.steps.clone(),
            pulse_cores: self.pulse_cores,
            pulse_rounds: self.pulse_rounds,
        })
    }

    /// Renders the canonical fenced-block form. Prose is not preserved —
    /// this is the *structural* serialization, and
    /// `parse(render(d)) == d` (the property suite pins it).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        writeln!(s, "```k2 scenario").unwrap();
        writeln!(s, "name: {}", self.name).unwrap();
        writeln!(s, "pulse_cores: {}", self.pulse_cores).unwrap();
        writeln!(s, "pulse_rounds: {}", self.pulse_rounds).unwrap();
        writeln!(s, "```").unwrap();
        if let Some(f) = &self.fleet {
            writeln!(s, "\n```k2 fleet").unwrap();
            writeln!(s, "devices: {}", f.devices).unwrap();
            writeln!(s, "hubs: {}", f.hubs).unwrap();
            writeln!(s, "burst: {}", f.burst).unwrap();
            writeln!(s, "bursts: {}", f.bursts).unwrap();
            writeln!(s, "period_us: {}", f.period.as_us()).unwrap();
            writeln!(s, "epoch_us: {}", f.epoch.as_us()).unwrap();
            writeln!(s, "epochs: {}", f.epochs).unwrap();
            writeln!(s, "latency_min_us: {}", f.latency_min.as_us()).unwrap();
            writeln!(s, "latency_max_us: {}", f.latency_max.as_us()).unwrap();
            writeln!(s, "loss: {}", f.loss).unwrap();
            writeln!(s, "reorder: {}", f.reorder).unwrap();
            match f.sink {
                SinkMode::RingBuffer(cap) => writeln!(s, "trace: ring:{cap}").unwrap(),
                mode => writeln!(s, "trace: {}", mode.label()).unwrap(),
            }
            writeln!(s, "```").unwrap();
        }
        if !self.grid.is_empty() {
            writeln!(s, "\n```k2 grid").unwrap();
            writeln!(s, "| domain | task | workload | args | salt | metric |").unwrap();
            writeln!(s, "|---|---|---|---|---|---|").unwrap();
            for r in &self.grid {
                writeln!(
                    s,
                    "| {} | {} | {} | {} | {} | {} |",
                    domain_name(r.domain),
                    r.task,
                    workload_kind(&r.workload),
                    workload_args(&r.workload),
                    r.salt,
                    r.metric
                )
                .unwrap();
            }
            writeln!(s, "```").unwrap();
        }
        if !self.steps.is_empty() {
            writeln!(s, "\n```k2 steps").unwrap();
            writeln!(s, "| op | args |").unwrap();
            writeln!(s, "|---|---|").unwrap();
            for step in &self.steps {
                match step {
                    StepDef::HookLastWins { domain, metric } => writeln!(
                        s,
                        "| hook-last-wins | domain={} metric={} |",
                        domain_name(*domain),
                        metric
                    )
                    .unwrap(),
                    StepDef::SendMail { from, to, value } => writeln!(
                        s,
                        "| send-mail | from={} to={} value=0x{:08x} |",
                        domain_name(*from),
                        domain_name(*to),
                        value
                    )
                    .unwrap(),
                }
            }
            writeln!(s, "```").unwrap();
        }
        for (name, spec) in &self.presets {
            writeln!(s, "\n```k2 faults preset={name}").unwrap();
            for (key, v) in spec.knobs() {
                writeln!(s, "{key}: {v}").unwrap();
            }
            writeln!(s, "```").unwrap();
        }
        if let Some(eval) = &self.eval {
            writeln!(s, "\n```k2 eval kind={}", eval.kind).unwrap();
            for (k, v) in &eval.params {
                writeln!(s, "{k}: {v}").unwrap();
            }
            writeln!(s, "```").unwrap();
        }
        for e in &self.expects {
            write!(s, "\n```k2 expect preset={}", e.preset).unwrap();
            if let Some(seed) = e.seed {
                write!(s, " seed={seed}").unwrap();
            }
            writeln!(s).unwrap();
            writeln!(s, "| metric | value |").unwrap();
            writeln!(s, "|---|---|").unwrap();
            for (m, v) in &e.rows {
                writeln!(s, "| {m} | {v} |").unwrap();
            }
            writeln!(s, "```").unwrap();
        }
        s
    }
}

/// A validated, runnable scenario compiled from a [`ScenarioDef`]: the
/// one way a single-machine scenario runs. Every run shares one skeleton
/// — boot or fork, the file's work, the pulse tasks, drain, oracle
/// capture — so two runs of the same file, spec, chooser and options are
/// byte-identical.
#[derive(Clone, Debug)]
pub struct CompiledScenario {
    name: String,
    rows: Vec<GridRow>,
    steps: Vec<StepDef>,
    pulse_cores: u32,
    pulse_rounds: u32,
}

impl CompiledScenario {
    /// The scenario's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Boots a fresh system and runs the scenario under `spec`, the
    /// given chooser (`None` = the queue's own tie-break) and options,
    /// and snapshots the oracle inputs.
    pub fn run_with(
        &self,
        spec: &FaultSpec,
        chooser: Option<ScheduleChooser>,
        opts: RunOptions,
    ) -> RunOutcome {
        scenario::run_system(None, spec, chooser, opts, |t| self.drive(t))
    }

    /// Like [`CompiledScenario::run_with`], but forks the pre-booted
    /// frozen image `snap` instead of booting (one boot per campaign or
    /// matrix, one fork per run). The image is taken post-boot and
    /// pre-knob ([`Scenario::boot_snapshot`](crate::scenario::Scenario::boot_snapshot)),
    /// so a forked run is byte-identical to a booted one.
    pub fn run_forked(
        &self,
        snap: &SystemSnapshot,
        spec: &FaultSpec,
        chooser: Option<ScheduleChooser>,
        opts: RunOptions,
    ) -> RunOutcome {
        scenario::run_system(Some(snap), spec, chooser, opts, |t| self.drive(t))
    }

    /// The compiled driver: grid spawns in table order, then steps in
    /// file order, then the pulse tasks, then run-to-idle.
    fn drive(&self, t: &mut TestSystem) -> Vec<(String, String)> {
        let grid_handles = t.spawn_grid(&self.rows);
        let mut planted: Vec<(String, DomainId)> = Vec::new();
        for step in &self.steps {
            match step {
                StepDef::HookLastWins { domain, metric } => {
                    t.sys.raw_mail.insert(*domain, 0);
                    planted.push((metric.clone(), *domain));
                }
                StepDef::SendMail { from, to, value } => {
                    t.m.mailbox_send(*from, *to, Mail(*value));
                }
            }
        }
        scenario::spawn_pulses_with(t, self.pulse_cores, self.pulse_rounds);
        t.run_until_idle();
        let mut extras: Vec<(String, String)> = grid_handles
            .into_iter()
            .map(|(metric, r)| {
                let bytes = r.lock().expect("report lock poisoned").bytes;
                (metric, bytes.to_string())
            })
            .collect();
        for (metric, dom) in planted {
            extras.push((metric, format!("{:08x}", t.sys.raw_mail[&dom])));
        }
        extras
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Parses one `.k2.md` source into a [`ScenarioDef`].
///
/// Never panics: every malformed input is rejected with a line-numbered
/// [`DslError`] (the property suite fuzzes this with seeded mutations of
/// the checked-in files).
pub fn parse(src: &str) -> Result<ScenarioDef, DslError> {
    let mut def = ScenarioDef {
        name: String::new(),
        pulse_cores: 2,
        pulse_rounds: 24,
        grid: Vec::new(),
        steps: Vec::new(),
        presets: Vec::new(),
        expects: Vec::new(),
        eval: None,
        fleet: None,
    };
    let mut saw_scenario = false;
    let mut expect_lines: Vec<usize> = Vec::new();

    enum State {
        Prose,
        /// Inside a non-`k2` fence: skip until the closing fence.
        Skip,
        /// Inside a `k2` block: (section, attrs, header line, body).
        Block(String, Vec<(String, String)>, usize, Vec<(usize, String)>),
    }
    let mut state = State::Prose;

    for (i, raw) in src.lines().enumerate() {
        let ln = i + 1;
        let line = raw.trim_end();
        match &mut state {
            State::Prose => {
                let t = line.trim_start();
                if let Some(info) = t.strip_prefix("```") {
                    let info = info.trim();
                    if info == "k2" || info.starts_with("k2 ") {
                        let (section, attrs) = parse_info(info, ln)?;
                        state = State::Block(section, attrs, ln, Vec::new());
                    } else {
                        state = State::Skip;
                    }
                }
            }
            State::Skip => {
                if line.trim() == "```" {
                    state = State::Prose;
                }
            }
            State::Block(section, attrs, header_ln, body) => {
                if line.trim() == "```" {
                    let section = std::mem::take(section);
                    let attrs = std::mem::take(attrs);
                    let body = std::mem::take(body);
                    let header_ln = *header_ln;
                    finish_block(
                        &mut def,
                        &mut saw_scenario,
                        &mut expect_lines,
                        &section,
                        &attrs,
                        header_ln,
                        &body,
                    )?;
                    state = State::Prose;
                } else {
                    body.push((ln, line.to_string()));
                }
            }
        }
    }
    let last = src.lines().count().max(1);
    match state {
        State::Prose => {}
        State::Skip | State::Block(..) => {
            return Err(DslError::new(last, "unterminated fenced block"));
        }
    }
    if !saw_scenario {
        return Err(DslError::new(last, "missing `k2 scenario` block"));
    }
    if def.name.is_empty() {
        return Err(DslError::new(last, "`k2 scenario` must set `name`"));
    }
    // Expectation blocks may only reference declared presets.
    for (block, &ln) in def.expects.iter().zip(&expect_lines) {
        if def.fault_spec(&block.preset, 0).is_none() {
            return Err(DslError::new(
                ln,
                format!(
                    "expect block references unknown fault preset `{}`",
                    block.preset
                ),
            ));
        }
    }
    // Metric keys must be unique across grid and steps, or expectation
    // rows would be ambiguous.
    let mut metrics: Vec<&str> = def.grid.iter().map(|r| r.metric.as_str()).collect();
    metrics.extend(def.steps.iter().filter_map(|s| match s {
        StepDef::HookLastWins { metric, .. } => Some(metric.as_str()),
        StepDef::SendMail { .. } => None,
    }));
    for (i, m) in metrics.iter().enumerate() {
        if metrics[..i].contains(m) {
            return Err(DslError::new(last, format!("duplicate metric key `{m}`")));
        }
    }
    if def.eval.is_some() && (!def.grid.is_empty() || !def.steps.is_empty()) {
        return Err(DslError::new(
            last,
            "a file declares either a grid/steps workload or a `k2 eval`, not both",
        ));
    }
    if def.fleet.is_some() && (!def.grid.is_empty() || !def.steps.is_empty() || def.eval.is_some())
    {
        return Err(DslError::new(
            last,
            "a `k2 fleet` file declares only the fleet; grid/steps/eval are single-machine",
        ));
    }
    if def.fleet.is_some() && !def.presets.is_empty() {
        return Err(DslError::new(
            last,
            "fleet files take no fault presets (the fabric has its own loss/reorder model)",
        ));
    }
    Ok(def)
}

/// Parses a fence info string `k2 <section> [key=value …]`.
fn parse_info(info: &str, ln: usize) -> Result<(String, Vec<(String, String)>), DslError> {
    let mut words = info.split_whitespace();
    let _k2 = words.next();
    let section = words
        .next()
        .ok_or_else(|| DslError::new(ln, "fence info `k2` needs a section, e.g. ```k2 scenario"))?;
    const SECTIONS: [&str; 7] = [
        "scenario", "grid", "steps", "faults", "expect", "eval", "fleet",
    ];
    if !SECTIONS.contains(&section) {
        return Err(DslError::new(
            ln,
            format!("unknown section `{section}` (expected one of {SECTIONS:?})"),
        ));
    }
    let mut attrs = Vec::new();
    for w in words {
        let (k, v) = w
            .split_once('=')
            .ok_or_else(|| DslError::new(ln, format!("block attribute `{w}` must be key=value")))?;
        if k.is_empty() || v.is_empty() {
            return Err(DslError::new(ln, format!("empty attribute in `{w}`")));
        }
        attrs.push((k.to_string(), v.to_string()));
    }
    Ok((section.to_string(), attrs))
}

/// Dispatches one completed block into the definition under construction.
fn finish_block(
    def: &mut ScenarioDef,
    saw_scenario: &mut bool,
    expect_lines: &mut Vec<usize>,
    section: &str,
    attrs: &[(String, String)],
    header_ln: usize,
    body: &[(usize, String)],
) -> Result<(), DslError> {
    let attr = |key: &str| {
        attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    };
    let no_attrs = |allowed: &[&str]| -> Result<(), DslError> {
        for (k, _) in attrs {
            if !allowed.contains(&k.as_str()) {
                return Err(DslError::new(
                    header_ln,
                    format!("section `{section}` does not take attribute `{k}`"),
                ));
            }
        }
        Ok(())
    };
    match section {
        "scenario" => {
            no_attrs(&[])?;
            if *saw_scenario {
                return Err(DslError::new(header_ln, "duplicate `k2 scenario` block"));
            }
            *saw_scenario = true;
            for (ln, key, value) in kv_lines(body)? {
                match key.as_str() {
                    "name" => {
                        if !is_kebab(&value) {
                            return Err(DslError::new(
                                ln,
                                format!("scenario name `{value}` must be kebab-case"),
                            ));
                        }
                        def.name = value;
                    }
                    "pulse_cores" => def.pulse_cores = parse_u32(&value, ln)?,
                    "pulse_rounds" => def.pulse_rounds = parse_u32(&value, ln)?,
                    _ => {
                        return Err(DslError::new(
                            ln,
                            format!("unknown key `{key}` in `k2 scenario`"),
                        ))
                    }
                }
            }
            Ok(())
        }
        "grid" => {
            no_attrs(&[])?;
            let rows = table(
                body,
                &["domain", "task", "workload", "args", "salt", "metric"],
            )?;
            for (ln, cells) in rows {
                let domain = parse_domain(&cells[0], ln)?;
                let task = cells[1].clone();
                let workload = parse_workload(&cells[2], &cells[3], ln)?;
                let salt = parse_u32(&cells[4], ln)?;
                let metric = cells[5].clone();
                if task.is_empty() || metric.is_empty() {
                    return Err(DslError::new(ln, "grid rows need a task name and a metric"));
                }
                def.grid.push(GridRow {
                    domain,
                    task,
                    workload,
                    salt,
                    metric,
                });
            }
            Ok(())
        }
        "steps" => {
            no_attrs(&[])?;
            let rows = table(body, &["op", "args"])?;
            for (ln, cells) in rows {
                let args = kv_args(&cells[1], ln)?;
                let get = |key: &str| -> Result<&str, DslError> {
                    args.iter()
                        .find(|(k, _)| k == key)
                        .map(|(_, v)| v.as_str())
                        .ok_or_else(|| {
                            DslError::new(ln, format!("step `{}` needs `{key}=`", cells[0]))
                        })
                };
                let allow = |allowed: &[&str]| -> Result<(), DslError> {
                    for (k, _) in &args {
                        if !allowed.contains(&k.as_str()) {
                            return Err(DslError::new(
                                ln,
                                format!("step `{}` does not take `{k}=`", cells[0]),
                            ));
                        }
                    }
                    Ok(())
                };
                match cells[0].as_str() {
                    "hook-last-wins" => {
                        allow(&["domain", "metric"])?;
                        def.steps.push(StepDef::HookLastWins {
                            domain: parse_domain(get("domain")?, ln)?,
                            metric: get("metric")?.to_string(),
                        });
                    }
                    "send-mail" => {
                        allow(&["from", "to", "value"])?;
                        def.steps.push(StepDef::SendMail {
                            from: parse_domain(get("from")?, ln)?,
                            to: parse_domain(get("to")?, ln)?,
                            value: parse_u32(get("value")?, ln)?,
                        });
                    }
                    op => return Err(DslError::new(ln, format!("unknown step op `{op}`"))),
                }
            }
            Ok(())
        }
        "faults" => {
            no_attrs(&["preset"])?;
            let name = attr("preset")
                .ok_or_else(|| DslError::new(header_ln, "`k2 faults` needs preset=<name>"))?;
            if name == "none" {
                return Err(DslError::new(
                    header_ln,
                    "preset name `none` is reserved for the implicit empty preset",
                ));
            }
            if !is_kebab(name) {
                return Err(DslError::new(
                    header_ln,
                    format!("preset name `{name}` must be kebab-case"),
                ));
            }
            if def.presets.iter().any(|(n, _)| n == name) {
                return Err(DslError::new(
                    header_ln,
                    format!("duplicate fault preset `{name}`"),
                ));
            }
            let mut spec = FaultSpec::none();
            for (ln, key, value) in kv_lines(body)? {
                let rate = parse_rate(&value, ln)?;
                *spec.knob_mut(&key).ok_or_else(|| {
                    DslError::new(
                        ln,
                        format!(
                            "unknown fault knob `{key}` ({})",
                            FaultSpec::KNOBS.map(|(knob, _)| knob).join(", ")
                        ),
                    )
                })? = rate;
            }
            def.presets.push((name.to_string(), spec));
            Ok(())
        }
        "expect" => {
            no_attrs(&["preset", "seed"])?;
            let preset = attr("preset").unwrap_or("none").to_string();
            let seed = match attr("seed") {
                Some(s) => Some(parse_u64(s, header_ln)?),
                None => None,
            };
            let rows = table(body, &["metric", "value"])?;
            if rows.is_empty() {
                return Err(DslError::new(header_ln, "empty `k2 expect` table"));
            }
            let rows: Vec<(String, String)> = rows
                .into_iter()
                .map(|(_, cells)| (cells[0].clone(), cells[1].clone()))
                .collect();
            expect_lines.push(header_ln);
            def.expects.push(ExpectBlock { preset, seed, rows });
            Ok(())
        }
        "eval" => {
            no_attrs(&["kind"])?;
            let kind = attr("kind")
                .ok_or_else(|| DslError::new(header_ln, "`k2 eval` needs kind=<kind>"))?;
            if !is_kebab(kind) {
                return Err(DslError::new(
                    header_ln,
                    format!("eval kind `{kind}` must be kebab-case"),
                ));
            }
            if def.eval.is_some() {
                return Err(DslError::new(header_ln, "duplicate `k2 eval` block"));
            }
            let params = kv_lines(body)?
                .into_iter()
                .map(|(_, k, v)| (k, v))
                .collect();
            def.eval = Some(EvalSpec {
                kind: kind.to_string(),
                params,
            });
            Ok(())
        }
        "fleet" => {
            no_attrs(&[])?;
            if def.fleet.is_some() {
                return Err(DslError::new(header_ln, "duplicate `k2 fleet` block"));
            }
            let mut f = FleetSpec::sync_storm(0, 0);
            for (ln, key, value) in kv_lines(body)? {
                match key.as_str() {
                    "devices" => f.devices = parse_u32(&value, ln)?,
                    "hubs" => f.hubs = parse_u32(&value, ln)?,
                    "burst" => f.burst = parse_u32(&value, ln)?,
                    "bursts" => f.bursts = parse_u32(&value, ln)?,
                    "period_us" => f.period = parse_us(&value, ln)?,
                    "epoch_us" => f.epoch = parse_us(&value, ln)?,
                    "epochs" => f.epochs = parse_u32(&value, ln)?,
                    "latency_min_us" => f.latency_min = parse_us(&value, ln)?,
                    "latency_max_us" => f.latency_max = parse_us(&value, ln)?,
                    "loss" => f.loss = parse_rate(&value, ln)?,
                    "reorder" => f.reorder = parse_rate(&value, ln)?,
                    "trace" => {
                        f.sink = SinkMode::parse(&value).ok_or_else(|| {
                            DslError::new(
                                ln,
                                format!(
                                    "bad `trace` value `{value}`: want \
                                     disabled | ring | ring:<cap> | full"
                                ),
                            )
                        })?;
                    }
                    _ => {
                        return Err(DslError::new(
                            ln,
                            format!("unknown key `{key}` in `k2 fleet`"),
                        ))
                    }
                }
            }
            f.validate()
                .map_err(|e| DslError::new(header_ln, format!("`k2 fleet`: {e}")))?;
            def.fleet = Some(f);
            Ok(())
        }
        _ => unreachable!("parse_info vetted the section"),
    }
}

/// Splits a block body into `key: value` lines (empty and `#` comment
/// lines skipped).
fn kv_lines(body: &[(usize, String)]) -> Result<Vec<(usize, String, String)>, DslError> {
    let mut out = Vec::new();
    for (ln, line) in body {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let (k, v) = t
            .split_once(':')
            .ok_or_else(|| DslError::new(*ln, format!("expected `key: value`, got `{t}`")))?;
        let (k, v) = (k.trim(), v.trim());
        if k.is_empty() || v.is_empty() {
            return Err(DslError::new(*ln, "empty key or value"));
        }
        out.push((*ln, k.to_string(), v.to_string()));
    }
    Ok(out)
}

/// Parses a markdown table with the exact `header` columns; returns data
/// rows (separator rows skipped) with their line numbers.
fn table(body: &[(usize, String)], header: &[&str]) -> Result<Vec<(usize, Vec<String>)>, DslError> {
    let mut rows = Vec::new();
    let mut saw_header = false;
    for (ln, line) in body {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let cells = split_row(t, *ln)?;
        // A separator row is all dashes/colons.
        if cells
            .iter()
            .all(|c| !c.is_empty() && c.chars().all(|ch| ch == '-' || ch == ':'))
        {
            continue;
        }
        if !saw_header {
            let got: Vec<&str> = cells.iter().map(|c| c.as_str()).collect();
            if got != header {
                return Err(DslError::new(
                    *ln,
                    format!(
                        "table header must be | {} |, got | {} |",
                        header.join(" | "),
                        got.join(" | ")
                    ),
                ));
            }
            saw_header = true;
            continue;
        }
        if cells.len() != header.len() {
            return Err(DslError::new(
                *ln,
                format!("expected {} columns, got {}", header.len(), cells.len()),
            ));
        }
        rows.push((*ln, cells));
    }
    Ok(rows)
}

/// Splits one `| a | b |` row into trimmed cells.
fn split_row(t: &str, ln: usize) -> Result<Vec<String>, DslError> {
    let inner = t
        .strip_prefix('|')
        .and_then(|r| r.strip_suffix('|'))
        .ok_or_else(|| DslError::new(ln, format!("table rows must be |-delimited, got `{t}`")))?;
    Ok(inner.split('|').map(|c| c.trim().to_string()).collect())
}

/// Splits `k=v k=v …` argument cells.
fn kv_args(cell: &str, ln: usize) -> Result<Vec<(String, String)>, DslError> {
    let mut out = Vec::new();
    for w in cell.split_whitespace() {
        let (k, v) = w
            .split_once('=')
            .ok_or_else(|| DslError::new(ln, format!("argument `{w}` must be key=value")))?;
        if k.is_empty() || v.is_empty() {
            return Err(DslError::new(ln, format!("empty key or value in `{w}`")));
        }
        out.push((k.to_string(), v.to_string()));
    }
    Ok(out)
}

fn parse_domain(s: &str, ln: usize) -> Result<DomainId, DslError> {
    match s {
        "strong" => Ok(DomainId::STRONG),
        "weak" => Ok(DomainId::WEAK),
        _ => Err(DslError::new(
            ln,
            format!("unknown domain `{s}` (strong or weak)"),
        )),
    }
}

/// Parses a workload kind + `k=v` args cell into a [`Workload`].
fn parse_workload(kind: &str, args: &str, ln: usize) -> Result<Workload, DslError> {
    let args = kv_args(args, ln)?;
    let take = |key: &str| -> Result<u64, DslError> {
        let v = args
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| DslError::new(ln, format!("workload `{kind}` needs `{key}=`")))?;
        parse_u64(v, ln)
    };
    let allow = |allowed: &[&str]| -> Result<(), DslError> {
        for (k, _) in &args {
            if !allowed.contains(&k.as_str()) {
                return Err(DslError::new(
                    ln,
                    format!("workload `{kind}` does not take `{k}=`"),
                ));
            }
        }
        Ok(())
    };
    match kind {
        "udp" => {
            allow(&["batch", "total"])?;
            Ok(Workload::Udp {
                batch: take("batch")?,
                total: take("total")?,
            })
        }
        "dma" => {
            allow(&["batch", "total"])?;
            Ok(Workload::Dma {
                batch: take("batch")?,
                total: take("total")?,
            })
        }
        "ext2" => {
            allow(&["file_size", "files"])?;
            let files = take("files")?;
            Ok(Workload::Ext2 {
                file_size: take("file_size")?,
                files: u32::try_from(files)
                    .map_err(|_| DslError::new(ln, format!("files={files} out of range")))?,
            })
        }
        "cloud" => {
            allow(&["fetches", "reply", "rtt_ms"])?;
            let fetches = take("fetches")?;
            Ok(Workload::Cloud {
                fetches: u32::try_from(fetches)
                    .map_err(|_| DslError::new(ln, format!("fetches={fetches} out of range")))?,
                reply: take("reply")?,
                rtt_ms: take("rtt_ms")?,
            })
        }
        _ => Err(DslError::new(
            ln,
            format!("unknown workload kind `{kind}` (udp, dma, ext2, cloud)"),
        )),
    }
}

/// Parses a size/number literal exactly as the DSL grammar does
/// (decimal, `0x` hex, or a `K`/`M` binary suffix) — for consumers
/// interpreting raw [`EvalSpec`] parameter strings.
pub fn parse_size(s: &str) -> Option<u64> {
    parse_u64(s, 1).ok()
}

/// Parses an unsigned integer with optional `K`/`M` binary suffix or
/// `0x` hex prefix.
fn parse_u64(s: &str, ln: usize) -> Result<u64, DslError> {
    let bad = || {
        DslError::new(
            ln,
            format!("`{s}` is not a number (decimal, 0x hex, or K/M suffixed)"),
        )
    };
    if let Some(hex) = s.strip_prefix("0x") {
        return u64::from_str_radix(hex, 16).map_err(|_| bad());
    }
    let (digits, mult) = match s.strip_suffix(['K', 'M']) {
        Some(d) if s.ends_with('K') => (d, 1u64 << 10),
        Some(d) => (d, 1u64 << 20),
        None => (s, 1),
    };
    let n: u64 = digits.parse().map_err(|_| bad())?;
    n.checked_mul(mult).ok_or_else(bad)
}

/// Parses a `*_us` microsecond count into a duration, rejecting one the
/// simulator's 64-bit nanosecond clock cannot hold.
fn parse_us(s: &str, ln: usize) -> Result<SimDuration, DslError> {
    parse_u64(s, ln)?
        .checked_mul(1_000)
        .map(SimDuration::from_ns)
        .ok_or_else(|| DslError::new(ln, format!("{s} µs overflows the 64-bit nanosecond clock")))
}

fn parse_u32(s: &str, ln: usize) -> Result<u32, DslError> {
    let n = parse_u64(s, ln)?;
    u32::try_from(n).map_err(|_| DslError::new(ln, format!("`{s}` does not fit in 32 bits")))
}

/// Parses a probability knob, rejecting anything outside `[0, 1]`.
fn parse_rate(s: &str, ln: usize) -> Result<f64, DslError> {
    let v: f64 = s
        .parse()
        .map_err(|_| DslError::new(ln, format!("`{s}` is not a rate")))?;
    if !(0.0..=1.0).contains(&v) {
        return Err(DslError::new(
            ln,
            format!("rate {s} out of range (must be within [0, 1])"),
        ));
    }
    Ok(v)
}

fn is_kebab(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
        && !s.starts_with('-')
        && !s.ends_with('-')
}

fn domain_name(d: DomainId) -> &'static str {
    if d == DomainId::STRONG {
        "strong"
    } else {
        "weak"
    }
}

fn workload_kind(w: &Workload) -> &'static str {
    match w {
        Workload::Udp { .. } => "udp",
        Workload::Dma { .. } => "dma",
        Workload::Ext2 { .. } => "ext2",
        Workload::Cloud { .. } => "cloud",
    }
}

/// Renders workload parameters in canonical `k=v` order with `K`/`M`
/// size suffixes where exact.
fn workload_args(w: &Workload) -> String {
    fn size(n: u64) -> String {
        if n >= 1 << 20 && n.is_multiple_of(1 << 20) {
            format!("{}M", n >> 20)
        } else if n >= 1 << 10 && n.is_multiple_of(1 << 10) {
            format!("{}K", n >> 10)
        } else {
            n.to_string()
        }
    }
    match *w {
        Workload::Udp { batch, total } | Workload::Dma { batch, total } => {
            format!("batch={} total={}", size(batch), size(total))
        }
        Workload::Ext2 { file_size, files } => {
            format!("file_size={} files={}", size(file_size), files)
        }
        Workload::Cloud {
            fetches,
            reply,
            rtt_ms,
        } => format!(
            "fetches={} reply={} rtt_ms={}",
            fetches,
            size(reply),
            rtt_ms
        ),
    }
}

/// The checked-in scenario corpus, embedded so every consumer — bins,
/// tests, CI — reads the same bytes regardless of working directory.
pub mod builtin {
    use super::{parse, ScenarioDef};

    /// `(name, source)` for every checked-in `scenarios/*.k2.md` file.
    pub const SOURCES: &[(&str, &str)] = &[
        (
            "udp-cross-traffic",
            include_str!("../../../scenarios/udp-cross-traffic.k2.md"),
        ),
        (
            "ext2-churn",
            include_str!("../../../scenarios/ext2-churn.k2.md"),
        ),
        (
            "dma-fanout",
            include_str!("../../../scenarios/dma-fanout.k2.md"),
        ),
        (
            "mail-race",
            include_str!("../../../scenarios/mail-race.k2.md"),
        ),
        (
            "dvfs-sweep",
            include_str!("../../../scenarios/dvfs-sweep.k2.md"),
        ),
        (
            "standby-estimate",
            include_str!("../../../scenarios/standby-estimate.k2.md"),
        ),
        (
            "fig1-trend",
            include_str!("../../../scenarios/fig1-trend.k2.md"),
        ),
        (
            "table2-refactoring",
            include_str!("../../../scenarios/table2-refactoring.k2.md"),
        ),
        (
            "table4-alloc",
            include_str!("../../../scenarios/table4-alloc.k2.md"),
        ),
        (
            "table5-dsm",
            include_str!("../../../scenarios/table5-dsm.k2.md"),
        ),
        (
            "table6-shared-driver",
            include_str!("../../../scenarios/table6-shared-driver.k2.md"),
        ),
        (
            "sync-storm",
            include_str!("../../../scenarios/sync-storm.k2.md"),
        ),
    ];

    /// The names of the schedule-explorable workload scenarios, in
    /// [`Scenario::ALL`](crate::scenario::Scenario::ALL) order.
    pub const GRID: &[&str] = &["udp-cross-traffic", "ext2-churn", "dma-fanout", "mail-race"];

    /// The raw source of the named builtin, if it exists.
    pub fn source(name: &str) -> Option<&'static str> {
        SOURCES
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, src)| *src)
    }

    /// Parses the named builtin.
    ///
    /// # Panics
    ///
    /// Panics on an unknown name or a parse failure — the builtins are
    /// checked in and covered by the property suite, so either is a bug.
    pub fn load(name: &str) -> ScenarioDef {
        let src = source(name).unwrap_or_else(|| panic!("unknown builtin scenario `{name}`"));
        match parse(src) {
            Ok(def) => {
                assert_eq!(def.name, name, "scenario name must match its file stem");
                def
            }
            Err(e) => panic!("builtin scenario `{name}` failed to parse: {e}"),
        }
    }

    /// Every builtin, parsed, in registry order.
    pub fn all() -> Vec<ScenarioDef> {
        SOURCES.iter().map(|(n, _)| load(n)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_suffixes_round_trip() {
        assert_eq!(parse_u64("8K", 1).unwrap(), 8 << 10);
        assert_eq!(parse_u64("3M", 1).unwrap(), 3 << 20);
        assert_eq!(parse_u64("0xB0B00001", 1).unwrap(), 0xB0B0_0001);
        assert_eq!(parse_u64("1777", 1).unwrap(), 1777);
        assert!(parse_u64("8k", 1).is_err());
        assert!(parse_u64("", 1).is_err());
    }

    #[test]
    fn minimal_scenario_parses() {
        let src = "\
# A doc\n\nprose here\n\n```k2 scenario\nname: tiny\n```\n\n```k2 grid\n| domain | task | workload | args | salt | metric |\n|---|---|---|---|---|---|\n| weak | w | udp | batch=8K total=16K | 0 | w.bytes |\n```\n";
        let def = parse(src).unwrap();
        assert_eq!(def.name, "tiny");
        assert_eq!(def.pulse_cores, 2);
        assert_eq!(def.grid.len(), 1);
        assert_eq!(
            def.grid[0].workload,
            Workload::Udp {
                batch: 8 << 10,
                total: 16 << 10
            }
        );
        assert_eq!(parse(&def.render()).unwrap(), def);
    }

    #[test]
    fn line_numbers_point_at_the_offence() {
        let src = "```k2 scenario\nname: tiny\npulse_roundz: 3\n```\n";
        let err = parse(src).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.msg.contains("pulse_roundz"), "{}", err.msg);
    }

    #[test]
    fn out_of_range_rate_is_rejected() {
        let src = "```k2 scenario\nname: t\n```\n```k2 faults preset=hot\nmail_drop: 1.5\n```\n";
        let err = parse(src).unwrap_err();
        assert_eq!(err.line, 5);
        assert!(err.msg.contains("out of range"), "{}", err.msg);
    }

    #[test]
    fn fleet_trace_key_selects_the_span_sink() {
        let src = |trace: &str| {
            format!("```k2 scenario\nname: t\n```\n```k2 fleet\ndevices: 4\nhubs: 1\n{trace}```\n")
        };
        // Unset defaults to disabled: fleet runs trace nothing.
        let def = parse(&src("")).unwrap();
        assert_eq!(def.fleet.as_ref().unwrap().sink, SinkMode::Disabled);
        assert_eq!(def.fleet.as_ref().unwrap().spec(1).sink, SinkMode::Disabled);
        for (line, want) in [
            ("trace: full\n", SinkMode::Full),
            ("trace: ring\n", SinkMode::RingBuffer(1024)),
            ("trace: ring:256\n", SinkMode::RingBuffer(256)),
            ("trace: disabled\n", SinkMode::Disabled),
        ] {
            let def = parse(&src(line)).unwrap();
            let f = def.fleet.as_ref().unwrap();
            assert_eq!(f.sink, want, "{line}");
            assert_eq!(f.spec(1).sink, want, "{line}");
            // The canonical render keeps the sink through a round trip.
            assert_eq!(parse(&def.render()).unwrap(), def, "{line}");
        }
        let err = parse(&src("trace: sometimes\n")).unwrap_err();
        assert_eq!(err.line, 7);
        assert!(err.msg.contains("sometimes"), "{}", err.msg);
    }
}
