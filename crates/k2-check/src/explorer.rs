//! Schedule search: many runs, many schedules, one report.
//!
//! A [`Campaign`] spends a run budget on one scenario under one
//! [`Strategy`]. It runs the scenario once under the baseline schedule
//! to establish the reference outcome, then runs the budget: seeded
//! random walks ([`Strategy::Random`]), PCT priority runs
//! ([`Strategy::Pct`]), or the coverage-guided loop
//! ([`Strategy::CoverageGuided`]) that arbitrates between walks, a
//! bounded-deviation frontier and corpus mutants. Every run records its
//! decision trace and is checked against the always-on oracles
//! (conservation, invariant audit); fault-free runs are additionally
//! compared against the baseline end state. The [`CampaignReport`]
//! answers both "does any schedule break an oracle" (its failures, in
//! run order) and "how much of the schedule space did the search cover"
//! (distinct fingerprints, schedules and end states).
//!
//! The scenario is compiled from its `.k2.md` file once per campaign,
//! and the system boots once: the coordinator freezes the post-boot
//! image as a [`SystemSnapshot`] and every run, baseline included, forks
//! it. A fork is byte-indistinguishable from a fresh boot (the
//! differential snapshot suite pins this).
//!
//! # Parallelism
//!
//! Every run is a complete, self-contained simulation that owns all of
//! its state, and what it does is a pure function of the campaign's
//! inputs, its run index and the results merged before its planning
//! generation began. Workers claim indices from an atomic counter, park
//! results in per-index slots, and the coordinator merges them strictly
//! in index order (`fan_out`), so the report — including which failure
//! is first — is byte-identical for any worker count, including one;
//! `tests/parallel.rs` pins this down.

use crate::corpus::Corpus;
use crate::dsl::CompiledScenario;
use crate::fingerprint::schedule_fingerprint;
use crate::mutate::{Mutation, Mutator};
use crate::oracle::EndState;
use crate::policy::{chooser_of, Baseline, Pct, RandomWalk, Recorder, Replay, SchedulePolicy};
use crate::scenario::{FaultSpec, RunOptions, RunOutcome, Scenario};
use crate::schedule::Schedule;
use k2::system::SystemSnapshot;
use k2_sim::json::JsonWriter;
use k2_sim::rng::SimRng;
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// What kind of oracle a failing schedule violated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// A counter-conservation law did not balance.
    Conservation,
    /// The machine's invariant auditor flagged a violation mid-run.
    Invariant,
    /// A fault-free run's logical end state diverged from the baseline
    /// schedule's.
    EndStateDivergence,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FailureKind::Conservation => "conservation violation",
            FailureKind::Invariant => "invariant violation",
            FailureKind::EndStateDivergence => "end-state divergence",
        })
    }
}

/// One schedule that violated an oracle.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The recorded decision trace that reproduces the violation.
    pub schedule: Schedule,
    /// Which oracle failed.
    pub kind: FailureKind,
    /// What the oracle saw.
    pub detail: String,
    /// Which policy found it.
    pub policy: &'static str,
}

/// Boots and runs `scenario` under `policy` with the full report,
/// recording the decision trace.
pub fn run_recorded(
    scenario: Scenario,
    spec: &FaultSpec,
    policy: Box<dyn SchedulePolicy>,
) -> (Schedule, RunOutcome) {
    let recorder = Recorder::new();
    let chooser = recorder.chooser(policy);
    let outcome = scenario
        .compile()
        .run_with(spec, Some(chooser), RunOptions::full());
    (recorder.schedule(), outcome)
}

/// Re-runs `scenario` replaying `schedule` and reports which oracle (if
/// any) the replay violates. The end-state comparison is made against a
/// fresh baseline run under the *same* spec, so the check stays valid as
/// the shrinker rewrites the spec.
///
/// Note the caveat a campaign respects but this replay check cannot:
/// under an active fault plan the fault dice are consumed in schedule
/// order, so end-state divergence between two schedules of a *faulted*
/// run may be legitimate. The shrinker compensates by preferring specs
/// with fewer active knobs.
pub fn check_failure(
    scenario: Scenario,
    spec: &FaultSpec,
    schedule: &Schedule,
) -> Option<(FailureKind, String)> {
    let compiled = scenario.compile();
    let run = |policy: Box<dyn SchedulePolicy>| {
        compiled.run_with(spec, Some(chooser_of(policy)), RunOptions::full())
    };
    let baseline = run(Box::new(Baseline));
    let out = run(Box::new(Replay::new(schedule)));
    classify(&out, Some(&baseline.end_state))
}

/// Applies the oracles to one outcome. `reference` enables the
/// differential end-state check.
fn classify(out: &RunOutcome, reference: Option<&EndState>) -> Option<(FailureKind, String)> {
    if let Err(e) = &out.conservation {
        return Some((FailureKind::Conservation, e.clone()));
    }
    if let Err(e) = &out.audit {
        return Some((FailureKind::Invariant, e.clone()));
    }
    // Equal end states need no diff: build one only to explain a mismatch.
    if let Some(baseline) = reference.filter(|b| **b != out.end_state) {
        let diff = baseline.diff(&out.end_state);
        if !diff.is_empty() {
            return Some((FailureKind::EndStateDivergence, diff.join("; ")));
        }
    }
    None
}

/// The parallel fan-out discipline, shared by [`Campaign`] and the
/// conformance matrix: workers claim indices `0..count` from an atomic
/// counter, run the (index-pure) job, and park results in per-index
/// slots; the returned vector is strictly index-ordered. The result is
/// therefore independent of the worker count, including 1 (which runs
/// inline without spawning).
pub(crate) fn fan_out<T: Send>(
    count: u32,
    workers: usize,
    job: impl Fn(u32) -> T + Sync,
) -> Vec<T> {
    if workers <= 1 || count <= 1 {
        return (0..count).map(job).collect();
    }
    let next = AtomicU32::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..count).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers.min(count as usize) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let out = job(i);
                slots.lock().expect("no worker panics holding slots")[i as usize] = Some(out);
            });
        }
    });
    slots
        .into_inner()
        .expect("workers joined")
        .into_iter()
        .map(|slot| slot.expect("every index was claimed and completed"))
        .collect()
}

/// Resolves a configured thread count: `0` means `K2CHECK_THREADS` if
/// set and nonzero, otherwise the host's available parallelism; the
/// result is capped at `cap` (no point parking idle workers).
pub(crate) fn resolve_workers(configured: usize, cap: u32) -> usize {
    let n = if configured != 0 {
        configured
    } else {
        std::env::var("K2CHECK_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    };
    n.min(cap.max(1) as usize)
}

/// How a [`Campaign`] chooses its schedules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// A fresh seeded [`RandomWalk`] per run — the blind baseline.
    Random,
    /// The [`Pct`] priority policy per run — the principled baseline.
    Pct,
    /// Corpus-and-mutate: fingerprint-novel traces are admitted to a
    /// [`Corpus`]; most runs replay a mutated corpus trace, the rest
    /// (and every run while the corpus is empty) fall back to fresh
    /// random walks *on the same RNG streams [`Strategy::Random`] uses*,
    /// so a coverage-guided campaign and a random campaign are identical
    /// run for run until feedback kicks in.
    CoverageGuided,
}

impl Strategy {
    /// Every strategy, in comparison order.
    pub const ALL: [Strategy; 3] = [Strategy::Random, Strategy::Pct, Strategy::CoverageGuided];

    /// Stable kebab-case name for reports and tables.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Random => "random",
            Strategy::Pct => "pct",
            Strategy::CoverageGuided => "coverage-guided",
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Change points the campaign's [`Pct`] runs use. d = 3 is the classic
/// sweet spot: most ordering bugs need few inversions.
const PCT_CHANGE_POINTS: u32 = 3;

/// Runs per planning generation. Plans for a generation are derived —
/// on the coordinating thread — from the corpus as it stood when the
/// generation started, then the runs fan out; feedback is therefore
/// batched, which is what keeps a feedback-driven search worker-count
/// invariant.
const GENERATION: u32 = 16;

/// Per-generation slot floor for each [`Arm`] in a coverage-guided
/// campaign. Slots split in proportion to squared novelty yield (see
/// [`Campaign::run`]); the floor keeps every arm's yield estimate alive
/// so a currently-losing arm can win the budget back when the leader
/// saturates.
const MIN_KIND_SLOTS: u32 = 2;

/// The three plan generators a coverage-guided campaign arbitrates
/// between. Which one deserves the budget is scenario-dependent — wide
/// flat spaces reward independent uniform sampling, spaces with rare
/// low-deviation site sets reward the systematic frontier, spaces whose
/// coverage hides behind specific prefixes reward mutation — so the
/// campaign treats them as bandit arms scored by decayed novelty yield
/// instead of fixing a mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Arm {
    /// Seeded uniform random walk (the random baseline's generator).
    Walk = 0,
    /// [`Frontier`]: systematic low-deviation enumeration.
    Frontier = 1,
    /// Corpus parent + stacked [`Mutator`] surgery.
    Mutant = 2,
}

/// Deterministic enumerator of the *near-baseline frontier*: every
/// schedule that deviates from the baseline ordering at exactly one
/// choice point, then every unordered pair of such deviations.
///
/// A uniform walk deviates at essentially every one of a run's few
/// hundred choice points, so its site sets are dense — the sparse sets
/// `{baseline sites} ∪ {one deviation}` have probability ≈ 0 under any
/// walk, making them a coverage subspace random sampling never reaches
/// no matter the budget. Enumerating that subspace directly is the
/// delay-bounded insight applied to coverage: each frontier schedule is
/// new *by construction* (no two singles or unordered doubles replay the
/// same trace), and each either mints a new site `(class, arity, d)` or
/// a new cascade (a deviation reorders downstream co-enabled sets and
/// the span graph with them).
///
/// Positions are visited with a stride co-prime to the trace length, so
/// the first few slots already spread across the whole run instead of
/// probing one homogeneous region; consumption order is part of the
/// coordinator's plan, keeping campaigns worker-count invariant.
struct Frontier {
    /// `(position, non-baseline decision)` singles, in stride order.
    singles: Vec<(usize, u32)>,
    /// Flat enumeration cursor over singles, then unordered pairs.
    next: usize,
}

impl Frontier {
    /// Builds the enumerator from the baseline run's per-choice-point
    /// arities (in trace order).
    fn new(arities: &[u32]) -> Self {
        let n = arities.len();
        let mut singles = Vec::new();
        if n > 0 {
            // Golden-ratio stride, bumped to the next value co-prime
            // with `n` so the walk hits every position exactly once.
            let mut stride = (n * 618 / 1000).max(1);
            while gcd(stride, n) != 1 {
                stride += 1;
            }
            let mut p = 0usize;
            for _ in 0..n {
                for d in 1..arities[p] {
                    singles.push((p, d));
                }
                p = (p + stride) % n;
            }
        }
        Frontier { singles, next: 0 }
    }

    /// The next unvisited frontier schedule, or `None` once singles and
    /// all unordered pairs are exhausted.
    fn next_schedule(&mut self) -> Option<Schedule> {
        let l = self.singles.len();
        loop {
            let idx = self.next;
            self.next += 1;
            if idx < l {
                let (p, d) = self.singles[idx];
                return Some(deviations(&[(p, d)]));
            }
            // Doubles: flat index `m` maps to `(i, j)` with
            // `j = (i + 1 + m / l) % l`; keeping only `j > i` yields
            // each unordered pair exactly once (the pair `(i, j)` with
            // `j > i` appears at exactly `m = (j - i - 1) * l + i`).
            let m = idx - l;
            if l < 2 || m / l >= l {
                return None;
            }
            let i = m % l;
            let j = (i + 1 + m / l) % l;
            if j <= i {
                continue;
            }
            let (pi, di) = self.singles[i];
            let (pj, dj) = self.singles[j];
            if pi == pj {
                continue;
            }
            return Some(deviations(&[(pi, di), (pj, dj)]));
        }
    }
}

/// The schedule that replays the baseline except for the given
/// `(position, decision)` deviations.
fn deviations(devs: &[(usize, u32)]) -> Schedule {
    let len = devs.iter().map(|&(p, _)| p + 1).max().unwrap_or(0);
    let mut decisions = vec![0u32; len];
    for &(p, d) in devs {
        decisions[p] = d;
    }
    Schedule::from_decisions(decisions)
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// What one campaign run was planned to do. Derived deterministically
/// from `(strategy, seed, index, corpus-at-generation-start)`; workers
/// only execute plans, they never consult shared search state.
enum RunPlan {
    Walk { stream: u64 },
    Frontier { schedule: Schedule },
    Pct { stream: u64 },
    Mutant { schedule: Schedule, op: Mutation },
}

/// Everything one campaign run contributes to the merge.
struct CampaignRun {
    schedule: Schedule,
    fingerprint: u64,
    end_state_fp: u64,
    choice_points: u64,
    policy: &'static str,
    failure: Option<(FailureKind, String)>,
}

/// Executes one planned campaign run as a fork of the coordinator's
/// frozen boot image. Pure in its arguments.
fn campaign_run(
    scenario: &CompiledScenario,
    spec: &FaultSpec,
    seed: u64,
    plan: &RunPlan,
    reference: Option<&EndState>,
    snap: &SystemSnapshot,
) -> CampaignRun {
    let (policy, label): (Box<dyn SchedulePolicy>, &'static str) = match plan {
        RunPlan::Walk { stream } => (Box::new(RandomWalk::new(seed, *stream)), "random-walk"),
        RunPlan::Frontier { schedule } => (Box::new(Replay::new(schedule)), "frontier"),
        RunPlan::Pct { stream } => (Box::new(Pct::new(seed, *stream, PCT_CHANGE_POINTS)), "pct"),
        RunPlan::Mutant { schedule, op } => (Box::new(Replay::new(schedule)), op.name()),
    };
    let recorder = Recorder::new();
    let chooser = recorder.chooser(policy);
    let outcome = scenario.run_forked(snap, spec, Some(chooser), RunOptions::coverage());
    let recorded = recorder.schedule();
    let fingerprint = schedule_fingerprint(
        &recorder.class_trace(),
        recorded.decisions(),
        outcome.span_shape,
    );
    let schedule = recorded.trimmed();
    CampaignRun {
        schedule,
        fingerprint,
        end_state_fp: outcome.end_state.fingerprint(),
        choice_points: outcome.choice_points,
        policy: label,
        failure: classify(&outcome, reference),
    }
}

/// Aggregate result of one [`Campaign`]. Every field except `threads`
/// is independent of the worker count; [`CampaignReport::render_json`]
/// deliberately omits `threads` so the rendered report is byte-identical
/// across worker counts.
pub struct CampaignReport {
    /// The scenario explored.
    pub scenario: Scenario,
    /// The search strategy that drove it.
    pub strategy: Strategy,
    /// The exploration seed.
    pub seed: u64,
    /// Total runs, including the baseline.
    pub runs: u32,
    /// Distinct schedule fingerprints observed — the coverage metric.
    pub distinct_fingerprints: usize,
    /// Distinct trimmed decision traces observed.
    pub distinct_schedules: usize,
    /// Distinct logical end states observed.
    pub distinct_end_states: usize,
    /// Choice points hit across all runs.
    pub total_choice_points: u64,
    /// Traces resident in the corpus when the campaign ended.
    pub corpus_len: usize,
    /// [`Corpus::digest`] at campaign end — the worker-count-invariance
    /// witness.
    pub corpus_digest: u64,
    /// Every oracle violation, in run order (run 0 is the baseline).
    pub failures: Vec<Failure>,
    /// The run index of the first failure, if any.
    pub first_failure_run: Option<u32>,
    /// Worker threads actually used (1 = serial). Changing this never
    /// changes any other field.
    pub threads: usize,
}

impl CampaignReport {
    /// The first failure, if the campaign found any.
    pub fn first_failure(&self) -> Option<&Failure> {
        self.failures.first()
    }

    /// Streams the report as JSON through `w` — any `fmt::Write` target,
    /// so campaign reports go straight to files via
    /// [`IoAdapter`](k2_sim::json::IoAdapter). `threads` is omitted:
    /// every emitted byte is worker-count invariant.
    pub fn write_json<W: std::fmt::Write + ?Sized>(&self, w: &mut JsonWriter<'_, W>) {
        w.begin_object();
        w.key("scenario");
        w.str(self.scenario.name());
        w.key("strategy");
        w.str(self.strategy.name());
        w.key("seed");
        w.u64(self.seed);
        w.key("runs");
        w.u64(u64::from(self.runs));
        w.key("distinct_fingerprints");
        w.u64(self.distinct_fingerprints as u64);
        w.key("distinct_schedules");
        w.u64(self.distinct_schedules as u64);
        w.key("distinct_end_states");
        w.u64(self.distinct_end_states as u64);
        w.key("total_choice_points");
        w.u64(self.total_choice_points);
        w.key("corpus_len");
        w.u64(self.corpus_len as u64);
        w.key("corpus_digest");
        w.str(&format!("{:016x}", self.corpus_digest));
        w.key("first_failure_run");
        match self.first_failure_run {
            Some(i) => w.u64(u64::from(i)),
            None => w.null(),
        }
        w.key("failures");
        w.begin_array();
        for f in &self.failures {
            w.begin_object();
            w.key("kind");
            w.str(&f.kind.to_string());
            w.key("policy");
            w.str(f.policy);
            w.key("token");
            w.str(&f.schedule.token());
            w.key("detail");
            w.str(&f.detail);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }

    /// The report as a compact JSON string.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        let mut w = JsonWriter::compact(&mut out);
        self.write_json(&mut w);
        w.finish();
        out
    }
}

/// A budgeted search campaign over one scenario under one [`Strategy`].
///
/// A campaign answers "does any schedule break an oracle" and measures
/// *how much of the schedule space* a strategy covers per run of budget
/// — the metric the coverage-guided loop is built to move. Runs execute
/// in fixed-size planning generations: the coordinator derives every
/// plan in a generation from the corpus frozen at its start (mutation
/// happens here, not on workers), fans the runs out under the shared
/// index-claiming discipline, and merges results in strict index order.
/// Reports are byte-identical for any `K2CHECK_THREADS`.
pub struct Campaign {
    scenario: Scenario,
    strategy: Strategy,
    spec: FaultSpec,
    seed: u64,
    budget: u32,
    threads: usize,
    corpus_capacity: usize,
}

impl Campaign {
    /// A campaign with the fault-free spec, a default budget of 200
    /// runs, the default corpus capacity, and automatic threads.
    pub fn new(scenario: Scenario, strategy: Strategy, seed: u64) -> Self {
        Campaign {
            scenario,
            strategy,
            spec: FaultSpec::none(),
            seed,
            budget: 200,
            threads: 0,
            corpus_capacity: crate::corpus::DEFAULT_CAPACITY,
        }
    }

    /// Sets the fault envelope. With active faults the end-state oracle
    /// is disabled (fault dice are consumed in schedule order, so benign
    /// divergence is expected); conservation and the invariant audit
    /// still apply to every run.
    pub fn spec(mut self, spec: FaultSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Sets how many perturbed runs to spend.
    pub fn budget(mut self, runs: u32) -> Self {
        self.budget = runs;
        self
    }

    /// Sets the worker-thread count. `0` (the default) means automatic:
    /// the `K2CHECK_THREADS` environment variable if set and nonzero,
    /// otherwise the host's available parallelism. The report is
    /// byte-identical for every thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the corpus capacity (coverage-guided only).
    pub fn corpus_capacity(mut self, capacity: usize) -> Self {
        self.corpus_capacity = capacity;
        self
    }

    /// Plans run `index` from the corpus as it stands. Pure in
    /// `(strategy, seed, index, corpus, arm, taboo)`; `arm` is the
    /// coordinator's bandit call for this slot and only matters to the
    /// coverage-guided strategy.
    fn plan_run(
        &self,
        index: u32,
        corpus: &Corpus,
        arm: Arm,
        frontier: &mut Frontier,
        taboo: &HashSet<Schedule>,
    ) -> RunPlan {
        let stream = 1_000 + u64::from(index);
        match self.strategy {
            Strategy::Random => RunPlan::Walk { stream },
            Strategy::Pct => RunPlan::Pct { stream },
            Strategy::CoverageGuided => {
                if corpus.is_empty() {
                    // Generation 1: plain walks on the same streams the
                    // random baseline uses, so a coverage-guided
                    // campaign *starts as* the random baseline and only
                    // then diverges on feedback.
                    return RunPlan::Walk { stream };
                }
                match arm {
                    // Uniform-walk slots stay on the baseline's
                    // 1000-block streams: the slot at index `i` runs
                    // exactly the walk the random strategy would run
                    // at index `i`.
                    Arm::Walk => return RunPlan::Walk { stream },
                    // Frontier slots consume the systematic
                    // low-deviation enumeration; once it is exhausted
                    // they degrade to the walk the random baseline
                    // would have run at this index.
                    Arm::Frontier => {
                        return match frontier.next_schedule() {
                            Some(schedule) => RunPlan::Frontier { schedule },
                            None => RunPlan::Walk { stream },
                        }
                    }
                    Arm::Mutant => {}
                }
                // Parent/donor selection and mutation draw from two
                // decorrelated streams of the same seed, so the plan is
                // a pure function of (seed, index, corpus). Mutations
                // stack (1–4 per mutant, havoc-style): single-step
                // children sit too close to their parents to mint new
                // coverage in high-entropy schedule spaces.
                let mut pick = SimRng::seed_from_stream(self.seed, 4_000 + u64::from(index));
                let parent = corpus
                    .get(pick.gen_range(corpus.len() as u64) as usize)
                    .expect("non-empty corpus")
                    .clone();
                let donor = corpus
                    .get(pick.gen_range(corpus.len() as u64) as usize)
                    .cloned();
                let stack = 1 + pick.gen_range(4) as usize;
                let mut mutator = Mutator::new(self.seed, 5_000 + u64::from(index));
                let (mut op, mut schedule) = mutator.mutate(&parent, donor.as_ref());
                for _ in 1..stack {
                    let (next_op, next) = mutator.mutate(&schedule, donor.as_ref());
                    op = next_op;
                    schedule = next;
                }
                // Keep mutating past planned-duplicate traces (bounded,
                // so a saturated neighborhood cannot loop forever).
                let mut redraws = 0;
                while taboo.contains(&schedule) && redraws < 16 {
                    let (next_op, next) = mutator.mutate(&schedule, donor.as_ref());
                    op = next_op;
                    schedule = next;
                    redraws += 1;
                }
                RunPlan::Mutant { schedule, op }
            }
        }
    }

    /// Runs the campaign: compile the scenario and freeze the boot image
    /// once, run the baseline first (the differential reference,
    /// fingerprint-counted but never admitted to the corpus), then the
    /// budget in planning generations.
    pub fn run(&self) -> CampaignReport {
        let scenario = self.scenario.compile();
        let snap = Scenario::boot_snapshot();
        let recorder = Recorder::new();
        let chooser = recorder.chooser(Box::new(Baseline));
        let baseline =
            scenario.run_forked(&snap, &self.spec, Some(chooser), RunOptions::coverage());
        let baseline_fp = schedule_fingerprint(
            &recorder.class_trace(),
            recorder.schedule().decisions(),
            baseline.span_shape,
        );

        let mut corpus = Corpus::new(self.corpus_capacity);
        corpus.mark_seen(baseline_fp);
        let arities: Vec<u32> = recorder.class_trace().iter().map(|&(_, a)| a).collect();
        let mut frontier = Frontier::new(&arities);
        let mut distinct_schedules: HashSet<Schedule> = HashSet::new();
        distinct_schedules.insert(recorder.schedule().trimmed());
        let mut distinct_end_states: HashSet<u64> = HashSet::new();
        distinct_end_states.insert(baseline.end_state.fingerprint());
        let mut total_choice_points = baseline.choice_points;
        let mut failures = Vec::new();
        let mut first_failure_run = None;
        if let Some((kind, detail)) = classify(&baseline, None) {
            first_failure_run = Some(0);
            failures.push(Failure {
                schedule: Schedule::baseline(),
                kind,
                detail,
                policy: "baseline",
            });
        }
        let differential = self.spec.is_nop();
        let reference = differential.then_some(&baseline.end_state);
        let workers = resolve_workers(self.threads, GENERATION.min(self.budget));

        // Decayed novelty yield per [`Arm`], with add-one smoothing.
        // The tallies are updated in the strict-index-order merge, so
        // the bandit below is a pure function of the runs already
        // merged — adaptation costs nothing in worker-count invariance.
        let mut arm_runs = [0u64; 3];
        let mut arm_novel = [0u64; 3];

        let mut index = 0u32;
        while index < self.budget {
            let count = GENERATION.min(self.budget - index);
            // Age the yield estimates before each generation so they
            // track *current* rates: novelty gets rarer as coverage
            // saturates, and without decay an idle arm's stale
            // historical average beats the active arm's honestly
            // decayed one. Decay also pulls an idle arm back toward the
            // optimistic smoothing prior, so a losing arm is
            // periodically re-probed and can win the budget back.
            for tally in arm_runs.iter_mut().chain(arm_novel.iter_mut()) {
                *tally -= *tally / 8;
            }
            // Split the generation across the arms in proportion to
            // the *square* of their smoothed novelty rates
            // (novel+1)/(runs+2), floored at MIN_KIND_SLOTS so every
            // estimate stays alive. Squaring sits between probability
            // matching and winner-take-all: a dominant arm takes a
            // supermajority (matching would leave it runs it clearly
            // deserves), while near-tied arms still share — which
            // matters because near-tied arms often mint coverage in
            // *disjoint* subspaces (uniform walks and the frontier
            // reach different set families), so starving the runner-up
            // forfeits its coverage outright. In dry spells the decay
            // makes whichever arm just ran look worst, so the split
            // rotates instead of locking onto stale luck. Weights are
            // integer fixed-point; slots round by largest remainder
            // with a fixed tie order, keeping the plan deterministic.
            let weights: [u128; 3] = std::array::from_fn(|i| {
                let rate = (u128::from(arm_novel[i] + 1) << 20) / u128::from(arm_runs[i] + 2);
                rate * rate
            });
            let total_weight: u128 = weights.iter().sum();
            let mut slots = [0u32; 3];
            let mut remainders: Vec<(u128, usize)> = Vec::new();
            for i in 0..3 {
                let exact = u128::from(count) * weights[i];
                slots[i] = (exact / total_weight) as u32;
                remainders.push((exact % total_weight, i));
            }
            // Largest remainder first; ties resolve toward the
            // feedback-driven arms (higher index = Mutant).
            remainders.sort_by(|a, b| b.cmp(a));
            let mut assigned: u32 = slots.iter().sum();
            let mut next_arm = remainders.iter().cycle();
            while assigned < count {
                let &(_, i) = next_arm.next().expect("remainders is non-empty");
                slots[i] += 1;
                assigned += 1;
            }
            // Floor every arm so its estimate keeps refreshing.
            let lo = MIN_KIND_SLOTS.min(count / 3);
            for i in 0..3 {
                while slots[i] < lo {
                    let big = (0..3).max_by_key(|&j| slots[j]).expect("three arms");
                    slots[big] -= 1;
                    slots[i] += 1;
                }
            }
            let mut kinds = Vec::with_capacity(count as usize);
            for (i, arm) in [Arm::Walk, Arm::Frontier, Arm::Mutant]
                .into_iter()
                .enumerate()
            {
                kinds.extend(std::iter::repeat_n(arm, slots[i] as usize));
            }
            // Mutants the coordinator already knows to be re-runs —
            // byte-equal to an executed trace or to an earlier plan in
            // this generation — are re-drawn at planning time; a
            // duplicate replays an identical run and can never mint
            // coverage.
            let mut taboo = distinct_schedules.clone();
            let plans: Vec<RunPlan> = (0..count)
                .map(|o| {
                    let plan =
                        self.plan_run(index + o, &corpus, kinds[o as usize], &mut frontier, &taboo);
                    if let RunPlan::Mutant { schedule, .. } = &plan {
                        taboo.insert(schedule.clone());
                    }
                    plan
                })
                .collect();
            let runs: Vec<CampaignRun> = fan_out(count, workers, |o| {
                campaign_run(
                    &scenario,
                    &self.spec,
                    self.seed,
                    &plans[o as usize],
                    reference,
                    &snap,
                )
            });
            for (offset, run) in runs.into_iter().enumerate() {
                total_choice_points += run.choice_points;
                let novel = corpus.observe(run.fingerprint, &run.schedule);
                let arm = match plans[offset] {
                    RunPlan::Mutant { .. } => Arm::Mutant,
                    RunPlan::Frontier { .. } => Arm::Frontier,
                    _ => Arm::Walk,
                };
                arm_runs[arm as usize] += 1;
                arm_novel[arm as usize] += u64::from(novel);
                distinct_schedules.insert(run.schedule.clone());
                distinct_end_states.insert(run.end_state_fp);
                if let Some((kind, detail)) = run.failure {
                    let run_index = index + offset as u32 + 1;
                    first_failure_run.get_or_insert(run_index);
                    failures.push(Failure {
                        schedule: run.schedule,
                        kind,
                        detail,
                        policy: run.policy,
                    });
                }
            }
            index += count;
        }

        CampaignReport {
            scenario: self.scenario,
            strategy: self.strategy,
            seed: self.seed,
            runs: self.budget + 1,
            distinct_fingerprints: corpus.distinct_fingerprints(),
            distinct_schedules: distinct_schedules.len(),
            distinct_end_states: distinct_end_states.len(),
            total_choice_points,
            corpus_len: corpus.len(),
            corpus_digest: corpus.digest(),
            failures,
            first_failure_run,
            threads: workers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every schedule the frontier emits is unique, and the singles
    /// cover every `(position, non-baseline decision)` pair exactly
    /// once before any double appears.
    #[test]
    fn frontier_enumeration_is_exhaustive_and_duplicate_free() {
        let arities = [2u32, 3, 2, 4, 2];
        let single_count: usize = arities.iter().map(|&a| a as usize - 1).sum();
        let mut frontier = Frontier::new(&arities);
        let mut seen = HashSet::new();
        let mut singles = HashSet::new();
        let mut emitted = 0usize;
        while let Some(s) = frontier.next_schedule() {
            assert!(
                seen.insert(s.clone()),
                "frontier repeated {} after {emitted} schedules",
                s.token()
            );
            let devs: Vec<(usize, u32)> = s
                .decisions()
                .iter()
                .enumerate()
                .filter(|&(_, &d)| d != 0)
                .map(|(p, &d)| (p, d))
                .collect();
            assert!(
                (1..=2).contains(&devs.len()),
                "frontier schedules deviate once or twice, got {devs:?}"
            );
            for &(p, d) in &devs {
                assert!(p < arities.len() && d < arities[p], "illegal deviation");
            }
            if emitted < single_count {
                assert_eq!(devs.len(), 1, "singles must precede doubles");
                singles.insert(devs[0]);
            }
            emitted += 1;
        }
        assert_eq!(
            singles.len(),
            single_count,
            "singles must cover every (position, decision) pair"
        );
        // All unordered pairs of singles at distinct positions follow.
        let expected_doubles: usize = {
            let mut n = 0;
            let all: Vec<(usize, u32)> = (0..arities.len())
                .flat_map(|p| (1..arities[p]).map(move |d| (p, d)))
                .collect();
            for i in 0..all.len() {
                for j in (i + 1)..all.len() {
                    if all[i].0 != all[j].0 {
                        n += 1;
                    }
                }
            }
            n
        };
        assert_eq!(emitted, single_count + expected_doubles);
    }

    /// An empty baseline trace (a scenario with no co-enabled ties)
    /// yields an immediately-exhausted frontier rather than a panic.
    #[test]
    fn frontier_of_an_untied_run_is_empty() {
        let mut frontier = Frontier::new(&[]);
        assert!(frontier.next_schedule().is_none());
        let mut unary = Frontier::new(&[1, 1, 1]);
        assert!(unary.next_schedule().is_none());
    }

    /// The enumeration order is deterministic: two frontiers over the
    /// same arities emit the same sequence (the coordinator's plans —
    /// and with them worker-count invariance — depend on this).
    #[test]
    fn frontier_order_is_deterministic() {
        let arities: Vec<u32> = (0..37).map(|i| 2 + i % 3).collect();
        let mut a = Frontier::new(&arities);
        let mut b = Frontier::new(&arities);
        for _ in 0..500 {
            assert_eq!(a.next_schedule(), b.next_schedule());
        }
    }
}
