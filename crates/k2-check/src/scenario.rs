//! The workloads campaigns drive, and the fault envelope and run
//! skeleton they share.
//!
//! A [`Scenario`] names one of the four grid files under `scenarios/`;
//! [`Scenario::compile`] turns it into a
//! [`CompiledScenario`], whose runs go
//! through `run_system`: boot (or fork) a K2 system through the shared
//! [`TestSystem`] harness, spawn the file's cross-domain work, run to
//! completion under an optional schedule chooser, drain in-flight
//! deliveries, and snapshot the differential-oracle inputs into a
//! [`RunOutcome`].
//!
//! Every run also spawns "pulse" tasks on the file's `pulse_cores` cores
//! of each domain. Their step boundaries tie at every round, guaranteeing
//! a deep supply of genuine co-enabled choice points regardless of how
//! the main workload's timing falls — without them, a scenario could
//! accidentally have a near-linear schedule space and exploration would
//! be vacuous.

use crate::dsl::{self, CompiledScenario};
use crate::oracle::{self, EndState, DOMAINS};
use k2::system::{K2Machine, K2System, SystemConfig, SystemSnapshot};
use k2_sim::explore::ScheduleChooser;
use k2_sim::json::JsonWriter;
use k2_sim::sink::SinkMode;
use k2_sim::time::SimDuration;
use k2_soc::fault::FaultPlan;
use k2_soc::platform::{Step, Task, TaskCx};
use k2_workloads::harness::TestSystem;

/// How long past task completion a run keeps simulating so in-flight
/// mailbox deliveries and DMA completions settle before the conservation
/// oracle reads the totals.
const DRAIN: SimDuration = SimDuration::from_ms(10);

/// A shrinkable description of the fault envelope a run executes under.
///
/// The platform's `FaultPlan` cannot be introspected once built, so the
/// explorer owns this plain-data form: the shrinker zeroes knobs one at
/// a time and rebuilds the plan. A spec with every rate at zero installs
/// *no* plan at all — even an empty plan flips the machine onto its
/// fault-tolerant (retrying, acknowledged) paths and changes timing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultSpec {
    /// Seed for the plan's own fault dice.
    pub seed: u64,
    /// Probability a cross-domain mail is silently dropped.
    pub mail_drop: f64,
    /// Probability a cross-domain mail is delivered twice.
    pub mail_duplicate: f64,
    /// Probability a DMA transfer fails outright.
    pub dma_fail: f64,
    /// Probability a DMA transfer completes short.
    pub dma_partial: f64,
}

impl FaultSpec {
    /// The fault-free envelope.
    pub fn none() -> Self {
        FaultSpec {
            seed: 0,
            mail_drop: 0.0,
            mail_duplicate: 0.0,
            dma_fail: 0.0,
            dma_partial: 0.0,
        }
    }

    /// True when no fault plan should be installed at all.
    pub fn is_nop(&self) -> bool {
        self.mail_drop == 0.0
            && self.mail_duplicate == 0.0
            && self.dma_fail == 0.0
            && self.dma_partial == 0.0
    }

    /// Builds the platform fault plan, or `None` for a nop spec.
    pub fn to_plan(&self) -> Option<FaultPlan> {
        if self.is_nop() {
            return None;
        }
        Some(
            FaultPlan::builder(self.seed)
                .mail_drop(self.mail_drop)
                .mail_duplicate(self.mail_duplicate)
                .dma_fail(self.dma_fail)
                .dma_partial(self.dma_partial)
                .build(),
        )
    }

    /// The nonzero knobs, with setters, for the spec shrinker.
    pub(crate) fn knobs(&self) -> Vec<(&'static str, f64)> {
        [
            ("mail_drop", self.mail_drop),
            ("mail_duplicate", self.mail_duplicate),
            ("dma_fail", self.dma_fail),
            ("dma_partial", self.dma_partial),
        ]
        .into_iter()
        .filter(|&(_, v)| v != 0.0)
        .collect()
    }

    /// Returns a copy with the named knob zeroed.
    pub(crate) fn without(&self, knob: &str) -> FaultSpec {
        let mut s = *self;
        match knob {
            "mail_drop" => s.mail_drop = 0.0,
            "mail_duplicate" => s.mail_duplicate = 0.0,
            "dma_fail" => s.dma_fail = 0.0,
            "dma_partial" => s.dma_partial = 0.0,
            _ => unreachable!("unknown fault knob {knob}"),
        }
        s
    }
}

/// What one run records beyond the simulation itself: how heavy the
/// observability machinery is, and which artifacts to produce at the end.
/// Pass it to [`CompiledScenario::run_with`] or
/// [`CompiledScenario::run_forked`]; the constructors below are the
/// named presets.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// Render `report_json` (the single most expensive step of a run).
    pub render_report: bool,
    /// Span-sink override. `None` keeps the boot-time full sink —
    /// required for byte-identity with historically rendered reports,
    /// which include boot-time spans. `Some(SinkMode::Disabled)` removes
    /// span recording from the hot path entirely.
    pub sink: Option<SinkMode>,
    /// Arm the event-trace ring and export `chrome_trace` at the end.
    pub chrome_trace: bool,
}

impl RunOptions {
    /// Full report, boot-default sink. Replay and byte-identity checks
    /// need it.
    pub fn full() -> Self {
        RunOptions {
            render_report: true,
            sink: None,
            chrome_trace: false,
        }
    }

    /// No report and the disabled span sink. The oracles never read the
    /// report or the spans, and both are pure observation — recording
    /// never perturbs event timing — so runs that only classify their
    /// outcomes (the conformance matrix's lite cells) use this preset.
    pub fn lite() -> Self {
        RunOptions {
            render_report: false,
            sink: Some(SinkMode::Disabled),
            chrome_trace: false,
        }
    }

    /// Full observability plus the Chrome trace export in
    /// [`RunOutcome::chrome_trace`] — what `k2 trace` runs.
    pub fn traced() -> Self {
        RunOptions {
            render_report: true,
            sink: None,
            chrome_trace: true,
        }
    }

    /// No report (campaign runs never read it) but the boot-default
    /// full span sink, so the run's span-graph shape — the second
    /// fingerprint component — is captured. Sits between
    /// [`RunOptions::lite`] and [`RunOptions::full`] in cost.
    pub fn coverage() -> Self {
        RunOptions {
            render_report: false,
            sink: None,
            chrome_trace: false,
        }
    }
}

/// Everything the oracles need from one completed run.
pub struct RunOutcome {
    /// Schedule-independent logical end state (plus scenario extras).
    pub end_state: EndState,
    /// The system's full profile report, rendered compactly — byte-equal
    /// across replays of the same schedule.
    pub report_json: String,
    /// The Chrome trace-event export, when the run asked for one
    /// (see [`RunOptions::chrome_trace`]).
    pub chrome_trace: Option<String>,
    /// Machine events processed — the numerator of throughput figures.
    pub events: u64,
    /// How many nondeterministic choice points the run hit.
    pub choice_points: u64,
    /// Structural hash of the run's span graph
    /// ([`crate::fingerprint::span_shape_hash`]); 0 when the span sink
    /// was disabled for the run.
    pub span_shape: u64,
    /// Counter-conservation verdict.
    pub conservation: Result<(), String>,
    /// Invariant-auditor verdict (sampled during the run).
    pub audit: Result<(), String>,
}

/// One of the four schedule-explored workloads, named by its checked-in
/// grid file `scenarios/<name>.k2.md`. The file is the scenario's only
/// definition: [`Scenario::compile`] loads and compiles it, and the
/// compiled form is what runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Symmetric UDP loopback traffic on both domains.
    UdpCrossTraffic,
    /// Two tasks creating and rewriting files in the shared ext2 volume
    /// from different domains.
    Ext2Churn,
    /// DMA transfer batches issued from both domains.
    DmaFanout,
    /// A deliberately buggy mailbox ISR (test-only): last-value-wins on a
    /// burst of two same-instant deliveries, so the outcome depends on
    /// which co-enabled `MailDeliver` event fires first. The seeded bug
    /// the acceptance suite must catch and shrink.
    MailRace,
}

impl Scenario {
    /// Every scenario, in documentation order.
    pub const ALL: [Scenario; 4] = [
        Scenario::UdpCrossTraffic,
        Scenario::Ext2Churn,
        Scenario::DmaFanout,
        Scenario::MailRace,
    ];

    /// The fault-free scenarios whose end state must be schedule-invariant.
    pub const WELL_BEHAVED: [Scenario; 3] = [
        Scenario::UdpCrossTraffic,
        Scenario::Ext2Churn,
        Scenario::DmaFanout,
    ];

    /// Kebab-case name: the builtin file stem, also used for repro file
    /// names.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::UdpCrossTraffic => "udp-cross-traffic",
            Scenario::Ext2Churn => "ext2-churn",
            Scenario::DmaFanout => "dma-fanout",
            Scenario::MailRace => "mail-race",
        }
    }

    /// The `Scenario::` variant ident, for generated repro sources.
    pub fn variant(self) -> &'static str {
        match self {
            Scenario::UdpCrossTraffic => "UdpCrossTraffic",
            Scenario::Ext2Churn => "Ext2Churn",
            Scenario::DmaFanout => "DmaFanout",
            Scenario::MailRace => "MailRace",
        }
    }

    /// Loads and compiles the scenario's builtin grid file. Run the
    /// result with [`CompiledScenario::run_with`] or
    /// [`CompiledScenario::run_forked`]; callers that run a scenario many
    /// times compile it once.
    ///
    /// # Panics
    ///
    /// Panics if the builtin fails to compile. The four files are checked
    /// in and run by the test suite, so that is a bug.
    pub fn compile(self) -> CompiledScenario {
        dsl::builtin::load(self.name())
            .compile()
            .unwrap_or_else(|e| panic!("builtin scenario `{}` failed to compile: {e}", self.name()))
    }

    /// Boots the scenario harness's standard system once and freezes it
    /// post-boot, before any per-run knob (fault plan, span sink, trace,
    /// audit, chooser) is applied. Because every scenario runs the same
    /// boot and knobs are applied per-fork, one frozen image serves every
    /// `(scenario, spec, preset)` combination; exploration campaigns
    /// freeze it once on the coordinator and fork per run.
    pub fn boot_snapshot() -> SystemSnapshot {
        TestSystem::freeze_boot(SystemConfig::k2())
    }
}

/// The absolute grid every pulse task realigns its wake-ups to.
const PULSE_PERIOD: u64 = 100_000; // ns

/// A busy/sleep loop that sleeps to the next *absolute* grid boundary
/// rather than for a fixed duration. Queueing delays on shared cores
/// therefore never desynchronize the pulses: every live pulse's wake
/// lands on the same instant each period, keeping their wake (and, on
/// dedicated cores, step-boundary) events co-enabled round after round.
struct PulseTask {
    rounds: u32,
    computing: bool,
}

impl Task<K2System> for PulseTask {
    fn step(&mut self, _w: &mut K2System, _m: &mut K2Machine, cx: TaskCx) -> Step {
        if self.computing {
            self.computing = false;
            if self.rounds == 0 {
                return Step::Done;
            }
            self.rounds -= 1;
            let now = cx.now.as_ns();
            let next = (now / PULSE_PERIOD + 1) * PULSE_PERIOD;
            Step::Sleep {
                dur: SimDuration::from_ns(next - now),
            }
        } else {
            self.computing = true;
            Step::ComputeTime {
                dur: SimDuration::from_us(40),
            }
        }
    }

    fn name(&self) -> &str {
        "pulse"
    }
}

/// Spawns `rounds`-round pulse tasks on up to `cores` cores of each
/// domain (a scenario file's `pulse_cores` and `pulse_rounds`).
pub(crate) fn spawn_pulses_with(t: &mut TestSystem, cores: u32, rounds: u32) {
    for dom in DOMAINS {
        let picked: Vec<_> =
            t.m.domain_cores(dom)
                .iter()
                .copied()
                .take(cores as usize)
                .collect();
        for core in picked {
            t.m.spawn(
                core,
                Box::new(PulseTask {
                    rounds,
                    computing: false,
                }),
                &mut t.sys,
            );
        }
    }
}

/// Capacity of the event-trace ring a traced run records into — sized so
/// a scenario's whole post-settle window survives for export.
const TRACE_CAPACITY: usize = 1 << 16;

/// Shared run skeleton: boot, install plan + chooser + auditor, drive,
/// drain, then snapshot the oracle inputs. The profile report is rendered
/// before any other read so nothing perturbs its bytes.
pub(crate) fn run_system(
    snap: Option<&SystemSnapshot>,
    spec: &FaultSpec,
    chooser: Option<ScheduleChooser>,
    opts: RunOptions,
    drive: impl FnOnce(&mut TestSystem) -> Vec<(String, String)>,
) -> RunOutcome {
    let mut builder = TestSystem::builder().seed(spec.seed).audit(64);
    if let Some(plan) = spec.to_plan() {
        builder = builder.fault_plan(plan);
    }
    if let Some(mode) = opts.sink {
        builder = builder.span_sink(mode);
    }
    let mut t = match snap {
        Some(s) => builder.build_from(s),
        None => builder.build(),
    };
    if opts.chrome_trace {
        t.m.set_trace_capacity(TRACE_CAPACITY);
        t.m.set_trace(true);
    }
    if let Some(c) = chooser {
        t.m.set_schedule_chooser(c);
    }
    let extra = drive(&mut t);
    t.run_for(DRAIN);
    t.m.clear_schedule_chooser();

    let mut report_json = String::new();
    if opts.render_report {
        let mut w = JsonWriter::compact(&mut report_json);
        t.sys.write_profile_report(&t.m, &mut w);
        w.finish();
    }
    let chrome_trace = opts.chrome_trace.then(|| {
        let mut s = String::new();
        t.m.write_chrome_trace(&mut s);
        s
    });
    let conservation = oracle::check_conservation(&t.m);
    let audit = audit_verdict(&t.m);
    let choice_points = t.m.choice_points();
    let events = t.events_processed();
    let span_shape = if t.m.spans().is_enabled() {
        crate::fingerprint::span_shape_hash(t.m.spans())
    } else {
        0
    };
    let mut end_state = oracle::capture_end_state(&mut t);
    for (k, v) in extra {
        end_state.push(k, v);
    }
    RunOutcome {
        end_state,
        report_json,
        chrome_trace,
        events,
        choice_points,
        span_shape,
        conservation,
        audit,
    }
}

/// Summarizes the machine's invariant auditor into a pass/fail verdict.
fn audit_verdict(m: &K2Machine) -> Result<(), String> {
    let violations = m.auditor().violations();
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations
            .iter()
            .take(3)
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_spec_knob_surgery() {
        let spec = FaultSpec {
            seed: 3,
            mail_drop: 0.1,
            mail_duplicate: 0.0,
            dma_fail: 0.2,
            dma_partial: 0.0,
        };
        assert!(!spec.is_nop());
        let knobs: Vec<_> = spec.knobs().iter().map(|&(k, _)| k).collect();
        assert_eq!(knobs, ["mail_drop", "dma_fail"]);
        let reduced = spec.without("dma_fail").without("mail_drop");
        assert!(reduced.is_nop());
        assert!(reduced.to_plan().is_none());
        assert!(spec.to_plan().is_some());
    }

    #[test]
    fn every_scenario_generates_deep_choice_points() {
        for s in Scenario::ALL {
            let out = s
                .compile()
                .run_with(&FaultSpec::none(), None, RunOptions::full());
            assert!(
                out.choice_points >= 40,
                "{}: only {} choice points — exploration would be vacuous",
                s.name(),
                out.choice_points
            );
            assert_eq!(out.conservation, Ok(()), "{}", s.name());
            assert_eq!(out.audit, Ok(()), "{}", s.name());
        }
    }

    #[test]
    fn baseline_runs_are_reproducible() {
        for s in [Scenario::Ext2Churn, Scenario::MailRace] {
            let compiled = s.compile();
            let a = compiled.run_with(&FaultSpec::none(), None, RunOptions::full());
            let b = compiled.run_with(&FaultSpec::none(), None, RunOptions::full());
            assert_eq!(a.report_json, b.report_json, "{}", s.name());
            assert_eq!(a.end_state, b.end_state, "{}", s.name());
        }
    }
}
