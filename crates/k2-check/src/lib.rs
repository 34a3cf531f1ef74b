//! # k2-check: schedule exploration for the K2 reproduction
//!
//! A deterministic discrete-event simulation runs exactly one schedule
//! per seed. Whenever several events are co-enabled — mailbox deliveries,
//! interrupt raises, DMA completions, timer expiries sharing the same
//! instant — the queue's sequence-number tie-break silently picks one
//! ordering, so ordinary tests only ever witness a single interleaving.
//! This crate turns that tie-break into a search space, in the style of
//! loom/shuttle but at the whole-SoC level:
//!
//! * **Policies** ([`policy`]) decide each co-enabled ordering: seeded
//!   random walks, PCT priority runs, and exact replay.
//! * **Schedules** ([`schedule`]) are the recorded decision traces —
//!   compact `k2s1-…` tokens that reproduce a run bit for bit.
//! * **Scenarios** ([`scenario`]) name the cross-domain workloads a
//!   campaign drives — each one a checked-in `scenarios/*.k2.md` file
//!   compiled by [`dsl`] — plus the fault envelope they run under.
//! * **Oracles** ([`oracle`]) say what must hold on *every* schedule:
//!   counter conservation and (for fault-free runs) end-state
//!   equivalence against the baseline ordering.
//! * A **campaign** ([`Campaign`], in [`explorer`]) spends a run budget
//!   under one [`Strategy`] — random walks, PCT, or the coverage-guided
//!   corpus loop ([`corpus`], [`mutate`], [`fingerprint`]) — and reports
//!   both the oracle violations it found and how much of the schedule
//!   space it covered; the **shrinker** ([`mod@shrink`]) minimizes a failure;
//!   and [`repro`] emits the minimized failure as a self-contained
//!   `#[test]` under `tests/repros/`.
//!
//! The soundness contract inherited from `k2-sim`: a chooser only
//! permutes orderings the queue already considered simultaneous, so
//! every explored schedule is a legal execution of the same program.
//!
//! Every scenario is declarative: [`dsl`] parses the checked-in
//! `scenarios/*.k2.md` files (spec = test = doc) onto the run machinery,
//! [`matrix`] expands them into the deterministic conformance matrix
//! `k2 matrix` reports on, and [`fleet`] runs the fleet files.

#![warn(missing_docs)]

pub mod corpus;
pub mod dsl;
pub mod explorer;
pub mod fingerprint;
pub mod fleet;
pub mod matrix;
pub mod mutate;
pub mod oracle;
pub mod policy;
pub mod repro;
pub mod scenario;
pub mod schedule;
pub mod shrink;

pub use corpus::Corpus;
pub use dsl::{CompiledScenario, DslError, ScenarioDef};
pub use explorer::{
    check_failure, run_recorded, Campaign, CampaignReport, Failure, FailureKind, Strategy,
};
pub use fingerprint::{schedule_fingerprint, span_shape_hash};
pub use fleet::{
    run_fleet, run_fleet_from, run_fleet_traced, warmed_snapshot, FleetReport, FleetSpec,
    FleetTimeline,
};
pub use matrix::{MatrixOutcome, MatrixSpec};
pub use mutate::{Mutation, Mutator, MAX_DECISION, MAX_LEN};
pub use oracle::{capture_end_state, check_conservation, EndState};
pub use policy::{chooser_of, Baseline, Pct, RandomWalk, Recorder, Replay, SchedulePolicy};
pub use scenario::{FaultSpec, RunOptions, RunOutcome, Scenario};
pub use schedule::{Schedule, TokenError};
pub use shrink::{shrink, ShrinkResult};
