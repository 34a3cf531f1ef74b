//! Acceptance suite for schedule exploration.
//!
//! Budgets honor `K2CHECK_BUDGET` (perturbed runs per scenario) and
//! `K2CHECK_SEED` so CI can sweep seeds without recompiling. The
//! oracle-hunting tests run random campaigns: each run is a seeded walk
//! on stream `1000 + index`.

use k2_check::{
    check_failure, chooser_of, repro, run_recorded, shrink, Baseline, Campaign, FailureKind,
    FaultSpec, RandomWalk, Replay, RunOptions, Scenario, Schedule, Strategy,
};

fn budget() -> u32 {
    std::env::var("K2CHECK_BUDGET")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(120)
}

fn seed() -> u64 {
    std::env::var("K2CHECK_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2014)
}

/// The well-behaved scenarios must pass every oracle on every explored
/// schedule, and the exploration must actually cover the space: at least
/// 100 distinct decision traces per scenario within the CI budget.
#[test]
fn fault_free_scenarios_are_schedule_invariant_across_100_plus_schedules() {
    for scenario in Scenario::WELL_BEHAVED {
        let report = Campaign::new(scenario, Strategy::Random, seed())
            .budget(budget())
            .run();
        assert!(
            report.failures.is_empty(),
            "{}: {} oracle violations, first: {} ({}) on {}",
            scenario.name(),
            report.failures.len(),
            report.failures[0].kind,
            report.failures[0].detail,
            report.failures[0].schedule.token(),
        );
        assert!(
            report.distinct_schedules >= 100,
            "{}: only {} distinct schedules from {} runs ({} choice points)",
            scenario.name(),
            report.distinct_schedules,
            report.runs,
            report.total_choice_points,
        );
    }
}

/// Conservation laws must balance even when fault injection is live —
/// drops and duplicates are *accounted*, never lost — under every
/// explored schedule. (End-state equivalence is out of scope here: the
/// fault dice are consumed in schedule order.)
#[test]
fn conservation_holds_under_faults_on_every_schedule() {
    let spec = FaultSpec {
        seed: 11,
        mail_drop: 0.08,
        mail_duplicate: 0.08,
        dma_fail: 0.10,
        dma_partial: 0.10,
    };
    for scenario in [Scenario::UdpCrossTraffic, Scenario::DmaFanout] {
        let report = Campaign::new(scenario, Strategy::Random, seed())
            .spec(spec)
            .budget(budget().min(40))
            .run();
        assert!(
            report.failures.is_empty(),
            "{}: {} violations under faults, first: {} ({})",
            scenario.name(),
            report.failures.len(),
            report.failures[0].kind,
            report.failures[0].detail,
        );
    }
}

/// The planted mailbox-ISR bug (last-value-wins over a same-instant mail
/// burst) must be caught by exploration, shrink to a tiny repro, and be
/// emitted as a self-contained test under `tests/repros/`.
#[test]
fn seeded_mail_race_is_caught_shrunk_and_emitted() {
    let report = Campaign::new(Scenario::MailRace, Strategy::Random, seed())
        .budget(budget())
        .run();
    assert!(
        report.distinct_schedules >= 100,
        "mail-race: only {} distinct schedules",
        report.distinct_schedules
    );
    let failure = report
        .first_failure()
        .expect("exploration must catch the planted mail race");
    assert_eq!(failure.kind, FailureKind::EndStateDivergence);
    assert!(
        failure.detail.contains("mailrace.last"),
        "unexpected divergence: {}",
        failure.detail
    );

    // Start shrinking from a deliberately noisy envelope: an irrelevant
    // DMA fault knob the shrinker must discard along with the schedule
    // noise.
    let noisy_spec = FaultSpec {
        seed: 0,
        dma_fail: 0.2,
        ..FaultSpec::none()
    };
    assert!(
        check_failure(Scenario::MailRace, &noisy_spec, &failure.schedule).is_some(),
        "failure must reproduce under the noisy envelope before shrinking"
    );
    let minimized = shrink(Scenario::MailRace, &noisy_spec, &failure.schedule);
    assert!(
        minimized.schedule.len() <= 20,
        "shrunken repro has {} decisions (token {})",
        minimized.schedule.len(),
        minimized.schedule.token()
    );
    assert!(
        minimized.spec.is_nop(),
        "the irrelevant DMA fault knob survived shrinking: {:?}",
        minimized.spec
    );
    assert!(
        check_failure(Scenario::MailRace, &minimized.spec, &minimized.schedule).is_some(),
        "minimized repro must still fail"
    );

    let path = repro::emit(
        &repro::default_dir(),
        Scenario::MailRace,
        &minimized.spec,
        &minimized.schedule,
        minimized.kind,
        &minimized.detail,
    )
    .expect("emit repro");
    let src = std::fs::read_to_string(&path).expect("read emitted repro");
    assert!(src.contains(&minimized.schedule.token()));
    assert!(src.contains("fn repro_mail_race()"));
}

/// Replaying a recorded schedule token reproduces the run exactly — the
/// full profile-report JSON is byte-for-byte identical, not just the
/// end state. This is the property that makes `k2s1-…` tokens sufficient
/// repro artifacts on their own.
#[test]
fn replaying_a_recorded_schedule_reproduces_the_report_bytes() {
    let spec = FaultSpec::none();
    for scenario in [Scenario::Ext2Churn, Scenario::MailRace] {
        let compiled = scenario.compile();
        for stream in 0..3u64 {
            let (schedule, original) = run_recorded(
                scenario,
                &spec,
                Box::new(RandomWalk::new(seed(), 7_000 + stream)),
            );
            let replayed = compiled.run_with(
                &spec,
                Some(chooser_of(Box::new(Replay::new(&schedule)))),
                RunOptions::full(),
            );
            assert_eq!(
                original.report_json,
                replayed.report_json,
                "{}: replay of {} drifted",
                scenario.name(),
                schedule.token()
            );
            assert_eq!(original.end_state, replayed.end_state);
            assert_eq!(original.choice_points, replayed.choice_points);
        }
    }
}

/// Coverage-guided exploration must rediscover the planted mail race at
/// least as fast as the blind random baseline at the same seed. The
/// guarantee is by construction — a coverage-guided campaign's first
/// generation replays the random strategy's exact walk streams, so the
/// race random finds in its opening runs is found at the identical run
/// index — and this test pins that alignment.
#[test]
fn coverage_guided_rediscovers_the_mail_race_no_slower_than_random() {
    let run_of = |strategy| {
        Campaign::new(Scenario::MailRace, strategy, seed())
            .budget(budget())
            .run()
            .first_failure_run
            .expect("the planted mail race must be found")
    };
    let random = run_of(Strategy::Random);
    let guided = run_of(Strategy::CoverageGuided);
    assert!(
        guided <= random,
        "coverage-guided took {guided} runs, random took {random}"
    );
}

/// The acceptance criterion for coverage-guided exploration: at an equal
/// budget it reaches strictly more distinct schedule fingerprints than
/// the random baseline on **all four** scenarios, at both pinned seeds.
///
/// The budget is the documented crossover regime (see EXPERIMENTS.md):
/// in wide flat spaces uniform sampling is near-optimal early, and the
/// feedback arms only overtake once fresh walks begin to saturate, so
/// the strict win is asserted at 500 runs, not at the 200-run floor.
#[test]
fn coverage_guided_strictly_beats_random_on_every_scenario_at_both_seeds() {
    for seed in [2014, 4202] {
        for scenario in Scenario::ALL {
            let fingerprints = |strategy| {
                Campaign::new(scenario, strategy, seed)
                    .budget(500)
                    .run()
                    .distinct_fingerprints
            };
            let random = fingerprints(Strategy::Random);
            let guided = fingerprints(Strategy::CoverageGuided);
            assert!(
                guided > random,
                "{} @ seed {seed}: coverage-guided {guided} vs random {random}",
                scenario.name()
            );
        }
    }
}

/// The committed coverage-guided campaign output: one serial 200-run
/// campaign per scenario at seed 2014 must end on these corpus digests,
/// the values EXPERIMENTS.md and the benchmark's `campaign` workload
/// print. A digest folds every admitted trace and its fingerprint, so
/// any change to a scenario's runs, the planner or the fingerprint
/// shows here.
#[test]
fn coverage_guided_corpus_digests_are_pinned() {
    let pinned = [
        (Scenario::UdpCrossTraffic, "12b83862cd6a3149"),
        (Scenario::Ext2Churn, "38cf97757977c67d"),
        (Scenario::DmaFanout, "0b6591d5f46d700d"),
        (Scenario::MailRace, "24197e4ee68ef937"),
    ];
    assert_eq!(pinned.map(|(s, _)| s), Scenario::ALL);
    for (scenario, digest) in pinned {
        let report = Campaign::new(scenario, Strategy::CoverageGuided, 2014)
            .budget(200)
            .threads(1)
            .run();
        assert_eq!(
            format!("{:016x}", report.corpus_digest),
            digest,
            "{}: corpus digest drifted",
            scenario.name()
        );
    }
}

/// The baseline policy must reproduce the machine's native tie-break: an
/// all-zero trace and the same outcome as running with no chooser at all.
#[test]
fn baseline_policy_matches_the_native_schedule() {
    let spec = FaultSpec::none();
    let (schedule, with_chooser) = run_recorded(Scenario::Ext2Churn, &spec, Box::new(Baseline));
    assert_eq!(schedule.deviations(), 0);
    assert_eq!(schedule.trimmed(), Schedule::baseline());
    let native = Scenario::Ext2Churn
        .compile()
        .run_with(&spec, None, RunOptions::full());
    assert_eq!(with_chooser.report_json, native.report_json);
    assert_eq!(with_chooser.end_state, native.end_state);
}
