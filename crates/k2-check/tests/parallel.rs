//! Thread-count invariance of exploration campaigns.
//!
//! A campaign's observable result is a pure function of `(scenario,
//! strategy, spec, seed, budget)`: the worker count can change only
//! `CampaignReport::threads` and wall-clock time. These tests run the
//! same campaigns with 1, 2 and 8 workers and with automatic selection,
//! and require the rendered report — every coverage counter and the
//! repro token of every failure — to be identical. Random campaigns
//! cover all four scenarios; PCT and coverage-guided campaigns cover the
//! planted race and one well-behaved scenario.
//!
//! Every campaign run is a *fork* of one coordinator-frozen post-boot
//! snapshot rather than a fresh boot, so these tests pin the invariance
//! of the forked path; the fork-specific tests at the bottom
//! additionally pin that worker forks never leak state back into the
//! shared frozen image.

use k2_check::{Campaign, CampaignReport, FaultSpec, Scenario, Strategy};

const SEED: u64 = 0xD1CE;
const BUDGET: u32 = 24;

/// A random campaign over `scenario` with `threads` workers. Its walks
/// are the seeded streams the oracle tests in `explore.rs` use.
fn random(scenario: Scenario, threads: usize) -> CampaignReport {
    Campaign::new(scenario, Strategy::Random, SEED)
        .budget(BUDGET * 2)
        .threads(threads)
        .run()
}

/// Random campaigns over every scenario are byte-identical under 1, 2
/// and 8 workers: the rendered report, which spans every coverage
/// counter and failure token, and the corpus digest.
#[test]
fn exploration_is_thread_count_invariant() {
    for scenario in Scenario::ALL {
        let serial = random(scenario, 1);
        assert_eq!(serial.threads, 1);
        for workers in [2, 8] {
            let parallel = random(scenario, workers);
            assert_eq!(
                serial.render_json(),
                parallel.render_json(),
                "{} diverged at {workers} workers",
                scenario.name()
            );
            assert_eq!(
                serial.corpus_digest,
                parallel.corpus_digest,
                "{} corpus digest diverged at {workers} workers",
                scenario.name()
            );
        }
    }
}

/// The seeded mailbox race is found — at the same run, with the same
/// first failure and the same repro trace token — no matter how many
/// workers hunt for it.
#[test]
fn first_failure_selection_is_deterministic_across_workers() {
    let serial = random(Scenario::MailRace, 1);
    let first = serial
        .first_failure()
        .expect("the seeded mail race must be found");
    for workers in [2, 8] {
        let parallel = random(Scenario::MailRace, workers);
        let pfirst = parallel
            .first_failure()
            .expect("parallel campaign must find the race too");
        assert_eq!(serial.first_failure_run, parallel.first_failure_run);
        assert_eq!(first.schedule.token(), pfirst.schedule.token());
        assert_eq!(first.kind, pfirst.kind);
        assert_eq!(first.policy, pfirst.policy);
        assert_eq!(first.detail, pfirst.detail);
    }
}

/// `threads(0)` resolves automatically (env var or host parallelism) and
/// the resolved count is reported — and still changes nothing observable.
#[test]
fn automatic_thread_selection_reports_and_matches_serial() {
    let auto = random(Scenario::UdpCrossTraffic, 0);
    assert!(auto.threads >= 1, "auto selection must resolve to >= 1");
    let serial = random(Scenario::UdpCrossTraffic, 1);
    assert_eq!(serial.render_json(), auto.render_json());
    assert_eq!(serial.corpus_digest, auto.corpus_digest);
}

/// Coverage-guided and PCT campaigns extend the invariance contract to
/// the feedback loop: the rendered campaign report and the corpus digest
/// are byte-identical under 1, 2 and 8 workers and under `threads(0)`.
/// This is the property the generation-planned design exists to provide
/// — all adaptation happens on the coordinator against merged state, so
/// workers can only change wall-clock time.
#[test]
fn campaign_reports_and_corpus_digests_are_worker_count_invariant() {
    for strategy in [Strategy::Pct, Strategy::CoverageGuided] {
        for scenario in [Scenario::MailRace, Scenario::DmaFanout] {
            let run = |threads| {
                Campaign::new(scenario, strategy, SEED)
                    .budget(BUDGET * 2)
                    .threads(threads)
                    .run()
            };
            let serial = run(1);
            for workers in [2, 8, 0] {
                let parallel = run(workers);
                assert!(parallel.threads >= 1, "auto selection must resolve to >= 1");
                assert_eq!(
                    serial.render_json(),
                    parallel.render_json(),
                    "{} {strategy} campaign report diverged at threads({workers})",
                    scenario.name(),
                );
                assert_eq!(
                    serial.corpus_digest,
                    parallel.corpus_digest,
                    "{} {strategy} corpus digest diverged at threads({workers})",
                    scenario.name(),
                );
            }
        }
    }
}

/// Eight workers forking one shared frozen image leave the image bit-
/// for-bit intact: the boot snapshot's digest is the same before and
/// after a parallel campaign hammers forks of it, and a freshly frozen
/// boot still digests identically afterward.
#[test]
fn parallel_forks_never_perturb_the_frozen_image() {
    let before = Scenario::boot_snapshot();
    let d = before.digest();
    for strategy in [Strategy::Random, Strategy::Pct, Strategy::CoverageGuided] {
        let _ = Campaign::new(Scenario::DmaFanout, strategy, SEED)
            .budget(BUDGET)
            .threads(8)
            .run();
    }
    assert_eq!(before.digest(), d, "a worker fork wrote through the image");
    assert_eq!(
        Scenario::boot_snapshot().digest(),
        d,
        "boot stopped being deterministic after parallel campaigns"
    );
}

/// Faulted campaigns (active fault plan → RNG dice, reliable links,
/// retransmission timers all live) stay worker-count invariant on the
/// forked path too.
#[test]
fn faulted_forked_campaigns_are_worker_count_invariant() {
    let spec = FaultSpec {
        seed: SEED,
        mail_drop: 0.1,
        mail_duplicate: 0.0,
        dma_fail: 0.1,
        dma_partial: 0.0,
    };
    let serial = Campaign::new(Scenario::DmaFanout, Strategy::CoverageGuided, SEED)
        .spec(spec)
        .budget(BUDGET)
        .threads(1)
        .run();
    for workers in [2, 8] {
        let parallel = Campaign::new(Scenario::DmaFanout, Strategy::CoverageGuided, SEED)
            .spec(spec)
            .budget(BUDGET)
            .threads(workers)
            .run();
        assert_eq!(
            serial.render_json(),
            parallel.render_json(),
            "faulted campaign diverged at {workers} workers"
        );
        assert_eq!(serial.corpus_digest, parallel.corpus_digest);
    }
}
