//! The differential snapshot-equivalence suite.
//!
//! The snapshot/fork machinery (PR 7) lets exploration campaigns boot
//! once and fork per run. That is only sound if a fork is *byte*-
//! indistinguishable from a fresh boot — not approximately, not
//! logically: the golden profile reports, end-state digests, and
//! campaign reports must come out identical. This suite pins that
//! equivalence differentially: every scenario runs both ways and the
//! artifacts are compared byte for byte.

use k2::system::{normal_blocked, schedule_in_normal, K2Machine, K2System, SystemConfig};
use k2_check::explorer::{run_recorded, Campaign, Strategy};
use k2_check::policy::{chooser_of, Baseline, RandomWalk, Replay};
use k2_check::scenario::{FaultSpec, RunOptions, Scenario};
use k2_check::schedule::Schedule;
use k2_kernel::proc::ThreadKind;
use k2_sim::json::JsonWriter;
use k2_sim::time::SimDuration;
use k2_soc::ids::DomainId;
use k2_soc::FaultPlan;

/// The two seeds the suite sweeps: the paper year, and its reverse.
const SEEDS: [u64; 2] = [2014, 4202];

/// Boot-then-run and snapshot-fork-then-run must produce byte-identical
/// golden profile reports and identical end states, for every scenario
/// and seed, under the full-observability preset.
#[test]
fn forked_runs_match_booted_runs_byte_for_byte() {
    let snap = Scenario::boot_snapshot();
    for scenario in Scenario::ALL {
        let compiled = scenario.compile();
        for seed in SEEDS {
            let spec = FaultSpec {
                seed,
                ..FaultSpec::none()
            };
            let booted = compiled.run_with(&spec, None, RunOptions::full());
            let forked = compiled.run_forked(&snap, &spec, None, RunOptions::full());
            assert_eq!(
                booted.report_json,
                forked.report_json,
                "{}/{} profile report diverged between boot and fork",
                scenario.name(),
                seed
            );
            assert_eq!(
                booted.end_state,
                forked.end_state,
                "{}/{} end state diverged",
                scenario.name(),
                seed
            );
            assert_eq!(booted.events, forked.events);
            assert_eq!(booted.choice_points, forked.choice_points);
            assert_eq!(booted.span_shape, forked.span_shape);
            assert_eq!(booted.conservation, forked.conservation);
            assert_eq!(booted.audit, forked.audit);
        }
    }
}

/// Same equivalence under an *active fault plan* — the fault dice, RNG
/// streams and reliable-link machinery must all survive the freeze.
#[test]
fn forked_faulted_runs_match_booted_runs() {
    let snap = Scenario::boot_snapshot();
    for seed in SEEDS {
        let spec = FaultSpec {
            seed,
            mail_drop: 0.10,
            mail_duplicate: 0.05,
            dma_fail: 0.05,
            dma_partial: 0.05,
        };
        for scenario in [Scenario::UdpCrossTraffic, Scenario::DmaFanout] {
            let compiled = scenario.compile();
            let booted = compiled.run_with(&spec, None, RunOptions::full());
            let forked = compiled.run_forked(&snap, &spec, None, RunOptions::full());
            assert_eq!(
                booted.report_json,
                forked.report_json,
                "{}/{} faulted report diverged",
                scenario.name(),
                seed
            );
            assert_eq!(booted.end_state, forked.end_state);
        }
    }
}

/// A snapshot taken while a reliable-link retransmission is pending
/// carries it: NightWatch mails under heavy loss and no live task, driven
/// as the golden nightwatch cycle drives them, stop at the first instant
/// a message has been retransmitted and an ack is still outstanding. The
/// original and its fork then run on to the same digest and report.
#[test]
fn a_fork_taken_with_a_retransmission_pending_runs_identically() {
    let (mut m, mut sys) = K2System::boot(SystemConfig::k2());
    m.set_fault_plan(FaultPlan::builder(2014).mail_drop(0.3).build());
    let procs = &mut sys.world.processes;
    let pid = procs.create_process("app");
    let normal = procs.create_thread(pid, ThreadKind::Normal, "main");
    procs.create_thread(pid, ThreadKind::NightWatch, "bg");
    let strong = K2System::kernel_core(&m, DomainId::STRONG);
    let pending = |sys: &K2System| {
        let l = sys.link_stats();
        l.retransmits > 0 && l.sent > l.acked + l.gave_up
    };
    for step in 0.. {
        if pending(&sys) {
            break;
        }
        assert!(step < 40 * 400, "no retransmission pending after 40 mails");
        if step % 400 == 0 {
            let send = if step % 800 == 0 {
                schedule_in_normal
            } else {
                normal_blocked
            };
            send(&mut sys, &mut m, strong, pid, normal);
        }
        m.run_until(m.now() + SimDuration::from_us(5), &mut sys);
    }
    let snap = K2System::snapshot(&m, &sys);
    let (mut fm, mut fsys) = K2System::fork(&snap);
    let end = m.now() + SimDuration::from_ms(20);
    m.run_until(end, &mut sys);
    fm.run_until(end, &mut fsys);
    assert!(!pending(&fsys), "the pending message was settled");
    let report = |m: &K2Machine, sys: &K2System| {
        let mut out = String::new();
        let mut w = JsonWriter::compact(&mut out);
        sys.write_profile_report(m, &mut w);
        w.finish();
        (K2System::snapshot(m, sys).digest(), out)
    };
    assert_eq!(report(&m, &sys), report(&fm, &fsys));
}

/// A chooser-driven (recorded random-walk) run forks identically too:
/// the recorded decision trace and the outcome both match.
#[test]
fn forked_runs_match_under_schedule_choosers() {
    let snap = Scenario::boot_snapshot();
    for scenario in [Scenario::MailRace, Scenario::Ext2Churn] {
        let spec = FaultSpec::none();
        let compiled = scenario.compile();
        let booted = compiled.run_with(
            &spec,
            Some(chooser_of(Box::new(RandomWalk::new(2014, 7)))),
            RunOptions::full(),
        );
        let forked = compiled.run_forked(
            &snap,
            &spec,
            Some(chooser_of(Box::new(RandomWalk::new(2014, 7)))),
            RunOptions::full(),
        );
        assert_eq!(
            booted.report_json,
            forked.report_json,
            "{}",
            scenario.name()
        );
        assert_eq!(booted.end_state, forked.end_state, "{}", scenario.name());
    }
}

/// N forks of one frozen image, replaying the same recorded schedule
/// token, are pairwise byte-identical — and none of them perturbs the
/// frozen image itself.
#[test]
fn sibling_forks_replaying_one_token_are_identical() {
    let snap = Scenario::boot_snapshot();
    let frozen_digest = snap.digest();
    // Record a schedule on a fork, then replay its token on siblings.
    let (schedule, _) = run_recorded(
        Scenario::MailRace,
        &FaultSpec::none(),
        Box::new(RandomWalk::new(2014, 3)),
    );
    let token = schedule.token();
    let compiled = Scenario::MailRace.compile();
    let reports: Vec<String> = (0..4)
        .map(|_| {
            let parsed: Schedule = token.parse().expect("token round-trips");
            compiled
                .run_forked(
                    &snap,
                    &FaultSpec::none(),
                    Some(chooser_of(Box::new(Replay::new(&parsed)))),
                    RunOptions::full(),
                )
                .report_json
        })
        .collect();
    for pair in reports.windows(2) {
        assert_eq!(pair[0], pair[1], "sibling forks diverged");
    }
    assert_eq!(
        snap.digest(),
        frozen_digest,
        "running forks mutated the frozen snapshot"
    );
}

/// Fork independence: running schedule A on fork 1 must not change what
/// fork 2 observes when it subsequently runs schedule B (and vice
/// versa) — forks share no mutable state.
#[test]
fn fork_outcomes_are_order_independent() {
    let snap = Scenario::boot_snapshot();
    let spec = FaultSpec::none();
    let compiled = Scenario::MailRace.compile();
    let run = |stream: u64| {
        compiled
            .run_forked(
                &snap,
                &spec,
                Some(chooser_of(Box::new(RandomWalk::new(2014, stream)))),
                RunOptions::full(),
            )
            .report_json
    };
    // Interleave orders: A,B then B,A — each schedule's bytes must not
    // depend on what ran before it from the same frozen image.
    let (a1, b1) = (run(1), run(2));
    let (b2, a2) = (run(2), run(1));
    assert_eq!(a1, a2, "schedule A's outcome depends on run order");
    assert_eq!(b1, b2, "schedule B's outcome depends on run order");
}

/// The planted mail-race bug reproduces identically from a snapshot:
/// exploration finds a failing token on the forked path, and replaying
/// that token — once from a fresh boot, once from a fork — classifies
/// the same failure.
#[test]
fn planted_race_repro_token_replays_from_snapshot() {
    let report = Campaign::new(Scenario::MailRace, Strategy::Random, 2014)
        .budget(48)
        .threads(2)
        .run();
    let failure = report
        .first_failure()
        .expect("the planted mail race must surface within 48 runs");
    let token = failure.schedule.token();
    let parsed: Schedule = token.parse().expect("failure token parses");

    let snap = Scenario::boot_snapshot();
    let spec = FaultSpec::none();
    let compiled = Scenario::MailRace.compile();
    let baseline = compiled.run_forked(
        &snap,
        &spec,
        Some(chooser_of(Box::new(Baseline))),
        RunOptions::full(),
    );
    let booted = compiled.run_with(
        &spec,
        Some(chooser_of(Box::new(Replay::new(&parsed)))),
        RunOptions::full(),
    );
    let forked = compiled.run_forked(
        &snap,
        &spec,
        Some(chooser_of(Box::new(Replay::new(&parsed)))),
        RunOptions::full(),
    );
    assert_eq!(
        booted.report_json, forked.report_json,
        "failure replay diverged between boot and fork"
    );
    let diff_booted = baseline.end_state.diff(&booted.end_state);
    let diff_forked = baseline.end_state.diff(&forked.end_state);
    assert_eq!(diff_booted, diff_forked);
    assert!(
        !diff_forked.is_empty(),
        "replayed token no longer reproduces the planted race"
    );
}

/// Snapshot digests are total-state functions: freeze → fork → freeze
/// round-trips to the same digest, and two independent boots agree.
#[test]
fn snapshot_digest_round_trips_and_boots_agree() {
    let a = Scenario::boot_snapshot();
    let b = Scenario::boot_snapshot();
    assert_eq!(a.digest(), b.digest(), "boot is not deterministic");
    let (m, sys) = K2System::fork(&a);
    let refrozen = K2System::snapshot(&m, &sys);
    assert_eq!(refrozen.digest(), a.digest(), "fork → freeze round-trip");
    assert_eq!(m.state_digest(), a.machine.digest());
}
