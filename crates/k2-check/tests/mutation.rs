//! Property tests for the trace mutators that feed coverage-guided
//! exploration: every mutant is a valid `k2s1-` token, replays as a
//! legal schedule whose recorded decisions are in range, and the
//! schedule surgery the operators are built on round-trips against the
//! recorder on real scenario runs.

use k2_check::{
    chooser_of, run_recorded, FaultSpec, Mutator, RandomWalk, Recorder, Replay, RunOptions,
    Scenario, Schedule, MAX_DECISION, MAX_LEN,
};

/// Parents recorded from real runs: a couple of random walks plus the
/// trivial baseline trace, so the operators see both dense and empty
/// material.
fn parents() -> Vec<Schedule> {
    let spec = FaultSpec::none();
    let mut out = vec![Schedule::baseline()];
    for (scenario, stream) in [(Scenario::Ext2Churn, 0), (Scenario::MailRace, 1)] {
        let (schedule, _) = run_recorded(scenario, &spec, Box::new(RandomWalk::new(2014, stream)));
        out.push(schedule);
    }
    out
}

/// Every mutant of a real recorded trace serializes to a `k2s1-` token
/// that parses back to the identical schedule, stays within the length
/// cap, and is emitted trimmed.
#[test]
fn mutants_serialize_to_valid_tokens() {
    let parents = parents();
    let donor = &parents[parents.len() - 1];
    let mut mutator = Mutator::new(2014, 42);
    for parent in &parents {
        for _ in 0..128 {
            let (_, child) = mutator.mutate(parent, Some(donor));
            assert!(child.len() <= MAX_LEN);
            assert_eq!(child, child.trimmed(), "mutants must be emitted trimmed");
            assert!(
                child.decisions().iter().all(|&d| d <= MAX_DECISION),
                "mutant decision out of the generator's range"
            );
            let token = child.token();
            assert_eq!(
                token.parse::<Schedule>().expect("mutant token must parse"),
                child,
                "token round-trip drifted for {token}"
            );
        }
    }
}

/// A mutator is a pure function of `(seed, stream)`: two instances
/// produce identical operator and mutant sequences. Different streams
/// decorrelate.
#[test]
fn mutation_sequences_are_deterministic_per_seed_and_stream() {
    let parents = parents();
    let donor = &parents[1];
    let mut a = Mutator::new(7, 11);
    let mut b = Mutator::new(7, 11);
    let mut c = Mutator::new(7, 12);
    let mut diverged = false;
    for parent in &parents {
        for _ in 0..64 {
            let ma = a.mutate(parent, Some(donor));
            let mb = b.mutate(parent, Some(donor));
            assert_eq!(ma, mb, "same (seed, stream) must replay identically");
            diverged |= ma != c.mutate(parent, Some(donor));
        }
    }
    assert!(diverged, "different streams should not shadow each other");
}

/// Replaying a mutant on a real scenario is always legal: the recorder
/// logs one decision per choice point, every logged decision is within
/// its co-enabled set's arity (replay wraps out-of-range values), and
/// the *recorded* schedule then replays to the byte-identical report —
/// mutants never leave the space of reproducible runs.
#[test]
fn replayed_mutants_stay_within_clamp_bounds_and_re_replay_exactly() {
    let spec = FaultSpec::none();
    let (parent, _) = run_recorded(
        Scenario::MailRace,
        &spec,
        Box::new(RandomWalk::new(2014, 3)),
    );
    let compiled = Scenario::MailRace.compile();
    let mut mutator = Mutator::new(4202, 5);
    for _ in 0..12 {
        let (_, child) = mutator.mutate(&parent, Some(&parent));
        let recorder = Recorder::new();
        let chooser = recorder.chooser(Box::new(Replay::new(&child)));
        let outcome = compiled.run_with(&spec, Some(chooser), RunOptions::full());
        let recorded = recorder.schedule();
        let trace = recorder.class_trace();
        assert_eq!(
            recorded.decisions().len(),
            trace.len(),
            "one recorded decision per choice point"
        );
        for (&d, &(_, arity)) in recorded.decisions().iter().zip(&trace) {
            assert!(
                d < arity,
                "recorded decision {d} out of range for arity {arity}"
            );
        }
        let replayed = compiled.run_with(
            &spec,
            Some(chooser_of(Box::new(Replay::new(&recorded)))),
            RunOptions::full(),
        );
        assert_eq!(
            outcome.report_json, replayed.report_json,
            "recorded mutant schedule must replay byte-identically"
        );
    }
}

/// Truncation round-trips through the recorder: replaying `prefix(cut)`
/// of a recorded run re-records exactly that prefix (and decides
/// baseline past it), because replay-past-end decides 0 and the first
/// `cut` decisions drive the simulation into the identical state.
#[test]
fn truncated_traces_replay_as_their_prefix() {
    let spec = FaultSpec::none();
    let (parent, _) = run_recorded(
        Scenario::Ext2Churn,
        &spec,
        Box::new(RandomWalk::new(2014, 4)),
    );
    assert!(parent.len() > 8, "walk must hit choice points to cut");
    let compiled = Scenario::Ext2Churn.compile();
    for cut in [1, parent.len() / 2, parent.len() - 1] {
        let truncated = parent.prefix(cut);
        let recorder = Recorder::new();
        let chooser = recorder.chooser(Box::new(Replay::new(&truncated)));
        compiled.run_with(&spec, Some(chooser), RunOptions::full());
        let recorded = recorder.schedule();
        assert_eq!(
            &recorded.decisions()[..cut],
            &parent.decisions()[..cut],
            "cut at {cut}: replay must follow the kept prefix exactly"
        );
        assert!(
            recorded.decisions()[cut..].iter().all(|&d| d == 0),
            "cut at {cut}: past the prefix the replay must be baseline"
        );
    }
}

/// Splice is prefix-plus-donor-tail at the schedule level: the child
/// agrees with the parent strictly below the splice point and with the
/// donor at and above it (modulo trailing-zero trimming).
#[test]
fn splice_keeps_parent_head_and_donor_tail() {
    let parents = parents();
    let parent = &parents[1];
    let donor = &parents[2];
    for at in [0, 1, parent.len() / 2, parent.len()] {
        let child = parent.spliced(at, donor);
        let head: Vec<u32> = parent.decisions().iter().take(at).copied().collect();
        let tail: Vec<u32> = donor.decisions().iter().skip(at).copied().collect();
        let expected = Schedule::from_decisions(head.into_iter().chain(tail).collect()).trimmed();
        assert_eq!(child.trimmed(), expected, "splice at {at}");
    }
}
