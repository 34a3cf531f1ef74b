//! Schedule policies: the pluggable strategies that decide, at each
//! co-enabled choice point, which event fires first.
//!
//! A policy sees only the [`ChoicePoint`] — the simulated time and the
//! event classes of the tied events — and returns an index. The machine
//! only consults the chooser for sets of ≥ 2 events, so every call is a
//! real branching point in the schedule space.
//!
//! Policies are wrapped into the machine's `ScheduleChooser` by
//! [`chooser_of`] (plain) or [`Recorder::chooser`] (recording). Both
//! clamp the policy's answer into range *before* acting on it, and the
//! recorder logs the clamped value, so every recorded trace is legal and
//! replays exactly.

use crate::schedule::Schedule;
use k2_sim::explore::{ChoicePoint, EventClass, ScheduleChooser};
use k2_sim::rng::SimRng;
use std::cell::RefCell;
use std::rc::Rc;

/// A strategy for resolving co-enabled event orderings.
pub trait SchedulePolicy {
    /// Picks which of the tied events fires first. Out-of-range answers
    /// are clamped to the last index by the chooser wrapper.
    fn choose(&mut self, cp: &ChoicePoint<'_>) -> u32;

    /// Short name for logs and failure reports.
    fn name(&self) -> &'static str;
}

/// Always defers to the queue's own tie-break (schedule order). The run
/// this produces is the reference execution for the differential oracles.
pub struct Baseline;

impl SchedulePolicy for Baseline {
    fn choose(&mut self, _cp: &ChoicePoint<'_>) -> u32 {
        0
    }

    fn name(&self) -> &'static str {
        "baseline"
    }
}

/// A seeded uniform random walk over the schedule space: every choice
/// point picks independently among the tied events.
pub struct RandomWalk {
    rng: SimRng,
}

impl RandomWalk {
    /// Seeds the walk. Different `stream`s from the same exploration seed
    /// give decorrelated walks.
    pub fn new(seed: u64, stream: u64) -> Self {
        RandomWalk {
            rng: SimRng::seed_from_stream(seed, stream),
        }
    }
}

impl SchedulePolicy for RandomWalk {
    fn choose(&mut self, cp: &ChoicePoint<'_>) -> u32 {
        self.rng.gen_range(cp.classes.len() as u64) as u32
    }

    fn name(&self) -> &'static str {
        "random-walk"
    }
}

/// PCT-style priority scheduling over event *classes* (the analogue of
/// the probabilistic concurrency-testing scheduler, which runs the
/// highest-priority runnable thread and demotes it at `d` random change
/// points). The simulation has no persistent thread identities at choice
/// points, so priorities attach to the seven [`EventClass`]es instead:
/// each choice point fires the co-enabled event of the highest-priority
/// class (earliest-scheduled on ties), and at each of `d` pre-drawn
/// change depths the class that was about to win is demoted below every
/// other.
///
/// The resulting runs are *systematically* biased — long stretches obey
/// one fixed class ordering, punctuated by `d` inversions — which probes
/// a very different slice of schedule space than the uniform walk: more
/// like "mail always beats steps until depth 91, then never again".
pub struct Pct {
    rng: SimRng,
    prio: [u64; 7],
    /// Change depths, sorted ascending; consumed front to back.
    change_at: Vec<u64>,
    /// Next unconsumed position in `change_at`.
    next_change: usize,
    depth: u64,
    /// Strictly decreasing source of "below everything" priorities.
    floor: u64,
}

/// Choice-point depths are drawn from this horizon; scenario runs hit a
/// few hundred choice points, so change points land in-run with high
/// probability while staying schedule-independent.
const PCT_DEPTH_HORIZON: u64 = 512;

impl Pct {
    /// A PCT policy with `d` priority change points.
    pub fn new(seed: u64, stream: u64, d: u32) -> Self {
        let mut rng = SimRng::seed_from_stream(seed, stream);
        let mut prio = [0u64; 7];
        for p in &mut prio {
            // Priorities only ever compare against each other; draw them
            // above the demotion floor's working range.
            *p = (1 << 32) + rng.next_u64() % (1 << 31);
        }
        let mut change_at: Vec<u64> = (0..d).map(|_| rng.gen_range(PCT_DEPTH_HORIZON)).collect();
        change_at.sort_unstable();
        Pct {
            rng,
            prio,
            change_at,
            next_change: 0,
            depth: 0,
            floor: 1 << 31,
        }
    }

    fn class_index(c: EventClass) -> usize {
        match c {
            EventClass::Mail => 0,
            EventClass::Irq => 1,
            EventClass::Dma => 2,
            EventClass::Timer => 3,
            EventClass::Step => 4,
            EventClass::Wake => 5,
            EventClass::Call => 6,
        }
    }

    /// Index of the highest-priority co-enabled event (first on ties).
    fn argmax(&self, cp: &ChoicePoint<'_>) -> usize {
        let mut best = 0usize;
        for (i, &c) in cp.classes.iter().enumerate() {
            if self.prio[Self::class_index(c)] > self.prio[Self::class_index(cp.classes[best])] {
                best = i;
            }
        }
        best
    }
}

impl SchedulePolicy for Pct {
    fn choose(&mut self, cp: &ChoicePoint<'_>) -> u32 {
        while self.next_change < self.change_at.len()
            && self.change_at[self.next_change] <= self.depth
        {
            // Demote the class that was about to win below every other —
            // the PCT priority change point.
            let winner = self.argmax(cp);
            self.floor -= 1;
            self.prio[Self::class_index(cp.classes[winner])] = self.floor;
            self.next_change += 1;
        }
        self.depth += 1;
        // Mild tie-noise: when every co-enabled class is the same, the
        // argmax degenerates to the baseline; perturb those points
        // uniformly so symmetric pulse ties still get explored.
        let all_same = cp.classes.windows(2).all(|w| w[0] == w[1]);
        if all_same {
            return self.rng.gen_range(cp.classes.len() as u64) as u32;
        }
        self.argmax(cp) as u32
    }

    fn name(&self) -> &'static str {
        "pct"
    }
}

/// Replays a recorded [`Schedule`] decision for decision; once the trace
/// is exhausted every further choice point takes the baseline decision,
/// which is what makes prefix truncation a sound shrinking move.
///
/// Out-of-range decisions **wrap** (`d % arity`) rather than saturate.
/// Recorded traces are always in range, so replays of recordings are
/// unaffected; the wrap exists for *mutated* traces, whose decisions are
/// drawn uniformly from `0..=`[`MAX_DECISION`](crate::mutate::MAX_DECISION)
/// without knowing the arity the replay will meet. Wrapping maps that
/// draw uniformly onto arities 2 and 4 (and near-uniformly onto 3),
/// where a saturating clamp would alias almost every value to "last
/// event" and flatten the mutant's entropy.
pub struct Replay {
    decisions: Vec<u32>,
    pos: usize,
}

impl Replay {
    /// Replays `schedule` from its first decision.
    pub fn new(schedule: &Schedule) -> Self {
        Replay {
            decisions: schedule.decisions().to_vec(),
            pos: 0,
        }
    }
}

impl SchedulePolicy for Replay {
    fn choose(&mut self, cp: &ChoicePoint<'_>) -> u32 {
        let d = self.decisions.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        d % cp.classes.len() as u32
    }

    fn name(&self) -> &'static str {
        "replay"
    }
}

/// Wraps a policy into a machine chooser, clamping out-of-range answers.
pub fn chooser_of(mut policy: Box<dyn SchedulePolicy>) -> ScheduleChooser {
    Box::new(move |cp: &ChoicePoint<'_>| {
        let limit = cp.classes.len() - 1;
        (policy.choose(cp) as usize).min(limit)
    })
}

/// Records the (clamped) decision made at every choice point, so the run
/// can be reproduced from the resulting [`Schedule`] token alone.
#[derive(Clone, Default)]
pub struct Recorder {
    log: Rc<RefCell<Vec<u32>>>,
    classes: Rc<RefCell<Vec<(EventClass, u32)>>>,
}

impl Recorder {
    /// A recorder with an empty log.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Wraps `policy` into a chooser that logs each clamped decision,
    /// plus the chosen event's class and the co-enabled arity (the
    /// class-projected trace schedule fingerprints hash).
    pub fn chooser(&self, mut policy: Box<dyn SchedulePolicy>) -> ScheduleChooser {
        let log = self.log.clone();
        let classes = self.classes.clone();
        Box::new(move |cp: &ChoicePoint<'_>| {
            let limit = cp.classes.len() - 1;
            let d = (policy.choose(cp) as usize).min(limit);
            log.borrow_mut().push(d as u32);
            classes
                .borrow_mut()
                .push((cp.classes[d], cp.classes.len() as u32));
            d
        })
    }

    /// The schedule recorded so far.
    pub fn schedule(&self) -> Schedule {
        Schedule::from_decisions(self.log.borrow().clone())
    }

    /// The class-projected trace recorded so far: `(class fired, arity)`
    /// per choice point — the first fingerprint component.
    pub fn class_trace(&self) -> Vec<(EventClass, u32)> {
        self.classes.borrow().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use k2_sim::explore::EventClass;
    use k2_sim::time::SimTime;

    fn cp(classes: &[EventClass]) -> ChoicePoint<'_> {
        ChoicePoint {
            now: SimTime::ZERO,
            classes,
        }
    }

    #[test]
    fn replay_reproduces_and_then_defaults_to_zero() {
        let s = Schedule::from_decisions(vec![2, 0, 1]);
        let mut p = Replay::new(&s);
        let classes = [EventClass::Step; 4];
        assert_eq!(p.choose(&cp(&classes)), 2);
        assert_eq!(p.choose(&cp(&classes)), 0);
        assert_eq!(p.choose(&cp(&classes)), 1);
        assert_eq!(p.choose(&cp(&classes)), 0, "exhausted replay is baseline");
    }

    #[test]
    fn recorder_logs_clamped_decisions() {
        let rec = Recorder::new();
        let mut chooser = rec.chooser(Box::new(Replay::new(&Schedule::from_decisions(vec![7, 1]))));
        let classes = [EventClass::Mail, EventClass::Irq];
        assert_eq!(chooser(&cp(&classes)), 1, "7 clamps to last index");
        assert_eq!(chooser(&cp(&classes)), 1);
        assert_eq!(rec.schedule().decisions(), &[1, 1]);
    }

    #[test]
    fn random_walk_is_deterministic_per_seed_and_in_range() {
        let classes = [EventClass::Step, EventClass::Dma, EventClass::Timer];
        let run = |seed| {
            let mut p = RandomWalk::new(seed, 0);
            (0..64).map(|_| p.choose(&cp(&classes))).collect::<Vec<_>>()
        };
        let a = run(42);
        assert_eq!(a, run(42));
        assert_ne!(a, run(43));
        assert!(a.iter().all(|&d| d < 3));
        assert!(a.iter().any(|&d| d != 0), "walk actually deviates");
    }

    #[test]
    fn pct_is_deterministic_and_priority_driven() {
        let mixed = [EventClass::Mail, EventClass::Step, EventClass::Dma];
        let run = |seed| {
            let mut p = Pct::new(seed, 0, 3);
            (0..128).map(|_| p.choose(&cp(&mixed))).collect::<Vec<_>>()
        };
        let a = run(5);
        assert_eq!(a, run(5), "same seed, same decisions");
        assert_ne!(a, run(6));
        assert!(a.iter().all(|&d| d < 3));
        // Between change points the argmax is fixed: long constant
        // stretches, at most d = 3 value switches across the run.
        let switches = a.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(switches <= 3, "{switches} switches from 3 change points");

        // All-same-class ties fall back to uniform noise, so symmetric
        // pulse ties still vary.
        let same = [EventClass::Step, EventClass::Step];
        let mut p = Pct::new(5, 0, 0);
        let draws: Vec<u32> = (0..64).map(|_| p.choose(&cp(&same))).collect();
        assert!(draws.contains(&1), "ties must not pin to 0");
    }

    #[test]
    fn recorder_captures_the_class_trace() {
        let rec = Recorder::new();
        let mut chooser = rec.chooser(Box::new(Replay::new(&Schedule::from_decisions(vec![1]))));
        let classes = [EventClass::Mail, EventClass::Irq];
        chooser(&cp(&classes));
        chooser(&cp(&classes));
        assert_eq!(
            rec.class_trace(),
            vec![(EventClass::Irq, 2), (EventClass::Mail, 2)]
        );
    }
}
