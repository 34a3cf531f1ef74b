//! Schedule-exploration vocabulary.
//!
//! A deterministic discrete-event simulation executes exactly one schedule
//! per seed: whenever several events are *co-enabled* (share the earliest
//! firing time), the queue's sequence-number tie-break picks the one that
//! was scheduled first. That is reproducible, but it means every test only
//! ever observes a single interleaving of mailbox deliveries, interrupt
//! raises, DMA completions and timer expiries — a correctness argument
//! with a sample size of one.
//!
//! This module defines the *interface* between the event engine and a
//! schedule explorer (the `k2-check` crate): a small classification of
//! events ([`EventClass`]) and the context handed to a pluggable chooser
//! at each nondeterministic choice point ([`ChoicePoint`]). The platform
//! machine consults the chooser whenever the co-enabled set has more than
//! one element; the chooser returns which member fires next. Everything
//! else — search policies, decision recording, replay, shrinking — lives
//! above, in `k2-check`.
//!
//! The contract that makes exploration sound: a chooser only permutes
//! orderings the queue already considered simultaneous. It can never
//! invent, drop, or re-time an event, so every explored schedule is a
//! legal execution of the same program.

use crate::time::SimTime;
use std::fmt;

/// A coarse classification of a pending event, for decision traces and
/// class-aware policies. The platform machine tags each of its event kinds
/// with one of these (the peripheral modules declare their own class).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum EventClass {
    /// A mailbox delivery crossing coherence domains.
    Mail,
    /// An interrupt raise (including bottom-half style deferred raises).
    Irq,
    /// A DMA engine progress/completion tick.
    Dma,
    /// A timer expiry (inactive-timeout, watchdog, tick arithmetic).
    Timer,
    /// A core finishing its current busy period (task step boundary).
    Step,
    /// A parked task waking.
    Wake,
    /// A deferred kernel callback (retransmit deadline, etc.).
    Call,
}

impl EventClass {
    /// Stable one-letter code used in compact decision traces.
    pub fn code(self) -> char {
        match self {
            EventClass::Mail => 'm',
            EventClass::Irq => 'i',
            EventClass::Dma => 'd',
            EventClass::Timer => 't',
            EventClass::Step => 's',
            EventClass::Wake => 'w',
            EventClass::Call => 'c',
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            EventClass::Mail => "mail",
            EventClass::Irq => "irq",
            EventClass::Dma => "dma",
            EventClass::Timer => "timer",
            EventClass::Step => "step",
            EventClass::Wake => "wake",
            EventClass::Call => "call",
        }
    }
}

impl fmt::Display for EventClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything a schedule chooser sees at one nondeterministic choice
/// point: the current simulated time and the classes of the co-enabled
/// events, in schedule (sequence) order. The chooser returns an index
/// into `classes`.
#[derive(Clone, Debug)]
pub struct ChoicePoint<'a> {
    /// Simulated time shared by every co-enabled event.
    pub now: SimTime,
    /// Classes of the co-enabled events, schedule order. Always ≥ 2
    /// elements — singleton sets are not choice points.
    pub classes: &'a [EventClass],
}

/// A pluggable co-enabled-event chooser, installed on the platform machine.
/// Returning 0 everywhere reproduces the default (sequence-order) schedule.
/// `Send` because the machine it is installed on may move between threads.
pub type ScheduleChooser = Box<dyn FnMut(&ChoicePoint<'_>) -> usize + Send>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique() {
        let all = [
            EventClass::Mail,
            EventClass::Irq,
            EventClass::Dma,
            EventClass::Timer,
            EventClass::Step,
            EventClass::Wake,
            EventClass::Call,
        ];
        let mut codes: Vec<char> = all.iter().map(|c| c.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), all.len());
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(EventClass::Mail.to_string(), "mail");
        assert_eq!(EventClass::Timer.name(), "timer");
    }
}
