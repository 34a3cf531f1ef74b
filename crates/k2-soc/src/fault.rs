//! Deterministic hardware fault injection.
//!
//! K2's premise is that the OS keeps working when split across coherence
//! domains connected by unreliable, slow links (paper §4.2, §6) — so the
//! simulated hardware must be able to *misbehave* on demand. A
//! [`FaultPlan`] is a reproducible schedule of faults, driven by its own
//! [`SimRng`] stream seeded independently of everything else: the machine
//! consults it at well-defined points (mail send, lock acquire, DMA
//! completion, task dispatch), and because those points occur in
//! deterministic event order, the same seed always yields the same faults
//! at the same simulated times.
//!
//! Five fault classes (plus delay, a sub-class of mail interference):
//!
//! * **mail drop / duplicate / delay** — the interconnect loses, repeats,
//!   or lags a 32-bit mailbox message;
//! * **stuck hwspinlock** — a lock bit reads busy past any deadline (a
//!   crashed holder or a glitching bank);
//! * **failed / partial DMA** — a channel faults, moving none or only a
//!   prefix of the data before signalling completion;
//! * **core stall** — a weak-domain core loses time to an invisible
//!   hypervisor/thermal event before executing its next step;
//! * **spurious wake** — a mailbox interrupt fires with nothing pending.
//!
//! The plan also counts what it injected ([`FaultStats`]) so soak tests can
//! log the exercised fault mix instead of trusting probabilities silently.

use crate::hwspinlock::HwLockId;
use crate::ids::DomainId;
use k2_sim::time::{SimDuration, SimTime};
use k2_sim::SimRng;
use std::collections::BTreeMap;

/// The classes of fault a plan can inject.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultClass {
    /// A mailbox message vanished in the interconnect.
    MailDrop,
    /// A mailbox message was delivered twice.
    MailDuplicate,
    /// A mailbox message was delivered late.
    MailDelay,
    /// A hardware spinlock read busy past its holder's critical section.
    LockStuck,
    /// A DMA transfer completed with an error and moved no data.
    DmaFail,
    /// A DMA transfer faulted partway, moving only a prefix.
    DmaPartial,
    /// A core stalled before executing its next step.
    CoreStall,
    /// A mailbox IRQ fired with an empty FIFO.
    SpuriousWake,
}

impl FaultClass {
    /// All classes, in code order.
    pub const ALL: [FaultClass; 8] = [
        FaultClass::MailDrop,
        FaultClass::MailDuplicate,
        FaultClass::MailDelay,
        FaultClass::LockStuck,
        FaultClass::DmaFail,
        FaultClass::DmaPartial,
        FaultClass::CoreStall,
        FaultClass::SpuriousWake,
    ];

    /// Stable small code for trace records and stats indexing.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::MailDrop => "mail-drop",
            FaultClass::MailDuplicate => "mail-duplicate",
            FaultClass::MailDelay => "mail-delay",
            FaultClass::LockStuck => "lock-stuck",
            FaultClass::DmaFail => "dma-fail",
            FaultClass::DmaPartial => "dma-partial",
            FaultClass::CoreStall => "core-stall",
            FaultClass::SpuriousWake => "spurious-wake",
        }
    }
}

/// Counts of injected faults, by class.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    counts: [u64; 8],
}

impl FaultStats {
    fn count(&mut self, class: FaultClass) {
        self.counts[class.code() as usize] += 1;
    }

    /// Faults injected of one class.
    pub fn of(&self, class: FaultClass) -> u64 {
        self.counts[class.code() as usize]
    }

    /// Total faults injected across all classes.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// One-line report of the exercised fault mix, e.g.
    /// `mail-drop:3 dma-fail:1` (only non-zero classes appear).
    pub fn mix_report(&self) -> String {
        let parts: Vec<String> = FaultClass::ALL
            .iter()
            .filter(|c| self.of(**c) > 0)
            .map(|c| format!("{}:{}", c.name(), self.of(*c)))
            .collect();
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join(" ")
        }
    }
}

/// What the interconnect does to one outgoing mail.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MailFate {
    /// Delivered normally.
    Deliver,
    /// Lost forever.
    Drop,
    /// Delivered twice (back-to-back).
    Duplicate,
    /// Delivered after an extra delay.
    Delay(SimDuration),
}

/// What the engine reports for one finished DMA transfer.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum DmaFate {
    /// All bytes moved.
    Ok,
    /// Channel fault before any byte moved.
    Fail,
    /// Channel fault after moving this fraction of the data (in `(0, 1)`).
    Partial(f64),
}

/// Builds a [`FaultPlan`]. All rates default to zero (a built plan with no
/// rates set injects nothing, but still activates the recovery paths).
#[derive(Debug)]
pub struct FaultPlanBuilder {
    plan: FaultPlan,
}

impl FaultPlanBuilder {
    /// Drop each mail with probability `p`.
    pub fn mail_drop(mut self, p: f64) -> Self {
        self.plan.mail_drop_p = p;
        self
    }

    /// Duplicate each (non-dropped) mail with probability `p`.
    pub fn mail_duplicate(mut self, p: f64) -> Self {
        self.plan.mail_dup_p = p;
        self
    }

    /// Delay each (non-dropped, non-duplicated) mail with probability `p`,
    /// by a uniform extra latency in `(0, max]`.
    pub fn mail_delay(mut self, p: f64, max: SimDuration) -> Self {
        self.plan.mail_delay_p = p;
        self.plan.mail_delay_max = max;
        self
    }

    /// On each lock acquisition attempt, with probability `p`, hold the
    /// bit stuck for `dur` from that attempt.
    pub fn lock_stuck(mut self, p: f64, dur: SimDuration) -> Self {
        self.plan.lock_stuck_p = p;
        self.plan.lock_stuck_for = dur;
        self
    }

    /// Scripted one-shot: the first acquisition attempt on `id` finds the
    /// bit stuck for `dur`.
    pub fn stick_lock_once(mut self, id: HwLockId, dur: SimDuration) -> Self {
        self.plan.scripted_stuck.push((id, dur));
        self
    }

    /// Fail each DMA transfer (no data moved) with probability `p`.
    pub fn dma_fail(mut self, p: f64) -> Self {
        self.plan.dma_fail_p = p;
        self
    }

    /// Partially complete each DMA transfer with probability `p` (a random
    /// prefix of the data lands).
    pub fn dma_partial(mut self, p: f64) -> Self {
        self.plan.dma_partial_p = p;
        self
    }

    /// Before each task step on a core of `domain` (or any domain if
    /// `None`), stall the core for `dur` with probability `p`.
    pub fn core_stall(mut self, p: f64, dur: SimDuration, domain: Option<DomainId>) -> Self {
        self.plan.stall_p = p;
        self.plan.stall_for = dur;
        self.plan.stall_domain = domain;
        self
    }

    /// After each handled event, with probability `p`, raise the mailbox
    /// IRQ of `domain` (default: the last, weakest domain) spuriously.
    pub fn spurious_wake(mut self, p: f64, domain: Option<DomainId>) -> Self {
        self.plan.spurious_p = p;
        self.plan.spurious_domain = domain;
        self
    }

    /// Finishes the plan.
    pub fn build(self) -> FaultPlan {
        self.plan
    }
}

/// A seeded, reproducible schedule of hardware faults.
///
/// # Examples
///
/// ```
/// use k2_soc::fault::{FaultPlan, MailFate};
///
/// let mut a = FaultPlan::builder(42).mail_drop(0.5).build();
/// let mut b = FaultPlan::builder(42).mail_drop(0.5).build();
/// // Same seed, same decision stream.
/// for _ in 0..100 {
///     assert_eq!(a.mail_fate(), b.mail_fate());
/// }
/// assert!(a.stats().total() > 0, "p=0.5 over 100 mails injects faults");
/// ```
#[derive(Clone, Debug)]
pub struct FaultPlan {
    rng: SimRng,
    seed: u64,
    mail_drop_p: f64,
    mail_dup_p: f64,
    mail_delay_p: f64,
    mail_delay_max: SimDuration,
    lock_stuck_p: f64,
    lock_stuck_for: SimDuration,
    stuck_until: BTreeMap<u16, SimTime>,
    scripted_stuck: Vec<(HwLockId, SimDuration)>,
    dma_fail_p: f64,
    dma_partial_p: f64,
    stall_p: f64,
    stall_for: SimDuration,
    stall_domain: Option<DomainId>,
    spurious_p: f64,
    spurious_domain: Option<DomainId>,
    stats: FaultStats,
}

impl FaultPlan {
    /// Starts building a plan whose decision stream derives from `seed`.
    pub fn builder(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder {
            plan: FaultPlan {
                rng: SimRng::seed_from_u64(seed),
                seed,
                mail_drop_p: 0.0,
                mail_dup_p: 0.0,
                mail_delay_p: 0.0,
                mail_delay_max: SimDuration::ZERO,
                lock_stuck_p: 0.0,
                lock_stuck_for: SimDuration::ZERO,
                stuck_until: BTreeMap::new(),
                scripted_stuck: Vec::new(),
                dma_fail_p: 0.0,
                dma_partial_p: 0.0,
                stall_p: 0.0,
                stall_for: SimDuration::ZERO,
                stall_domain: None,
                spurious_p: 0.0,
                spurious_domain: None,
                stats: FaultStats::default(),
            },
        }
    }

    /// The seed this plan was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Counts of faults injected so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Folds the plan's exact state — dials, RNG stream position, stuck
    /// windows (in lock order), scripted faults, and injection counts —
    /// into a snapshot digest. Covering the RNG words means equal digests
    /// imply identical *future* fault decisions, not just identical
    /// history.
    pub fn digest_into(&self, h: &mut k2_sim::digest::Fnv64) {
        for w in self.rng.state() {
            h.u64(w);
        }
        h.u64(self.seed)
            .f64(self.mail_drop_p)
            .f64(self.mail_dup_p)
            .f64(self.mail_delay_p)
            .u64(self.mail_delay_max.as_ns())
            .f64(self.lock_stuck_p)
            .u64(self.lock_stuck_for.as_ns())
            .f64(self.dma_fail_p)
            .f64(self.dma_partial_p)
            .f64(self.stall_p)
            .u64(self.stall_for.as_ns())
            .u64(self.stall_domain.map_or(u64::MAX, |d| d.0 as u64))
            .f64(self.spurious_p)
            .u64(self.spurious_domain.map_or(u64::MAX, |d| d.0 as u64));
        h.usize(self.stuck_until.len());
        for (&lock, until) in &self.stuck_until {
            h.u32(lock as u32).u64(until.as_ns());
        }
        h.usize(self.scripted_stuck.len());
        for &(lock, dur) in &self.scripted_stuck {
            h.u32(lock.0 as u32).u64(dur.as_ns());
        }
        for &c in &self.stats.counts {
            h.u64(c);
        }
    }

    /// Decides the fate of one outgoing mail. Drop, duplicate, and delay
    /// are mutually exclusive per message, tried in that order.
    pub fn mail_fate(&mut self) -> MailFate {
        if self.mail_drop_p > 0.0 && self.rng.gen_bool(self.mail_drop_p) {
            self.stats.count(FaultClass::MailDrop);
            return MailFate::Drop;
        }
        if self.mail_dup_p > 0.0 && self.rng.gen_bool(self.mail_dup_p) {
            self.stats.count(FaultClass::MailDuplicate);
            return MailFate::Duplicate;
        }
        if self.mail_delay_p > 0.0 && self.rng.gen_bool(self.mail_delay_p) {
            self.stats.count(FaultClass::MailDelay);
            let extra = 1 + self.rng.gen_range(self.mail_delay_max.as_ns().max(1));
            return MailFate::Delay(SimDuration::from_ns(extra));
        }
        MailFate::Deliver
    }

    /// Decides whether an acquisition attempt on `id` at (virtual) time
    /// `at` observes a stuck bit. Returns `true` when the attempt must
    /// fail regardless of the bank's real state.
    pub fn lock_attempt(&mut self, id: HwLockId, at: SimTime) -> bool {
        if let Some(until) = self.stuck_until.get(&id.0) {
            if at < *until {
                self.stats.count(FaultClass::LockStuck);
                return true;
            }
            self.stuck_until.remove(&id.0);
        }
        if let Some(pos) = self.scripted_stuck.iter().position(|(l, _)| *l == id) {
            let (_, dur) = self.scripted_stuck.remove(pos);
            self.stuck_until.insert(id.0, at + dur);
            self.stats.count(FaultClass::LockStuck);
            return true;
        }
        if self.lock_stuck_p > 0.0 && self.rng.gen_bool(self.lock_stuck_p) {
            self.stuck_until.insert(id.0, at + self.lock_stuck_for);
            self.stats.count(FaultClass::LockStuck);
            return true;
        }
        false
    }

    /// Decides the fate of one finished DMA transfer.
    pub fn dma_fate(&mut self) -> DmaFate {
        if self.dma_fail_p > 0.0 && self.rng.gen_bool(self.dma_fail_p) {
            self.stats.count(FaultClass::DmaFail);
            return DmaFate::Fail;
        }
        if self.dma_partial_p > 0.0 && self.rng.gen_bool(self.dma_partial_p) {
            self.stats.count(FaultClass::DmaPartial);
            // A strict prefix: never zero, never everything.
            let f = 0.05 + 0.9 * self.rng.gen_f64();
            return DmaFate::Partial(f);
        }
        DmaFate::Ok
    }

    /// Decides whether a core of `dom` stalls before its next step, and
    /// for how long.
    pub fn core_stall(&mut self, dom: DomainId) -> Option<SimDuration> {
        if self.stall_p <= 0.0 {
            return None;
        }
        if let Some(d) = self.stall_domain {
            if d != dom {
                return None;
            }
        }
        if self.rng.gen_bool(self.stall_p) {
            self.stats.count(FaultClass::CoreStall);
            Some(self.stall_for)
        } else {
            None
        }
    }

    /// Decides whether a spurious mailbox IRQ fires now, and on which
    /// domain (`None` means the machine's weakest domain).
    pub fn spurious_wake(&mut self) -> Option<Option<DomainId>> {
        if self.spurious_p > 0.0 && self.rng.gen_bool(self.spurious_p) {
            self.stats.count(FaultClass::SpuriousWake);
            Some(self.spurious_domain)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn same_seed_same_decisions() {
        let build = || {
            FaultPlan::builder(7)
                .mail_drop(0.3)
                .mail_duplicate(0.3)
                .mail_delay(0.3, SimDuration::from_us(10))
                .dma_fail(0.2)
                .dma_partial(0.2)
                .build()
        };
        let (mut a, mut b) = (build(), build());
        for _ in 0..200 {
            assert_eq!(a.mail_fate(), b.mail_fate());
            assert_eq!(a.dma_fate(), b.dma_fate());
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn zero_rate_plan_injects_nothing() {
        let mut p = FaultPlan::builder(1).build();
        for _ in 0..50 {
            assert_eq!(p.mail_fate(), MailFate::Deliver);
            assert_eq!(p.dma_fate(), DmaFate::Ok);
            assert!(!p.lock_attempt(HwLockId(0), t(0)));
            assert!(p.core_stall(DomainId::WEAK).is_none());
            assert!(p.spurious_wake().is_none());
        }
        assert_eq!(p.stats().total(), 0);
        assert_eq!(p.stats().mix_report(), "none");
    }

    #[test]
    fn scripted_stuck_lock_blocks_until_deadline_lapses() {
        let mut p = FaultPlan::builder(3)
            .stick_lock_once(HwLockId(2), SimDuration::from_us(30))
            .build();
        // Other locks unaffected.
        assert!(!p.lock_attempt(HwLockId(1), t(0)));
        // First attempt arms the stuck window; retries inside it fail.
        assert!(p.lock_attempt(HwLockId(2), t(0)));
        assert!(p.lock_attempt(HwLockId(2), t(10_000)));
        // After the window the bit reads free again, and stays free.
        assert!(!p.lock_attempt(HwLockId(2), t(30_000)));
        assert!(!p.lock_attempt(HwLockId(2), t(30_001)));
        assert_eq!(p.stats().of(FaultClass::LockStuck), 2);
    }

    #[test]
    fn stall_respects_domain_filter() {
        let mut p = FaultPlan::builder(5)
            .core_stall(1.0, SimDuration::from_ms(1), Some(DomainId::WEAK))
            .build();
        assert!(p.core_stall(DomainId::STRONG).is_none());
        assert_eq!(p.core_stall(DomainId::WEAK), Some(SimDuration::from_ms(1)));
        assert_eq!(p.stats().of(FaultClass::CoreStall), 1);
    }

    #[test]
    fn partial_dma_fraction_is_a_strict_prefix() {
        let mut p = FaultPlan::builder(9).dma_partial(1.0).build();
        for _ in 0..100 {
            match p.dma_fate() {
                DmaFate::Partial(f) => assert!(f > 0.0 && f < 1.0, "f={f}"),
                other => panic!("expected partial, got {other:?}"),
            }
        }
    }

    #[test]
    fn mix_report_names_classes() {
        let mut p = FaultPlan::builder(11).mail_drop(1.0).build();
        let _ = p.mail_fate();
        assert_eq!(p.stats().mix_report(), "mail-drop:1");
        assert_eq!(p.stats().total(), 1);
    }
}
