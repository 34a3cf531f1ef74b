//! The per-kernel thread scheduler: a weighted-fair run queue.
//!
//! K2 classifies the scheduler as an *independent* service: each kernel
//! keeps its own run queue with no shared state, and "K2 does not change
//! the mechanism or policy of the Linux scheduler; all normal threads are
//! scheduled as they are in Linux" (§8). This module is that mechanism in
//! miniature — a CFS-style virtual-runtime queue — used when several
//! kernel threads share one simulated core (e.g. multiple NightWatch
//! threads multiplexed on the weak domain's single core).

use crate::proc::Tid;
use std::collections::BTreeSet;

/// Nanoseconds of virtual runtime.
type Vruntime = u64;

/// Scheduling weight (the nice-0 weight, as in Linux).
pub const WEIGHT_DEFAULT: u32 = 1024;

/// A CFS-style fair run queue over kernel threads.
///
/// Threads accumulate *virtual runtime* inversely proportional to their
/// weight; the runnable thread with the least virtual runtime runs next.
///
/// # Examples
///
/// ```
/// use k2_kernel::sched::RunQueue;
/// use k2_kernel::proc::Tid;
///
/// let mut rq = RunQueue::new();
/// rq.enqueue(Tid(1), 1024);
/// rq.enqueue(Tid(2), 1024);
/// let first = rq.pick_next().unwrap();
/// rq.account(first, 1_000_000); // 1 ms on the CPU
/// // The other thread has less virtual runtime now.
/// assert_ne!(rq.pick_next().unwrap(), first);
/// ```
#[derive(Clone, Debug, Default)]
pub struct RunQueue {
    /// Ordered by (vruntime, tid) for deterministic ties.
    queue: BTreeSet<(Vruntime, u32)>,
    /// Per-thread (vruntime, weight) for runnable threads.
    threads: std::collections::HashMap<u32, (Vruntime, u32)>,
    /// Smallest vruntime ever seen; newcomers start here so they cannot
    /// starve the queue (Linux's min_vruntime).
    min_vruntime: Vruntime,
    switches: u64,
}

impl RunQueue {
    /// Creates an empty run queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes a thread runnable with the given weight. Re-enqueueing an
    /// already-runnable thread is a no-op.
    ///
    /// # Panics
    ///
    /// Panics on a zero weight.
    pub fn enqueue(&mut self, tid: Tid, weight: u32) {
        assert!(weight > 0, "zero scheduling weight");
        if self.threads.contains_key(&tid.0) {
            return;
        }
        let vr = self.min_vruntime;
        self.threads.insert(tid.0, (vr, weight));
        self.queue.insert((vr, tid.0));
    }

    /// Removes a thread (it blocked or exited). Returns `true` if it was
    /// runnable.
    pub fn dequeue(&mut self, tid: Tid) -> bool {
        match self.threads.remove(&tid.0) {
            Some((vr, _)) => {
                self.queue.remove(&(vr, tid.0));
                true
            }
            None => false,
        }
    }

    /// The runnable thread with the least virtual runtime.
    pub fn pick_next(&mut self) -> Option<Tid> {
        let &(_, tid) = self.queue.iter().next()?;
        self.switches += 1;
        Some(Tid(tid))
    }

    /// Charges `ns` of real runtime to a thread, scaling by weight.
    ///
    /// # Panics
    ///
    /// Panics if the thread is not runnable.
    pub fn account(&mut self, tid: Tid, ns: u64) {
        let (vr, weight) = *self
            .threads
            .get(&tid.0)
            .unwrap_or_else(|| panic!("account on non-runnable {tid:?}"));
        self.queue.remove(&(vr, tid.0));
        let delta = ns * WEIGHT_DEFAULT as u64 / weight as u64;
        let new_vr = vr + delta;
        self.threads.insert(tid.0, (new_vr, weight));
        self.queue.insert((new_vr, tid.0));
        // min_vruntime follows the head of the queue.
        if let Some(&(head, _)) = self.queue.iter().next() {
            self.min_vruntime = self.min_vruntime.max(head.min(new_vr));
        }
    }

    /// Number of runnable threads.
    pub fn len(&self) -> usize {
        self.threads.len()
    }

    /// `true` when nothing is runnable.
    pub fn is_empty(&self) -> bool {
        self.threads.is_empty()
    }

    /// Scheduling decisions made so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn least_vruntime_runs_first() {
        let mut rq = RunQueue::new();
        rq.enqueue(Tid(1), WEIGHT_DEFAULT);
        rq.enqueue(Tid(2), WEIGHT_DEFAULT);
        let a = rq.pick_next().unwrap();
        rq.account(a, 2_000_000);
        let b = rq.pick_next().unwrap();
        assert_ne!(a, b, "fairness alternates equal-weight threads");
    }

    #[test]
    fn fair_share_converges_over_time() {
        let mut rq = RunQueue::new();
        rq.enqueue(Tid(1), WEIGHT_DEFAULT);
        rq.enqueue(Tid(2), WEIGHT_DEFAULT);
        rq.enqueue(Tid(3), WEIGHT_DEFAULT);
        let mut runtime = [0u64; 4];
        for _ in 0..300 {
            let t = rq.pick_next().unwrap();
            rq.account(t, 1_000_000);
            runtime[t.0 as usize] += 1;
        }
        for (tid, &slices) in runtime.iter().enumerate().skip(1) {
            assert!(
                (95..=105).contains(&slices),
                "thread {tid} got {slices} of 300 slices"
            );
        }
    }

    #[test]
    fn weights_bias_the_share() {
        let mut rq = RunQueue::new();
        rq.enqueue(Tid(1), WEIGHT_DEFAULT * 3); // heavy
        rq.enqueue(Tid(2), WEIGHT_DEFAULT);
        let mut runtime = [0u64; 3];
        for _ in 0..400 {
            let t = rq.pick_next().unwrap();
            rq.account(t, 1_000_000);
            runtime[t.0 as usize] += 1;
        }
        let ratio = runtime[1] as f64 / runtime[2] as f64;
        assert!(
            (2.5..=3.5).contains(&ratio),
            "3x weight ≈ 3x CPU: {ratio:.2}"
        );
    }

    #[test]
    fn newcomers_do_not_starve_or_monopolise() {
        let mut rq = RunQueue::new();
        rq.enqueue(Tid(1), WEIGHT_DEFAULT);
        for _ in 0..50 {
            let t = rq.pick_next().unwrap();
            rq.account(t, 1_000_000);
        }
        // A latecomer starts at min_vruntime, not zero: it gets the CPU
        // next but owes no catch-up windfall.
        rq.enqueue(Tid(2), WEIGHT_DEFAULT);
        let mut consecutive_newcomer = 0u32;
        loop {
            let t = rq.pick_next().unwrap();
            rq.account(t, 1_000_000);
            if t == Tid(2) {
                consecutive_newcomer += 1;
            } else {
                break;
            }
        }
        assert!(
            consecutive_newcomer <= 2,
            "newcomer ran {consecutive_newcomer} slices in a row"
        );
    }

    #[test]
    fn dequeue_removes_runnable_thread() {
        let mut rq = RunQueue::new();
        rq.enqueue(Tid(5), WEIGHT_DEFAULT);
        assert!(rq.dequeue(Tid(5)));
        assert!(!rq.dequeue(Tid(5)));
        assert!(rq.is_empty());
        assert_eq!(rq.pick_next(), None);
    }

    #[test]
    fn reenqueue_is_idempotent() {
        let mut rq = RunQueue::new();
        rq.enqueue(Tid(1), WEIGHT_DEFAULT);
        rq.enqueue(Tid(1), WEIGHT_DEFAULT);
        assert_eq!(rq.len(), 1);
    }

    #[test]
    #[should_panic(expected = "non-runnable")]
    fn accounting_a_blocked_thread_panics() {
        let mut rq = RunQueue::new();
        rq.account(Tid(9), 1);
    }
}
