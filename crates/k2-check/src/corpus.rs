//! The corpus: fingerprint-novel decision traces feeding the mutators.
//!
//! A campaign observes every run as a `(fingerprint, schedule)` pair.
//! The corpus admits a trace exactly when its fingerprint has never been
//! seen before — the trace witnessed new schedule-space behavior — and
//! evicts the *oldest* entry once a capacity cap is reached, FIFO, so
//! mutation pressure follows the campaign's coverage frontier instead of
//! re-chewing its earliest discoveries.
//!
//! Everything here is deterministic in observation order: admission is a
//! pure function of the fingerprints seen so far, eviction is positional,
//! and [`Corpus::digest`] folds the admitted tokens in admission order.
//! The campaign driver observes runs in strict index order regardless of
//! worker count, so corpus contents — and the digest the reports carry —
//! are byte-identical for any `K2CHECK_THREADS`.

use crate::schedule::Schedule;
use k2_sim::digest::Fnv64;
use std::collections::{HashSet, VecDeque};

/// Default capacity of a campaign corpus.
pub const DEFAULT_CAPACITY: usize = 256;

/// A bounded store of fingerprint-novel schedules.
#[derive(Debug)]
pub struct Corpus {
    entries: VecDeque<Schedule>,
    seen: HashSet<u64>,
    capacity: usize,
    admitted: u64,
    evicted: u64,
}

impl Default for Corpus {
    fn default() -> Self {
        Corpus::new(DEFAULT_CAPACITY)
    }
}

impl Corpus {
    /// An empty corpus holding at most `capacity` traces (min 1).
    pub fn new(capacity: usize) -> Self {
        Corpus {
            entries: VecDeque::new(),
            seen: HashSet::new(),
            capacity: capacity.max(1),
            admitted: 0,
            evicted: 0,
        }
    }

    /// Observes one run. Returns `true` (and stores the trimmed trace)
    /// when `fingerprint` is novel; a previously seen fingerprint leaves
    /// the corpus untouched. Oldest entry is evicted at capacity.
    pub fn observe(&mut self, fingerprint: u64, schedule: &Schedule) -> bool {
        if !self.seen.insert(fingerprint) {
            return false;
        }
        self.admitted += 1;
        self.entries.push_back(schedule.trimmed());
        if self.entries.len() > self.capacity {
            self.entries.pop_front();
            self.evicted += 1;
        }
        true
    }

    /// Records a fingerprint in the novelty set *without* admitting its
    /// trace — how the campaign accounts for the baseline run, which is
    /// the differential reference, not mutation fodder.
    pub fn mark_seen(&mut self, fingerprint: u64) -> bool {
        self.seen.insert(fingerprint)
    }

    /// Distinct fingerprints observed so far (admitted or marked).
    pub fn distinct_fingerprints(&self) -> usize {
        self.seen.len()
    }

    /// Traces currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no trace has been admitted yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total admissions over the corpus's lifetime (evictions included).
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Entries displaced by the FIFO cap.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The `i`-th oldest resident trace.
    pub fn get(&self, i: usize) -> Option<&Schedule> {
        self.entries.get(i)
    }

    /// FNV-1a over the resident traces' tokens in admission order — the
    /// compact equality witness the worker-count invariance test pins:
    /// equal digests mean equal corpora, byte for byte.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        for s in &self.entries {
            h.bytes(s.token().as_bytes()).bytes(b"\n");
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(d: &[u32]) -> Schedule {
        Schedule::from_decisions(d.to_vec())
    }

    #[test]
    fn admits_only_novel_fingerprints() {
        let mut c = Corpus::new(8);
        assert!(c.observe(1, &s(&[1])));
        assert!(!c.observe(1, &s(&[2])), "duplicate fingerprint rejected");
        assert!(c.observe(2, &s(&[2])));
        assert_eq!(c.len(), 2);
        assert_eq!(c.distinct_fingerprints(), 2);
        assert_eq!(c.get(0), Some(&s(&[1])));
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let mut c = Corpus::new(2);
        c.observe(1, &s(&[1]));
        c.observe(2, &s(&[2]));
        c.observe(3, &s(&[3]));
        assert_eq!(c.len(), 2);
        assert_eq!(c.evicted(), 1);
        assert_eq!(c.admitted(), 3);
        assert_eq!(c.get(0), Some(&s(&[2])), "oldest entry evicted first");
    }

    #[test]
    fn mark_seen_blocks_admission_without_storing() {
        let mut c = Corpus::new(8);
        assert!(c.mark_seen(9));
        assert!(!c.observe(9, &s(&[4])));
        assert!(c.is_empty());
        assert_eq!(c.distinct_fingerprints(), 1);
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let mut a = Corpus::new(8);
        a.observe(1, &s(&[1]));
        a.observe(2, &s(&[2]));
        let mut b = Corpus::new(8);
        b.observe(10, &s(&[1]));
        b.observe(20, &s(&[2]));
        assert_eq!(a.digest(), b.digest(), "digest covers traces, not fps");
        let mut c = Corpus::new(8);
        c.observe(1, &s(&[2]));
        c.observe(2, &s(&[1]));
        assert_ne!(a.digest(), c.digest());
        assert_ne!(Corpus::new(8).digest(), a.digest());
    }
}
