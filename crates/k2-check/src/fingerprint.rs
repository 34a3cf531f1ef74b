//! Schedule fingerprints: the coverage signal of a campaign.
//!
//! Two raw decision traces are almost never equal — a random walk draws
//! an independent index at every one of a run's few hundred choice
//! points, so counting *distinct traces* just counts runs. A useful
//! coverage signal must instead count runs that exercised
//! **behaviorally different** scheduling: the analogue of a fuzzer's
//! coverage bitmap, not of its input corpus. The fingerprint therefore
//! hashes the run at two deliberately coarse levels:
//!
//! * the **site set** of the clamped decision trace. A *site* is one
//!   kind of scheduling decision: the [`EventClass`] of the event that
//!   fired, the arity of its co-enabled set, and the clamped decision
//!   index. The fingerprint hashes the sorted set of *distinct* sites
//!   the run visited — order and multiplicity are dropped, exactly as a
//!   branch-coverage bitmap drops execution order. Two random walks
//!   that permuted the same symmetric pulse ties a few hundred times
//!   visit the same handful of sites and collide; a schedule that
//!   provoked a three-way tie where only pairs existed, or picked a
//!   co-enabled class no other run picked, mints a new site and a new
//!   fingerprint. Runs that differ only in unreached choices trivially
//!   collide (their visited site sets are equal).
//! * the **span-graph shape** — the (name, domain, parent) skeleton of
//!   every span the run retained, in allocation order. Reorderings that
//!   changed *what happened* (an ISR drained one mail instead of two, a
//!   DMA batch split differently) move this component even when the
//!   site set is stable.
//!
//! Both components are FNV-1a over deterministic inputs, so a
//! fingerprint is a pure function of the schedule — replays fingerprint
//! identically, and the corpus/novelty accounting built on top inherits
//! the explorer's thread-count invariance.

use k2_sim::digest::Fnv64;
use k2_sim::explore::EventClass;
use k2_sim::span::SpanTracker;
use std::collections::BTreeSet;

/// Hashes the set of distinct scheduling sites a run visited — built
/// from the class-projected trace recorded by
/// [`Recorder::class_trace`](crate::policy::Recorder::class_trace) and
/// the clamped decisions recorded alongside it — together with the
/// run's span-graph shape, into one 64-bit fingerprint.
///
/// `class_trace` and `decisions` must come from the same run (the
/// recorder guarantees one entry of each per choice point); trailing
/// entries without a partner are ignored.
pub fn schedule_fingerprint(
    class_trace: &[(EventClass, u32)],
    decisions: &[u32],
    span_shape: u64,
) -> u64 {
    let sites: BTreeSet<(u8, u32, u32)> = class_trace
        .iter()
        .zip(decisions)
        .map(|(&(class, arity), &d)| (class.code() as u8, arity, d))
        .collect();
    let mut h = Fnv64::new();
    for &(code, arity, d) in &sites {
        h.bytes(&[code]).u32(arity).u32(d);
    }
    h.u64(span_shape).finish()
}

/// Hashes the structural skeleton of every retained span — name, domain,
/// and the *name* of the parent span — in allocation (id) order.
///
/// Timestamps are deliberately excluded: span start/end times shift with
/// every reordering, but the fingerprint should only move when the
/// *causal structure* of the run moves. Parent identity is projected to
/// the parent's name for the same reason — span ids are allocation
/// counters and would re-diverge under any reordering.
pub fn span_shape_hash(spans: &SpanTracker) -> u64 {
    let mut h = Fnv64::new();
    spans.for_each(|s| {
        let parent = s.parent.and_then(|p| spans.get(p)).map_or("", |p| p.name);
        h.bytes(s.name.as_bytes())
            .bytes(&[s.domain])
            .bytes(parent.as_bytes())
            .bytes(&[0]);
    });
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use k2_sim::time::SimTime;

    #[test]
    fn fingerprint_hashes_the_site_set_not_the_sequence() {
        use EventClass::{Mail, Step};
        // Reordering and repeating visits to the same sites collides —
        // the coverage-bitmap property.
        let a = [(Step, 2), (Mail, 3), (Step, 2)];
        let da = [0, 1, 0];
        let b = [(Mail, 3), (Step, 2)];
        let db = [1, 0];
        assert_eq!(
            schedule_fingerprint(&a, &da, 7),
            schedule_fingerprint(&b, &db, 7)
        );
        // A new site — same class and arity, different clamped decision
        // — is distinct.
        let dc = [0, 2, 0];
        assert_ne!(
            schedule_fingerprint(&a, &da, 7),
            schedule_fingerprint(&a, &dc, 7)
        );
        // A different class fired: distinct.
        let c = [(Step, 2), (Step, 3), (Step, 2)];
        assert_ne!(
            schedule_fingerprint(&a, &da, 7),
            schedule_fingerprint(&c, &da, 7)
        );
        // Same sites, different arity: distinct.
        let d = [(Step, 2), (Mail, 2), (Step, 2)];
        assert_ne!(
            schedule_fingerprint(&a, &da, 7),
            schedule_fingerprint(&d, &da, 7)
        );
        // Same sites, different span shape: distinct.
        assert_ne!(
            schedule_fingerprint(&a, &da, 7),
            schedule_fingerprint(&a, &da, 8)
        );
    }

    #[test]
    fn span_shape_ignores_timing_but_sees_structure() {
        let shape = |times: [u64; 2], child_name: &'static str| {
            let mut t = SpanTracker::new();
            let root = t.start(SimTime::from_ns(times[0]), "root", 0);
            let c = t.start_child(SimTime::from_ns(times[1]), child_name, 1, Some(root));
            t.end(SimTime::from_ns(times[1] + 5), c);
            t.end(SimTime::from_ns(times[1] + 9), root);
            span_shape_hash(&t)
        };
        assert_eq!(
            shape([0, 10], "io"),
            shape([3, 40], "io"),
            "pure re-timing must not move the shape hash"
        );
        assert_ne!(shape([0, 10], "io"), shape([0, 10], "irq"));
    }
}
