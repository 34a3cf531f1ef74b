//! Causal span tracing.
//!
//! A cross-domain operation in K2 is a *chain*: a mailbox send on one
//! domain raises an IRQ on the other, the ISR schedules a bottom half,
//! the bottom half sends the reply. Flat trace events show each hop but
//! not the causality; spans recover it. Every interesting interval gets
//! a [`Span`] with a parent link, and carrying a [`SpanId`] inside a
//! mail envelope stitches the chain across domains, so end-to-end
//! latency (send → IRQ → bottom half → reply) is attributable from the
//! span tree alone.
//!
//! Span IDs are allocated sequentially from the tracker — no randomness,
//! no wall clock — so the same seeded run always produces the same tree
//! (DESIGN.md §5.5). *Storage* is delegated to a pluggable
//! [`TraceSink`]: the default
//! [`FullSink`] bounds retention like
//! [`crate::trace::Trace`] (past the capacity new spans are counted but
//! not retained, so soaks cannot OOM), a ring sink keeps a recency
//! window, and the disabled sink short-circuits the tracker entirely —
//! no ids allocated, no stack pushed, zero cost.
//!
//! # Examples
//!
//! ```
//! use k2_sim::span::SpanTracker;
//! use k2_sim::time::SimTime;
//!
//! let mut t = SpanTracker::new();
//! let send = t.start(SimTime::from_ns(0), "mail.send", 0);
//! // ... the envelope carries `send`; the receiving ISR parents on it:
//! let isr = t.start_child(SimTime::from_ns(1_800), "irq", 1, Some(send));
//! t.end(SimTime::from_ns(2_000), isr);
//! t.end(SimTime::from_ns(2_000), send);
//! assert!(t.validate_well_formed().is_ok());
//! ```

use crate::sink::{FullSink, TraceSink};
use crate::time::SimTime;
use std::collections::BTreeMap;
use std::fmt;

/// Identifies one span. IDs are sequential per tracker, starting at 1;
/// 0 is reserved as "no span".
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// The reserved null id (never returned by [`SpanTracker::start`]).
    pub const NONE: SpanId = SpanId(0);

    /// The raw id value.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds an id from its raw value (sink implementations and tests).
    pub fn from_raw(raw: u64) -> SpanId {
        SpanId(raw)
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Trace context carried across machine boundaries by a datagram: the
/// id of the causal tree the datagram belongs to plus the *global* span
/// id of the sending span (see [`global_span_id`]). The fabric and the
/// coordinator carry the context verbatim — only endpoints mint or read
/// it — so it is deterministic and worker-count-invariant by
/// construction. [`TraceCtx::NONE`] marks untraced traffic and costs
/// nothing to propagate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCtx {
    /// Identifies the causal tree (the root span's global id).
    pub trace_id: u64,
    /// Global span id of the immediate sender, for flow stitching.
    pub parent: u64,
}

impl TraceCtx {
    /// Untraced traffic: both fields zero.
    pub const NONE: TraceCtx = TraceCtx {
        trace_id: 0,
        parent: 0,
    };

    /// `true` when this is the null context.
    pub fn is_none(self) -> bool {
        self.trace_id == 0 && self.parent == 0
    }
}

/// Namespaces a per-machine raw span id into a fleet-global id: machine
/// index in the high bits, raw id in the low 40. Machine 0's global ids
/// equal its raw ids, so single-machine traces are unchanged. 2^40
/// spans per machine is far beyond any sink's retention.
pub fn global_span_id(machine: u32, raw: u64) -> u64 {
    ((machine as u64) << 40) | (raw & ((1 << 40) - 1))
}

/// Small integer annotations riding on a span — at most
/// [`SpanArgs::CAPACITY`] `(key, value)` pairs, stored inline so spans
/// stay `Copy`-cheap and allocation-free. The Chrome trace exporter
/// merges them into each complete event's `args` object (mail tag, DMA
/// bytes, ...).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanArgs {
    len: u8,
    kv: [(&'static str, u64); Self::CAPACITY],
}

impl SpanArgs {
    /// Inline slots available per span.
    pub const CAPACITY: usize = 2;

    /// No annotations.
    pub const EMPTY: SpanArgs = SpanArgs {
        len: 0,
        kv: [("", 0); Self::CAPACITY],
    };

    /// A single `(key, value)` annotation.
    pub fn one(key: &'static str, value: u64) -> SpanArgs {
        let mut a = Self::EMPTY;
        a.push(key, value);
        a
    }

    /// Appends an annotation; silently ignored once the inline slots are
    /// full (annotations are observability, never load-bearing).
    pub fn push(&mut self, key: &'static str, value: u64) {
        if (self.len as usize) < Self::CAPACITY {
            self.kv[self.len as usize] = (key, value);
            self.len += 1;
        }
    }

    /// Number of annotations held.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` when no annotations are held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates the annotations in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.kv[..self.len as usize].iter().copied()
    }
}

/// One traced interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// This span's id.
    pub id: SpanId,
    /// The causal parent, if any.
    pub parent: Option<SpanId>,
    /// What the interval is (e.g. `mail.send`, `irq`, `bh`, `dsm.fault`).
    pub name: &'static str,
    /// Coherence domain the interval ran in.
    pub domain: u8,
    /// When it started.
    pub start: SimTime,
    /// When it ended (`None` while open).
    pub end: Option<SimTime>,
    /// Small integer annotations (see [`SpanArgs`]).
    pub args: SpanArgs,
}

/// Allocates and validates spans; a [`TraceSink`] stores them.
///
/// The tracker also keeps a *current-span stack*: the platform pushes
/// the ISR span before running a handler and pops it after, so any span
/// started inside (a bottom-half schedule, a reply send) parents on the
/// ISR automatically without threading ids through every call.
///
/// With a disabled sink every entry point returns immediately:
/// [`SpanTracker::start`] hands back [`SpanId::NONE`] without touching
/// the id counter (so [`SpanTracker::allocated`] stays 0) and the stack
/// is never pushed. Because span recording is pure observation, a run
/// behaves identically whichever sink is installed.
#[derive(Clone, Debug)]
pub struct SpanTracker {
    next: u64,
    sink: Box<dyn TraceSink>,
    stack: Vec<SpanId>,
    dropped: u64,
}

impl SpanTracker {
    /// Default retained-span cap; see the type docs.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Creates a tracker with the default full (map) sink and capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates a tracker with a full (map) sink retaining at most
    /// `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_sink(Box::new(FullSink::new(capacity)))
    }

    /// Creates a tracker over an explicit storage backend.
    pub fn with_sink(sink: Box<dyn TraceSink>) -> Self {
        SpanTracker {
            next: 1,
            sink,
            stack: Vec::new(),
            dropped: 0,
        }
    }

    /// Replaces the storage backend, discarding previously retained
    /// spans and the current-span stack. Swap between runs (or before
    /// driving any events), never mid-handler: the stack discipline
    /// assumes pushes and pops see the same enablement.
    pub fn set_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = sink;
        self.stack.clear();
    }

    /// `false` when the installed sink records nothing (all tracking
    /// entry points short-circuit).
    pub fn is_enabled(&self) -> bool {
        self.sink.is_enabled()
    }

    /// The installed backend's short name (`full`, `ring`, `disabled`).
    pub fn sink_name(&self) -> &'static str {
        self.sink.name()
    }

    /// Starts a span parented on the current span (top of the stack), or
    /// a root span if the stack is empty.
    pub fn start(&mut self, now: SimTime, name: &'static str, domain: u8) -> SpanId {
        let parent = self.stack.last().copied();
        self.start_child(now, name, domain, parent)
    }

    /// Like [`SpanTracker::start`], attaching annotations.
    pub fn start_args(
        &mut self,
        now: SimTime,
        name: &'static str,
        domain: u8,
        args: SpanArgs,
    ) -> SpanId {
        let parent = self.stack.last().copied();
        self.start_child_args(now, name, domain, parent, args)
    }

    /// Starts a span with an explicit parent (`None` forces a root) —
    /// the cross-domain stitch: the receiver parents its span on the id
    /// carried in the envelope.
    pub fn start_child(
        &mut self,
        now: SimTime,
        name: &'static str,
        domain: u8,
        parent: Option<SpanId>,
    ) -> SpanId {
        self.start_child_args(now, name, domain, parent, SpanArgs::EMPTY)
    }

    /// [`SpanTracker::start_child`] with annotations.
    pub fn start_child_args(
        &mut self,
        now: SimTime,
        name: &'static str,
        domain: u8,
        parent: Option<SpanId>,
        args: SpanArgs,
    ) -> SpanId {
        if !self.sink.is_enabled() {
            return SpanId::NONE;
        }
        let id = SpanId(self.next);
        self.next += 1;
        let span = Span {
            id,
            parent: parent.filter(|p| *p != SpanId::NONE),
            name,
            domain,
            start: now,
            end: None,
            args,
        };
        if !self.sink.offer(span) {
            self.dropped += 1;
        }
        id
    }

    /// Closes a span. Unknown ids (beyond-capacity spans) and
    /// [`SpanId::NONE`] are ignored; closing twice keeps the first end.
    pub fn end(&mut self, now: SimTime, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        self.sink.end(id, now);
    }

    /// Pushes `id` as the current span (subsequent [`SpanTracker::start`]
    /// calls parent on it). A no-op when tracking is disabled, so the
    /// hot path never grows the stack.
    pub fn push_current(&mut self, id: SpanId) {
        if self.sink.is_enabled() {
            self.stack.push(id);
        }
    }

    /// Pops the current span.
    pub fn pop_current(&mut self) {
        if self.sink.is_enabled() {
            self.stack.pop();
        }
    }

    /// The current span, if any.
    pub fn current(&self) -> Option<SpanId> {
        self.stack.last().copied()
    }

    /// Number of ids ever allocated (including dropped ones). Zero when
    /// tracking has always been disabled — the zero-cost contract.
    pub fn allocated(&self) -> u64 {
        self.next - 1
    }

    /// Spans the sink rejected: allocations past the retention cap *and*
    /// children rejected because their parent had already been dropped
    /// (the whole subtree is unattributable, so it is dropped whole).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Spans the sink retained and later overwrote (ring backends).
    pub fn evicted(&self) -> u64 {
        self.sink.evicted()
    }

    /// Retained span count.
    pub fn retained(&self) -> usize {
        self.sink.len()
    }

    /// Visits every retained span in id (= creation) order.
    pub fn for_each(&self, mut f: impl FnMut(&Span)) {
        self.sink.for_each(&mut f);
    }

    /// Looks up a retained span.
    pub fn get(&self, id: SpanId) -> Option<&Span> {
        self.sink.get(id)
    }

    /// Per-name `(count, total_ns)` over all *closed* retained spans, in
    /// name order — the summary reports embed.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        self.sink.for_each(&mut |s| {
            if let Some(end) = s.end {
                let e = out.entry(s.name).or_insert((0, 0));
                e.0 += 1;
                e.1 += end.saturating_since(s.start).as_ns();
            }
        });
        out
    }

    /// Folds the tracker's exact state — id watermark, drop counter,
    /// current-span stack, backend name, and every retained span in id
    /// order — into a snapshot digest.
    pub fn digest_into(&self, h: &mut crate::digest::Fnv64) {
        h.u64(self.next).u64(self.dropped).str(self.sink.name());
        h.usize(self.stack.len());
        for id in &self.stack {
            h.u64(id.raw());
        }
        h.usize(self.sink.len());
        self.sink.for_each(&mut |s| {
            h.u64(s.id.raw())
                .u64(s.parent.map_or(0, SpanId::raw))
                .str(s.name)
                .bytes(&[s.domain])
                .u64(s.start.as_ns())
                .u64(s.end.map_or(u64::MAX, |e| e.as_ns()));
            h.usize(s.args.len());
            for (k, v) in s.args.iter() {
                h.str(k).u64(v);
            }
        });
    }

    /// Checks the tree is well-formed: every parent link resolves to a
    /// retained span, no span ends before it starts, every child starts
    /// no earlier than its parent, and every *closed* child of a closed
    /// parent ends no later than the parent.
    ///
    /// Gaps from bounded storage are tolerated: a parent that was
    /// dropped past the cap (or rejected in a dropped subtree, or
    /// evicted from a ring) has an id below the allocation watermark,
    /// and such dangling links are fine.
    ///
    /// Returns the first problem found (in id order), described.
    pub fn validate_well_formed(&self) -> Result<(), String> {
        let mut first_err: Option<String> = None;
        self.sink.for_each(&mut |s| {
            if first_err.is_some() {
                return;
            }
            if let Some(end) = s.end {
                if end < s.start {
                    first_err = Some(format!("{} '{}' ends before it starts", s.id, s.name));
                    return;
                }
            }
            let Some(pid) = s.parent else { return };
            let Some(p) = self.sink.get(pid) else {
                // The parent may legitimately have fallen past the cap,
                // been rejected with its subtree, or been evicted.
                if pid.0 < self.next {
                    return;
                }
                first_err = Some(format!("{} '{}' has unknown parent {}", s.id, s.name, pid));
                return;
            };
            if s.start < p.start {
                first_err = Some(format!(
                    "{} '{}' starts at {:?}, before parent {} at {:?}",
                    s.id, s.name, s.start, p.id, p.start
                ));
                return;
            }
            if let (Some(ce), Some(pe)) = (s.end, p.end) {
                if ce > pe {
                    first_err = Some(format!(
                        "{} '{}' ends at {:?}, after parent {} at {:?}",
                        s.id, s.name, ce, p.id, pe
                    ));
                }
            }
        });
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Default for SpanTracker {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{DisabledSink, RingBufferSink, SinkMode};

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn ids_are_sequential_and_nonzero() {
        let mut tr = SpanTracker::new();
        let a = tr.start(t(0), "a", 0);
        let b = tr.start(t(1), "b", 0);
        assert_eq!(a.raw(), 1);
        assert_eq!(b.raw(), 2);
        assert_ne!(a, SpanId::NONE);
        assert_eq!(tr.allocated(), 2);
    }

    #[test]
    fn stack_parents_automatically() {
        let mut tr = SpanTracker::new();
        let isr = tr.start(t(0), "irq", 1);
        tr.push_current(isr);
        let bh = tr.start(t(5), "bh", 1);
        tr.pop_current();
        let root = tr.start(t(10), "other", 0);
        assert_eq!(tr.get(bh).unwrap().parent, Some(isr));
        assert_eq!(tr.get(root).unwrap().parent, None);
    }

    #[test]
    fn explicit_parent_stitches_across_domains() {
        let mut tr = SpanTracker::new();
        let send = tr.start(t(0), "mail.send", 0);
        let isr = tr.start_child(t(1_800), "irq", 1, Some(send));
        tr.end(t(2_000), isr);
        tr.end(t(2_100), send);
        assert_eq!(tr.get(isr).unwrap().parent, Some(send));
        assert!(tr.validate_well_formed().is_ok());
    }

    #[test]
    fn none_parent_is_filtered() {
        let mut tr = SpanTracker::new();
        let s = tr.start_child(t(0), "x", 0, Some(SpanId::NONE));
        assert_eq!(tr.get(s).unwrap().parent, None);
    }

    #[test]
    fn double_end_keeps_first() {
        let mut tr = SpanTracker::new();
        let s = tr.start(t(0), "x", 0);
        tr.end(t(5), s);
        tr.end(t(9), s);
        assert_eq!(tr.get(s).unwrap().end, Some(t(5)));
    }

    #[test]
    fn capacity_bounds_storage() {
        let mut tr = SpanTracker::with_capacity(2);
        let a = tr.start(t(0), "a", 0);
        let _b = tr.start(t(1), "b", 0);
        let c = tr.start(t(2), "c", 0);
        assert_eq!(tr.dropped(), 1);
        assert!(tr.get(c).is_none());
        tr.end(t(3), c); // ignored, no panic
        assert_eq!(tr.retained(), 2);
        // A child of a dropped parent still validates.
        let d = tr.start_child(t(4), "d", 0, Some(c));
        assert!(tr.get(d).is_none() || tr.validate_well_formed().is_ok());
        assert!(tr.validate_well_formed().is_ok());
        let _ = a;
    }

    #[test]
    fn dropped_counts_children_of_dropped_parents() {
        let mut tr = SpanTracker::with_capacity(2);
        let _a = tr.start(t(0), "a", 0);
        let _b = tr.start(t(1), "b", 0);
        let late = tr.start(t(2), "late", 0); // past the cap
        assert_eq!(tr.dropped(), 1);
        let child = tr.start_child(t(3), "child", 0, Some(late));
        let grandchild = tr.start_child(t(4), "grandchild", 0, Some(child));
        assert_eq!(tr.dropped(), 3, "the whole rejected subtree is counted");
        assert!(tr.get(child).is_none());
        assert!(tr.get(grandchild).is_none());
        assert!(tr.validate_well_formed().is_ok());
        // Allocation accounting stays exact: allocated = retained + dropped.
        assert_eq!(tr.allocated(), tr.retained() as u64 + tr.dropped());

        // The parent cascade also fires with headroom: after a backend
        // swap the fresh map has space, but a child parented on a
        // pre-swap id is rejected (its subtree root is gone), counted as
        // dropped, and tolerated by validation.
        tr.set_sink(SinkMode::Full.build());
        let orphan = tr.start_child(t(5), "orphan", 0, Some(late));
        assert!(tr.get(orphan).is_none());
        assert_eq!(tr.dropped(), 4);
        assert!(tr.validate_well_formed().is_ok());
    }

    #[test]
    fn disabled_sink_allocates_nothing() {
        let mut tr = SpanTracker::with_sink(Box::new(DisabledSink));
        assert!(!tr.is_enabled());
        let a = tr.start(t(0), "a", 0);
        tr.push_current(a);
        let b = tr.start(t(1), "b", 1);
        tr.pop_current();
        tr.end(t(2), b);
        tr.end(t(2), a);
        assert_eq!(a, SpanId::NONE);
        assert_eq!(b, SpanId::NONE);
        assert_eq!(tr.allocated(), 0, "no ids may be allocated when disabled");
        assert_eq!(tr.dropped(), 0);
        assert_eq!(tr.retained(), 0);
        assert_eq!(tr.current(), None, "stack must stay empty when disabled");
        assert!(tr.validate_well_formed().is_ok());
        assert!(tr.summary().is_empty());
    }

    #[test]
    fn ring_sink_keeps_a_recency_window() {
        let mut tr = SpanTracker::with_sink(Box::new(RingBufferSink::new(2)));
        let a = tr.start(t(0), "a", 0);
        let b = tr.start(t(1), "b", 0);
        let c = tr.start_child(t(2), "c", 0, Some(a));
        assert_eq!(tr.allocated(), 3);
        assert_eq!(tr.retained(), 2);
        assert_eq!(tr.dropped(), 0, "rings evict, they do not drop");
        assert_eq!(tr.evicted(), 1);
        assert!(tr.get(a).is_none());
        tr.end(t(3), b);
        tr.end(t(4), c);
        assert_eq!(tr.get(b).unwrap().end, Some(t(3)));
        // c's parent was evicted: the dangling link is tolerated.
        assert!(tr.validate_well_formed().is_ok());
        assert_eq!(tr.summary().get("b"), Some(&(1, 2)));
    }

    #[test]
    fn set_sink_swaps_backends_between_runs() {
        let mut tr = SpanTracker::new();
        tr.start(t(0), "a", 0);
        assert_eq!(tr.retained(), 1);
        tr.set_sink(SinkMode::Disabled.build());
        assert_eq!(tr.retained(), 0);
        assert_eq!(tr.start(t(1), "b", 0), SpanId::NONE);
        tr.set_sink(SinkMode::RingBuffer(4).build());
        let c = tr.start(t(2), "c", 0);
        assert_ne!(c, SpanId::NONE);
        assert_eq!(tr.sink_name(), "ring");
    }

    #[test]
    fn validation_catches_inverted_child() {
        let mut tr = SpanTracker::new();
        let p = tr.start(t(100), "p", 0);
        let c = tr.start_child(t(50), "c", 0, Some(p));
        let err = tr.validate_well_formed().unwrap_err();
        assert!(err.contains("before parent"), "{err}");
        let _ = c;
    }

    #[test]
    fn validation_catches_overrunning_child() {
        let mut tr = SpanTracker::new();
        let p = tr.start(t(0), "p", 0);
        let c = tr.start_child(t(10), "c", 0, Some(p));
        tr.end(t(20), p);
        tr.end(t(30), c);
        let err = tr.validate_well_formed().unwrap_err();
        assert!(err.contains("after parent"), "{err}");
    }

    #[test]
    fn summary_counts_closed_spans() {
        let mut tr = SpanTracker::new();
        let a = tr.start(t(0), "mail.send", 0);
        let b = tr.start(t(0), "mail.send", 1);
        let open = tr.start(t(0), "irq", 1);
        tr.end(t(100), a);
        tr.end(t(300), b);
        let s = tr.summary();
        assert_eq!(s.get("mail.send"), Some(&(2, 400)));
        assert_eq!(s.get("irq"), None);
        let _ = open;
    }
}
