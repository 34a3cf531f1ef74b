//! A simulation-time metrics registry.
//!
//! The evaluation of K2 (§9 of the paper) lives and dies on attribution:
//! which domain spent the microseconds, which subsystem generated the
//! traffic, where the energy went. This module centralises that
//! accounting. A [`Registry`] holds named counters, time-weighted gauges,
//! duration accumulators and latency histograms, each tagged with *where*
//! it was observed ([`Tag`]: a domain, a core, a domain pair, a named
//! subsystem).
//!
//! Determinism is a hard requirement (DESIGN.md §5.5): the key directory
//! is `BTreeMap`-backed so iteration order — and therefore any serialized
//! report — is a pure function of what was recorded, never of hash seeds
//! or insertion order. All time comes from the simulated clock; recording
//! a metric never perturbs event timing, so instrumented and bare runs of
//! the same seed stay cycle-identical.
//!
//! # Interning
//!
//! Values live in dense vectors; the `BTreeMap` only maps a [`Key`] to a
//! small integer id ([`CounterId`], [`DurationId`], [`GaugeId`],
//! [`HistogramId`]). A hot path interns its key once, caches the id, and
//! every subsequent bump is a bounds-checked vector index — no ordered-map
//! walk, no string comparison, no allocation. Interning a key makes the
//! metric visible to iteration immediately (counters at 0, histograms
//! empty), so callers that must keep reports free of phantom entries
//! intern lazily, at the first real observation.
//!
//! # Examples
//!
//! ```
//! use k2_sim::metrics::{Key, Registry, Tag};
//! use k2_sim::time::{SimDuration, SimTime};
//!
//! let mut r = Registry::new();
//! r.incr(Key::new("mail.sent", Tag::Domain(0)));
//! r.add(Key::new("mail.sent", Tag::Domain(1)), 2);
//! assert_eq!(r.counter_total("mail.sent"), 3);
//!
//! // Hot paths intern once and bump by id thereafter.
//! let sent0 = r.counter_id(Key::new("mail.sent", Tag::Domain(0)));
//! r.incr_by_id(sent0);
//! assert_eq!(r.counter(Key::new("mail.sent", Tag::Domain(0))), 2);
//!
//! r.add_duration(
//!     Key::new("active.task", Tag::Core(1)),
//!     SimDuration::from_us(7),
//! );
//! r.gauge_set(Key::new("runq", Tag::Core(0)), SimTime::from_ns(0), 2.0);
//! r.gauge_set(Key::new("runq", Tag::Core(0)), SimTime::from_ns(100), 0.0);
//! ```

use crate::stats::Histogram;
use crate::time::{SimDuration, SimTime};
use std::cell::Cell;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;
use std::num::NonZeroU32;

/// Where a metric was observed.
///
/// Tags order deterministically (derived `Ord`), so registry dumps are
/// stable across runs and platforms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tag {
    /// System-wide, no particular location.
    Whole,
    /// A coherence domain (0 = strong, 1 = weak in this repro).
    Domain(u8),
    /// A single core (global core id).
    Core(u8),
    /// Directed domain pair, e.g. mailbox traffic `from -> to`.
    DomainPair(u8, u8),
    /// A named subsystem (scheduler, dsm, buddy, ...).
    Subsystem(&'static str),
    /// A named subsystem on a specific core — the grain used for
    /// active-time attribution.
    CoreSubsystem(u8, &'static str),
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Tag::Whole => write!(f, "*"),
            Tag::Domain(d) => write!(f, "dom{d}"),
            Tag::Core(c) => write!(f, "core{c}"),
            Tag::DomainPair(a, b) => write!(f, "dom{a}->dom{b}"),
            Tag::Subsystem(s) => write!(f, "{s}"),
            Tag::CoreSubsystem(c, s) => write!(f, "core{c}/{s}"),
        }
    }
}

/// A metric identity: a static name plus a location [`Tag`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Metric name, dot-separated by convention (`mail.sent`).
    pub name: &'static str,
    /// Where it was observed.
    pub tag: Tag,
}

impl Key {
    /// Builds a key.
    pub fn new(name: &'static str, tag: Tag) -> Self {
        Key { name, tag }
    }

    /// Shorthand for an untagged (system-wide) key.
    pub fn whole(name: &'static str) -> Self {
        Key::new(name, Tag::Whole)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.name, self.tag)
    }
}

/// Interned handle to a counter. Bumping by id is a vector index.
///
/// Every id type stores its index plus one, so an `Option` of an id is
/// as small as the id: per-machine id caches stay at four bytes a slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(NonZeroU32);

/// Interned handle to a duration accumulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DurationId(NonZeroU32);

/// Interned handle to a time-weighted gauge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(NonZeroU32);

/// Interned handle to a histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramId(NonZeroU32);

/// A gauge whose *time integral* is tracked alongside its instantaneous
/// value: `set` closes the interval since the previous `set` at the old
/// value, so `time_average` is exact for step functions (run-queue depth,
/// pages ballooned, links in flight).
#[derive(Clone, Copy, Debug)]
pub struct TimeWeightedGauge {
    value: f64,
    since: SimTime,
    started: SimTime,
    integral: f64,
    min: f64,
    max: f64,
}

impl TimeWeightedGauge {
    fn new(at: SimTime, value: f64) -> Self {
        TimeWeightedGauge {
            value,
            since: at,
            started: at,
            integral: 0.0,
            min: value,
            max: value,
        }
    }

    fn set(&mut self, at: SimTime, value: f64) {
        self.integral += self.value * at.saturating_since(self.since).as_secs_f64();
        self.since = at;
        self.value = value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Instantaneous value as of the last `set`.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Smallest value ever set.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest value ever set.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Time-weighted average over `[first set, now]` (the current value
    /// extends to `now`). Returns the current value for an empty window.
    pub fn time_average(&self, now: SimTime) -> f64 {
        let window = now.saturating_since(self.started).as_secs_f64();
        if window <= 0.0 {
            return self.value;
        }
        let tail = self.value * now.saturating_since(self.since).as_secs_f64();
        (self.integral + tail) / window
    }
}

/// A counter sharded by domain: hot paths bump their own domain's shard
/// without contending on (or even knowing about) a global total, and the
/// total is *defined* as the shard sum — the conservation law the
/// property suite checks.
///
/// Read-heavy consumers (the conservation oracles read each counter once
/// per explored schedule) get the fold for free after the first read: the
/// total is cached in a [`Cell`] and invalidated on write, so repeated
/// [`ShardedCounter::total`] calls between writes cost one load instead
/// of a shard walk.
#[derive(Clone, Debug, Default)]
pub struct ShardedCounter {
    shards: BTreeMap<u8, u64>,
    /// Folded total, `None` after any write (interior mutability so
    /// `total(&self)` can fill it on a shared reference).
    folded: Cell<Option<u64>>,
}

impl ShardedCounter {
    /// Creates an empty sharded counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to `domain`'s shard (invalidates the cached total).
    pub fn add(&mut self, domain: u8, n: u64) {
        self.folded.set(None);
        *self.shards.entry(domain).or_insert(0) += n;
    }

    /// One domain's contribution.
    pub fn shard(&self, domain: u8) -> u64 {
        self.shards.get(&domain).copied().unwrap_or(0)
    }

    /// The total across all shards (cached between writes).
    pub fn total(&self) -> u64 {
        if let Some(t) = self.folded.get() {
            return t;
        }
        let t = self.shards.values().sum();
        self.folded.set(Some(t));
        t
    }

    /// Iterates `(domain, count)` in domain order.
    pub fn shards(&self) -> impl Iterator<Item = (u8, u64)> + '_ {
        self.shards.iter().map(|(&d, &n)| (d, n))
    }
}

/// The registry: all counters, gauges, duration accumulators and
/// histograms of one simulated machine.
///
/// Values sit in dense vectors indexed by interned ids; the ordered key
/// directory exists only for interning, point lookups and deterministic
/// iteration. Hot paths cache the id from `*_id()` and bump through
/// `*_by_id()`; occasional paths keep using the [`Key`]-based methods,
/// which intern on the fly.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    counter_ids: BTreeMap<Key, CounterId>,
    counter_values: Vec<u64>,
    duration_ids: BTreeMap<Key, DurationId>,
    duration_values: Vec<SimDuration>,
    gauge_ids: BTreeMap<Key, GaugeId>,
    gauge_values: Vec<TimeWeightedGauge>,
    histogram_ids: BTreeMap<Key, HistogramId>,
    histogram_values: Vec<Histogram>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `key` as a counter (creating it at 0) and returns its id.
    /// Idempotent: re-interning returns the same id.
    pub fn counter_id(&mut self, key: Key) -> CounterId {
        match self.counter_ids.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let id = CounterId(dense_index(self.counter_values.len()));
                self.counter_values.push(0);
                *e.insert(id)
            }
        }
    }

    /// Adds `n` to an interned counter. O(1), no key walk.
    pub fn add_by_id(&mut self, id: CounterId, n: u64) {
        self.counter_values[slot(id.0)] += n;
    }

    /// Adds one to an interned counter.
    pub fn incr_by_id(&mut self, id: CounterId) {
        self.add_by_id(id, 1);
    }

    /// Adds `n` to the counter at `key`, interning it if new.
    pub fn add(&mut self, key: Key, n: u64) {
        let id = self.counter_id(key);
        self.add_by_id(id, n);
    }

    /// Adds one to the counter at `key`.
    pub fn incr(&mut self, key: Key) {
        self.add(key, 1);
    }

    /// Adds `n` to the counter at `key` through a caller-owned id cache:
    /// the first call interns `key` into `slot`, every later call is a
    /// vector index with no key walk. A slot stays `None` until the
    /// first real bump, so a cache never creates a zero-valued entry and
    /// keys are interned in the same order as through [`Registry::add`].
    pub fn add_cached(&mut self, slot: &mut Option<CounterId>, key: Key, n: u64) {
        let id = *slot.get_or_insert_with(|| self.counter_id(key));
        self.add_by_id(id, n);
    }

    /// Current value of the counter at `key` (0 if never touched).
    pub fn counter(&self, key: Key) -> u64 {
        self.counter_ids
            .get(&key)
            .map(|id| self.counter_values[slot(id.0)])
            .unwrap_or(0)
    }

    /// Sum of all counters named `name`, across every tag — the registry
    /// analogue of [`ShardedCounter::total`].
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counter_ids
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, id)| self.counter_values[slot(id.0)])
            .sum()
    }

    /// Interns `key` as a duration accumulator (creating it at zero) and
    /// returns its id.
    pub fn duration_id(&mut self, key: Key) -> DurationId {
        match self.duration_ids.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let id = DurationId(dense_index(self.duration_values.len()));
                self.duration_values.push(SimDuration::ZERO);
                *e.insert(id)
            }
        }
    }

    /// Accumulates a duration into an interned accumulator. O(1).
    pub fn add_duration_by_id(&mut self, id: DurationId, d: SimDuration) {
        self.duration_values[slot(id.0)] += d;
    }

    /// Accumulates a simulated-time duration at `key` (the attribution
    /// primitive: "this core spent `d` in subsystem X").
    pub fn add_duration(&mut self, key: Key, d: SimDuration) {
        let id = self.duration_id(key);
        self.add_duration_by_id(id, d);
    }

    /// [`Registry::add_duration`] through a caller-owned id cache (see
    /// [`Registry::add_cached`]).
    pub fn add_duration_cached(&mut self, slot: &mut Option<DurationId>, key: Key, d: SimDuration) {
        let id = *slot.get_or_insert_with(|| self.duration_id(key));
        self.add_duration_by_id(id, d);
    }

    /// Total duration accumulated at `key`.
    pub fn duration(&self, key: Key) -> SimDuration {
        self.duration_ids
            .get(&key)
            .map(|id| self.duration_values[slot(id.0)])
            .unwrap_or(SimDuration::ZERO)
    }

    /// Sets the gauge at `key`, closing the previous interval at `at`, and
    /// returns the gauge's id so hot paths can switch to
    /// [`Registry::gauge_set_by_id`] for subsequent sets.
    pub fn gauge_set(&mut self, key: Key, at: SimTime, value: f64) -> GaugeId {
        match self.gauge_ids.entry(key) {
            Entry::Vacant(e) => {
                let id = GaugeId(dense_index(self.gauge_values.len()));
                self.gauge_values.push(TimeWeightedGauge::new(at, value));
                *e.insert(id)
            }
            Entry::Occupied(e) => {
                let id = *e.get();
                self.gauge_values[slot(id.0)].set(at, value);
                id
            }
        }
    }

    /// Sets an interned gauge. O(1).
    pub fn gauge_set_by_id(&mut self, id: GaugeId, at: SimTime, value: f64) {
        self.gauge_values[slot(id.0)].set(at, value);
    }

    /// The gauge at `key`, if ever set.
    pub fn gauge(&self, key: Key) -> Option<&TimeWeightedGauge> {
        self.gauge_ids
            .get(&key)
            .map(|id| &self.gauge_values[slot(id.0)])
    }

    /// Interns `key` as a histogram (creating it empty) and returns its id.
    pub fn histogram_id(&mut self, key: Key) -> HistogramId {
        match self.histogram_ids.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let id = HistogramId(dense_index(self.histogram_values.len()));
                self.histogram_values.push(Histogram::default());
                *e.insert(id)
            }
        }
    }

    /// Records a sample into an interned histogram. O(1) beyond bucketing.
    pub fn observe_by_id(&mut self, id: HistogramId, value: u64) {
        self.histogram_values[slot(id.0)].record(value);
    }

    /// Records a duration sample (in nanoseconds) into an interned
    /// histogram.
    pub fn observe_duration_by_id(&mut self, id: HistogramId, d: SimDuration) {
        self.observe_by_id(id, d.as_ns());
    }

    /// Records a sample into the histogram at `key`.
    pub fn observe(&mut self, key: Key, value: u64) {
        let id = self.histogram_id(key);
        self.observe_by_id(id, value);
    }

    /// Records a duration sample (in nanoseconds) into the histogram at
    /// `key`.
    pub fn observe_duration(&mut self, key: Key, d: SimDuration) {
        self.observe(key, d.as_ns());
    }

    /// [`Registry::observe_duration`] through a caller-owned id cache
    /// (see [`Registry::add_cached`]).
    pub fn observe_duration_cached(
        &mut self,
        slot: &mut Option<HistogramId>,
        key: Key,
        d: SimDuration,
    ) {
        let id = *slot.get_or_insert_with(|| self.histogram_id(key));
        self.observe_duration_by_id(id, d);
    }

    /// The histogram at `key`, if any sample landed there.
    pub fn histogram(&self, key: Key) -> Option<&Histogram> {
        self.histogram_ids
            .get(&key)
            .map(|id| &self.histogram_values[slot(id.0)])
    }

    /// All counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&Key, u64)> + '_ {
        self.counter_ids
            .iter()
            .map(|(k, id)| (k, self.counter_values[slot(id.0)]))
    }

    /// All duration accumulators in key order.
    pub fn durations(&self) -> impl Iterator<Item = (&Key, SimDuration)> + '_ {
        self.duration_ids
            .iter()
            .map(|(k, id)| (k, self.duration_values[slot(id.0)]))
    }

    /// All gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&Key, &TimeWeightedGauge)> + '_ {
        self.gauge_ids
            .iter()
            .map(|(k, id)| (k, &self.gauge_values[slot(id.0)]))
    }

    /// All histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&Key, &Histogram)> + '_ {
        self.histogram_ids
            .iter()
            .map(|(k, id)| (k, &self.histogram_values[slot(id.0)]))
    }

    /// Folds the registry's complete state — every key directory and
    /// every value vector, in deterministic key order — into a snapshot
    /// digest. Two registries with equal digests render identical
    /// reports and keep evolving identically.
    pub fn digest_into(&self, h: &mut crate::digest::Fnv64) {
        fn fold_key(h: &mut crate::digest::Fnv64, k: &Key) {
            h.str(k.name);
            match k.tag {
                Tag::Whole => {
                    h.u32(0);
                }
                Tag::Domain(d) => {
                    h.u32(1).bytes(&[d]);
                }
                Tag::Core(c) => {
                    h.u32(2).bytes(&[c]);
                }
                Tag::DomainPair(a, b) => {
                    h.u32(3).bytes(&[a, b]);
                }
                Tag::Subsystem(s) => {
                    h.u32(4).str(s);
                }
                Tag::CoreSubsystem(c, s) => {
                    h.u32(5).bytes(&[c]).str(s);
                }
            }
        }
        h.usize(self.counter_ids.len());
        for (k, v) in self.counters() {
            fold_key(h, k);
            h.u64(v);
        }
        h.usize(self.duration_ids.len());
        for (k, d) in self.durations() {
            fold_key(h, k);
            h.u64(d.as_ns());
        }
        h.usize(self.gauge_ids.len());
        for (k, g) in self.gauges() {
            fold_key(h, k);
            h.f64(g.value)
                .u64(g.since.as_ns())
                .u64(g.started.as_ns())
                .f64(g.integral)
                .f64(g.min)
                .f64(g.max);
        }
        h.usize(self.histogram_ids.len());
        for (k, hist) in self.histograms() {
            fold_key(h, k);
            hist.digest_into(h);
        }
    }

    /// Durations named `name`, restricted to core `core`
    /// (`Tag::CoreSubsystem`), as `(subsystem, total)` pairs in
    /// subsystem order — the per-core attribution table reports render.
    /// Borrows `name` for the iterator's lifetime; no per-row allocation.
    pub fn core_breakdown<'a>(
        &'a self,
        name: &'a str,
        core: u8,
    ) -> impl Iterator<Item = (&'static str, SimDuration)> + 'a {
        self.duration_ids
            .iter()
            .filter_map(move |(k, id)| match k.tag {
                Tag::CoreSubsystem(c, s) if c == core && k.name == name => {
                    Some((s, self.duration_values[slot(id.0)]))
                }
                _ => None,
            })
    }
}

/// Converts a dense vector length into the next id (index plus one),
/// guarding the u32 id space (four billion distinct keys means
/// something is very wrong).
fn dense_index(len: usize) -> NonZeroU32 {
    u32::try_from(len + 1)
        .ok()
        .and_then(NonZeroU32::new)
        .expect("metric id space exhausted")
}

/// The value-vector index an id stores (see [`dense_index`]).
fn slot(id: NonZeroU32) -> usize {
    id.get() as usize - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_tag_independently_and_total() {
        let mut r = Registry::new();
        r.incr(Key::new("mail", Tag::Domain(0)));
        r.add(Key::new("mail", Tag::Domain(1)), 4);
        r.incr(Key::new("irq", Tag::Domain(0)));
        assert_eq!(r.counter(Key::new("mail", Tag::Domain(0))), 1);
        assert_eq!(r.counter(Key::new("mail", Tag::Domain(1))), 4);
        assert_eq!(r.counter_total("mail"), 5);
        assert_eq!(r.counter_total("irq"), 1);
        assert_eq!(r.counter_total("nope"), 0);
    }

    #[test]
    fn interned_ids_alias_their_key() {
        let mut r = Registry::new();
        let k = Key::new("mail", Tag::Domain(0));
        let id = r.counter_id(k);
        assert_eq!(r.counter(k), 0, "interning creates the counter at zero");
        r.incr_by_id(id);
        r.add_by_id(id, 2);
        r.incr(k);
        assert_eq!(r.counter(k), 4, "by-id and by-key bumps hit one cell");
        assert_eq!(r.counter_id(k), id, "re-interning is idempotent");

        let d = r.duration_id(Key::whole("busy"));
        r.add_duration_by_id(d, SimDuration::from_us(2));
        r.add_duration(Key::whole("busy"), SimDuration::from_us(3));
        assert_eq!(r.duration(Key::whole("busy")), SimDuration::from_us(5));

        let h = r.histogram_id(Key::whole("lat"));
        r.observe_by_id(h, 10);
        r.observe_duration_by_id(h, SimDuration::from_us(1));
        r.observe(Key::whole("lat"), 20);
        assert_eq!(r.histogram(Key::whole("lat")).unwrap().count(), 3);
    }

    #[test]
    fn gauge_set_returns_a_reusable_id() {
        let mut r = Registry::new();
        let k = Key::new("runq", Tag::Core(0));
        let id = r.gauge_set(k, SimTime::from_ns(0), 2.0);
        r.gauge_set_by_id(id, SimTime::from_ns(500), 4.0);
        assert_eq!(
            r.gauge_set(k, SimTime::from_ns(800), 1.0),
            id,
            "by-key set on an existing gauge returns the same id"
        );
        let g = r.gauge(k).unwrap();
        assert_eq!(g.value(), 1.0);
        assert_eq!(g.max(), 4.0);
    }

    #[test]
    fn durations_accumulate() {
        let mut r = Registry::new();
        let k = Key::new("active", Tag::CoreSubsystem(2, "task"));
        r.add_duration(k, SimDuration::from_us(3));
        r.add_duration(k, SimDuration::from_us(4));
        assert_eq!(r.duration(k), SimDuration::from_us(7));
        let rows: Vec<_> = r.core_breakdown("active", 2).collect();
        assert_eq!(rows, vec![("task", SimDuration::from_us(7))]);
        assert_eq!(r.core_breakdown("active", 3).count(), 0);
    }

    #[test]
    fn gauge_time_average_is_exact_for_steps() {
        let mut r = Registry::new();
        let k = Key::new("runq", Tag::Core(0));
        r.gauge_set(k, SimTime::from_ns(0), 2.0);
        r.gauge_set(k, SimTime::from_ns(500), 4.0);
        let g = r.gauge(k).unwrap();
        // 2.0 for 500 ns, then 4.0 for 500 ns -> average 3.0.
        assert!((g.time_average(SimTime::from_ns(1000)) - 3.0).abs() < 1e-12);
        assert_eq!(g.value(), 4.0);
        assert_eq!(g.min(), 2.0);
        assert_eq!(g.max(), 4.0);
    }

    #[test]
    fn gauge_empty_window_returns_value() {
        let mut r = Registry::new();
        let k = Key::whole("x");
        r.gauge_set(k, SimTime::from_ns(10), 7.0);
        assert_eq!(r.gauge(k).unwrap().time_average(SimTime::from_ns(10)), 7.0);
    }

    #[test]
    fn histograms_record() {
        let mut r = Registry::new();
        let k = Key::new("lat", Tag::Subsystem("dsm"));
        r.observe(k, 100);
        r.observe_duration(k, SimDuration::from_us(1));
        assert_eq!(r.histogram(k).unwrap().count(), 2);
        assert!(r.histogram(Key::whole("lat")).is_none());
    }

    #[test]
    fn sharded_counter_total_is_shard_sum() {
        let mut c = ShardedCounter::new();
        c.add(0, 3);
        c.add(1, 4);
        c.add(0, 5);
        assert_eq!(c.shard(0), 8);
        assert_eq!(c.shard(1), 4);
        assert_eq!(c.shard(9), 0);
        assert_eq!(c.total(), 12);
        let shards: Vec<_> = c.shards().collect();
        assert_eq!(shards, vec![(0, 8), (1, 4)]);
    }

    #[test]
    fn sharded_counter_fold_cache_invalidates_on_write() {
        let mut c = ShardedCounter::new();
        assert_eq!(c.total(), 0);
        c.add(0, 3);
        assert_eq!(c.total(), 3);
        assert_eq!(c.total(), 3, "cached read must match");
        c.add(1, 4);
        assert_eq!(c.total(), 7, "write must invalidate the cache");
        // Clones carry the cache state but stay independent.
        let snap = c.clone();
        c.add(0, 1);
        assert_eq!(snap.total(), 7);
        assert_eq!(c.total(), 8);
    }

    #[test]
    fn keys_order_deterministically() {
        let mut r = Registry::new();
        r.incr(Key::new("b", Tag::Domain(1)));
        r.incr(Key::new("a", Tag::Core(3)));
        r.incr(Key::new("a", Tag::Domain(0)));
        let names: Vec<String> = r.counters().map(|(k, _)| k.to_string()).collect();
        assert_eq!(names, vec!["a[dom0]", "a[core3]", "b[dom1]"]);
    }

    /// Iteration order is key order even when interning happened in a
    /// different order — dense ids are storage, not ordering.
    #[test]
    fn iteration_order_is_key_order_not_intern_order() {
        let mut r = Registry::new();
        let _z = r.counter_id(Key::new("z", Tag::Whole));
        let _a = r.counter_id(Key::new("a", Tag::Whole));
        let names: Vec<&str> = r.counters().map(|(k, _)| k.name).collect();
        assert_eq!(names, vec!["a", "z"]);
    }
}
