//! PR 4 throughput bench: slab event queue vs the old HashSet design,
//! and serial vs parallel schedule exploration.
//!
//! Emits `BENCH_pr4.json` (hand-rolled JSON, no deps) into the current
//! directory. The queue microbench runs twice and reports the two-run
//! median, which halves runner noise and lets the regression gate sit
//! tighter: with `--check <baseline.json>` it compares the measured slab
//! events/sec against the committed baseline and exits nonzero on a
//! regression of more than 15% — the CI smoke gate.
//!
//! The "before" comparator for the queue microbench is a faithful inline
//! copy of the pre-slab implementation (twin `HashSet` lazy cancellation,
//! allocating `pop_with`), so the events/sec improvement is measured, not
//! estimated, even though the old code no longer exists in the tree.

use k2_check::{Explorer, Scenario};
use k2_sim::queue::EventQueue;
use k2_sim::rng::SimRng;
use k2_sim::time::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts every heap allocation so the microbench can report allocations
/// avoided as a measured number.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Reference queue: the pre-slab implementation, reproduced verbatim in
// shape (heap of owned entries + `live`/`cancelled` HashSets, `pop_with`
// draining into fresh Vecs every call).
// ---------------------------------------------------------------------------

struct RefEntry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for RefEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for RefEntry<E> {}
impl<E> PartialOrd for RefEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for RefEntry<E> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct RefQueue<E> {
    heap: BinaryHeap<RefEntry<E>>,
    next_seq: u64,
    live: HashSet<u64>,
    cancelled: HashSet<u64>,
}

impl<E> RefQueue<E> {
    fn new() -> Self {
        RefQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            live: HashSet::new(),
            cancelled: HashSet::new(),
        }
    }

    fn schedule(&mut self, at: SimTime, payload: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live.insert(seq);
        self.heap.push(RefEntry { at, seq, payload });
        seq
    }

    fn cancel(&mut self, key: u64) -> bool {
        if self.live.remove(&key) {
            self.cancelled.insert(key);
            true
        } else {
            false
        }
    }

    fn skip_cancelled(&mut self) {
        while let Some(e) = self.heap.peek() {
            if self.cancelled.remove(&e.seq) {
                self.heap.pop();
            } else {
                break;
            }
        }
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.skip_cancelled();
        self.heap.peek().map(|e| e.at)
    }

    fn co_enabled_len(&mut self) -> usize {
        let Some(front) = self.peek_time() else {
            return 0;
        };
        self.heap
            .iter()
            .filter(|e| e.at == front && !self.cancelled.contains(&e.seq))
            .count()
    }

    fn pop_with(&mut self, choose: impl FnOnce(SimTime, &[&E]) -> usize) -> Option<(SimTime, E)> {
        let front = self.peek_time()?;
        let mut set: Vec<RefEntry<E>> = Vec::new();
        while let Some(e) = self.heap.peek() {
            if e.at != front {
                break;
            }
            let e = self.heap.pop().expect("peeked");
            if !self.cancelled.remove(&e.seq) {
                set.push(e);
            }
        }
        set.sort_by_key(|e| e.seq);
        let idx = if set.len() == 1 {
            0
        } else {
            let views: Vec<&E> = set.iter().map(|e| &e.payload).collect();
            choose(front, &views)
        };
        assert!(idx < set.len(), "chooser out of range");
        let chosen = set.swap_remove(idx);
        for e in set {
            self.heap.push(e);
        }
        self.live.remove(&chosen.seq);
        Some((front, chosen.payload))
    }
}

// ---------------------------------------------------------------------------
// Queue microbench
// ---------------------------------------------------------------------------

/// Rounds of the churn workload. Both queues run the byte-identical
/// schedule/cancel/pop sequence (same RNG seed and stream).
const CHURN_ROUNDS: u64 = 60_000;

struct MicroResult {
    events: u64,
    secs: f64,
    allocs: u64,
}

impl MicroResult {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.secs
    }
}

/// Two-run reduction. The fired-event counts are identical by
/// construction (same seed, same churn); the measured seconds take the
/// mid-point of the two runs — the two-run median — and the allocation
/// count the lower run (allocations are deterministic; any excess is
/// allocator bookkeeping from outside the workload).
fn median2(a: MicroResult, b: MicroResult) -> MicroResult {
    assert_eq!(a.events, b.events, "churn workload must be deterministic");
    MicroResult {
        events: a.events,
        secs: (a.secs + b.secs) / 2.0,
        allocs: a.allocs.min(b.allocs),
    }
}

/// The churn workload against the slab queue. Each round schedules a
/// burst that deliberately collides on quantised timestamps (creating
/// real co-enabled sets, as the simulator's IRQ/mail storms do), cancels
/// a slice of the backlog, then drains a few events through `pop_with`
/// with a rotating choice. `churn_ref` must mirror this loop exactly.
fn churn_slab(q: &mut EventQueue<u64>) -> u64 {
    let mut rng = SimRng::seed_from_stream(0xB04, 7);
    let mut fired = 0u64;
    let mut backlog = Vec::with_capacity(64);
    for round in 0..CHURN_ROUNDS {
        let base = round * 16;
        for burst in 0..4 {
            let at = SimTime::from_ns(base + rng.gen_range(4) * 4);
            backlog.push(q.schedule(at, round * 8 + burst));
        }
        if backlog.len() > 32 {
            for _ in 0..8 {
                let i = rng.gen_range(backlog.len() as u64) as usize;
                let k = backlog.swap_remove(i);
                q.cancel(k);
            }
        }
        for _ in 0..3 {
            let pick = (round % 3) as usize;
            if q.pop_with(|_, set| pick.min(set.len() - 1)).is_some() {
                fired += 1;
            }
        }
    }
    // Drain the tail so both queues end empty.
    while q.pop_with(|_, _| 0).is_some() {
        fired += 1;
    }
    fired
}

/// The identical workload against the reference queue, including the
/// `co_enabled_len()` scan its real callers performed before every
/// `pop_with` — part of the cost the slab design removes.
fn churn_ref(q: &mut RefQueue<u64>) -> u64 {
    let mut rng = SimRng::seed_from_stream(0xB04, 7);
    let mut fired = 0u64;
    let mut backlog = Vec::with_capacity(64);
    for round in 0..CHURN_ROUNDS {
        let base = round * 16;
        for burst in 0..4 {
            let at = SimTime::from_ns(base + rng.gen_range(4) * 4);
            backlog.push(q.schedule(at, round * 8 + burst));
        }
        if backlog.len() > 32 {
            for _ in 0..8 {
                let i = rng.gen_range(backlog.len() as u64) as usize;
                let k = backlog.swap_remove(i);
                q.cancel(k);
            }
        }
        for _ in 0..3 {
            let pick = (round % 3) as usize;
            let _ = q.co_enabled_len();
            if q.pop_with(|_, set| pick.min(set.len() - 1)).is_some() {
                fired += 1;
            }
        }
    }
    while {
        let _ = q.co_enabled_len();
        q.pop_with(|_, _| 0).is_some()
    } {
        fired += 1;
    }
    fired
}

fn bench_slab_queue() -> MicroResult {
    let mut q: EventQueue<u64> = EventQueue::new();
    let allocs_before = allocations();
    let start = Instant::now();
    let fired = churn_slab(&mut q);
    let secs = start.elapsed().as_secs_f64();
    MicroResult {
        events: fired,
        secs,
        allocs: allocations() - allocs_before,
    }
}

fn bench_ref_queue() -> MicroResult {
    let mut q: RefQueue<u64> = RefQueue::new();
    let allocs_before = allocations();
    let start = Instant::now();
    let fired = churn_ref(&mut q);
    let secs = start.elapsed().as_secs_f64();
    MicroResult {
        events: fired,
        secs,
        allocs: allocations() - allocs_before,
    }
}

// ---------------------------------------------------------------------------
// Exploration bench
// ---------------------------------------------------------------------------

const EXPLORE_SEED: u64 = 2_014;
const EXPLORE_BUDGET: u32 = 48;

struct ExploreResult {
    name: &'static str,
    serial_secs: f64,
    parallel_secs: f64,
    runs: u32,
    threads: usize,
}

/// A report reduced to its observable fields, for the serial-vs-parallel
/// identity assertion.
fn fingerprint(r: &k2_check::ExplorationReport) -> (u32, usize, u64, Vec<String>) {
    let failures = r
        .failures
        .iter()
        .map(|f| format!("{}:{}:{}", f.policy, f.kind, f.schedule.token()))
        .collect();
    (
        r.runs,
        r.distinct_schedules,
        r.total_choice_points,
        failures,
    )
}

fn bench_exploration(scenario: Scenario, workers: usize) -> ExploreResult {
    let serial_start = Instant::now();
    let serial = Explorer::new(scenario, EXPLORE_SEED)
        .budget(EXPLORE_BUDGET)
        .threads(1)
        .run();
    let serial_secs = serial_start.elapsed().as_secs_f64();

    let parallel_start = Instant::now();
    let parallel = Explorer::new(scenario, EXPLORE_SEED)
        .budget(EXPLORE_BUDGET)
        .threads(workers)
        .run();
    let parallel_secs = parallel_start.elapsed().as_secs_f64();

    assert_eq!(
        fingerprint(&serial),
        fingerprint(&parallel),
        "{}: parallel exploration diverged from serial",
        scenario.name()
    );

    ExploreResult {
        name: scenario.name(),
        serial_secs,
        parallel_secs,
        runs: serial.runs,
        threads: parallel.threads,
    }
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

fn render_json(slab: &MicroResult, old: &MicroResult, explore: &[ExploreResult]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"pr4\",\n");
    s.push_str("  \"queue_microbench\": {\n");
    s.push_str(&format!("    \"events\": {},\n", slab.events));
    s.push_str(&format!(
        "    \"slab_events_per_sec\": {:.0},\n",
        slab.events_per_sec()
    ));
    s.push_str(&format!(
        "    \"hashset_events_per_sec\": {:.0},\n",
        old.events_per_sec()
    ));
    s.push_str(&format!(
        "    \"speedup\": {:.2},\n",
        slab.events_per_sec() / old.events_per_sec()
    ));
    s.push_str(&format!("    \"slab_allocations\": {},\n", slab.allocs));
    s.push_str(&format!("    \"hashset_allocations\": {},\n", old.allocs));
    s.push_str(&format!(
        "    \"allocations_avoided\": {}\n",
        old.allocs.saturating_sub(slab.allocs)
    ));
    s.push_str("  },\n");
    s.push_str("  \"exploration\": {\n");
    s.push_str(&format!("    \"seed\": {EXPLORE_SEED},\n"));
    s.push_str(&format!("    \"budget\": {EXPLORE_BUDGET},\n"));
    s.push_str(&format!(
        "    \"threads\": {},\n",
        explore.first().map_or(1, |e| e.threads)
    ));
    s.push_str("    \"scenarios\": [\n");
    for (i, e) in explore.iter().enumerate() {
        let comma = if i + 1 == explore.len() { "" } else { "," };
        s.push_str(&format!(
            "      {{\"name\": \"{}\", \"serial_schedules_per_sec\": {:.1}, \"parallel_schedules_per_sec\": {:.1}, \"speedup\": {:.2}}}{}\n",
            e.name,
            e.runs as f64 / e.serial_secs,
            e.runs as f64 / e.parallel_secs,
            e.serial_secs / e.parallel_secs,
            comma,
        ));
    }
    s.push_str("    ],\n");
    let serial_total: f64 = explore.iter().map(|e| e.serial_secs).sum();
    let parallel_total: f64 = explore.iter().map(|e| e.parallel_secs).sum();
    let total_runs: u32 = explore.iter().map(|e| e.runs).sum();
    s.push_str(&format!(
        "    \"serial_schedules_per_sec\": {:.1},\n",
        total_runs as f64 / serial_total
    ));
    s.push_str(&format!(
        "    \"parallel_schedules_per_sec\": {:.1},\n",
        total_runs as f64 / parallel_total
    ));
    s.push_str(&format!(
        "    \"speedup\": {:.2}\n",
        serial_total / parallel_total
    ));
    s.push_str("  }\n");
    s.push_str("}\n");
    s
}

/// Pulls `"key": <number>` out of the hand-rolled JSON. Good enough for
/// the one file this binary itself writes.
fn extract_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check_path = args
        .iter()
        .position(|a| a == "--check")
        .map(|i| args.get(i + 1).expect("--check takes a path").clone());

    eprintln!("queue microbench ({CHURN_ROUNDS} churn rounds, two-run median)...");
    // Interleave a warm-up of each before timing, so neither queue pays
    // first-touch costs inside its measured window. Then measure each
    // queue twice, interleaved, and keep the two-run median — this is
    // what lets the CI gate tighten from 25% to 15%.
    let _ = bench_slab_queue();
    let _ = bench_ref_queue();
    let slab = median2(bench_slab_queue(), bench_slab_queue());
    let old = median2(bench_ref_queue(), bench_ref_queue());
    assert_eq!(
        slab.events, old.events,
        "both queues must fire the identical churn workload"
    );
    eprintln!(
        "  slab:    {:>12.0} events/sec ({} allocations)",
        slab.events_per_sec(),
        slab.allocs
    );
    eprintln!(
        "  hashset: {:>12.0} events/sec ({} allocations)",
        old.events_per_sec(),
        old.allocs
    );

    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("exploration bench (budget {EXPLORE_BUDGET}, {workers} workers)...");
    let explore: Vec<ExploreResult> = Scenario::ALL
        .iter()
        .map(|&s| {
            let r = bench_exploration(s, workers);
            eprintln!(
                "  {:<18} serial {:>6.2}s  parallel {:>6.2}s",
                r.name, r.serial_secs, r.parallel_secs
            );
            r
        })
        .collect();

    let json = render_json(&slab, &old, &explore);
    std::fs::write("BENCH_pr4.json", &json).expect("write BENCH_pr4.json");
    eprintln!("wrote BENCH_pr4.json");

    if let Some(path) = check_path {
        let baseline = std::fs::read_to_string(&path).expect("read baseline");
        let base = extract_number(&baseline, "slab_events_per_sec")
            .expect("baseline has slab_events_per_sec");
        let now = slab.events_per_sec();
        eprintln!("regression check vs {path}: baseline {base:.0}, current {now:.0}");
        if now < base * 0.85 {
            eprintln!("FAIL: slab queue events/sec regressed more than 15%");
            std::process::exit(1);
        }
        eprintln!("OK: within the 15% regression budget");
    }
}
