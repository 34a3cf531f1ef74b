//! Spans around the benchmark's calls into the program.
//!
//! A traced run wraps each call the benchmark makes into a layer's
//! public functions in a span: name, start, end, parent, the
//! allocations made inside it, and the run id every span of one run
//! shares. Spans stay in memory and are written at the end as a Chrome
//! trace (it opens in Perfetto). An untraced run's tracer records
//! nothing and reads no clock.

use crate::adapter;
use crate::host::allocations;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// 1-based id, in opening order.
    pub id: u32,
    /// The enclosing span's id; 0 for a root.
    pub parent: u32,
    /// What was called.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was made.
    pub end_ns: u64,
    /// Heap allocations made between start and end.
    pub allocs: u64,
    /// The run this span belongs to.
    pub run_id: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// Records spans when enabled; a pass-through when not.
pub struct Tracer {
    enabled: bool,
    run_id: u64,
    origin: Instant,
    open: Vec<u32>,
    next_id: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer for run `run_id`; records only when `enabled`.
    pub fn new(enabled: bool, run_id: u64) -> Tracer {
        Tracer {
            enabled,
            run_id,
            origin: Instant::now(),
            open: Vec::new(),
            next_id: 0,
            // Reserved up front so recording rarely reallocates inside
            // a measured span.
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false, 0)
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open
    /// span. `f` gets the tracer back so it can open child spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        self.next_id += 1;
        let id = self.next_id;
        let parent = self.open.last().copied().unwrap_or(0);
        self.open.push(id);
        let allocs0 = allocations();
        let start = self.origin.elapsed();
        let out = f(self);
        let end = self.origin.elapsed();
        let allocs = allocations() - allocs0;
        self.open.pop();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            allocs,
            run_id: self.run_id,
        });
        out
    }

    /// Every closed span, in closing order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The closed spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations of the spans named `name`, in units of `unit_ns`
    /// nanoseconds (1e3 for microseconds, 1e6 for milliseconds).
    pub fn durations(&self, name: &str, unit_ns: f64) -> Vec<f64> {
        self.named(name).map(|s| s.ns() / unit_ns).collect()
    }

    /// The spans as a Chrome trace document: one complete (`X`) event
    /// per span on one thread, so Perfetto nests them by time; ids,
    /// parents, allocations and the run id ride in `args`.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::new();
        let mut w = adapter::json_writer(&mut out);
        w.begin_object();
        w.key("traceEvents");
        w.begin_array();
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by_key(|s| s.id);
        for s in spans {
            w.begin_object();
            w.key("name");
            w.str(s.name);
            w.key("ph");
            w.str("X");
            w.key("pid");
            w.u64(1);
            w.key("tid");
            w.u64(1);
            w.key("ts");
            w.f64(s.start_ns as f64 / 1e3);
            w.key("dur");
            w.f64(s.ns() / 1e3);
            w.key("args");
            w.begin_object();
            w.key("run_id");
            w.str(&format!("{:016x}", s.run_id));
            w.key("span");
            w.u64(u64::from(s.id));
            w.key("parent");
            w.u64(u64::from(s.parent));
            w.key("allocs");
            w.u64(s.allocs);
            w.end_object();
            w.end_object();
        }
        w.end_array();
        w.key("displayTimeUnit");
        w.str("ns");
        w.end_object();
        w.finish();
        out
    }
}
