//! Streaming Chrome trace-event export.
//!
//! Renders spans and sampled counters in the Trace Event Format consumed
//! by Perfetto and `chrome://tracing`: a JSON object whose `traceEvents`
//! array holds one record per event. The writer streams — each event is
//! serialized the moment it is emitted through the underlying
//! [`JsonWriter`], so exporting tens of thousands of spans never builds
//! an intermediate tree.
//!
//! Field mapping (DESIGN.md §5.5): the *process* id (`pid`) is the K2
//! coherence domain, the *thread* id (`tid`) is a per-domain track chosen
//! by the caller (the platform maps span kinds to tracks), `ts`/`dur` are
//! microseconds (fractional, so nanosecond precision survives), `"X"`
//! complete events carry spans, `"C"` counter events carry gauge/energy
//! samples, and `"M"` metadata events name the domain processes and
//! tracks. Output is deterministic: fixed key order, fixed float
//! notation, no wall clock.
//!
//! Multi-machine documents namespace the pid space: [`set_machine`]
//! offsets every subsequent pid by `machine ×` [`PID_STRIDE`], so a
//! fleet trace loads in Perfetto as one track group per device while a
//! single-machine export (base 0) is byte-identical to the
//! pre-namespaced format.
//!
//! [`set_machine`]: ChromeTraceWriter::set_machine
//!
//! # Examples
//!
//! ```
//! use k2_sim::export::ChromeTraceWriter;
//! use k2_sim::json::Json;
//!
//! let mut out = String::new();
//! let mut w = ChromeTraceWriter::new(&mut out);
//! w.metadata_process_name(0, "domain0");
//! w.complete("irq", "span", 0, 2, (1_500, 800), &[("id", 7)]);
//! w.counter("energy_mj", 0, 2_300, &[("domain0", 1.25)]);
//! w.finish();
//! let doc = Json::parse(&out).unwrap();
//! assert_eq!(doc.get("traceEvents").and_then(Json::as_array).unwrap().len(), 3);
//! ```

use crate::json::JsonWriter;
use std::fmt;

/// Pid block size reserved per machine in a multi-machine trace. One
/// machine has far fewer domains than this, so `machine * PID_STRIDE +
/// domain` never collides across machines.
pub const PID_STRIDE: u64 = 16;

/// Incremental writer for the Chrome trace-event JSON format. See the
/// module docs for the field mapping. Generic over any
/// [`fmt::Write`] target (default `String`); wrap a file in
/// [`IoAdapter`](crate::json::IoAdapter) to stream multi-hour traces to
/// disk without staging them in memory.
pub struct ChromeTraceWriter<'a, W: fmt::Write + ?Sized = String> {
    w: JsonWriter<'a, W>,
    events: u64,
    pid_base: u64,
}

impl<W: fmt::Write + ?Sized> fmt::Debug for ChromeTraceWriter<'_, W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChromeTraceWriter")
            .field("events", &self.events)
            .finish_non_exhaustive()
    }
}

impl<'a, W: fmt::Write + ?Sized> ChromeTraceWriter<'a, W> {
    /// Starts a trace document (opens the `traceEvents` array).
    pub fn new(out: &'a mut W) -> Self {
        let mut w = JsonWriter::compact(out);
        w.begin_object();
        w.key("traceEvents");
        w.begin_array();
        ChromeTraceWriter {
            w,
            events: 0,
            pid_base: 0,
        }
    }

    /// Events emitted so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Switches every subsequent event into machine `machine`'s pid
    /// block (`machine ×` [`PID_STRIDE`]). Callers keep passing
    /// per-machine pids (domain indices); the offset is applied here so
    /// a fleet document gets one Perfetto track group per device.
    pub fn set_machine(&mut self, machine: u64) {
        self.pid_base = machine * PID_STRIDE;
    }

    /// The shared `ph`/`name`/`pid`/`tid` prefix every event starts with.
    fn head(&mut self, ph: &str, name: &str, pid: u64, tid: u64) {
        self.events += 1;
        self.w.begin_object();
        self.w.key("ph");
        self.w.str(ph);
        self.w.key("name");
        self.w.str(name);
        self.w.key("pid");
        self.w.u64(self.pid_base + pid);
        self.w.key("tid");
        self.w.u64(tid);
    }

    /// Simulated nanoseconds → trace microseconds.
    fn ts(&mut self, key: &str, ns: u64) {
        self.w.key(key);
        self.w.f64(ns as f64 / 1_000.0);
    }

    /// An `"M"` metadata event naming process `pid` (rendered as the
    /// track group header).
    pub fn metadata_process_name(&mut self, pid: u64, name: &str) {
        self.head("M", "process_name", pid, 0);
        self.w.key("args");
        self.w.begin_object();
        self.w.key("name");
        self.w.str(name);
        self.w.end_object();
        self.w.end_object();
    }

    /// An `"M"` metadata event naming thread (track) `tid` of `pid`.
    pub fn metadata_thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        self.head("M", "thread_name", pid, tid);
        self.w.key("args");
        self.w.begin_object();
        self.w.key("name");
        self.w.str(name);
        self.w.end_object();
        self.w.end_object();
    }

    /// An `"X"` complete event: one closed span, `span_ns` giving its
    /// `(start, duration)`, with integer `args` (span id, parent,
    /// payload...).
    pub fn complete(
        &mut self,
        name: &str,
        cat: &str,
        pid: u64,
        tid: u64,
        span_ns: (u64, u64),
        args: &[(&str, u64)],
    ) {
        self.head("X", name, pid, tid);
        self.w.key("cat");
        self.w.str(cat);
        self.ts("ts", span_ns.0);
        self.ts("dur", span_ns.1);
        self.w.key("args");
        self.w.begin_object();
        for &(k, v) in args {
            self.w.key(k);
            self.w.u64(v);
        }
        self.w.end_object();
        self.w.end_object();
    }

    /// An `"i"` instant event (thread scope).
    pub fn instant(&mut self, name: &str, cat: &str, pid: u64, tid: u64, ts_ns: u64) {
        self.head("i", name, pid, tid);
        self.w.key("cat");
        self.w.str(cat);
        self.ts("ts", ts_ns);
        self.w.key("s");
        self.w.str("t");
        self.w.end_object();
    }

    /// An `"s"` flow-start event: opens flow `id` at `ts_ns`, anchored
    /// to the enclosing slice on (`pid`, `tid`). Perfetto draws an
    /// arrow from here to the matching [`flow_finish`](Self::flow_finish).
    pub fn flow_start(&mut self, name: &str, pid: u64, tid: u64, id: u64, ts_ns: u64) {
        self.head("s", name, pid, tid);
        self.w.key("cat");
        self.w.str("flow");
        self.w.key("id");
        self.w.u64(id);
        self.ts("ts", ts_ns);
        self.w.end_object();
    }

    /// An `"f"` flow-finish event with `bp:"e"` (bind to the enclosing
    /// slice), closing flow `id` at `ts_ns` on (`pid`, `tid`).
    pub fn flow_finish(&mut self, name: &str, pid: u64, tid: u64, id: u64, ts_ns: u64) {
        self.head("f", name, pid, tid);
        self.w.key("cat");
        self.w.str("flow");
        self.w.key("bp");
        self.w.str("e");
        self.w.key("id");
        self.w.u64(id);
        self.ts("ts", ts_ns);
        self.w.end_object();
    }

    /// A `"C"` counter event: named series sampled at `ts_ns`. Perfetto
    /// stacks the series of one counter name into an area chart.
    pub fn counter(&mut self, name: &str, pid: u64, ts_ns: u64, series: &[(&str, f64)]) {
        self.head("C", name, pid, 0);
        self.ts("ts", ts_ns);
        self.w.key("args");
        self.w.begin_object();
        for &(k, v) in series {
            self.w.key(k);
            self.w.f64(v);
        }
        self.w.end_object();
        self.w.end_object();
    }

    /// Closes the document (array, `displayTimeUnit`, object).
    pub fn finish(mut self) {
        self.w.end_array();
        self.w.key("displayTimeUnit");
        self.w.str("ms");
        self.w.end_object();
        self.w.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn exported_document_parses_and_has_well_formed_events() {
        let mut out = String::new();
        let mut w = ChromeTraceWriter::new(&mut out);
        w.metadata_process_name(1, "domain1");
        w.metadata_thread_name(1, 2, "irq");
        w.complete(
            "mail",
            "span",
            1,
            1,
            (2_500, 1_250),
            &[("id", 3), ("parent", 1)],
        );
        w.instant("fault", "fault", 0, 0, 9_000);
        w.counter("energy_mj", 0, 10_000, &[("domain0", 0.5)]);
        assert_eq!(w.events(), 5);
        w.finish();

        let doc = Json::parse(&out).expect("export must be valid JSON");
        assert_eq!(
            doc.get("displayTimeUnit").and_then(Json::as_str),
            Some("ms")
        );
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 5);
        for e in events {
            let ph = e.get("ph").and_then(Json::as_str).unwrap();
            assert!(["M", "X", "i", "C"].contains(&ph), "unknown ph {ph}");
            assert!(e.get("pid").and_then(Json::as_f64).is_some());
            assert!(e.get("tid").and_then(Json::as_f64).is_some());
            if ph != "M" {
                assert!(e.get("ts").and_then(Json::as_f64).unwrap() >= 0.0);
            }
            if ph == "X" {
                assert!(e.get("dur").and_then(Json::as_f64).is_some());
            }
        }
        // ns → µs with sub-microsecond precision preserved.
        let x = &events[2];
        assert_eq!(x.get("ts").and_then(Json::as_f64), Some(2.5));
        assert_eq!(x.get("dur").and_then(Json::as_f64), Some(1.25));
    }

    #[test]
    fn flow_events_carry_ids_and_binding_point() {
        let mut out = String::new();
        let mut w = ChromeTraceWriter::new(&mut out);
        w.flow_start("net", 0, 1, 77, 1_000);
        w.flow_finish("net", 16, 1, 77, 9_500);
        w.finish();
        let events = Json::parse(&out)
            .unwrap()
            .get("traceEvents")
            .and_then(Json::as_array)
            .unwrap()
            .to_vec();
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("s"));
        assert_eq!(events[0].get("id").and_then(Json::as_f64), Some(77.0));
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("f"));
        assert_eq!(events[1].get("bp").and_then(Json::as_str), Some("e"));
        assert_eq!(events[1].get("cat").and_then(Json::as_str), Some("flow"));
    }

    #[test]
    fn round_trip_is_byte_stable() {
        let mut out = String::new();
        let mut w = ChromeTraceWriter::new(&mut out);
        w.complete("dma", "span", 0, 3, (0, 42_000), &[]);
        w.finish();
        let reparsed = Json::parse(&out).unwrap();
        assert_eq!(reparsed.render_compact(), out);
    }
}
