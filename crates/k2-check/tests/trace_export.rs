//! End-to-end Chrome trace export: a traced scenario run must produce a
//! valid, deterministic trace-event document that survives a parse →
//! re-render round trip, with every event well-formed.

use k2_check::{FaultSpec, RunOptions, Scenario};
use k2_sim::json::Json;

fn traced_run() -> k2_check::RunOutcome {
    Scenario::UdpCrossTraffic
        .compile()
        .run_with(&FaultSpec::none(), None, RunOptions::traced())
}

#[test]
fn udp_cross_traffic_exports_a_valid_chrome_trace() {
    let outcome = traced_run();
    let trace = outcome.chrome_trace.expect("traced run exports a trace");
    let doc = Json::parse(&trace).expect("export must parse as JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
    assert!(events.len() > 50, "only {} events exported", events.len());

    let (counters, metadata) = check_events(events);
    assert!(metadata >= 2, "domain processes must be named");
    assert!(counters > 0, "power timeline must export as C events");

    // Round trip: parse → compact re-render reproduces the exact bytes.
    assert_eq!(doc.render_compact(), trace);
}

/// Validates every event's shape; returns (counter, metadata) counts.
fn check_events(events: &[Json]) -> (u64, u64) {
    let (mut counters, mut metadata) = (0u64, 0u64);
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).unwrap();
        assert!(["M", "X", "i", "C"].contains(&ph), "unknown ph {ph}");
        // pid is a K2 coherence domain: this config has two.
        let pid = e.get("pid").and_then(Json::as_f64).unwrap();
        assert!(pid == 0.0 || pid == 1.0, "pid {pid} is not a domain");
        assert!(e.get("tid").and_then(Json::as_f64).unwrap() <= 3.0);
        match ph {
            "M" => metadata += 1,
            "C" => counters += 1,
            "X" => {
                assert!(e.get("ts").and_then(Json::as_f64).unwrap() >= 0.0);
                assert!(e.get("dur").and_then(Json::as_f64).unwrap() >= 0.0);
                assert!(e.get("args").and_then(|a| a.get("id")).is_some());
            }
            _ => {
                assert!(e.get("ts").and_then(Json::as_f64).unwrap() >= 0.0);
            }
        }
    }
    (counters, metadata)
}

#[test]
fn dma_fanout_exports_its_span_chains_as_complete_events() {
    let outcome =
        Scenario::DmaFanout
            .compile()
            .run_with(&FaultSpec::none(), None, RunOptions::traced());
    let trace = outcome.chrome_trace.unwrap();
    let doc = Json::parse(&trace).unwrap();
    let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
    check_events(events);
    let dma_spans = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("name").and_then(Json::as_str) == Some("dma")
        })
        .count();
    assert!(dma_spans > 0, "DMA fan-out must export dma X events");
    // dma spans ride the dma track (tid 3).
    for e in events {
        if e.get("name").and_then(Json::as_str) == Some("dma") {
            assert_eq!(e.get("tid").and_then(Json::as_f64), Some(3.0));
        }
    }
}

/// Span payload args survive the full pipeline: `dma` spans carry a
/// `bytes` arg equal to the transfer size, `mail` spans under a fault
/// plan carry their reliable-link `tag`, and the parse → re-render
/// round trip preserves every arg byte for byte.
#[test]
fn span_args_export_and_round_trip() {
    // DMA transfers record their size.
    let outcome =
        Scenario::DmaFanout
            .compile()
            .run_with(&FaultSpec::none(), None, RunOptions::traced());
    let trace = outcome.chrome_trace.unwrap();
    let doc = Json::parse(&trace).unwrap();
    let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
    let mut dma_with_bytes = 0u64;
    for e in events {
        if e.get("name").and_then(Json::as_str) == Some("dma")
            && e.get("ph").and_then(Json::as_str) == Some("X")
        {
            let bytes = e
                .get("args")
                .and_then(|a| a.get("bytes"))
                .and_then(Json::as_f64)
                .expect("every dma span must carry a bytes arg");
            assert!(bytes > 0.0, "dma span with zero-byte transfer");
            dma_with_bytes += 1;
        }
    }
    assert!(dma_with_bytes > 0, "no dma spans with bytes args exported");
    assert_eq!(doc.render_compact(), trace);

    // Tagged reliable-link mail (active fault plan) records its tag.
    let spec = FaultSpec {
        seed: 2014,
        mail_drop: 0.2,
        mail_duplicate: 0.1,
        dma_fail: 0.0,
        dma_partial: 0.0,
    };
    let outcome = Scenario::UdpCrossTraffic
        .compile()
        .run_with(&spec, None, RunOptions::traced());
    let trace = outcome.chrome_trace.unwrap();
    let doc = Json::parse(&trace).unwrap();
    let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
    let tags: Vec<f64> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("mail"))
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("tag"))
                .and_then(Json::as_f64)
        })
        .collect();
    assert!(
        !tags.is_empty(),
        "faulted run must export mail spans with tag args"
    );
    assert!(tags.iter().all(|t| *t >= 0.0));
    assert_eq!(doc.render_compact(), trace);
}

#[test]
fn traced_runs_are_deterministic() {
    let a = traced_run().chrome_trace.unwrap();
    let b = traced_run().chrome_trace.unwrap();
    assert_eq!(a, b, "same (scenario, seed) must export identical traces");
}

/// A fleet trace puts every machine in its own pid block: machine `n`'s
/// events live at `pid = n * PID_STRIDE + domain`, so Perfetto renders
/// one track group per device. Machine 0 keeps the bare `domain{d}`
/// process names — a single-machine export is byte-identical to the
/// pre-namespaced format.
#[test]
fn fleet_trace_namespaces_pids_per_machine() {
    use k2_sim::export::{ChromeTraceWriter, PID_STRIDE};
    use k2_soc::ids::DomainId;
    use k2_workloads::harness::{TestSystem, Workload};

    let run = |salt: u32| {
        let mut t = TestSystem::builder().trace().build();
        let id = t.background("sync");
        let _report = t.spawn_workload(
            DomainId::WEAK,
            id,
            Workload::Udp {
                batch: 8 << 10,
                total: 16 << 10,
            },
            salt,
        );
        t.run_until_idle();
        t
    };
    let a = run(0);
    let b = run(1);

    let mut combined = String::new();
    {
        let mut w = ChromeTraceWriter::new(&mut combined);
        a.m.chrome_trace_into(&mut w, 0);
        b.m.chrome_trace_into(&mut w, 1);
        w.finish();
    }
    let doc = Json::parse(&combined).expect("combined trace must parse");
    let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();

    let stride = PID_STRIDE as f64;
    let mut in_block_1 = 0u64;
    let mut named = Vec::new();
    for e in events {
        let pid = e.get("pid").and_then(Json::as_f64).unwrap();
        assert!(
            pid < 2.0 || (stride..stride + 2.0).contains(&pid),
            "pid {pid} outside both machines' blocks"
        );
        if pid >= stride {
            in_block_1 += 1;
        }
        if e.get("name").and_then(Json::as_str) == Some("process_name") {
            let name = e
                .get("args")
                .and_then(|args| args.get("name"))
                .and_then(Json::as_str)
                .unwrap()
                .to_string();
            named.push((pid as u64, name));
        }
    }
    assert!(in_block_1 > 0, "machine 1 exported no events");
    assert!(named.contains(&(0, "domain0".to_string())));
    assert!(named.contains(&(PID_STRIDE, "m1/domain0".to_string())));
    assert!(named.contains(&(PID_STRIDE + 1, "m1/domain1".to_string())));

    // Round trip: parse → compact re-render reproduces the exact bytes.
    assert_eq!(doc.render_compact(), combined);

    // Machine 0's half of the combined document is the plain
    // single-machine export, unchanged.
    let mut single = String::new();
    a.m.write_chrome_trace(&mut single);
    let mut via_into = String::new();
    {
        let mut w = ChromeTraceWriter::new(&mut via_into);
        a.m.chrome_trace_into(&mut w, 0);
        w.finish();
    }
    assert_eq!(single, via_into);
    Json::parse(&single).expect("single-machine export still parses");
}

/// A fleet trace is one valid Chrome document that survives the parse → compact re-render round trip, and
/// its flow events (`ph:"s"`/`ph:"f"`) stitch cross-machine span trees:
/// every flow id is a `machine << 40 | raw` global span id whose pid
/// block matches the originating machine.
#[test]
fn fleet_trace_flow_events_round_trip() {
    use k2_check::fleet;
    use k2_sim::export::PID_STRIDE;
    use k2_sim::sink::SinkMode;
    use k2_sim::time::SimDuration;

    let snap = fleet::warmed_snapshot();
    let mut spec = fleet::FleetSpec::sync_storm(10, 2);
    spec.epochs = 60;
    spec.period = SimDuration::from_ms(5);
    spec.workers = 2;
    spec.sink = SinkMode::Full;
    let (report, trace) = fleet::run_fleet_traced(&spec, &snap);
    assert!(report.dev_acks > 0, "storm must complete round trips");

    let doc = Json::parse(&trace).expect("fleet trace must parse as JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
    // Round trip: parse → compact re-render reproduces the exact bytes.
    assert_eq!(doc.render_compact(), trace);

    let mut flow_starts = 0u64;
    let mut flow_finishes = 0u64;
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).unwrap();
        if ph != "s" && ph != "f" {
            continue;
        }
        assert_eq!(e.get("cat").and_then(Json::as_str), Some("flow"));
        let id = e.get("id").and_then(Json::as_f64).unwrap() as u64;
        let machine = id >> 40;
        assert!(
            machine < 12,
            "flow id {id:#x} names machine {machine}, beyond the fleet"
        );
        if ph == "s" {
            // A flow starts on the machine that owns the span id: its
            // pid must sit inside that machine's pid block.
            let pid = e.get("pid").and_then(Json::as_f64).unwrap() as u64;
            assert_eq!(pid / PID_STRIDE, machine, "flow start pid block");
            flow_starts += 1;
        } else {
            assert_eq!(e.get("bp").and_then(Json::as_str), Some("e"));
            flow_finishes += 1;
        }
    }
    assert!(flow_starts > 0, "no flow starts in a fully traced storm");
    assert!(flow_finishes > 0, "no flow finishes in a traced storm");
}

/// Cross-machine span-tree well-formedness at committed DSL scale with
/// a ring-buffer sink: every `f` (flow finish) binds to an `s` (flow
/// start) emitted somewhere in the fleet, and no flow id dangles outside
/// the machine index space — even when ring eviction drops old spans,
/// the storm's in-flight window stays stitched.
#[test]
fn fleet_flow_trees_are_well_formed_under_ring_eviction() {
    use k2_check::fleet;
    use k2_sim::sink::SinkMode;
    use k2_sim::time::SimDuration;
    use std::collections::BTreeSet;

    let snap = fleet::warmed_snapshot();
    let mut spec = fleet::FleetSpec::sync_storm(16, 2);
    spec.epochs = 80;
    spec.period = SimDuration::from_ms(4);
    spec.workers = 4;
    spec.sink = SinkMode::RingBuffer(4096);
    let (_report, trace) = fleet::run_fleet_traced(&spec, &snap);

    let doc = Json::parse(&trace).expect("ring-sink fleet trace parses");
    let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
    let mut starts = BTreeSet::new();
    let mut finishes = Vec::new();
    for e in events {
        let id = || e.get("id").and_then(Json::as_f64).unwrap() as u64;
        match e.get("ph").and_then(Json::as_str) {
            Some("s") => {
                assert!(starts.insert(id()), "duplicate flow start {:#x}", id());
            }
            Some("f") => finishes.push(id()),
            _ => {}
        }
    }
    assert!(!finishes.is_empty(), "ring sink must retain recent flows");
    for id in &finishes {
        assert!(
            starts.contains(id),
            "flow finish {id:#x} has no matching start"
        );
        assert!((id >> 40) < 18, "flow id {id:#x} outside the machine space");
    }
}

/// `k2 fleet-trace`'s default fleet (16 devices, 2 hubs, 4 ms period,
/// 80 epochs, full sink, seed 2014) exports the same bytes at 1 and 2
/// workers as the pinned constants. The worker-invariance tests compare
/// runs of one build with each other; these pins also catch a change to
/// how the document or the timeline is rendered.
#[test]
fn fleet_trace_export_bytes_are_pinned() {
    use k2_check::fleet;
    use k2_sim::digest::Fnv64;
    use k2_sim::sink::SinkMode;
    use k2_sim::time::SimDuration;

    let snap = fleet::warmed_snapshot();
    let mut spec = fleet::FleetSpec::sync_storm(16, 2);
    spec.seed = 2014;
    spec.epochs = 80;
    spec.period = SimDuration::from_ms(4);
    spec.sink = SinkMode::Full;
    for workers in [1, 2] {
        spec.workers = workers;
        let (report, trace) = fleet::run_fleet_traced(&spec, &snap);
        let timeline = report.timeline.render_json();
        let digest = |doc: &str| Fnv64::new().bytes(doc.as_bytes()).finish();
        assert_eq!(trace.len(), 251_362, "workers={workers}");
        assert_eq!(digest(&trace), 0x3aff_ad92_e1c3_2f9f, "workers={workers}");
        assert_eq!(
            digest(&timeline),
            0x06d8_baea_d972_c575,
            "workers={workers}"
        );
        assert_eq!(
            report.trace_digest, 0x3312_2ac6_7b45_b7d9,
            "workers={workers}"
        );
        assert_eq!(report.digest, 0x189a_e9a5_39c6_b281, "workers={workers}");
    }
}
