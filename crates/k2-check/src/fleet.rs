//! Fleet-scale simulation: N machines, one simulated network.
//!
//! One `Machine` is one phone; a fleet is thousands of them talking
//! through a single [`NetFabric`]. The coordinator owns every machine
//! and advances the whole fleet in bounded *time epochs*, keeping the
//! run end-to-end deterministic for any worker count (DESIGN.md §5.9):
//!
//! * **Instantiation is fork, not boot.** The fleet boots *one* machine,
//!   runs a warm-up workload that performs the common per-machine setup
//!   (socket table, balloon steady state, allocator warm paths), and
//!   freezes the result with [`K2System::snapshot`]. Every fleet member
//!   is then [`K2System::fork`]ed from that one image — ~12 µs per
//!   machine instead of ~144 µs of boot + setup (EXPERIMENTS.md, fleet
//!   tables; perfbench's `fork.us` and `snapshot.freeze_ms` track both
//!   sides today).
//! * **The coordinator owns the machines.** Machines are `Send` (their
//!   tasks and chooser carry a `Send` bound; everything else is data),
//!   so the coordinator keeps them in one `Vec` in machine-index order.
//!   Each epoch it injects the datagrams due (sorted by `(arrival,
//!   seq)`), runs contiguous chunks of machines to the epoch boundary on
//!   scoped threads (the first chunk on the coordinator's own thread, so
//!   one worker spawns none), then makes one pass in machine-index order
//!   that samples the timeline and routes every machine's egress
//!   through the fabric. A member that panics is named in the panic
//!   raised once every chunk has joined: its index, the epoch and the
//!   seed.
//! * **One determinism argument.** Machines share no state within an
//!   epoch, so how they are grouped onto threads cannot change what any
//!   of them does; everything that crosses machines — sampling, fabric
//!   routing and its RNG, digests, the trace document — happens on the
//!   coordinator in machine-index order. Reports and digests are
//!   byte-identical at any `K2CHECK_THREADS`.
//! * **The hot loop does not allocate per machine.** The delivery and
//!   egress buffers are reused every epoch; fleet metrics are interned
//!   once and bumped by id.
//!
//! The canonical workload is the *sync storm* (`scenarios/
//! sync-storm.k2.md`): a small number of hub machines answer periodic
//! background-sync bursts from every device, through a lossy, reordering
//! fabric.

use crate::explorer::resolve_workers;
use k2::system::{self, shadowed, K2Machine, K2System, SystemConfig, SystemSnapshot};
use k2_kernel::net::{MachineAddr, NetFabric, Port, Route};
use k2_kernel::service::ServiceId;
use k2_sim::digest::Fnv64;
use k2_sim::export::ChromeTraceWriter;
use k2_sim::json::JsonWriter;
use k2_sim::metrics::{CounterId, Key, Registry, Tag};
use k2_sim::rng::SimRng;
use k2_sim::sink::SinkMode;
use k2_sim::span::{global_span_id, SpanArgs, SpanId, TraceCtx};
use k2_sim::time::{SimDuration, SimTime};
use k2_soc::ids::DomainId;
use k2_soc::platform::{Step, Task, TaskCx};
use std::fmt::Write as _;
use std::panic::{self, AssertUnwindSafe};

/// The well-known port every hub listens on.
pub const HUB_PORT: Port = Port(4433);

/// Sync-storm datagram payload size (bytes). The first two bytes carry
/// the sending machine's address (the wire does not), so hubs can ack.
pub const DGRAM: usize = 64;

// ----------------------------------------------------------------------
// Specification
// ----------------------------------------------------------------------

/// A fleet run: topology, workload shape, fabric model, and schedule.
///
/// Machines `0..hubs` are hubs; machines `hubs..hubs+devices` are
/// devices. Device `i` syncs against hub `i % hubs`.
#[derive(Clone, Debug)]
pub struct FleetSpec {
    /// Device machines (fleet members that generate sync bursts).
    pub devices: u32,
    /// Hub machines answering them.
    pub hubs: u32,
    /// Master seed: device stagger and the fabric streams derive from it.
    pub seed: u64,
    /// Worker threads; 0 = `K2CHECK_THREADS` / available parallelism.
    pub workers: usize,
    /// Epoch length (the fleet-wide synchronisation quantum).
    pub epoch: SimDuration,
    /// Number of epochs to run.
    pub epochs: u32,
    /// Datagrams per sync burst.
    pub burst: u32,
    /// Bursts each device performs before finishing.
    pub bursts: u32,
    /// Pause between a device's bursts (its background-sync period).
    pub period: SimDuration,
    /// Fabric latency band (uniform draw per datagram), min.
    pub latency_min: SimDuration,
    /// Fabric latency band, max.
    pub latency_max: SimDuration,
    /// Fabric drop probability.
    pub loss: f64,
    /// Fabric reorder probability (extra jitter draw).
    pub reorder: f64,
    /// Every `stray_every`-th datagram per device is addressed outside
    /// the fleet (exercises the deterministic unroutable drop); 0 = off.
    pub stray_every: u32,
    /// Per-machine trace sink ([`SinkMode::Disabled`] by default —
    /// retaining every span on 1,000 machines is pure overhead unless
    /// someone asked for a trace). The fleet's pinned digest is the
    /// *sim* digest, identical under every mode: observation never
    /// perturbs simulated time.
    pub sink: SinkMode,
}

impl FleetSpec {
    /// The sync-storm defaults at a given fleet size (1,000 devices and
    /// 4 hubs is the committed scenario).
    pub fn sync_storm(devices: u32, hubs: u32) -> Self {
        FleetSpec {
            devices,
            hubs,
            seed: 2014,
            workers: 0,
            epoch: SimDuration::from_ms(1),
            epochs: 100,
            burst: 4,
            bursts: 3,
            period: SimDuration::from_ms(20),
            latency_min: SimDuration::from_ms(2),
            latency_max: SimDuration::from_ms(8),
            loss: 0.01,
            reorder: 0.05,
            stray_every: 0,
            sink: SinkMode::Disabled,
        }
    }

    /// Total machine count (hubs + devices).
    pub fn machines(&self) -> u32 {
        self.hubs + self.devices
    }

    /// Checks the spec is well-formed (the rules the DSL's `k2 fleet`
    /// parser applies) and names the first broken one. Every `run_fleet*`
    /// entry point refuses a spec that fails this.
    pub fn validate(&self) -> Result<(), String> {
        let rate = 0.0..=1.0;
        let broken = if self.devices == 0 || self.hubs == 0 {
            "devices and hubs must both be at least 1"
        } else if self.devices.saturating_add(self.hubs) > u32::from(u16::MAX) {
            "devices + hubs must fit in u16 machine addresses"
        } else if self.epochs == 0 || self.epoch.is_zero() {
            "epochs and the epoch length must be positive"
        } else if self.burst == 0 || self.bursts == 0 {
            "burst and bursts must be positive"
        } else if self.latency_min.is_zero() || self.latency_min > self.latency_max {
            "the latency band needs 0 < latency_min <= latency_max"
        } else if !rate.contains(&self.loss) || !rate.contains(&self.reorder) {
            "loss and reorder must be rates in [0, 1]"
        } else {
            return Ok(());
        };
        Err(broken.to_string())
    }
}

// ----------------------------------------------------------------------
// Workload tasks
// ----------------------------------------------------------------------

/// Per-machine workload counters live in the machine's own metrics
/// registry (so they are part of its digest and cost nothing to roll
/// up): hubs count datagrams answered, devices count acks received.
const HUB_HANDLED: &str = "fleet.hub_handled";
const DEV_ACKS: &str = "fleet.acks";
const DEV_SENT: &str = "fleet.dev_sent";

/// Opens a `net.tx` span for a cross-machine send from machine `addr`
/// at time `at`, returning the span and the context to put on the wire.
/// `trace_id == 0` roots a new causal tree under the span's own
/// fleet-global id (the device side); a hub ack passes the id the
/// request arrived with, extending that tree. With tracing disabled
/// this allocates nothing and the wire carries [`TraceCtx::NONE`] —
/// the send itself is identical either way.
fn tx_span(
    m: &mut K2Machine,
    dom: u8,
    at: SimTime,
    addr: u16,
    trace_id: u64,
) -> (SpanId, TraceCtx) {
    let spans = m.spans_mut();
    if !spans.is_enabled() {
        return (SpanId::NONE, TraceCtx::NONE);
    }
    // Span ids are sequential, so the id `start_args` is about to hand
    // out is knowable up front — which lets the span carry its own
    // global id as the `trace` annotation.
    let gid = global_span_id(u32::from(addr), spans.allocated() + 1);
    let tid = if trace_id == 0 { gid } else { trace_id };
    let id = spans.start_args(at, "net.tx", dom, SpanArgs::one("trace", tid));
    debug_assert_eq!(global_span_id(u32::from(addr), id.raw()), gid);
    (
        id,
        TraceCtx {
            trace_id: tid,
            parent: gid,
        },
    )
}

/// A hub: binds [`HUB_PORT`], then forever drains its socket, acking
/// every datagram back to the machine address embedded in the payload.
/// Never finishes — the fleet runs machines with `run_until`, which
/// tolerates live parked tasks.
struct HubTask {
    /// This hub's machine index (namespaces its span ids fleet-wide).
    addr: u16,
    port: Option<Port>,
    handled_id: Option<CounterId>,
}

impl Task<K2System> for HubTask {
    fn step(&mut self, w: &mut K2System, m: &mut K2Machine, cx: TaskCx) -> Step {
        let Some(port) = self.port else {
            let (p, dur) = shadowed(w, m, cx.core, ServiceId::Net, |s, opcx| {
                s.net.bind(Some(HUB_PORT), opcx).expect("hub bind")
            });
            self.port = Some(p);
            return Step::ComputeTime { dur };
        };
        let id = *self.handled_id.get_or_insert_with(|| {
            m.metrics_mut()
                .counter_id(Key::new(HUB_HANDLED, Tag::Whole))
        });
        let mut handled = 0u64;
        let mut dur = SimDuration::ZERO;
        let now = m.now();
        let dom = m.core_desc(cx.core).domain.0;
        loop {
            let (dg, d) = shadowed(w, m, cx.core, ServiceId::Net, |s, opcx| {
                s.net.recv(port, opcx).expect("hub recv")
            });
            dur += d;
            let Some(dg) = dg else { break };
            let reply_to = MachineAddr(u16::from_le_bytes([dg.payload[0], dg.payload[1]]));
            // The ack extends the causal tree the request arrived with.
            let (tx, ctx) = tx_span(m, dom, now + dur, self.addr, dg.trace.trace_id);
            let (res, d) = shadowed(w, m, cx.core, ServiceId::Net, |s, opcx| {
                s.net
                    .send_to_traced(port, reply_to, dg.src, &dg.payload, ctx, opcx)
            });
            res.expect("hub ack");
            dur += d;
            m.spans_mut().end(now + dur, tx);
            handled += 1;
        }
        if handled > 0 {
            m.metrics_mut().add_by_id(id, handled);
            return Step::ComputeTime { dur };
        }
        system::net_await(w, cx.task);
        Step::Block
    }

    fn name(&self) -> &str {
        "fleet-hub"
    }
}

/// A device: binds an ephemeral port, sleeps a seeded stagger (so the
/// storm does not start phase-locked), then `bursts` rounds of `burst`
/// datagrams to its hub, one period apart, draining acks opportunistically
/// before each round and once more at the end.
struct DeviceTask {
    addr: u16,
    hub: MachineAddr,
    fleet_size: u32,
    burst: u32,
    rounds_left: u32,
    period: SimDuration,
    stagger: SimDuration,
    stray_every: u32,
    sent_seq: u64,
    port: Option<Port>,
    pending_sleep: Option<SimDuration>,
    finishing: bool,
    acks_id: Option<CounterId>,
    sent_id: Option<CounterId>,
    buf: Vec<u8>,
}

impl DeviceTask {
    /// Drains every queued ack, bumping the machine's ack counter.
    fn drain_acks(&mut self, w: &mut K2System, m: &mut K2Machine, cx: &TaskCx) -> SimDuration {
        let port = self.port.expect("bound");
        let id = *self
            .acks_id
            .get_or_insert_with(|| m.metrics_mut().counter_id(Key::new(DEV_ACKS, Tag::Whole)));
        let mut acks = 0u64;
        let mut dur = SimDuration::ZERO;
        loop {
            let (dg, d) = shadowed(w, m, cx.core, ServiceId::Net, |s, opcx| {
                s.net.recv(port, opcx).expect("device recv")
            });
            dur += d;
            if dg.is_none() {
                break;
            }
            acks += 1;
        }
        if acks > 0 {
            m.metrics_mut().add_by_id(id, acks);
        }
        dur
    }
}

impl Task<K2System> for DeviceTask {
    fn step(&mut self, w: &mut K2System, m: &mut K2Machine, cx: TaskCx) -> Step {
        if self.port.is_none() {
            let (p, dur) = shadowed(w, m, cx.core, ServiceId::Net, |s, opcx| {
                s.net.bind(None, opcx).expect("device bind")
            });
            self.port = Some(p);
            self.pending_sleep = Some(self.stagger);
            return Step::ComputeTime { dur };
        }
        if let Some(d) = self.pending_sleep.take() {
            return Step::Sleep { dur: d };
        }
        if self.finishing {
            return Step::Done;
        }
        let mut dur = self.drain_acks(w, m, &cx);
        if self.rounds_left == 0 {
            // Final ack drain done; one more step to retire.
            self.finishing = true;
            return if dur.is_zero() {
                Step::Done
            } else {
                Step::ComputeTime { dur }
            };
        }
        self.rounds_left -= 1;
        let port = self.port.expect("bound");
        let round = self.rounds_left;
        let now = m.now();
        let dom = m.core_desc(cx.core).domain.0;
        for i in 0..self.burst {
            self.sent_seq += 1;
            let stray =
                self.stray_every != 0 && self.sent_seq.is_multiple_of(u64::from(self.stray_every));
            let dst = if stray {
                // Deliberately outside the fleet: the fabric drops it
                // deterministically and counts it as unroutable.
                MachineAddr(self.fleet_size as u16)
            } else {
                self.hub
            };
            self.buf.clear();
            self.buf.extend_from_slice(&self.addr.to_le_bytes());
            self.buf.push(round as u8);
            self.buf.push(i as u8);
            self.buf.resize(DGRAM, 0);
            let buf = std::mem::take(&mut self.buf);
            // Each burst datagram roots one causal tree: this tx span's
            // global id is the trace id the hub's ack comes back under.
            let (tx, ctx) = tx_span(m, dom, now + dur, self.addr, 0);
            let (res, d) = shadowed(w, m, cx.core, ServiceId::Net, |s, opcx| {
                s.net.send_to_traced(port, dst, HUB_PORT, &buf, ctx, opcx)
            });
            self.buf = buf;
            res.expect("device send");
            dur += d;
            m.spans_mut().end(now + dur, tx);
        }
        let id = *self
            .sent_id
            .get_or_insert_with(|| m.metrics_mut().counter_id(Key::new(DEV_SENT, Tag::Whole)));
        m.metrics_mut().add_by_id(id, u64::from(self.burst));
        self.pending_sleep = Some(self.period);
        Step::ComputeTime { dur }
    }

    fn name(&self) -> &str {
        "fleet-device"
    }
}

// ----------------------------------------------------------------------
// Snapshot warm-up
// ----------------------------------------------------------------------

/// Loopback datagrams the warm-up workload pushes through the stack.
const WARMUP_DATAGRAMS: u32 = 256;

/// The per-machine setup every fleet member would otherwise repeat:
/// exercise the socket table and loopback path until the allocator and
/// service state pages are warm, then tear the sockets down so the
/// image is quiescent.
struct WarmupTask {
    left: u32,
    sockets: Option<(Port, Port)>,
}

impl Task<K2System> for WarmupTask {
    fn step(&mut self, w: &mut K2System, m: &mut K2Machine, cx: TaskCx) -> Step {
        if self.sockets.is_none() {
            if self.left == 0 {
                return Step::Done;
            }
            let (s, dur) = shadowed(w, m, cx.core, ServiceId::Net, |s, opcx| {
                let a = s.net.bind(None, opcx).expect("warmup bind");
                let b = s.net.bind(None, opcx).expect("warmup bind");
                (a, b)
            });
            self.sockets = Some(s);
            return Step::ComputeTime { dur };
        }
        let (a, b) = self.sockets.expect("bound");
        let payload = [0x5au8; DGRAM];
        let (_, mut dur) = shadowed(w, m, cx.core, ServiceId::Net, |s, opcx| {
            s.net.send(a, b, &payload, opcx).expect("warmup send");
            s.net.recv(b, opcx).expect("warmup recv").expect("loopback");
        });
        self.left -= 1;
        if self.left.is_multiple_of(64) {
            // Recycle the sockets so bind/close paths are warm too.
            let (_, d) = shadowed(w, m, cx.core, ServiceId::Net, |s, opcx| {
                s.net.close(a, opcx).and_then(|()| s.net.close(b, opcx))
            });
            dur += d;
            self.sockets = None;
        }
        Step::ComputeTime { dur }
    }

    fn name(&self) -> &str {
        "fleet-warmup"
    }
}

/// Boots one machine and runs the warm-up workload to quiescence: the
/// per-machine "boot + setup" cost that forking replaces (EXPERIMENTS.md
/// records it against [`K2System::fork`]; perfbench's
/// `snapshot.freeze_ms` measures it with the freeze included).
pub(crate) fn cold_machine() -> (K2Machine, K2System) {
    let (mut m, mut sys) = K2System::boot(SystemConfig::k2());
    let core = K2System::kernel_core(&m, DomainId::STRONG);
    m.spawn(
        core,
        Box::new(WarmupTask {
            left: WARMUP_DATAGRAMS,
            sockets: None,
        }),
        &mut sys,
    );
    m.run_until_idle(&mut sys);
    (m, sys)
}

/// Boots one machine, runs the warm-up workload to quiescence, and
/// freezes the image every fleet member forks from.
pub fn warmed_snapshot() -> SystemSnapshot {
    let (m, sys) = cold_machine();
    K2System::snapshot(&m, &sys)
}

// ----------------------------------------------------------------------
// Telemetry timeline
// ----------------------------------------------------------------------

/// Fleet-wide samples taken at one epoch boundary. All integers (energy
/// in µJ), summed in machine-index order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochSample {
    /// Machine events processed during the epoch.
    pub events: u64,
    /// Datagrams drained from machine egress rings this epoch.
    pub egress: u64,
    /// Of those, datagrams the fabric queued in flight. Not deliveries:
    /// a datagram queued here is taken out of the fabric in a later
    /// epoch, or is still in flight when the run ends, so over a run
    /// `Σ queued = delivered + in_flight_end`.
    pub queued: u64,
    /// Datagrams the loss model dropped this epoch.
    pub dropped: u64,
    /// Datagrams that drew reorder jitter this epoch.
    pub reordered: u64,
    /// Datagrams in flight after this epoch's routing.
    pub in_flight: u64,
    /// Fleet mail + net backlog at the epoch boundary (sum).
    pub backlog: u64,
    /// Largest single-machine backlog at the epoch boundary.
    pub backlog_max: u64,
    /// Cumulative fleet energy at the epoch boundary, µJ.
    pub energy_uj: u64,
}

/// p50/p99/max of one timeline column across epochs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ColumnStats {
    /// Median (nearest-rank on the sorted column).
    pub p50: u64,
    /// 99th percentile (nearest-rank).
    pub p99: u64,
    /// Maximum.
    pub max: u64,
}

/// Nearest-rank percentile over a sorted slice.
fn percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as u64 * p + 50) / 100;
    sorted[idx as usize]
}

/// A machine whose peak epoch backlog exceeded the fleet's
/// `median + k·MAD` threshold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Straggler {
    /// Machine index.
    pub machine: u32,
    /// Its largest epoch-boundary backlog over the run.
    pub peak_backlog: u64,
}

/// The robust-outlier multiplier: a machine is a straggler when its
/// peak backlog exceeds `median + STRAGGLER_K · max(MAD, 1)`. MAD
/// (median absolute deviation) is robust against the stragglers it is
/// hunting; the `max(…, 1)` floor keeps a zero-MAD fleet (every machine
/// identical) from flagging machines a single envelope above median.
pub const STRAGGLER_K: u64 = 4;

/// Per-epoch fleet telemetry: one [`EpochSample`] per epoch plus the
/// deterministic straggler section. Byte-identical for any worker
/// count — every column is integer-summed in machine-index order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FleetTimeline {
    /// Epoch length, ns (converts event counts to events/sec).
    pub epoch_ns: u64,
    /// One sample per epoch, in epoch order.
    pub samples: Vec<EpochSample>,
    /// Median of per-machine peak backlogs.
    pub backlog_median: u64,
    /// Median absolute deviation of per-machine peak backlogs.
    pub backlog_mad: u64,
    /// Machines over the `median + k·MAD` threshold, index order.
    pub stragglers: Vec<Straggler>,
}

impl FleetTimeline {
    /// p50/p99/max of one column across epochs.
    pub fn stats(&self, col: impl Fn(&EpochSample) -> u64) -> ColumnStats {
        let mut v: Vec<u64> = self.samples.iter().map(col).collect();
        v.sort_unstable();
        ColumnStats {
            p50: percentile(&v, 50),
            p99: percentile(&v, 99),
            max: v.last().copied().unwrap_or(0),
        }
    }

    /// Events per simulated second during epoch `i`.
    pub fn events_per_sec(&self, i: usize) -> u64 {
        if self.epoch_ns == 0 {
            return 0;
        }
        self.samples[i].events.saturating_mul(1_000_000_000) / self.epoch_ns
    }

    /// Renders the timeline as one JSON document via the streaming
    /// [`JsonWriter`]: aggregate columns, the full per-epoch series,
    /// and the straggler section. Deterministic — fixed key order, no
    /// floats, no wall clock.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        let mut w = JsonWriter::compact(&mut out);
        w.begin_object();
        w.key("epoch_ns");
        w.u64(self.epoch_ns);
        w.key("epochs");
        w.u64(self.samples.len() as u64);
        w.key("columns");
        w.begin_object();
        type Col<'a> = (&'a str, &'a dyn Fn(&EpochSample) -> u64);
        let cols: [Col; 7] = [
            ("events", &|s| s.events),
            ("in_flight", &|s| s.in_flight),
            ("dropped", &|s| s.dropped),
            ("reordered", &|s| s.reordered),
            ("backlog", &|s| s.backlog),
            ("backlog_max", &|s| s.backlog_max),
            ("energy_uj", &|s| s.energy_uj),
        ];
        for (name, col) in cols {
            let st = self.stats(col);
            w.key(name);
            w.begin_object();
            w.key("p50");
            w.u64(st.p50);
            w.key("p99");
            w.u64(st.p99);
            w.key("max");
            w.u64(st.max);
            w.end_object();
        }
        w.end_object();
        w.key("series");
        w.begin_array();
        for (i, s) in self.samples.iter().enumerate() {
            w.begin_object();
            w.key("epoch");
            w.u64(i as u64);
            w.key("events");
            w.u64(s.events);
            w.key("events_per_sec");
            w.u64(self.events_per_sec(i));
            w.key("egress");
            w.u64(s.egress);
            w.key("queued");
            w.u64(s.queued);
            w.key("dropped");
            w.u64(s.dropped);
            w.key("reordered");
            w.u64(s.reordered);
            w.key("in_flight");
            w.u64(s.in_flight);
            w.key("backlog");
            w.u64(s.backlog);
            w.key("backlog_max");
            w.u64(s.backlog_max);
            w.key("energy_uj");
            w.u64(s.energy_uj);
            w.end_object();
        }
        w.end_array();
        w.key("stragglers");
        w.begin_object();
        w.key("k_mad");
        w.u64(STRAGGLER_K);
        w.key("median");
        w.u64(self.backlog_median);
        w.key("mad");
        w.u64(self.backlog_mad);
        w.key("machines");
        w.begin_array();
        for s in &self.stragglers {
            w.begin_object();
            w.key("machine");
            w.u64(u64::from(s.machine));
            w.key("peak_backlog");
            w.u64(s.peak_backlog);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.end_object();
        w.finish();
        out
    }
}

/// Runs the straggler detector over per-machine peak backlogs:
/// `median + k·MAD` with integer arithmetic throughout.
fn find_stragglers(peaks: &[u64]) -> (u64, u64, Vec<Straggler>) {
    if peaks.is_empty() {
        return (0, 0, Vec::new());
    }
    let mut sorted = peaks.to_vec();
    sorted.sort_unstable();
    let median = percentile(&sorted, 50);
    let mut dev: Vec<u64> = peaks.iter().map(|&p| p.abs_diff(median)).collect();
    dev.sort_unstable();
    let mad = percentile(&dev, 50);
    let threshold = median + STRAGGLER_K * mad.max(1);
    let stragglers = peaks
        .iter()
        .enumerate()
        .filter(|&(_, &p)| p > threshold)
        .map(|(i, &p)| Straggler {
            machine: i as u32,
            peak_backlog: p,
        })
        .collect();
    (median, mad, stragglers)
}

/// What one fleet run produced. Everything here is deterministic for a
/// given spec — including across worker counts.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetReport {
    /// Machines simulated (hubs + devices).
    pub machines: u32,
    /// Epochs advanced.
    pub epochs: u32,
    /// Simulated horizon covered.
    pub horizon: SimDuration,
    /// Machine events processed, summed over the fleet.
    pub events: u64,
    /// Datagrams offered to the fabric.
    pub routed: u64,
    /// Datagrams delivered to a destination machine.
    pub delivered: u64,
    /// Datagrams lost to the loss model.
    pub dropped: u64,
    /// Datagrams addressed outside the fleet (deterministic drop).
    pub unroutable: u64,
    /// Datagrams that drew reorder jitter.
    pub reordered: u64,
    /// Datagrams still in flight when the schedule ended.
    pub in_flight_end: usize,
    /// Sync datagrams sent by devices.
    pub dev_sent: u64,
    /// Acks received by devices.
    pub dev_acks: u64,
    /// Datagrams answered by hubs.
    pub hub_handled: u64,
    /// Fold of every machine *sim* digest (index order), the fleet
    /// metrics registry, and the fabric stats: byte-identical for any
    /// worker count, and — because the sim digest excludes every
    /// observability-only term — identical whatever trace sink the
    /// machines run under.
    pub digest: u64,
    /// Fold of every trace context that crossed the fabric (egress in
    /// route order, deliveries in arrival order): the causal-tree
    /// identity of the run. Zero-valued contexts fold too, so the
    /// digest is defined (and worker-invariant) with tracing disabled.
    pub trace_digest: u64,
    /// Per-epoch telemetry and the straggler section.
    pub timeline: FleetTimeline,
}

impl FleetReport {
    /// Renders the deterministic text report (the CI artifact).
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "fleet: {} machines", self.machines);
        let _ = writeln!(
            s,
            "schedule: {} epochs, {} ns horizon",
            self.epochs,
            self.horizon.as_ns()
        );
        let _ = writeln!(s, "events: {}", self.events);
        let _ =
            writeln!(
            s,
            "fabric: routed {} delivered {} dropped {} unroutable {} reordered {} in-flight-end {}",
            self.routed, self.delivered, self.dropped, self.unroutable, self.reordered,
            self.in_flight_end
        );
        let _ = writeln!(
            s,
            "sync: sent {} acked {} hub-handled {}",
            self.dev_sent, self.dev_acks, self.hub_handled
        );
        let ev = self.timeline.stats(|e| e.events);
        let fl = self.timeline.stats(|e| e.in_flight);
        let bl = self.timeline.stats(|e| e.backlog);
        let _ = writeln!(
            s,
            "timeline: events/epoch p50 {} p99 {} max {}; in-flight p50 {} p99 {} max {}; backlog p50 {} p99 {} max {}",
            ev.p50, ev.p99, ev.max, fl.p50, fl.p99, fl.max, bl.p50, bl.p99, bl.max
        );
        let _ = write!(
            s,
            "stragglers: {} (k {} median {} mad {})",
            self.timeline.stragglers.len(),
            STRAGGLER_K,
            self.timeline.backlog_median,
            self.timeline.backlog_mad
        );
        for st in self.timeline.stragglers.iter().take(8) {
            let _ = write!(s, " m{}:{}", st.machine, st.peak_backlog);
        }
        let _ = writeln!(s);
        let _ = writeln!(s, "trace: digest {:016x}", self.trace_digest);
        let _ = writeln!(s, "digest: {:016x}", self.digest);
        s
    }

    /// Looks a report metric up by name (the DSL `expect` hook).
    pub fn metric(&self, name: &str) -> Option<u64> {
        Some(match name {
            "machines" => u64::from(self.machines),
            "epochs" => u64::from(self.epochs),
            "events" => self.events,
            "routed" => self.routed,
            "delivered" => self.delivered,
            "dropped" => self.dropped,
            "unroutable" => self.unroutable,
            "reordered" => self.reordered,
            "in_flight_end" => self.in_flight_end as u64,
            "dev_sent" => self.dev_sent,
            "dev_acks" => self.dev_acks,
            "hub_handled" => self.hub_handled,
            "stragglers" => self.timeline.stragglers.len() as u64,
            "events_p50" => self.timeline.stats(|e| e.events).p50,
            "in_flight_p99" => self.timeline.stats(|e| e.in_flight).p99,
            "backlog_p99" => self.timeline.stats(|e| e.backlog).p99,
            "backlog_max" => self.timeline.stats(|e| e.backlog_max).max,
            _ => return None,
        })
    }
}

// ----------------------------------------------------------------------
// Fleet coordinator
// ----------------------------------------------------------------------

/// One fleet member: a forked machine, its world, and the largest
/// epoch-boundary backlog it has reached (the straggler detector's input).
struct Member {
    m: K2Machine,
    sys: K2System,
    peak_backlog: u64,
}

/// Forks fleet machine `index` from `snap` and spawns its workload: a
/// hub below `spec.hubs`, a device from there on.
fn fork_member(spec: &FleetSpec, snap: &SystemSnapshot, index: u32) -> Member {
    let (mut m, mut sys) = K2System::fork(snap);
    // The warmed image carries the boot default (full sink); every
    // fleet member switches to the spec's sink, which discards the
    // warm-up spans — fleet traces start at the fork point.
    m.set_span_sink(spec.sink);
    if index < spec.hubs {
        let core = K2System::kernel_core(&m, DomainId::STRONG);
        m.spawn(
            core,
            Box::new(HubTask {
                addr: index as u16,
                port: None,
                handled_id: None,
            }),
            &mut sys,
        );
    } else {
        let dev = index - spec.hubs;
        let mut rng = SimRng::seed_from_stream(spec.seed, u64::from(index));
        let stagger = SimDuration::from_ns(rng.gen_range(spec.period.as_ns().max(1)));
        let core = K2System::kernel_core(&m, DomainId::WEAK);
        m.spawn(
            core,
            Box::new(DeviceTask {
                addr: index as u16,
                hub: MachineAddr((dev % spec.hubs) as u16),
                fleet_size: spec.machines(),
                burst: spec.burst,
                rounds_left: spec.bursts,
                period: spec.period,
                stagger,
                stray_every: spec.stray_every,
                sent_seq: 0,
                port: None,
                pending_sleep: None,
                finishing: false,
                acks_id: None,
                sent_id: None,
                buf: Vec::with_capacity(DGRAM),
            }),
            &mut sys,
        );
    }
    Member {
        m,
        sys,
        peak_backlog: 0,
    }
}

/// Runs every member to `until`, in contiguous chunks of `chunk`
/// machines, one scoped thread per chunk. The first chunk runs on the
/// calling thread, so a one-chunk fleet spawns no thread at all.
///
/// # Panics
///
/// Once every chunk has joined, a panic inside a member is raised again
/// as `fleet machine <i> panicked in epoch <epoch> (seed <seed>): <message>`
/// for the lowest-indexed member that panicked, whichever thread ran it.
fn advance(members: &mut [Member], chunk: usize, until: SimTime, epoch: u32, seed: u64) {
    // Runs the chunk starting at fleet index `base`; a panic comes back
    // with the index of the member that raised it.
    let run = |base: usize, c: &mut [Member]| {
        let mut i = base;
        panic::catch_unwind(AssertUnwindSafe(|| {
            for mb in c {
                mb.m.run_until(until, &mut mb.sys);
                i += 1;
            }
        }))
        .map_err(|payload| (i, payload))
    };
    let failed = std::thread::scope(|scope| {
        let mut chunks = members.chunks_mut(chunk);
        let first = chunks.next().expect("a fleet has machines");
        let handles: Vec<_> = chunks
            .enumerate()
            .map(|(k, c)| scope.spawn(move || run((k + 1) * chunk, c)))
            .collect();
        let failed = run(0, first).err();
        handles.into_iter().fold(failed, |failed, h| {
            let joined = h.join().expect("a chunk catches its members' panics");
            failed.or(joined.err())
        })
    });
    if let Some((i, payload)) = failed {
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("(a panic payload that is not a string)");
        panic!("fleet machine {i} panicked in epoch {epoch} (seed {seed}): {msg}");
    }
}

/// Runs the fleet described by `spec` and returns its report.
///
/// Forks every machine from one warmed snapshot and advances the fleet
/// epoch by epoch, running chunks of machines on worker threads. The
/// report (digest included) is byte-identical for any worker count.
pub fn run_fleet(spec: &FleetSpec) -> FleetReport {
    let snap = warmed_snapshot();
    run_fleet_from(spec, &snap)
}

/// [`run_fleet`] against a caller-provided snapshot (the bench reuses
/// one frozen image across many runs).
pub fn run_fleet_from(spec: &FleetSpec, snap: &SystemSnapshot) -> FleetReport {
    run_fleet_inner(spec, snap, false).0
}

/// [`run_fleet_from`] that additionally collects the fleet trace: every
/// machine's spans rendered into one Perfetto-loadable Chrome trace
/// document by one writer, in machine-index order (so the document is
/// byte-identical for any worker count). Meaningful only when
/// `spec.sink` retains spans — under [`SinkMode::Disabled`] the
/// document contains no events.
pub fn run_fleet_traced(spec: &FleetSpec, snap: &SystemSnapshot) -> (FleetReport, String) {
    let (report, trace) = run_fleet_inner(spec, snap, true);
    (report, trace.expect("trace requested"))
}

fn run_fleet_inner(
    spec: &FleetSpec,
    snap: &SystemSnapshot,
    collect_trace: bool,
) -> (FleetReport, Option<String>) {
    if let Err(e) = spec.validate() {
        panic!("invalid fleet spec: {e}");
    }
    let total = spec.machines();
    let chunk = (total as usize).div_ceil(resolve_workers(spec.workers, total));
    let mut members: Vec<Member> = (0..total).map(|i| fork_member(spec, snap, i)).collect();

    let mut fabric = NetFabric::builder(spec.seed, total)
        .latency(spec.latency_min, spec.latency_max)
        .loss(spec.loss)
        .reorder(spec.reorder)
        .build();

    // Fleet-level metrics: interned once, bumped by id in the epoch loop.
    let mut reg = Registry::new();
    let epochs_id = reg.counter_id(Key::new("fleet.epochs", Tag::Whole));
    let events_id = reg.counter_id(Key::new("fleet.events", Tag::Whole));
    let egress_id = reg.counter_id(Key::new("fleet.egress", Tag::Whole));
    // Bumped by each epoch's queued count. The key keeps its historical
    // name because the pinned sim digest folds the registry in.
    let queued_id = reg.counter_id(Key::new("fleet.delivered", Tag::Whole));

    let mut events_total = 0u64;
    let mut samples: Vec<EpochSample> = Vec::with_capacity(spec.epochs as usize);
    // Trace-context digest: folded in the same machine-index pass that
    // consumes the fabric RNG, so it is worker-count-invariant by the
    // same argument as the sim digest.
    let mut th = Fnv64::new();
    let mut due = Vec::new();
    let mut egress = Vec::new();
    let mut prev_events: u64 = members.iter().map(|mb| mb.m.events_processed()).sum();
    let mut now = snap.now();
    for epoch in 0..spec.epochs {
        let until = now + spec.epoch;
        let (drop0, reord0) = (fabric.stats().dropped, fabric.stats().reordered);
        // Deliveries due this epoch, sorted by (arrival, seq), so each
        // machine's NET IRQs are raised in a reproducible order.
        fabric.take_due(until, &mut due);
        for d in due.drain(..) {
            th.u64(d.arrival.as_ns())
                .u64(d.seq)
                .u64(d.trace.trace_id)
                .u64(d.trace.parent);
            let mb = &mut members[usize::from(d.dst.0)];
            let rtt = d.arrival.saturating_since(now);
            system::net_expect_reply_traced(
                &mut mb.sys,
                &mut mb.m,
                d.dst_port,
                d.src_port,
                d.payload,
                d.trace,
                rtt,
            );
        }
        advance(&mut members, chunk, until, epoch, spec.seed);
        // The one machine-index pass: sample, then route each machine's
        // egress, so the fabric RNG is consumed in a fixed order.
        let mut sample = EpochSample::default();
        let mut events = 0u64;
        for (i, mb) in members.iter_mut().enumerate() {
            events += mb.m.events_processed();
            let backlog = mb.m.mailbox_pending_total() + system::net_backlog(&mb.sys) as u64;
            sample.backlog += backlog;
            sample.backlog_max = sample.backlog_max.max(backlog);
            mb.peak_backlog = mb.peak_backlog.max(backlog);
            // Integer µJ, so the timeline holds no float sums.
            sample.energy_uj += (mb.m.total_energy_mj() * 1_000.0).round() as u64;
            let src = MachineAddr(i as u16);
            system::net_drain_egress(&mut mb.sys, &mut egress);
            for dg in egress.drain(..) {
                sample.egress += 1;
                th.u32(i as u32).u64(dg.trace.trace_id).u64(dg.trace.parent);
                if let Route::Queued(_) = fabric.route(until, src, dg) {
                    sample.queued += 1;
                }
            }
        }
        sample.events = events - prev_events;
        prev_events = events;
        sample.dropped = fabric.stats().dropped - drop0;
        sample.reordered = fabric.stats().reordered - reord0;
        sample.in_flight = fabric.in_flight() as u64;
        reg.add_by_id(epochs_id, 1);
        reg.add_by_id(events_id, sample.events);
        reg.add_by_id(egress_id, sample.egress);
        reg.add_by_id(queued_id, sample.queued);
        events_total += sample.events;
        samples.push(sample);
        now = until;
    }

    let (mut acks, mut sent, mut hub_handled) = (0u64, 0u64, 0u64);
    let mut h = Fnv64::new();
    for mb in &members {
        let mut mh = Fnv64::new();
        mh.u64(mb.m.sim_digest());
        mb.sys.digest_into(&mut mh);
        h.u64(mh.finish());
        let reg = mb.m.metrics();
        acks += reg.counter(Key::new(DEV_ACKS, Tag::Whole));
        sent += reg.counter(Key::new(DEV_SENT, Tag::Whole));
        hub_handled += reg.counter(Key::new(HUB_HANDLED, Tag::Whole));
    }
    let stats = fabric.stats().clone();
    reg.digest_into(&mut h);
    h.u64(stats.routed)
        .u64(stats.delivered)
        .u64(stats.dropped)
        .u64(stats.unroutable)
        .u64(stats.reordered)
        .u64(stats.delivered_bytes)
        .usize(fabric.in_flight());

    let peaks: Vec<u64> = members.iter().map(|mb| mb.peak_backlog).collect();
    let (backlog_median, backlog_mad, stragglers) = find_stragglers(&peaks);
    let timeline = FleetTimeline {
        epoch_ns: spec.epoch.as_ns(),
        samples,
        backlog_median,
        backlog_mad,
        stragglers,
    };
    let trace = collect_trace.then(|| {
        let mut out = String::new();
        let mut w = ChromeTraceWriter::new(&mut out);
        for (i, mb) in members.iter().enumerate() {
            mb.m.chrome_trace_into(&mut w, i as u64);
        }
        w.finish();
        out
    });

    (
        FleetReport {
            machines: total,
            epochs: spec.epochs,
            horizon: SimDuration::from_ns(spec.epoch.as_ns() * u64::from(spec.epochs)),
            events: events_total,
            routed: stats.routed,
            delivered: stats.delivered,
            dropped: stats.dropped,
            unroutable: stats.unroutable,
            reordered: stats.reordered,
            in_flight_end: fabric.in_flight(),
            dev_sent: sent,
            dev_acks: acks,
            hub_handled,
            digest: h.finish(),
            trace_digest: th.finish(),
            timeline,
        },
        trace,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FleetSpec {
        let mut s = FleetSpec::sync_storm(10, 2);
        s.epochs = 60;
        s.period = SimDuration::from_ms(5);
        s
    }

    /// Panics at its first step.
    struct Bomb;

    impl Task<K2System> for Bomb {
        fn step(&mut self, _w: &mut K2System, _m: &mut K2Machine, _cx: TaskCx) -> Step {
            panic!("bomb");
        }
    }

    #[test]
    fn a_panicking_member_names_its_index_epoch_and_seed() {
        let spec = FleetSpec::sync_storm(4, 2);
        let snap = warmed_snapshot();
        // One worker runs member 4 on the calling thread; two run it in
        // the spawned second chunk (members 3..6).
        for workers in [1, 2] {
            let mut members: Vec<Member> = (0..6).map(|i| fork_member(&spec, &snap, i)).collect();
            let Member { m, sys, .. } = &mut members[4];
            let core = K2System::kernel_core(m, DomainId::WEAK);
            m.spawn(core, Box::new(Bomb), sys);
            let chunk = 6usize.div_ceil(workers);
            let until = snap.now() + spec.epoch;
            let payload = panic::catch_unwind(AssertUnwindSafe(|| {
                advance(&mut members, chunk, until, 3, spec.seed)
            }))
            .expect_err("member 4 panics");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("fleet machine 4 panicked in epoch 3 (seed 2014): bomb"),
                "{workers} worker(s)"
            );
        }
    }

    #[test]
    fn report_is_identical_across_worker_counts() {
        let snap = warmed_snapshot();
        let mut spec = small();
        spec.workers = 1;
        let serial = run_fleet_from(&spec, &snap);
        for workers in [2, 4] {
            spec.workers = workers;
            let parallel = run_fleet_from(&spec, &snap);
            assert_eq!(serial.digest, parallel.digest, "workers={workers}");
            assert_eq!(serial.events, parallel.events);
            assert_eq!(serial.render(), parallel.render(), "workers={workers}");
        }
    }

    #[test]
    fn sync_storm_makes_progress() {
        let r = run_fleet(&{
            let mut s = small();
            s.workers = 2;
            s
        });
        assert!(r.dev_sent > 0, "devices sent bursts");
        assert!(r.hub_handled > 0, "hubs answered");
        assert!(r.dev_acks > 0, "acks made it back");
        assert!(r.delivered > 0 && r.routed >= r.delivered);
        assert!(r.events > 0);
    }

    #[test]
    fn stray_datagrams_drop_deterministically_and_are_counted() {
        let snap = warmed_snapshot();
        let mut spec = small();
        spec.stray_every = 3;
        spec.workers = 1;
        let a = run_fleet_from(&spec, &snap);
        assert!(a.unroutable > 0, "strays counted");
        spec.workers = 4;
        let b = run_fleet_from(&spec, &snap);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.unroutable, b.unroutable);
    }

    #[test]
    fn sim_digest_is_identical_under_every_trace_sink() {
        let snap = warmed_snapshot();
        let mut spec = small();
        spec.workers = 2;
        let disabled = run_fleet_from(&spec, &snap);
        spec.sink = SinkMode::RingBuffer(256);
        let ring = run_fleet_from(&spec, &snap);
        spec.sink = SinkMode::Full;
        let full = run_fleet_from(&spec, &snap);
        // Observation never perturbs simulated time: the sim digest and
        // every behavioural counter agree across sink modes.
        assert_eq!(disabled.digest, ring.digest);
        assert_eq!(disabled.digest, full.digest);
        assert_eq!(disabled.events, full.events);
        assert_eq!(disabled.dev_acks, full.dev_acks);
        // The *trace* digest differs: tracing stamps real contexts on
        // the wire where the disabled run carries none.
        assert_ne!(disabled.trace_digest, full.trace_digest);
        assert_eq!(ring.trace_digest, full.trace_digest);
    }

    #[test]
    fn traced_fleet_run_emits_matched_cross_machine_flows() {
        use k2_sim::json::Json;
        let snap = warmed_snapshot();
        let mut spec = small();
        spec.workers = 2;
        spec.sink = SinkMode::Full;
        let (report, trace) = run_fleet_traced(&spec, &snap);
        assert!(report.dev_acks > 0);
        let doc = Json::parse(&trace).expect("fleet trace is valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        let mut starts = std::collections::BTreeSet::new();
        let mut finishes = Vec::new();
        for e in events {
            match e.get("ph").and_then(Json::as_str) {
                Some("s") => {
                    starts.insert(e.get("id").and_then(Json::as_f64).unwrap() as u64);
                }
                Some("f") => {
                    finishes.push(e.get("id").and_then(Json::as_f64).unwrap() as u64);
                }
                _ => {}
            }
        }
        assert!(!starts.is_empty(), "traced storm opens flows");
        assert!(!finishes.is_empty(), "delivered datagrams close flows");
        for id in &finishes {
            assert!(starts.contains(id), "flow finish {id} without a start");
        }
    }

    #[test]
    fn timeline_trace_and_stragglers_are_worker_invariant() {
        let snap = warmed_snapshot();
        let mut spec = small();
        spec.sink = SinkMode::Full;
        spec.workers = 1;
        let (serial, serial_trace) = run_fleet_traced(&spec, &snap);
        for workers in [2, 4] {
            spec.workers = workers;
            let (parallel, parallel_trace) = run_fleet_traced(&spec, &snap);
            assert_eq!(
                serial.timeline.render_json(),
                parallel.timeline.render_json(),
                "workers={workers}"
            );
            assert_eq!(serial.timeline.stragglers, parallel.timeline.stragglers);
            assert_eq!(serial.trace_digest, parallel.trace_digest);
            assert_eq!(serial_trace, parallel_trace, "workers={workers}");
        }
    }

    #[test]
    fn timeline_counts_reconcile_with_the_report() {
        // The second run stops mid-storm, so it ends with datagrams
        // still in flight.
        let settled = {
            let mut s = small();
            s.workers = 2;
            s
        };
        let mut unsettled = settled.clone();
        unsettled.epochs = 6;
        for (spec, ends_in_flight) in [(settled, false), (unsettled, true)] {
            let r = run_fleet(&spec);
            assert_eq!(r.in_flight_end > 0, ends_in_flight);
            assert_eq!(r.timeline.samples.len(), r.epochs as usize);
            let events: u64 = r.timeline.samples.iter().map(|s| s.events).sum();
            assert_eq!(events, r.events);
            let dropped: u64 = r.timeline.samples.iter().map(|s| s.dropped).sum();
            assert_eq!(dropped, r.dropped);
            let queued: u64 = r.timeline.samples.iter().map(|s| s.queued).sum();
            assert_eq!(queued, r.delivered + r.in_flight_end as u64);
            // Cumulative energy is monotone.
            for w in r.timeline.samples.windows(2) {
                assert!(w[1].energy_uj >= w[0].energy_uj);
            }
        }
    }

    #[test]
    fn straggler_detector_flags_outliers_and_tolerates_uniform_fleets() {
        // Uniform fleet, MAD 0: nothing within the k-floor flags.
        let (median, mad, s) = find_stragglers(&[5, 5, 5, 5]);
        assert_eq!((median, mad), (5, 0));
        assert!(s.is_empty());
        // One machine far beyond median + k·max(MAD,1) flags.
        let (_, _, s) = find_stragglers(&[5, 5, 5, 40]);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].machine, 3);
        assert_eq!(s[0].peak_backlog, 40);
        // Empty fleet is defined.
        assert_eq!(find_stragglers(&[]), (0, 0, Vec::new()));
    }

    #[test]
    fn same_port_on_every_machine_is_not_a_collision() {
        // Every hub binds HUB_PORT and every device talks to it; if the
        // port space were fleet-global the second hub bind would fail.
        let mut spec = small();
        spec.hubs = 3;
        spec.workers = 2;
        let r = run_fleet(&spec);
        assert!(r.hub_handled > 0);
    }
}
