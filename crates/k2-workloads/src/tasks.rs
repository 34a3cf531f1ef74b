//! Benchmark task state machines.
//!
//! Each of the paper's §9.2 benchmarks is a light task implemented as a
//! [`Task`] state machine: the DMA driver benchmark, the ext2
//! cloud-synchronisation benchmark, and the UDP loopback benchmark. The
//! same task code runs under K2 (as a NightWatch thread on the weak domain)
//! and under the Linux baseline (as a normal thread on the strong domain) —
//! which is exactly the single-system-image property the paper claims.

use crate::record::EnergySnapshot;
use k2::system::{
    self, alloc_pages, dma_start, free_pages, nw_can_run, nw_park, shadowed, K2Machine, K2System,
};
use k2_kernel::proc::Pid;
use k2_kernel::service::ServiceId;
use k2_sim::time::{SimDuration, SimTime};
use k2_soc::dma::DmaXferId;
use k2_soc::mem::{Pfn, PhysAddr, PAGE_SIZE};
use k2_soc::platform::{Step, Task, TaskCx};
use std::sync::{Arc, Mutex};

/// Shared progress report written by a task and read by the harness.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Payload bytes completed.
    pub bytes: u64,
    /// When the workload finished (None while running).
    pub finished_at: Option<SimTime>,
    /// Operations completed (transfers, files, datagrams).
    pub ops: u64,
}

/// Shared handle to a [`Report`]. An `Arc<Mutex<…>>` because the task
/// holding it must be `Send` (see [`Task`]).
pub type ReportHandle = Arc<Mutex<Report>>;

/// Creates a fresh report handle.
pub fn new_report() -> ReportHandle {
    Arc::new(Mutex::new(Report::default()))
}

/// Common identity of a benchmark task.
#[derive(Clone, Debug)]
pub struct TaskIdentity {
    /// The owning process.
    pub pid: Pid,
    /// Whether the task is a NightWatch thread (gated by §8).
    pub nightwatch: bool,
}

fn gate(w: &mut K2System, cx: &TaskCx, id: &TaskIdentity) -> Option<Step> {
    if id.nightwatch && !nw_can_run(w, id.pid) {
        nw_park(w, id.pid, cx.task);
        return Some(Step::Block);
    }
    None
}

// ----------------------------------------------------------------------
// Payload patterns
// ----------------------------------------------------------------------

/// Every byte value in order. Byte `i` of a pattern with period `p` is
/// `i % p`, so each period-long stretch of one is a prefix of this ramp.
static RAMP: [u8; 256] = {
    let mut ramp = [0u8; 256];
    let mut i = 0;
    while i < ramp.len() {
        ramp[i] = i as u8;
        i += 1;
    }
    ramp
};

/// The `len`-byte payload whose byte `i` is `(start + i) % period`. The
/// host pays one copy per byte and no per-byte arithmetic: the buffer is
/// allocated at its exact length and filled with period-long slices of
/// `RAMP`.
fn ramp_payload(start: u64, len: u64, period: usize) -> Vec<u8> {
    let len = usize::try_from(len).expect("payload fits in memory");
    let mut out = Vec::with_capacity(len);
    let mut phase = (start % period as u64) as usize;
    while out.len() < len {
        let take = (period - phase).min(len - out.len());
        out.extend_from_slice(&RAMP[phase..phase + take]);
        phase = 0;
    }
    out
}

/// `true` if `payload` is what `ramp_payload(0, payload.len(), period)`
/// builds: every period-long chunk equals the ramp's prefix. Compares
/// slices, so it allocates nothing and does no per-byte arithmetic.
fn is_ramp_payload(payload: &[u8], period: usize) -> bool {
    payload.chunks(period).all(|c| c == &RAMP[..c.len()])
}

// ----------------------------------------------------------------------
// DMA benchmark (§9.2, Figure 6a; §9.4, Table 6)
// ----------------------------------------------------------------------

/// Repeatedly drives the DMA driver: memory-to-memory copies of
/// `batch` bytes until `total` bytes are done or a deadline passes.
pub struct DmaBenchTask {
    id: TaskIdentity,
    batch: u64,
    total: u64,
    deadline: Option<SimTime>,
    done: u64,
    buffers: Option<(PhysAddr, PhysAddr, Vec<Pfn>)>,
    pending: Option<DmaXferId>,
    finishing: bool,
    report: ReportHandle,
}

/// Period of the DMA benchmark's source pattern.
const DMA_PERIOD: usize = 251;

impl DmaBenchTask {
    /// Creates the task. `deadline` bounds fixed-duration runs (Table 6);
    /// `total` bounds fixed-work runs (Figure 6a).
    pub fn new(
        id: TaskIdentity,
        batch: u64,
        total: u64,
        deadline: Option<SimTime>,
        report: ReportHandle,
    ) -> Box<Self> {
        assert!(batch > 0 && batch <= (1 << 20), "batch must be 1..=1 MB");
        Box::new(DmaBenchTask {
            id,
            batch,
            total,
            deadline,
            done: 0,
            buffers: None,
            pending: None,
            finishing: false,
            report,
        })
    }

    fn order_for(batch: u64) -> u8 {
        let pages = batch.div_ceil(PAGE_SIZE as u64);
        (64 - (pages - 1).leading_zeros().min(63)) as u8
    }
}

impl Task<K2System> for DmaBenchTask {
    fn step(&mut self, w: &mut K2System, m: &mut K2Machine, cx: TaskCx) -> Step {
        if let Some(s) = gate(w, &cx, &self.id) {
            return s;
        }
        if self.finishing {
            let mut r = self.report.lock().expect("report lock poisoned");
            r.finished_at = Some(cx.now);
            return Step::Done;
        }
        // One-time setup: allocate source and destination buffers from the
        // local kernel and fill the source with a pattern.
        if self.buffers.is_none() {
            let order = Self::order_for(self.batch);
            let (src_pfn, d1) = alloc_pages(w, m, cx.core, order, false);
            let (dst_pfn, d2) = alloc_pages(w, m, cx.core, order, false);
            let (src_pfn, dst_pfn) = (
                src_pfn.expect("source buffer"),
                dst_pfn.expect("destination buffer"),
            );
            let src = src_pfn.base();
            let dst = dst_pfn.base();
            let pattern = ramp_payload(0, self.batch, DMA_PERIOD);
            m.ram_mut().write(src, &pattern);
            self.buffers = Some((src, dst, vec![src_pfn, dst_pfn]));
            return Step::ComputeTime { dur: d1 + d2 };
        }
        let (src, dst) = {
            let b = self.buffers.as_ref().expect("buffers set up");
            (b.0, b.1)
        };
        // Completion handling for the in-flight transfer.
        if let Some(xfer) = self.pending {
            if system::dma_is_pending(w, xfer) {
                return Step::Block; // the DMA interrupt hook wakes us
            }
            self.pending = None;
            self.done += self.batch;
            let mut r = self.report.lock().expect("report lock poisoned");
            r.bytes = self.done;
            r.ops += 1;
        }
        let deadline_hit = self.deadline.is_some_and(|d| cx.now >= d);
        if self.done >= self.total || deadline_hit {
            // Tear down: return the buffers.
            let pfns = self.buffers.take().expect("buffers live").2;
            let mut dur = SimDuration::ZERO;
            for p in pfns {
                dur += free_pages(w, m, cx.core, p);
            }
            self.finishing = true;
            return Step::ComputeTime { dur };
        }
        // Submit the next transfer.
        let (xfer, dur) = dma_start(w, m, cx.core, src, dst, self.batch, Some(cx.task));
        self.pending = Some(xfer);
        Step::ComputeTime { dur }
    }

    fn name(&self) -> &str {
        "dma-bench"
    }
}

// ----------------------------------------------------------------------
// ext2 benchmark (§9.2, Figure 6b)
// ----------------------------------------------------------------------

/// Mimics a light task synchronising content from the cloud: operates on
/// `files` files sequentially, creating, writing `file_size` bytes and
/// closing each (§9.2).
pub struct Ext2BenchTask {
    id: TaskIdentity,
    files: u32,
    file_size: u64,
    run_tag: u32,
    file_idx: u32,
    offset: u64,
    current: Option<k2_kernel::fs::InodeNo>,
    pending_io: Option<SimDuration>,
    report: ReportHandle,
}

/// Write chunk: the VFS path hands the filesystem up to 64 KB at a time.
const WRITE_CHUNK: u64 = 64 * 1024;

/// Period of the ext2 benchmark's file contents (byte at file offset `o`
/// is `o % EXT2_PERIOD`).
const EXT2_PERIOD: usize = 239;

impl Ext2BenchTask {
    /// Creates the task; `run_tag` keeps file names unique across runs.
    pub fn new(
        id: TaskIdentity,
        files: u32,
        file_size: u64,
        run_tag: u32,
        report: ReportHandle,
    ) -> Box<Self> {
        Box::new(Ext2BenchTask {
            id,
            files,
            file_size,
            run_tag,
            file_idx: 0,
            offset: 0,
            current: None,
            pending_io: None,
            report,
        })
    }
}

impl Task<K2System> for Ext2BenchTask {
    fn step(&mut self, w: &mut K2System, m: &mut K2Machine, cx: TaskCx) -> Step {
        if let Some(s) = gate(w, &cx, &self.id) {
            return s;
        }
        // Device-side latency of the previous chunk: the request is queued
        // at the device, whose completion interrupt arrives after the IO
        // gap (the idle periods that are so expensive for a strong core,
        // §2.1). The BLOCK line is subject to the §7 coordination rules
        // like any other shared interrupt.
        if let Some(dur) = self.pending_io.take() {
            m.raise_irq_after(k2_soc::ids::IrqId::BLOCK, dur);
            return Step::WaitIrq {
                irq: k2_soc::ids::IrqId::BLOCK,
            };
        }
        if self.file_idx >= self.files {
            self.report
                .lock()
                .expect("report lock poisoned")
                .finished_at = Some(cx.now);
            return Step::Done;
        }
        // Create the next file if none is open.
        if self.current.is_none() {
            let path = format!("/sync_{}_{}", self.run_tag, self.file_idx);
            let (ino, dur) = shadowed(w, m, cx.core, ServiceId::Fs, |s, opcx| {
                s.fs.create(&path, opcx).expect("create file")
            });
            self.current = Some(ino);
            self.offset = 0;
            return Step::ComputeTime { dur };
        }
        let ino = self.current.expect("open file");
        if self.offset < self.file_size {
            // Write the next chunk through the page cache: each 4 KB block
            // gets a movable local page, registered in this kernel's cache
            // so the balloon can migrate it later.
            let n = WRITE_CHUNK.min(self.file_size - self.offset);
            let mut dur = SimDuration::ZERO;
            let first_blk = self.offset / PAGE_SIZE as u64;
            for i in 0..n.div_ceil(PAGE_SIZE as u64) {
                let (pfn, d) = alloc_pages(w, m, cx.core, 0, true);
                dur += d;
                let kernel = w
                    .world
                    .kernel(if w.config.mode == k2::system::SystemMode::K2 {
                        cx.domain
                    } else {
                        k2_soc::ids::DomainId::STRONG
                    });
                if let Some(pfn) = pfn {
                    let h = kernel.rmap.handle_of(pfn).expect("movable page tracked");
                    kernel.pagecache.insert(ino, first_blk + i, h);
                }
            }
            let data = ramp_payload(self.offset, n, EXT2_PERIOD);
            let off = self.offset;
            let (res, d) = shadowed(w, m, cx.core, ServiceId::Fs, |s, opcx| {
                s.fs.write(ino, off, &data, opcx)
            });
            res.expect("file write");
            dur += d;
            self.offset += n;
            self.report.lock().expect("report lock poisoned").bytes += n;
            // Flash-backed devices add per-block latency, paid as an IO
            // wait after the CPU-side work.
            let io = w.world.services.fs.io_latency();
            if !io.is_zero() {
                let blocks = n.div_ceil(PAGE_SIZE as u64) + 2; // data + metadata
                self.pending_io = Some(io * blocks);
            }
            return Step::ComputeTime { dur };
        }
        // Close the file: flush + release the fd.
        let (_sz, dur) = shadowed(w, m, cx.core, ServiceId::Fs, |s, opcx| s.fs.size(ino, opcx));
        self.current = None;
        self.file_idx += 1;
        self.report.lock().expect("report lock poisoned").ops += 1;
        Step::ComputeTime {
            dur: dur + SimDuration::from_us(2),
        }
    }

    fn name(&self) -> &str {
        "ext2-bench"
    }
}

// ----------------------------------------------------------------------
// UDP loopback benchmark (§9.2, Figure 6c)
// ----------------------------------------------------------------------

/// Mimics the networking of a cloud-fetching light task: writes to one
/// socket, reads from the other, `total` bytes in all; every `batch` bytes
/// both sockets are destroyed and recreated (§9.2).
pub struct UdpBenchTask {
    id: TaskIdentity,
    batch: u64,
    total: u64,
    done: u64,
    in_batch: u64,
    sockets: Option<(k2_kernel::net::Port, k2_kernel::net::Port)>,
    report: ReportHandle,
}

/// Datagram payload size (a full-MTU packet).
const DATAGRAM: u64 = 1_024;

/// Period of the UDP benchmark's datagram payloads.
const UDP_PERIOD: usize = 131;

impl UdpBenchTask {
    /// Creates the task.
    pub fn new(id: TaskIdentity, batch: u64, total: u64, report: ReportHandle) -> Box<Self> {
        assert!(batch >= DATAGRAM, "batch smaller than one datagram");
        Box::new(UdpBenchTask {
            id,
            batch,
            total,
            done: 0,
            in_batch: 0,
            sockets: None,
            report,
        })
    }
}

impl Task<K2System> for UdpBenchTask {
    fn step(&mut self, w: &mut K2System, m: &mut K2Machine, cx: TaskCx) -> Step {
        if let Some(s) = gate(w, &cx, &self.id) {
            return s;
        }
        if self.done >= self.total {
            // Final teardown.
            let mut dur = SimDuration::ZERO;
            if let Some((a, b)) = self.sockets.take() {
                let (_, d) = shadowed(w, m, cx.core, ServiceId::Net, |s, opcx| {
                    s.net.close(a, opcx).and_then(|()| s.net.close(b, opcx))
                });
                dur = d;
            }
            self.report
                .lock()
                .expect("report lock poisoned")
                .finished_at = Some(cx.now);
            if dur.is_zero() {
                return Step::Done;
            }
            self.done = u64::MAX; // sentinel: next step returns Done
            return Step::ComputeTime { dur };
        }
        if self.sockets.is_none() {
            let ((a, b), dur) = shadowed(w, m, cx.core, ServiceId::Net, |s, opcx| {
                let a = s.net.bind(None, opcx).expect("bind tx");
                let b = s.net.bind(None, opcx).expect("bind rx");
                (a, b)
            });
            self.sockets = Some((a, b));
            self.in_batch = 0;
            return Step::ComputeTime { dur };
        }
        let (a, b) = self.sockets.expect("sockets bound");
        // One send + one receive.
        let n = DATAGRAM.min(self.total - self.done);
        let payload = ramp_payload(0, n, UDP_PERIOD);
        let (received, dur) = shadowed(w, m, cx.core, ServiceId::Net, |s, opcx| {
            s.net.send(a, b, &payload, opcx).expect("send");
            s.net.recv(b, opcx).expect("recv")
        });
        let dg = received.expect("loopback delivers immediately");
        assert_eq!(dg.payload.len() as u64, n, "payload intact");
        assert!(is_ramp_payload(&dg.payload, UDP_PERIOD), "payload intact");
        self.done += n;
        self.in_batch += n;
        {
            let mut r = self.report.lock().expect("report lock poisoned");
            r.bytes = self.done;
            r.ops += 1;
        }
        let mut dur = dur;
        if self.in_batch >= self.batch {
            // Destroy and recreate the sockets at the batch boundary.
            let (_, d) = shadowed(w, m, cx.core, ServiceId::Net, |s, opcx| {
                s.net.close(a, opcx).and_then(|()| s.net.close(b, opcx))
            });
            dur += d;
            self.sockets = None;
        }
        Step::ComputeTime { dur }
    }

    fn name(&self) -> &str {
        "udp-bench"
    }
}

/// A helper task that runs the meta-level manager's background poll once
/// (used by examples and the balloon tests).
pub struct MetaPollTask {
    done: bool,
}

impl MetaPollTask {
    /// Creates the task.
    pub fn new() -> Box<Self> {
        Box::new(MetaPollTask { done: false })
    }
}

impl Task<K2System> for MetaPollTask {
    fn step(&mut self, w: &mut K2System, m: &mut K2Machine, cx: TaskCx) -> Step {
        if self.done {
            return Step::Done;
        }
        self.done = true;
        let dur = system::meta_poll(w, m, cx.core);
        if dur.is_zero() {
            Step::Done
        } else {
            Step::ComputeTime { dur }
        }
    }

    fn name(&self) -> &str {
        "meta-poll"
    }
}

/// The meta-level manager as a background daemon: polls memory pressure on
/// a fixed period until its deadline ("like the Linux kernel swap daemon,
/// the meta-level manager performs operations in the background", §6.2).
pub struct MetaDaemonTask {
    period: SimDuration,
    deadline: SimTime,
    charged: Option<SimDuration>,
    polls: u64,
    report: ReportHandle,
}

impl MetaDaemonTask {
    /// Creates a daemon polling every `period` until `deadline`.
    pub fn new(period: SimDuration, deadline: SimTime, report: ReportHandle) -> Box<Self> {
        Box::new(MetaDaemonTask {
            period,
            deadline,
            charged: None,
            polls: 0,
            report,
        })
    }
}

impl Task<K2System> for MetaDaemonTask {
    fn step(&mut self, w: &mut K2System, m: &mut K2Machine, cx: TaskCx) -> Step {
        if let Some(dur) = self.charged.take() {
            // Charge the balloon work decided on the previous step.
            return Step::ComputeTime { dur };
        }
        if cx.now >= self.deadline {
            self.report
                .lock()
                .expect("report lock poisoned")
                .finished_at = Some(cx.now);
            return Step::Done;
        }
        let dur = system::meta_poll(w, m, cx.core);
        self.polls += 1;
        self.report.lock().expect("report lock poisoned").ops = self.polls;
        if !dur.is_zero() {
            self.charged = Some(dur);
        }
        Step::Sleep { dur: self.period }
    }

    fn name(&self) -> &str {
        "meta-daemon"
    }
}

/// Convenience: energy consumed by both domains since `since`.
pub fn energy_since(m: &K2Machine, since: &EnergySnapshot) -> f64 {
    EnergySnapshot::take(m).consumed_since(since)
}

/// One logical light thread inside a [`MultiplexTask`].
#[derive(Clone, Debug)]
pub struct LightThread {
    /// Owning process (each gets its own NightWatch gate).
    pub pid: Pid,
    /// Kernel thread id used for scheduling.
    pub tid: k2_kernel::proc::Tid,
    /// Work per slice, in core cycles.
    pub slice_cycles: u64,
    /// Slices left to run.
    pub slices: u32,
}

/// Multiplexes several logical NightWatch threads over one core using the
/// kernel's fair [`RunQueue`](k2_kernel::sched::RunQueue) — what the weak
/// domain's single core does when several apps run background work
/// concurrently (§4.3: "multi-domain parallelism, however, should be
/// supported among processes").
pub struct MultiplexTask {
    threads: Vec<LightThread>,
    rq: k2_kernel::sched::RunQueue,
    current: Option<usize>,
    /// Cycles each logical thread received, by index.
    pub report: ReportHandle,
    runtime_ns: Vec<u64>,
}

impl MultiplexTask {
    /// Creates the multiplexer; all threads start runnable.
    pub fn new(threads: Vec<LightThread>, report: ReportHandle) -> Box<Self> {
        let mut rq = k2_kernel::sched::RunQueue::new();
        for t in &threads {
            rq.enqueue(t.tid, k2_kernel::sched::WEIGHT_DEFAULT);
        }
        let n = threads.len();
        Box::new(MultiplexTask {
            threads,
            rq,
            current: None,
            report,
            runtime_ns: vec![0; n],
        })
    }

    /// Nanoseconds of CPU each logical thread received.
    pub fn runtime_ns(&self) -> &[u64] {
        &self.runtime_ns
    }
}

impl Task<K2System> for MultiplexTask {
    fn step(&mut self, w: &mut K2System, m: &mut K2Machine, cx: TaskCx) -> Step {
        // Account the slice that just finished.
        if let Some(i) = self.current.take() {
            let t = &mut self.threads[i];
            let ns = m.core_desc(cx.core).cycles(t.slice_cycles).as_ns();
            self.runtime_ns[i] += ns;
            self.rq.account(t.tid, ns);
            t.slices -= 1;
            if t.slices == 0 {
                self.rq.dequeue(t.tid);
            }
            self.report.lock().expect("report lock poisoned").ops += 1;
        }
        // Re-admit threads whose gate reopened (enqueue is idempotent; a
        // freshly admitted thread starts at min_vruntime, no windfall).
        for t in &self.threads {
            if t.slices > 0 && nw_can_run(w, t.pid) {
                self.rq.enqueue(t.tid, k2_kernel::sched::WEIGHT_DEFAULT);
            }
        }
        // Pick the next runnable logical thread whose process gate is open.
        for _ in 0..self.threads.len() + 1 {
            let Some(tid) = self.rq.pick_next() else {
                break;
            };
            let i = self
                .threads
                .iter()
                .position(|t| t.tid == tid)
                .expect("queued thread exists");
            let pid = self.threads[i].pid;
            if !nw_can_run(w, pid) {
                // Gate closed: take it off the queue until ResumeNW.
                self.rq.dequeue(tid);
                nw_park(w, pid, cx.task);
                continue;
            }
            self.current = Some(i);
            // Charge the slice plus a context switch between logical
            // threads.
            let cs = {
                let dom = cx.domain;
                let kernel = w
                    .world
                    .kernel(if w.config.mode == k2::system::SystemMode::K2 {
                        dom
                    } else {
                        k2_soc::ids::DomainId::STRONG
                    });
                kernel.context_switch()
            };
            let desc = m.core_desc(cx.core).clone();
            return Step::ComputeTime {
                dur: cs.time_on(&desc) + desc.cycles(self.threads[i].slice_cycles),
            };
        }
        if self.threads.iter().all(|t| t.slices == 0) {
            self.report
                .lock()
                .expect("report lock poisoned")
                .finished_at = Some(cx.now);
            return Step::Done;
        }
        // Work remains but every runnable thread is gated: park until a
        // ResumeNW wakes us.
        Step::Block
    }

    fn name(&self) -> &str {
        "nw-multiplex"
    }
}

/// Fetches content from a simulated cloud endpoint: send a request, idle
/// through the network round trip, receive the reply via the NET
/// interrupt, persist nothing (pure network light task).
pub struct CloudFetchTask {
    id: TaskIdentity,
    fetches: u32,
    reply_bytes: u64,
    rtt: SimDuration,
    sock: Option<k2_kernel::net::Port>,
    waiting: bool,
    report: ReportHandle,
}

/// Period of the simulated cloud endpoint's replies.
const CLOUD_PERIOD: usize = 127;

impl CloudFetchTask {
    /// Creates a task performing `fetches` request/replies of
    /// `reply_bytes` each over a link with the given round-trip time.
    pub fn new(
        id: TaskIdentity,
        fetches: u32,
        reply_bytes: u64,
        rtt: SimDuration,
        report: ReportHandle,
    ) -> Box<Self> {
        Box::new(CloudFetchTask {
            id,
            fetches,
            reply_bytes,
            rtt,
            sock: None,
            waiting: false,
            report,
        })
    }
}

impl Task<K2System> for CloudFetchTask {
    fn step(&mut self, w: &mut K2System, m: &mut K2Machine, cx: TaskCx) -> Step {
        if let Some(s) = gate(w, &cx, &self.id) {
            return s;
        }
        if self.fetches == 0 {
            let mut dur = SimDuration::ZERO;
            if let Some(p) = self.sock.take() {
                let (_, d) = shadowed(w, m, cx.core, ServiceId::Net, |s, opcx| {
                    s.net.close(p, opcx)
                });
                dur = d;
            }
            self.report
                .lock()
                .expect("report lock poisoned")
                .finished_at = Some(cx.now);
            if dur.is_zero() {
                return Step::Done;
            }
            self.fetches = u32::MAX; // sentinel
            return Step::ComputeTime { dur };
        }
        if self.fetches == u32::MAX {
            return Step::Done;
        }
        let Some(port) = self.sock else {
            let (p, dur) = shadowed(w, m, cx.core, ServiceId::Net, |s, opcx| {
                s.net.bind(None, opcx).expect("bind")
            });
            self.sock = Some(p);
            return Step::ComputeTime { dur };
        };
        if self.waiting {
            // Did the reply land?
            let (got, dur) = shadowed(w, m, cx.core, ServiceId::Net, |s, opcx| {
                s.net.recv(port, opcx).expect("socket bound")
            });
            match got {
                Some(dg) => {
                    assert_eq!(dg.payload.len() as u64, self.reply_bytes);
                    assert!(is_ramp_payload(&dg.payload, CLOUD_PERIOD), "payload intact");
                    self.waiting = false;
                    self.fetches -= 1;
                    let mut r = self.report.lock().expect("report lock poisoned");
                    r.bytes += dg.payload.len() as u64;
                    r.ops += 1;
                    return Step::ComputeTime { dur };
                }
                None => {
                    system::net_await(w, cx.task);
                    return Step::Block; // woken by the NET interrupt
                }
            }
        }
        // Send the request and schedule the remote reply.
        let (_, dur) = shadowed(w, m, cx.core, ServiceId::Net, |s, opcx| {
            // Requests go out the device; model the TX-path cost.
            opcx.charge(k2_kernel::cost::Cost::instr(2_000) + k2_kernel::cost::Cost::mem(40));
            opcx.read(0);
            s.net.socket_count()
        });
        let reply = ramp_payload(0, self.reply_bytes, CLOUD_PERIOD);
        system::net_expect_reply(w, m, port, k2_kernel::net::Port(443), reply, self.rtt);
        self.waiting = true;
        Step::ComputeTime { dur }
    }

    fn name(&self) -> &str {
        "cloud-fetch"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-byte formula the payloads were first built with.
    fn per_byte(start: u64, len: u64, period: usize) -> Vec<u8> {
        (0..len)
            .map(|i| ((start + i) % period as u64) as u8)
            .collect()
    }

    const PERIODS: [usize; 4] = [DMA_PERIOD, EXT2_PERIOD, UDP_PERIOD, CLOUD_PERIOD];

    #[test]
    fn ramp_payloads_match_the_per_byte_formula() {
        for period in PERIODS {
            let p = period as u64;
            for start in [0, p - 1, p, 65_535] {
                for len in [0, 1, p, p + 1, 1_024, 8_192, WRITE_CHUNK] {
                    let built = ramp_payload(start, len, period);
                    let at = format!("period {period}, start {start}, len {len}");
                    assert!(built == per_byte(start, len, period), "{at}");
                    // Filled in place: never grown past its first allocation.
                    let exact = Vec::<u8>::with_capacity(len as usize).capacity();
                    assert_eq!(built.capacity(), exact, "{at}");
                }
            }
        }
    }

    #[test]
    fn the_payload_check_accepts_exactly_the_pattern() {
        for period in PERIODS {
            for len in [0, 1, period as u64, 1_024, 8_192] {
                let mut payload = ramp_payload(0, len, period);
                assert!(
                    is_ramp_payload(&payload, period),
                    "period {period}, len {len}"
                );
                if len == 0 {
                    continue;
                }
                // A changed first, middle or last byte is caught.
                for at in [0, payload.len() / 2, payload.len() - 1] {
                    payload[at] ^= 1;
                    assert!(
                        !is_ramp_payload(&payload, period),
                        "period {period}, byte {at}"
                    );
                    payload[at] ^= 1;
                }
                // So is the pattern of a neighbouring period or phase. Up
                // to one period long, both periods give the same bytes.
                assert!(len <= period as u64 || !is_ramp_payload(&payload, period + 1));
                assert!(!is_ramp_payload(&ramp_payload(1, len, period), period));
            }
        }
    }
}
