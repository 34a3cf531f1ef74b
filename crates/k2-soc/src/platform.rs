//! The platform machine: cores, peripherals and the event loop.
//!
//! [`Machine`] is the discrete-event executor for the whole SoC. Simulated
//! threads of execution implement [`Task`] as explicit state machines; the
//! machine interleaves them across cores in simulated-time order, drives the
//! peripherals (mailboxes, DMA, interrupt fabric), and maintains each core's
//! power state — Active while stepping, Idle when its run queue drains, and
//! Inactive after the idle timeout, with wake-up penalties on the way back.
//!
//! The machine is generic over a [`World`]: the OS state that tasks mutate
//! and the one trait through which the machine calls the OS — interrupt
//! service, power transitions, timers and audits. The machine holds no OS
//! code of its own. The k2 crates instantiate `W` with the two-kernel
//! system; the machine itself knows nothing about operating systems.

use crate::core::{CoreDesc, CoreKind};
use crate::dma::{DmaEngine, DmaStatus, DmaXferId};
use crate::fault::{DmaFate, FaultClass, FaultPlan, FaultStats, MailFate};
use crate::hwspinlock::{HwLockId, HwSpinlockBank};
use crate::ids::{CoreId, DomainId, IrqId};
use crate::irq::IrqFabric;
use crate::mailbox::{Envelope, LinkTag, Mail, MailboxBank, MAIL_LATENCY};
use crate::mem::SharedRam;
use crate::power::{EnergyMeter, PowerState};
use k2_sim::audit::InvariantAuditor;
use k2_sim::digest::Fnv64;
use k2_sim::explore::{ChoicePoint, EventClass, ScheduleChooser};
use k2_sim::export::ChromeTraceWriter;
use k2_sim::json::JsonWriter;
use k2_sim::metrics::{CounterId, DurationId, GaugeId, HistogramId, Key, Registry, Tag};
use k2_sim::queue::EventQueue;
use k2_sim::sink::SinkMode;
use k2_sim::span::{SpanArgs, SpanId, SpanTracker};
use k2_sim::time::{SimDuration, SimTime};
use k2_sim::trace::{Trace, TraceEvent};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// What a [`Task`] asks the machine to do next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Execute for `cycles` core cycles, then step again.
    Compute {
        /// Core cycles to burn.
        cycles: u64,
    },
    /// Execute for a fixed duration (already converted from cycles), then
    /// step again.
    ComputeTime {
        /// Busy duration.
        dur: SimDuration,
    },
    /// Park for a duration; the core may run other tasks or go idle.
    Sleep {
        /// How long to sleep.
        dur: SimDuration,
    },
    /// Park until the given interrupt is delivered to this task's domain.
    WaitIrq {
        /// The line to wait for.
        irq: IrqId,
    },
    /// Park until another task or an interrupt handler calls
    /// [`Machine::wake`].
    Block,
    /// Go to the back of this core's run queue.
    Yield,
    /// The task has finished; it is dropped.
    Done,
}

/// Identifies a spawned task.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TaskId(pub u32);

/// Context handed to every [`Task::step`] call.
#[derive(Clone, Copy, Debug)]
pub struct TaskCx {
    /// The stepping task's id.
    pub task: TaskId,
    /// The core the task is pinned to.
    pub core: CoreId,
    /// The domain of that core.
    pub domain: DomainId,
    /// Current simulated time.
    pub now: SimTime,
}

/// A simulated thread of execution, written as a state machine.
///
/// Each call to [`Task::step`] performs the *logic* of the next slice of
/// work instantly (mutating the world `W` and the machine's peripherals) and
/// returns how much simulated time that slice costs, or how the task parks.
///
/// Tasks are `Send` so that a machine holding them is too: a fleet
/// coordinator owns every machine and hands chunks of them to worker
/// threads each epoch. State a task shares with its spawner therefore
/// lives behind `Arc<Mutex<…>>` or an atomic, not `Rc<RefCell<…>>`.
pub trait Task<W>: Send {
    /// Advances the task and returns the next scheduling action.
    fn step(&mut self, w: &mut W, m: &mut Machine<W>, cx: TaskCx) -> Step;

    /// A short name for diagnostics.
    fn name(&self) -> &str {
        "task"
    }
}

/// Context handed to [`World::irq`].
#[derive(Clone, Copy, Debug)]
pub struct IrqCx {
    /// The interrupt line being handled.
    pub irq: IrqId,
    /// The domain whose controller accepted it.
    pub domain: DomainId,
    /// The core the handler runs on.
    pub core: CoreId,
    /// Current simulated time.
    pub now: SimTime,
}

/// The OS a [`Machine`] drives: the state its tasks mutate, and the code
/// the machine calls when the hardware needs the OS. The machine keeps no
/// OS callbacks; it calls these four methods, and whatever they act on is
/// the world's own data. A snapshot of a machine with no live tasks plus
/// a clone of its world is therefore the whole system, and a fork needs
/// nothing re-installed.
///
/// Every method defaults to doing nothing; `()` is the world with no OS.
pub trait World: Sized {
    /// Services `cx.irq` on `cx.domain` and returns the handler's cost in
    /// core cycles, which the machine charges to `cx.core` on top of
    /// interrupt entry.
    fn irq(&mut self, _m: &mut Machine<Self>, _cx: IrqCx) -> u64 {
        0
    }

    /// Called on every core power-state transition (what K2 uses to
    /// re-route the shared interrupts, §7).
    fn power_changed(&mut self, _m: &mut Machine<Self>, _core: CoreId, _state: PowerState) {}

    /// Called, in event order, when the timer [`Machine::call_after`]
    /// returned `id` for falls due.
    fn timer(&mut self, _m: &mut Machine<Self>, _id: u64) {}

    /// Checks the world's conservation laws and records each violation
    /// in `auditor`. Called after the platform's own invariants whenever
    /// the auditor samples a step.
    fn audit(&self, _now: SimTime, _auditor: &mut InvariantAuditor) {}
}

impl World for () {}

/// The attribution subsystems [`Machine`] charges active time to. Indexes
/// into [`HotIds::active`]; the strings are the public metric tags.
const SUBSYSTEMS: [&str; 5] = ["task", "irq", "wake", "remote", "stall"];

/// Report-stable name of a [`PowerState`] in profile reports.
fn state_name(s: PowerState) -> &'static str {
    match s {
        PowerState::Active => "active",
        PowerState::Idle => "idle",
        PowerState::Inactive => "inactive",
    }
}

/// Maps an attribution subsystem name to its [`SUBSYSTEMS`] slot.
fn sub_slot(subsystem: &'static str) -> usize {
    SUBSYSTEMS
        .iter()
        .position(|&s| s == subsystem)
        .expect("unknown attribution subsystem")
}

/// Lazily-filled caches of interned metric ids for the event loop's hot
/// bump sites. A slot is `None` until the first real observation, so the
/// registry never grows phantom zero-valued entries (which would perturb
/// the byte-identical profile reports the golden suite pins down);
/// thereafter every bump is an O(1) dense-vector index instead of an
/// ordered-map walk over `(name, tag)` keys.
#[derive(Clone)]
struct HotIds {
    n_domains: usize,
    /// `active[core][subsystem]` duration accumulators.
    active: Vec<[Option<DurationId>; SUBSYSTEMS.len()]>,
    /// `sched.dispatch[core]` counters.
    sched_dispatch: Vec<Option<CounterId>>,
    /// `sched.runq[core]` gauges.
    sched_runq: Vec<Option<GaugeId>>,
    /// `mail.sent[from -> to]` counters, indexed `from * n_domains + to`.
    mail_sent: Vec<Option<CounterId>>,
    /// `mail.latency[from -> to]` histograms, same indexing.
    mail_latency: Vec<Option<HistogramId>>,
    /// `mail.delivered[dom]` counters.
    mail_delivered: Vec<Option<CounterId>>,
    /// `irq.delivered[dom]` counters.
    irq_delivered: Vec<Option<CounterId>>,
    dma_submitted: Option<CounterId>,
    dma_bytes_submitted: Option<CounterId>,
    dma_completed: Option<CounterId>,
    dma_failed: Option<CounterId>,
    dma_xfer: Option<HistogramId>,
}

impl HotIds {
    fn new(n_cores: usize, n_domains: usize) -> Self {
        HotIds {
            n_domains,
            active: vec![[None; SUBSYSTEMS.len()]; n_cores],
            sched_dispatch: vec![None; n_cores],
            sched_runq: vec![None; n_cores],
            mail_sent: vec![None; n_domains * n_domains],
            mail_latency: vec![None; n_domains * n_domains],
            mail_delivered: vec![None; n_domains],
            irq_delivered: vec![None; n_domains],
            dma_submitted: None,
            dma_bytes_submitted: None,
            dma_completed: None,
            dma_failed: None,
            dma_xfer: None,
        }
    }

    fn pair(&self, from: DomainId, to: DomainId) -> usize {
        from.index() * self.n_domains + to.index()
    }
}

#[derive(Clone, Copy, Debug)]
enum Event {
    StepDone { core: CoreId, epoch: u64 },
    InactiveTimeout { core: CoreId, epoch: u64 },
    MailDeliver { to: DomainId, env: Envelope },
    DmaTick { generation: u64 },
    TaskWake { task: TaskId },
    RaiseIrq { irq: IrqId },
    Call { id: u64 },
}

impl Event {
    /// The schedule-exploration class of this event (see
    /// [`k2_sim::explore`]). Each peripheral module declares the class of
    /// the events it originates.
    fn class(&self) -> EventClass {
        match self {
            Event::StepDone { .. } => EventClass::Step,
            Event::InactiveTimeout { .. } => crate::timer::EVENT_CLASS,
            Event::MailDeliver { .. } => crate::mailbox::EVENT_CLASS,
            Event::DmaTick { .. } => crate::dma::EVENT_CLASS,
            Event::TaskWake { .. } => EventClass::Wake,
            Event::RaiseIrq { .. } => crate::irq::EVENT_CLASS,
            Event::Call { .. } => EventClass::Call,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TaskState {
    Ready,
    Running,
    Parked,
}

struct TaskSlot<W> {
    task: Option<Box<dyn Task<W>>>,
    core: CoreId,
    state: TaskState,
    name: String,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CoreMode {
    Busy,
    Idle,
    Inactive,
}

#[derive(Clone)]
struct CoreRt {
    desc: CoreDesc,
    meter: EnergyMeter,
    mode: CoreMode,
    running: Option<TaskId>,
    rq: VecDeque<TaskId>,
    epoch: u64,
    extra: SimDuration,
    /// The core was woken from the inactive state only to service an
    /// interrupt or a remote charge; with nothing to run afterwards it
    /// re-enters the inactive state immediately (cpuidle-style), instead
    /// of paying the shallow-idle power for the whole inactive timeout.
    woke_for_service: bool,
    /// When a *task* last executed here. The inactive timeout counts from
    /// this point: servicing stray interrupts for another domain does not
    /// keep a core in shallow idle (a governor gates on its own load).
    task_activity_at: SimTime,
}

/// The SoC-wide discrete-event machine. See the module docs.
///
/// A machine is its data state, one plain `Clone` struct that snapshots
/// copy whole, plus two kinds of code: the bodies of its live tasks and
/// the schedule chooser. Everything else the OS does, it does through
/// [`World`].
pub struct Machine<W> {
    state: MachineState,
    tasks: Vec<Option<TaskSlot<W>>>,
    live_tasks: u64,
    schedule_chooser: Option<ScheduleChooser>,
    /// Reused across choice points so classifying a co-enabled set for the
    /// chooser allocates nothing in steady state.
    scratch_classes: Vec<EventClass>,
}

/// Every data field of a [`Machine`]: what [`Machine::snapshot`] and
/// [`Machine::fork`] clone whole and what [`MachineState::digest`] folds.
/// The maps are ordered, so the fold walks them in key order.
#[derive(Clone)]
struct MachineState {
    now: SimTime,
    queue: EventQueue<Event>,
    cores: Vec<CoreRt>,
    domains: Vec<Vec<CoreId>>,
    ram: SharedRam,
    mailboxes: MailboxBank,
    hwlocks: HwSpinlockBank,
    irq_fabric: IrqFabric,
    dma: DmaEngine,
    dma_pending: Vec<crate::dma::DmaCompletion>,
    /// Tasks parked on each `(domain, irq)` line, in park order.
    waiters: BTreeMap<(DomainId, IrqId), Vec<TaskId>>,
    completed_tasks: u64,
    trace: Trace,
    fault_plan: Option<FaultPlan>,
    auditor: InvariantAuditor,
    next_call_id: u64,
    metrics: Registry,
    spans: SpanTracker,
    /// Flight span and submit time of each in-progress DMA transfer.
    dma_inflight: BTreeMap<DmaXferId, (SpanId, SimTime)>,
    choice_points: u64,
    hot_ids: HotIds,
    events_processed: u64,
}

impl<W> fmt::Debug for Machine<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("now", &self.state.now)
            .field("cores", &self.state.cores.len())
            .field("live_tasks", &self.live_tasks)
            .finish()
    }
}

/// A frozen copy of a machine's complete *data* state — clock, event
/// queue, cores and energy meters, RAM pages, mailbox FIFOs, hardware
/// spinlocks, interrupt fabric, DMA engine, fault-plan RNG, event trace,
/// auditor, metrics registry, span tracker, hot metric-id cache and every
/// counter — taken with [`Machine::snapshot`] and rehydrated with
/// [`Machine::fork`]. It is the machine's one data struct, cloned whole,
/// plus the length of its task-slot table.
///
/// What a snapshot deliberately does *not* capture is code: task bodies
/// (`Box<dyn Task>`) and any installed schedule chooser. A machine must
/// therefore have no live or parked tasks when snapshotted, which is
/// the state a freshly booted system is in. Pending timers are no
/// obstacle: a timer is an `Event::Call` in the queue, and what it means
/// is the world's data (see [`World::timer`]). The OS reactions are the
/// world's [`World`] methods, so a fork paired with a clone of the world
/// is observably indistinguishable from the original machine: DESIGN.md
/// §5.7 gives the determinism argument.
///
/// The snapshot is `Send + Sync` plain data: freeze it once on a
/// coordinator and fork from it on any number of worker threads.
#[derive(Clone)]
pub struct MachineSnapshot {
    state: MachineState,
    /// Length of the task-slot table (every slot is vacant — see the
    /// no-live-tasks requirement), so forked machines keep allocating
    /// [`TaskId`]s from the same watermark.
    task_slots: usize,
}

impl fmt::Debug for MachineSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MachineSnapshot")
            .field("now", &self.state.now)
            .field("cores", &self.state.cores.len())
            .field("queued_events", &self.state.queue.len())
            .field("digest", &format_args!("{:#018x}", self.digest()))
            .finish()
    }
}

impl MachineSnapshot {
    /// The frozen clock value.
    pub fn now(&self) -> SimTime {
        self.state.now
    }

    /// 64-bit FNV-1a digest over the frozen state — the cheap identity
    /// check: equal digests mean (collisions aside) structurally equal
    /// machines that will evolve identically under identical inputs.
    pub fn digest(&self) -> u64 {
        self.state.digest(self.task_slots, true)
    }
}

/// Folds one queued event (with its firing time and sequence number).
/// `observability: false` leaves out the span id riding on mail
/// deliveries, which exists only for tracing.
fn fold_event(h: &mut Fnv64, at: SimTime, seq: u64, ev: &Event, observability: bool) {
    h.u64(at.as_ns()).u64(seq);
    match *ev {
        Event::StepDone { core, epoch } => {
            h.u32(0).bytes(&[core.0]).u64(epoch);
        }
        Event::InactiveTimeout { core, epoch } => {
            h.u32(1).bytes(&[core.0]).u64(epoch);
        }
        Event::MailDeliver { to, env } => {
            h.u32(2)
                .bytes(&[to.0, env.from.0])
                .u32(env.mail.0)
                .u64(env.sent_at.as_ns());
            if observability {
                h.u64(env.span.raw());
            }
            match env.tag {
                None => {
                    h.bool(false);
                }
                Some(t) => {
                    h.bool(true).bytes(&[t.chan]).u32(t.seq);
                }
            }
        }
        Event::DmaTick { generation } => {
            h.u32(3).u64(generation);
        }
        Event::TaskWake { task } => {
            h.u32(4).u32(task.0);
        }
        Event::RaiseIrq { irq } => {
            h.u32(5).u32(irq.0 as u32);
        }
        Event::Call { id } => {
            h.u32(6).u64(id);
        }
    }
}

impl MachineState {
    /// The one digest fold behind [`Machine::state_digest`],
    /// [`Machine::sim_digest`] and [`MachineSnapshot::digest`], so a live
    /// machine and its snapshot agree by construction. `task_slots` is
    /// the length of the task-slot table kept beside the state.
    ///
    /// `observability: true` (the full digest) folds everything, span
    /// tracker included. `observability: false` folds only *simulation*
    /// state — span ids and sink contents are left out, so two machines
    /// that differ solely in how they are being observed (disabled vs ring
    /// vs full sink) digest identically. The fleet pins this sim digest:
    /// equal across sink modes is the proof that observation never
    /// perturbs simulated time.
    fn digest(&self, task_slots: usize, observability: bool) -> u64 {
        let mut h = Fnv64::new();
        let h = &mut h;
        h.u64(self.now.as_ns());
        // Event queue: every live event in deterministic (time, seq) order.
        h.usize(self.queue.len());
        self.queue
            .for_each_live_ordered(|at, seq, ev| fold_event(h, at, seq, ev, observability));
        // Cores and their energy meters.
        h.usize(self.cores.len());
        for c in &self.cores {
            h.bytes(&[c.desc.id.0, c.desc.domain.0])
                .u32(match c.desc.kind {
                    CoreKind::CortexA9 => 0,
                    CoreKind::CortexM3 => 1,
                })
                .u64(c.desc.freq_hz);
            c.meter.digest_into(h);
            h.u32(match c.mode {
                CoreMode::Busy => 0,
                CoreMode::Idle => 1,
                CoreMode::Inactive => 2,
            })
            .u64(c.running.map_or(u64::MAX, |t| t.0 as u64))
            .usize(c.rq.len());
            for t in &c.rq {
                h.u32(t.0);
            }
            h.u64(c.epoch)
                .u64(c.extra.as_ns())
                .bool(c.woke_for_service)
                .u64(c.task_activity_at.as_ns());
        }
        h.usize(self.domains.len());
        for d in &self.domains {
            h.usize(d.len());
            for c in d {
                h.bytes(&[c.0]);
            }
        }
        self.ram.digest_into(h);
        self.mailboxes.digest_into(h);
        self.hwlocks.digest_into(h);
        self.irq_fabric.digest_into(h);
        self.dma.digest_into(h);
        h.usize(self.dma_pending.len());
        for c in &self.dma_pending {
            h.u64(c.id.0).u64(c.src.0).u64(c.dst.0).u64(c.len);
            match c.status {
                DmaStatus::Ok => {
                    h.bool(true);
                }
                DmaStatus::Error { bytes_copied } => {
                    h.bool(false).u64(bytes_copied);
                }
            }
        }
        h.usize(task_slots).u64(self.completed_tasks);
        h.usize(self.waiters.len());
        for (&(d, i), tasks) in &self.waiters {
            h.bytes(&[d.0]).u32(i.0 as u32).usize(tasks.len());
            for t in tasks {
                h.u32(t.0);
            }
        }
        self.trace.digest_into(h);
        // Slot of a removed always-false debug flag, kept so pinned digests hold.
        h.bool(false);
        match &self.fault_plan {
            None => {
                h.bool(false);
            }
            Some(p) => {
                h.bool(true);
                p.digest_into(h);
            }
        }
        self.auditor.digest_into(h);
        h.u64(self.next_call_id);
        self.metrics.digest_into(h);
        if observability {
            self.spans.digest_into(h);
        }
        h.usize(self.dma_inflight.len());
        for (id, &(span, at)) in &self.dma_inflight {
            h.u64(id.0);
            if observability {
                h.u64(span.raw());
            }
            h.u64(at.as_ns());
        }
        h.u64(self.choice_points).u64(self.events_processed);
        h.finish()
    }
}

impl<W: World> Machine<W> {
    /// Builds a machine from core descriptions and RAM size.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is empty or core ids are not `0..n` in order.
    pub fn new(cores: Vec<CoreDesc>, ram_bytes: u64) -> Self {
        assert!(!cores.is_empty(), "a machine needs at least one core");
        let n_domains = cores.iter().map(|c| c.domain.index()).max().unwrap() + 1;
        let mut domains = vec![Vec::new(); n_domains];
        for (i, c) in cores.iter().enumerate() {
            assert_eq!(c.id.index(), i, "core ids must be dense and ordered");
            domains[c.domain.index()].push(c.id);
        }
        let mut queue = EventQueue::new();
        let core_rts: Vec<CoreRt> = cores
            .into_iter()
            .map(|desc| {
                let meter = EnergyMeter::new(desc.power, PowerState::Idle);
                CoreRt {
                    desc,
                    meter,
                    mode: CoreMode::Idle,
                    running: None,
                    rq: VecDeque::new(),
                    epoch: 0,
                    extra: SimDuration::ZERO,
                    woke_for_service: false,
                    task_activity_at: SimTime::ZERO,
                }
            })
            .collect();
        for c in &core_rts {
            queue.schedule(
                SimTime::ZERO + c.desc.power.inactive_timeout,
                Event::InactiveTimeout {
                    core: c.desc.id,
                    epoch: 0,
                },
            );
        }
        let n_cores = core_rts.len();
        let mut trace = Trace::new(4096);
        trace.set_enabled(false);
        let state = MachineState {
            now: SimTime::ZERO,
            queue,
            cores: core_rts,
            domains,
            ram: SharedRam::new(ram_bytes),
            mailboxes: MailboxBank::new(n_domains, 64),
            hwlocks: HwSpinlockBank::new(32),
            irq_fabric: IrqFabric::new(n_domains),
            dma: DmaEngine::new(crate::calib::DMA_BANDWIDTH_BPS),
            dma_pending: Vec::new(),
            waiters: BTreeMap::new(),
            completed_tasks: 0,
            trace,
            fault_plan: None,
            auditor: InvariantAuditor::new(),
            next_call_id: 0,
            metrics: Registry::new(),
            spans: SpanTracker::new(),
            dma_inflight: BTreeMap::new(),
            choice_points: 0,
            hot_ids: HotIds::new(n_cores, n_domains),
            events_processed: 0,
        };
        Machine::with_state(state, 0)
    }

    /// A machine over `state` with `task_slots` vacant task slots and no
    /// schedule chooser.
    fn with_state(state: MachineState, task_slots: usize) -> Self {
        Machine {
            state,
            tasks: (0..task_slots).map(|_| None).collect(),
            live_tasks: 0,
            schedule_chooser: None,
            scratch_classes: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Snapshot / fork
    // ------------------------------------------------------------------

    /// Freezes the machine into a [`MachineSnapshot`]: a whole clone of
    /// its data state plus the task-slot watermark (see the snapshot's
    /// docs for what is and is not captured). The machine itself is
    /// untouched.
    ///
    /// # Panics
    ///
    /// Panics if a live or parked task holds a body a structural clone
    /// cannot carry. A freshly booted system has none; pending timers
    /// are data and may be captured at any point.
    pub fn snapshot(&self) -> MachineSnapshot {
        assert!(
            self.tasks.iter().all(Option::is_none),
            "cannot snapshot a machine with live tasks ({} live): task bodies are closures",
            self.live_tasks
        );
        MachineSnapshot {
            state: self.state.clone(),
            task_slots: self.tasks.len(),
        }
    }

    /// Rehydrates a machine from a frozen snapshot: the data state is
    /// cloned back whole and no schedule chooser is installed. Paired
    /// with a clone of the world the snapshot was taken beside, the fork
    /// is byte-indistinguishable from the machine the snapshot froze;
    /// `K2System::fork` is exactly that pairing.
    pub fn fork(snap: &MachineSnapshot) -> Machine<W> {
        Machine::with_state(snap.state.clone(), snap.task_slots)
    }

    /// 64-bit FNV-1a digest over the machine's current data state — the
    /// same fold [`MachineSnapshot::digest`] uses, so
    /// `m.state_digest() == m.snapshot().digest()` whenever the machine
    /// has no live tasks, and two machines agreeing here agree on
    /// everything a snapshot would capture. Unlike [`Machine::snapshot`]
    /// this never panics. Task bodies are closures and are not folded,
    /// but a live task is never invisible: its core's run state, a
    /// waiter list or a queued wake-up references it.
    pub fn state_digest(&self) -> u64 {
        self.state.digest(self.tasks.len(), true)
    }

    /// The *simulation* digest: [`Machine::state_digest`] minus every
    /// observability-only term (span ids, sink contents, sink identity).
    /// Two machines running the same workload under different trace
    /// sinks — disabled, ring, full — agree here; the fleet driver pins
    /// this digest precisely so that turning tracing on can never change
    /// a pinned run.
    pub fn sim_digest(&self) -> u64 {
        self.state.digest(self.tasks.len(), false)
    }

    // ------------------------------------------------------------------
    // Schedule exploration
    // ------------------------------------------------------------------

    /// Installs a schedule chooser, consulted whenever more than one event
    /// is co-enabled (shares the earliest firing time). The chooser only
    /// permutes orderings the queue already considered simultaneous, so
    /// every explored schedule is a legal execution; without a chooser the
    /// machine fires co-enabled events in scheduling (sequence) order.
    pub fn set_schedule_chooser(&mut self, chooser: ScheduleChooser) {
        self.schedule_chooser = Some(chooser);
    }

    /// Removes any installed schedule chooser, restoring sequence order.
    pub fn clear_schedule_chooser(&mut self) {
        self.schedule_chooser = None;
    }

    /// How many nondeterministic choice points (co-enabled sets of ≥ 2
    /// events) the event loop has encountered, chooser or not.
    pub fn choice_points(&self) -> u64 {
        self.state.choice_points
    }

    /// Pops the next event, consulting the schedule chooser at choice
    /// points. The chooser is taken out of `self` for the duration of the
    /// call so it cannot alias the machine.
    ///
    /// Choice points (co-enabled sets of ≥ 2 live events) are detected on
    /// the way out of the queue — [`EventQueue::pop_tied`] without a
    /// chooser, the chooser callback itself with one (the queue only
    /// consults it for real ties) — so the count costs no heap scan and is
    /// identical on both paths.
    fn next_event(&mut self) -> Option<(SimTime, Event)> {
        match self.schedule_chooser.take() {
            None => {
                let (at, ev, tied) = self.state.queue.pop_tied()?;
                if tied {
                    self.state.choice_points += 1;
                }
                Some((at, ev))
            }
            Some(mut chooser) => {
                let choice_points = &mut self.state.choice_points;
                let classes = &mut self.scratch_classes;
                let popped = self.state.queue.pop_with(|at, cands| {
                    *choice_points += 1;
                    classes.clear();
                    classes.extend(cands.iter().map(Event::class));
                    chooser(&ChoicePoint {
                        now: at,
                        classes: classes.as_slice(),
                    })
                });
                self.schedule_chooser = Some(chooser);
                popped
            }
        }
    }

    /// Total events the loop has dispatched — the denominator of the
    /// simulator's events/sec throughput figure.
    pub fn events_processed(&self) -> u64 {
        self.state.events_processed
    }

    /// Enables or disables the bounded in-memory event trace (see
    /// [`Machine::trace`]).
    pub fn set_trace(&mut self, on: bool) {
        self.state.trace.set_enabled(on);
    }

    /// Replaces the event-trace ring with one of `capacity` records,
    /// discarding anything recorded so far (the enabled flag is kept).
    /// Trace exporters that want a power/mail timeline longer than the
    /// default 4096-record window raise this before driving the run.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        let enabled = self.state.trace.is_enabled();
        self.state.trace = Trace::new(capacity);
        self.state.trace.set_enabled(enabled);
    }

    /// The recorded event trace.
    pub fn trace(&self) -> &Trace {
        &self.state.trace
    }

    /// Emits a free-form marker into the trace.
    pub fn trace_marker(&mut self, label: &'static str) {
        self.state
            .trace
            .record(self.state.now, TraceEvent::Marker(label));
    }

    // ------------------------------------------------------------------
    // Metrics, spans, and profile reports
    // ------------------------------------------------------------------

    /// The metrics registry (read-only).
    pub fn metrics(&self) -> &Registry {
        &self.state.metrics
    }

    /// The metrics registry, for OS layers to record their own counters,
    /// gauges, and histograms. Recording is pure observation — it never
    /// perturbs event timing — so instrumented runs stay byte-identical.
    pub fn metrics_mut(&mut self) -> &mut Registry {
        &mut self.state.metrics
    }

    /// The span tracker (read-only).
    pub fn spans(&self) -> &SpanTracker {
        &self.state.spans
    }

    /// The span tracker, for OS layers to open their own causal spans.
    pub fn spans_mut(&mut self) -> &mut SpanTracker {
        &mut self.state.spans
    }

    /// Installs a span storage backend (see [`SinkMode`]): `Full` is the
    /// boot default and what golden reports assume, `RingBuffer` keeps a
    /// recency window, and `Disabled` makes every instrumentation point
    /// free — no ids, no inserts, no stack pushes. Recording is pure
    /// observation, so the choice never changes simulated behaviour;
    /// install before driving events (a swap discards retained spans).
    pub fn set_span_sink(&mut self, mode: SinkMode) {
        self.state.spans.set_sink(mode.build());
    }

    /// Attributes `dur` of active time on `core` to a named subsystem.
    /// Every path that starts or extends a busy period calls this, so the
    /// per-core attribution table sums to the meter's active time.
    fn attribute(&mut self, core: CoreId, subsystem: &'static str, dur: SimDuration) {
        if !dur.is_zero() {
            self.state.metrics.add_duration_cached(
                &mut self.state.hot_ids.active[core.index()][sub_slot(subsystem)],
                Key::new("active", Tag::CoreSubsystem(core.0, subsystem)),
                dur,
            );
        }
    }

    /// Samples the run-queue depth gauge for `core` (called after every
    /// run-queue mutation so the time-weighted average is exact).
    fn note_runq(&mut self, core: CoreId) {
        let depth = self.state.cores[core.index()].rq.len() as f64;
        let slot = &mut self.state.hot_ids.sched_runq[core.index()];
        match *slot {
            Some(id) => self
                .state
                .metrics
                .gauge_set_by_id(id, self.state.now, depth),
            None => {
                *slot = Some(self.state.metrics.gauge_set(
                    Key::new("sched.runq", Tag::Core(core.0)),
                    self.state.now,
                    depth,
                ));
            }
        }
    }

    /// Runs the shutdown invariant audit (see
    /// [`InvariantAuditor::begin_final`]): every check executes at least
    /// once even when the run ends between stride points.
    fn final_audit(&mut self, w: &mut W) {
        if self.state.auditor.begin_final() {
            self.audit_step(w);
        }
    }

    /// Total core-active time so far and the portion attributed to named
    /// subsystems, summed across every core. The attribution machinery is
    /// sound when the two are (nearly) equal; tests assert ≥95% coverage.
    pub fn active_attribution(&self) -> (SimDuration, SimDuration) {
        let mut active = SimDuration::ZERO;
        let mut attributed = SimDuration::ZERO;
        for rt in &self.state.cores {
            active += rt.meter.time_in_at(PowerState::Active, self.state.now);
            for (_, d) in self.state.metrics.core_breakdown("active", rt.desc.id.0) {
                attributed += d;
            }
        }
        (active, attributed)
    }

    /// Streams the members of the machine-level profile report through
    /// `w`: per-domain energy and power state, per-core state times with
    /// the active-time attribution breakdown, every registry metric, and
    /// the span summary. Each section hits the output buffer as it is
    /// computed, so peak allocation is one entry, not one report. The
    /// caller owns the surrounding `begin_object`/`end_object` (the OS
    /// layer appends its own `system` section after these).
    ///
    /// The report is a pure function of simulation state — no wall clock,
    /// ordered maps throughout, fixed float notation — so the same seeded
    /// run always serializes to the same bytes; the golden suite and the
    /// conformance-matrix digest pin them.
    pub fn write_profile_fields<O: std::fmt::Write + ?Sized>(&self, w: &mut JsonWriter<'_, O>) {
        use std::fmt::Write as _;
        let now = self.state.now;
        // Reused key buffer: metric keys are `Display`ed, not allocated.
        let mut kb = String::new();
        w.key("sim_time_ns");
        w.u64(now.as_ns());
        w.key("total_energy_mj");
        w.f64(self.total_energy_mj());
        w.key("domains");
        w.begin_array();
        for d in 0..self.domain_count() {
            let dom = DomainId(d as u8);
            w.begin_object();
            w.key("domain");
            w.u64(d as u64);
            w.key("energy_mj");
            w.f64(self.domain_energy_mj(dom));
            w.key("power_state");
            w.str(state_name(self.domain_power_state(dom)));
            w.key("cores");
            w.begin_array();
            for c in self.domain_cores(dom) {
                w.u64(c.index() as u64);
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.key("cores");
        w.begin_array();
        for rt in &self.state.cores {
            let active = rt.meter.time_in_at(PowerState::Active, now);
            w.begin_object();
            w.key("core");
            w.u64(rt.desc.id.0 as u64);
            w.key("domain");
            w.u64(rt.desc.domain.0 as u64);
            w.key("freq_hz");
            w.u64(rt.desc.freq_hz);
            w.key("energy_mj");
            w.f64(rt.meter.energy_mj_at(now));
            w.key("wakeups");
            w.u64(rt.meter.wakeups());
            w.key("state_ns");
            w.begin_object();
            w.key("active");
            w.u64(active.as_ns());
            w.key("idle");
            w.u64(rt.meter.time_in_at(PowerState::Idle, now).as_ns());
            w.key("inactive");
            w.u64(rt.meter.time_in_at(PowerState::Inactive, now).as_ns());
            w.end_object();
            w.key("active_breakdown_ns");
            w.begin_object();
            let mut attributed = SimDuration::ZERO;
            for (sub, d) in self.state.metrics.core_breakdown("active", rt.desc.id.0) {
                attributed += d;
                w.key(sub);
                w.u64(d.as_ns());
            }
            w.end_object();
            w.key("unaccounted_active_ns");
            w.u64(active.saturating_sub(attributed).as_ns());
            w.end_object();
        }
        w.end_array();
        w.key("metrics");
        w.begin_object();
        w.key("counters");
        w.begin_object();
        for (k, v) in self.state.metrics.counters() {
            kb.clear();
            write!(kb, "{k}").unwrap();
            w.key(&kb);
            w.u64(v);
        }
        w.end_object();
        w.key("durations_ns");
        w.begin_object();
        for (k, d) in self.state.metrics.durations() {
            kb.clear();
            write!(kb, "{k}").unwrap();
            w.key(&kb);
            w.u64(d.as_ns());
        }
        w.end_object();
        w.key("gauges");
        w.begin_object();
        for (k, g) in self.state.metrics.gauges() {
            kb.clear();
            write!(kb, "{k}").unwrap();
            w.key(&kb);
            w.begin_object();
            w.key("value");
            w.f64(g.value());
            w.key("min");
            w.f64(g.min());
            w.key("max");
            w.f64(g.max());
            w.key("time_avg");
            w.f64(g.time_average(now));
            w.end_object();
        }
        w.end_object();
        w.key("histograms");
        w.begin_object();
        for (k, h) in self.state.metrics.histograms() {
            kb.clear();
            write!(kb, "{k}").unwrap();
            w.key(&kb);
            w.begin_object();
            w.key("count");
            w.u64(h.count());
            w.key("mean");
            w.f64(h.mean());
            w.key("p50");
            w.u64(h.percentile(0.5));
            w.key("p99");
            w.u64(h.percentile(0.99));
            w.end_object();
        }
        w.end_object();
        w.end_object();
        w.key("spans");
        w.begin_object();
        w.key("allocated");
        w.u64(self.state.spans.allocated());
        w.key("retained");
        w.u64(self.state.spans.retained() as u64);
        w.key("dropped");
        w.u64(self.state.spans.dropped());
        w.key("by_name");
        w.begin_object();
        for (name, (count, total_ns)) in self.state.spans.summary() {
            w.key(name);
            w.begin_object();
            w.key("count");
            w.u64(count);
            w.key("total_ns");
            w.u64(total_ns);
            w.end_object();
        }
        w.end_object();
        w.end_object();
    }

    /// Streams the machine's observability state as Chrome trace-event
    /// JSON (loadable in Perfetto / `chrome://tracing`).
    ///
    /// Mapping (DESIGN.md §5.5): each coherence domain is a *process*
    /// (`pid` = domain index) with fixed named tracks; every closed span
    /// becomes an `"X"` complete event on its kind's track; the event
    /// trace (when enabled) contributes `"i"` mail/fault instants plus
    /// per-domain `"C"` counter timelines — exact active-core counts and
    /// cumulative energy reconstructed from the power-state transitions
    /// and each core's calibrated state power; and the export closes
    /// with exact end-of-run energy and gauge samples. Deterministic:
    /// simulated time only, fixed notation.
    pub fn write_chrome_trace<O: std::fmt::Write + ?Sized>(&self, out: &mut O) {
        let mut w = ChromeTraceWriter::new(out);
        self.chrome_trace_into(&mut w, 0);
        w.finish();
    }

    /// Appends this machine's events into an already-open trace writer
    /// under machine `machine`'s pid block (see
    /// [`PID_STRIDE`](k2_sim::export::PID_STRIDE)) — the fleet driver
    /// calls this once per device to build one combined document that
    /// Perfetto renders as one track group per machine. Machine 0 keeps
    /// the bare `domain{d}` process names so a single-machine
    /// [`write_chrome_trace`](Self::write_chrome_trace) document is
    /// byte-identical to the pre-fleet format; other machines are named
    /// `m{machine}/domain{d}`.
    pub fn chrome_trace_into<O: std::fmt::Write + ?Sized>(
        &self,
        w: &mut ChromeTraceWriter<'_, O>,
        machine: u64,
    ) {
        const TRACKS: [(u64, &str); 4] = [(0, "spans"), (1, "mail"), (2, "irq"), (3, "dma")];
        fn track_of(name: &str) -> u64 {
            match name {
                "mail" => 1,
                "irq" => 2,
                "dma" => 3,
                _ => 0,
            }
        }
        let now = self.state.now;
        w.set_machine(machine);
        let mut label = String::new();
        for d in 0..self.domain_count() {
            use std::fmt::Write as _;
            label.clear();
            if machine == 0 {
                write!(label, "domain{d}").unwrap();
            } else {
                write!(label, "m{machine}/domain{d}").unwrap();
            }
            w.metadata_process_name(d as u64, &label);
            for (tid, name) in TRACKS {
                w.metadata_thread_name(d as u64, tid, name);
            }
        }
        // Closed spans → complete events, plus Chrome flow events
        // stitching cross-machine sends: a tx span annotated with a
        // `trace` arg opens a flow under its fleet-global id, and an rx
        // span annotated with `rparent` (the sender's global id) closes
        // that flow, binding to the enclosing slice (`bp:"e"`). Perfetto
        // then draws the hub→device→hub arrows of one causal tree.
        // Single-machine traces carry no such args, so their output is
        // byte-identical to the pre-flow format.
        self.state.spans.for_each(|s| {
            if let Some(end) = s.end {
                let mut args = vec![
                    ("id", s.id.raw()),
                    ("parent", s.parent.map_or(0, SpanId::raw)),
                ];
                args.extend(s.args.iter());
                w.complete(
                    s.name,
                    "span",
                    s.domain as u64,
                    track_of(s.name),
                    (s.start.as_ns(), end.saturating_since(s.start).as_ns()),
                    &args,
                );
                let pid = s.domain as u64;
                let tid = track_of(s.name);
                let mut rparent = None;
                let mut traced = false;
                for (k, v) in s.args.iter() {
                    match k {
                        "trace" => traced = true,
                        "rparent" => rparent = Some(v),
                        _ => {}
                    }
                }
                if traced && rparent.is_none() {
                    let gid = k2_sim::span::global_span_id(machine as u32, s.id.raw());
                    w.flow_start("net", pid, tid, gid, s.start.as_ns());
                }
                if let Some(rp) = rparent {
                    w.flow_finish("net", pid, tid, rp, s.start.as_ns());
                }
            }
        });
        // Event-trace timeline (only present when tracing was enabled):
        // power transitions drive the per-domain counter series.
        let n = self.state.cores.len();
        let mut state = vec![PowerState::Idle; n];
        let mut last = vec![SimTime::ZERO; n];
        let mut acc = vec![0.0f64; n]; // cumulative mJ per core
        for r in self.state.trace.iter() {
            match r.event {
                TraceEvent::Power { core, state: code } => {
                    let ci = core as usize;
                    if ci >= n {
                        continue;
                    }
                    let dom = self.state.cores[ci].desc.domain;
                    // Advance every core of the domain to this instant,
                    // charging the power of the state it was in.
                    for (i, rt) in self.state.cores.iter().enumerate() {
                        if rt.desc.domain != dom {
                            continue;
                        }
                        let dt = r.at.saturating_since(last[i]).as_secs_f64();
                        acc[i] += rt.desc.power.power_mw(state[i]) * dt;
                        last[i] = r.at;
                    }
                    state[ci] = match code {
                        0 => PowerState::Active,
                        1 => PowerState::Idle,
                        _ => PowerState::Inactive,
                    };
                    let mut energy = 0.0;
                    let mut active = 0u64;
                    for (i, rt) in self.state.cores.iter().enumerate() {
                        if rt.desc.domain != dom {
                            continue;
                        }
                        energy += acc[i];
                        if state[i] == PowerState::Active {
                            active += 1;
                        }
                    }
                    let pid = dom.0 as u64;
                    w.counter(
                        "active_cores",
                        pid,
                        r.at.as_ns(),
                        &[("cores", active as f64)],
                    );
                    w.counter("energy_mj", pid, r.at.as_ns(), &[("mj", energy)]);
                }
                TraceEvent::Mail { to, .. } => {
                    w.instant("mail", "mail", to as u64, 1, r.at.as_ns());
                }
                TraceEvent::Fault { .. } => {
                    w.instant("fault", "fault", 0, 0, r.at.as_ns());
                }
                TraceEvent::Marker(name) => {
                    w.instant(name, "marker", 0, 0, r.at.as_ns());
                }
                TraceEvent::Irq { .. } | TraceEvent::Task { .. } => {}
            }
        }
        // End-of-run samples: the meters' exact per-domain energy (the
        // reconstruction above is an approximation over the trace
        // window) and the final value/time-average of each core gauge.
        for d in 0..self.domain_count() {
            let dom = DomainId(d as u8);
            w.counter(
                "energy_mj_final",
                d as u64,
                now.as_ns(),
                &[("mj", self.domain_energy_mj(dom))],
            );
        }
        let mut name = String::new();
        for (k, g) in self.state.metrics.gauges() {
            if let Tag::Core(c) = k.tag {
                use std::fmt::Write as _;
                name.clear();
                write!(name, "{}/core{}", k.name, c).unwrap();
                let pid = self
                    .state
                    .cores
                    .get(c as usize)
                    .map_or(0, |rt| rt.desc.domain.0 as u64);
                w.counter(
                    &name,
                    pid,
                    now.as_ns(),
                    &[("value", g.value()), ("time_avg", g.time_average(now))],
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault injection and auditing
    // ------------------------------------------------------------------

    /// Installs a fault plan. From now on the machine consults it on every
    /// mail send, lock acquisition, DMA completion, and task step.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.state.fault_plan = Some(plan);
    }

    /// `true` when a fault plan is installed — kernel layers use this to
    /// activate their reliability paths (acks, retries, dedup) so that
    /// unfaulted runs stay byte-identical to the calibrated model.
    pub fn fault_injection_active(&self) -> bool {
        self.state.fault_plan.is_some()
    }

    /// Counts of faults injected so far, if a plan is installed.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.state.fault_plan.as_ref().map(|p| p.stats())
    }

    /// The invariant auditor (read-only).
    pub fn auditor(&self) -> &InvariantAuditor {
        &self.state.auditor
    }

    /// Switches the invariant auditor on, checking every `stride`-th step.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    pub fn enable_audit(&mut self, stride: u64) {
        self.state.auditor.set_stride(stride);
        self.state.auditor.set_enabled(true);
    }

    /// Arms a one-shot timer `dur` from now and returns its id, the
    /// machine's equivalent of a kernel timer: when it falls due, in
    /// event order, the machine calls [`World::timer`] with the id. Ids
    /// are sequential per machine. The world keeps what the timer means
    /// as data keyed by the id; reliability layers arm retransmit
    /// deadlines this way.
    pub fn call_after(&mut self, dur: SimDuration) -> u64 {
        let id = self.state.next_call_id;
        self.state.next_call_id += 1;
        self.state
            .queue
            .schedule(self.state.now + dur, Event::Call { id });
        id
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.state.now
    }

    /// Static description of a core.
    pub fn core_desc(&self, core: CoreId) -> &CoreDesc {
        &self.state.cores[core.index()].desc
    }

    /// The cores of a domain, lowest id first.
    pub fn domain_cores(&self, dom: DomainId) -> &[CoreId] {
        &self.state.domains[dom.index()]
    }

    /// Number of domains on the platform.
    pub fn domain_count(&self) -> usize {
        self.state.domains.len()
    }

    /// `true` if the core is running a task or has tasks queued —
    /// distinguishes real work from interrupt-service blips (used by K2's
    /// interrupt coordination to apply §7 rule 2 only to genuine wake-ups).
    pub fn core_has_task_work(&self, core: CoreId) -> bool {
        let rt = &self.state.cores[core.index()];
        rt.running.is_some() || !rt.rq.is_empty()
    }

    /// A core's current power state.
    pub fn core_power_state(&self, core: CoreId) -> PowerState {
        match self.state.cores[core.index()].mode {
            CoreMode::Busy => PowerState::Active,
            CoreMode::Idle => PowerState::Idle,
            CoreMode::Inactive => PowerState::Inactive,
        }
    }

    /// A domain's power state: Active if any core is active, otherwise Idle
    /// if any is idle, otherwise Inactive.
    pub fn domain_power_state(&self, dom: DomainId) -> PowerState {
        let mut state = PowerState::Inactive;
        for &c in self.domain_cores(dom) {
            match self.core_power_state(c) {
                PowerState::Active => return PowerState::Active,
                PowerState::Idle => state = PowerState::Idle,
                PowerState::Inactive => {}
            }
        }
        state
    }

    /// Energy consumed by a domain so far, in millijoules.
    pub fn domain_energy_mj(&self, dom: DomainId) -> f64 {
        self.domain_cores(dom)
            .iter()
            .map(|&c| {
                self.state.cores[c.index()]
                    .meter
                    .energy_mj_at(self.state.now)
            })
            .sum()
    }

    /// Energy consumed by every domain, in millijoules.
    pub fn total_energy_mj(&self) -> f64 {
        (0..self.domain_count())
            .map(|d| self.domain_energy_mj(DomainId(d as u8)))
            .sum()
    }

    /// The energy meter of one core (read-only).
    pub fn core_meter(&self, core: CoreId) -> &EnergyMeter {
        &self.state.cores[core.index()].meter
    }

    /// Changes a core's operating point (frequency and power parameters).
    pub fn set_operating_point(
        &mut self,
        core: CoreId,
        freq_hz: u64,
        power: crate::power::CorePowerParams,
    ) {
        let rt = &mut self.state.cores[core.index()];
        let (lo, hi) = rt.desc.kind.freq_range();
        assert!((lo..=hi).contains(&freq_hz), "frequency out of range");
        rt.desc.freq_hz = freq_hz;
        rt.desc.power = power;
        rt.meter.set_params(self.state.now, power);
    }

    // ------------------------------------------------------------------
    // Tasks
    // ------------------------------------------------------------------

    /// Spawns a task pinned to `core`. It runs when the core dispatches it.
    pub fn spawn(&mut self, core: CoreId, task: Box<dyn Task<W>>, w: &mut W) -> TaskId {
        let name = task.name().to_owned();
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(Some(TaskSlot {
            task: Some(task),
            core,
            state: TaskState::Ready,
            name,
        }));
        self.live_tasks += 1;
        self.state.cores[core.index()].rq.push_back(id);
        self.note_runq(core);
        self.kick(core, w);
        id
    }

    /// Wakes a parked task (no-op for ready/running tasks).
    ///
    /// # Panics
    ///
    /// Panics if the task id is unknown or already finished.
    pub fn wake(&mut self, task: TaskId, w: &mut W) {
        let slot = self.tasks[task.0 as usize]
            .as_mut()
            .unwrap_or_else(|| panic!("wake of finished task {task:?}"));
        if slot.state != TaskState::Parked {
            return;
        }
        slot.state = TaskState::Ready;
        let core = slot.core;
        self.state.cores[core.index()].rq.push_back(task);
        self.note_runq(core);
        self.kick(core, w);
    }

    /// Schedules a wake for `task` after `dur` (a kernel timer).
    pub fn wake_after(&mut self, task: TaskId, dur: SimDuration) {
        self.state
            .queue
            .schedule(self.state.now + dur, Event::TaskWake { task });
    }

    /// Number of tasks that have run to completion.
    pub fn completed_tasks(&self) -> u64 {
        self.state.completed_tasks
    }

    /// Number of tasks still live.
    pub fn live_tasks(&self) -> u64 {
        self.live_tasks
    }

    // ------------------------------------------------------------------
    // Peripherals
    // ------------------------------------------------------------------

    /// Shared RAM (read-only).
    pub fn ram(&self) -> &SharedRam {
        &self.state.ram
    }

    /// Shared RAM, for tasks and kernel code that access it directly.
    pub fn ram_mut(&mut self) -> &mut SharedRam {
        &mut self.state.ram
    }

    /// Sends a 32-bit hardware mail from one domain to another. Delivery
    /// takes the interconnect latency, then raises the receiver's mailbox
    /// interrupt.
    pub fn mailbox_send(&mut self, from: DomainId, to: DomainId, mail: Mail) {
        self.mailbox_send_tagged(from, to, mail, None);
    }

    /// Like [`Machine::mailbox_send`], carrying reliable-messaging metadata.
    /// An installed fault plan may drop, duplicate, or delay the message
    /// here — the interconnect is the unreliable element.
    pub fn mailbox_send_tagged(
        &mut self,
        from: DomainId,
        to: DomainId,
        mail: Mail,
        tag: Option<LinkTag>,
    ) {
        let span = match tag {
            // The reliable-link sequence tag rides into the trace so a
            // retransmitted mail is attributable in the Chrome viewer.
            Some(t) => self.state.spans.start_args(
                self.state.now,
                "mail",
                from.0,
                SpanArgs::one("tag", u64::from(t.seq)),
            ),
            None => self.state.spans.start(self.state.now, "mail", from.0),
        };
        let env = Envelope {
            from,
            mail,
            tag,
            sent_at: self.state.now,
            span,
        };
        let pair = self.state.hot_ids.pair(from, to);
        self.state.metrics.add_cached(
            &mut self.state.hot_ids.mail_sent[pair],
            Key::new("mail.sent", Tag::DomainPair(from.0, to.0)),
            1,
        );
        let mut deliveries = [Some(MAIL_LATENCY), None];
        if let Some(plan) = &mut self.state.fault_plan {
            match plan.mail_fate() {
                MailFate::Deliver => {}
                MailFate::Drop => {
                    self.state.trace.record(
                        self.state.now,
                        TraceEvent::Fault {
                            kind: FaultClass::MailDrop.code(),
                            arg: mail.0,
                        },
                    );
                    self.state.metrics.incr(Key::new(
                        "mail.fault_dropped",
                        Tag::DomainPair(from.0, to.0),
                    ));
                    self.state.spans.end(self.state.now, span);
                    return;
                }
                MailFate::Duplicate => {
                    self.state.trace.record(
                        self.state.now,
                        TraceEvent::Fault {
                            kind: FaultClass::MailDuplicate.code(),
                            arg: mail.0,
                        },
                    );
                    self.state.metrics.incr(Key::new(
                        "mail.fault_duplicated",
                        Tag::DomainPair(from.0, to.0),
                    ));
                    deliveries[1] = Some(MAIL_LATENCY);
                }
                MailFate::Delay(extra) => {
                    self.state.trace.record(
                        self.state.now,
                        TraceEvent::Fault {
                            kind: FaultClass::MailDelay.code(),
                            arg: mail.0,
                        },
                    );
                    self.state.metrics.incr(Key::new(
                        "mail.fault_delayed",
                        Tag::DomainPair(from.0, to.0),
                    ));
                    deliveries[0] = Some(MAIL_LATENCY + extra);
                }
            }
        }
        for lat in deliveries.into_iter().flatten() {
            self.state
                .queue
                .schedule(self.state.now + lat, Event::MailDeliver { to, env });
        }
    }

    /// Pops the oldest pending mail for `dom` (called from mailbox ISRs).
    pub fn mailbox_recv(&mut self, dom: DomainId) -> Option<Envelope> {
        self.state.mailboxes.receive(dom)
    }

    /// Total mails delivered so far (statistics).
    pub fn mailbox_delivered(&self) -> u64 {
        self.state.mailboxes.delivered_count()
    }

    /// Total mails popped by receivers so far (statistics).
    pub fn mailbox_received(&self) -> u64 {
        self.state.mailboxes.received_count()
    }

    /// Mails sitting in FIFOs, summed over every domain — the third term
    /// of the delivered == received + pending conservation law.
    pub fn mailbox_pending_total(&self) -> u64 {
        (0..self.state.domains.len())
            .map(|d| self.state.mailboxes.pending(DomainId(d as u8)) as u64)
            .sum()
    }

    /// Hardware test-and-set as observed at (virtual) time `at` — callers
    /// modelling a spin loop pass the time each poll would happen, so an
    /// injected stuck-bit window expires on the right attempt even though
    /// the whole loop executes within one simulation step. Returns `true`
    /// on acquisition.
    pub fn hwlock_try_acquire_at(&mut self, id: HwLockId, dom: DomainId, at: SimTime) -> bool {
        if let Some(plan) = &mut self.state.fault_plan {
            if plan.lock_attempt(id, at) {
                self.state.hwlocks.note_contention();
                self.state.trace.record(
                    self.state.now,
                    TraceEvent::Fault {
                        kind: FaultClass::LockStuck.code(),
                        arg: id.0 as u32,
                    },
                );
                return false;
            }
        }
        self.state.hwlocks.try_acquire(id, dom)
    }

    /// Releases a hardware spinlock.
    ///
    /// # Panics
    ///
    /// Panics if `dom` does not hold the lock.
    pub fn hwlock_release(&mut self, id: HwLockId, dom: DomainId) {
        self.state.hwlocks.release(id, dom)
    }

    /// The hardware spinlock bank (statistics).
    pub fn hwlocks(&self) -> &HwSpinlockBank {
        &self.state.hwlocks
    }

    /// Submits a DMA transfer; the engine raises [`IrqId::DMA`] when it
    /// completes and the bytes have been copied in [`Machine::ram`].
    pub fn dma_submit(
        &mut self,
        src: crate::mem::PhysAddr,
        dst: crate::mem::PhysAddr,
        len: u64,
    ) -> DmaXferId {
        self.dma_submit_after(src, dst, len, SimDuration::ZERO)
    }

    /// Submits a DMA transfer whose data movement starts only after `lead`
    /// (the submitting CPU's preparation time).
    pub fn dma_submit_after(
        &mut self,
        src: crate::mem::PhysAddr,
        dst: crate::mem::PhysAddr,
        len: u64,
        lead: SimDuration,
    ) -> DmaXferId {
        let id = self
            .state
            .dma
            .submit_after(self.state.now, src, dst, len, lead);
        self.state.metrics.add_cached(
            &mut self.state.hot_ids.dma_submitted,
            Key::new("dma.submitted", Tag::Whole),
            1,
        );
        self.state.metrics.add_cached(
            &mut self.state.hot_ids.dma_bytes_submitted,
            Key::new("dma.bytes_submitted", Tag::Whole),
            len,
        );
        let span = self.state.spans.start_args(
            self.state.now,
            "dma",
            DomainId::STRONG.0,
            SpanArgs::one("bytes", len),
        );
        self.state.dma_inflight.insert(id, (span, self.state.now));
        self.schedule_dma_tick();
        id
    }

    /// Completions whose interrupt has fired but which no driver has
    /// collected yet. Drivers call this from their DMA ISR.
    pub fn dma_take_completions(&mut self) -> Vec<crate::dma::DmaCompletion> {
        std::mem::take(&mut self.state.dma_pending)
    }

    /// The DMA engine (statistics).
    pub fn dma(&self) -> &DmaEngine {
        &self.state.dma
    }

    /// Masks `irq` in `dom`'s interrupt controller.
    pub fn irq_mask(&mut self, dom: DomainId, irq: IrqId) {
        self.state.irq_fabric.controller_mut(dom).mask(irq);
    }

    /// Unmasks `irq` in `dom`'s controller; a pended interrupt is delivered
    /// immediately.
    pub fn irq_unmask(&mut self, dom: DomainId, irq: IrqId, w: &mut W) {
        if self.state.irq_fabric.controller_mut(dom).unmask(irq) {
            self.deliver_irq(dom, irq, w);
        }
    }

    /// `true` if `dom` currently unmasks `irq`.
    pub fn irq_is_unmasked(&self, dom: DomainId, irq: IrqId) -> bool {
        self.state.irq_fabric.controller(dom).is_unmasked(irq)
    }

    /// Domains that would handle `irq` right now.
    pub fn irq_handlers_of(&self, irq: IrqId) -> Vec<DomainId> {
        self.state.irq_fabric.handlers_of(irq)
    }

    /// Raises an interrupt line (peripheral models call this).
    pub fn raise_irq(&mut self, irq: IrqId, w: &mut W) {
        let targets = self.state.irq_fabric.raise(irq);
        for dom in targets {
            self.deliver_irq(dom, irq, w);
        }
    }

    /// Raises an interrupt after a delay (for simulated peripherals).
    pub fn raise_irq_after(&mut self, irq: IrqId, dur: SimDuration) {
        self.state
            .queue
            .schedule(self.state.now + dur, Event::RaiseIrq { irq });
    }

    /// Charges `dur` of execution to a core that is not running any task
    /// (e.g. the remote side of a DSM fault). A busy core is delayed, an
    /// idle core blips active, an inactive core is woken first. Returns the
    /// extra latency a *requester* should add on top of its own costs
    /// (non-zero only when the remote core had to wake up).
    pub fn charge_remote(&mut self, core: CoreId, dur: SimDuration, w: &mut W) -> SimDuration {
        self.attribute(core, "remote", dur);
        match self.state.cores[core.index()].mode {
            CoreMode::Busy => {
                self.state.cores[core.index()].extra += dur;
                SimDuration::ZERO
            }
            CoreMode::Idle => {
                self.begin_busy(core, dur, w);
                SimDuration::ZERO
            }
            CoreMode::Inactive => {
                let wake = self.state.cores[core.index()].desc.power.wake_latency;
                self.attribute(core, "wake", wake);
                self.state.cores[core.index()].woke_for_service = true;
                self.begin_busy(core, wake + dur, w);
                wake
            }
        }
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    /// Runs until every spawned task has completed.
    ///
    /// # Panics
    ///
    /// Panics on deadlock: live tasks remain but no event can wake them.
    pub fn run_until_idle(&mut self, w: &mut W) -> SimTime {
        while self.live_tasks > 0 {
            match self.next_event() {
                Some((at, ev)) => {
                    debug_assert!(at >= self.state.now);
                    self.state.now = at;
                    self.handle(ev, w);
                    self.after_event(w);
                }
                None => self.deadlock_panic(),
            }
        }
        self.final_audit(w);
        self.state.now
    }

    /// Processes every event up to and including `until`, then advances the
    /// clock to `until` (so energy reads integrate the trailing interval).
    pub fn run_until(&mut self, until: SimTime, w: &mut W) {
        while let Some(at) = self.state.queue.peek_time() {
            if at > until {
                break;
            }
            let (at, ev) = self.next_event().expect("peeked event exists");
            self.state.now = at;
            self.handle(ev, w);
            self.after_event(w);
        }
        assert!(until >= self.state.now, "run_until target in the past");
        self.state.now = until;
        self.final_audit(w);
    }

    /// Post-event work: asynchronous fault injection (spurious wake-ups,
    /// which are not tied to any software action) and the invariant audit.
    fn after_event(&mut self, w: &mut W) {
        if let Some(plan) = &mut self.state.fault_plan {
            if let Some(target) = plan.spurious_wake() {
                let dom = target.unwrap_or(DomainId((self.state.domains.len() - 1) as u8));
                self.state.trace.record(
                    self.state.now,
                    TraceEvent::Fault {
                        kind: FaultClass::SpuriousWake.code(),
                        arg: dom.0 as u32,
                    },
                );
                // A glitching mailbox line: the IRQ fires, the ISR finds the
                // FIFO empty and must cope.
                self.raise_irq(IrqId::mailbox_for(dom), w);
            }
        }
        if self.state.auditor.begin_step() {
            self.audit_step(w);
        }
    }

    /// Checks the platform's conservation laws, then the world's
    /// ([`World::audit`]), recording violations in the auditor.
    fn audit_step(&mut self, w: &mut W) {
        let now = self.state.now;
        // Energy meters are monotone per core.
        for (i, rt) in self.state.cores.iter().enumerate() {
            let e = rt.meter.energy_mj_at(now);
            self.state
                .auditor
                .check_monotone(now, "core-energy", i as u32, e);
        }
        // Mailbox conservation: every delivered mail is either received or
        // still pending in a FIFO.
        let pending = self.mailbox_pending_total();
        let delivered = self.state.mailboxes.delivered_count();
        let received = self.state.mailboxes.received_count();
        self.state.auditor.affirm(
            now,
            "mailbox-conservation",
            delivered == received + pending,
            || format!("delivered={delivered} != received={received} + pending={pending}"),
        );
        // No interrupt raised-but-lost: a latched-pending line must be
        // masked (an unmasked raise delivers immediately).
        for d in 0..self.state.domains.len() {
            let ctl = self.state.irq_fabric.controller(DomainId(d as u8));
            for line in ctl.pending_lines() {
                self.state.auditor.affirm(
                    now,
                    "irq-pending-implies-masked",
                    !ctl.is_unmasked(IrqId(line)),
                    || format!("irq{line} pending AND unmasked in D{d}"),
                );
            }
        }
        // Hardware spinlock holders must be real domains.
        for l in 0..self.state.hwlocks.len() {
            if let Some(h) = self.state.hwlocks.holder(HwLockId(l as u16)) {
                self.state.auditor.affirm(
                    now,
                    "hwlock-holder-valid",
                    h.index() < self.state.domains.len(),
                    || format!("lock {l} held by nonexistent {h}"),
                );
            }
        }
        w.audit(now, &mut self.state.auditor);
    }

    fn deadlock_panic(&self) -> ! {
        let parked: Vec<String> = self
            .tasks
            .iter()
            .flatten()
            .filter(|s| s.state != TaskState::Running)
            .map(|s| format!("{} on {}", s.name, s.core))
            .collect();
        panic!(
            "simulation deadlock at {:?}: {} live task(s), no pending events; parked: {:?}",
            self.state.now, self.live_tasks, parked
        );
    }

    fn handle(&mut self, ev: Event, w: &mut W) {
        self.state.events_processed += 1;
        match ev {
            Event::StepDone { core, epoch } => {
                if self.state.cores[core.index()].epoch != epoch {
                    return;
                }
                let extra = std::mem::take(&mut self.state.cores[core.index()].extra);
                if !extra.is_zero() {
                    self.begin_busy(core, extra, w);
                    return;
                }
                match self.state.cores[core.index()].running {
                    Some(task) => self.step_task(core, task, w),
                    None => self.dispatch(core, w),
                }
            }
            Event::InactiveTimeout { core, epoch } => {
                let rt = &mut self.state.cores[core.index()];
                if rt.epoch != epoch || rt.mode != CoreMode::Idle {
                    return;
                }
                rt.mode = CoreMode::Inactive;
                rt.meter.set_state(self.state.now, PowerState::Inactive);
                self.notify_power(core, PowerState::Inactive, w);
            }
            Event::MailDeliver { to, env } => {
                self.state.trace.record(
                    self.state.now,
                    TraceEvent::Mail {
                        to: to.0,
                        payload: env.mail.0,
                    },
                );
                self.state.metrics.add_cached(
                    &mut self.state.hot_ids.mail_delivered[to.index()],
                    Key::new("mail.delivered", Tag::Domain(to.0)),
                    1,
                );
                let pair = self.state.hot_ids.pair(env.from, to);
                self.state.metrics.observe_duration_cached(
                    &mut self.state.hot_ids.mail_latency[pair],
                    Key::new("mail.latency", Tag::DomainPair(env.from.0, to.0)),
                    self.state.now.saturating_since(env.sent_at),
                );
                if !self.state.mailboxes.deliver(to, env) {
                    panic!("mailbox FIFO overflow for {to}");
                }
                // The mailbox IRQ (and everything its ISR triggers) is
                // causally downstream of this mail: parent it on the
                // flight span, then close the span at delivery.
                self.state.spans.push_current(env.span);
                self.raise_irq(IrqId::mailbox_for(to), w);
                self.state.spans.pop_current();
                self.state.spans.end(self.state.now, env.span);
            }
            Event::DmaTick { generation } => {
                if generation != self.state.dma.generation() {
                    return;
                }
                let mut completions = self.state.dma.advance(self.state.now);
                if !completions.is_empty() {
                    for c in &mut completions {
                        if let Some((span, submitted)) = self.state.dma_inflight.remove(&c.id) {
                            self.state.spans.end(self.state.now, span);
                            self.state.metrics.observe_duration_cached(
                                &mut self.state.hot_ids.dma_xfer,
                                Key::new("dma.xfer_ns", Tag::Whole),
                                self.state.now.saturating_since(submitted),
                            );
                        }
                        let fate = match &mut self.state.fault_plan {
                            Some(plan) => plan.dma_fate(),
                            None => DmaFate::Ok,
                        };
                        match fate {
                            DmaFate::Ok => {
                                self.state.metrics.add_cached(
                                    &mut self.state.hot_ids.dma_completed,
                                    Key::new("dma.completed", Tag::Whole),
                                    1,
                                );
                                self.state.ram.copy(c.src, c.dst, c.len as usize);
                            }
                            DmaFate::Fail => {
                                self.state.metrics.add_cached(
                                    &mut self.state.hot_ids.dma_failed,
                                    Key::new("dma.failed", Tag::Whole),
                                    1,
                                );
                                c.status = DmaStatus::Error { bytes_copied: 0 };
                                self.state.trace.record(
                                    self.state.now,
                                    TraceEvent::Fault {
                                        kind: FaultClass::DmaFail.code(),
                                        arg: c.id.0 as u32,
                                    },
                                );
                            }
                            DmaFate::Partial(f) => {
                                self.state.metrics.add_cached(
                                    &mut self.state.hot_ids.dma_failed,
                                    Key::new("dma.failed", Tag::Whole),
                                    1,
                                );
                                let n = if c.len > 1 {
                                    ((c.len as f64 * f) as u64).clamp(1, c.len - 1)
                                } else {
                                    0
                                };
                                self.state.ram.copy(c.src, c.dst, n as usize);
                                c.status = DmaStatus::Error { bytes_copied: n };
                                self.state.trace.record(
                                    self.state.now,
                                    TraceEvent::Fault {
                                        kind: FaultClass::DmaPartial.code(),
                                        arg: c.id.0 as u32,
                                    },
                                );
                            }
                        }
                    }
                    self.state.dma_pending.extend(completions);
                    self.raise_irq(IrqId::DMA, w);
                }
                self.schedule_dma_tick();
            }
            Event::TaskWake { task } => {
                if self.tasks.get(task.0 as usize).is_some_and(Option::is_some) {
                    self.wake(task, w);
                }
            }
            Event::RaiseIrq { irq } => self.raise_irq(irq, w),
            Event::Call { id } => w.timer(self, id),
        }
    }

    fn schedule_dma_tick(&mut self) {
        if let Some(at) = self.state.dma.next_event_time(self.state.now) {
            self.state.queue.schedule(
                at,
                Event::DmaTick {
                    generation: self.state.dma.generation(),
                },
            );
        }
    }

    /// Delivers `irq` to `dom`: runs the world's handler on the domain's
    /// first core, charges its cost, and wakes any tasks waiting for this
    /// line.
    fn deliver_irq(&mut self, dom: DomainId, irq: IrqId, w: &mut W) {
        self.state.trace.record(
            self.state.now,
            TraceEvent::Irq {
                line: irq.0,
                domain: dom.0,
            },
        );
        self.state.metrics.add_cached(
            &mut self.state.hot_ids.irq_delivered[dom.index()],
            Key::new("irq.delivered", Tag::Domain(dom.0)),
            1,
        );
        let core = self.state.domains[dom.index()][0];
        // The handler span parents on whatever is current — the mail
        // flight span when this is a mailbox delivery — and everything
        // the handler does (bottom halves, replies) parents on it.
        let span = self.state.spans.start(self.state.now, "irq", dom.0);
        self.state.spans.push_current(span);
        // Run the handler's logic now; charge its time to the core.
        let cx = IrqCx {
            irq,
            domain: dom,
            core,
            now: self.state.now,
        };
        let cycles = crate::calib::IRQ_ENTRY_INSTRUCTIONS + w.irq(self, cx);
        self.state.spans.pop_current();
        self.state.spans.end(self.state.now, span);
        let dur = self.state.cores[core.index()].desc.cycles(cycles);
        self.attribute(core, "irq", dur);
        match self.state.cores[core.index()].mode {
            CoreMode::Busy => self.state.cores[core.index()].extra += dur,
            CoreMode::Idle => self.begin_busy(core, dur, w),
            CoreMode::Inactive => {
                let wake = self.state.cores[core.index()].desc.power.wake_latency;
                self.attribute(core, "wake", wake);
                self.state.cores[core.index()].woke_for_service = true;
                self.begin_busy(core, wake + dur, w);
            }
        }
        // Wake waiters of this (domain, irq).
        if let Some(list) = self.state.waiters.remove(&(dom, irq)) {
            for t in list {
                self.wake(t, w);
            }
        }
    }

    /// Starts (or extends) a busy period on a core with no change to its
    /// running task.
    fn begin_busy(&mut self, core: CoreId, dur: SimDuration, w: &mut W) {
        let was = self.core_power_state(core);
        {
            let rt = &mut self.state.cores[core.index()];
            rt.mode = CoreMode::Busy;
            rt.meter.set_state(self.state.now, PowerState::Active);
            rt.epoch += 1;
            let epoch = rt.epoch;
            self.state
                .queue
                .schedule(self.state.now + dur, Event::StepDone { core, epoch });
        }
        if was != PowerState::Active {
            self.notify_power(core, PowerState::Active, w);
        }
    }

    /// If `core` can start executing (it is idle or inactive with queued
    /// work), begin dispatching.
    fn kick(&mut self, core: CoreId, w: &mut W) {
        match self.state.cores[core.index()].mode {
            CoreMode::Busy => {}
            CoreMode::Idle => self.dispatch(core, w),
            CoreMode::Inactive => {
                let wake = self.state.cores[core.index()].desc.power.wake_latency;
                self.attribute(core, "wake", wake);
                // Wake up, then dispatch from the StepDone.
                self.begin_busy(core, wake, w);
            }
        }
    }

    fn dispatch(&mut self, core: CoreId, w: &mut W) {
        match self.state.cores[core.index()].rq.pop_front() {
            Some(task) => {
                self.state.trace.record(
                    self.state.now,
                    TraceEvent::Task {
                        task: task.0,
                        start: true,
                    },
                );
                self.state.metrics.add_cached(
                    &mut self.state.hot_ids.sched_dispatch[core.index()],
                    Key::new("sched.dispatch", Tag::Core(core.0)),
                    1,
                );
                self.note_runq(core);
                self.state.cores[core.index()].woke_for_service = false;
                self.state.cores[core.index()].task_activity_at = self.state.now;
                self.state.cores[core.index()].running = Some(task);
                if let Some(slot) = self.tasks[task.0 as usize].as_mut() {
                    slot.state = TaskState::Running;
                }
                // Mark busy *before* stepping so re-entrant spawns/wakes on
                // this core enqueue instead of re-dispatching.
                self.begin_busy(core, SimDuration::ZERO, w);
                // The zero-length busy period ends with a StepDone that
                // will find `running` set and step the task.
            }
            None => {
                let was = self.core_power_state(core);
                let rt = &mut self.state.cores[core.index()];
                rt.running = None;
                rt.epoch += 1;
                if std::mem::take(&mut rt.woke_for_service) {
                    // Nothing to run after a service-only wake-up: drop
                    // straight back into the deep state.
                    rt.mode = CoreMode::Inactive;
                    rt.meter.set_state(self.state.now, PowerState::Inactive);
                    if was != PowerState::Inactive {
                        self.notify_power(core, PowerState::Inactive, w);
                    }
                    return;
                }
                // The timeout counts from the last *task* activity; a core
                // that only serviced interrupts since then power-gates as
                // soon as its queue drains past the deadline.
                let deadline = rt.task_activity_at + rt.desc.power.inactive_timeout;
                if deadline <= self.state.now {
                    rt.mode = CoreMode::Inactive;
                    rt.meter.set_state(self.state.now, PowerState::Inactive);
                    if was != PowerState::Inactive {
                        self.notify_power(core, PowerState::Inactive, w);
                    }
                    return;
                }
                rt.mode = CoreMode::Idle;
                rt.meter.set_state(self.state.now, PowerState::Idle);
                let epoch = rt.epoch;
                self.state
                    .queue
                    .schedule(deadline, Event::InactiveTimeout { core, epoch });
                if was != PowerState::Idle {
                    self.notify_power(core, PowerState::Idle, w);
                }
            }
        }
    }

    fn step_task(&mut self, core: CoreId, task: TaskId, w: &mut W) {
        // An injected stall (thermal throttle, invisible hypervisor) burns
        // active time on this core before the task's next step executes;
        // the pending step re-fires when the stall's busy period ends.
        let stall = match &mut self.state.fault_plan {
            Some(plan) => plan.core_stall(self.state.cores[core.index()].desc.domain),
            None => None,
        };
        if let Some(dur) = stall {
            self.state.trace.record(
                self.state.now,
                TraceEvent::Fault {
                    kind: FaultClass::CoreStall.code(),
                    arg: core.0 as u32,
                },
            );
            self.attribute(core, "stall", dur);
            self.begin_busy(core, dur, w);
            return;
        }
        self.state.cores[core.index()].task_activity_at = self.state.now;
        let mut boxed = {
            let slot = self.tasks[task.0 as usize]
                .as_mut()
                .expect("running task exists");
            slot.task.take().expect("task body present")
        };
        let cx = TaskCx {
            task,
            core,
            domain: self.state.cores[core.index()].desc.domain,
            now: self.state.now,
        };
        let step = boxed.step(w, self, cx);
        // Put the body back (it may have been observed absent by wake()).
        if let Some(slot) = self.tasks[task.0 as usize].as_mut() {
            slot.task = Some(boxed);
        }
        match step {
            Step::Compute { cycles } => {
                let dur = self.state.cores[core.index()].desc.cycles(cycles);
                self.attribute(core, "task", dur);
                self.begin_busy(core, dur, w);
            }
            Step::ComputeTime { dur } => {
                self.attribute(core, "task", dur);
                self.begin_busy(core, dur, w);
            }
            Step::Sleep { dur } => {
                self.park(core, task);
                self.state
                    .queue
                    .schedule(self.state.now + dur, Event::TaskWake { task });
                self.dispatch(core, w);
            }
            Step::WaitIrq { irq } => {
                let dom = self.state.cores[core.index()].desc.domain;
                self.park(core, task);
                self.state.waiters.entry((dom, irq)).or_default().push(task);
                self.dispatch(core, w);
            }
            Step::Block => {
                self.park(core, task);
                self.dispatch(core, w);
            }
            Step::Yield => {
                let rt = &mut self.state.cores[core.index()];
                rt.running = None;
                rt.rq.push_back(task);
                self.note_runq(core);
                if let Some(slot) = self.tasks[task.0 as usize].as_mut() {
                    slot.state = TaskState::Ready;
                }
                self.dispatch(core, w);
            }
            Step::Done => {
                self.state.trace.record(
                    self.state.now,
                    TraceEvent::Task {
                        task: task.0,
                        start: false,
                    },
                );
                self.state.cores[core.index()].running = None;
                self.tasks[task.0 as usize] = None;
                self.live_tasks -= 1;
                self.state.completed_tasks += 1;
                self.dispatch(core, w);
            }
        }
    }

    fn park(&mut self, core: CoreId, task: TaskId) {
        self.state.cores[core.index()].running = None;
        if let Some(slot) = self.tasks[task.0 as usize].as_mut() {
            slot.state = TaskState::Parked;
        }
    }

    fn notify_power(&mut self, core: CoreId, state: PowerState, w: &mut W) {
        let code = match state {
            PowerState::Active => 0,
            PowerState::Idle => 1,
            PowerState::Inactive => 2,
        };
        self.state.trace.record(
            self.state.now,
            TraceEvent::Power {
                core: core.0,
                state: code,
            },
        );
        w.power_changed(self, core, state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::{CoreDesc, CoreKind};

    type M = Machine<TestWorld>;

    /// The tests' OS, all data: a log of task steps and handler runs,
    /// the interrupt handlers as a table, and the power transitions and
    /// timers the machine reported.
    #[derive(Clone, Default)]
    struct TestWorld {
        log: Vec<(u64, &'static str)>,
        /// `(domain, line) -> (log label, cycles)` of each handler.
        isrs: BTreeMap<(DomainId, IrqId), (&'static str, u64)>,
        power: Vec<(CoreId, PowerState)>,
        fired: Vec<(SimTime, u64)>,
    }

    impl World for TestWorld {
        fn irq(&mut self, _m: &mut M, cx: IrqCx) -> u64 {
            let Some(&(label, cycles)) = self.isrs.get(&(cx.domain, cx.irq)) else {
                return 0;
            };
            self.log.push((cx.now.as_ns(), label));
            cycles
        }

        fn power_changed(&mut self, _m: &mut M, core: CoreId, state: PowerState) {
            self.power.push((core, state));
        }

        fn timer(&mut self, m: &mut M, id: u64) {
            self.fired.push((m.now(), id));
        }
    }

    fn omap4_cores() -> Vec<CoreDesc> {
        vec![
            CoreDesc::new(CoreId(0), DomainId::STRONG, CoreKind::CortexA9, 350_000_000),
            CoreDesc::new(CoreId(1), DomainId::STRONG, CoreKind::CortexA9, 350_000_000),
            CoreDesc::new(CoreId(2), DomainId::WEAK, CoreKind::CortexM3, 200_000_000),
        ]
    }

    fn machine() -> M {
        Machine::new(omap4_cores(), 64 * 1024 * 1024)
    }

    type StepHook = Box<dyn FnMut(&mut TestWorld, &mut M, TaskCx, usize) + Send>;

    /// Runs a closure sequence: each step call pops the next action.
    struct Script {
        name: &'static str,
        steps: Vec<Step>,
        on_step: Option<StepHook>,
        i: usize,
    }

    impl Script {
        fn new(name: &'static str, steps: Vec<Step>) -> Box<Self> {
            Box::new(Script {
                name,
                steps,
                on_step: None,
                i: 0,
            })
        }
    }

    impl Task<TestWorld> for Script {
        fn step(&mut self, w: &mut TestWorld, m: &mut M, cx: TaskCx) -> Step {
            if let Some(f) = &mut self.on_step {
                f(w, m, cx, self.i);
            }
            w.log.push((cx.now.as_ns(), self.name));
            let s = self.steps.get(self.i).copied().unwrap_or(Step::Done);
            self.i += 1;
            s
        }

        fn name(&self) -> &str {
            self.name
        }
    }

    #[test]
    fn compute_advances_time_by_cycles() {
        let mut m = machine();
        let mut w = TestWorld::default();
        m.spawn(
            CoreId(0),
            Script::new("t", vec![Step::Compute { cycles: 350_000 }]),
            &mut w,
        );
        let end = m.run_until_idle(&mut w);
        // 350k cycles at 350 MHz = 1 ms.
        assert_eq!(end.as_ns(), 1_000_000);
        assert_eq!(m.completed_tasks(), 1);
    }

    #[test]
    fn same_cycles_take_longer_on_weak_core() {
        let mut w = TestWorld::default();
        let mut m = machine();
        m.spawn(
            CoreId(2),
            Script::new("t", vec![Step::Compute { cycles: 350_000 }]),
            &mut w,
        );
        let end = m.run_until_idle(&mut w);
        assert_eq!(end.as_ns(), 1_750_000); // 350k cycles at 200 MHz
    }

    #[test]
    fn tasks_on_different_cores_run_concurrently() {
        let mut w = TestWorld::default();
        let mut m = machine();
        m.spawn(
            CoreId(0),
            Script::new(
                "a",
                vec![Step::ComputeTime {
                    dur: SimDuration::from_ms(2),
                }],
            ),
            &mut w,
        );
        m.spawn(
            CoreId(2),
            Script::new(
                "b",
                vec![Step::ComputeTime {
                    dur: SimDuration::from_ms(2),
                }],
            ),
            &mut w,
        );
        let end = m.run_until_idle(&mut w);
        assert_eq!(end, SimTime::ZERO + SimDuration::from_ms(2));
    }

    #[test]
    fn tasks_on_same_core_serialise() {
        let mut w = TestWorld::default();
        let mut m = machine();
        for n in ["a", "b"] {
            m.spawn(
                CoreId(0),
                Script::new(
                    n,
                    vec![Step::ComputeTime {
                        dur: SimDuration::from_ms(1),
                    }],
                ),
                &mut w,
            );
        }
        let end = m.run_until_idle(&mut w);
        assert_eq!(end, SimTime::ZERO + SimDuration::from_ms(2));
    }

    #[test]
    fn sleep_lets_core_idle_and_wakes() {
        let mut w = TestWorld::default();
        let mut m = machine();
        m.spawn(
            CoreId(0),
            Script::new(
                "s",
                vec![
                    Step::Sleep {
                        dur: SimDuration::from_ms(5),
                    },
                    Step::Compute { cycles: 350 },
                ],
            ),
            &mut w,
        );
        let end = m.run_until_idle(&mut w);
        assert_eq!(end.as_ns(), 5_000_000 + 1_000);
        // While sleeping the core was idle: energy must reflect idle power.
        let idle_time = m.core_meter(CoreId(0)).time_in(PowerState::Idle);
        assert!(idle_time >= SimDuration::from_ms(4));
    }

    #[test]
    fn idle_core_goes_inactive_after_timeout() {
        let mut w = TestWorld::default();
        let mut m = machine();
        m.run_until(SimTime::ZERO + SimDuration::from_secs(6), &mut w);
        assert_eq!(m.core_power_state(CoreId(0)), PowerState::Inactive);
        assert_eq!(m.domain_power_state(DomainId::STRONG), PowerState::Inactive);
    }

    #[test]
    fn activity_resets_inactive_timeout() {
        let mut w = TestWorld::default();
        let mut m = machine();
        // Busy for 4 s via many compute steps would be simplest, but a
        // single long compute works: after it finishes at 4 s, the timeout
        // re-arms, so at 8 s the core is still idle; at 9.1 s it is not.
        m.spawn(
            CoreId(0),
            Script::new(
                "t",
                vec![Step::ComputeTime {
                    dur: SimDuration::from_secs(4),
                }],
            ),
            &mut w,
        );
        m.run_until(SimTime::ZERO + SimDuration::from_secs(8), &mut w);
        assert_eq!(m.core_power_state(CoreId(0)), PowerState::Idle);
        m.run_until(SimTime::ZERO + SimDuration::from_millis_9_1(), &mut w);
        assert_eq!(m.core_power_state(CoreId(0)), PowerState::Inactive);
    }

    // Small helper so the test above reads clearly.
    trait MillisExt {
        fn from_millis_9_1() -> SimDuration;
    }
    impl MillisExt for SimDuration {
        fn from_millis_9_1() -> SimDuration {
            SimDuration::from_ms(9_100)
        }
    }

    #[test]
    fn mailbox_send_raises_receiver_irq_and_wakes_waiter() {
        let mut w = TestWorld::default();
        let mut m = machine();
        // Weak domain unmasks its mailbox line.
        m.irq_unmask(DomainId::WEAK, IrqId::MBOX_D1, &mut w);
        struct Sender;
        impl Task<TestWorld> for Sender {
            fn step(&mut self, _w: &mut TestWorld, m: &mut M, _cx: TaskCx) -> Step {
                m.mailbox_send(DomainId::STRONG, DomainId::WEAK, Mail(0xbeef));
                Step::Done
            }
        }
        let receiver = Script::new(
            "rx",
            vec![
                Step::WaitIrq {
                    irq: IrqId::MBOX_D1,
                },
                Step::Done,
            ],
        );
        let mut rx = receiver;
        rx.on_step = Some(Box::new(|w: &mut TestWorld, m: &mut M, _cx, i| {
            if i == 1 {
                let env = m.mailbox_recv(DomainId::WEAK).expect("mail present");
                assert_eq!(env.mail, Mail(0xbeef));
                w.log.push((0, "got-mail"));
            }
        }));
        m.spawn(CoreId(2), rx, &mut w);
        m.spawn(CoreId(0), Box::new(Sender), &mut w);
        m.run_until_idle(&mut w);
        assert!(w.log.iter().any(|(_, s)| *s == "got-mail"));
        assert_eq!(m.mailbox_delivered(), 1);
    }

    #[test]
    fn irq_hook_runs_and_charges_core() {
        let mut w = TestWorld::default();
        let mut m = machine();
        m.irq_unmask(DomainId::WEAK, IrqId::NET, &mut w);
        w.isrs.insert((DomainId::WEAK, IrqId::NET), ("isr", 2_000));
        m.raise_irq_after(IrqId::NET, SimDuration::from_us(10));
        m.run_until(SimTime::ZERO + SimDuration::from_ms(1), &mut w);
        assert_eq!(w.log, vec![(10_000, "isr")]);
        // The weak core blipped active for the ISR.
        assert!(m.core_meter(CoreId(2)).time_in(PowerState::Active) > SimDuration::ZERO);
    }

    #[test]
    fn masked_irq_pends_until_unmask() {
        let mut w = TestWorld::default();
        let mut m = machine();
        w.isrs.insert((DomainId::WEAK, IrqId::BLOCK), ("blk", 100));
        m.raise_irq(IrqId::BLOCK, &mut w);
        assert!(w.log.is_empty(), "masked everywhere: must pend");
        m.irq_unmask(DomainId::WEAK, IrqId::BLOCK, &mut w);
        assert_eq!(w.log.len(), 1, "pended interrupt delivered on unmask");
    }

    #[test]
    fn dma_transfer_copies_bytes_and_interrupts() {
        let mut w = TestWorld::default();
        let mut m = machine();
        m.irq_unmask(DomainId::STRONG, IrqId::DMA, &mut w);
        m.ram_mut().write(crate::mem::PhysAddr(0x1000), b"payload!");
        struct Driver {
            state: u8,
        }
        impl Task<TestWorld> for Driver {
            fn step(&mut self, w: &mut TestWorld, m: &mut M, _cx: TaskCx) -> Step {
                match self.state {
                    0 => {
                        self.state = 1;
                        m.dma_submit(
                            crate::mem::PhysAddr(0x1000),
                            crate::mem::PhysAddr(0x8000),
                            8,
                        );
                        Step::WaitIrq { irq: IrqId::DMA }
                    }
                    _ => {
                        let done = m.dma_take_completions();
                        assert_eq!(done.len(), 1);
                        let mut buf = [0u8; 8];
                        m.ram().read(crate::mem::PhysAddr(0x8000), &mut buf);
                        assert_eq!(&buf, b"payload!");
                        w.log.push((0, "copied"));
                        Step::Done
                    }
                }
            }
        }
        m.spawn(CoreId(0), Box::new(Driver { state: 0 }), &mut w);
        m.run_until_idle(&mut w);
        assert!(w.log.iter().any(|(_, s)| *s == "copied"));
    }

    #[test]
    fn charge_remote_delays_busy_core() {
        let mut w = TestWorld::default();
        let mut m = machine();
        m.spawn(
            CoreId(0),
            Script::new(
                "long",
                vec![Step::ComputeTime {
                    dur: SimDuration::from_ms(1),
                }],
            ),
            &mut w,
        );
        // Let the dispatch happen, then preempt.
        m.run_until(SimTime::ZERO + SimDuration::from_us(10), &mut w);
        assert_eq!(m.core_power_state(CoreId(0)), PowerState::Active);
        let extra = m.charge_remote(CoreId(0), SimDuration::from_us(24), &mut w);
        assert_eq!(extra, SimDuration::ZERO);
        let end = m.run_until_idle(&mut w);
        assert_eq!(end.as_ns(), 1_000_000 + 24_000);
    }

    #[test]
    fn charge_remote_wakes_inactive_core() {
        let mut w = TestWorld::default();
        let mut m = machine();
        m.run_until(SimTime::ZERO + SimDuration::from_secs(6), &mut w);
        assert_eq!(m.core_power_state(CoreId(2)), PowerState::Inactive);
        let extra = m.charge_remote(CoreId(2), SimDuration::from_us(7), &mut w);
        assert_eq!(extra, CorePowerParamsWake::wake(&m));
        assert_eq!(m.core_power_state(CoreId(2)), PowerState::Active);
        assert_eq!(m.core_meter(CoreId(2)).wakeups(), 1);
    }

    struct CorePowerParamsWake;
    impl CorePowerParamsWake {
        fn wake(m: &M) -> SimDuration {
            m.core_desc(CoreId(2)).power.wake_latency
        }
    }

    #[test]
    fn power_observer_sees_transitions() {
        let mut w = TestWorld::default();
        let mut m = machine();
        m.run_until(SimTime::ZERO + SimDuration::from_secs(6), &mut w);
        assert!(w.power.contains(&(CoreId(0), PowerState::Inactive)));
    }

    #[test]
    fn a_timer_pending_at_a_snapshot_fires_once_on_each_side() {
        // A timer is an event plus an id, so a snapshot may be taken
        // while one is pending; the fork must then fire it exactly as
        // the original does.
        let mut w = TestWorld::default();
        let mut m = machine();
        m.run_until(SimTime::ZERO + SimDuration::from_us(10), &mut w);
        let id = m.call_after(SimDuration::from_ms(3));
        let due = m.now() + SimDuration::from_ms(3);
        let snap = m.snapshot();
        let (mut fork, mut fw): (M, TestWorld) = (Machine::fork(&snap), w.clone());
        let end = SimTime::ZERO + SimDuration::from_ms(10);
        m.run_until(end, &mut w);
        fork.run_until(end, &mut fw);
        assert_eq!(w.fired, vec![(due, id)]);
        assert_eq!(fw.fired, vec![(due, id)]);
        assert_eq!(m.state_digest(), fork.state_digest());
    }

    #[test]
    fn yield_round_robins() {
        let mut w = TestWorld::default();
        let mut m = machine();
        m.spawn(
            CoreId(0),
            Script::new("a", vec![Step::Yield, Step::Compute { cycles: 350 }]),
            &mut w,
        );
        m.spawn(
            CoreId(0),
            Script::new("b", vec![Step::Compute { cycles: 350 }]),
            &mut w,
        );
        m.run_until_idle(&mut w);
        let names: Vec<&str> = w.log.iter().map(|(_, s)| *s).collect();
        // "a" yields, "b" runs to completion (compute step + the step that
        // returns Done), then "a" resumes.
        assert_eq!(names, vec!["a", "b", "b", "a", "a"]);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn blocked_forever_is_deadlock() {
        let mut w = TestWorld::default();
        let mut m = machine();
        m.spawn(CoreId(0), Script::new("stuck", vec![Step::Block]), &mut w);
        m.run_until_idle(&mut w);
    }

    #[test]
    fn block_and_explicit_wake() {
        let mut w = TestWorld::default();
        let mut m = machine();
        let blocked = m.spawn(
            CoreId(2),
            Script::new("blocked", vec![Step::Block, Step::Done]),
            &mut w,
        );
        struct Waker(TaskId);
        impl Task<TestWorld> for Waker {
            fn step(&mut self, w: &mut TestWorld, m: &mut M, _cx: TaskCx) -> Step {
                m.wake(self.0, w);
                Step::Done
            }
        }
        // Give the blocked task time to park first.
        m.run_until(SimTime::ZERO + SimDuration::from_us(1), &mut w);
        m.spawn(CoreId(0), Box::new(Waker(blocked)), &mut w);
        m.run_until_idle(&mut w);
        assert_eq!(m.completed_tasks(), 2);
    }

    #[test]
    fn two_cores_of_one_domain_run_concurrently() {
        // The strong domain has two A9s; K2 "can (almost) transparently
        // scale with these additional cores" (§11).
        let mut w = TestWorld::default();
        let mut m = machine();
        m.spawn(
            CoreId(0),
            Script::new(
                "a",
                vec![Step::ComputeTime {
                    dur: SimDuration::from_ms(3),
                }],
            ),
            &mut w,
        );
        m.spawn(
            CoreId(1),
            Script::new(
                "b",
                vec![Step::ComputeTime {
                    dur: SimDuration::from_ms(3),
                }],
            ),
            &mut w,
        );
        let end = m.run_until_idle(&mut w);
        assert_eq!(end, SimTime::ZERO + SimDuration::from_ms(3));
        assert_eq!(m.domain_power_state(DomainId::STRONG), PowerState::Idle);
    }

    #[test]
    fn preemption_charges_are_exact() {
        // Three remote charges land mid-compute; the task finishes exactly
        // that much later.
        let mut w = TestWorld::default();
        let mut m = machine();
        m.spawn(
            CoreId(2),
            Script::new(
                "t",
                vec![Step::ComputeTime {
                    dur: SimDuration::from_ms(2),
                }],
            ),
            &mut w,
        );
        m.run_until(SimTime::ZERO + SimDuration::from_us(100), &mut w);
        for _ in 0..3 {
            m.charge_remote(CoreId(2), SimDuration::from_us(50), &mut w);
        }
        let end = m.run_until_idle(&mut w);
        assert_eq!(end.as_ns(), 2_000_000 + 3 * 50_000);
    }

    #[test]
    fn wake_after_fires_like_a_kernel_timer() {
        let mut w = TestWorld::default();
        let mut m = machine();
        let t = m.spawn(
            CoreId(0),
            Script::new("sleeper", vec![Step::Block, Step::Done]),
            &mut w,
        );
        m.run_until(SimTime::ZERO + SimDuration::from_us(1), &mut w);
        m.wake_after(t, SimDuration::from_ms(5));
        let end = m.run_until_idle(&mut w);
        assert!(end >= SimTime::ZERO + SimDuration::from_ms(5));
        assert_eq!(m.completed_tasks(), 1);
    }

    #[test]
    fn run_until_stops_at_the_boundary() {
        let mut w = TestWorld::default();
        let mut m = machine();
        m.spawn(
            CoreId(0),
            Script::new(
                "late",
                vec![
                    Step::Sleep {
                        dur: SimDuration::from_ms(10),
                    },
                    Step::Compute { cycles: 350 },
                ],
            ),
            &mut w,
        );
        m.run_until(SimTime::ZERO + SimDuration::from_ms(5), &mut w);
        // The wake event at 10 ms has not fired; the task is still live.
        assert_eq!(m.live_tasks(), 1);
        assert_eq!(m.now(), SimTime::ZERO + SimDuration::from_ms(5));
        m.run_until_idle(&mut w);
        assert_eq!(m.completed_tasks(), 1);
    }

    #[test]
    fn trace_records_dispatch_and_power() {
        use k2_sim::trace::TraceEvent;
        let mut w = TestWorld::default();
        let mut m = machine();
        m.set_trace(true);
        m.spawn(
            CoreId(0),
            Script::new("t", vec![Step::Compute { cycles: 350 }]),
            &mut w,
        );
        m.run_until_idle(&mut w);
        assert!(m
            .trace()
            .iter()
            .any(|r| matches!(r.event, TraceEvent::Task { start: true, .. })));
        assert!(m
            .trace()
            .iter()
            .any(|r| r.event == TraceEvent::Power { core: 0, state: 0 }));
    }

    #[test]
    fn schedule_chooser_reorders_co_enabled_events_only() {
        // Two tasks spawned back-to-back dispatch at the same instant:
        // their step events are co-enabled. The default schedule runs them
        // in spawn (sequence) order; a chooser that always picks the last
        // candidate flips the interleaving without changing what runs.
        let run = |reverse: bool| {
            let mut w = TestWorld::default();
            let mut m = machine();
            m.spawn(
                CoreId(0),
                Script::new("a", vec![Step::Compute { cycles: 350 }]),
                &mut w,
            );
            m.spawn(
                CoreId(1),
                Script::new("b", vec![Step::Compute { cycles: 350 }]),
                &mut w,
            );
            if reverse {
                m.set_schedule_chooser(Box::new(|cp| cp.classes.len() - 1));
            }
            m.run_until_idle(&mut w);
            assert_eq!(m.completed_tasks(), 2);
            assert!(m.choice_points() > 0, "same-time dispatches must tie");
            w.log.iter().map(|(_, s)| *s).collect::<Vec<_>>()
        };
        let base = run(false);
        let flipped = run(true);
        assert_eq!(base.first(), Some(&"a"));
        assert_eq!(flipped.first(), Some(&"b"));
        let (mut b, mut f) = (base.clone(), flipped.clone());
        b.sort_unstable();
        f.sort_unstable();
        assert_eq!(b, f, "a chooser permutes steps, never adds or drops any");
    }

    #[test]
    fn energy_accounting_across_run() {
        let mut w = TestWorld::default();
        let mut m = machine();
        m.spawn(
            CoreId(2),
            Script::new(
                "t",
                vec![Step::ComputeTime {
                    dur: SimDuration::from_secs(1),
                }],
            ),
            &mut w,
        );
        m.run_until(SimTime::ZERO + SimDuration::from_secs(2), &mut w);
        let e = m.domain_energy_mj(DomainId::WEAK);
        // 1 s active at 21.1 mW + 1 s idle at 3.8 mW.
        assert!((e - (21.1 + 3.8)).abs() < 0.2, "e={e}");
    }

    #[test]
    fn digests_fold_irq_waiters_and_inflight_dma_in_key_order() {
        // Waiters parked on four (domain, irq) keys, spawned out of key
        // order, and three DMA transfers in flight: the pinned values
        // hold the fold to key order over both tables.
        let mut w = TestWorld::default();
        let mut m = machine();
        for (core, irq) in [
            (CoreId(2), IrqId::MBOX_D1),
            (CoreId(0), IrqId::NET),
            (CoreId(1), IrqId::BLOCK),
            (CoreId(0), IrqId::DMA),
        ] {
            m.spawn(core, Script::new("w", vec![Step::WaitIrq { irq }]), &mut w);
        }
        m.run_until(SimTime::ZERO + SimDuration::from_us(5), &mut w);
        for i in 0..3 {
            let page = crate::mem::PhysAddr(0x1000 * i);
            m.dma_submit(page, page.offset(0x10_0000), 4096);
        }
        assert_eq!(m.live_tasks(), 4);
        assert_eq!(m.state.waiters.len(), 4);
        assert_eq!(m.state.dma_inflight.len(), 3);
        assert_eq!(m.state_digest(), 0x7959_28bc_5822_864d);
        assert_eq!(m.sim_digest(), 0x1a98_e1e0_3091_92fe);
    }
}
