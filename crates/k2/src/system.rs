//! The K2 system: two kernels on one machine, and the Linux baseline.
//!
//! [`K2System`] is the *world* type threaded through the
//! [`k2_soc::platform::Machine`]: it owns the per-domain kernels, the
//! shadowed services, the DSM, the balloon manager, the NightWatch gate and
//! the interrupt coordinator. Free functions in this module are the API
//! that workload tasks call; each returns the simulated duration the caller
//! must charge to its core.
//!
//! Booting in [`SystemMode::LinuxBaseline`] builds the comparison system of
//! the paper's evaluation: one kernel on the strong domain owning all
//! memory and all interrupts, services accessed directly with no DSM, the
//! weak domain unused.

use crate::balloon::{BalloonError, BalloonManager, BalloonOp, Pressure};
use crate::dispatch::DispatchTable;
use crate::dsm::{Dsm, FaultBreakdown, MsgType, ProtocolChoice};
use crate::irqcoord::{Handoff, IrqCoordinator, SHARED_IRQS};
use crate::layout::KernelLayout;
use crate::nightwatch::NightWatch;
use k2_kernel::cost::Cost;
use k2_kernel::drivers::dma::Channel;
use k2_kernel::kernel::{SharedServices, SystemWorld};
use k2_kernel::proc::{Pid, ThreadState, Tid};
use k2_kernel::reliable::{LinkStats, ReliableLink, RetryVerdict, SendTicket};
use k2_kernel::service::{OpCx, ServiceId};
use k2_sim::audit::InvariantAuditor;
use k2_sim::digest::Fnv64;
use k2_sim::json::JsonWriter;
use k2_sim::metrics::{CounterId, HistogramId, Key, Tag};
use k2_sim::time::{dur_to_cycles, SimDuration, SimTime};
use k2_soc::core::Isa;
use k2_soc::dma::{DmaStatus, DmaXferId};
use k2_soc::hwspinlock::{HwLockId, HWSPINLOCK_OP};
use k2_soc::ids::{CoreId, DomainId, IrqId};
use k2_soc::mailbox::{Envelope, LinkTag, Mail};
use k2_soc::mem::{Pfn, PhysAddr};
use k2_soc::mmu::MmuKind;
use k2_soc::platform::{IrqCx, Machine, MachineSnapshot, TaskId, World};
use k2_soc::power::PowerState;
use k2_soc::soc::SocBuilder;
use std::collections::BTreeMap;

/// The machine type every K2 task runs on.
pub type K2Machine = Machine<K2System>;

/// Which system is booted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SystemMode {
    /// Two kernels, shared-most model (the paper's K2).
    K2,
    /// One kernel on the strong domain (the paper's Linux 3.4 baseline).
    LinuxBaseline,
}

/// Boot-time configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SystemConfig {
    /// K2 or the baseline.
    pub mode: SystemMode,
    /// DSM protocol (K2 mode only).
    pub protocol: ProtocolChoice,
    /// 16 MB blocks deflated to the main kernel at boot.
    pub initial_main_blocks: u64,
    /// 16 MB blocks deflated to each non-main kernel at boot.
    pub initial_shadow_blocks: u64,
    /// Number of coherence domains (2 = the paper's OMAP4; 3 adds the
    /// 11-style sensor domain).
    pub domains: u8,
    /// Strong-domain operating frequency in MHz (350 is the paper's
    /// most-efficient point; other values follow the DVFS power curve).
    pub a9_freq_mhz: u64,
    /// Put the filesystem on a flash-like device instead of the paper's
    /// ramdisk, producing the IO-bound idle gaps of §2.1.
    pub fs_on_flash: bool,
}

impl SystemConfig {
    /// The paper's K2 configuration.
    pub fn k2() -> Self {
        SystemConfig {
            mode: SystemMode::K2,
            protocol: ProtocolChoice::TwoState,
            initial_main_blocks: 8,
            initial_shadow_blocks: 2,
            domains: 2,
            a9_freq_mhz: 350,
            fs_on_flash: false,
        }
    }

    /// The paper's Linux baseline.
    pub fn linux() -> Self {
        SystemConfig {
            mode: SystemMode::LinuxBaseline,
            ..Self::k2()
        }
    }

    /// A three-domain K2 (the 11 extension).
    pub fn k2_three_domain() -> Self {
        SystemConfig {
            domains: 3,
            ..Self::k2()
        }
    }
}

/// System-wide counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct SystemStats {
    /// Shadowed-service operations executed.
    pub shadowed_ops: u64,
    /// Hardware-spinlock acquire/release pairs.
    pub hwlock_ops: u64,
    /// Page allocations served, per domain index.
    pub allocs: [u64; 2],
    /// Frees redirected to the other kernel (the §6.2 thin wrapper).
    pub redirected_frees: u64,
    /// Hardware-spinlock acquisition deadlines that expired (abort-and-retry
    /// recoveries from a stuck bank bit).
    pub hwlock_aborts: u64,
    /// DMA transfers re-submitted after a failed or partial completion.
    pub dma_retries: u64,
    /// DMA transfers abandoned after exhausting resubmissions.
    pub dma_gave_up: u64,
}

/// The world: see the module docs.
#[derive(Clone, Debug)]
pub struct K2System {
    /// Boot configuration.
    pub config: SystemConfig,
    /// Kernels, services, process table.
    pub world: SystemWorld,
    /// The unified address-space layout.
    pub layout: KernelLayout,
    /// The software DSM.
    pub dsm: Dsm,
    /// Balloon drivers + meta-level manager.
    pub balloon: BalloonManager,
    /// The NightWatch gate and protocol state.
    pub nightwatch: NightWatch,
    /// Shared-interrupt coordination policy.
    pub irq_coord: IrqCoordinator,
    /// Cross-ISA function dispatch table.
    pub dispatch: DispatchTable,
    /// In-flight DMA transfers: engine id -> (driver channel, waiter task).
    dma_xfers: BTreeMap<u64, (Channel, Option<TaskId>)>,
    /// Reliable mailbox links keyed by (sender domain, receiver domain,
    /// channel). One entry carries both endpoints of that directed stream:
    /// the sender's unacked messages and the receiver's dedup window.
    /// Populated only under fault injection (§6 reliable messaging).
    links: BTreeMap<(u8, u8, u8), ReliableLink>,
    /// Pending ack deadlines: the link and sequence number of each, keyed
    /// by the timer id [`Machine::call_after`] returned. Not folded into
    /// the digest: the timer's queue event is, and so is its link.
    retries: BTreeMap<u64, ((u8, u8, u8), u32)>,
    /// Resubmission counts for DMA channels currently in recovery.
    dma_retry: BTreeMap<u8, u32>,
    /// NightWatch tasks parked by the gate, per pid.
    nw_parked: BTreeMap<u32, Vec<TaskId>>,
    /// Sensor-batch inbox and its waiters.
    sensor_inbox: std::collections::VecDeque<Vec<k2_kernel::drivers::sensor::Sample>>,
    sensor_waiters: Vec<TaskId>,
    /// Replies in flight from the network device: delivered by the NET
    /// interrupt in FIFO order.
    net_pending: std::collections::VecDeque<NetDelivery>,
    net_waiters: Vec<TaskId>,
    /// Sampling cadence while the sensor is armed.
    sensor_period: Option<SimDuration>,
    sensor_watermark: usize,
    /// Domains whose mailbox ISR is a raw drain, each with the last
    /// payload drained. Inserting a domain (with 0) replaces its protocol
    /// ISR: each mail then costs [`RAW_MAIL_ISR_INSTRUCTIONS`] and only
    /// its payload is kept, so senders may put any word on the wire. It
    /// is the DSL's planted last-value-wins bug and the span tests' plain
    /// mail sink. Not folded into the digest.
    pub raw_mail: BTreeMap<DomainId, u32>,
    /// Counters.
    pub stats: SystemStats,
    /// The operation context every [`shadowed`] call records into,
    /// emptied when the call returns: steady-state calls reuse its
    /// buffers, and a snapshot taken between calls copies no page lists.
    op_cx: OpCx,
    /// Interned ids of the metrics [`shadowed`] bumps.
    op_ids: OpIds,
}

/// Lazily interned ids of the metrics every [`shadowed`] call bumps, so
/// a call indexes the machine's registry instead of walking its key
/// directory. Like the platform's own hot-id caches, a slot is filled at
/// the key's first real bump — registration order, and so every digest
/// and report, is the same as bumping by key. Indexed by domain (the
/// SoCs have two or three; the tables hold four); plain data, never
/// folded into a digest.
#[derive(Clone, Copy, Debug, Default)]
struct OpIds {
    /// `svc.shadowed[dom]`.
    shadowed: [Option<CounterId>; 4],
    /// `hwlock.abort[dom]`.
    hwlock_abort: [Option<CounterId>; 4],
    /// `dsm.fault[requester -> owner]`, indexed `requester * 4 + owner`.
    fault: [Option<CounterId>; 16],
    /// `dsm.fault_ns[requester]`.
    fault_ns: [Option<HistogramId>; 4],
}

impl K2System {
    /// Boots a system on the OMAP4 model. Returns the machine and world,
    /// ready for task spawning.
    ///
    /// # Panics
    ///
    /// Panics if `config.domains` is neither 2 nor 3: those are the SoCs
    /// that exist.
    pub fn boot(config: SystemConfig) -> (K2Machine, K2System) {
        let builder = match config.domains {
            2 => SocBuilder::omap4(),
            3 => SocBuilder::three_domain(),
            n => panic!("no SoC with {n} coherence domains: 2 or 3 are supported"),
        };
        let mut machine: K2Machine = builder.build();
        if config.a9_freq_mhz != 350 {
            let freq = config.a9_freq_mhz * 1_000_000;
            let power = crate::system::a9_point(freq);
            for &core in machine.domain_cores(DomainId::STRONG).to_vec().iter() {
                machine.set_operating_point(core, freq, power);
            }
        }
        // Address space: 32 MB main local region right before the global
        // region, 16 MB for every other domain from the bottom (6.1).
        let ram_pages = (1u64 << 30) / k2_soc::mem::PAGE_SIZE as u64;
        let mut locals = vec![8192u64];
        locals.extend(std::iter::repeat_n(4096, config.domains as usize - 1));
        let layout = KernelLayout::new(ram_pages, &locals);
        layout.validate();
        let n_kernels = match config.mode {
            SystemMode::K2 => config.domains as usize,
            SystemMode::LinuxBaseline => 1,
        };
        let all_domains: Vec<DomainId> = (0..config.domains).map(DomainId).collect();
        let mut world = SystemWorld::new(n_kernels);
        if config.fs_on_flash {
            world.services = k2_kernel::kernel::SharedServices::new_on_flash(8192);
        }
        let mut balloon = BalloonManager::new(layout.global);
        match config.mode {
            SystemMode::K2 => {
                for &dom in &all_domains {
                    let local = layout.local(dom);
                    world.kernel(dom).buddy.add_range(local.start, local.pages);
                }
                for _ in 0..config.initial_main_blocks {
                    balloon
                        .deflate(world.kernel(DomainId::STRONG))
                        .expect("boot deflate");
                }
                for &dom in &all_domains[1..] {
                    for _ in 0..config.initial_shadow_blocks {
                        balloon.deflate(world.kernel(dom)).expect("boot deflate");
                    }
                }
            }
            SystemMode::LinuxBaseline => {
                // One kernel owns every page: locals and the whole global
                // region.
                let k = world.kernel(DomainId::STRONG);
                k.buddy.add_range(Pfn(0), layout.ram_pages);
            }
        }
        let mmu_kinds: Vec<MmuKind> = (0..config.domains)
            .map(|d| {
                machine
                    .core_desc(machine.domain_cores(DomainId(d))[0])
                    .kind
                    .mmu()
            })
            .collect();
        let dsm = Dsm::new(config.protocol, DomainId::STRONG, &mmu_kinds);
        let mut sys = K2System {
            config,
            world,
            layout,
            dsm,
            balloon,
            nightwatch: NightWatch::new(),
            irq_coord: IrqCoordinator::new(),
            dispatch: DispatchTable::new(),
            dma_xfers: BTreeMap::new(),
            links: BTreeMap::new(),
            retries: BTreeMap::new(),
            dma_retry: BTreeMap::new(),
            nw_parked: BTreeMap::new(),
            sensor_inbox: std::collections::VecDeque::new(),
            sensor_waiters: Vec::new(),
            net_pending: std::collections::VecDeque::new(),
            net_waiters: Vec::new(),
            sensor_period: None,
            sensor_watermark: 0,
            raw_mail: BTreeMap::new(),
            stats: SystemStats::default(),
            op_cx: OpCx::new(),
            op_ids: OpIds::default(),
        };
        // Interrupt wiring: mailbox lines are domain-private and always
        // unmasked towards their own domain; shared lines start with the
        // main kernel (§7).
        machine.irq_unmask(
            DomainId::STRONG,
            IrqId::mailbox_for(DomainId::STRONG),
            &mut sys,
        );
        for irq in SHARED_IRQS {
            machine.irq_unmask(DomainId::STRONG, irq, &mut sys);
        }
        if config.mode == SystemMode::K2 {
            for &dom in &all_domains[1..] {
                machine.irq_unmask(dom, IrqId::mailbox_for(dom), &mut sys);
            }
        }
        (machine, sys)
    }

    /// Freezes a system: the machine's complete data state plus a
    /// structural clone of the world. The machine must have no live
    /// tasks (see [`Machine::snapshot`]); pending retransmission timers
    /// are data on both halves and are captured. The snapshot is
    /// `Send + Sync`, so one frozen image can seed forks across worker
    /// threads.
    pub fn snapshot(m: &K2Machine, sys: &K2System) -> SystemSnapshot {
        SystemSnapshot {
            machine: m.snapshot(),
            sys: sys.clone(),
        }
    }

    /// Rehydrates a runnable `(machine, world)` pair from a frozen
    /// snapshot by cloning its two halves. The system's interrupt
    /// handlers, power handling, timers and audits are [`World`] methods
    /// on `K2System` that act on its data, so nothing is re-installed and
    /// a fork is byte-indistinguishable from the system the snapshot
    /// froze — `fork(s).0.state_digest()` equals `s.machine.digest()`.
    pub fn fork(snap: &SystemSnapshot) -> (K2Machine, K2System) {
        (Machine::fork(&snap.machine), snap.sys.clone())
    }

    /// Streams the machine-wide profile report (see
    /// [`Machine::write_profile_fields`]) extended with a `system`
    /// section: the OS-level view — shadowed-op and lock counters, DSM
    /// and NightWatch protocol statistics, balloon traffic, reliable-link
    /// totals. Deterministic: two runs of the same seeded scenario render
    /// byte-identical JSON. Golden reports, scenario runs and the export
    /// binary all render through this one path, entry by entry, so report
    /// size never dictates peak memory.
    pub fn write_profile_report<W: std::fmt::Write + ?Sized>(
        &self,
        m: &K2Machine,
        w: &mut JsonWriter<'_, W>,
    ) {
        w.begin_object();
        m.write_profile_fields(w);
        w.key("system");
        self.write_system_section(w);
        w.end_object();
    }

    /// Streams the OS-level `system` section of the profile report.
    fn write_system_section<W: std::fmt::Write + ?Sized>(&self, w: &mut JsonWriter<'_, W>) {
        let ls = self.link_stats();
        let (deflates, inflates) = self.balloon.op_counts();
        let (suspends, resumes) = self.nightwatch.counts();
        let dsm = self.dsm.stats();
        w.begin_object();
        w.key("mode");
        w.str(&format!("{:?}", self.config.mode));
        for (k, v) in [
            ("shadowed_ops", self.stats.shadowed_ops),
            ("hwlock_ops", self.stats.hwlock_ops),
            ("hwlock_aborts", self.stats.hwlock_aborts),
            ("redirected_frees", self.stats.redirected_frees),
        ] {
            w.key(k);
            w.u64(v);
        }
        let sections: [(&str, &[(&str, u64)]); 5] = [
            (
                "dsm",
                &[
                    ("faults", self.dsm.total_faults()),
                    ("messages", dsm.messages),
                    ("sections_split", dsm.sections_split),
                ],
            ),
            (
                "nightwatch",
                &[("suspends", suspends), ("resumes", resumes)],
            ),
            (
                "balloon",
                &[
                    ("deflates", deflates),
                    ("inflates", inflates),
                    ("free_blocks", self.balloon.free_blocks()),
                ],
            ),
            (
                "links",
                &[
                    ("sent", ls.sent),
                    ("retransmits", ls.retransmits),
                    ("acked", ls.acked),
                    ("gave_up", ls.gave_up),
                    ("accepted", ls.accepted),
                    ("duplicates_dropped", ls.duplicates_dropped),
                ],
            ),
            (
                "dma_driver",
                &[
                    ("retries", self.stats.dma_retries),
                    ("gave_up", self.stats.dma_gave_up),
                ],
            ),
        ];
        for (name, members) in sections {
            w.key(name);
            w.begin_object();
            for &(k, v) in members {
                w.key(k);
                w.u64(v);
            }
            w.end_object();
        }
        w.end_object();
    }

    /// Folds the world's observable state into a snapshot digest:
    /// configuration, system counters, DSM / NightWatch / balloon
    /// statistics, merged link counters, and the shapes of every pending
    /// device queue (in-flight DMA, parked tasks, inboxes, waiters).
    pub fn digest_into(&self, h: &mut Fnv64) {
        h.bool(self.config.mode == SystemMode::K2)
            .bool(self.config.protocol == ProtocolChoice::TwoState)
            .u64(self.config.initial_main_blocks)
            .u64(self.config.initial_shadow_blocks)
            .u32(self.config.domains as u32)
            .u64(self.config.a9_freq_mhz)
            .bool(self.config.fs_on_flash);
        h.u64(self.stats.shadowed_ops)
            .u64(self.stats.hwlock_ops)
            .u64(self.stats.allocs[0])
            .u64(self.stats.allocs[1])
            .u64(self.stats.redirected_frees)
            .u64(self.stats.hwlock_aborts)
            .u64(self.stats.dma_retries)
            .u64(self.stats.dma_gave_up);
        h.u64(self.dsm.total_faults())
            .u64(self.dsm.stats().messages)
            .u64(self.dsm.stats().messages_delivered)
            .u64(self.dsm.stats().sections_split);
        let (deflates, inflates) = self.balloon.op_counts();
        h.u64(deflates)
            .u64(inflates)
            .u64(self.balloon.free_blocks());
        let (suspends, resumes) = self.nightwatch.counts();
        h.u64(suspends).u64(resumes);
        let ls = self.link_stats();
        h.u64(ls.sent)
            .u64(ls.retransmits)
            .u64(ls.acked)
            .u64(ls.gave_up)
            .u64(ls.accepted)
            .u64(ls.duplicates_dropped);
        // Pending work, in key order.
        h.usize(self.dma_xfers.len());
        for &id in self.dma_xfers.keys() {
            h.u64(id);
        }
        h.usize(self.links.len());
        for &(a, b, c) in self.links.keys() {
            h.u32(a as u32).u32(b as u32).u32(c as u32);
        }
        h.usize(self.nw_parked.len());
        for (&pid, tasks) in &self.nw_parked {
            h.u32(pid).usize(tasks.len());
        }
        h.usize(self.sensor_inbox.len())
            .usize(self.sensor_waiters.len())
            .usize(self.net_pending.len())
            .usize(self.net_waiters.len())
            .usize(self.world.services.net.egress_pending())
            .u64(self.world.services.net.egress_datagrams());
        h.bool(self.sensor_period.is_some());
        if let Some(p) = self.sensor_period {
            h.u64(p.as_ns());
        }
        h.usize(self.sensor_watermark);
    }

    /// Merged reliable-messaging counters across every link (empty unless
    /// fault injection activated the reliability paths).
    pub fn link_stats(&self) -> LinkStats {
        let mut s = LinkStats::default();
        for l in self.links.values() {
            s.merge(l.stats());
        }
        s
    }

    /// The first core of a domain (where its kernel handles interrupts).
    pub fn kernel_core(m: &K2Machine, dom: DomainId) -> CoreId {
        m.domain_cores(dom)[0]
    }

    /// A human-readable status snapshot — the `/proc`-style view an
    /// operator would read: per-kernel memory, balloon ownership, DSM and
    /// NightWatch statistics, interrupt routing.
    pub fn status_report(&self, m: &K2Machine) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        writeln!(
            s,
            "mode: {:?}, domains: {}",
            self.config.mode, self.config.domains
        )
        .unwrap();
        for k in &self.world.kernels {
            writeln!(
                s,
                "kernel {}: {}/{} pages free, {} balloon blocks, {} ctx switches, {} bh deferred",
                k.domain,
                k.buddy.free_page_count(),
                k.buddy.managed_page_count(),
                self.balloon.owned_blocks(k.domain),
                k.stats.context_switches,
                k.bh.deferred(),
            )
            .unwrap();
        }
        writeln!(
            s,
            "balloon pool: {} free of {} blocks ({} deflates, {} inflates)",
            self.balloon.free_blocks(),
            self.balloon.total_blocks(),
            self.balloon.op_counts().0,
            self.balloon.op_counts().1,
        )
        .unwrap();
        writeln!(
            s,
            "dsm: {} faults, {} mails, {} sections split",
            self.dsm.total_faults(),
            self.dsm.stats().messages,
            self.dsm.stats().sections_split,
        )
        .unwrap();
        let (su, re) = self.nightwatch.counts();
        writeln!(s, "nightwatch: {su} suspends / {re} resumes").unwrap();
        writeln!(
            s,
            "shared irqs handled by {}; power: {:?}",
            self.irq_coord.handler(),
            (0..self.config.domains)
                .map(|d| m.domain_power_state(DomainId(d)))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        s
    }

    /// Which kernel owns frame `pfn` — the paper's "simple address range
    /// check" used to redirect frees (§6.2).
    pub fn owner_of_pfn(&self, pfn: Pfn) -> DomainId {
        if self.config.mode == SystemMode::LinuxBaseline {
            return DomainId::STRONG;
        }
        for (i, local) in self.layout.locals.iter().enumerate() {
            if local.contains(pfn) {
                return DomainId(i as u8);
            }
        }
        self.balloon.block_owner_of(pfn).unwrap_or(DomainId::STRONG)
    }
}

/// A frozen image of a booted system: the platform's [`MachineSnapshot`]
/// plus a structural clone of the [`K2System`] world. Produced by
/// [`K2System::snapshot`], consumed (any number of times, from any thread)
/// by [`K2System::fork`].
#[derive(Clone, Debug)]
pub struct SystemSnapshot {
    /// Complete platform data state (cores, queue, peripherals, metrics…).
    pub machine: MachineSnapshot,
    /// The world. Plain data throughout, pending retransmission timers
    /// and raw mail drains included; the code that acts on it is
    /// `K2System`'s [`World`] implementation.
    pub sys: K2System,
}

impl SystemSnapshot {
    /// Simulated time at which the snapshot was frozen.
    pub fn now(&self) -> k2_sim::time::SimTime {
        self.machine.now()
    }

    /// 64-bit FNV-1a digest over the frozen state: the machine digest
    /// chained with the world's observable counters (system stats, DSM,
    /// NightWatch, balloon, reliable links, pending device work). Kernel
    /// deep state (buddy free lists, page cache, sockets) is deliberately
    /// not folded — it is exercised through the golden profile reports
    /// the differential suite compares byte-for-byte.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.u64(self.machine.digest());
        self.sys.digest_into(&mut h);
        h.finish()
    }
}

/// Mailbox ISR cost per mail of a raw drain (see [`K2System::raw_mail`]).
pub const RAW_MAIL_ISR_INSTRUCTIONS: u64 = 120;

/// The OS side of the machine. Under K2 every domain's kernel serves its
/// own mailbox line and whichever shared device lines it unmasks; the
/// baseline serves only the strong domain's shared lines and has no
/// mailbox ISR and no power handling.
impl World for K2System {
    fn irq(&mut self, m: &mut K2Machine, cx: IrqCx) -> u64 {
        if cx.irq == IrqId::mailbox_for(cx.domain) {
            return mailbox_isr(self, m, cx.domain);
        }
        if self.config.mode == SystemMode::LinuxBaseline && cx.domain != DomainId::STRONG {
            return 0;
        }
        match cx.irq {
            IrqId::DMA => dma_isr(self, m, cx),
            IrqId::SENSOR => sensor_isr(self, m, cx),
            IrqId::NET => net_isr(self, m, cx),
            _ => 0,
        }
    }

    /// Re-routes the shared interrupts on strong-domain transitions (§7).
    fn power_changed(&mut self, m: &mut K2Machine, core: CoreId, state: PowerState) {
        if self.config.mode != SystemMode::K2 || m.core_desc(core).domain != DomainId::STRONG {
            return;
        }
        let handoff = match (state, m.domain_power_state(DomainId::STRONG)) {
            (PowerState::Inactive, PowerState::Inactive) => self.irq_coord.on_strong_inactive(),
            // Rule 2 applies when the strong domain wakes for *work*;
            // a blip that only services a DSM request or an interrupt
            // for the weak domain does not move the shared lines.
            (PowerState::Active, _) if m.core_has_task_work(core) => {
                self.irq_coord.on_strong_active()
            }
            _ => None,
        };
        if let Some(Handoff { from, to }) = handoff {
            for irq in SHARED_IRQS {
                m.irq_mask(from, irq);
                m.irq_unmask(to, irq, self);
            }
        }
    }

    /// A reliable-link ack deadline fell due.
    fn timer(&mut self, m: &mut K2Machine, id: u64) {
        let (link, seq) = self
            .retries
            .remove(&id)
            .expect("an ack deadline fires once");
        retry_due(self, m, link, seq);
    }

    /// The conservation laws the platform auditor enforces when enabled.
    fn audit(&self, now: SimTime, auditor: &mut InvariantAuditor) {
        let buddies = self.world.kernels.iter().try_for_each(|k| {
            k.buddy
                .validate()
                .map_err(|e| format!("kernel {}: {e}", k.domain))
        });
        auditor.check_result(now, "buddy-accounting", buddies);
        auditor.check_result(now, "dsm-single-writer", self.dsm.validate());
    }
}

/// `dom`'s mailbox ISR: hands every mail in the FIFO to the protocols
/// (NightWatch, DSM notifications, reliable-link acks, free redirects),
/// or only keeps its payload when `dom` has a raw drain.
fn mailbox_isr(w: &mut K2System, m: &mut K2Machine, dom: DomainId) -> u64 {
    let mut cycles = 0u64;
    if let Some(last) = w.raw_mail.get_mut(&dom) {
        while let Some(env) = m.mailbox_recv(dom) {
            *last = env.mail.0;
            cycles += RAW_MAIL_ISR_INSTRUCTIONS;
        }
    } else if w.config.mode == SystemMode::K2 {
        while let Some(env) = m.mailbox_recv(dom) {
            cycles += k2_soc::calib::MAILBOX_ISR_INSTRUCTIONS;
            cycles += handle_mail(w, m, dom, env);
        }
    }
    cycles
}

/// One reply the simulated network device will deliver.
#[derive(Clone, Debug)]
struct NetDelivery {
    port: k2_kernel::net::Port,
    src: k2_kernel::net::Port,
    payload: Vec<u8>,
    trace: k2_sim::span::TraceCtx,
}

/// The NET ISR: delivers the next reply the simulated network device
/// holds into its socket and wakes the waiters.
fn net_isr(w: &mut K2System, m: &mut K2Machine, cx: IrqCx) -> u64 {
    let Some(d) = w.net_pending.pop_front() else {
        return 200; // spurious
    };
    // A traced datagram gets an rx span parented on the irq handler
    // span (the current span while this ISR runs), annotated with its
    // trace context so the exporter can close the cross-machine flow.
    // Span work never changes the cycles returned, so tracing cannot
    // perturb simulated time.
    let rx = if d.trace.is_none() {
        k2_sim::span::SpanId::NONE
    } else {
        let mut args = k2_sim::span::SpanArgs::one("trace", d.trace.trace_id);
        args.push("rparent", d.trace.parent);
        let now = m.now();
        m.spans_mut().start_args(now, "net.rx", cx.domain.0, args)
    };
    // The device handler pushes the datagram into the socket — a
    // shadowed network-stack operation like any other.
    let (res, dur) = shadowed(w, m, cx.core, ServiceId::Net, |s, opcx| {
        s.net
            .deliver_external_traced(d.port, d.src, d.payload, d.trace, opcx)
    });
    let rx_end = m.now() + dur;
    m.spans_mut().end(rx_end, rx);
    if res.is_ok() {
        // Wake every waiter, then hand the emptied list back so the next
        // delivery's waiters reuse its buffer. A task that registers
        // while the others wake keeps its place.
        let mut waiters = std::mem::take(&mut w.net_waiters);
        for &t in &waiters {
            m.wake(t, w);
        }
        waiters.clear();
        waiters.append(&mut w.net_waiters);
        w.net_waiters = waiters;
    }
    dur_to_cycles(dur, m.core_desc(cx.core).freq_hz)
}

/// The SENSOR watermark ISR: drains the device FIFO into the inbox and
/// re-arms the next watermark interrupt.
fn sensor_isr(w: &mut K2System, m: &mut K2Machine, cx: IrqCx) -> u64 {
    let Some(period) = w.sensor_period else {
        return 200; // spurious: sensor was disabled meanwhile
    };
    let watermark = w.sensor_watermark;
    // The device filled its FIFO to the watermark; the driver drains it
    // (a shadowed-service operation like any other).
    let (samples, dur) = shadowed(w, m, cx.core, ServiceId::DmaDriver, |s, opcx| {
        s.sensor.device_sample(watermark);
        s.sensor.drain(opcx)
    });
    match samples {
        Ok(batch) if !batch.is_empty() => {
            w.sensor_inbox.push_back(batch);
            for t in std::mem::take(&mut w.sensor_waiters) {
                m.wake(t, w);
            }
        }
        _ => {}
    }
    // Re-arm the next watermark interrupt.
    m.raise_irq_after(IrqId::SENSOR, period);
    dur_to_cycles(dur, m.core_desc(cx.core).freq_hz)
}

/// Resubmissions of a faulted DMA transfer before the driver gives up.
const DMA_MAX_RETRIES: u32 = 8;
/// Driver instructions to verify a completion and re-program the channel.
const DMA_RESUBMIT_INSTRUCTIONS: u64 = 400;

/// The DMA completion ISR: verifies each completion, re-submits failed
/// transfers, and completes the driver channel and wakes its waiter.
fn dma_isr(w: &mut K2System, m: &mut K2Machine, cx: IrqCx) -> u64 {
    let completions = m.dma_take_completions();
    let mut cycles = 0u64;
    for c in completions {
        let Some((channel, waiter)) = w.dma_xfers.remove(&c.id.0) else {
            continue;
        };
        // Completion verification: a failed or partial transfer is
        // re-programmed on the same driver channel, bounded by
        // DMA_MAX_RETRIES resubmissions.
        if let DmaStatus::Error { .. } = c.status {
            let tries = w.dma_retry.entry(channel.0).or_insert(0);
            if *tries < DMA_MAX_RETRIES {
                *tries += 1;
                w.stats.dma_retries += 1;
                let lead = m.core_desc(cx.core).cycles(DMA_RESUBMIT_INSTRUCTIONS);
                let xfer = m.dma_submit_after(c.src, c.dst, c.len, lead);
                w.dma_xfers.insert(xfer.0, (channel, waiter));
                cycles += DMA_RESUBMIT_INSTRUCTIONS;
                continue;
            }
            // Exhausted: complete the channel anyway so the driver is not
            // wedged; the waiter observes stale data.
            w.stats.dma_gave_up += 1;
        }
        w.dma_retry.remove(&channel.0);
        let (res, dur) = shadowed(w, m, cx.core, ServiceId::DmaDriver, |s, opcx| {
            s.dma.complete(channel, opcx)
        });
        res.expect("completion for busy channel");
        cycles += dur_to_cycles(dur, m.core_desc(cx.core).freq_hz);
        if let Some(t) = waiter {
            m.wake(t, w);
        }
    }
    cycles
}

// ----------------------------------------------------------------------
// Reliable inter-domain messaging (§6: the interconnect is lossy)
// ----------------------------------------------------------------------

/// Reliable-link channel carrying NightWatch protocol messages.
const CHAN_NW: u8 = 0;
/// Reliable-link channel carrying DSM coherence notifications.
const CHAN_DSM: u8 = 1;
/// Ack mails: `0xAC` prefix, 2-bit channel, 22-bit sequence. Acks travel
/// untagged (acking acks would regress infinitely); a lost ack is healed
/// by the sender retransmitting and the receiver re-acking.
const ACK_PREFIX: u32 = 0xAC00_0000;

fn encode_ack(tag: LinkTag) -> u32 {
    ACK_PREFIX | ((tag.chan as u32 & 0x3) << 22) | (tag.seq & 0x3F_FFFF)
}

fn decode_ack(mail: u32) -> (u8, u32) {
    (((mail >> 22) & 0x3) as u8, mail & 0x3F_FFFF)
}

/// Sends a protocol mail `from → to`. Under fault injection it rides the
/// reliable link on `chan` (sequence tag, ack deadline, retransmission);
/// otherwise it is a bare hardware mail, keeping unfaulted runs
/// byte-identical to the calibrated model.
fn send_protocol_mail(
    w: &mut K2System,
    m: &mut K2Machine,
    from: DomainId,
    to: DomainId,
    chan: u8,
    payload: u32,
) {
    if m.fault_injection_active() {
        reliable_send(w, m, from, to, chan, payload);
    } else {
        m.mailbox_send(from, to, Mail(payload));
    }
}

/// Registers `payload` with the link's sender state, transmits it tagged,
/// and arms the retransmission timer.
fn reliable_send(
    w: &mut K2System,
    m: &mut K2Machine,
    from: DomainId,
    to: DomainId,
    chan: u8,
    payload: u32,
) {
    let link = w.links.entry((from.0, to.0, chan)).or_default();
    let ticket = link.send(payload, m.now());
    let tag = LinkTag {
        chan,
        seq: ticket.seq,
    };
    m.metrics_mut()
        .incr(Key::new("link.sent", Tag::DomainPair(from.0, to.0)));
    m.mailbox_send_tagged(from, to, Mail(payload), Some(tag));
    arm_deadline(w, m, (from.0, to.0, chan), ticket);
}

/// Arms the ack deadline of one in-flight message on `link`;
/// [`retry_due`] runs when it fires.
fn arm_deadline(w: &mut K2System, m: &mut K2Machine, link: (u8, u8, u8), ticket: SendTicket) {
    let id = m.call_after(ticket.deadline - m.now());
    w.retries.insert(id, (link, ticket.seq));
}

/// Message `seq`'s ack deadline on link `key` fell due. The link decides:
/// settled (acked meanwhile), retransmit with exponential backoff, or
/// give up after [`ReliableLink::MAX_ATTEMPTS`].
fn retry_due(w: &mut K2System, m: &mut K2Machine, key: (u8, u8, u8), seq: u32) {
    let Some(link) = w.links.get_mut(&key) else {
        return;
    };
    let (from, to, chan) = (DomainId(key.0), DomainId(key.1), key.2);
    let pair = Tag::DomainPair(from.0, to.0);
    match link.due(seq, m.now()) {
        RetryVerdict::Settled => {}
        RetryVerdict::GaveUp => m.metrics_mut().incr(Key::new("link.gave_up", pair)),
        RetryVerdict::Retry(next) => {
            let payload = link.payload_of(seq).expect("retrying mail is pending");
            m.metrics_mut().incr(Key::new("link.retransmit", pair));
            m.mailbox_send_tagged(from, to, Mail(payload), Some(LinkTag { chan, seq }));
            arm_deadline(w, m, key, next);
        }
    }
}

/// Dispatches one received envelope. Tagged mails ride a reliable link:
/// ack first (even for duplicates — the sender may have missed the earlier
/// ack), dedup by sequence number, then hand the payload to its channel's
/// protocol. Untagged mails are acks or the legacy unreliable encodings.
fn handle_mail(w: &mut K2System, m: &mut K2Machine, dom: DomainId, env: Envelope) -> u64 {
    let mail = env.mail.0;
    if let Some(tag) = env.tag {
        m.mailbox_send(dom, env.from, Mail(encode_ack(tag)));
        let link = w.links.entry((env.from.0, dom.0, tag.chan)).or_default();
        if !link.accept(tag.seq) {
            m.metrics_mut()
                .incr(Key::new("link.duplicate", Tag::Domain(dom.0)));
            return 80; // retransmitted duplicate: re-acked, payload dropped
        }
        let dispatch = match tag.chan {
            CHAN_DSM => handle_dsm_mail(w, mail),
            _ => handle_nw_mail(w, m, dom, mail),
        };
        return 40 + dispatch;
    }
    if mail & 0xFF00_0000 == ACK_PREFIX {
        let (chan, seq) = decode_ack(mail);
        // The ack settles the reverse-direction stream: this domain sent
        // the message being acknowledged.
        if let Some(link) = w.links.get_mut(&(dom.0, env.from.0, chan)) {
            link.on_ack(seq);
        }
        return 60;
    }
    handle_nw_mail(w, m, dom, mail)
}

/// A DSM coherence notification (GetExclusive/PutExclusive) delivered over
/// the reliable channel. Ownership already moved synchronously during
/// [`shadowed`]'s planning; the mail is §6.3's message made observable on
/// the wire, counted so tests can assert none is permanently lost.
fn handle_dsm_mail(w: &mut K2System, mail: u32) -> u64 {
    let _ = crate::dsm::protocol::decode_mail(mail);
    w.dsm.note_delivered();
    90
}

fn handle_nw_mail(w: &mut K2System, m: &mut K2Machine, dom: DomainId, mail: u32) -> u64 {
    use crate::nightwatch::NwMsg;
    // Mail namespace: 0xFxxx_xxxx are asynchronous free-redirect
    // notifications (the thin wrapper of 6.2) - the owning kernel's work
    // was already charged remotely; the ISR just acknowledges.
    if mail & 0xF000_0000 == 0xF000_0000 {
        return 150;
    }
    match NwMsg::decode(mail) {
        NwMsg::SuspendNw(pid) => {
            m.metrics_mut()
                .incr(Key::new("nw.suspend", Tag::Domain(dom.0)));
            let ack = w.nightwatch.handle_suspend(pid);
            send_protocol_mail(w, m, dom, DomainId::STRONG, CHAN_NW, ack.encode());
            300
        }
        NwMsg::AckSuspendNw(pid) => {
            w.nightwatch.note_ack(pid);
            120
        }
        NwMsg::ResumeNw(pid) => {
            m.metrics_mut()
                .incr(Key::new("nw.resume", Tag::Domain(dom.0)));
            if w.nightwatch.handle_resume(pid) {
                if let Some(parked) = w.nw_parked.remove(&pid.0) {
                    for t in parked {
                        m.wake(t, w);
                    }
                }
            }
            260
        }
    }
}

/// The A9's power parameters at an arbitrary operating frequency,
/// interpolated between the two measured Table 3 points.
pub fn a9_point(freq_hz: u64) -> k2_soc::power::CorePowerParams {
    k2_soc::power::CorePowerParams {
        active_mw: k2_soc::power::a9_active_mw(freq_hz),
        ..k2_soc::power::CorePowerParams::cortex_a9_350mhz()
    }
}

// ----------------------------------------------------------------------
// The task-facing API
// ----------------------------------------------------------------------

/// Runs one operation against the shadowed services from `core`, applying
/// the shared-most machinery: hardware-spinlock augmentation, cross-ISA
/// dispatch overhead on the weak domain, and DSM coherence for every state
/// page the operation touched. Returns the operation's result and the
/// duration the caller must charge.
///
/// The operation records into the world's reused [`OpCx`] and every
/// metric is bumped through an interned id, so a call that hits locally
/// neither allocates nor hashes nor walks a metric key.
pub fn shadowed<R>(
    w: &mut K2System,
    m: &mut K2Machine,
    core: CoreId,
    service: ServiceId,
    f: impl FnOnce(&mut SharedServices, &mut OpCx) -> R,
) -> (R, SimDuration) {
    // Taken, not borrowed: interrupt handlers this call triggers may run
    // a nested operation, which then records into a context of its own.
    let mut cx = std::mem::take(&mut w.op_cx);
    let r = f(&mut w.world.services, &mut cx);
    let dur = account_op(w, m, core, service, &cx);
    cx.clear();
    w.op_cx = cx;
    (r, dur)
}

/// The coherence and locking cost of one recorded operation: the body
/// of [`shadowed`] once the service code has run.
fn account_op(
    w: &mut K2System,
    m: &mut K2Machine,
    core: CoreId,
    service: ServiceId,
    cx: &OpCx,
) -> SimDuration {
    let cost = cx.cost();
    let desc = m.core_desc(core).clone();
    let dom = desc.domain;
    let mut dur = cost.time_on(&desc);
    w.stats.shadowed_ops += 1;
    m.metrics_mut().add_cached(
        &mut w.op_ids.shadowed[dom.index()],
        Key::new("svc.shadowed", Tag::Domain(dom.0)),
        1,
    );
    if w.config.mode == SystemMode::LinuxBaseline {
        return dur;
    }
    // §5.3 step 4: locks augmented with hardware spinlocks. A stuck bank
    // bit (fault injection, or a crashed remote holder) would spin forever,
    // so acquisition carries a deadline: spin until it expires, abort, back
    // off, retry. Polls are timestamped at their virtual offset into this
    // operation so an injected stuck window expires on the right attempt.
    let lock = HwLockId(service_lock(service));
    let mut at = dur;
    let mut attempts = 0u32;
    loop {
        if m.hwlock_try_acquire_at(lock, dom, m.now() + at) {
            m.hwlock_release(lock, dom);
            break;
        }
        attempts += 1;
        assert!(
            attempts < HWLOCK_MAX_ATTEMPTS,
            "hwspinlock {} stuck beyond every deadline",
            lock.0
        );
        w.stats.hwlock_aborts += 1;
        m.metrics_mut().add_cached(
            &mut w.op_ids.hwlock_abort[dom.index()],
            Key::new("hwlock.abort", Tag::Domain(dom.0)),
            1,
        );
        let backoff =
            (HWLOCK_BACKOFF_BASE.as_ns() << (attempts - 1).min(8)).min(HWLOCK_BACKOFF_MAX.as_ns());
        at += HWLOCK_DEADLINE + SimDuration::from_ns(backoff);
    }
    w.stats.hwlock_ops += 1;
    dur = at + HWSPINLOCK_OP * 2;
    // §5.4: function-pointer dispatch traps on the weak (Thumb-2) domain.
    if desc.isa() == Isa::Thumb2 {
        dur += DispatchTable::overhead_for(cost.instructions).time_on(&desc);
    }
    // §6.3: coherence for the touched state pages.
    let plan = w
        .dsm
        .plan_accesses_with_fresh(dom, service, cx.reads(), cx.writes(), cx.fresh());
    dur += desc.cycles(plan.detection_cycles);
    dur += plan.split_cost.time_on(&desc);
    for fault in plan.faults {
        let owner_core = K2System::kernel_core(m, fault.from);
        let owner_desc = m.core_desc(owner_core).clone();
        let b = FaultBreakdown::compute(&desc, &owner_desc, false);
        // §6.3: the servicing kernel runs GetExclusive in a bottom half.
        // The main kernel "will further defer the handling if under high
        // workloads" — a request landing on its busy core waits a
        // scheduling quantum; the shadow kernel services immediately.
        let owner_busy = m.core_power_state(owner_core) == PowerState::Active;
        let (raise_cost, deferred) = w
            .world
            .kernel(fault.from)
            .bh
            .raise(k2_kernel::irqflow::BhWork::DsmService, owner_busy);
        let deferral = if deferred {
            crate::dsm::fault::MAIN_BUSY_DEFERRAL
        } else {
            SimDuration::ZERO
        };
        // The bottom half itself runs as part of the servicing charge.
        let (_, run_cost) = w.world.kernel(fault.from).bh.run_pending();
        let bh_extra = (raise_cost + run_cost).time_on(&owner_desc);
        let wake_extra = m.charge_remote(owner_core, b.servicing + bh_extra, w);
        let total = b.total() + wake_extra + deferral + bh_extra;
        w.dsm.record_fault(dom, total.as_us_f64());
        let metrics = m.metrics_mut();
        metrics.add_cached(
            &mut w.op_ids.fault[dom.index() * 4 + fault.from.index()],
            Key::new("dsm.fault", Tag::DomainPair(dom.0, fault.from.0)),
            1,
        );
        metrics.observe_duration_cached(
            &mut w.op_ids.fault_ns[dom.index()],
            Key::new("dsm.fault_ns", Tag::Domain(dom.0)),
            total,
        );
        dur += total;
        // §6.3's message pair made observable: under fault injection the
        // GetExclusive/PutExclusive notifications ride the reliable DSM
        // channel, so a dropped mail is retransmitted instead of wedging
        // the requester waiting for a grant that never comes.
        if m.fault_injection_active() {
            let pfn20 = fault.page.page.0 & 0xF_FFFF;
            let seq = (w.dsm.total_faults() & 0x1FF) as u16;
            let get = crate::dsm::protocol::encode_mail(MsgType::GetExclusive, pfn20, seq);
            let put = crate::dsm::protocol::encode_mail(MsgType::PutExclusive, pfn20, seq);
            reliable_send(w, m, dom, fault.from, CHAN_DSM, get);
            reliable_send(w, m, fault.from, dom, CHAN_DSM, put);
        }
    }
    dur
}

/// Deadline one hwspinlock poll burst spins before aborting: ten bus
/// round-trips at [`HWSPINLOCK_OP`] cost.
const HWLOCK_DEADLINE: SimDuration = SimDuration::from_ns(1_500);
/// First retry backoff after an expired deadline; doubles per attempt.
const HWLOCK_BACKOFF_BASE: SimDuration = SimDuration::from_us(2);
/// Backoff ceiling between lock retries.
const HWLOCK_BACKOFF_MAX: SimDuration = SimDuration::from_us(64);
/// Abort-and-retry attempts before declaring the lock dead (a real system
/// would escalate to a watchdog reset).
const HWLOCK_MAX_ATTEMPTS: u32 = 64;

fn service_lock(service: ServiceId) -> u16 {
    match service {
        ServiceId::Fs => 1,
        ServiceId::Net => 2,
        ServiceId::DmaDriver => 3,
    }
}

/// Allocates `2^order` pages from the *local* kernel's independent
/// allocator (§6.2: allocation is always served locally). Includes the
/// meta-level manager's pressure probe. Returns the block and the duration
/// to charge.
pub fn alloc_pages(
    w: &mut K2System,
    m: &mut K2Machine,
    core: CoreId,
    order: u8,
    movable: bool,
) -> (Option<Pfn>, SimDuration) {
    let desc = m.core_desc(core).clone();
    let dom = kernel_domain(w, desc.domain);
    let mt = if movable {
        k2_kernel::mm::buddy::MigrateType::Movable
    } else {
        k2_kernel::mm::buddy::MigrateType::Unmovable
    };
    let kernel = w.world.kernel(dom);
    let result = kernel.buddy.alloc_pages(order, mt);
    let mut cost = BalloonManager::probe_cost();
    let pfn = match result {
        Some((pfn, c)) => {
            cost += c;
            // Movable single pages are tracked in the reverse map so the
            // balloon can migrate them (order > 0 movable blocks are rare
            // and pin their block, as in Linux).
            if movable && order == 0 {
                kernel.rmap.register(pfn);
            }
            Some(pfn)
        }
        None => None,
    };
    w.stats.allocs[dom.index().min(1)] += 1;
    let dur = cost.time_on(&desc);
    m.metrics_mut()
        .observe_duration(Key::new("mm.alloc_ns", Tag::Domain(dom.0)), dur);
    (pfn, dur)
}

/// Frees pages, redirecting to the allocator that owns the frame (§6.2's
/// thin wrapper over the existing free interface). A remote free charges
/// the owning kernel's core asynchronously and only the redirect cost to
/// the caller.
pub fn free_pages(w: &mut K2System, m: &mut K2Machine, core: CoreId, pfn: Pfn) -> SimDuration {
    let desc = m.core_desc(core).clone();
    let caller_dom = kernel_domain(w, desc.domain);
    let owner = w.owner_of_pfn(pfn);
    // The frame may have been migrated since allocation; resolve through
    // the reverse map, then drop the tracking entry.
    let kernel = w.world.kernel(owner);
    let pfn = match kernel.rmap.handle_of(pfn) {
        Some(h) => kernel.rmap.unregister(h),
        None => pfn,
    };
    let cost = w.world.kernel(owner).buddy.free_pages(pfn);
    if owner == caller_dom {
        cost.time_on(&desc)
    } else {
        // Redirect: the caller only pays the address check + mail; the
        // owner's core does the work asynchronously.
        w.stats.redirected_frees += 1;
        m.metrics_mut().incr(Key::new(
            "mm.redirected_free",
            Tag::DomainPair(caller_dom.0, owner.0),
        ));
        let owner_core = K2System::kernel_core(m, owner);
        let owner_desc = m.core_desc(owner_core).clone();
        m.charge_remote(owner_core, cost.time_on(&owner_desc), w);
        m.mailbox_send(
            caller_dom,
            owner,
            k2_soc::mailbox::Mail(0xF000_0000 | (pfn.0 as u32 & 0x0FFF_FFFF)),
        );
        Cost::instr(60).time_on(&desc)
    }
}

/// The meta-level manager's background poll: performs at most one balloon
/// operation if pressure demands it. Returns the duration to charge (zero
/// when nothing to do).
pub fn meta_poll(w: &mut K2System, m: &mut K2Machine, core: CoreId) -> SimDuration {
    if w.config.mode == SystemMode::LinuxBaseline {
        return SimDuration::ZERO;
    }
    let desc = m.core_desc(core).clone();
    for dom in [DomainId::STRONG, DomainId::WEAK] {
        let pressure = w.balloon.pressure_of(w.world.kernel(dom));
        let op: Result<BalloonOp, BalloonError> = match pressure {
            Pressure::Low => {
                let K2System { balloon, world, .. } = w;
                balloon.deflate(world.kernel(dom))
            }
            Pressure::High if w.balloon.free_blocks() == 0 => {
                let K2System { balloon, world, .. } = w;
                balloon.inflate(world.kernel(dom))
            }
            _ => continue,
        };
        if let Ok(op) = op {
            // The balloon op runs on the *owning* kernel's core; if that is
            // not the polling core, charge it remotely.
            let kernel_core = K2System::kernel_core(m, dom);
            let t = op.cost.time_on(m.core_desc(kernel_core)) + op.fixed;
            let i = dom.index().min(1);
            let j = usize::from(pressure != Pressure::Low);
            w.balloon.latency_us[i][j].record(t.as_us_f64());
            m.metrics_mut()
                .observe_duration(Key::new("balloon.op_ns", Tag::Domain(dom.0)), t);
            if kernel_core == core {
                return t;
            }
            m.charge_remote(kernel_core, t, w);
            return Cost::instr(200).time_on(&desc);
        }
    }
    SimDuration::ZERO
}

/// Starts a DMA transfer through the shadowed driver and the hardware
/// engine. The completion interrupt will wake `waiter` (if given) after
/// the driver's completion handling. Returns the transfer id and the
/// duration to charge for submission.
///
/// # Panics
///
/// Panics if the driver has no free channel (the benchmarks pace
/// submissions; a real caller would retry).
pub fn dma_start(
    w: &mut K2System,
    m: &mut K2Machine,
    core: CoreId,
    src: PhysAddr,
    dst: PhysAddr,
    len: u64,
    waiter: Option<TaskId>,
) -> (DmaXferId, SimDuration) {
    let dom = m.core_desc(core).domain;
    let (req, dur) = shadowed(w, m, core, ServiceId::DmaDriver, |s, cx| {
        s.dma.submit(dom, src, dst, len, cx)
    });
    let req = req.expect("no free DMA channel");
    // Data movement starts after the driver's CPU-side preparation
    // (clearing the destination, cache maintenance, programming).
    let xfer = m.dma_submit_after(req.src, req.dst, req.len, dur);
    w.dma_xfers.insert(xfer.0, (req.channel, waiter));
    (xfer, dur)
}

/// Schedules the network device to deliver a reply datagram to `port`
/// after `rtt` (the simulated remote endpoint). The NET interrupt performs
/// the delivery; `net_await` parks until it lands.
pub fn net_expect_reply(
    w: &mut K2System,
    m: &mut K2Machine,
    port: k2_kernel::net::Port,
    src: k2_kernel::net::Port,
    payload: Vec<u8>,
    rtt: SimDuration,
) {
    net_expect_reply_traced(w, m, port, src, payload, k2_sim::span::TraceCtx::NONE, rtt);
}

/// [`net_expect_reply`] carrying the trace context the datagram brought
/// across the fabric, so the NET interrupt's delivery opens an rx span
/// that closes the cross-machine flow.
pub fn net_expect_reply_traced(
    w: &mut K2System,
    m: &mut K2Machine,
    port: k2_kernel::net::Port,
    src: k2_kernel::net::Port,
    payload: Vec<u8>,
    trace: k2_sim::span::TraceCtx,
    rtt: SimDuration,
) {
    w.net_pending.push_back(NetDelivery {
        port,
        src,
        payload,
        trace,
    });
    m.raise_irq_after(IrqId::NET, rtt);
}

/// Registers the calling task to be woken by the next NET delivery (the
/// caller must return `Step::Block` unless data is already queued).
pub fn net_await(w: &mut K2System, task: TaskId) {
    w.net_waiters.push(task);
}

/// Datagrams the simulated network device is still holding for delivery
/// (NET interrupts raised but not yet serviced) — the machine's inbound
/// network backlog, sampled by the fleet timeline at epoch boundaries.
pub fn net_backlog(w: &K2System) -> usize {
    w.net_pending.len()
}

/// Drains this machine's outbound (cross-machine) datagrams into `buf`,
/// appending in send order — the device end of the NIC transmit ring the
/// fleet fabric polls at every epoch boundary. `buf` is caller scratch;
/// steady-state draining allocates nothing.
pub fn net_drain_egress(w: &mut K2System, buf: &mut Vec<k2_kernel::net::EgressDatagram>) {
    w.world.services.net.drain_egress_into(buf);
}

/// Arms the sensor: enables the device with `watermark` samples per
/// interrupt arriving every `period`. Returns the duration to charge.
///
/// # Panics
///
/// Panics if the sensor is already enabled.
pub fn sensor_arm(
    w: &mut K2System,
    m: &mut K2Machine,
    core: CoreId,
    watermark: usize,
    period: SimDuration,
) -> SimDuration {
    w.sensor_period = Some(period);
    w.sensor_watermark = watermark;
    let (res, dur) = shadowed(w, m, core, ServiceId::DmaDriver, |s, cx| {
        s.sensor.enable(watermark, cx)
    });
    res.expect("sensor enable");
    m.raise_irq_after(IrqId::SENSOR, period);
    dur
}

/// Disarms the sensor. Returns the duration to charge.
pub fn sensor_disarm(w: &mut K2System, m: &mut K2Machine, core: CoreId) -> SimDuration {
    w.sensor_period = None;
    let ((), dur) = shadowed(w, m, core, ServiceId::DmaDriver, |s, cx| {
        s.sensor.disable(cx)
    });
    dur
}

/// Takes the next drained sample batch, or registers the calling task to
/// be woken when one arrives (the caller must return `Step::Block`).
pub fn sensor_take_batch(
    w: &mut K2System,
    task: TaskId,
) -> Option<Vec<k2_kernel::drivers::sensor::Sample>> {
    match w.sensor_inbox.pop_front() {
        Some(b) => Some(b),
        None => {
            w.sensor_waiters.push(task);
            None
        }
    }
}

/// `true` if a started DMA transfer's completion has not yet been
/// processed by the DMA interrupt handler.
pub fn dma_is_pending(w: &K2System, xfer: DmaXferId) -> bool {
    w.dma_xfers.contains_key(&xfer.0)
}

/// `true` if `pid`'s NightWatch threads may run (§8's gate).
pub fn nw_can_run(w: &K2System, pid: Pid) -> bool {
    w.nightwatch.can_run(pid)
}

/// Parks the calling NightWatch task until `ResumeNW`; the task must
/// return [`k2_soc::platform::Step::Block`] right after.
pub fn nw_park(w: &mut K2System, pid: Pid, task: TaskId) {
    w.nw_parked.entry(pid.0).or_default().push(task);
}

/// The main kernel is about to schedule-in a normal thread of `pid`:
/// performs the SuspendNW protocol overlapped with the context switch
/// (§8). Returns the duration to charge (context switch + 1–2 µs).
pub fn schedule_in_normal(
    w: &mut K2System,
    m: &mut K2Machine,
    core: CoreId,
    pid: Pid,
    tid: Tid,
) -> SimDuration {
    let desc = m.core_desc(core).clone();
    let ctx = {
        let dom = kernel_domain(w, desc.domain);
        w.world.kernel(dom).context_switch().time_on(&desc)
    };
    w.world.processes.thread_mut(tid).state = ThreadState::Running;
    if w.config.mode == SystemMode::LinuxBaseline {
        return ctx;
    }
    let has_nw = !w
        .world
        .processes
        .threads_of_kind(pid, k2_kernel::proc::ThreadKind::NightWatch)
        .is_empty();
    if !has_nw {
        return ctx;
    }
    // Send SuspendNW; the shadow's mailbox ISR sets the gate and acks.
    let msg = crate::nightwatch::NwMsg::SuspendNw(pid);
    send_protocol_mail(
        w,
        m,
        DomainId::STRONG,
        DomainId::WEAK,
        CHAN_NW,
        msg.encode(),
    );
    w.nightwatch.note_suspend_sent(pid);
    // Overlap: proceed with the context switch, wait for the ack after.
    let shadow_core = K2System::kernel_core(m, DomainId::WEAK);
    // The shadow kernel acks from interrupt context, before any other
    // pending interrupt (§8): its turnaround is bare interrupt entry.
    let shadow_turnaround = m
        .core_desc(shadow_core)
        .cycles(k2_soc::calib::IRQ_ENTRY_INSTRUCTIONS);
    let extra = NightWatch::suspend_overlap_overhead(ctx, shadow_turnaround);
    w.nightwatch.switch_overhead_us.record(extra.as_us_f64());
    m.metrics_mut()
        .observe_duration(Key::new("nw.switch_overhead_ns", Tag::Whole), extra);
    ctx + extra
}

/// All normal threads of `pid` blocked: mark the thread and send
/// `ResumeNW` so the NightWatch threads become schedulable again.
pub fn normal_blocked(
    w: &mut K2System,
    m: &mut K2Machine,
    _core: CoreId,
    pid: Pid,
    tid: Tid,
) -> SimDuration {
    w.world.processes.thread_mut(tid).state = ThreadState::Blocked;
    if w.config.mode == SystemMode::LinuxBaseline {
        return SimDuration::ZERO;
    }
    if w.world.processes.all_normal_threads_suspended(pid) {
        let msg = crate::nightwatch::NwMsg::ResumeNw(pid);
        send_protocol_mail(
            w,
            m,
            DomainId::STRONG,
            DomainId::WEAK,
            CHAN_NW,
            msg.encode(),
        );
    }
    Cost::instr(150).time_on(m.core_desc(K2System::kernel_core(m, DomainId::STRONG)))
}

/// Maps a caller's domain to the domain whose kernel serves it: under the
/// baseline everything is the strong kernel.
fn kernel_domain(w: &K2System, dom: DomainId) -> DomainId {
    match w.config.mode {
        SystemMode::K2 => dom,
        SystemMode::LinuxBaseline => DomainId::STRONG,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k2_boot_two_kernels_with_memory() {
        let (_m, sys) = K2System::boot(SystemConfig::k2());
        assert_eq!(sys.world.kernels.len(), 2);
        let main_pages = sys.world.kernels[0].buddy.managed_page_count();
        // Local 8192 + 8 blocks of 4096.
        assert_eq!(main_pages, 8192 + 8 * 4096);
        let shadow_pages = sys.world.kernels[1].buddy.managed_page_count();
        assert_eq!(shadow_pages, 4096 + 2 * 4096);
    }

    #[test]
    #[should_panic(expected = "no SoC with 4 coherence domains")]
    fn booting_four_domains_names_the_unsupported_count() {
        K2System::boot(SystemConfig {
            domains: 4,
            ..SystemConfig::k2()
        });
    }

    #[test]
    fn linux_boot_one_kernel_owns_everything() {
        let (_m, sys) = K2System::boot(SystemConfig::linux());
        assert_eq!(sys.world.kernels.len(), 1);
        assert_eq!(
            sys.world.kernels[0].buddy.managed_page_count(),
            sys.layout.ram_pages
        );
    }

    #[test]
    fn boot_wires_shared_irqs_to_main() {
        let (m, _sys) = K2System::boot(SystemConfig::k2());
        for irq in SHARED_IRQS {
            assert_eq!(m.irq_handlers_of(irq), vec![DomainId::STRONG]);
        }
        // Exactly-one-handler invariant at boot.
        assert!(m.irq_is_unmasked(DomainId::STRONG, IrqId::DMA));
        assert!(!m.irq_is_unmasked(DomainId::WEAK, IrqId::DMA));
    }

    #[test]
    fn shadowed_op_on_weak_faults_then_settles() {
        let (mut m, mut sys) = K2System::boot(SystemConfig::k2());
        let weak_core = K2System::kernel_core(&m, DomainId::WEAK);
        let (_r, d1) = shadowed(&mut sys, &mut m, weak_core, ServiceId::Net, |s, cx| {
            s.net.bind(None, cx).unwrap()
        });
        assert!(sys.dsm.total_faults() > 0, "boot state owned by main");
        let faults_after_first = sys.dsm.total_faults();
        let (_r, d2) = shadowed(&mut sys, &mut m, weak_core, ServiceId::Net, |s, cx| {
            s.net.bind(None, cx).unwrap()
        });
        assert_eq!(
            sys.dsm.total_faults(),
            faults_after_first,
            "now owned locally"
        );
        assert!(d1 > d2, "first access pays coherence: {d1:?} vs {d2:?}");
    }

    #[test]
    fn shadowed_op_under_baseline_is_plain_cost() {
        let (mut m, mut sys) = K2System::boot(SystemConfig::linux());
        let core = K2System::kernel_core(&m, DomainId::STRONG);
        let (_r, _d) = shadowed(&mut sys, &mut m, core, ServiceId::Net, |s, cx| {
            s.net.bind(None, cx).unwrap()
        });
        assert_eq!(sys.dsm.total_faults(), 0);
        assert_eq!(sys.stats.hwlock_ops, 0);
    }

    #[test]
    fn alloc_is_always_local_and_free_redirects() {
        let (mut m, mut sys) = K2System::boot(SystemConfig::k2());
        let weak_core = K2System::kernel_core(&m, DomainId::WEAK);
        let strong_core = K2System::kernel_core(&m, DomainId::STRONG);
        let (pfn, _) = alloc_pages(&mut sys, &mut m, weak_core, 0, false);
        let pfn = pfn.unwrap();
        assert_eq!(sys.owner_of_pfn(pfn), DomainId::WEAK);
        // Free from the strong domain: redirected.
        let d = free_pages(&mut sys, &mut m, strong_core, pfn);
        assert_eq!(sys.stats.redirected_frees, 1);
        // The redirect itself is cheap for the caller.
        assert!(d.as_us_f64() < 2.0, "redirect cost {d:?}");
    }

    #[test]
    fn table4_alloc_latencies_have_the_right_shape() {
        let (mut m, mut sys) = K2System::boot(SystemConfig::k2());
        let weak = K2System::kernel_core(&m, DomainId::WEAK);
        let strong = K2System::kernel_core(&m, DomainId::STRONG);
        let (_, main_4k) = alloc_pages(&mut sys, &mut m, strong, 0, false);
        let (_, main_1m) = alloc_pages(&mut sys, &mut m, strong, 8, false);
        let (_, shadow_4k) = alloc_pages(&mut sys, &mut m, weak, 0, false);
        let (_, shadow_1m) = alloc_pages(&mut sys, &mut m, weak, 8, false);
        // Table 4: 1 / 13 (main), 12 / 146 (shadow) microseconds.
        assert!((0.5..3.0).contains(&main_4k.as_us_f64()), "{main_4k:?}");
        assert!((8.0..26.0).contains(&main_1m.as_us_f64()), "{main_1m:?}");
        assert!(
            (6.0..25.0).contains(&shadow_4k.as_us_f64()),
            "{shadow_4k:?}"
        );
        assert!(
            (90.0..240.0).contains(&shadow_1m.as_us_f64()),
            "{shadow_1m:?}"
        );
    }

    #[test]
    fn nightwatch_gate_round_trip_via_mailboxes() {
        let (mut m, mut sys) = K2System::boot(SystemConfig::k2());
        let pid = sys.world.processes.create_process("app");
        let n = sys
            .world
            .processes
            .create_thread(pid, k2_kernel::proc::ThreadKind::Normal, "main");
        let _w =
            sys.world
                .processes
                .create_thread(pid, k2_kernel::proc::ThreadKind::NightWatch, "bg");
        let strong = K2System::kernel_core(&m, DomainId::STRONG);
        let d = schedule_in_normal(&mut sys, &mut m, strong, pid, n);
        // Context switch (3-4 us) plus 1-2 us of protocol overhead.
        let us = d.as_us_f64();
        assert!((3.0..7.0).contains(&us), "schedule-in cost {us}");
        // Deliver the mails.
        m.run_until(m.now() + SimDuration::from_ms(1), &mut sys);
        assert!(!nw_can_run(&sys, pid), "gate closed after SuspendNW");
        normal_blocked(&mut sys, &mut m, strong, pid, n);
        m.run_until(m.now() + SimDuration::from_ms(1), &mut sys);
        assert!(nw_can_run(&sys, pid), "gate reopened after ResumeNW");
        let (s, r) = sys.nightwatch.counts();
        assert_eq!((s, r), (1, 1));
    }

    #[test]
    fn irq_handoff_follows_strong_domain_power() {
        let (mut m, mut sys) = K2System::boot(SystemConfig::k2());
        // Let everything go inactive (5 s timeout + margin).
        m.run_until(m.now() + SimDuration::from_secs(6), &mut sys);
        assert_eq!(m.domain_power_state(DomainId::STRONG), PowerState::Inactive);
        for irq in SHARED_IRQS {
            assert_eq!(
                m.irq_handlers_of(irq),
                vec![DomainId::WEAK],
                "{irq} must move to the weak domain"
            );
        }
        assert_eq!(sys.irq_coord.handler(), DomainId::WEAK);
    }

    #[test]
    fn sensor_api_round_trip() {
        let (mut m, mut sys) = K2System::boot(SystemConfig::k2());
        let weak = K2System::kernel_core(&m, DomainId::WEAK);
        let d = sensor_arm(&mut sys, &mut m, weak, 8, SimDuration::from_ms(5));
        assert!(!d.is_zero());
        assert!(sys.world.services.sensor.is_enabled());
        // Two watermark periods: two batches arrive.
        m.run_until(m.now() + SimDuration::from_ms(12), &mut sys);
        assert!(sensor_take_batch(&mut sys, k2_soc::platform::TaskId(999)).is_some());
        sensor_disarm(&mut sys, &mut m, weak);
        assert!(!sys.world.services.sensor.is_enabled());
        // The re-arm chain dies out after disarm.
        let fired_before = sys.world.services.sensor.samples_read();
        m.run_until(m.now() + SimDuration::from_ms(50), &mut sys);
        assert_eq!(sys.world.services.sensor.samples_read(), fired_before);
    }

    #[test]
    fn status_report_mentions_everything() {
        let (m, sys) = K2System::boot(SystemConfig::k2());
        let r = sys.status_report(&m);
        for needle in [
            "kernel D0",
            "kernel D1",
            "balloon pool",
            "dsm",
            "nightwatch",
        ] {
            assert!(r.contains(needle), "missing {needle} in:\n{r}");
        }
    }

    #[test]
    fn net_reply_delivery_via_interrupt() {
        let (mut m, mut sys) = K2System::boot(SystemConfig::k2());
        let strong = K2System::kernel_core(&m, DomainId::STRONG);
        let (port, _) = shadowed(&mut sys, &mut m, strong, ServiceId::Net, |s, cx| {
            s.net.bind(None, cx).unwrap()
        });
        net_expect_reply(
            &mut sys,
            &mut m,
            port,
            k2_kernel::net::Port(80),
            b"http payload".to_vec(),
            SimDuration::from_ms(10),
        );
        m.run_until(m.now() + SimDuration::from_ms(11), &mut sys);
        let (dg, _) = shadowed(&mut sys, &mut m, strong, ServiceId::Net, |s, cx| {
            s.net.recv(port, cx).unwrap()
        });
        assert_eq!(dg.unwrap().payload, b"http payload");
    }

    #[test]
    fn snapshot_fork_digest_round_trip() {
        for config in [SystemConfig::k2(), SystemConfig::linux()] {
            let (m, sys) = K2System::boot(config);
            let snap = K2System::snapshot(&m, &sys);
            assert_eq!(
                m.state_digest(),
                snap.machine.digest(),
                "snapshot digest must equal the live machine's"
            );
            let (fm, fsys) = K2System::fork(&snap);
            assert_eq!(fm.state_digest(), snap.machine.digest());
            // Freeze the fork again: bit-for-bit the same image.
            assert_eq!(
                K2System::snapshot(&fm, &fsys).digest(),
                snap.digest(),
                "fork → snapshot must round-trip"
            );
        }
    }

    #[test]
    fn fork_runs_identically_to_original() {
        let (mut m, mut sys) = K2System::boot(SystemConfig::k2());
        let snap = K2System::snapshot(&m, &sys);
        let (mut fm, mut fsys) = K2System::fork(&snap);
        // Drive both through the same activity: sensor batches + idle
        // transitions + the shared-irq handoff.
        let weak = K2System::kernel_core(&m, DomainId::WEAK);
        sensor_arm(&mut sys, &mut m, weak, 8, SimDuration::from_ms(5));
        sensor_arm(&mut fsys, &mut fm, weak, 8, SimDuration::from_ms(5));
        m.run_until(m.now() + SimDuration::from_secs(6), &mut sys);
        fm.run_until(fm.now() + SimDuration::from_secs(6), &mut fsys);
        assert_eq!(m.state_digest(), fm.state_digest());
        let report = |sys: &K2System, m: &K2Machine| {
            let mut out = String::new();
            let mut w = JsonWriter::compact(&mut out);
            sys.write_profile_report(m, &mut w);
            w.finish();
            out
        };
        assert_eq!(report(&sys, &m), report(&fsys, &fm));
    }

    #[test]
    fn forks_are_independent() {
        let (m, sys) = K2System::boot(SystemConfig::k2());
        let snap = K2System::snapshot(&m, &sys);
        let (mut f1, mut s1) = K2System::fork(&snap);
        let (f2, s2) = K2System::fork(&snap);
        let d2_before = f2.state_digest();
        // Running fork 1 must not perturb fork 2 or the frozen image.
        let weak = K2System::kernel_core(&f1, DomainId::WEAK);
        sensor_arm(&mut s1, &mut f1, weak, 8, SimDuration::from_ms(5));
        f1.run_until(f1.now() + SimDuration::from_secs(1), &mut s1);
        assert_eq!(f2.state_digest(), d2_before);
        assert_eq!(snap.machine.digest(), d2_before);
        drop(s2);
    }

    #[test]
    fn dur_to_cycles_rounds_up() {
        assert_eq!(dur_to_cycles(SimDuration::from_ns(1), 350_000_000), 1);
        assert_eq!(dur_to_cycles(SimDuration::from_us(1), 350_000_000), 350);
    }
}
