//! Benchmark runners.
//!
//! Reproduce the measurement methodology of §9.2: for energy benchmarks,
//! "in each run of a benchmark, cores are woken up, execute the workloads
//! as fast as possible, and then stay idle until becoming inactive" — the
//! measured window spans wake-up to the inactive transition, sampling each
//! domain's power rail. For the shared-driver experiment (§9.4), both
//! kernels run the DMA benchmark concurrently for a fixed duration.

use crate::record::{EnergyRun, EnergySnapshot, SharedDriverRun};
use crate::tasks::{
    new_report, DmaBenchTask, Ext2BenchTask, ReportHandle, TaskIdentity, UdpBenchTask,
};
use k2::system::{K2Machine, K2System, SystemConfig, SystemMode, SystemSnapshot};
use k2_kernel::proc::{Pid, ThreadKind, Tid};
use k2_sim::sink::SinkMode;
use k2_sim::time::{SimDuration, SimTime};
use k2_soc::fault::{FaultPlan, FaultPlanBuilder};
use k2_soc::ids::{CoreId, DomainId};

/// Which §9.2 benchmark to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Memory-to-memory DMA transfers: `batch` bytes per transfer,
    /// `total` bytes overall (Figure 6a).
    Dma {
        /// Bytes per transfer.
        batch: u64,
        /// Total bytes.
        total: u64,
    },
    /// Sequential create/write/close of `files` files of `file_size` bytes
    /// on the ext2 ramdisk (Figure 6b; the paper uses eight files).
    Ext2 {
        /// Bytes per file.
        file_size: u64,
        /// Number of files.
        files: u32,
    },
    /// UDP loopback: `total` bytes in 1 KB datagrams, sockets recreated
    /// every `batch` bytes (Figure 6c).
    Udp {
        /// Bytes between socket teardowns.
        batch: u64,
        /// Total bytes.
        total: u64,
    },
    /// Cloud fetches over a real round-trip link: `fetches` replies of
    /// `reply` bytes each, RTT `rtt_ms` — the §2.1 light task whose idle
    /// gaps loopback cannot capture.
    Cloud {
        /// Number of request/reply rounds.
        fetches: u32,
        /// Reply payload per round.
        reply: u64,
        /// Link round-trip time in milliseconds.
        rtt_ms: u64,
    },
}

impl Workload {
    /// Total payload bytes the workload processes.
    pub fn bytes(&self) -> u64 {
        match *self {
            Workload::Dma { total, .. } => total,
            Workload::Ext2 { file_size, files } => file_size * files as u64,
            Workload::Udp { total, .. } => total,
            Workload::Cloud { fetches, reply, .. } => fetches as u64 * reply,
        }
    }

    /// A short label for tables.
    pub fn label(&self) -> String {
        fn size(n: u64) -> String {
            if n >= 1 << 20 {
                format!("{}M", n >> 20)
            } else {
                format!("{}K", n >> 10)
            }
        }
        match *self {
            Workload::Dma { batch, total } => format!("({}, {})", size(batch), size(total)),
            Workload::Ext2 { file_size, .. } => size(file_size),
            Workload::Udp { batch, total } => format!("({}, {})", size(batch), size(total)),
            Workload::Cloud {
                fetches,
                reply,
                rtt_ms,
            } => {
                format!("{fetches}x{} @{rtt_ms}ms", size(reply))
            }
        }
    }
}

/// How long cores must sit idle before the benchmark starts (lets the
/// platform settle into the inactive state, as each paper run begins with a
/// wake-up).
const SETTLE: SimDuration = SimDuration::from_secs(6);

/// Runs one energy benchmark under `mode` and returns the Figure 6 sample.
///
/// # Panics
///
/// Panics if the workload deadlocks (a simulation bug, surfaced loudly).
pub fn run_energy_bench(mode: SystemMode, workload: Workload) -> EnergyRun {
    run_energy_bench_with(mode, workload, false)
}

/// Like [`run_energy_bench`], optionally putting the filesystem on a
/// flash-like device (the §2.1 IO-bound ablation — the paper notes that
/// its ramdisk choice *favours Linux*).
pub fn run_energy_bench_with(mode: SystemMode, workload: Workload, fs_on_flash: bool) -> EnergyRun {
    let config = base_config(mode, fs_on_flash, 350);
    run_energy_bench_config(config, workload)
}

/// Like [`run_energy_bench`], with the strong domain at an arbitrary DVFS
/// operating point (the Figure 1 / §2.2 sweep).
pub fn run_energy_bench_at(mode: SystemMode, workload: Workload, a9_mhz: u64) -> EnergyRun {
    let config = base_config(mode, false, a9_mhz);
    run_energy_bench_config(config, workload)
}

fn base_config(mode: SystemMode, fs_on_flash: bool, a9_mhz: u64) -> SystemConfig {
    let base = match mode {
        SystemMode::K2 => SystemConfig::k2(),
        SystemMode::LinuxBaseline => SystemConfig::linux(),
    };
    SystemConfig {
        fs_on_flash,
        a9_freq_mhz: a9_mhz,
        ..base
    }
}

/// Runs one energy benchmark under an explicit configuration.
pub fn run_energy_bench_config(config: SystemConfig, workload: Workload) -> EnergyRun {
    let mode = config.mode;
    let (mut m, mut sys) = K2System::boot(config);
    // Settle: all cores inactive, interrupts handed off per §7.
    m.run_until(m.now() + SETTLE, &mut sys);
    let (core, kind) = match mode {
        SystemMode::K2 => (
            K2System::kernel_core(&m, DomainId::WEAK),
            ThreadKind::NightWatch,
        ),
        SystemMode::LinuxBaseline => (
            K2System::kernel_core(&m, DomainId::STRONG),
            ThreadKind::Normal,
        ),
    };
    let pid = sys.world.processes.create_process("light-task");
    sys.world.processes.create_thread(pid, kind, "bench");
    let id = TaskIdentity {
        pid,
        nightwatch: kind == ThreadKind::NightWatch,
    };
    let report = new_report();
    let before = EnergySnapshot::take(&m);
    let start = m.now();
    let task = bench_task(id, workload, start.as_ns() as u32, report.clone());
    m.spawn(core, task, &mut sys);
    let work_done = m.run_until_idle(&mut sys);
    // Idle until the benched core goes inactive (the 5 s timeout), plus a
    // margin for the transition itself.
    let timeout = m.core_desc(core).power.inactive_timeout;
    let end = work_done + timeout + SimDuration::from_ms(2);
    m.run_until(end, &mut sys);
    let after = EnergySnapshot::take(&m);
    let r = report.lock().expect("report lock poisoned");
    assert_eq!(r.bytes, workload.bytes(), "workload completed fully");
    // Rails: the domains the OS actually uses (§9.2 measures per-domain
    // rails; under the baseline the weak domain would be powered off).
    let energy_mj = match mode {
        SystemMode::K2 => after.consumed_since(&before),
        SystemMode::LinuxBaseline => after.strong_mj - before.strong_mj,
    };
    EnergyRun {
        bytes: r.bytes,
        active_time: r.finished_at.expect("finished") - start,
        window: end - start,
        energy_mj,
    }
}

/// One bar pair of Figure 6: K2 vs Linux efficiency and their ratio.
#[derive(Clone, Copy, Debug)]
pub struct EnergyComparison {
    /// The K2 run.
    pub k2: EnergyRun,
    /// The Linux-baseline run.
    pub linux: EnergyRun,
}

impl EnergyComparison {
    /// K2's efficiency advantage (the paper's headline 8x–10x).
    pub fn improvement(&self) -> f64 {
        self.k2.efficiency_mb_per_j() / self.linux.efficiency_mb_per_j()
    }

    /// Weak-core peak performance relative to the strong core at 350 MHz
    /// (the paper's 20%–70% band).
    pub fn relative_performance(&self) -> f64 {
        self.k2.peak_performance_mbps() / self.linux.peak_performance_mbps()
    }
}

/// Runs a workload under both systems.
pub fn compare_energy(workload: Workload) -> EnergyComparison {
    EnergyComparison {
        k2: run_energy_bench(SystemMode::K2, workload),
        linux: run_energy_bench(SystemMode::LinuxBaseline, workload),
    }
}

/// The parameter sweeps of Figure 6 (the paper's bar groups).
pub fn figure6_dma_params() -> Vec<Workload> {
    [
        (4 << 10, 64 << 10),
        (4 << 10, 256 << 10),
        (64 << 10, 256 << 10),
        (64 << 10, 1 << 20),
        (256 << 10, 1 << 20),
        (1 << 20, 4 << 20),
    ]
    .into_iter()
    .map(|(batch, total)| Workload::Dma { batch, total })
    .collect()
}

/// Figure 6b: eight files of 1 KB (emails), 256 KB (pictures) and 1 MB
/// (short videos).
pub fn figure6_ext2_params() -> Vec<Workload> {
    [1 << 10, 256 << 10, 1 << 20]
        .into_iter()
        .map(|file_size| Workload::Ext2 {
            file_size,
            files: 8,
        })
        .collect()
}

/// Figure 6c: UDP loopback with content-type-representative sizes.
pub fn figure6_udp_params() -> Vec<Workload> {
    [
        (4 << 10, 16 << 10),
        (4 << 10, 64 << 10),
        (64 << 10, 256 << 10),
        (256 << 10, 1 << 20),
    ]
    .into_iter()
    .map(|(batch, total)| Workload::Udp { batch, total })
    .collect()
}

/// Runs the §9.4 shared-driver experiment: the DMA benchmark on both
/// kernels concurrently (or one kernel under the baseline) for `duration`.
pub fn run_shared_driver(mode: SystemMode, batch: u64, duration: SimDuration) -> SharedDriverRun {
    let config = match mode {
        SystemMode::K2 => SystemConfig::k2(),
        SystemMode::LinuxBaseline => SystemConfig::linux(),
    };
    let (mut m, mut sys) = K2System::boot(config);
    let deadline = m.now() + duration;
    let start = m.now();
    // Main-kernel driver load: a normal thread.
    let pid_main = sys.world.processes.create_process("io-main");
    sys.world
        .processes
        .create_thread(pid_main, ThreadKind::Normal, "dma-main");
    let main_report = new_report();
    m.spawn(
        K2System::kernel_core(&m, DomainId::STRONG),
        DmaBenchTask::new(
            TaskIdentity {
                pid: pid_main,
                nightwatch: false,
            },
            batch,
            u64::MAX,
            Some(deadline),
            main_report.clone(),
        ),
        &mut sys,
    );
    let shadow_report = new_report();
    if mode == SystemMode::K2 {
        // Shadow-kernel driver load: a NightWatch thread of a background
        // process (no normal threads, so the §8 gate stays open).
        let pid_bg = sys.world.processes.create_process("io-bg");
        sys.world
            .processes
            .create_thread(pid_bg, ThreadKind::NightWatch, "dma-shadow");
        m.spawn(
            K2System::kernel_core(&m, DomainId::WEAK),
            DmaBenchTask::new(
                TaskIdentity {
                    pid: pid_bg,
                    nightwatch: true,
                },
                batch,
                u64::MAX,
                Some(deadline),
                shadow_report.clone(),
            ),
            &mut sys,
        );
    }
    let finished = m.run_until_idle(&mut sys);
    let elapsed = (finished - start).as_secs_f64();
    let to_mbps = |bytes: u64| bytes as f64 / (1u64 << 20) as f64 / elapsed;
    let main_bytes = main_report.lock().expect("report lock poisoned").bytes;
    let shadow_bytes = shadow_report.lock().expect("report lock poisoned").bytes;
    SharedDriverRun {
        batch,
        main_mbps: to_mbps(main_bytes),
        shadow_mbps: to_mbps(shadow_bytes),
        dsm_faults: sys.dsm.total_faults(),
    }
}

/// Builds the benchmark task for `workload` — the four-arm match every
/// scenario used to repeat inline. `salt` decorrelates on-disk names
/// between runs that share a filesystem (ext2 only).
pub fn bench_task(
    id: TaskIdentity,
    workload: Workload,
    salt: u32,
    report: ReportHandle,
) -> Box<dyn k2_soc::platform::Task<K2System>> {
    match workload {
        Workload::Dma { batch, total } => DmaBenchTask::new(id, batch, total, None, report),
        Workload::Ext2 { file_size, files } => {
            Ext2BenchTask::new(id, files, file_size, salt, report)
        }
        Workload::Udp { batch, total } => UdpBenchTask::new(id, batch, total, report),
        Workload::Cloud {
            fetches,
            reply,
            rtt_ms,
        } => crate::tasks::CloudFetchTask::new(
            id,
            fetches,
            reply,
            SimDuration::from_ms(rtt_ms),
            report,
        ),
    }
}

/// One row of a table-driven task grid: which domain runs which workload
/// under which label. [`TestSystem::spawn_grid`] spawns a slice of these
/// in order; the declarative scenario DSL parses its `grid` tables into
/// this type.
#[derive(Clone, Debug, PartialEq)]
pub struct GridRow {
    /// Domain whose kernel core hosts the task.
    pub domain: DomainId,
    /// Background-process name (one NightWatch identity per row).
    pub task: String,
    /// The benchmark workload the row runs.
    pub workload: Workload,
    /// Decorrelates on-disk names between rows sharing a filesystem.
    pub salt: u32,
    /// End-state metric key the row's completion is reported under.
    pub metric: String,
}

/// A booted K2 system bundled with the scenario-setup conveniences the
/// integration tests kept re-implementing: process/thread creation, bench
/// task spawning, timed runs and the closing audit assertion.
///
/// # Examples
///
/// ```
/// use k2_workloads::harness::{TestSystem, Workload};
/// use k2_soc::ids::DomainId;
///
/// let mut t = TestSystem::builder()
///     .seed(7)
///     .faults(|f| f.mail_drop(0.2))
///     .audit(16)
///     .build();
/// let id = t.background("bg");
/// let report = t.spawn_workload(
///     DomainId::WEAK,
///     id,
///     Workload::Udp { batch: 8 << 10, total: 16 << 10 },
///     0,
/// );
/// t.run_until_idle();
/// assert_eq!(report.lock().unwrap().bytes, 16 << 10);
/// t.assert_audit_clean();
/// ```
pub struct TestSystem {
    /// The platform machine.
    pub m: K2Machine,
    /// The operating-system state.
    pub sys: K2System,
}

impl std::fmt::Debug for TestSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TestSystem").field("m", &self.m).finish()
    }
}

impl TestSystem {
    /// Starts building a test system (defaults: K2 config, seed 0, no
    /// faults, no audit, no settle).
    pub fn builder() -> TestSystemBuilder {
        TestSystemBuilder {
            config: SystemConfig::k2(),
            seed: 0,
            faults: None,
            audit_stride: None,
            trace: false,
            span_sink: None,
            settle: SimDuration::ZERO,
        }
    }

    /// Boots a fresh system with `config` and freezes it before any knob
    /// is applied — the image [`TestSystemBuilder::build_from`] forks.
    /// Boot once, explore everywhere.
    pub fn freeze_boot(config: SystemConfig) -> SystemSnapshot {
        let (m, sys) = K2System::boot(config);
        K2System::snapshot(&m, &sys)
    }

    /// The core a kernel's service loops run on in `dom`.
    pub fn kernel_core(&self, dom: DomainId) -> CoreId {
        K2System::kernel_core(&self.m, dom)
    }

    /// Creates a background process with one NightWatch thread and
    /// returns the identity bench tasks run under.
    pub fn background(&mut self, name: &str) -> TaskIdentity {
        let pid = self.sys.world.processes.create_process(name);
        self.sys
            .world
            .processes
            .create_thread(pid, ThreadKind::NightWatch, "t");
        TaskIdentity {
            pid,
            nightwatch: true,
        }
    }

    /// Creates an interactive app: a process with a normal thread (the
    /// returned `Tid`) plus a NightWatch thread, the shape every
    /// suspend/resume scenario starts from.
    pub fn app(&mut self, name: &str) -> (Pid, Tid) {
        let pid = self.sys.world.processes.create_process(name);
        let tid = self
            .sys
            .world
            .processes
            .create_thread(pid, ThreadKind::Normal, "main");
        self.sys
            .world
            .processes
            .create_thread(pid, ThreadKind::NightWatch, "bg");
        (pid, tid)
    }

    /// Spawns the benchmark task for `workload` on `dom`'s kernel core
    /// and returns its progress report.
    pub fn spawn_workload(
        &mut self,
        dom: DomainId,
        id: TaskIdentity,
        workload: Workload,
        salt: u32,
    ) -> ReportHandle {
        let report = new_report();
        let core = self.kernel_core(dom);
        self.m.spawn(
            core,
            bench_task(id, workload, salt, report.clone()),
            &mut self.sys,
        );
        report
    }

    /// Spawns a table-driven task grid: every row, in table order, gets a
    /// fresh background identity and its benchmark task on the named
    /// domain's kernel core. Returns `(metric, report)` handles in the
    /// same order, so callers can read each row's completion into a
    /// labelled end-state entry. This is the builder hook the declarative
    /// scenario DSL (`k2-check::dsl`) compiles its `grid` tables onto;
    /// hand-written tests can use it directly for the same effect.
    pub fn spawn_grid(&mut self, rows: &[GridRow]) -> Vec<(String, ReportHandle)> {
        rows.iter()
            .map(|row| {
                let id = self.background(&row.task);
                let report = self.spawn_workload(row.domain, id, row.workload, row.salt);
                (row.metric.clone(), report)
            })
            .collect()
    }

    /// Advances simulated time by `dur`, processing every event in it.
    pub fn run_for(&mut self, dur: SimDuration) {
        let until = self.m.now() + dur;
        self.m.run_until(until, &mut self.sys);
    }

    /// Runs until every spawned task completes; returns the finish time.
    pub fn run_until_idle(&mut self) -> SimTime {
        self.m.run_until_idle(&mut self.sys)
    }

    /// Events the machine has processed so far — the numerator of every
    /// events/sec throughput figure the bench harness reports.
    pub fn events_processed(&self) -> u64 {
        self.m.events_processed()
    }

    /// Asserts the invariant auditor saw a consistent system, with the
    /// violation report as the failure message.
    ///
    /// # Panics
    ///
    /// Panics if any audited invariant was violated.
    pub fn assert_audit_clean(&self) {
        assert!(self.m.auditor().is_clean(), "{}", self.m.auditor().report());
    }
}

/// Configures and boots a [`TestSystem`].
#[derive(Debug)]
pub struct TestSystemBuilder {
    config: SystemConfig,
    seed: u64,
    faults: Option<FaultPlan>,
    audit_stride: Option<u64>,
    trace: bool,
    span_sink: Option<SinkMode>,
    settle: SimDuration,
}

impl TestSystemBuilder {
    /// Uses an explicit system configuration instead of [`SystemConfig::k2`].
    pub fn config(mut self, config: SystemConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the seed the fault plan derives from (see
    /// [`TestSystemBuilder::faults`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Arms deterministic fault injection: `f` receives a
    /// [`FaultPlanBuilder`] seeded with this builder's seed and dials in
    /// the fault rates.
    pub fn faults(mut self, f: impl FnOnce(FaultPlanBuilder) -> FaultPlanBuilder) -> Self {
        self.faults = Some(f(FaultPlan::builder(self.seed)).build());
        self
    }

    /// Arms a pre-built fault plan (its own seed wins over
    /// [`TestSystemBuilder::seed`]).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Enables the invariant auditor every `stride` events.
    pub fn audit(mut self, stride: u64) -> Self {
        self.audit_stride = Some(stride);
        self
    }

    /// Enables the in-memory event trace.
    pub fn trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Selects the span-sink backend (default: the boot-time full sink).
    /// Applied immediately after boot, so boot-time spans are discarded —
    /// fine for throughput runs and exploration, wrong for golden reports,
    /// which pin boot spans in their blessed bytes.
    pub fn span_sink(mut self, mode: SinkMode) -> Self {
        self.span_sink = Some(mode);
        self
    }

    /// Runs the booted system idle for `dur` before handing it over
    /// (lets cores reach the inactive state, as each paper run begins
    /// with a wake-up).
    pub fn settle(mut self, dur: SimDuration) -> Self {
        self.settle = dur;
        self
    }

    /// Boots the system and applies every configured knob, in the same
    /// order the tests it replaces used: plan, trace, audit, settle.
    pub fn build(self) -> TestSystem {
        let (m, sys) = K2System::boot(self.config);
        self.apply_knobs(m, sys)
    }

    /// Forks a pre-booted frozen image instead of booting, then applies
    /// this builder's knobs in exactly the order [`TestSystemBuilder::build`]
    /// does. Because the image is frozen post-boot and pre-knob, one
    /// snapshot serves every knob combination; the resulting system is
    /// byte-indistinguishable from a freshly booted one.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was frozen under a different [`SystemConfig`]
    /// than this builder's — the fork would silently model a different SoC.
    pub fn build_from(self, snap: &SystemSnapshot) -> TestSystem {
        // Compare by value; format the two configs only for the message.
        if snap.sys.config != self.config {
            assert_eq!(
                format!("{:?}", snap.sys.config),
                format!("{:?}", self.config),
                "snapshot was frozen under a different config"
            );
        }
        let (m, sys) = K2System::fork(snap);
        self.apply_knobs(m, sys)
    }

    fn apply_knobs(self, mut m: K2Machine, mut sys: K2System) -> TestSystem {
        if let Some(mode) = self.span_sink {
            m.set_span_sink(mode);
        }
        if let Some(plan) = self.faults {
            m.set_fault_plan(plan);
        }
        if self.trace {
            m.set_trace(true);
        }
        if let Some(stride) = self.audit_stride {
            m.enable_audit(stride);
        }
        if !self.settle.is_zero() {
            let until = m.now() + self.settle;
            m.run_until(until, &mut sys);
        }
        TestSystem { m, sys }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "snapshot was frozen under a different config")]
    fn forking_an_image_frozen_under_another_config_panics() {
        let image = TestSystem::freeze_boot(SystemConfig::linux());
        TestSystem::builder().build_from(&image);
    }

    #[test]
    fn workload_bytes_and_labels() {
        let w = Workload::Dma {
            batch: 4 << 10,
            total: 256 << 10,
        };
        assert_eq!(w.bytes(), 256 << 10);
        assert_eq!(w.label(), "(4K, 256K)");
        let e = Workload::Ext2 {
            file_size: 1 << 20,
            files: 8,
        };
        assert_eq!(e.bytes(), 8 << 20);
        assert_eq!(e.label(), "1M");
    }

    #[test]
    fn dma_energy_bench_runs_and_k2_wins() {
        let w = Workload::Dma {
            batch: 4 << 10,
            total: 64 << 10,
        };
        let cmp = compare_energy(w);
        assert_eq!(cmp.k2.bytes, 64 << 10);
        assert!(
            cmp.improvement() > 3.0,
            "K2 should win clearly: {:.2}x",
            cmp.improvement()
        );
        // The weak core is slower but within an order of magnitude.
        let rel = cmp.relative_performance();
        assert!((0.05..=1.2).contains(&rel), "relative perf {rel:.2}");
    }

    #[test]
    fn ext2_energy_bench_round_trips() {
        let w = Workload::Ext2 {
            file_size: 64 << 10,
            files: 2,
        };
        let run = run_energy_bench(SystemMode::K2, w);
        assert_eq!(run.bytes, 128 << 10);
        assert!(run.energy_mj > 0.0);
        assert!(run.window > run.active_time);
    }

    #[test]
    fn udp_energy_bench_round_trips() {
        let w = Workload::Udp {
            batch: 4 << 10,
            total: 16 << 10,
        };
        let run = run_energy_bench(SystemMode::LinuxBaseline, w);
        assert_eq!(run.bytes, 16 << 10);
        assert!(run.efficiency_mb_per_j() > 0.0);
    }

    #[test]
    fn shared_driver_both_kernels_make_progress() {
        let r = run_shared_driver(SystemMode::K2, 128 << 10, SimDuration::from_ms(300));
        assert!(r.main_mbps > 0.0, "main starved: {r:?}");
        assert!(r.shadow_mbps > 0.0, "shadow starved: {r:?}");
        assert!(r.dsm_faults > 0, "no sharing observed");
    }

    #[test]
    fn shared_driver_overhead_is_small_at_4k() {
        let linux = run_shared_driver(
            SystemMode::LinuxBaseline,
            4 << 10,
            SimDuration::from_ms(400),
        );
        let k2 = run_shared_driver(SystemMode::K2, 4 << 10, SimDuration::from_ms(400));
        // Table 6 at 4K: K2 within ~10% of Linux (paper: -5.5%).
        let delta = (k2.total_mbps() - linux.total_mbps()) / linux.total_mbps();
        assert!(
            delta.abs() < 0.25,
            "K2 {:.1} vs Linux {:.1} MB/s (delta {:.1}%)",
            k2.total_mbps(),
            linux.total_mbps(),
            delta * 100.0
        );
    }
}
