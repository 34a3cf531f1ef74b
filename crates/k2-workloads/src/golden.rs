//! Golden-trace scenarios: small, fully deterministic end-to-end runs
//! whose profile reports are checked byte-for-byte against canonical JSON
//! under `tests/golden/`.
//!
//! Each scenario boots K2, arms a seeded fault plan (so the reliability
//! paths — retransmission, dedup, DMA resubmission — appear in the trace),
//! drives one representative workload, and streams
//! [`K2System::write_profile_report`]. Determinism is the contract: the same
//! `(scenario, seed)` pair must produce the identical byte string on every
//! run, machine, and OS — the report contains only simulated time, never
//! wall-clock time.

use crate::tasks::{new_report, DmaBenchTask, TaskIdentity, UdpBenchTask};
use k2::system::{normal_blocked, schedule_in_normal, K2Machine, K2System, SystemConfig};
use k2_kernel::proc::ThreadKind;
use k2_sim::json::JsonWriter;
use k2_sim::time::SimDuration;
use k2_soc::ids::DomainId;
use k2_soc::FaultPlan;

/// The scenarios with canonical reports under `tests/golden/`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GoldenScenario {
    /// UDP loopback on the weak domain under light mail faults: exercises
    /// sockets, the reliable links, and the mailbox span chains.
    UdpLoopback,
    /// Three NightWatch suspend/resume cycles: exercises the §8 gate
    /// protocol mails and the suspend-overlap accounting.
    NightwatchCycle,
    /// DMA transfers under injected transfer failures: exercises the
    /// driver's resubmission path and the DMA latency histogram.
    DmaHeavy,
}

impl GoldenScenario {
    /// Every scenario, in golden-file order.
    pub const ALL: [GoldenScenario; 3] = [
        GoldenScenario::UdpLoopback,
        GoldenScenario::NightwatchCycle,
        GoldenScenario::DmaHeavy,
    ];

    /// The scenario's golden-file stem.
    pub fn name(self) -> &'static str {
        match self {
            GoldenScenario::UdpLoopback => "udp_loopback",
            GoldenScenario::NightwatchCycle => "nightwatch_cycle",
            GoldenScenario::DmaHeavy => "dma_heavy",
        }
    }
}

/// Idle lead-in before the workload: long enough for every core to reach
/// the inactive state and the §7 interrupt handoff to happen, so the
/// report covers wake-up costs too.
const LEAD_IN: SimDuration = SimDuration::from_secs(6);

/// Runs `scenario` under fault seed `seed` and returns the finished
/// machine and system, audited clean. [`golden_report`] renders this;
/// tests also probe it directly (e.g. the attribution-coverage criterion).
pub fn golden_run(scenario: GoldenScenario, seed: u64) -> (K2Machine, K2System) {
    let (mut m, mut sys) = K2System::boot(SystemConfig::k2());
    m.enable_audit(64);
    m.set_fault_plan(fault_plan(scenario, seed));
    m.run_until(m.now() + LEAD_IN, &mut sys);
    match scenario {
        GoldenScenario::UdpLoopback => {
            run_bench_task(&mut m, &mut sys, scenario);
        }
        GoldenScenario::NightwatchCycle => {
            run_nightwatch_cycles(&mut m, &mut sys, 3);
        }
        GoldenScenario::DmaHeavy => {
            run_bench_task(&mut m, &mut sys, scenario);
        }
    }
    // Drain: let retransmission timers and power transitions settle so the
    // report captures the whole story, including the return to inactive.
    m.run_until(m.now() + LEAD_IN, &mut sys);
    assert!(
        m.auditor().is_clean(),
        "golden run violated invariants:\n{}",
        m.auditor().report()
    );
    (m, sys)
}

/// Runs `scenario` under fault seed `seed` and returns the pretty-rendered
/// profile report (the golden byte string).
///
/// Golden runs keep the boot-time default full span sink — the blessed
/// files pin its exact span counts — and render through the streaming
/// writer, whose byte contract with the tree renderer keeps the blessed
/// files stable.
pub fn golden_report(scenario: GoldenScenario, seed: u64) -> String {
    let (m, sys) = golden_run(scenario, seed);
    let mut out = String::new();
    let mut w = JsonWriter::pretty(&mut out);
    w.begin_object();
    w.key("scenario");
    w.str(scenario.name());
    w.key("seed");
    w.u64(seed);
    w.key("report");
    sys.write_profile_report(&m, &mut w);
    w.end_object();
    w.finish();
    out
}

fn fault_plan(scenario: GoldenScenario, seed: u64) -> FaultPlan {
    match scenario {
        GoldenScenario::UdpLoopback | GoldenScenario::NightwatchCycle => FaultPlan::builder(seed)
            .mail_drop(0.05)
            .mail_delay(0.05, SimDuration::from_us(10))
            .build(),
        GoldenScenario::DmaHeavy => FaultPlan::builder(seed)
            .dma_fail(0.08)
            .dma_partial(0.04)
            .build(),
    }
}

/// Spawns the scenario's benchmark task on the weak domain as a NightWatch
/// thread (the paper's light-task placement) and runs it to completion.
fn run_bench_task(m: &mut K2Machine, sys: &mut K2System, scenario: GoldenScenario) {
    let core = K2System::kernel_core(m, DomainId::WEAK);
    let pid = sys.world.processes.create_process("golden");
    sys.world
        .processes
        .create_thread(pid, ThreadKind::NightWatch, "bench");
    let id = TaskIdentity {
        pid,
        nightwatch: true,
    };
    let report = new_report();
    let task: Box<dyn k2_soc::platform::Task<K2System>> = match scenario {
        GoldenScenario::UdpLoopback => UdpBenchTask::new(id, 4 << 10, 16 << 10, report.clone()),
        GoldenScenario::DmaHeavy => {
            DmaBenchTask::new(id, 64 << 10, 512 << 10, None, report.clone())
        }
        GoldenScenario::NightwatchCycle => unreachable!("not a bench-task scenario"),
    };
    m.spawn(core, task, sys);
    m.run_until_idle(sys);
}

/// Drives `cycles` SuspendNW/ResumeNW round trips from the strong kernel.
fn run_nightwatch_cycles(m: &mut K2Machine, sys: &mut K2System, cycles: u32) {
    let pid = sys.world.processes.create_process("app");
    let normal = sys
        .world
        .processes
        .create_thread(pid, ThreadKind::Normal, "main");
    sys.world
        .processes
        .create_thread(pid, ThreadKind::NightWatch, "bg");
    let strong = K2System::kernel_core(m, DomainId::STRONG);
    for _ in 0..cycles {
        schedule_in_normal(sys, m, strong, pid, normal);
        m.run_until(m.now() + SimDuration::from_ms(2), sys);
        normal_blocked(sys, m, strong, pid, normal);
        m.run_until(m.now() + SimDuration::from_ms(2), sys);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_report_is_deterministic() {
        let a = golden_report(GoldenScenario::NightwatchCycle, 7);
        let b = golden_report(GoldenScenario::NightwatchCycle, 7);
        assert_eq!(a, b, "same seed must render byte-identical reports");
    }

    #[test]
    fn golden_report_mentions_the_scenario_and_subsystems() {
        let r = golden_report(GoldenScenario::UdpLoopback, 7);
        for needle in [
            "\"scenario\": \"udp_loopback\"",
            "\"seed\": 7",
            "active_breakdown_ns",
            "\"system\"",
            "nightwatch",
        ] {
            assert!(r.contains(needle), "missing {needle} in report");
        }
    }
}
