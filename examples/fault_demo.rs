//! Demonstrates deterministic hardware fault injection (DESIGN.md §5.1):
//! arms a seeded `FaultPlan`, runs a UDP workload plus NightWatch round
//! trips under the invariant auditor, and prints the fault mix, the
//! reliable-link counters and the auditor's verdict.
//!
//! Run twice with the same seed to see byte-identical output:
//! `cargo run --release --example fault_demo -- 2014`

use k2::system::{normal_blocked, schedule_in_normal, K2System, SystemConfig};
use k2_kernel::proc::ThreadKind;
use k2_sim::time::SimDuration;
use k2_soc::ids::DomainId;
use k2_soc::FaultPlan;
use k2_workloads::tasks::{new_report, TaskIdentity, UdpBenchTask};

fn main() {
    let seed: u64 = match std::env::args().nth(1) {
        Some(s) => s
            .parse()
            .unwrap_or_else(|_| panic!("seed must be a number, got {s:?}")),
        None => 2014,
    };
    let (mut m, mut sys) = K2System::boot(SystemConfig::k2());
    m.set_fault_plan(
        FaultPlan::builder(seed)
            .mail_drop(0.25)
            .mail_duplicate(0.1)
            .mail_delay(0.1, SimDuration::from_us(40))
            .lock_stuck(0.05, SimDuration::from_us(20))
            .dma_fail(0.3)
            .dma_partial(0.1)
            .core_stall(0.02, SimDuration::from_us(100), Some(DomainId::WEAK))
            .spurious_wake(0.01, None)
            .build(),
    );
    m.enable_audit(8);

    let weak = K2System::kernel_core(&m, DomainId::WEAK);
    let strong = K2System::kernel_core(&m, DomainId::STRONG);
    let pid = sys.world.processes.create_process("demo");
    let n = sys
        .world
        .processes
        .create_thread(pid, ThreadKind::Normal, "main");
    sys.world
        .processes
        .create_thread(pid, ThreadKind::NightWatch, "bg");
    let report = new_report();
    let total = 64u64 << 10;
    let task: Box<dyn k2_soc::platform::Task<K2System>> = UdpBenchTask::new(
        TaskIdentity {
            pid,
            nightwatch: true,
        },
        8 << 10,
        total,
        report.clone(),
    );
    m.spawn(weak, task, &mut sys);
    for _ in 0..4 {
        schedule_in_normal(&mut sys, &mut m, strong, pid, n);
        m.run_until(m.now() + SimDuration::from_ms(10), &mut sys);
        normal_blocked(&mut sys, &mut m, strong, pid, n);
        m.run_until(m.now() + SimDuration::from_ms(10), &mut sys);
    }
    m.run_until_idle(&mut sys);

    println!("seed {seed}: {} KB processed in {:?}", total >> 10, m.now());
    let r = report.lock().unwrap();
    println!(
        "workload complete: {}",
        r.bytes == total && r.finished_at.is_some()
    );
    println!("\ninjected fault mix:");
    print!("{}", m.fault_stats().expect("plan armed").mix_report());
    println!("\nreliable links: {:?}", sys.link_stats());
    println!(
        "recovery: {} hwlock aborts, {} DMA resubmissions, {} DMA give-ups",
        sys.stats.hwlock_aborts, sys.stats.dma_retries, sys.stats.dma_gave_up
    );
    println!(
        "\nauditor: {} checks, {} violations -> {}",
        m.auditor().checks_run(),
        m.auditor().violations_total(),
        if m.auditor().is_clean() {
            "clean"
        } else {
            "VIOLATED"
        }
    );
}
