//! Integration: the simulation is deterministic (DESIGN.md §5.5).
//!
//! Every run with the same configuration must produce bit-identical
//! results — times, energies, fault counts. This is what makes the
//! regenerated tables trustworthy and the benchmarks comparable.

use k2::system::SystemMode;
use k2_sim::time::SimDuration;
use k2_workloads::harness::{run_energy_bench, run_shared_driver, Workload};

#[test]
fn energy_runs_are_bit_identical() {
    let w = Workload::Udp {
        batch: 8 << 10,
        total: 32 << 10,
    };
    let a = run_energy_bench(SystemMode::K2, w);
    let b = run_energy_bench(SystemMode::K2, w);
    assert_eq!(a.bytes, b.bytes);
    assert_eq!(a.active_time, b.active_time);
    assert_eq!(a.window, b.window);
    assert_eq!(a.energy_mj.to_bits(), b.energy_mj.to_bits());
}

#[test]
fn shared_driver_runs_are_bit_identical() {
    let a = run_shared_driver(SystemMode::K2, 128 << 10, SimDuration::from_ms(250));
    let b = run_shared_driver(SystemMode::K2, 128 << 10, SimDuration::from_ms(250));
    assert_eq!(a.dsm_faults, b.dsm_faults);
    assert_eq!(a.main_mbps.to_bits(), b.main_mbps.to_bits());
    assert_eq!(a.shadow_mbps.to_bits(), b.shadow_mbps.to_bits());
}

#[test]
fn table_regeneration_is_stable() {
    // The micro harnesses drive full system boots; rendering them twice
    // must yield identical text.
    let a = format!("{:?}", k2_workloads::micro::table4_alloc_latencies());
    let b = format!("{:?}", k2_workloads::micro::table4_alloc_latencies());
    assert_eq!(a, b);
    let a = format!("{:?}", k2_workloads::micro::table5_dsm_breakdown());
    let b = format!("{:?}", k2_workloads::micro::table5_dsm_breakdown());
    assert_eq!(a, b);
}

#[test]
fn sim_rng_streams_are_reproducible() {
    let mut a = k2_sim::SimRng::seed_from_u64(2014);
    let mut b = k2_sim::SimRng::seed_from_u64(2014);
    let va: Vec<u64> = (0..10_000).map(|_| a.next_u64()).collect();
    let vb: Vec<u64> = (0..10_000).map(|_| b.next_u64()).collect();
    assert_eq!(va, vb);
}

/// One full faulted run: boots K2, arms a comprehensive [`FaultPlan`]
/// exercising every fault class, traces every event, and drives both a
/// bench workload on the weak core and a NightWatch suspend/resume round
/// trip over the reliable mailbox links. Returns the complete trace plus
/// a numeric fingerprint of everything an experiment would report.
fn faulted_run() -> (String, Fingerprint) {
    use k2::system::{normal_blocked, schedule_in_normal};
    use k2_soc::ids::DomainId;
    use k2_workloads::harness::TestSystem;

    let mut t = TestSystem::builder()
        .seed(2014)
        .faults(|f| {
            f.mail_drop(0.2)
                .mail_duplicate(0.1)
                .mail_delay(0.1, SimDuration::from_us(40))
                .lock_stuck(0.05, SimDuration::from_us(20))
                .dma_fail(0.3)
                .dma_partial(0.1)
                .core_stall(0.02, SimDuration::from_us(100), Some(DomainId::WEAK))
                .spurious_wake(0.01, None)
        })
        .trace()
        .audit(8)
        .build();

    let strong = t.kernel_core(DomainId::STRONG);
    let (pid, n) = t.app("app");
    let report = t.spawn_workload(
        DomainId::WEAK,
        k2_workloads::tasks::TaskIdentity {
            pid,
            nightwatch: true,
        },
        Workload::Udp {
            batch: 8 << 10,
            total: 32 << 10,
        },
        0,
    );
    for _ in 0..3 {
        schedule_in_normal(&mut t.sys, &mut t.m, strong, pid, n);
        t.run_for(SimDuration::from_ms(10));
        normal_blocked(&mut t.sys, &mut t.m, strong, pid, n);
        t.run_for(SimDuration::from_ms(10));
    }
    t.run_until_idle();

    let stats = t.m.fault_stats().expect("plan was armed").clone();
    let fp = Fingerprint {
        now_ns: t.m.now().as_ns(),
        bytes: report.lock().unwrap().bytes,
        strong_energy_bits: t.m.domain_energy_mj(DomainId::STRONG).to_bits(),
        weak_energy_bits: t.m.domain_energy_mj(DomainId::WEAK).to_bits(),
        faults_injected: stats.total(),
        links: t.sys.link_stats(),
        audit_checks: t.m.auditor().checks_run(),
        audit_violations: t.m.auditor().violations_total(),
    };
    (t.m.trace().dump(), fp)
}

/// Everything the faulted run reports, comparable bit-for-bit.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    now_ns: u64,
    bytes: u64,
    strong_energy_bits: u64,
    weak_energy_bits: u64,
    faults_injected: u64,
    links: k2_kernel::reliable::LinkStats,
    audit_checks: u64,
    audit_violations: u64,
}

#[test]
fn faulted_runs_are_bit_identical() {
    // The fault layer draws from its own seeded RNG stream, so two runs
    // with the same seed must inject the same faults at the same points
    // and recover identically: byte-identical trace, identical energies.
    let (trace_a, fp_a) = faulted_run();
    let (trace_b, fp_b) = faulted_run();
    assert!(
        fp_a.faults_injected >= 1,
        "the plan must actually inject faults: {fp_a:?}"
    );
    // Compare the traces first: on a mismatch the first diverging line
    // says *where* determinism broke, which the fingerprint cannot.
    if trace_a != trace_b {
        for (i, (a, b)) in trace_a.lines().zip(trace_b.lines()).enumerate() {
            assert_eq!(a, b, "trace diverges at line {i}");
        }
        panic!("traces differ only in length");
    }
    assert_eq!(fp_a, fp_b);
}
