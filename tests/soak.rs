//! Soak test: minutes of randomised background activity against a live K2
//! system, with invariant checks throughout.

use k2_sim::time::SimDuration;
use k2_soc::ids::DomainId;
use k2_workloads::generator::{generate_mix, MixParams};
use k2_workloads::harness::TestSystem;

#[test]
fn randomised_mix_soak() {
    // Settle past the boot idle window (the strong domain's cores burn
    // their one-time 5 s shallow-idle there), then measure.
    let mut t = TestSystem::builder()
        .settle(SimDuration::from_secs(6))
        .build();
    let baseline = k2_workloads::record::EnergySnapshot::take(&t.m);
    let mix = generate_mix(2014, 40, MixParams::default());
    let mut reports = Vec::new();
    let mut expected_bytes = 0u64;
    for (i, arrival) in mix.iter().enumerate() {
        t.run_for(arrival.gap);
        let id = t.background(&format!("soak{i}"));
        expected_bytes += arrival.workload.bytes();
        reports.push(t.spawn_workload(DomainId::WEAK, id, arrival.workload, i as u32));
        t.run_until_idle();
        // Invariants hold after every task.
        t.sys.world.kernels[0].buddy.check_invariants();
        t.sys.world.kernels[1].buddy.check_invariants();
    }
    // Every task processed exactly its payload.
    let done: u64 = reports.iter().map(|r| r.lock().unwrap().bytes).sum();
    assert_eq!(done, expected_bytes);
    assert!(reports
        .iter()
        .all(|r| r.lock().unwrap().finished_at.is_some()));
    // The strong domain did essentially nothing: its energy over the mix
    // is a sliver of the weak domain's.
    let after = k2_workloads::record::EnergySnapshot::take(&t.m);
    let strong = after.strong_mj - baseline.strong_mj;
    let weak_e = after.weak_mj - baseline.weak_mj;
    assert!(
        strong < weak_e / 3.0,
        "strong {strong:.1} mJ vs weak {weak_e:.1} mJ"
    );
    // And the run was long enough to mean something.
    assert!(t.m.now().as_secs_f64() > 10.0);
}

#[test]
fn soak_is_deterministic_end_to_end() {
    let run = || {
        let mut t = TestSystem::builder().build();
        for (i, arrival) in generate_mix(7, 12, MixParams::default()).iter().enumerate() {
            t.run_for(arrival.gap);
            let id = t.background("t");
            t.spawn_workload(DomainId::WEAK, id, arrival.workload, i as u32);
            t.run_until_idle();
        }
        (
            t.m.now(),
            t.m.total_energy_mj().to_bits(),
            t.sys.dsm.total_faults(),
            t.m.mailbox_delivered(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn randomised_fault_soak() {
    // The same randomised mix, now with the fault layer armed: mails are
    // dropped, duplicated and delayed, locks stick, DMA transfers fail
    // short, and the weak core stalls — yet every task must still finish
    // its exact payload with the invariant auditor running throughout.
    let mut t = TestSystem::builder()
        .seed(97)
        .faults(|f| {
            f.mail_drop(0.15)
                .mail_duplicate(0.05)
                .mail_delay(0.05, SimDuration::from_us(30))
                .lock_stuck(0.02, SimDuration::from_us(10))
                .dma_fail(0.2)
                .dma_partial(0.05)
                .core_stall(0.01, SimDuration::from_us(50), Some(DomainId::WEAK))
                .spurious_wake(0.005, None)
        })
        .audit(64)
        .build();
    let mix = generate_mix(97, 24, MixParams::default());
    let mut reports = Vec::new();
    let mut expected_bytes = 0u64;
    for (i, arrival) in mix.iter().enumerate() {
        t.run_for(arrival.gap);
        let id = t.background(&format!("fsoak{i}"));
        expected_bytes += arrival.workload.bytes();
        reports.push(t.spawn_workload(DomainId::WEAK, id, arrival.workload, i as u32));
        t.run_until_idle();
        t.sys.world.kernels[0].buddy.check_invariants();
        t.sys.world.kernels[1].buddy.check_invariants();
    }
    // Every task processed exactly its payload despite the faults.
    let done: u64 = reports.iter().map(|r| r.lock().unwrap().bytes).sum();
    assert_eq!(done, expected_bytes);
    assert!(reports
        .iter()
        .all(|r| r.lock().unwrap().finished_at.is_some()));
    // The soak actually exercised the fault paths; log the mix so a
    // failing run's seed can be triaged from the test output alone.
    let stats = t.m.fault_stats().unwrap();
    println!(
        "fault mix over {} tasks:\n{}",
        mix.len(),
        stats.mix_report()
    );
    assert!(stats.total() >= 1, "the plan injected nothing");
    // Reliable links delivered every protocol message at least once.
    let links = t.sys.link_stats();
    assert_eq!(
        links.accepted, links.sent,
        "message lost despite retransmission: {links:?}"
    );
    // The auditor ran and saw a consistent system throughout.
    assert!(t.m.auditor().checks_run() >= 1);
    t.assert_audit_clean();
}
