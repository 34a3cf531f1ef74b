//! Failure injection: the system's behaviour at its documented limits,
//! and its recovery paths under deterministic hardware fault injection
//! (a seeded [`FaultPlan`] driving the interconnect, locks, DMA engine
//! and cores — see DESIGN.md's fault model).

use k2::balloon::BalloonError;
use k2::system::{
    alloc_pages, dma_is_pending, dma_start, normal_blocked, nw_can_run, schedule_in_normal,
    K2System, SystemConfig,
};
use k2_sim::time::SimDuration;
use k2_soc::hwspinlock::HwLockId;
use k2_soc::ids::DomainId;
use k2_soc::mem::PhysAddr;
use k2_soc::{FaultClass, FaultPlan};
use k2_workloads::harness::{TestSystem, Workload};

#[test]
fn allocator_oom_is_reported_not_hidden() {
    // A kernel with no balloon help eventually returns None; the system
    // never fabricates memory.
    let mut t = TestSystem::builder()
        .config(SystemConfig {
            initial_shadow_blocks: 0,
            ..SystemConfig::k2()
        })
        .build();
    let weak = t.kernel_core(DomainId::WEAK);
    let TestSystem { m, sys } = &mut t;
    let mut got = 0u64;
    loop {
        let (pfn, _) = alloc_pages(sys, m, weak, 0, false);
        if pfn.is_none() {
            break;
        }
        got += 1;
        assert!(got <= 4096, "cannot exceed the 16 MB local region");
    }
    assert_eq!(got, 4096, "every local page was allocatable first");
    assert!(sys.world.kernels[1].buddy.stats().failures >= 1);
}

#[test]
fn balloon_inflate_reports_the_pinning_page() {
    let mut t = TestSystem::builder()
        .config(SystemConfig {
            initial_shadow_blocks: 1,
            ..SystemConfig::k2()
        })
        .build();
    let weak = t.kernel_core(DomainId::WEAK);
    let TestSystem { m, sys } = &mut t;
    // Exhaust all memory with unmovable pages: the balloon's block is
    // pinned and inflation must name a culprit rather than corrupt state.
    while alloc_pages(sys, m, weak, 0, false).0.is_some() {}
    let before = sys.world.kernels[1].buddy.managed_page_count();
    let err = {
        let K2System { balloon, world, .. } = sys;
        balloon.inflate(world.kernel(DomainId::WEAK)).unwrap_err()
    };
    assert!(matches!(err, BalloonError::Unmovable(_)), "{err:?}");
    // Nothing changed.
    assert_eq!(sys.world.kernels[1].buddy.managed_page_count(), before);
    sys.world.kernels[1].buddy.check_invariants();
}

#[test]
fn fs_survives_running_completely_full() {
    use k2::system::shadowed;
    use k2_kernel::fs::ext2::FsError;
    use k2_kernel::service::ServiceId;
    let mut t = TestSystem::builder().build();
    let strong = t.kernel_core(DomainId::STRONG);
    let TestSystem { m, sys } = &mut t;
    // Fill the filesystem to ENOSPC, then verify existing data is intact
    // and deleting recovers space.
    let (ino, _) = shadowed(sys, m, strong, ServiceId::Fs, |s, cx| {
        let keep = s.fs.create("/keep", cx).unwrap();
        s.fs.write(keep, 0, b"survives enospc", cx).unwrap();
        let hog = s.fs.create("/hog", cx).unwrap();
        let chunk = vec![0u8; 1 << 20];
        let mut off = 0u64;
        loop {
            match s.fs.write(hog, off, &chunk, cx) {
                Ok(()) => off += chunk.len() as u64,
                Err(FsError::NoSpace) | Err(FsError::TooBig) => break,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        keep
    });
    let (content, _) = shadowed(sys, m, strong, ServiceId::Fs, |s, cx| {
        let mut buf = [0u8; 15];
        s.fs.read(ino, 0, &mut buf, cx).unwrap();
        // Deleting the hog recovers space for new files.
        s.fs.unlink("/hog", cx).unwrap();
        s.fs.create("/after", cx).unwrap();
        buf
    });
    assert_eq!(&content, b"survives enospc");
}

#[test]
fn dma_channel_exhaustion_is_an_error_not_a_hang() {
    use k2_kernel::drivers::dma::{DmaDriver, DmaError, CHANNELS_PER_DOMAIN};
    use k2_kernel::service::OpCx;
    use k2_soc::mem::PhysAddr;
    let mut d = DmaDriver::new();
    for _ in 0..CHANNELS_PER_DOMAIN {
        d.submit(
            DomainId::WEAK,
            PhysAddr(0),
            PhysAddr(0x1000),
            64,
            &mut OpCx::new(),
        )
        .unwrap();
    }
    assert_eq!(
        d.submit(
            DomainId::WEAK,
            PhysAddr(0),
            PhysAddr(0x1000),
            64,
            &mut OpCx::new()
        ),
        Err(DmaError::NoChannel)
    );
}

#[test]
fn dropping_caches_returns_every_page() {
    use k2::system::SystemMode;
    use k2_workloads::harness::{run_energy_bench, Workload};
    // Run an ext2 workload (populates the weak kernel's page cache), then
    // verify a fresh system's cache drains cleanly — and on a live system,
    // drop_caches frees exactly the cached count.
    let _ = run_energy_bench(
        SystemMode::K2,
        Workload::Ext2 {
            file_size: 64 << 10,
            files: 1,
        },
    );
    let mut t = TestSystem::builder().build();
    let weak = t.kernel_core(DomainId::WEAK);
    let TestSystem { m, sys } = &mut t;
    // Populate a cache by hand.
    for blk in 0..32u64 {
        let (pfn, _) = alloc_pages(sys, m, weak, 0, true);
        let k = &mut sys.world.kernels[1];
        let h = k.rmap.handle_of(pfn.unwrap()).unwrap();
        k.pagecache.insert(k2_kernel::fs::InodeNo(9), blk, h);
    }
    let free_before = sys.world.kernels[1].buddy.free_page_count();
    let k = &mut sys.world.kernels[1];
    let handles = k.pagecache.drop_all();
    assert_eq!(handles.len(), 32);
    for h in handles {
        k.free_movable(h);
    }
    assert_eq!(
        sys.world.kernels[1].buddy.free_page_count(),
        free_before + 32
    );
    sys.world.kernels[1].buddy.check_invariants();
}

// ----------------------------------------------------------------------
// Injected hardware faults: one scenario per fault class, each asserting
// the system completes its workload, the recovery path fired, and the
// invariant auditor stays clean.
// ----------------------------------------------------------------------

/// Drives `rounds` full NightWatch suspend/resume round trips and asserts
/// the gate settles correctly after each despite whatever the fault plan
/// does to the mails in between.
fn nightwatch_round_trips(rounds: u32, plan: FaultPlan) -> (TestSystem, k2_kernel::proc::Pid) {
    let mut t = TestSystem::builder().fault_plan(plan).audit(1).build();
    let (pid, n) = t.app("app");
    let strong = t.kernel_core(DomainId::STRONG);
    for round in 0..rounds {
        schedule_in_normal(&mut t.sys, &mut t.m, strong, pid, n);
        // Ample time for the worst retransmission chain (12 us doubling to
        // the 1 ms ceiling) to deliver the message.
        t.run_for(SimDuration::from_ms(10));
        assert!(
            !nw_can_run(&t.sys, pid),
            "round {round}: gate must close despite interconnect faults"
        );
        normal_blocked(&mut t.sys, &mut t.m, strong, pid, n);
        t.run_for(SimDuration::from_ms(10));
        assert!(
            nw_can_run(&t.sys, pid),
            "round {round}: gate must reopen despite interconnect faults"
        );
    }
    t.run_until_idle();
    (t, pid)
}

#[test]
fn nightwatch_survives_mailbox_message_loss() {
    let plan = FaultPlan::builder(11).mail_drop(0.4).build();
    let (t, _) = nightwatch_round_trips(10, plan);
    let links = t.sys.link_stats();
    assert!(
        links.retransmits >= 1,
        "lost mails must force retransmissions: {links:?}"
    );
    // The real delivery guarantee: every originated message reached its
    // receiver at least once. (A sender may still record a give-up when
    // every *ack* of an already-delivered message was dropped.)
    assert_eq!(
        links.accepted, links.sent,
        "every message must be delivered: {links:?}"
    );
    let stats = t.m.fault_stats().unwrap();
    assert!(
        stats.of(FaultClass::MailDrop) >= 1,
        "plan injected no drops"
    );
    t.assert_audit_clean();
}

#[test]
fn duplicated_mails_take_effect_exactly_once() {
    let plan = FaultPlan::builder(22).mail_duplicate(0.6).build();
    let rounds = 8;
    let (t, _) = nightwatch_round_trips(rounds, plan);
    let links = t.sys.link_stats();
    assert!(
        links.duplicates_dropped >= 1,
        "duplicates must be suppressed by sequence dedup: {links:?}"
    );
    // Each suspend and resume was handled exactly once per round.
    let (s, r) = t.sys.nightwatch.counts();
    assert_eq!((s, r), (rounds as u64, rounds as u64));
    let stats = t.m.fault_stats().unwrap();
    assert!(stats.of(FaultClass::MailDuplicate) >= 1);
    t.assert_audit_clean();
}

#[test]
fn stuck_hwspinlock_is_aborted_and_reacquired() {
    use k2::system::shadowed;
    use k2_kernel::service::ServiceId;
    // Lock 1 guards the filesystem service; hold it busy for 30 us.
    let mut t = TestSystem::builder()
        .seed(33)
        .faults(|f| f.stick_lock_once(HwLockId(1), SimDuration::from_us(30)))
        .audit(1)
        .build();
    let strong = t.kernel_core(DomainId::STRONG);
    let TestSystem { m, sys } = &mut t;
    let (ino, dur) = shadowed(sys, m, strong, ServiceId::Fs, |s, cx| {
        let ino = s.fs.create("/stuck", cx).unwrap();
        s.fs.write(ino, 0, b"made it", cx).unwrap();
        ino
    });
    assert!(
        sys.stats.hwlock_aborts >= 1,
        "the acquisition deadline must have expired at least once"
    );
    assert!(
        dur >= SimDuration::from_us(30),
        "the operation paid for the spin-abort-backoff cycles: {dur:?}"
    );
    // The operation still completed and the data is intact.
    let (content, _) = shadowed(sys, m, strong, ServiceId::Fs, |s, cx| {
        let mut buf = [0u8; 7];
        s.fs.read(ino, 0, &mut buf, cx).unwrap();
        buf
    });
    assert_eq!(&content, b"made it");
    t.run_until_idle();
    let stats = t.m.fault_stats().unwrap();
    assert!(stats.of(FaultClass::LockStuck) >= 1);
    t.assert_audit_clean();
}

#[test]
fn failed_dma_transfers_are_resubmitted_until_verified() {
    let mut t = TestSystem::builder()
        .seed(44)
        .faults(|f| f.dma_fail(0.4).dma_partial(0.15))
        .audit(1)
        .build();
    let weak = t.kernel_core(DomainId::WEAK);
    for i in 0..16u64 {
        let src = PhysAddr(0x10_0000 + i * 0x2000);
        let dst = PhysAddr(0x80_0000 + i * 0x2000);
        let (xfer, _) = dma_start(&mut t.sys, &mut t.m, weak, src, dst, 4096, None);
        // No live task: drive the event loop by time. The bound must cover
        // the worst resubmission chain — up to 9 attempts of setup + copy,
        // where each submission may also charge a 10 ms main-busy deferral
        // when its DSM fault lands on an Active strong core (the reliable
        // link's ack traffic keeps it awake).
        t.run_for(SimDuration::from_ms(120));
        assert!(
            !dma_is_pending(&t.sys, xfer),
            "transfer {i} never completed: the driver is wedged"
        );
    }
    assert!(
        t.sys.stats.dma_retries >= 1,
        "injected failures must force resubmissions"
    );
    assert_eq!(
        t.sys.stats.dma_gave_up, 0,
        "every transfer verified within the retry budget"
    );
    let stats = t.m.fault_stats().unwrap();
    assert!(
        stats.of(FaultClass::DmaFail) + stats.of(FaultClass::DmaPartial) >= 1,
        "plan injected no DMA faults"
    );
    t.assert_audit_clean();
}

#[test]
fn weak_core_stalls_and_spurious_wakes_only_delay_the_workload() {
    let mut t = TestSystem::builder()
        .seed(55)
        .faults(|f| {
            f.core_stall(0.05, SimDuration::from_us(200), Some(DomainId::WEAK))
                .spurious_wake(0.01, None)
        })
        .audit(16)
        .build();
    let id = t.background("bg");
    let total = 64u64 << 10;
    let report = t.spawn_workload(
        DomainId::WEAK,
        id,
        Workload::Udp {
            batch: 8 << 10,
            total,
        },
        0,
    );
    t.run_until_idle();
    assert_eq!(
        report.lock().unwrap().bytes,
        total,
        "workload must complete despite stalled steps"
    );
    assert!(report.lock().unwrap().finished_at.is_some());
    let stats = t.m.fault_stats().unwrap();
    assert!(
        stats.of(FaultClass::CoreStall) >= 1,
        "plan stalled no steps"
    );
    assert!(
        stats.of(FaultClass::SpuriousWake) >= 1,
        "plan woke no idle cores"
    );
    t.assert_audit_clean();
}
