//! Integration: independent page allocators, balloons and the meta-level
//! manager (§6.2) across the whole system.

use k2::balloon::{BalloonError, PAGE_BLOCK_PAGES};
use k2::system::{alloc_pages, free_pages, meta_poll, K2System, SystemConfig};
use k2_soc::ids::DomainId;

#[test]
fn kernels_allocate_from_disjoint_pools() {
    let (mut m, mut sys) = K2System::boot(SystemConfig::k2());
    let strong = K2System::kernel_core(&m, DomainId::STRONG);
    let weak = K2System::kernel_core(&m, DomainId::WEAK);
    let mut frames = Vec::new();
    for _ in 0..200 {
        let (a, _) = alloc_pages(&mut sys, &mut m, strong, 0, false);
        let (b, _) = alloc_pages(&mut sys, &mut m, weak, 0, false);
        frames.push((a.unwrap(), b.unwrap()));
    }
    for (a, b) in &frames {
        assert_ne!(a, b);
        assert_eq!(sys.owner_of_pfn(*a), DomainId::STRONG);
        assert_eq!(sys.owner_of_pfn(*b), DomainId::WEAK);
    }
    // No inter-domain communication happened for any of the 400 calls.
    assert_eq!(sys.dsm.total_faults(), 0);
    assert_eq!(m.mailbox_delivered(), 0);
}

#[test]
fn remote_free_redirects_not_blocks() {
    let (mut m, mut sys) = K2System::boot(SystemConfig::k2());
    let strong = K2System::kernel_core(&m, DomainId::STRONG);
    let weak = K2System::kernel_core(&m, DomainId::WEAK);
    let (pfn, _) = alloc_pages(&mut sys, &mut m, strong, 3, false);
    let d = free_pages(&mut sys, &mut m, weak, pfn.unwrap());
    assert_eq!(sys.stats.redirected_frees, 1);
    // The weak core only pays the address-range check + mail send.
    assert!(d.as_us_f64() < 3.0, "redirect cost {d:?}");
    // The mail is in flight.
    m.run_until(m.now() + k2_sim::time::SimDuration::from_ms(1), &mut sys);
    assert!(m.mailbox_delivered() >= 1);
}

#[test]
fn meta_manager_keeps_a_starved_kernel_alive() {
    let config = SystemConfig {
        initial_shadow_blocks: 0,
        ..SystemConfig::k2()
    };
    let (mut m, mut sys) = K2System::boot(config);
    let weak = K2System::kernel_core(&m, DomainId::WEAK);
    // Consume the local region until the pressure probe trips, letting the
    // manager deflate as needed — the allocation loop never sees OOM.
    for count in 0..20_000 {
        let (pfn, _) = alloc_pages(&mut sys, &mut m, weak, 0, true);
        assert!(pfn.is_some(), "allocation failed after {count} pages");
        meta_poll(&mut sys, &mut m, weak);
    }
    let (deflates, _) = sys.balloon.op_counts();
    assert!(
        deflates >= 4,
        "the manager must have deflated repeatedly (got {deflates})"
    );
    assert!(
        sys.world.kernels[1].buddy.managed_page_count() > 4096 + 3 * PAGE_BLOCK_PAGES,
        "the shadow kernel grew by whole page blocks"
    );
    sys.world.kernels[1].buddy.check_invariants();
}

#[test]
fn inflation_survives_fragmented_movable_pages() {
    let (mut m, mut sys) = K2System::boot(SystemConfig::k2());
    let weak = K2System::kernel_core(&m, DomainId::WEAK);
    // Allocate a large movable working set, free every other page (heavy
    // fragmentation near the frontier), then reclaim blocks until the
    // balloon reports only genuine obstacles.
    let mut held = Vec::new();
    for _ in 0..6_000 {
        let (pfn, _) = alloc_pages(&mut sys, &mut m, weak, 0, true);
        held.push(pfn.unwrap());
    }
    for pfn in held.iter().step_by(2) {
        free_pages(&mut sys, &mut m, weak, *pfn);
    }
    let mut reclaimed = 0;
    loop {
        let K2System { balloon, world, .. } = &mut sys;
        match balloon.inflate(world.kernel(DomainId::WEAK)) {
            Ok(_) => reclaimed += 1,
            Err(BalloonError::NothingToInflate) => break,
            Err(BalloonError::Unmovable(_)) => break,
            Err(BalloonError::PoolEmpty) => unreachable!("inflate never needs the pool"),
        }
    }
    assert!(reclaimed >= 1, "at least the frontier block is reclaimable");
    sys.world.kernels[1].buddy.check_invariants();
    // The surviving pages are all still resolvable and allocated.
    let k = &sys.world.kernels[1];
    assert_eq!(k.rmap.len() as u64, 3_000);
}

#[test]
fn linux_baseline_needs_no_balloons() {
    let (mut m, mut sys) = K2System::boot(SystemConfig::linux());
    let strong = K2System::kernel_core(&m, DomainId::STRONG);
    for _ in 0..1_000 {
        let (pfn, _) = alloc_pages(&mut sys, &mut m, strong, 0, true);
        assert!(pfn.is_some());
    }
    assert_eq!(
        meta_poll(&mut sys, &mut m, strong),
        k2_sim::time::SimDuration::ZERO
    );
    let (d, i) = sys.balloon.op_counts();
    assert_eq!((d, i), (0, 0));
}

#[test]
fn main_kernel_keeps_large_contiguous_memory() {
    // Constraint 3 of §6.1 + the §6.2 placement policy: the main kernel
    // can always satisfy a maximal-order allocation after growing.
    let (mut m, mut sys) = K2System::boot(SystemConfig::k2());
    let strong = K2System::kernel_core(&m, DomainId::STRONG);
    for _ in 0..4 {
        let (pfn, _) = alloc_pages(&mut sys, &mut m, strong, 10, false);
        assert!(pfn.is_some(), "4 MB block available to the main kernel");
    }
}

#[test]
fn meta_daemon_rebalances_in_the_background() {
    use k2_sim::time::SimDuration;
    use k2_workloads::tasks::{new_report, MetaDaemonTask};
    let config = SystemConfig {
        initial_shadow_blocks: 0,
        ..SystemConfig::k2()
    };
    let (mut m, mut sys) = K2System::boot(config);
    let weak = K2System::kernel_core(&m, DomainId::WEAK);
    // Start the daemon on the weak core, polling every 20 ms for 2 s.
    let report = new_report();
    let deadline = m.now() + SimDuration::from_secs(2);
    m.spawn(
        weak,
        MetaDaemonTask::new(SimDuration::from_ms(20), deadline, report.clone()),
        &mut sys,
    );
    // Meanwhile a workload chews through memory without ever polling.
    for _ in 0..6_000 {
        let (pfn, _) = alloc_pages(&mut sys, &mut m, weak, 0, true);
        assert!(pfn.is_some(), "daemon must keep the kernel fed");
        // Let simulated time pass so the daemon gets its turns.
        m.run_until(m.now() + SimDuration::from_us(200), &mut sys);
    }
    m.run_until_idle(&mut sys);
    let (deflates, _) = sys.balloon.op_counts();
    assert!(deflates >= 1, "the background daemon deflated");
    assert!(
        report.lock().unwrap().ops > 10,
        "the daemon polled repeatedly"
    );
    sys.world.kernels[1].buddy.check_invariants();
}
