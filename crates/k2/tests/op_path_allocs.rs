//! Allocation guards for the shadowed-service op path, for a fork and
//! for an invariant audit.
//!
//! Every simulated syscall into a shadowed service runs through
//! `k2::system::shadowed`. Its bookkeeping (the access trace, DSM
//! planning, metric bumps) must not allocate once warm: the world's
//! operation context is reused and emptied after each call, and metric
//! ids are interned at first use.
//!
//! `K2System::fork` is the cost of every fleet machine and of every
//! explored schedule. It must copy only small tables: RAM pages, disk
//! blocks and the disk's 64-slot chunks are shared copy-on-write, not
//! copied. Nothing is re-installed either: the OS reactions are trait
//! methods.
//!
//! Scenario runs audit every 64 events, and each audit checks every
//! registered law, the buddy allocators of both kernels among them. An
//! audit must read the state it checks without allocating: a buddy
//! allocator that has not changed since its last clean check is not
//! walked again, and one that has is walked in place.
//!
//! A counting global allocator pins all three down, in allocations and
//! bytes.

use k2::system::{shadowed, K2Machine, K2System, SystemConfig};
use k2_kernel::mm::buddy::MigrateType;
use k2_kernel::service::ServiceId;
use k2_soc::ids::DomainId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations and the bytes they request per thread, so the test
/// harness's other threads cannot disturb a measurement.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCS.with(|a| a.set(a.get() + 1));
    BYTES.with(|b| b.set(b.get() + bytes as u64));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

#[test]
fn local_hits_allocate_nothing_once_warm() {
    for dom in [DomainId::STRONG, DomainId::WEAK] {
        let (mut m, mut sys) = K2System::boot(SystemConfig::k2());
        let core = K2System::kernel_core(&m, dom);
        let (port, _) = shadowed(&mut sys, &mut m, core, ServiceId::Net, |s, cx| {
            s.net.bind(None, cx).unwrap()
        });
        // Warm-up: the first calls size the reused buffers, intern the
        // metric ids and (on the weak domain) pull the stack's shared
        // pages over once.
        let recv = |sys: &mut K2System, m: &mut k2::system::K2Machine| {
            let (dg, dur) = shadowed(sys, m, core, ServiceId::Net, |s, cx| {
                s.net.recv(port, cx).unwrap()
            });
            assert!(dg.is_none(), "nothing was sent to the socket");
            dur
        };
        for _ in 0..8 {
            recv(&mut sys, &mut m);
        }
        let faults = sys.dsm.total_faults();
        let before = allocs();
        for _ in 0..1_000 {
            std::hint::black_box(recv(&mut sys, &mut m));
        }
        let spent = allocs() - before;
        assert_eq!(sys.dsm.total_faults(), faults, "{dom}: every call hit");
        assert_eq!(spent, 0, "{dom}: 1,000 local recvs allocated {spent} times");
    }
}

#[test]
fn a_fork_allocates_under_16_kib() {
    let (m, sys) = K2System::boot(SystemConfig::k2());
    let image = K2System::snapshot(&m, &sys);
    // Warm-up: the first fork runs any lazy one-time set-up.
    drop(K2System::fork(&image));
    let (allocs_before, bytes_before) = (allocs(), bytes());
    let fork = K2System::fork(&image);
    let (spent, size) = (allocs() - allocs_before, bytes() - bytes_before);
    drop(fork);
    assert!(
        size < 16 << 10 && spent <= 39,
        "a fork allocated {size} B in {spent} allocations (want < 16,384 B in <= 39)"
    );
}

#[test]
fn an_audit_allocates_nothing() {
    let (mut m, mut sys) = K2System::boot(SystemConfig::k2());
    m.enable_audit(1);
    // Warm-up: the first audit records each energy meter's baseline.
    let now = m.now();
    m.run_until(now, &mut sys);
    // No event is due at `now`, so only the final audit runs, and it
    // checks every registered law.
    let audit = |m: &mut K2Machine, sys: &mut K2System, what: &str| {
        let checks = m.auditor().checks_run();
        let (allocs_before, bytes_before) = (allocs(), bytes());
        let now = m.now();
        m.run_until(now, sys);
        let (spent, size) = (allocs() - allocs_before, bytes() - bytes_before);
        assert_eq!(
            m.auditor().checks_run(),
            checks + 1,
            "{what}: one audit ran"
        );
        assert!(m.auditor().is_clean(), "{what}: {}", m.auditor().report());
        assert_eq!(
            (spent, size),
            (0, 0),
            "{what}: an audit allocated {size} B in {spent} allocations"
        );
    };
    audit(&mut m, &mut sys, "allocators unchanged");
    // A change since the last clean check forces a full walk of the
    // strong kernel's allocator.
    let buddy = &mut sys.world.kernels[0].buddy;
    let (page, _) = buddy.alloc_pages(0, MigrateType::Unmovable).unwrap();
    buddy.free_pages(page);
    audit(&mut m, &mut sys, "after an alloc/free pair");
}
