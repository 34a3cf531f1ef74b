//! Integration: NightWatch scheduling (§8) end to end through the
//! mailboxes and the machine.

use k2::system::{normal_blocked, nw_can_run, nw_park, schedule_in_normal, K2Machine, K2System};
use k2_kernel::proc::{Pid, ThreadKind, Tid};
use k2_sim::time::SimDuration;
use k2_soc::ids::DomainId;
use k2_soc::platform::{Step, Task, TaskCx};
use k2_workloads::harness::TestSystem;
use std::sync::{Arc, Mutex};

/// A NightWatch worker that appends a timestamped tick each time it runs.
struct NwWorker {
    pid: Pid,
    ticks_left: u32,
    log: Arc<Mutex<Vec<u64>>>,
}

impl Task<K2System> for NwWorker {
    fn step(&mut self, w: &mut K2System, _m: &mut K2Machine, cx: TaskCx) -> Step {
        if !nw_can_run(w, self.pid) {
            nw_park(w, self.pid, cx.task);
            return Step::Block;
        }
        if self.ticks_left == 0 {
            return Step::Done;
        }
        self.ticks_left -= 1;
        self.log.lock().unwrap().push(cx.now.as_ns());
        Step::Sleep {
            dur: SimDuration::from_ms(1),
        }
    }
}

/// A normal thread that runs for `run_ms`, driving the suspend/resume
/// protocol around its execution.
struct NormalBurst {
    pid: Pid,
    tid: Tid,
    run_ms: u64,
    state: u8,
}

impl Task<K2System> for NormalBurst {
    fn step(&mut self, w: &mut K2System, m: &mut K2Machine, cx: TaskCx) -> Step {
        match self.state {
            0 => {
                self.state = 1;
                let dur = schedule_in_normal(w, m, cx.core, self.pid, self.tid);
                Step::ComputeTime { dur }
            }
            1 => {
                self.state = 2;
                Step::ComputeTime {
                    dur: SimDuration::from_ms(self.run_ms),
                }
            }
            2 => {
                self.state = 3;
                let dur = normal_blocked(w, m, cx.core, self.pid, self.tid);
                Step::ComputeTime { dur }
            }
            _ => Step::Done,
        }
    }
}

fn setup() -> (TestSystem, Pid, Tid) {
    let mut t = TestSystem::builder().build();
    let (pid, tid) = t.app("app");
    (t, pid, tid)
}

#[test]
fn nightwatch_pauses_during_normal_execution() {
    let (mut t, pid, tid) = setup();
    let log = Arc::new(Mutex::new(Vec::new()));
    t.m.spawn(
        t.kernel_core(DomainId::WEAK),
        Box::new(NwWorker {
            pid,
            ticks_left: 30,
            log: log.clone(),
        }),
        &mut t.sys,
    );
    // Let the worker tick for ~5 ms, then a 20 ms normal burst.
    t.run_for(SimDuration::from_ms(5));
    let burst_start = t.m.now().as_ns();
    t.m.spawn(
        t.kernel_core(DomainId::STRONG),
        Box::new(NormalBurst {
            pid,
            tid,
            run_ms: 20,
            state: 0,
        }),
        &mut t.sys,
    );
    t.run_until_idle();
    let log = log.lock().unwrap();
    assert_eq!(log.len(), 30, "all ticks eventually ran");
    // No tick lands inside the burst window (after the SuspendNW mail
    // lands, until ResumeNW) — allow the mail's flight time at the edges.
    let gate_closed = burst_start + 2_000_000; // generous 2 ms margin
    let burst_end = burst_start + 20_000_000;
    let inside: Vec<u64> = log
        .iter()
        .copied()
        .filter(|&t| t > gate_closed && t < burst_end)
        .collect();
    assert!(
        inside.is_empty(),
        "NightWatch ticks during the normal burst: {inside:?}"
    );
    // And some ticks ran after the burst (resume happened).
    assert!(log.iter().any(|&t| t > burst_end), "worker resumed");
}

#[test]
fn unrelated_processes_keep_their_nightwatch_running() {
    // §4.3: the deferral only applies to light tasks of the *same*
    // process; multi-domain parallelism across processes is supported.
    let (mut t, pid_a, tid_a) = setup();
    let id_b = t.background("other-app");
    let pid_b = id_b.pid;
    let log_b = Arc::new(Mutex::new(Vec::new()));
    t.m.spawn(
        t.kernel_core(DomainId::WEAK),
        Box::new(NwWorker {
            pid: pid_b,
            ticks_left: 25,
            log: log_b.clone(),
        }),
        &mut t.sys,
    );
    t.run_for(SimDuration::from_ms(2));
    let burst_start = t.m.now().as_ns();
    t.m.spawn(
        t.kernel_core(DomainId::STRONG),
        Box::new(NormalBurst {
            pid: pid_a,
            tid: tid_a,
            run_ms: 15,
            state: 0,
        }),
        &mut t.sys,
    );
    t.run_until_idle();
    let during: usize = log_b
        .lock()
        .unwrap()
        .iter()
        .filter(|&&t| t > burst_start && t < burst_start + 15_000_000)
        .count();
    assert!(
        during >= 5,
        "process B's NightWatch thread must keep running (ticks during burst: {during})"
    );
}

#[test]
fn suspend_protocol_counts_and_overhead() {
    let (mut t, pid, tid) = setup();
    for _ in 0..5 {
        let strong = t.kernel_core(DomainId::STRONG);
        t.m.spawn(
            strong,
            Box::new(NormalBurst {
                pid,
                tid,
                run_ms: 1,
                state: 0,
            }),
            &mut t.sys,
        );
        t.run_until_idle();
        t.run_for(SimDuration::from_ms(1));
    }
    let (suspends, resumes) = t.sys.nightwatch.counts();
    assert_eq!(suspends, 5);
    assert_eq!(resumes, 5);
    // The overlapped wait leaves only a couple of microseconds per switch.
    let overhead = t.sys.nightwatch.switch_overhead_us.mean();
    assert!(
        (0.0..=4.0).contains(&overhead),
        "suspend overhead {overhead:.1} us"
    );
}

#[test]
fn gate_reopens_even_with_no_parked_tasks() {
    let (mut t, pid, tid) = setup();
    let strong = t.kernel_core(DomainId::STRONG);
    let d = schedule_in_normal(&mut t.sys, &mut t.m, strong, pid, tid);
    assert!(d > SimDuration::ZERO);
    t.run_for(SimDuration::from_ms(1));
    assert!(!nw_can_run(&t.sys, pid));
    normal_blocked(&mut t.sys, &mut t.m, strong, pid, tid);
    t.run_for(SimDuration::from_ms(1));
    assert!(nw_can_run(&t.sys, pid));
}

#[test]
fn weak_core_shares_fairly_among_processes() {
    use k2_workloads::tasks::{new_report, LightThread, MultiplexTask};
    // Three background apps multiplex the weak domain's single core via
    // the kernel's fair run queue; each must get ~a third of the CPU.
    let mut t = TestSystem::builder().build();
    let weak = t.kernel_core(DomainId::WEAK);
    let mut threads = Vec::new();
    for i in 0..3 {
        let pid = t.sys.world.processes.create_process(&format!("bg{i}"));
        let tid = t
            .sys
            .world
            .processes
            .create_thread(pid, ThreadKind::NightWatch, "w");
        threads.push(LightThread {
            pid,
            tid,
            slice_cycles: 100_000,
            slices: 40,
        });
    }
    let report = new_report();
    t.m.spawn(
        weak,
        MultiplexTask::new(threads, report.clone()),
        &mut t.sys,
    );
    t.run_until_idle();
    assert_eq!(report.lock().unwrap().ops, 3 * 40, "every slice ran");
    assert!(report.lock().unwrap().finished_at.is_some());
}

#[test]
fn suspending_one_process_does_not_stall_the_multiplexer() {
    use k2_workloads::tasks::{new_report, LightThread, MultiplexTask};
    let mut t = TestSystem::builder().build();
    let weak = t.kernel_core(DomainId::WEAK);
    let strong = t.kernel_core(DomainId::STRONG);
    // Process A has a normal thread that will run a burst; process B is
    // pure background.
    let pid_a = t.sys.world.processes.create_process("a");
    let tid_a_normal = t
        .sys
        .world
        .processes
        .create_thread(pid_a, ThreadKind::Normal, "ui");
    let tid_a_nw = t
        .sys
        .world
        .processes
        .create_thread(pid_a, ThreadKind::NightWatch, "a-bg");
    let pid_b = t.sys.world.processes.create_process("b");
    let tid_b = t
        .sys
        .world
        .processes
        .create_thread(pid_b, ThreadKind::NightWatch, "b-bg");
    let report = new_report();
    t.m.spawn(
        weak,
        MultiplexTask::new(
            vec![
                LightThread {
                    pid: pid_a,
                    tid: tid_a_nw,
                    slice_cycles: 200_000,
                    slices: 30,
                },
                LightThread {
                    pid: pid_b,
                    tid: tid_b,
                    slice_cycles: 200_000,
                    slices: 30,
                },
            ],
            report.clone(),
        ),
        &mut t.sys,
    );
    // Let a few slices run, then burst A's normal thread for 20 ms.
    t.run_for(SimDuration::from_ms(3));
    t.m.spawn(
        strong,
        Box::new(NormalBurst {
            pid: pid_a,
            tid: tid_a_normal,
            run_ms: 20,
            state: 0,
        }),
        &mut t.sys,
    );
    t.run_until_idle();
    // Everything eventually completed: B kept running during the burst, A
    // resumed after it.
    assert_eq!(report.lock().unwrap().ops, 60);
}
