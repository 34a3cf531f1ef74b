//! The fleet workloads: `sync-storm` (sparse: most machine-epochs are
//! idle) and `rush-hour` (busy: most host time goes to events).

use crate::adapter::{self, Datagram, Def, Fleet, FleetRun, Image};
use crate::stats::{median, summarize};
use crate::trace::Tracer;
use crate::{timing_line, Bench, Checks, Config, Layers, RunFacts, Workload};
use std::time::{Duration, Instant};

/// `dev_acks / dev_sent` below this means the hubs no longer keep up,
/// and `rush-hour` has left the regime it was sized for.
const MIN_ACK_RATIO: f64 = 0.8;

pub(crate) struct FleetBench {
    fleet: Fleet,
    image: Image,
    /// `expect` rows from the scenario file for this seed.
    expects: Vec<(String, String)>,
    /// Whether the hubs must keep up (`rush-hour` at full size; a tiny
    /// run ends before most acks return).
    busy: bool,
}

impl FleetBench {
    fn path(cfg: &Config) -> std::path::PathBuf {
        match cfg.workload {
            Workload::SyncStorm => cfg.root.join("scenarios").join("sync-storm.k2.md"),
            _ => cfg.root.join("perfbench").join("rush-hour.k2.md"),
        }
    }

    fn machine_epochs(&self) -> f64 {
        f64::from(self.fleet.machines()) * f64::from(self.fleet.epochs())
    }

    /// Checks the fleet invariants that hold for every seed.
    fn check_invariants(&self, run: &FleetRun, checks: &mut Checks) {
        let c = run.counts();
        checks.check(
            c.routed == c.delivered + c.dropped + c.unroutable + c.in_flight_end,
            || format!("fabric conservation: {c:?}"),
        );
        checks.check(
            c.dev_acks <= c.hub_handled && c.hub_handled <= c.dev_sent,
            || format!("dev_acks <= hub_handled <= dev_sent: {c:?}"),
        );
    }
}

impl Bench for FleetBench {
    type Out = FleetRun;

    fn setup(cfg: &Config, t: &mut Tracer) -> Result<Self, String> {
        let path = Self::path(cfg);
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let (def, fleet): (Def, Fleet) = t.span("dsl.compile", |_| {
            let def = adapter::parse_def(&src).map_err(|e| format!("{}: {e}", path.display()))?;
            let fleet = Fleet::compile(&def, cfg.seed)?;
            Ok::<_, String>((def, fleet))
        })?;
        let fleet = if cfg.tiny {
            fleet.shrunk(16, 2, 20)
        } else {
            fleet
        };
        let image = t.span("snapshot.freeze", |_| adapter::freeze_fleet_image());
        Ok(FleetBench {
            fleet,
            image,
            expects: if cfg.tiny {
                Vec::new()
            } else {
                def.expectations(cfg.seed)
            },
            busy: cfg.workload == Workload::RushHour && !cfg.tiny,
        })
    }

    fn run(&self, t: &mut Tracer) -> FleetRun {
        t.span("fleet.run", |_| self.fleet.run(&self.image))
    }

    fn check(&self, run: &FleetRun, checks: &mut Checks) -> RunFacts {
        self.check_invariants(run, checks);
        for (metric, expected) in &self.expects {
            let actual = run
                .metric(metric)
                .map_or_else(|| "<missing>".to_string(), |v| v.to_string());
            checks.check(actual == *expected, || {
                format!("expect {metric}: want {expected}, got {actual}")
            });
        }
        if self.busy {
            let c = run.counts();
            checks.check(
                c.dev_acks as f64 >= MIN_ACK_RATIO * c.dev_sent as f64,
                || {
                    format!(
                        "hubs fell behind: {} acks for {} sent",
                        c.dev_acks, c.dev_sent
                    )
                },
            );
        }
        RunFacts {
            rendered: run.render(),
            events: Some(run.events()),
            schedules: u64::from(self.fleet.machines()),
            digest: format!("{:016x}", run.digest()),
        }
    }

    fn fork_image(&self) -> (Image, u32) {
        (adapter::freeze_fleet_image(), self.fleet.machines())
    }

    fn probe(
        &self,
        t: &mut Tracer,
        budget: Duration,
        facts: &RunFacts,
        checks: &mut Checks,
    ) -> Layers {
        let start = Instant::now();
        let events = facts.events.expect("fleet runs count events") as f64;
        let machines = self.fleet.machines();
        let me = self.machine_epochs();

        // Forks as the fleet makes them: every machine alive at once. An
        // idle-copy run sits between rounds, so the allocator sees fleet
        // churn between them.
        let idle = self.fleet.idle_copy();
        let mut rounds = 0;
        while rounds < 3 || (rounds < 20 && start.elapsed() < budget / 2) {
            t.span("fork.fleet", |t| {
                let alive: Vec<adapter::Machine> = (0..machines)
                    .map(|_| t.span("fork", |_| adapter::fork(&self.image)))
                    .collect();
                drop(alive);
            });
            let run = t.span("fleet.run.idle", |_| idle.run(&self.image));
            self.check_invariants(&run, checks);
            rounds += 1;
        }

        // The fabric alone, replaying this run's routed count over its
        // machines with its seed and fabric parameters.
        let counts = self.fleet.run(&self.image).counts();
        let mut route_ns = Vec::new();
        while route_ns.len() < 3 || (route_ns.len() < 20 && start.elapsed() < budget) {
            let batches = self.replay_batches(counts.routed);
            let mut fabric = self.fleet.fabric();
            let epoch = self.fleet.epoch_ns();
            let begin = Instant::now();
            t.span("fabric.replay", |t| {
                for (e, batch) in batches.into_iter().enumerate() {
                    let now = e as u64 * epoch;
                    t.span("fabric.route", |_| fabric.route_all(now, batch));
                    t.span("fabric.take_due", |_| fabric.take_due(now + epoch));
                }
            });
            route_ns.push(begin.elapsed().as_nanos() as f64 / fabric.routed().max(1) as f64);
        }

        let fork_us = median(&t.durations("fork", 1e3));
        let run = summarize(&t.durations("fleet.run", 1e6));
        let idle_run = summarize(&t.durations("fleet.run.idle", 1e6));
        let run_allocs = median(
            &t.named("fleet.run")
                .map(|s| s.allocs as f64)
                .collect::<Vec<_>>(),
        );
        let idle_ns = (idle_run.p50 * 1e6 - f64::from(machines) * fork_us * 1e3) / me;
        let busy_ns = (run.p50 - idle_run.p50) * 1e6 / events;
        let route = summarize(&route_ns);
        let lines = vec![
            timing_line("fleet.run_ms", "ms", &run),
            timing_line("fleet.run_ms.idle_copy", "ms", &idle_run),
            format!(
                "fleet.idle_ns_per_machine_epoch = {idle_ns} ns ({me} machine-epochs, forks subtracted)"
            ),
            format!("fleet.busy_ns_per_event = {busy_ns} ns"),
            format!(
                "fleet.allocs_per_machine_epoch = {} count",
                run_allocs / me
            ),
            format!(
                "fleet.events_per_machine_epoch = {} count",
                events / me
            ),
            timing_line("fabric.route_ns", "ns", &route),
            format!("fabric.routed = {} count", counts.routed),
            format!("fabric.dropped = {} count", counts.dropped),
            format!("fabric.reordered = {} count", counts.reordered),
        ];
        Layers {
            machine_ns_per_event: busy_ns,
            run_allocs_per_event: run_allocs / events,
            lines,
        }
    }
}

impl FleetBench {
    /// `routed` datagrams spread evenly over the run's epochs, each from
    /// a device to its hub or from a hub back to a device, cycling over
    /// the machines.
    fn replay_batches(&self, routed: u64) -> Vec<Vec<Datagram>> {
        let epochs = u64::from(self.fleet.epochs());
        let (hubs, machines) = (self.fleet.hubs(), self.fleet.machines());
        let devices = machines - hubs;
        let mut k = 0u64;
        (0..epochs)
            .map(|e| {
                let n = routed * (e + 1) / epochs - routed * e / epochs;
                (0..n)
                    .map(|_| {
                        let dev = hubs + (k % u64::from(devices)) as u32;
                        let hub = (dev - hubs) % hubs;
                        k += 1;
                        if k.is_multiple_of(2) {
                            Datagram::new(dev, hub)
                        } else {
                            Datagram::new(hub, dev)
                        }
                    })
                    .collect()
            })
            .collect()
    }
}
