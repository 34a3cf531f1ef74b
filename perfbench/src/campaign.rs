//! The `campaign` workload: a coverage-guided campaign with a fixed
//! budget on each of the four grid scenarios. It runs no fleet code.

use crate::adapter::{self, Chooser, Grid, Image, Pool, Search, Sink};
use crate::stats::{median, summarize};
use crate::trace::Tracer;
use crate::{timing_line, Bench, Checks, Config, Layers, RunFacts};
use std::time::{Duration, Instant};

/// Perturbed schedules per scenario per campaign.
const BUDGET: u32 = 200;
/// Forks held at once when measuring resident size per fork.
const RSS_FORKS: u32 = 256;

pub(crate) struct CampaignBench {
    grids: Vec<Grid>,
    seed: u64,
    budget: u32,
}

impl Bench for CampaignBench {
    type Out = Vec<adapter::CampaignRun>;

    fn setup(cfg: &Config, t: &mut Tracer) -> Result<Self, String> {
        let mut grids = Vec::new();
        for name in adapter::campaign_scenarios() {
            let path = cfg.root.join("scenarios").join(format!("{name}.k2.md"));
            let src =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let grid = t.span("dsl.compile", |_| {
                adapter::parse_def(&src).and_then(|def| Grid::compile(&def))
            });
            grids.push(grid.map_err(|e| format!("{}: {e}", path.display()))?);
        }
        Ok(CampaignBench {
            grids,
            seed: cfg.seed,
            budget: if cfg.tiny { 8 } else { BUDGET },
        })
    }

    fn run(&self, t: &mut Tracer) -> Self::Out {
        self.grids
            .iter()
            .map(|g| {
                t.span("campaign.run", |_| {
                    adapter::campaign(g, Search::CoverageGuided, self.seed, self.budget)
                })
            })
            .collect()
    }

    fn check(&self, runs: &Self::Out, checks: &mut Checks) -> RunFacts {
        let mut rendered = String::new();
        for (g, r) in self.grids.iter().zip(runs) {
            if g.well_behaved() {
                checks.check(r.failures() == 0, || {
                    format!("{}: {} oracle failures", g.name(), r.failures())
                });
            } else {
                checks.check(r.failures() > 0, || {
                    format!("{}: the planted bug was not found", g.name())
                });
            }
            rendered.push_str(&r.render());
            rendered.push('\n');
        }
        RunFacts {
            digest: runs
                .iter()
                .map(|r| format!("{:016x}", r.corpus_digest()))
                .collect::<Vec<_>>()
                .join(" "),
            rendered,
            events: None,
            schedules: runs.iter().map(|r| r.schedules()).sum(),
        }
    }

    fn fork_image(&self) -> (Image, u32) {
        (adapter::freeze_boot_image(), RSS_FORKS)
    }

    fn probe(
        &self,
        t: &mut Tracer,
        budget: Duration,
        _facts: &RunFacts,
        checks: &mut Checks,
    ) -> Layers {
        let start = Instant::now();
        let mut image = None;
        for _ in 0..10 {
            image = Some(t.span("snapshot.freeze", |_| adapter::freeze_boot_image()));
        }
        let image = image.expect("frozen at least once");
        let faults = adapter::no_faults();
        let (mut events, mut choice_points, mut runs) = (0u64, 0u64, 0u64);
        let mut rounds = 0;
        while rounds < 1 || (rounds < 8 && start.elapsed() < budget) {
            for g in &self.grids {
                let random = t.span("campaign.random", |_| {
                    adapter::campaign(g, Search::Random, self.seed, self.budget)
                });
                // The same runs, made call by call.
                let digest = t.span("explorer.explicit", |t| {
                    let mut pool = Pool::new();
                    let base = Chooser::recorded_baseline();
                    let run = t.span("scenario.baseline", |_| {
                        adapter::run_forked(g, &image, &faults, &base, Sink::Coverage)
                    });
                    pool.mark_seen(adapter::fingerprint(&base, &run).0);
                    for i in 0..self.budget {
                        // Fork, run, drop: one fork per schedule.
                        let forked = t.span("fork", |_| adapter::fork(&image));
                        drop(forked);
                        let chooser = Chooser::recorded_walk(self.seed, adapter::walk_stream(i));
                        let run = t.span("scenario.run", |_| {
                            adapter::run_forked(g, &image, &faults, &chooser, Sink::Coverage)
                        });
                        checks.check(run.oracles_hold(), || {
                            format!("{}: walk {i} broke an oracle", g.name())
                        });
                        events += run.events();
                        choice_points += run.choice_points();
                        runs += 1;
                        let (fp, trace) = adapter::fingerprint(&chooser, &run);
                        pool.observe(fp, &trace);
                    }
                    pool.digest()
                });
                checks.check(digest == random.corpus_digest(), || {
                    format!(
                        "{}: call-by-call corpus digest {digest:016x} != campaign {:016x}",
                        g.name(),
                        random.corpus_digest()
                    )
                });
                // The same schedules with span recording off.
                for i in 0..self.budget {
                    let chooser = Chooser::recorded_walk(self.seed, adapter::walk_stream(i));
                    t.span("scenario.run.lite", |_| {
                        adapter::run_forked(g, &image, &faults, &chooser, Sink::Lite)
                    });
                }
            }
            rounds += 1;
        }

        let total = |name: &str| t.durations(name, 1.0).iter().sum::<f64>();
        let fork_ns = median(&t.durations("fork", 1.0));
        let run_ns = total("scenario.run");
        let runs_f = runs as f64;
        let allocs: u64 = t.named("scenario.run").map(|s| s.allocs).sum();
        let run_us = summarize(&t.durations("scenario.run", 1e3));
        let machine_ns = (run_ns - runs_f * fork_ns) / events as f64;
        let span_share = (run_ns - total("scenario.run.lite")) / run_ns;
        let campaign_ns = total("campaign.random");
        let driver_share = (campaign_ns - run_ns - total("scenario.baseline")) / campaign_ns;
        Layers {
            machine_ns_per_event: machine_ns,
            run_allocs_per_event: allocs as f64 / events as f64,
            lines: vec![
                timing_line("scenario.run_us", "us", &run_us),
                format!("scenario.allocs = {} count per run", allocs as f64 / runs_f),
                format!("queue.choice_points = {} count per run", choice_points as f64 / runs_f),
                format!("sim_events_per_run = {} count", events as f64 / runs_f),
                format!("span.share = {span_share} (coverage sink vs lite, same schedules)"),
                format!(
                    "explorer.driver_share = {driver_share} (Campaign::run random vs the same runs call by call)"
                ),
            ],
        }
    }
}
