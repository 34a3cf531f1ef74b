//! The `conformance` workload: the CI conformance matrix (grid
//! scenarios × CI seeds × fault presets × {baseline, walk1} × {full,
//! lite}), read from the scenario files on disk.
//!
//! The matrix's seeds are its own: its `expect` blocks are blessed at
//! the CI seeds only, so `--seed` does not change this workload.

use crate::adapter::{self, Def, Grid, Image, Matrix, MatrixRun, Sink};
use crate::stats::{median, summarize};
use crate::trace::Tracer;
use crate::{timing_line, Bench, Checks, Config, Layers, RunFacts};
use std::time::{Duration, Instant};

/// Forks held at once when measuring resident size per fork.
const RSS_FORKS: u32 = 256;

pub(crate) struct ConformanceBench {
    matrix: Matrix,
    grids: Vec<Grid>,
}

impl Bench for ConformanceBench {
    type Out = MatrixRun;

    fn setup(cfg: &Config, t: &mut Tracer) -> Result<Self, String> {
        let mut defs: Vec<Def> = Vec::new();
        let mut grids = Vec::new();
        for name in adapter::ci_matrix_scenarios() {
            let path = cfg.root.join("scenarios").join(format!("{name}.k2.md"));
            let src =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let (def, grid) = t
                .span("dsl.compile", |_| {
                    let def = adapter::parse_def(&src)?;
                    let grid = if def.is_grid() {
                        Some(Grid::compile(&def)?)
                    } else {
                        None
                    };
                    Ok::<_, String>((def, grid))
                })
                .map_err(|e| format!("{}: {e}", path.display()))?;
            defs.push(def);
            grids.extend(grid);
        }
        let matrix = Matrix::ci(&defs);
        Ok(ConformanceBench {
            matrix: if cfg.tiny {
                matrix.with_seeds(&[2014])
            } else {
                matrix
            },
            grids,
        })
    }

    fn run(&self, t: &mut Tracer) -> MatrixRun {
        t.span("matrix.run", |_| self.matrix.run())
    }

    fn check(&self, run: &MatrixRun, checks: &mut Checks) -> RunFacts {
        let cells = run.cells();
        for (id, passed) in &cells {
            checks.check(*passed, || format!("matrix cell {id} failed"));
        }
        RunFacts {
            rendered: run.render(),
            events: Some(run.events()),
            schedules: cells.len() as u64,
            digest: format!("{:016x}", run.digest()),
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
        let cells = match self.matrix.cells(&self.grids) {
            Ok(cells) => cells,
            Err(e) => {
                checks.check(false, || e);
                Vec::new()
            }
        };
        let (mut events, mut runs) = (0u64, 0u64);
        let (mut full_ns, mut norender_ns) = (0f64, 0f64);
        let mut rounds = 0;
        while rounds < 1 || (rounds < 50 && start.elapsed() < budget) {
            for cell in &cells {
                let grid = &self.grids[cell.grid];
                let forked = t.span("fork", |_| adapter::fork(&image));
                drop(forked);
                let begin = Instant::now();
                let run = t.span("scenario.run", |_| {
                    adapter::run_forked(grid, &image, &cell.fault, &cell.chooser(), cell.sink)
                });
                let ns = begin.elapsed().as_nanos() as f64;
                checks.check(run.oracles_hold(), || {
                    format!("{}: a matrix cell broke an oracle", grid.name())
                });
                events += run.events();
                runs += 1;
                if cell.sink == Sink::Full {
                    // The same cell without rendering the profile report.
                    let begin = Instant::now();
                    t.span("scenario.run.norender", |_| {
                        adapter::run_forked(
                            grid,
                            &image,
                            &cell.fault,
                            &cell.chooser(),
                            Sink::Coverage,
                        )
                    });
                    norender_ns += begin.elapsed().as_nanos() as f64;
                    full_ns += ns;
                }
            }
            rounds += 1;
        }

        let fork_ns = median(&t.durations("fork", 1.0));
        let run_ns: f64 = t.durations("scenario.run", 1.0).iter().sum();
        let allocs: u64 = t.named("scenario.run").map(|s| s.allocs).sum();
        let run_us = summarize(&t.durations("scenario.run", 1e3));
        let full_runs = t.named("scenario.run.norender").count().max(1) as f64;
        let render_us = (full_ns - norender_ns) / full_runs / 1e3;
        let machine_ns = (run_ns - runs as f64 * fork_ns) / events as f64;
        Layers {
            machine_ns_per_event: machine_ns,
            run_allocs_per_event: allocs as f64 / events as f64,
            lines: vec![
                timing_line("scenario.run_us", "us", &run_us),
                format!(
                    "report.render_us = {render_us} us per full-sink cell (render on vs off, same cells)"
                ),
                format!(
                    "sim_events_per_run = {} count ({} cell runs)",
                    events as f64 / runs as f64,
                    runs
                ),
            ],
        }
    }
}
