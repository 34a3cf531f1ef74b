//! The conformance matrix: deterministic expansion of DSL scenarios.
//!
//! [`MatrixSpec`] describes a run matrix — scenario × seed × fault
//! preset × chooser × sink — over the declarative scenarios of
//! [`crate::dsl`]. [`MatrixSpec::run`] expands it with the campaign's
//! strict index-order merge ([`crate::explorer`]'s `fan_out`), so the
//! cell vector, every per-cell byte, and the summary [digest] are
//! identical for any `K2CHECK_THREADS` / worker count. One system image
//! is booted per matrix and forked per cell (the PR 7 snapshot path).
//!
//! Expectation tables from the scenario files (`k2 expect` blocks) are
//! checked on the *baseline-chooser, full-sink* cells — the queue's own
//! tie-break and the full profile report; randomized-walk
//! and lite cells exercise the schedule space and the zero-cost
//! observability path instead, under the conservation and audit oracles
//! only.
//!
//! [digest]: MatrixOutcome::digest

use crate::dsl::{builtin, CompiledScenario, ScenarioDef};
use crate::explorer::{fan_out, resolve_workers};
use crate::policy::{chooser_of, RandomWalk};
use crate::scenario::{RunOptions, RunOutcome, Scenario};
use k2_sim::digest::Fnv64;
use k2_sim::explore::ScheduleChooser;
use k2_sim::json::JsonWriter;
use std::fmt::Write as _;

/// The two CI seeds the checked-in expectations are blessed under.
pub const CI_SEEDS: [u64; 2] = [2014, 4202];

/// One axis point of the chooser dimension.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChooserKind {
    /// No chooser installed: the queue's own deterministic tie-break —
    /// the ordering every historical golden byte was produced under.
    Baseline,
    /// A seeded uniform random walk over co-enabled classes, stream `n`
    /// (the cell's seed feeds the walk, so walks differ across seeds).
    Walk(u64),
}

impl ChooserKind {
    /// Stable axis label (`baseline`, `walk1`, …).
    pub fn label(&self) -> String {
        match self {
            ChooserKind::Baseline => "baseline".to_string(),
            ChooserKind::Walk(n) => format!("walk{n}"),
        }
    }

    fn chooser(&self, seed: u64) -> Option<ScheduleChooser> {
        match self {
            ChooserKind::Baseline => None,
            ChooserKind::Walk(n) => Some(chooser_of(Box::new(RandomWalk::new(seed, *n)))),
        }
    }
}

/// One axis point of the sink dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SinkKind {
    /// [`RunOptions::full`]: report rendered, boot-default span sink.
    Full,
    /// [`RunOptions::lite`]: no report, disabled span sink — the
    /// zero-cost observability path, whose end state must not diverge.
    Lite,
}

impl SinkKind {
    /// Stable axis label (`full` / `lite`).
    pub fn label(self) -> &'static str {
        match self {
            SinkKind::Full => "full",
            SinkKind::Lite => "lite",
        }
    }

    fn options(self) -> RunOptions {
        match self {
            SinkKind::Full => RunOptions::full(),
            SinkKind::Lite => RunOptions::lite(),
        }
    }
}

/// The coordinate of one matrix cell, also its stable identifier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellCoord {
    /// Scenario name.
    pub scenario: String,
    /// Run seed (fault dice + system builder + walk seed).
    pub seed: u64,
    /// Fault preset name (`none` or a declared preset).
    pub preset: String,
    /// Chooser axis point.
    pub chooser: ChooserKind,
    /// Sink axis point.
    pub sink: SinkKind,
}

impl CellCoord {
    /// The canonical `scenario:seed:preset:chooser:sink` identifier —
    /// what `k2 matrix --cell` accepts to re-run one cell.
    pub fn id(&self) -> String {
        format!(
            "{}:{}:{}:{}:{}",
            self.scenario,
            self.seed,
            self.preset,
            self.chooser.label(),
            self.sink.label()
        )
    }
}

/// One checked `k2 expect` row: expected vs observed, exact strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExpectCheck {
    /// End-state metric key.
    pub metric: String,
    /// Declared value.
    pub expected: String,
    /// Observed value (`<missing>` when the key never appeared).
    pub actual: String,
}

impl ExpectCheck {
    /// Did the observation match the declaration byte for byte?
    pub fn passed(&self) -> bool {
        self.expected == self.actual
    }
}

/// Everything one completed cell reports into the matrix.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// Where in the matrix this ran.
    pub coord: CellCoord,
    /// End-state fingerprint ([`crate::oracle::EndState::fingerprint`]).
    pub end_fp: u64,
    /// FNV-1a of the rendered profile report; on lite cells, which
    /// render none, the hash of the empty string.
    pub report_fp: u64,
    /// Machine events processed.
    pub events: u64,
    /// Nondeterministic choice points hit.
    pub choice_points: u64,
    /// Counter-conservation verdict.
    pub conservation: Result<(), String>,
    /// Invariant-auditor verdict.
    pub audit: Result<(), String>,
    /// Expectation checks (baseline + full cells only; empty elsewhere).
    pub checks: Vec<ExpectCheck>,
}

impl CellOutcome {
    /// True when the oracles and every expectation check passed.
    pub fn passed(&self) -> bool {
        self.conservation.is_ok() && self.audit.is_ok() && self.checks.iter().all(|c| c.passed())
    }

    /// The canonical one-line summary the matrix digest hashes — every
    /// field that must be invariant across worker counts.
    pub fn summary_line(&self) -> String {
        let mut s = format!(
            "{} end={:016x} report={:016x} events={} cp={} cons={} audit={}",
            self.coord.id(),
            self.end_fp,
            self.report_fp,
            self.events,
            self.choice_points,
            verdict(&self.conservation),
            verdict(&self.audit),
        );
        for c in &self.checks {
            write!(
                s,
                " {}={}",
                c.metric,
                if c.passed() { "ok" } else { "FAIL" }
            )
            .unwrap();
        }
        s
    }
}

fn verdict(r: &Result<(), String>) -> &'static str {
    if r.is_ok() {
        "ok"
    } else {
        "FAIL"
    }
}

/// The matrix to expand: which scenarios, and the axis points.
#[derive(Clone, Debug)]
pub struct MatrixSpec {
    /// The scenario definitions (eval files are skipped — they have no
    /// schedule to explore; `k2-bench`'s conformance runner owns them).
    pub defs: Vec<ScenarioDef>,
    /// Seed axis.
    pub seeds: Vec<u64>,
    /// Random-walk choosers per cell, in addition to the baseline.
    pub walks: u64,
    /// Include the lite-sink axis point next to the full sink.
    pub lite: bool,
    /// Worker override; 0 respects `K2CHECK_THREADS` / the default cap.
    pub workers: usize,
}

impl MatrixSpec {
    /// The CI matrix: every builtin grid scenario × [`CI_SEEDS`] ×
    /// every declared preset × {baseline, walk1} × {full, lite}.
    pub fn ci() -> Self {
        MatrixSpec {
            defs: builtin::all(),
            seeds: CI_SEEDS.to_vec(),
            walks: 1,
            lite: true,
            workers: 0,
        }
    }

    /// The grid scenarios of `defs`, compiled, paired with their defs.
    fn compiled(&self) -> Vec<(ScenarioDef, CompiledScenario)> {
        self.defs
            .iter()
            .filter(|d| !d.is_eval() && !d.is_fleet())
            .map(|d| {
                let c = d
                    .compile()
                    .unwrap_or_else(|e| panic!("scenario `{}` failed to compile: {e}", d.name));
                (d.clone(), c)
            })
            .collect()
    }

    /// Enumerates every cell coordinate in canonical order: scenario,
    /// then seed, then preset, then chooser, then sink — the index order
    /// the merge and the digest are defined over.
    pub fn cells(&self) -> Vec<CellCoord> {
        let mut out = Vec::new();
        for (def, _) in self.compiled() {
            for &seed in &self.seeds {
                for preset in def.preset_names() {
                    let mut choosers = vec![ChooserKind::Baseline];
                    choosers.extend((1..=self.walks).map(ChooserKind::Walk));
                    for chooser in choosers {
                        let mut sinks = vec![SinkKind::Full];
                        if self.lite {
                            sinks.push(SinkKind::Lite);
                        }
                        for sink in sinks {
                            out.push(CellCoord {
                                scenario: def.name.clone(),
                                seed,
                                preset: preset.clone(),
                                chooser: chooser.clone(),
                                sink,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// Expands the whole matrix: boots one system image, forks it per
    /// cell across the worker pool, and merges outcomes in strict index
    /// order. Byte-identical (digest and all) at any worker count.
    pub fn run(&self) -> MatrixOutcome {
        let compiled = self.compiled();
        let coords = self.cells();
        let snap = Scenario::boot_snapshot();
        let workers = resolve_workers(self.workers, coords.len() as u32);
        let cells = fan_out(coords.len() as u32, workers, |i| {
            let coord = &coords[i as usize];
            let (def, scenario) = compiled
                .iter()
                .find(|(d, _)| d.name == coord.scenario)
                .expect("coordinate names an expanded scenario");
            run_cell_at(def, scenario, coord, &snap)
        });
        let digest = digest(&cells);
        MatrixOutcome {
            cells,
            digest,
            workers,
        }
    }

    /// Re-runs exactly one cell by coordinate id (the
    /// `scenario:seed:preset:chooser:sink` form of [`CellCoord::id`]),
    /// booting a fresh image. Reproduces the full-matrix cell byte for
    /// byte; `None` when the id names no cell of this matrix.
    pub fn run_cell(&self, id: &str) -> Option<CellOutcome> {
        let coord = self.cells().into_iter().find(|c| c.id() == id)?;
        let compiled = self.compiled();
        let (def, scenario) = compiled.iter().find(|(d, _)| d.name == coord.scenario)?;
        let snap = Scenario::boot_snapshot();
        Some(run_cell_at(def, scenario, &coord, &snap))
    }
}

/// Runs one cell against a frozen boot image.
fn run_cell_at(
    def: &ScenarioDef,
    scenario: &CompiledScenario,
    coord: &CellCoord,
    snap: &k2::system::SystemSnapshot,
) -> CellOutcome {
    let spec = def
        .fault_spec(&coord.preset, coord.seed)
        .expect("coordinate names a declared preset");
    let chooser = coord.chooser.chooser(coord.seed);
    let out: RunOutcome = scenario.run_forked(snap, &spec, chooser, coord.sink.options());
    let checks = if coord.chooser == ChooserKind::Baseline && coord.sink == SinkKind::Full {
        def.expectations(&coord.preset, coord.seed)
            .into_iter()
            .map(|(metric, expected)| {
                let actual = out
                    .end_state
                    .entries()
                    .iter()
                    .find(|(k, _)| *k == metric)
                    .map(|(_, v)| v.clone())
                    .unwrap_or_else(|| "<missing>".to_string());
                ExpectCheck {
                    metric,
                    expected,
                    actual,
                }
            })
            .collect()
    } else {
        Vec::new()
    };
    CellOutcome {
        coord: coord.clone(),
        end_fp: out.end_state.fingerprint(),
        report_fp: Fnv64::new().bytes(out.report_json.as_bytes()).finish(),
        events: out.events,
        choice_points: out.choice_points,
        conservation: out.conservation,
        audit: out.audit,
        checks,
    }
}

/// A completed matrix expansion.
#[derive(Clone, Debug)]
pub struct MatrixOutcome {
    /// Every cell, in canonical index order.
    pub cells: Vec<CellOutcome>,
    /// FNV-1a over the cells' summary lines, in order — the quantity
    /// that must be invariant across worker counts.
    pub digest: u64,
    /// Workers the expansion actually used.
    pub workers: usize,
}

impl MatrixOutcome {
    /// True when every cell passed its oracles and expectations.
    pub fn passed(&self) -> bool {
        self.cells.iter().all(|c| c.passed())
    }

    /// Total expectation checks performed / passed.
    pub fn check_counts(&self) -> (usize, usize) {
        let total: usize = self.cells.iter().map(|c| c.checks.len()).sum();
        let passed = self
            .cells
            .iter()
            .flat_map(|c| &c.checks)
            .filter(|c| c.passed())
            .count();
        (total, passed)
    }

    /// The human-facing markdown summary `k2 matrix` prints.
    pub fn render_markdown(&self) -> String {
        let mut s = String::new();
        writeln!(s, "# conformance matrix").unwrap();
        let (total, passed) = self.check_counts();
        writeln!(
            s,
            "\n{} cells, digest `{:016x}`, {}/{} expectation checks passed\n",
            self.cells.len(),
            self.digest,
            passed,
            total
        )
        .unwrap();
        writeln!(
            s,
            "| cell | end state | report | events | choices | oracles | expect |"
        )
        .unwrap();
        writeln!(s, "|---|---|---|---|---|---|---|").unwrap();
        for c in &self.cells {
            let oracles = if c.conservation.is_ok() && c.audit.is_ok() {
                "ok".to_string()
            } else {
                let mut why = Vec::new();
                if let Err(e) = &c.conservation {
                    why.push(format!("conservation: {e}"));
                }
                if let Err(e) = &c.audit {
                    why.push(format!("audit: {e}"));
                }
                format!("FAIL ({})", why.join("; "))
            };
            let expect = if c.checks.is_empty() {
                "-".to_string()
            } else {
                let ok = c.checks.iter().filter(|x| x.passed()).count();
                if ok == c.checks.len() {
                    format!("{ok}/{}", c.checks.len())
                } else {
                    let bad: Vec<String> = c
                        .checks
                        .iter()
                        .filter(|x| !x.passed())
                        .map(|x| format!("{} expected {} got {}", x.metric, x.expected, x.actual))
                        .collect();
                    format!("{ok}/{} FAIL: {}", c.checks.len(), bad.join("; "))
                }
            };
            writeln!(
                s,
                "| {} | `{:016x}` | `{:016x}` | {} | {} | {} | {} |",
                c.coord.id(),
                c.end_fp,
                c.report_fp,
                c.events,
                c.choice_points,
                oracles,
                expect
            )
            .unwrap();
        }
        s
    }

    /// The machine-facing JSON-lines form (one compact object per cell,
    /// then a `summary` object), streamed through the deterministic
    /// [`JsonWriter`].
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for c in &self.cells {
            let mut w = JsonWriter::compact(&mut out);
            w.begin_object();
            w.key("cell");
            w.str(&c.coord.id());
            w.key("scenario");
            w.str(&c.coord.scenario);
            w.key("seed");
            w.u64(c.coord.seed);
            w.key("preset");
            w.str(&c.coord.preset);
            w.key("chooser");
            w.str(&c.coord.chooser.label());
            w.key("sink");
            w.str(c.coord.sink.label());
            w.key("end_fp");
            w.str(&format!("{:016x}", c.end_fp));
            w.key("report_fp");
            w.str(&format!("{:016x}", c.report_fp));
            w.key("events");
            w.u64(c.events);
            w.key("choice_points");
            w.u64(c.choice_points);
            w.key("conservation");
            w.bool(c.conservation.is_ok());
            w.key("audit");
            w.bool(c.audit.is_ok());
            w.key("checks");
            w.begin_array();
            for x in &c.checks {
                w.begin_object();
                w.key("metric");
                w.str(&x.metric);
                w.key("expected");
                w.str(&x.expected);
                w.key("actual");
                w.str(&x.actual);
                w.key("passed");
                w.bool(x.passed());
                w.end_object();
            }
            w.end_array();
            w.key("passed");
            w.bool(c.passed());
            w.end_object();
            w.finish();
            out.push('\n');
        }
        let (total, passed) = self.check_counts();
        let mut w = JsonWriter::compact(&mut out);
        w.begin_object();
        w.key("summary");
        w.begin_object();
        w.key("cells");
        w.u64(self.cells.len() as u64);
        w.key("digest");
        w.str(&format!("{:016x}", self.digest));
        w.key("checks_total");
        w.u64(total as u64);
        w.key("checks_passed");
        w.u64(passed as u64);
        w.key("passed");
        w.bool(self.passed());
        w.end_object();
        w.end_object();
        w.finish();
        out.push('\n');
        out
    }
}

/// FNV-1a over the cells' canonical summary lines, in index order.
fn digest(cells: &[CellOutcome]) -> u64 {
    let mut h = Fnv64::new();
    for c in cells {
        h.bytes(c.summary_line().as_bytes()).bytes(b"\n");
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl;

    fn tiny_spec(walks: u64, lite: bool, workers: usize) -> MatrixSpec {
        let def = dsl::builtin::load("mail-race");
        MatrixSpec {
            defs: vec![def],
            seeds: vec![2014],
            walks,
            lite,
            workers,
        }
    }

    #[test]
    fn cell_order_is_canonical_and_ids_unique() {
        let spec = tiny_spec(1, true, 1);
        let cells = spec.cells();
        // 1 scenario x 1 seed x 2 presets (none + flaky-mail) x 2
        // choosers x 2 sinks.
        assert_eq!(cells.len(), 8);
        let ids: Vec<String> = cells.iter().map(|c| c.id()).collect();
        let mut dedup = ids.clone();
        dedup.dedup();
        assert_eq!(ids, dedup);
        assert_eq!(ids[0], "mail-race:2014:none:baseline:full");
    }

    #[test]
    fn lite_and_full_cells_agree_on_end_state() {
        let out = tiny_spec(0, true, 1).run();
        assert_eq!(out.cells.len(), 4);
        for pair in out.cells.chunks(2) {
            assert_eq!(pair[0].coord.sink, SinkKind::Full);
            assert_eq!(pair[1].coord.sink, SinkKind::Lite);
            assert_eq!(pair[0].end_fp, pair[1].end_fp, "{}", pair[0].coord.id());
            assert_ne!(pair[0].report_fp, 0);
            assert_eq!(pair[1].report_fp, Fnv64::new().finish());
        }
    }
}
