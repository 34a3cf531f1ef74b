//! The benchmark's only door into the program.
//!
//! Every call the benchmark makes into `k2-check`, `k2`, `k2-kernel` or
//! `k2-sim` is made from this file, and the rest of the benchmark sees
//! only the plain types defined here. When the program's API changes
//! (for example, when compiled `.k2.md` scenarios replace the
//! `Scenario` enum, or the `run_*` variants collapse into one), this is
//! the one file to adapt.
//!
//! Pinned thread counts: every fleet runs with `workers = 1`, every
//! campaign with `threads(1)` and the matrix with `workers = 1`, so
//! `K2CHECK_THREADS` in the environment cannot change a run.

use k2::system::{K2Machine, K2System, SystemSnapshot};
use k2_check::corpus::DEFAULT_CAPACITY;
use k2_check::dsl::{self, CompiledScenario, ScenarioDef};
use k2_check::fleet::{warmed_snapshot, FleetReport, FleetSpec, HUB_PORT};
use k2_check::matrix::{ChooserKind, MatrixOutcome, SinkKind};
use k2_check::{
    chooser_of, run_fleet_from, schedule_fingerprint, Baseline, Campaign, CampaignReport, Corpus,
    FaultSpec, MatrixSpec, RandomWalk, Recorder, RunOptions, RunOutcome, Scenario, Schedule,
    SchedulePolicy, Strategy,
};
use k2_kernel::net::{EgressDatagram, InFlight, MachineAddr, NetFabric, Port};
use k2_sim::explore::ScheduleChooser;
use k2_sim::json::JsonWriter;
use k2_sim::span::TraceCtx;
use k2_sim::time::{SimDuration, SimTime};

/// Parses one `.k2.md` source (`dsl::parse`).
pub fn parse_def(src: &str) -> Result<Def, String> {
    dsl::parse(src).map(Def).map_err(|e| e.to_string())
}

/// The scenario names of the CI conformance matrix, in its order (the
/// order its digest is defined over).
pub fn ci_matrix_scenarios() -> Vec<String> {
    MatrixSpec::ci().defs.into_iter().map(|d| d.name).collect()
}

/// The names of the four grid scenarios campaigns explore.
pub fn campaign_scenarios() -> Vec<&'static str> {
    Scenario::ALL.iter().map(|s| s.name()).collect()
}

/// A parsed scenario file.
#[derive(Clone)]
pub struct Def(ScenarioDef);

impl Def {
    /// The scenario's name.
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// True for a single-machine grid/steps scenario (neither a paper
    /// evaluation nor a fleet).
    pub fn is_grid(&self) -> bool {
        !self.0.is_eval() && !self.0.is_fleet()
    }

    /// The `expect` rows that apply to the fault-free preset at `seed`.
    pub fn expectations(&self, seed: u64) -> Vec<(String, String)> {
        self.0.expectations("none", seed)
    }
}

// ----------------------------------------------------------------------
// Fleets
// ----------------------------------------------------------------------

/// A runnable fleet: the spec compiled from a `k2 fleet` block, with the
/// thread count pinned. The span sink is the file's (`disabled` unless
/// the file says otherwise).
#[derive(Clone)]
pub struct Fleet(FleetSpec);

impl Fleet {
    /// Compiles the `k2 fleet` block of `def` under `seed`.
    pub fn compile(def: &Def, seed: u64) -> Result<Fleet, String> {
        let fleet = def
            .0
            .fleet
            .as_ref()
            .ok_or_else(|| format!("`{}` has no `k2 fleet` block", def.name()))?;
        let mut spec = fleet.spec(seed);
        spec.workers = 1;
        Ok(Fleet(spec))
    }

    /// The same fleet shrunk to `devices` devices, `hubs` hubs and
    /// `epochs` epochs (the self-test size).
    pub fn shrunk(&self, devices: u32, hubs: u32, epochs: u32) -> Fleet {
        let mut spec = self.0.clone();
        spec.devices = devices;
        spec.hubs = hubs;
        spec.epochs = epochs;
        Fleet(spec)
    }

    /// A copy whose sync period lies far past the horizon, so devices
    /// bind a socket and sleep: every machine-epoch is visited with
    /// (almost) nothing to do.
    pub fn idle_copy(&self) -> Fleet {
        let mut spec = self.0.clone();
        spec.period = SimDuration::from_secs(3_600);
        Fleet(spec)
    }

    /// Hubs plus devices.
    pub fn machines(&self) -> u32 {
        self.0.machines()
    }

    /// Epochs per run.
    pub fn epochs(&self) -> u32 {
        self.0.epochs
    }

    /// Runs the fleet from `image` (`run_fleet_from`).
    pub fn run(&self, image: &Image) -> FleetRun {
        FleetRun(run_fleet_from(&self.0, &image.0))
    }

    /// A fabric with this fleet's seed, size and fabric parameters.
    pub fn fabric(&self) -> Fabric {
        Fabric(
            NetFabric::builder(self.0.seed, self.0.machines())
                .latency(self.0.latency_min, self.0.latency_max)
                .loss(self.0.loss)
                .reorder(self.0.reorder)
                .build(),
            Vec::new(),
        )
    }

    /// Epoch length in simulated nanoseconds.
    pub fn epoch_ns(&self) -> u64 {
        self.0.epoch.as_ns()
    }

    /// Hub count (machines `0..hubs` are hubs).
    pub fn hubs(&self) -> u32 {
        self.0.hubs
    }
}

/// A frozen system image that machines are forked from.
pub struct Image(SystemSnapshot);

/// Boots one machine, runs the fleet warm-up and freezes it
/// (`fleet::warmed_snapshot`).
pub fn freeze_fleet_image() -> Image {
    Image(warmed_snapshot())
}

/// Boots the scenario harness's system and freezes it post-boot
/// (`Scenario::boot_snapshot`).
pub fn freeze_boot_image() -> Image {
    Image(Scenario::boot_snapshot())
}

/// A forked machine, alive until dropped.
pub struct Machine {
    _pair: (K2Machine, K2System),
}

/// Forks one machine from `image` (`K2System::fork`).
pub fn fork(image: &Image) -> Machine {
    Machine {
        _pair: K2System::fork(&image.0),
    }
}

/// One fleet run's report.
pub struct FleetRun(FleetReport);

impl FleetRun {
    /// The report's value for an `expect` metric name.
    pub fn metric(&self, name: &str) -> Option<u64> {
        self.0.metric(name)
    }

    /// The deterministic text report (digests included).
    pub fn render(&self) -> String {
        self.0.render()
    }

    /// Machine events, summed over the fleet.
    pub fn events(&self) -> u64 {
        self.0.events
    }

    /// Fabric and workload counts.
    pub fn counts(&self) -> FleetCounts {
        let r = &self.0;
        FleetCounts {
            routed: r.routed,
            delivered: r.delivered,
            dropped: r.dropped,
            unroutable: r.unroutable,
            reordered: r.reordered,
            in_flight_end: r.in_flight_end as u64,
            dev_sent: r.dev_sent,
            dev_acks: r.dev_acks,
            hub_handled: r.hub_handled,
        }
    }

    /// The fleet sim digest.
    pub fn digest(&self) -> u64 {
        self.0.digest
    }
}

/// The counts a fleet report carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FleetCounts {
    pub routed: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub unroutable: u64,
    pub reordered: u64,
    pub in_flight_end: u64,
    pub dev_sent: u64,
    pub dev_acks: u64,
    pub hub_handled: u64,
}

/// A `NetFabric` driven directly, for the route microbenchmark.
pub struct Fabric(NetFabric, Vec<InFlight>);

/// One datagram ready to route: `(source, egress)`.
pub struct Datagram(MachineAddr, EgressDatagram);

impl Datagram {
    /// A 64-byte sync datagram from machine `src` to machine `dst`.
    pub fn new(src: u32, dst: u32) -> Datagram {
        Datagram(
            MachineAddr(src as u16),
            EgressDatagram {
                dst: MachineAddr(dst as u16),
                dst_port: HUB_PORT,
                src_port: Port(1),
                payload: vec![0; 64],
                trace: TraceCtx::NONE,
            },
        )
    }
}

impl Fabric {
    /// Routes `batch` at simulated time `now_ns` (`NetFabric::route`).
    pub fn route_all(&mut self, now_ns: u64, batch: Vec<Datagram>) {
        let now = SimTime::from_ns(now_ns);
        for Datagram(src, d) in batch {
            std::hint::black_box(self.0.route(now, src, d));
        }
    }

    /// Takes everything due by `until_ns` out of the fabric
    /// (`NetFabric::take_due`) and returns how many were due.
    pub fn take_due(&mut self, until_ns: u64) -> usize {
        self.1.clear();
        self.0.take_due(SimTime::from_ns(until_ns), &mut self.1);
        std::hint::black_box(&self.1);
        self.1.len()
    }

    /// Datagrams routed so far.
    pub fn routed(&self) -> u64 {
        self.0.stats().routed
    }
}

// ----------------------------------------------------------------------
// Single-machine scenarios
// ----------------------------------------------------------------------

/// A compiled grid scenario plus the hand-written driver the campaign
/// explores (the `Scenario` enum variant of the same name).
#[derive(Clone)]
pub struct Grid {
    def: Def,
    compiled: CompiledScenario,
    scenario: Scenario,
}

impl Grid {
    /// Compiles `def` and binds it to the campaign driver of its name.
    pub fn compile(def: &Def) -> Result<Grid, String> {
        let compiled = def
            .0
            .compile()
            .map_err(|e| format!("{}: {e}", def.name()))?;
        let scenario = Scenario::ALL
            .into_iter()
            .find(|s| s.name() == def.name())
            .ok_or_else(|| format!("`{}` has no campaign driver", def.name()))?;
        Ok(Grid {
            def: def.clone(),
            compiled,
            scenario,
        })
    }

    /// The scenario's name.
    pub fn name(&self) -> &str {
        self.def.name()
    }

    /// True for the three scenarios whose end state must not depend on
    /// the schedule; false for the planted mail-race bug.
    pub fn well_behaved(&self) -> bool {
        Scenario::WELL_BEHAVED.contains(&self.scenario)
    }
}

/// Which campaign search strategy to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Search {
    CoverageGuided,
    Random,
}

/// One campaign's report.
pub struct CampaignRun(CampaignReport);

impl CampaignRun {
    /// Schedules run, baseline included.
    pub fn schedules(&self) -> u64 {
        u64::from(self.0.runs)
    }

    /// Oracle violations found.
    pub fn failures(&self) -> usize {
        self.0.failures.len()
    }

    /// Corpus digest at the end.
    pub fn corpus_digest(&self) -> u64 {
        self.0.corpus_digest
    }

    /// The rendered report (byte-identical on a repeat).
    pub fn render(&self) -> String {
        self.0.render_json()
    }
}

/// Runs a serial campaign over `grid` (`Campaign::run`, `threads(1)`).
pub fn campaign(grid: &Grid, search: Search, seed: u64, budget: u32) -> CampaignRun {
    let strategy = match search {
        Search::CoverageGuided => Strategy::CoverageGuided,
        Search::Random => Strategy::Random,
    };
    CampaignRun(
        Campaign::new(grid.scenario, strategy, seed)
            .budget(budget)
            .threads(1)
            .run(),
    )
}

/// Observability level of a single-machine run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sink {
    /// `RunOptions::full()`: boot-default span sink and rendered report.
    Full,
    /// `RunOptions::coverage()`: full span sink, no report.
    Coverage,
    /// `RunOptions::lite()`: disabled span sink, no report.
    Lite,
}

impl Sink {
    fn options(self) -> RunOptions {
        match self {
            Sink::Full => RunOptions::full(),
            Sink::Coverage => RunOptions::coverage(),
            Sink::Lite => RunOptions::lite(),
        }
    }
}

/// A schedule chooser, optionally recording its decisions.
pub struct Chooser {
    recorder: Option<Recorder>,
    walk: Option<(u64, u64)>,
}

impl Chooser {
    /// No chooser installed: the queue's own tie-break.
    pub fn none() -> Chooser {
        Chooser {
            recorder: None,
            walk: None,
        }
    }

    /// A seeded random walk on `stream` (`RandomWalk`), unrecorded.
    pub fn walk(seed: u64, stream: u64) -> Chooser {
        Chooser {
            recorder: None,
            walk: Some((seed, stream)),
        }
    }

    /// A seeded random walk recorded through a `Recorder`.
    pub fn recorded_walk(seed: u64, stream: u64) -> Chooser {
        Chooser {
            recorder: Some(Recorder::new()),
            walk: Some((seed, stream)),
        }
    }

    /// The `Baseline` policy recorded through a `Recorder` (how a
    /// campaign runs its reference schedule).
    pub fn recorded_baseline() -> Chooser {
        Chooser {
            recorder: Some(Recorder::new()),
            walk: None,
        }
    }

    fn install(&self) -> Option<ScheduleChooser> {
        let policy: Box<dyn SchedulePolicy> = match (self.walk, &self.recorder) {
            (Some((seed, stream)), _) => Box::new(RandomWalk::new(seed, stream)),
            (None, Some(_)) => Box::new(Baseline),
            (None, None) => return None,
        };
        Some(match &self.recorder {
            Some(r) => r.chooser(policy),
            None => chooser_of(policy),
        })
    }
}

/// One single-machine run's outcome.
pub struct ScheduleRun(RunOutcome);

impl ScheduleRun {
    /// Machine events processed.
    pub fn events(&self) -> u64 {
        self.0.events
    }

    /// Choice points hit.
    pub fn choice_points(&self) -> u64 {
        self.0.choice_points
    }

    /// Whether conservation and the invariant audit held.
    pub fn oracles_hold(&self) -> bool {
        self.0.conservation.is_ok() && self.0.audit.is_ok()
    }
}

/// Runs `grid` forked from `image` under `fault`, `chooser` and `sink`
/// (`CompiledScenario::run_forked`). The chooser's recorder keeps the
/// decisions for [`fingerprint`].
pub fn run_forked(
    grid: &Grid,
    image: &Image,
    fault: &Fault,
    chooser: &Chooser,
    sink: Sink,
) -> ScheduleRun {
    ScheduleRun(
        grid.compiled
            .run_forked(&image.0, &fault.0, chooser.install(), sink.options()),
    )
}

/// The schedule fingerprint of a recorded run (`schedule_fingerprint`)
/// and its trimmed trace.
pub fn fingerprint(chooser: &Chooser, run: &ScheduleRun) -> (u64, Trace) {
    let recorder = chooser
        .recorder
        .as_ref()
        .expect("fingerprints need a recorded chooser");
    let recorded = recorder.schedule();
    let fp = schedule_fingerprint(
        &recorder.class_trace(),
        recorded.decisions(),
        run.0.span_shape,
    );
    (fp, Trace(recorded.trimmed()))
}

/// A recorded, trimmed schedule.
pub struct Trace(Schedule);

/// A campaign corpus driven directly (`Corpus`).
pub struct Pool(Corpus);

impl Pool {
    /// An empty corpus at the campaign's default capacity.
    pub fn new() -> Pool {
        Pool(Corpus::new(DEFAULT_CAPACITY))
    }

    /// Records the baseline fingerprint without admitting its trace.
    pub fn mark_seen(&mut self, fp: u64) {
        self.0.mark_seen(fp);
    }

    /// `Corpus::observe`.
    pub fn observe(&mut self, fp: u64, trace: &Trace) -> bool {
        self.0.observe(fp, &trace.0)
    }

    /// `Corpus::digest`.
    pub fn digest(&self) -> u64 {
        self.0.digest()
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::new()
    }
}

/// A fault envelope.
pub struct Fault(FaultSpec);

/// The fault-free envelope.
pub fn no_faults() -> Fault {
    Fault(FaultSpec::none())
}

/// The stream the campaign's random strategy uses for run `index`.
pub fn walk_stream(index: u32) -> u64 {
    1_000 + u64::from(index)
}

// ----------------------------------------------------------------------
// Conformance matrix
// ----------------------------------------------------------------------

/// The CI conformance matrix over a set of scenario files.
pub struct Matrix {
    spec: MatrixSpec,
}

/// One matrix run's outcome.
pub struct MatrixRun(MatrixOutcome);

impl MatrixRun {
    /// `(cell id, passed)` for every cell, in matrix order.
    pub fn cells(&self) -> Vec<(String, bool)> {
        self.0
            .cells
            .iter()
            .map(|c| (c.coord.id(), c.passed()))
            .collect()
    }

    /// Machine events, summed over the cells.
    pub fn events(&self) -> u64 {
        self.0.cells.iter().map(|c| c.events).sum()
    }

    /// The matrix digest.
    pub fn digest(&self) -> u64 {
        self.0.digest
    }

    /// One summary line per cell, in order (byte-identical on a repeat).
    pub fn render(&self) -> String {
        let mut rendered = String::new();
        for c in &self.0.cells {
            rendered.push_str(&c.summary_line());
            rendered.push('\n');
        }
        rendered
    }
}

impl Matrix {
    /// `MatrixSpec::ci()` over `defs` instead of the embedded copies,
    /// with `workers = 1`.
    pub fn ci(defs: &[Def]) -> Matrix {
        let mut spec = MatrixSpec::ci();
        spec.defs = defs.iter().map(|d| d.0.clone()).collect();
        spec.workers = 1;
        Matrix { spec }
    }

    /// Restricts the seed axis (the self-test size).
    pub fn with_seeds(mut self, seeds: &[u64]) -> Matrix {
        self.spec.seeds = seeds.to_vec();
        self
    }

    /// Runs the whole matrix (`MatrixSpec::run`).
    pub fn run(&self) -> MatrixRun {
        MatrixRun(self.spec.run())
    }

    /// Every cell as a runnable `(scenario, fault, chooser, sink)` plan,
    /// in matrix order, for timing the cells one by one.
    pub fn cells(&self, grids: &[Grid]) -> Result<Vec<Cell>, String> {
        self.spec
            .cells()
            .into_iter()
            .map(|c| {
                let grid = grids
                    .iter()
                    .position(|g| g.name() == c.scenario)
                    .ok_or_else(|| format!("cell {} names no compiled scenario", c.id()))?;
                let fault = grids[grid]
                    .def
                    .0
                    .fault_spec(&c.preset, c.seed)
                    .ok_or_else(|| format!("cell {} names no preset", c.id()))?;
                let walk = match c.chooser {
                    ChooserKind::Baseline => None,
                    ChooserKind::Walk(n) => Some((c.seed, n)),
                };
                let sink = match c.sink {
                    SinkKind::Full => Sink::Full,
                    SinkKind::Lite => Sink::Lite,
                };
                Ok(Cell {
                    grid,
                    fault: Fault(fault),
                    walk,
                    sink,
                })
            })
            .collect()
    }
}

/// One matrix cell, ready to run through [`run_forked`].
pub struct Cell {
    /// Index into the grid list passed to [`Matrix::cells`].
    pub grid: usize,
    /// The cell's fault envelope.
    pub fault: Fault,
    walk: Option<(u64, u64)>,
    /// The cell's sink.
    pub sink: Sink,
}

impl Cell {
    /// A fresh chooser for this cell, installed as the matrix does.
    pub fn chooser(&self) -> Chooser {
        match self.walk {
            Some((seed, n)) => Chooser::walk(seed, n),
            None => Chooser::none(),
        }
    }
}

// ----------------------------------------------------------------------
// Trace export
// ----------------------------------------------------------------------

/// A compact JSON writer over `out` (`k2_sim::json::JsonWriter`).
pub fn json_writer(out: &mut String) -> JsonWriter<'_, String> {
    JsonWriter::compact(out)
}
