//! The four workloads: inputs generated from a seed, and one round of each
//! driven through the library's public entry points.
//!
//! A round is set-up (everything the run needs before its first epoch)
//! followed by the timed epochs. The same function drives the timed
//! round, its cross-check twin and the spanned round, so all three see
//! identical inputs and must produce the same report fingerprint.

use crate::span::{self, engine_tag, Breakdown, Layer, Method, PlanStats, Probe, SpanPolicy};
use crate::span::{SpanRecorder, SpanSink};
use baselines::{AllIn, Coordinated, LowerLimit, Oracle};
use clip_core::service::{run_service, ServiceRunReport, ServiceTimeline};
use clip_core::{
    execute_plan, run_sharded, ClipScheduler, EpochEngine, FaultHarnessConfig, InflectionPredictor,
    PowerScheduler, RackFault, ShardConfig, ShardRunReport,
};
use clip_obs::{BinarySink, NoopRecorder, Recorder, TraceRecorder};
use clip_serve::{ArrivalPlan, ServiceConfig, Tenant};
use cluster_sim::{Cluster, FaultPlan, RackTopology, ShardedFleet, VariabilityModel};
use simkit::{Power, SimRng, TimeSpan};
use std::path::Path;
use std::time::{Duration, Instant};
use workload::{suite, AppModel};

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `run_sharded` over 100 racks x 100 nodes at 2 workers.
    Fleet,
    /// `run_service` with CLIP on the 8-node testbed, untraced.
    Service,
    /// The same service run with every telemetry gate open.
    ServiceTraced,
    /// The `summary_claims` grid: five methods x ten apps x four budgets.
    PaperGrid,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Fleet,
        Workload::Service,
        Workload::ServiceTraced,
        Workload::PaperGrid,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet => "fleet",
            Workload::Service => "service",
            Workload::ServiceTraced => "service_traced",
            Workload::PaperGrid => "paper_grid",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input scale: the benchmark's, or a small one for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured scale.
    Full,
    /// A few epochs on a few nodes.
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

/// How a round drives its workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// The workload as measured, through the public entry points. On
    /// `fleet` each rack's scheduler sits in a [`Probe`], which outside a
    /// span run only marks where set-up ends.
    Timed,
    /// The cross-check: `fleet` at 1 worker, `service` traced and
    /// `service_traced` untraced; `paper_grid` as timed.
    Twin,
    /// Spans around every layer call.
    Spanned,
    /// `fleet` only: spans at 1 worker, for the fan-out's net cost.
    Spanned1w,
}

/// What one round measured and produced.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Host time from the round's start to its first timed epoch.
    pub setup: Duration,
    /// Host time of the timed epochs.
    pub wall: Duration,
    /// The timed epochs' host time, split into the pieces the benchmark
    /// can time from outside: one per grid cell on `paper_grid`, the
    /// whole timed phase elsewhere. The same piece of every round with
    /// the same inputs does the same work.
    pub units: Vec<Duration>,
    /// Which of the run's input sets the round used (see [`input_seed`]).
    pub input: usize,
    /// Host time of the region a spanned round's root span covers.
    pub scope: Duration,
    /// Epochs in the timed phase (grid cells on `paper_grid`).
    pub epochs: u64,
    /// FNV-1a 64 over the serialized report.
    pub fingerprint: u64,
    /// Checks that failed inside the round.
    pub problems: Vec<String>,
    /// Exact counts read off the outputs.
    pub counts: Counts,
    /// Span figures (spanned rounds only).
    pub spans: Option<SpanFigures>,
}

impl Round {
    /// Epochs per second of the timed phase.
    pub fn rate(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall > 0.0 {
            self.epochs as f64 / wall
        } else {
            0.0
        }
    }
}

/// Counts read off a round's outputs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Epochs that re-planned (rack-epochs on `fleet`).
    pub replans: u64,
    /// Epochs the replan ratio is taken over (rack-epochs on `fleet`).
    pub replan_base: u64,
    /// Node iterations executed.
    pub node_iterations: u64,
    /// Service arrivals.
    pub arrivals: u64,
    /// Trace frames written.
    pub frames: u64,
    /// Trace frame bytes written.
    pub bytes: u64,
    /// Trace batches that failed to reach the file.
    pub failed_writes: u64,
    /// Allocations (all threads) in the timed phase, when counting.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

/// What a spanned round recorded.
#[derive(Clone, Debug, Default)]
pub struct SpanFigures {
    /// Self time per layer.
    pub breakdown: Breakdown,
    /// Scheduler-wrapper figures.
    pub plan: PlanStats,
    /// Root-relative nanoseconds at which set-up ended (`fleet`).
    pub setup_end_ns: u64,
    /// Root-relative nanoseconds at which the round's layer calls ended.
    pub end_ns: u64,
    /// The raw spans (kept for the dump of the last round).
    pub spans: Vec<span::Span>,
}

/// The seed whose fingerprints are pinned, and a held-out one.
pub const DEFAULT_SEED: u64 = 2017;
/// Held-out pinned seed.
pub const HELD_OUT_SEED: u64 = 90_210;

/// Input sets a run cycles through. How much work a round does depends on
/// its inputs (on `fleet`, how many racks a seed's faults make re-plan
/// varied two-fold between seeds), so a run measures several input sets
/// drawn from its seed rather than one.
pub const INPUT_SETS: usize = 4;

/// The seed input set `k` of a run at `seed` is generated from; set 0 is
/// `seed` itself.
pub fn input_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64).wrapping_mul(1_000_003))
}

/// Run one round of `workload`. `out` is where a traced round writes its
/// trace file, deleted once checked, so at most one round's trace exists.
pub fn round(workload: Workload, seed: u64, size: Size, variant: Variant, out: &Path) -> Round {
    match workload {
        Workload::Fleet => fleet_round(seed, size, variant),
        Workload::Service | Workload::ServiceTraced => {
            let traced = (workload == Workload::ServiceTraced) != (variant == Variant::Twin);
            service_round(seed, size, traced, variant == Variant::Spanned, out)
        }
        Workload::PaperGrid => grid_round(seed, size, variant == Variant::Spanned),
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn fingerprint<T: serde::Serialize>(value: &T) -> u64 {
    serde_json::to_string(value).map_or(0, |json| fnv1a(json.as_bytes()))
}

/// The failed check, if a report fingerprint differs from the expected one.
pub fn fingerprint_mismatch(found: u64, expect: Option<u64>) -> Option<String> {
    expect
        .filter(|&want| want != found)
        .map(|want| format!("report fnv {found:#018x}, expected {want:#018x}"))
}

/// Counts allocations of the timed phase when the allocator counts.
struct AllocWindow((u64, u64));

impl AllocWindow {
    fn open() -> Self {
        Self(crate::alloc::totals())
    }

    fn close(self, counts: &mut Counts) {
        let (a, b) = crate::alloc::totals();
        counts.allocs = a - self.0 .0;
        counts.alloc_bytes = b - self.0 .1;
    }
}

/// Stop recording and fold the round's spans into its figures.
fn spanned_figures(setup_end: Option<Instant>, end: Instant, round: &mut Round) {
    let end_ns = span::offset_ns(end);
    let setup_end_ns = setup_end.map_or(0, span::offset_ns);
    let spans = span::stop();
    let mut breakdown = Breakdown::default();
    if let Err(e) = breakdown.add(&spans) {
        round.problems.push(format!("spans: {e}"));
    }
    round.spans = Some(SpanFigures {
        breakdown,
        plan: span::take_plan_stats(),
        setup_end_ns,
        end_ns,
        spans,
    });
}

// ---------------------------------------------------------------- fleet

const FLEET_WATTS_PER_NODE: f64 = 175.0;
const FLEET_ITERATIONS: usize = 10;

/// Racks, nodes per rack and coordination epochs of a `fleet` round.
fn fleet_shape(size: Size) -> (usize, usize, usize) {
    match size {
        Size::Full => (100, 100, 60),
        Size::Smoke => (4, 4, 6),
    }
}

fn fleet_round(seed: u64, size: Size, variant: Variant) -> Round {
    let workers = match variant {
        Variant::Twin | Variant::Spanned1w => 1,
        Variant::Timed | Variant::Spanned => 2,
    };
    let spanned = matches!(variant, Variant::Spanned | Variant::Spanned1w);
    let (racks, nodes, epochs) = fleet_shape(size);

    let start = Instant::now();
    let predictor = InflectionPredictor::train_default(seed);
    let topo = RackTopology::new(racks, nodes);
    let budget = Power::watts(topo.total_nodes() as f64 * FLEET_WATTS_PER_NODE);
    let fleet = ShardedFleet::with_variability(topo, &VariabilityModel::default(), seed);
    let mut rng = SimRng::seed_from_u64(seed);
    let faults = FaultPlan::random(&mut rng, topo.total_nodes(), epochs);
    let rack_faults = [RackFault {
        at_epoch: epochs / 2,
        rack: 1,
    }];
    let cfg = ShardConfig {
        epochs,
        iterations_per_epoch: FLEET_ITERATIONS,
        shift_fraction: 0.5,
        workers: Some(workers),
        shuffle_seed: None,
    };
    let app = suite::comd();
    let recorders = vec![NoopRecorder; racks];
    let _ = span::take_setup_end();
    let _ = span::take_plan_stats();

    if spanned {
        span::start();
    }
    let allocs = AllocWindow::open();
    let called = Instant::now();
    let root = span::enter(Layer::Root, 0);
    let hierarchy = span::enter(Layer::Hierarchy, 0);
    let (report, _) = run_sharded(
        fleet,
        |_rack| {
            Box::new(Probe::new(
                Box::new(ClipScheduler::new(predictor.clone())),
                Method::Clip,
            ))
        },
        &app,
        budget,
        &faults,
        &rack_faults,
        &cfg,
        recorders,
        &mut NoopRecorder,
    );
    drop(hierarchy);
    drop(root);
    let end = Instant::now();
    let mark = span::take_setup_end();
    let mut round = Round {
        epochs: epochs as u64,
        ..Round::default()
    };
    // The timed phase starts where the epoch-0 coordination ended.
    let allocs = mark.map_or(allocs, |m| AllocWindow(m.allocs));
    allocs.close(&mut round.counts);
    let setup_end = mark.map(|m| m.at);
    if spanned {
        spanned_figures(setup_end, end, &mut round);
    }
    let setup_end = setup_end.unwrap_or(called);
    round.setup = setup_end.duration_since(start);
    round.wall = end.duration_since(setup_end);
    round.units = vec![round.wall];
    round.scope = end.duration_since(called);
    fleet_checks(&report, &mut round);
    round
}

fn fleet_checks(report: &ShardRunReport, round: &mut Round) {
    round.fingerprint = fingerprint(report);
    for rack in &report.racks {
        for e in &rack.report.epochs {
            round.counts.replan_base += 1;
            round.counts.replans += u64::from(e.replanned);
            round.counts.node_iterations += (e.node_ids.len() * FLEET_ITERATIONS) as u64;
        }
    }
    let granted: f64 = report.racks.iter().map(|r| r.granted.as_watts()).sum();
    if granted > report.budget.as_watts() + 1e-6 {
        round
            .problems
            .push(format!("rack grants {granted} W exceed the bound"));
    }
}

// -------------------------------------------------------------- service

const SERVICE_ENVELOPE_W: f64 = 2400.0;
const SERVICE_RATES: [f64; 3] = [0.35, 0.5, 0.7];

/// Epochs per `service` round.
fn service_epochs(size: Size) -> usize {
    match size {
        Size::Full => 1000,
        Size::Smoke => 24,
    }
}

/// The tenants of `examples/service.rs`.
fn tenants() -> Vec<Tenant> {
    vec![
        Tenant::new("gold", 3, TimeSpan::secs(30.0)),
        Tenant::new("silver", 2, TimeSpan::secs(60.0)),
        Tenant::new("bronze", 1, TimeSpan::secs(120.0)),
    ]
}

fn catalog() -> Vec<AppModel> {
    vec![suite::comd(), suite::amg(), suite::tea_leaf()]
}

fn service_cfg() -> ServiceConfig {
    ServiceConfig {
        min_nodes: 2,
        max_nodes: 8,
        initial_nodes: 4,
        watts_per_node: Power::watts(300.0),
        grow_queue: 2,
        shrink_queue: 0,
        scale_step: 1,
        preempt_grace: 0.05,
        iterations_per_epoch: 2,
    }
}

fn service_round(seed: u64, size: Size, traced: bool, spanned: bool, out: &Path) -> Round {
    let epochs = service_epochs(size);
    let trace_path = out.join(format!("service-{seed}.clpt"));

    let start = Instant::now();
    let predictor = InflectionPredictor::train_default(seed);
    let mut cluster = Cluster::paper_testbed(seed);
    let mut rng = SimRng::seed_from_u64(seed);
    let plan = ArrivalPlan::poisson(&mut rng, &SERVICE_RATES, catalog().len(), epochs, (2, 8));
    let arrivals = plan.events().len() as u64;
    let timeline = ServiceTimeline::new(
        tenants(),
        catalog(),
        plan,
        service_cfg(),
        Power::watts(SERVICE_ENVELOPE_W),
    );
    let app = suite::comd();
    let mut round = Round {
        epochs: epochs as u64,
        ..Round::default()
    };
    let sink = if traced {
        match BinarySink::create(&trace_path) {
            Ok(sink) => Some(sink),
            Err(e) => {
                round.problems.push(format!("trace file: {e}"));
                return round;
            }
        }
    } else {
        None
    };

    let mut clip: Box<dyn PowerScheduler + Send> = Box::new(ClipScheduler::new(predictor));
    if spanned {
        clip = Box::new(Probe::new(clip, Method::Clip));
    }

    let report;
    let setup_end = Instant::now();
    let allocs = AllocWindow::open();
    if spanned {
        span::start();
        let root = span::enter(Layer::Root, 0);
        report = match sink {
            Some(sink) => {
                let rec = SpanRecorder(TraceRecorder::new(SpanSink::new(sink)));
                let (report, rec) =
                    drive_phases(&mut *clip, &mut cluster, &app, timeline, epochs, rec);
                let _obs = span::enter(Layer::ObsRecord, 0);
                let sink = rec.0.finish();
                round.counts.frames = sink.frames;
                round.counts.bytes = sink.bytes;
                round.counts.failed_writes = sink.inner.failed_writes();
                if let Err(e) = sink.inner.close() {
                    round.problems.push(format!("trace close: {e}"));
                }
                report
            }
            None => {
                drive_phases(
                    &mut *clip,
                    &mut cluster,
                    &app,
                    timeline,
                    epochs,
                    NoopRecorder,
                )
                .0
            }
        };
        drop(root);
        let end = Instant::now();
        round.wall = end.duration_since(setup_end);
        spanned_figures(None, end, &mut round);
    } else {
        report = match sink {
            Some(sink) => {
                let mut rec = TraceRecorder::new(sink);
                let report =
                    run_service(&mut *clip, &mut cluster, &app, timeline, epochs, &mut rec);
                let sink = rec.finish();
                round.counts.failed_writes = sink.failed_writes();
                if let Err(e) = sink.close() {
                    round.problems.push(format!("trace close: {e}"));
                }
                report
            }
            None => run_service(
                &mut *clip,
                &mut cluster,
                &app,
                timeline,
                epochs,
                &mut NoopRecorder,
            ),
        };
        round.wall = setup_end.elapsed();
    }
    allocs.close(&mut round.counts);
    round.setup = setup_end.duration_since(start);
    round.units = vec![round.wall];
    round.scope = round.wall;

    if traced {
        check_trace(&trace_path, &mut round);
    }
    round.counts.arrivals = arrivals;
    service_checks(&report, &mut round);
    round
}

/// `run_service`, spelled out as the engine phases `EpochEngine::run`
/// calls, with a span around each call.
fn drive_phases<R: Recorder>(
    clip: &mut dyn PowerScheduler,
    cluster: &mut Cluster,
    app: &AppModel,
    timeline: ServiceTimeline,
    epochs: usize,
    rec: R,
) -> (ServiceRunReport, R) {
    let cfg = FaultHarnessConfig {
        epochs,
        iterations_per_epoch: service_cfg().iterations_per_epoch,
    };
    let mut policy = SpanPolicy(timeline);
    let mut engine = EpochEngine::new(policy.0.grant(), rec);
    let begin = span::enter(Layer::Engine, engine_tag::BEGIN);
    let mut state = engine.begin_run(clip, cluster, app, &mut policy, &cfg);
    drop(begin);
    for epoch in 0..cfg.epochs {
        let prepare = span::enter(Layer::Engine, engine_tag::PREPARE);
        let prep = engine.prepare_epoch(&mut state, clip, cluster, app, &mut policy, epoch);
        drop(prepare);
        let execute = span::enter(Layer::Execute, 0);
        let report = engine.execute(
            cluster,
            state.staged().unwrap_or(app),
            &state.plan,
            cfg.iterations_per_epoch,
        );
        drop(execute);
        let _settle = span::enter(Layer::Engine, engine_tag::SETTLE);
        engine.settle_epoch(&mut state, prep, &report, &mut policy, epoch);
    }
    let finish = span::enter(Layer::Engine, engine_tag::FINISH);
    let engine_report = engine.finish_run(state, clip, cluster);
    drop(finish);
    let report = ServiceRunReport {
        engine: engine_report,
        service: policy.0.into_report(),
    };
    (report, engine.into_recorder())
}

/// Decode the round's trace file frame by frame, then delete it so the
/// next round's set-up creates a fresh file instead of truncating this one.
fn check_trace(path: &Path, round: &mut Round) {
    match std::fs::read(path) {
        Ok(bytes) => match count_frames(&bytes) {
            Ok(frames) => {
                if round.spans.is_some() && frames != round.counts.frames {
                    round.problems.push(format!(
                        "trace holds {frames} frames, sink saw {}",
                        round.counts.frames
                    ));
                }
                round.counts.frames = frames;
            }
            Err(e) => round.problems.push(format!("trace decode: {e:?}")),
        },
        Err(e) => round.problems.push(format!("trace read: {e}")),
    }
    let _ = std::fs::remove_file(path);
    if round.counts.failed_writes > 0 {
        round.problems.push(format!(
            "{} trace batches failed to write",
            round.counts.failed_writes
        ));
    }
}

/// Frames in a binary trace stream, each decoded and checksummed.
fn count_frames(bytes: &[u8]) -> Result<u64, clip_obs::WireError> {
    let mut rest = clip_obs::wire::strip_stream_header(bytes)?;
    let mut frames = 0;
    while !rest.is_empty() {
        rest = clip_obs::wire::decode_frame(rest)?.1;
        frames += 1;
    }
    Ok(frames)
}

fn service_checks(report: &ServiceRunReport, round: &mut Round) {
    round.fingerprint = fingerprint(report);
    let iterations = service_cfg().iterations_per_epoch;
    for e in &report.engine.epochs {
        round.counts.replan_base += 1;
        round.counts.replans += u64::from(e.replanned);
        round.counts.node_iterations += (e.node_ids.len() * iterations) as u64;
    }
    if report.service.jobs.len() as u64 != round.counts.arrivals {
        round.problems.push(format!(
            "{} of {} arrivals reported",
            report.service.jobs.len(),
            round.counts.arrivals
        ));
    }
}

// ----------------------------------------------------------- paper grid

const GRID_BUDGETS_W: [f64; 4] = [900.0, 1200.0, 1600.0, 2000.0];
const GRID_ITERATIONS: usize = 2;

fn grid_shape(size: Size) -> (usize, Vec<f64>) {
    match size {
        Size::Full => (10, GRID_BUDGETS_W.to_vec()),
        Size::Smoke => (2, vec![900.0, 2000.0]),
    }
}

fn grid_round(seed: u64, size: Size, spanned: bool) -> Round {
    let (n_apps, budgets) = grid_shape(size);

    let start = Instant::now();
    let predictor = InflectionPredictor::train_default(seed);
    let testbed = Cluster::paper_testbed(seed);
    let methods: [(Method, Box<dyn PowerScheduler + Send>); 5] = [
        (Method::AllIn, Box::new(AllIn)),
        (Method::LowerLimit, Box::new(LowerLimit::default())),
        (Method::Coordinated, Box::new(Coordinated::new())),
        (Method::Clip, Box::new(ClipScheduler::new(predictor))),
        (Method::Oracle, Box::new(Oracle::default())),
    ];
    let mut methods: Vec<Box<dyn PowerScheduler + Send>> = methods
        .into_iter()
        .map(|(m, s)| -> Box<dyn PowerScheduler + Send> {
            if spanned {
                Box::new(Probe::new(s, m))
            } else {
                s
            }
        })
        .collect();
    let apps: Vec<AppModel> = workload::table2_suite()
        .into_iter()
        .take(n_apps)
        .map(|e| e.app)
        .collect();
    let mut cells = Vec::with_capacity(budgets.len() * apps.len() * methods.len());
    let mut units = Vec::with_capacity(cells.capacity());
    let setup_end = Instant::now();

    let allocs = AllocWindow::open();
    if spanned {
        span::start();
    }
    let root = span::enter(Layer::Root, 0);
    for &watts in &budgets {
        let budget = Power::watts(watts);
        for app in &apps {
            for method in methods.iter_mut() {
                let cell_start = Instant::now();
                let mut planning = testbed.clone();
                let plan = method.plan(&mut planning, app, budget);
                let mut execution = testbed.clone();
                let execute = span::enter(Layer::Execute, 0);
                let report = execute_plan(
                    &mut execution,
                    app,
                    &plan,
                    GRID_ITERATIONS,
                    0,
                    &mut NoopRecorder,
                );
                drop(execute);
                units.push(cell_start.elapsed());
                cells.push((budget, plan, report));
            }
        }
    }
    drop(root);
    let end = Instant::now();
    let mut round = Round {
        setup: setup_end.duration_since(start),
        wall: end.duration_since(setup_end),
        units,
        scope: end.duration_since(setup_end),
        epochs: cells.len() as u64,
        ..Round::default()
    };
    allocs.close(&mut round.counts);
    if spanned {
        spanned_figures(None, end, &mut round);
    }

    let mut hash = Vec::new();
    for (budget, plan, report) in &cells {
        if !plan.within_budget(*budget) {
            round.problems.push(format!(
                "{} exceeded {:.0} W on {}",
                plan.scheduler,
                budget.as_watts(),
                report.app_name
            ));
        }
        round.counts.node_iterations += (plan.nodes() * GRID_ITERATIONS) as u64;
        hash.extend_from_slice(&fingerprint(&(plan, report)).to_le_bytes());
    }
    round.fingerprint = fnv1a(&hash);
    round
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn out_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("clipbench-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap_or_default();
        dir
    }

    /// Every variant of a smoke-size round passes its checks and
    /// reproduces the timed round's report; spanned rounds' self times
    /// add up to their wall time.
    fn smoke(workload: Workload, variants: &[Variant]) {
        let out = out_dir(workload.name());
        let timed = round(workload, 7, Size::Smoke, Variant::Timed, &out);
        assert_eq!(timed.problems, Vec::<String>::new());
        assert!(timed.epochs > 0 && timed.fingerprint != 0);
        for &variant in variants {
            let r = round(workload, 7, Size::Smoke, variant, &out);
            assert_eq!(r.problems, Vec::<String>::new(), "{variant:?}");
            assert_eq!(r.fingerprint, timed.fingerprint, "{variant:?}");
            let spanned = matches!(variant, Variant::Spanned | Variant::Spanned1w);
            assert_eq!(r.spans.is_some(), spanned, "{variant:?}");
            if let Some(f) = r.spans.as_ref() {
                let b = &f.breakdown;
                let total: u64 = Layer::ALL.iter().map(|&l| b.layer_ns(l)).sum();
                assert_eq!(total, b.wall_ns);
                assert!(b.layer_count(Layer::Plan) > 0);
            }
        }
        let _ = std::fs::remove_dir_all(out);
    }

    #[test]
    fn fleet_runs_at_smoke_size() {
        smoke(
            Workload::Fleet,
            &[Variant::Twin, Variant::Spanned, Variant::Spanned1w],
        );
    }

    #[test]
    fn service_runs_at_smoke_size() {
        smoke(Workload::Service, &[Variant::Twin, Variant::Spanned]);
    }

    #[test]
    fn service_traced_runs_at_smoke_size() {
        smoke(Workload::ServiceTraced, &[Variant::Twin, Variant::Spanned]);
        let r = round(
            Workload::ServiceTraced,
            7,
            Size::Smoke,
            Variant::Spanned,
            &out_dir("traced-frames"),
        );
        assert!(r.counts.frames > 0 && r.counts.bytes > 0);
        assert_eq!(r.counts.failed_writes, 0);
    }

    #[test]
    fn paper_grid_runs_at_smoke_size() {
        smoke(Workload::PaperGrid, &[Variant::Twin, Variant::Spanned]);
    }

    #[test]
    fn a_perturbed_report_fails_the_fingerprint_check() {
        let out = out_dir("perturbed");
        let r = round(Workload::Service, 7, Size::Smoke, Variant::Timed, &out);
        // Rebuild the round's report through the same entry point.
        let epochs = service_epochs(Size::Smoke);
        let mut rng = SimRng::seed_from_u64(7);
        let plan = ArrivalPlan::poisson(&mut rng, &SERVICE_RATES, catalog().len(), epochs, (2, 8));
        let timeline = ServiceTimeline::new(
            tenants(),
            catalog(),
            plan,
            service_cfg(),
            Power::watts(SERVICE_ENVELOPE_W),
        );
        let mut clip = ClipScheduler::new(InflectionPredictor::train_default(7));
        let mut report = run_service(
            &mut clip,
            &mut Cluster::paper_testbed(7),
            &suite::comd(),
            timeline,
            epochs,
            &mut NoopRecorder,
        );
        assert_eq!(
            fingerprint_mismatch(fingerprint(&report), Some(r.fingerprint)),
            None
        );

        if let Some(e) = report.engine.epochs.last_mut() {
            e.measured_power += Power::watts(1e-9);
        }
        assert!(fingerprint_mismatch(fingerprint(&report), Some(r.fingerprint)).is_some());
        assert_eq!(fingerprint_mismatch(fingerprint(&report), None), None);
        let _ = std::fs::remove_dir_all(out);
    }
}
