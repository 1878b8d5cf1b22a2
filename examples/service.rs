//! Serving under a power bound: an open-loop multi-tenant campaign.
//!
//! ROADMAP item 2 run end to end: three tenants (gold/silver/bronze, with
//! priorities and latency SLOs) submit seeded Poisson arrival streams
//! against a power-bounded cluster. At every epoch boundary the service
//! policy (`clip_core::service::ServiceTimeline`) screens each arrival
//! with a holistic power-feasibility trial solved by the *run's own
//! scheduler*, preempts a running job when a higher-priority tenant has
//! starved past its grace window, and autoscales its node pool — every
//! grant/reserve re-split zero-sum audited through `BudgetLedger`.
//!
//! The same arrival plan is replayed under CLIP and all four baselines,
//! reporting per-tenant latency percentiles (p50/p95/p99) and SLO
//! attainment — the service-level metrics the paper's time-to-solution
//! numbers cannot capture.
//!
//! A second phase scales out: `run_sharded_service` drives one service
//! per rack under the cluster-level budget arbiter, with node faults and
//! a whole-rack crash mid-campaign. The run prints an FNV-1a fingerprint
//! over the serialized shard + service reports; `scripts/check.sh`
//! runs the smoke variant at 1 and 4 worker threads and fails unless
//! each prints its pinned fingerprint.
//!
//!   cargo run --release --example service -- [--smoke] [--threads N] [--trace FILE]

use baselines::{AllIn, Coordinated, LowerLimit, Oracle};
use clip_core::service::{run_service, ServiceTimeline};
use clip_core::{
    run_sharded_service, ClipScheduler, InflectionPredictor, PowerScheduler, RackFault, ShardConfig,
};
use clip_obs::{BinarySink, Recorder, TraceRecorder};
use clip_serve::{ArrivalPlan, ServiceConfig, ServiceReport, Tenant};
use cluster_sim::{Cluster, FaultPlan, RackTopology, ShardedFleet, VariabilityModel};
use simkit::{Power, SimRng, TimeSpan};
use workload::{suite, AppModel};

const SEED: u64 = 2017;
const ENVELOPE_W: f64 = 2400.0;

/// 64-bit FNV-1a over the serialized reports: the campaign fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The three tenants: priority up, SLO down. SLOs are sized to the
/// testbed's ~2-4 s epochs.
fn tenants() -> Vec<Tenant> {
    vec![
        Tenant::new("gold", 3, TimeSpan::secs(30.0)),
        Tenant::new("silver", 2, TimeSpan::secs(60.0)),
        Tenant::new("bronze", 1, TimeSpan::secs(120.0)),
    ]
}

/// The service job catalog (indices referenced by arrival events).
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

/// Per-tenant Poisson arrival streams over `epochs` boundaries, seeded.
fn arrival_plan(seed: u64, epochs: usize) -> ArrivalPlan {
    let mut rng = SimRng::seed_from_u64(seed);
    ArrivalPlan::poisson(&mut rng, &[0.35, 0.5, 0.7], catalog().len(), epochs, (2, 8))
}

fn timeline(epochs: usize) -> ServiceTimeline {
    ServiceTimeline::new(
        tenants(),
        catalog(),
        arrival_plan(SEED, epochs),
        service_cfg(),
        Power::watts(ENVELOPE_W),
    )
}

fn pct(v: Option<f64>) -> String {
    v.map_or_else(|| "    -".to_string(), |x| format!("{x:5.1}"))
}

/// One scheduler's service run on a fresh testbed, plus its table.
fn run_one(
    scheduler: &mut dyn PowerScheduler,
    epochs: usize,
    rec: &mut impl Recorder,
) -> ServiceReport {
    let mut cluster = Cluster::paper_testbed(7);
    let report = run_service(
        scheduler,
        &mut cluster,
        &suite::comd(),
        timeline(epochs),
        epochs,
        rec,
    );
    report.service
}

fn print_report(name: &str, report: &ServiceReport) {
    println!("== {name} ==");
    println!(
        "{:<8} {:>4} {:>7} {:>5} {:>4} {:>4} {:>4} {:>5} {:>6} {:>6} {:>6} {:>6}",
        "tenant",
        "prio",
        "SLO(s)",
        "subm",
        "adm",
        "rej",
        "pre",
        "done",
        "p50",
        "p95",
        "p99",
        "SLO%"
    );
    for t in &report.tenants {
        println!(
            "{:<8} {:>4} {:>7.0} {:>5} {:>4} {:>4} {:>4} {:>5} {:>6} {:>6} {:>6} {:>6}",
            t.tenant.name,
            t.tenant.priority,
            t.tenant.slo.as_secs(),
            t.submitted,
            t.admitted,
            t.rejected,
            t.preemptions,
            t.completed,
            pct(t.latency_percentile(50.0)),
            pct(t.latency_percentile(95.0)),
            pct(t.latency_percentile(99.0)),
            t.slo_attainment()
                .map_or_else(|| "   -".to_string(), |a| format!("{:5.1}", a * 100.0)),
        );
    }
    let done = report.completed();
    let attain = report
        .overall_slo_attainment()
        .map_or_else(|| "-".to_string(), |a| format!("{:.1}%", a * 100.0));
    println!(
        "overall SLO attainment ({name}): {attain} ({done}/{} admitted, {} scalings, final pool {})\n",
        report.jobs.len() - report.tenants.iter().map(|t| t.rejected).sum::<usize>(),
        report.pool_scalings,
        report.final_pool,
    );
}

/// Phase 2: one service per rack under the budget arbiter, node faults
/// and a whole-rack crash included. Returns the fingerprint input.
fn sharded_service(smoke: bool, threads: Option<usize>) -> String {
    let (topo, epochs) = if smoke {
        (RackTopology::new(3, 8), 8)
    } else {
        (RackTopology::new(6, 8), 24)
    };
    let budget = Power::watts(topo.racks() as f64 * ENVELOPE_W);
    let fleet = ShardedFleet::with_variability(topo, &VariabilityModel::default(), SEED);
    let mut rng = SimRng::seed_from_u64(SEED);
    let faults = FaultPlan::random(&mut rng, topo.total_nodes(), epochs);
    let rack_faults = [RackFault {
        at_epoch: epochs / 2,
        rack: 1,
    }];
    let cfg = ShardConfig {
        epochs,
        iterations_per_epoch: service_cfg().iterations_per_epoch,
        shift_fraction: 0.5,
        workers: threads,
        shuffle_seed: None,
    };
    let services: Vec<ServiceTimeline> = (0..topo.racks())
        .map(|r| {
            let mut prng = SimRng::seed_from_u64(SEED ^ (r as u64 + 1));
            let plan = ArrivalPlan::poisson(
                &mut prng,
                &[0.35, 0.5, 0.7],
                catalog().len(),
                epochs,
                (2, 8),
            );
            ServiceTimeline::new(
                tenants(),
                catalog(),
                plan,
                service_cfg(),
                budget / topo.racks() as f64,
            )
        })
        .collect();

    let predictor = InflectionPredictor::train_default(5);
    let (report, services, _recorders) = run_sharded_service(
        fleet,
        |_rack| Box::new(ClipScheduler::new(predictor.clone())),
        &suite::comd(),
        budget,
        &faults,
        &rack_faults,
        &cfg,
        Some(services),
        (0..topo.racks()).map(|_| clip_obs::NoopRecorder).collect(),
        &mut clip_obs::NoopRecorder,
    );

    let submitted: usize = services.iter().flatten().map(|s| s.jobs.len()).sum();
    let completed: usize = services
        .iter()
        .flatten()
        .map(ServiceReport::completed)
        .sum();
    let met: usize = services
        .iter()
        .flatten()
        .flat_map(|s| s.tenants.iter())
        .map(|t| t.slo_met)
        .sum();
    println!(
        "sharded service: {} racks x {} nodes, {} epochs, {:.0} W bound",
        topo.racks(),
        topo.rack_len(0),
        epochs,
        budget.as_watts()
    );
    println!("  survivors         : {} nodes", report.survivors);
    println!("  jobs submitted    : {submitted} across racks");
    println!("  jobs completed    : {completed} ({met} met their SLO)");

    let shard_json = serde_json::to_string(&report).expect("shard reports serialize");
    let services_json = serde_json::to_string(&services).expect("service reports serialize");
    format!("{shard_json}{services_json}")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok());
    let trace = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let epochs = if smoke { 12 } else { 40 };

    println!(
        "open-loop service: 3 tenants, {} epochs, {:.0} W envelope, seed {SEED}\n",
        epochs, ENVELOPE_W
    );

    // Optional traced CLIP run first: the full decision narrative —
    // arrivals, admissions, rejections, preemptions, pool scalings, SLO
    // verdicts — lands in a binary trace for clip-trace to digest.
    if let Some(path) = trace {
        let sink = BinarySink::create(&path).expect("open trace file");
        let mut rec = TraceRecorder::new(sink);
        let mut clip = ClipScheduler::new(InflectionPredictor::train_default(5));
        let _ = run_one(&mut clip, epochs, &mut rec);
        let sink = rec.finish();
        sink.close().expect("flush trace file");
        println!("trace written to {path}\n");
    }

    // CLIP vs the four baselines on the identical arrival plan.
    let predictor = InflectionPredictor::train_default(5);
    let mut methods: Vec<Box<dyn PowerScheduler>> = vec![
        Box::new(ClipScheduler::new(predictor.clone())),
        Box::new(AllIn),
        Box::new(LowerLimit::default()),
        Box::new(Coordinated::new()),
        Box::new(Oracle::default()),
    ];
    for m in methods.iter_mut() {
        let report = run_one(m.as_mut(), epochs, &mut clip_obs::NoopRecorder);
        let name = m.name().to_string();
        print_report(&name, &report);
    }

    // Scale out: one service per rack under the budget arbiter.
    let fingerprint_input = sharded_service(smoke, threads);
    println!(
        "  report fnv        : {:#018x} ({} bytes)",
        fnv1a(fingerprint_input.as_bytes()),
        fingerprint_input.len()
    );
}
