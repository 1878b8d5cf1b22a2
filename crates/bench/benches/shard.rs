//! Criterion benchmarks for the hierarchy: what does rack-sharding cost —
//! or save — against the flat engine at matched fleet sizes?
//!
//! One group per scale:
//!
//! - `shard_8` — the paper's 8-node testbed, 1×8 sharded vs flat. The
//!   sharded path adds the arbiter, per-epoch grant checks and the rack
//!   bookkeeping (one rack is one part, run on the calling thread); at
//!   one rack this is pure overhead and bounds the abstraction cost.
//! - `shard_256` — 16 racks × 16 nodes vs a 256-node flat cluster. The
//!   flat engine plans one 256-node allocation per re-plan; the sharded
//!   engine plans sixteen 16-node allocations that execute in parallel.
//! - `shard_10k` — 100 racks × 100 nodes vs 10,000 flat, the campaign
//!   scale ROADMAP item 1 targets.
//!
//! The point of sharding is not per-epoch speed at simulator scale — the
//! simulated planner is linear, so one big plan is cheap, while the
//! sharded path pays for 100 small plans and for handing each pool
//! helper its part of the racks every epoch (the threads themselves are
//! started once per campaign).
//! The hierarchy buys per-rack budget arbitration (a *capability*, not a
//! speedup) at a bounded, measured cost; these numbers pin that bound.
//!
//! The `*_traced` rows run the same sharded campaign with one unfiltered
//! [`clip_obs::TraceRecorder`] per rack plus the cluster recorder, all
//! writing binary frames into flight-recorder rings — the always-on
//! telemetry cost at fleet scale.
//!
//! The driver records these numbers in `BENCH_shard.json`.

use clip_bench::HARNESS_SEED;
use clip_core::{
    run_sharded, run_with_faults, ClipScheduler, FaultHarnessConfig, InflectionPredictor,
    PowerScheduler, ShardConfig,
};
use clip_obs::{NoopRecorder, RingSink, TraceRecorder};
use cluster_sim::{Cluster, FaultPlan, RackTopology, ShardedFleet, VariabilityModel};
use criterion::{criterion_group, criterion_main, Criterion};
use simkit::Power;
use std::hint::black_box;
use workload::suite;

const WATTS_PER_NODE: f64 = 175.0;
const EPOCHS: usize = 4;

fn predictor() -> InflectionPredictor {
    InflectionPredictor::train_default(5)
}

fn shard_cfg() -> ShardConfig {
    ShardConfig {
        epochs: EPOCHS,
        iterations_per_epoch: 1,
        shift_fraction: 0.5,
        workers: None,
        shuffle_seed: None,
    }
}

/// One flat campaign over `nodes` nodes.
fn flat_campaign(pred: &InflectionPredictor, nodes: usize) -> f64 {
    let mut cluster = Cluster::with_variability(nodes, &VariabilityModel::default(), HARNESS_SEED);
    let mut sched = ClipScheduler::new(pred.clone());
    let report = run_with_faults(
        &mut sched,
        &mut cluster,
        &suite::comd(),
        Power::watts(nodes as f64 * WATTS_PER_NODE),
        &FaultPlan::empty(),
        &FaultHarnessConfig {
            epochs: EPOCHS,
            iterations_per_epoch: 1,
        },
        &mut NoopRecorder,
    );
    report.mean_performance()
}

/// One sharded campaign over `racks × nodes_per_rack` nodes.
fn sharded_campaign(pred: &InflectionPredictor, racks: usize, nodes_per_rack: usize) -> f64 {
    let topo = RackTopology::new(racks, nodes_per_rack);
    let fleet = ShardedFleet::with_variability(topo, &VariabilityModel::default(), HARNESS_SEED);
    let (report, _) = run_sharded(
        fleet,
        |_rack| Box::new(ClipScheduler::new(pred.clone())) as Box<dyn PowerScheduler + Send>,
        &suite::comd(),
        Power::watts(topo.total_nodes() as f64 * WATTS_PER_NODE),
        &FaultPlan::empty(),
        &[],
        &shard_cfg(),
        (0..racks).map(|_| NoopRecorder).collect(),
        &mut NoopRecorder,
    );
    report.aggregate_performance()
}

/// The same sharded campaign with live tracing: one unfiltered
/// [`TraceRecorder`] over a flight-recorder ring per rack plus one for
/// the cluster arbiter — the cost of leaving telemetry on at fleet scale.
fn sharded_campaign_traced(
    pred: &InflectionPredictor,
    racks: usize,
    nodes_per_rack: usize,
) -> (f64, usize) {
    let topo = RackTopology::new(racks, nodes_per_rack);
    let fleet = ShardedFleet::with_variability(topo, &VariabilityModel::default(), HARNESS_SEED);
    let recorders: Vec<TraceRecorder<RingSink>> = (0..racks)
        .map(|_| TraceRecorder::new(RingSink::new(8192)))
        .collect();
    let mut cluster_rec = TraceRecorder::new(RingSink::new(8192));
    let (report, recs) = run_sharded(
        fleet,
        |_rack| Box::new(ClipScheduler::new(pred.clone())) as Box<dyn PowerScheduler + Send>,
        &suite::comd(),
        Power::watts(topo.total_nodes() as f64 * WATTS_PER_NODE),
        &FaultPlan::empty(),
        &[],
        &shard_cfg(),
        recorders,
        &mut cluster_rec,
    );
    let frames = recs
        .into_iter()
        .chain(std::iter::once(cluster_rec))
        .map(|rec| rec.finish().len())
        .sum();
    (report.aggregate_performance(), frames)
}

fn bench_shard_8(c: &mut Criterion) {
    let pred = predictor();
    let mut group = c.benchmark_group("shard_8");
    group.bench_function("flat", |b| b.iter(|| black_box(flat_campaign(&pred, 8))));
    group.bench_function("sharded_1x8", |b| {
        b.iter(|| black_box(sharded_campaign(&pred, 1, 8)))
    });
    group.bench_function("sharded_1x8_traced", |b| {
        b.iter(|| black_box(sharded_campaign_traced(&pred, 1, 8)))
    });
    group.finish();
}

fn bench_shard_256(c: &mut Criterion) {
    let pred = predictor();
    let mut group = c.benchmark_group("shard_256");
    group.sample_size(10);
    group.bench_function("flat", |b| b.iter(|| black_box(flat_campaign(&pred, 256))));
    group.bench_function("sharded_16x16", |b| {
        b.iter(|| black_box(sharded_campaign(&pred, 16, 16)))
    });
    group.bench_function("sharded_16x16_traced", |b| {
        b.iter(|| black_box(sharded_campaign_traced(&pred, 16, 16)))
    });
    group.finish();
}

fn bench_shard_10k(c: &mut Criterion) {
    let pred = predictor();
    let mut group = c.benchmark_group("shard_10k");
    group.sample_size(10);
    group.bench_function("flat", |b| {
        b.iter(|| black_box(flat_campaign(&pred, 10_000)))
    });
    group.bench_function("sharded_100x100", |b| {
        b.iter(|| black_box(sharded_campaign(&pred, 100, 100)))
    });
    group.finish();
}

criterion_group!(benches, bench_shard_8, bench_shard_256, bench_shard_10k);
criterion_main!(benches);
