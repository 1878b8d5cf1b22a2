//! Criterion benchmarks for the [`clip_core::EpochEngine`] abstraction
//! cost: the unified scheduler stack must not tax the hot path.
//!
//! Three questions, one per group:
//!
//! 1. `epoch_execute` — does wrapping [`clip_core::execute_plan`] in
//!    `EpochEngine::execute` cost anything with the [`NoopRecorder`]?
//!    (It must not: the recorder is a generic parameter, so every hook
//!    compiles away.)
//! 2. `epoch_execute/engine_traced` — what does live tracing into an
//!    in-memory ring actually cost per epoch?
//! 3. `fault_run` — the full multi-epoch harness (coordinate → actuate →
//!    audit → record, 8 epochs), untraced vs traced.
//!
//! The driver records these numbers in `BENCH_engine.json`.

use clip_bench::{clip_scheduler, HARNESS_SEED};
use clip_core::{execute_plan, EpochEngine, FaultHarnessConfig, PowerScheduler, SteadyState};
use clip_obs::{NoopRecorder, RingSink, TraceRecorder};
use cluster_sim::Cluster;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use simkit::Power;
use std::hint::black_box;
use workload::suite;

const BUDGET_W: f64 = 1400.0;

fn bench_epoch_execute(c: &mut Criterion) {
    let mut group = c.benchmark_group("epoch_execute");
    let app = suite::lu_mz();
    let budget = Power::watts(BUDGET_W);
    let plan = {
        let mut cluster = Cluster::paper_testbed(HARNESS_SEED);
        clip_scheduler().plan(&mut cluster, &app, budget)
    };

    // The pre-engine hot path: the bare actuate-and-run primitive.
    group.bench_function("raw_execute_plan", |b| {
        b.iter_batched(
            || Cluster::paper_testbed(HARNESS_SEED),
            |mut cluster| {
                black_box(execute_plan(
                    &mut cluster,
                    &app,
                    &plan,
                    2,
                    0,
                    &mut NoopRecorder,
                ))
            },
            BatchSize::SmallInput,
        );
    });

    // Same work through the engine with the no-op recorder. A fresh
    // engine's job memo is empty, so every iteration is a miss: any gap
    // here is abstraction cost plus the memo's first fill.
    group.bench_function("engine_noop", |b| {
        b.iter_batched(
            || Cluster::paper_testbed(HARNESS_SEED),
            |mut cluster| {
                let mut engine = EpochEngine::new(budget, NoopRecorder);
                black_box(engine.execute(&mut cluster, &app, &plan, 2))
            },
            BatchSize::SmallInput,
        );
    });

    // Live tracing into a flight-recorder ring: the cost of leaving
    // telemetry on.
    group.bench_function("engine_traced", |b| {
        b.iter_batched(
            || Cluster::paper_testbed(HARNESS_SEED),
            |mut cluster| {
                let mut engine = EpochEngine::new(budget, TraceRecorder::new(RingSink::new(256)));
                let report = engine.execute(&mut cluster, &app, &plan, 2);
                black_box((report, engine.into_recorder().finish().len()))
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_fault_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_run");
    group.sample_size(20);
    let app = suite::amg();
    let budget = Power::watts(BUDGET_W);
    let cfg = FaultHarnessConfig::default(); // 8 epochs × 2 iterations

    group.bench_function("engine_noop", |b| {
        b.iter_batched(
            || (Cluster::paper_testbed(HARNESS_SEED), clip_scheduler()),
            |(mut cluster, mut sched)| {
                let mut engine = EpochEngine::new(budget, NoopRecorder);
                black_box(engine.run(&mut sched, &mut cluster, &app, &mut SteadyState, &cfg))
            },
            BatchSize::SmallInput,
        );
    });

    group.bench_function("engine_traced", |b| {
        b.iter_batched(
            || (Cluster::paper_testbed(HARNESS_SEED), clip_scheduler()),
            |(mut cluster, mut sched)| {
                let mut engine = EpochEngine::new(budget, TraceRecorder::new(RingSink::new(4096)));
                let report = engine.run(&mut sched, &mut cluster, &app, &mut SteadyState, &cfg);
                black_box((report, engine.into_recorder().finish().len()))
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_epoch_execute, bench_fault_run);
criterion_main!(benches);
