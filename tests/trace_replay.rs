//! Trace determinism: the observability layer is a pure observer.
//!
//! Two promises are pinned here:
//!
//! 1. **Byte-identical traces.** Identical seeded runs serialize to the
//!    same JSONL bytes — not just equivalent events, the same bytes. This
//!    is what makes `clip-trace diff` meaningful: any byte difference
//!    between two traces is a behavioural difference, never serialization
//!    noise.
//! 2. **The recorder never changes the run.** Instrumented and
//!    uninstrumented executions of the same `(seed, FaultPlan)` produce
//!    identical `FaultRunReport`s — attaching a recorder must not perturb
//!    a single allocation, cap, or epoch.
//!
//! Golden FNV-1a hashes pin the exact trace bytes of one fixed-seed run,
//! both its JSONL export and its binary frames, so an accidental event
//! reorder, field rename, tag change or float-formatting change shows up
//! as a test failure rather than silently invalidating archived traces.

use clip_core::{
    run_with_faults, ClipScheduler, EpochEngine, FaultHarnessConfig, FaultTimeline,
    InflectionPredictor, PowerScheduler,
};
use clip_obs::{NoopRecorder, RingSink, TraceRecorder};
use cluster_sim::{Cluster, FaultPlan, VariabilityModel};
use proptest::prelude::*;
use simkit::{Power, SimRng};
use workload::suite;

/// One shared predictor for all cases (training is the expensive part).
fn predictor() -> &'static InflectionPredictor {
    use std::sync::OnceLock;
    static PRED: OnceLock<InflectionPredictor> = OnceLock::new();
    PRED.get_or_init(|| InflectionPredictor::train_default(5))
}

fn harness_cfg() -> FaultHarnessConfig {
    FaultHarnessConfig {
        epochs: 4,
        iterations_per_epoch: 1,
    }
}

/// Run a seeded fault run with tracing and return (trace JSONL, report JSON).
fn traced_run(seed: u64, scheduler: &mut dyn PowerScheduler) -> (String, String) {
    let (sink, report_json) = traced_sink(seed, scheduler);
    (sink.to_jsonl(), report_json)
}

/// The same traced run, returning the ring of binary frames itself.
fn traced_sink(seed: u64, scheduler: &mut dyn PowerScheduler) -> (RingSink, String) {
    let mut rng = SimRng::seed_from_u64(seed);
    let faults = FaultPlan::random(&mut rng, 8, 4);
    let mut cluster = Cluster::with_variability(8, &VariabilityModel::default(), seed);
    let mut rec = TraceRecorder::new(RingSink::new(8192));
    let report = run_with_faults(
        scheduler,
        &mut cluster,
        &suite::comd(),
        Power::watts(1500.0),
        &faults,
        &harness_cfg(),
        &mut rec,
    );
    let sink = rec.finish();
    assert_eq!(sink.dropped(), 0, "ring must be large enough for the run");
    let report_json = serde_json::to_string(&report).expect("reports serialize");
    (sink, report_json)
}

/// The same run with the no-op recorder.
fn untraced_run(seed: u64, scheduler: &mut dyn PowerScheduler) -> String {
    let mut rng = SimRng::seed_from_u64(seed);
    let faults = FaultPlan::random(&mut rng, 8, 4);
    let mut cluster = Cluster::with_variability(8, &VariabilityModel::default(), seed);
    let report = run_with_faults(
        scheduler,
        &mut cluster,
        &suite::comd(),
        Power::watts(1500.0),
        &faults,
        &harness_cfg(),
        &mut NoopRecorder,
    );
    serde_json::to_string(&report).expect("reports serialize")
}

/// 64-bit FNV-1a — tiny, dependency-free, stable across platforms.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Identical seeded runs produce byte-identical JSONL traces.
    #[test]
    fn identical_seeds_give_byte_identical_traces(seed in any::<u64>()) {
        let (trace_a, _) = traced_run(seed, &mut ClipScheduler::new(predictor().clone()));
        let (trace_b, _) = traced_run(seed, &mut ClipScheduler::new(predictor().clone()));
        prop_assert!(trace_a == trace_b, "seed {seed} traces diverged");
        prop_assert!(!trace_a.is_empty(), "a traced run must emit events");
    }

    /// Attaching a recorder never changes what the scheduler does: the
    /// instrumented report equals the uninstrumented one bit-for-bit.
    #[test]
    fn recorder_never_changes_the_run(seed in any::<u64>()) {
        let (_, traced) = traced_run(seed, &mut ClipScheduler::new(predictor().clone()));
        let untraced = untraced_run(seed, &mut ClipScheduler::new(predictor().clone()));
        prop_assert!(traced == untraced,
            "seed {seed}: recorder perturbed the run\ntraced:   {traced}\nuntraced: {untraced}");
    }
}

/// Driving the engine directly with a [`FaultTimeline`] policy is the
/// same code path as [`run_with_faults`] — the harness entry point is a
/// pure convenience wrapper, byte for byte.
#[test]
fn engine_with_fault_timeline_matches_run_with_faults() {
    let mut rng = SimRng::seed_from_u64(77);
    let faults = FaultPlan::random(&mut rng, 8, 4);
    let mut cluster = Cluster::with_variability(8, &VariabilityModel::default(), 77);
    let mut sched = ClipScheduler::new(predictor().clone());
    let report = EpochEngine::new(Power::watts(1500.0), &mut NoopRecorder).run(
        &mut sched,
        &mut cluster,
        &suite::comd(),
        &mut FaultTimeline::new(&faults),
        &harness_cfg(),
    );
    let via_engine = serde_json::to_string(&report).expect("reports serialize");
    let plain = untraced_run(77, &mut ClipScheduler::new(predictor().clone()));
    assert_eq!(via_engine, plain);
}

/// The traced engine path reproduces the wrapper's trace bytes exactly,
/// not just its report: equivalence holds at the event-emission level.
#[test]
fn engine_trace_bytes_match_run_with_faults_trace() {
    let seed = 41;
    let (wrapper_trace, _) = traced_run(seed, &mut ClipScheduler::new(predictor().clone()));

    let mut rng = SimRng::seed_from_u64(seed);
    let faults = FaultPlan::random(&mut rng, 8, 4);
    let mut cluster = Cluster::with_variability(8, &VariabilityModel::default(), seed);
    let mut sched = ClipScheduler::new(predictor().clone());
    let mut rec = TraceRecorder::new(RingSink::new(8192));
    let _ = EpochEngine::new(Power::watts(1500.0), &mut rec).run(
        &mut sched,
        &mut cluster,
        &suite::comd(),
        &mut FaultTimeline::new(&faults),
        &harness_cfg(),
    );
    let sink = rec.finish();
    assert_eq!(sink.dropped(), 0);
    assert_eq!(sink.to_jsonl(), wrapper_trace);
}

/// Class-filtered recording stays deterministic under parallel execution:
/// the same seed with the same `TraceFilter` yields byte-identical binary
/// frames whether the racks run sequentially, on two workers, or
/// one-per-core — and filtering actually drops records (the filtered
/// trace is a strict subset of the unfiltered one).
#[test]
fn filtered_sharded_frames_are_identical_across_worker_counts() {
    use clip_core::{run_sharded, RackFault, ShardConfig};
    use clip_obs::{EventClass, TraceFilter};
    use cluster_sim::{RackTopology, ShardedFleet};

    fn campaign(workers: Option<usize>, filter: TraceFilter) -> (Vec<u8>, usize) {
        let seed = 31;
        let topo = RackTopology::new(4, 3);
        let fleet = ShardedFleet::with_variability(topo, &VariabilityModel::default(), seed);
        let mut rng = SimRng::seed_from_u64(seed);
        let faults = FaultPlan::random(&mut rng, topo.total_nodes(), 5);
        let cfg = ShardConfig {
            epochs: 5,
            iterations_per_epoch: 1,
            shift_fraction: 0.5,
            workers,
            shuffle_seed: None,
        };
        let recorders: Vec<TraceRecorder<RingSink>> = (0..topo.racks())
            .map(|_| TraceRecorder::with_filter(RingSink::new(8192), filter))
            .collect();
        let mut cluster_rec = TraceRecorder::with_filter(RingSink::new(8192), filter);
        let (_, recs) = run_sharded(
            fleet,
            |_rack| Box::new(ClipScheduler::new(predictor().clone())),
            &suite::comd(),
            Power::watts(2200.0),
            &faults,
            &[RackFault {
                at_epoch: 2,
                rack: 3,
            }],
            &cfg,
            recorders,
            &mut cluster_rec,
        );
        let mut frames = Vec::new();
        let mut records = 0;
        for rec in recs.into_iter().chain(std::iter::once(cluster_rec)) {
            let sink = rec.finish();
            assert_eq!(sink.dropped(), 0, "ring overflowed");
            records += sink.len();
            for frame in sink.frames() {
                frames.extend_from_slice(frame);
            }
        }
        (frames, records)
    }

    let filter = TraceFilter::only(EventClass::Scheduler).with(EventClass::Shard);
    let (frames_1, n_1) = campaign(Some(1), filter);
    assert!(n_1 > 0, "a filtered campaign must still emit events");
    for workers in [Some(2), None] {
        let (frames_n, n_n) = campaign(workers, filter);
        assert_eq!(
            (frames_1.as_slice(), n_1),
            (frames_n.as_slice(), n_n),
            "filtered frames diverged at workers={workers:?}"
        );
    }
    let (_, n_all) = campaign(Some(1), TraceFilter::ALL);
    assert!(
        n_1 < n_all,
        "filter must drop records: {n_1} filtered vs {n_all} unfiltered"
    );
}

/// Golden pin of the exact trace bytes for seed 41.
///
/// If this fails after an *intentional* trace-schema change (new event,
/// field rename, reordered emission), re-pin by printing the new values:
/// the assertion message carries the fresh hash and line count — update
/// `GOLDEN_FNV`/`GOLDEN_LINES` to match and note the schema change in the
/// commit. Archived traces from before the change will no longer diff
/// cleanly against new ones.
#[test]
fn golden_trace_hash_for_seed_41() {
    const GOLDEN_FNV: u64 = 0x69ba_cea6_1f97_cf21;
    const GOLDEN_LINES: usize = 96;
    let (trace, _) = traced_run(41, &mut ClipScheduler::new(predictor().clone()));
    let hash = fnv1a(trace.as_bytes());
    let lines = trace.lines().count();
    assert_eq!(
        (hash, lines),
        (GOLDEN_FNV, GOLDEN_LINES),
        "trace bytes changed: new hash {hash:#018x}, {lines} lines"
    );
}

/// Golden pin of the same run's binary frames, concatenated in order.
///
/// The JSONL pin above sees the wire format only through a decode, so an
/// encoder and decoder that drift together leave it green. This one pins
/// the bytes a `BinarySink` would write after its stream header.
#[test]
fn golden_frame_hash_for_seed_41() {
    const GOLDEN_FRAMES_FNV: u64 = 0xfe53_31d0_8ae2_51c3;
    const GOLDEN_FRAMES_LEN: usize = 3395;
    let (sink, _) = traced_sink(41, &mut ClipScheduler::new(predictor().clone()));
    let frames: Vec<u8> = sink.frames().flatten().copied().collect();
    let hash = fnv1a(&frames);
    assert_eq!(
        (hash, frames.len()),
        (GOLDEN_FRAMES_FNV, GOLDEN_FRAMES_LEN),
        "frame bytes changed: new hash {hash:#018x} over {} bytes",
        frames.len()
    );
}
