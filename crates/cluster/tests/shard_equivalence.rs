//! Shard/flat replay equivalence: one rack IS the flat engine.
//!
//! The hierarchy's determinism argument (DESIGN.md §14) rests on a
//! reduction: a sharded campaign is the flat [`clip_core::EpochEngine`]
//! run once per rack, interleaved by the arbiter. This suite pins the base
//! case of that reduction bit for bit:
//!
//! - a **1-rack** [`ShardedFleet`] campaign produces the *same trace
//!   bytes* (same FNV-1a hash) and the *same serialized
//!   `FaultRunReport`* as `run_with_faults` on the equivalent flat
//!   cluster — rack 0 keeps the campaign seed, one rack gets the whole
//!   budget, and `split_faults` is the identity at one rack;
//! - a **multi-rack** campaign with slack-shifting disabled
//!   (`shift_fraction = 0`) decomposes rack by rack into independent flat
//!   runs on each rack's seed, grant and fault slice — exercising the
//!   parallel execute path against a purely sequential oracle.

use clip_core::{
    run_sharded, run_with_faults, ClipScheduler, FaultHarnessConfig, InflectionPredictor,
    PowerScheduler, ShardConfig,
};
use clip_obs::{NoopRecorder, RingSink, TraceRecorder};
use cluster_sim::{Cluster, FaultPlan, RackTopology, ShardedFleet, VariabilityModel};
use proptest::prelude::*;
use simkit::{Power, SimRng};
use workload::suite;

const EPOCHS: usize = 4;
const ITERS: usize = 1;

/// One shared predictor for all cases (training is the expensive part).
fn predictor() -> &'static InflectionPredictor {
    #[expect(
        clippy::disallowed_types,
        reason = "a test-only cache of a deterministic computation; every reader sees the same value"
    )]
    static PRED: std::sync::OnceLock<InflectionPredictor> = std::sync::OnceLock::new();
    PRED.get_or_init(|| InflectionPredictor::train_default(5))
}

/// The seed's fault plan over `nodes` global indices — both sides of the
/// equivalence derive their faults through this one function.
fn seeded_faults(seed: u64, nodes: usize) -> FaultPlan {
    let mut rng = SimRng::seed_from_u64(seed);
    FaultPlan::random(&mut rng, nodes, EPOCHS)
}

/// Flat oracle: `run_with_faults` on one traced cluster. Returns the
/// trace JSONL and the serialized report.
fn flat_run(seed: u64, nodes: usize, budget: Power) -> (String, String) {
    let faults = seeded_faults(seed, nodes);
    let mut cluster = Cluster::with_variability(nodes, &VariabilityModel::default(), seed);
    let mut sched = ClipScheduler::new(predictor().clone());
    let mut rec = TraceRecorder::new(RingSink::new(8192));
    let report = run_with_faults(
        &mut sched,
        &mut cluster,
        &suite::comd(),
        budget,
        &faults,
        &FaultHarnessConfig {
            epochs: EPOCHS,
            iterations_per_epoch: ITERS,
        },
        &mut rec,
    );
    let sink = rec.finish();
    assert_eq!(sink.dropped(), 0, "ring must hold the whole run");
    let report_json = serde_json::to_string(&report).expect("reports serialize");
    (sink.to_jsonl(), report_json)
}

/// Sharded run over `topo` with per-rack tracing. Returns each rack's
/// (trace JSONL, report JSON) in rack order.
fn sharded_run(
    seed: u64,
    topo: RackTopology,
    budget: Power,
    shift_fraction: f64,
    workers: Option<usize>,
) -> Vec<(String, String)> {
    let fleet = ShardedFleet::with_variability(topo, &VariabilityModel::default(), seed);
    let faults = seeded_faults(seed, topo.total_nodes());
    let cfg = ShardConfig {
        epochs: EPOCHS,
        iterations_per_epoch: ITERS,
        shift_fraction,
        workers,
        shuffle_seed: None,
    };
    let recorders: Vec<TraceRecorder<RingSink>> = (0..topo.racks())
        .map(|_| TraceRecorder::new(RingSink::new(8192)))
        .collect();
    let (report, recs) = run_sharded(
        fleet,
        |_rack| Box::new(ClipScheduler::new(predictor().clone())) as Box<dyn PowerScheduler + Send>,
        &suite::comd(),
        budget,
        &faults,
        &[],
        &cfg,
        recorders,
        &mut NoopRecorder,
    );
    report
        .racks
        .iter()
        .zip(recs)
        .map(|(rack, rec)| {
            let sink = rec.finish();
            assert_eq!(sink.dropped(), 0, "rack {} ring overflowed", rack.rack);
            let report_json = serde_json::to_string(&rack.report).expect("reports serialize");
            (sink.to_jsonl(), report_json)
        })
        .collect()
}

/// 64-bit FNV-1a — the same fingerprint the trace replay gate pins.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A 1-rack sharded campaign replays the flat engine bit for bit:
    /// same trace bytes (same FNV hash), same serialized report.
    #[test]
    fn one_rack_matches_flat_engine(seed in any::<u64>(), nodes in 2usize..=8) {
        let budget = Power::watts(nodes as f64 * 187.5);
        let (flat_trace, flat_report) = flat_run(seed, nodes, budget);
        let racks = sharded_run(seed, RackTopology::new(1, nodes), budget, 0.5, None);
        prop_assert_eq!(racks.len(), 1);
        let Some((shard_trace, shard_report)) = racks.into_iter().next() else {
            unreachable!("length asserted above");
        };
        prop_assert_eq!(fnv1a(shard_trace.as_bytes()), fnv1a(flat_trace.as_bytes()));
        prop_assert!(shard_trace == flat_trace, "seed {seed}: trace bytes diverged");
        prop_assert!(shard_report == flat_report, "seed {seed}: reports diverged");
    }
}

/// Index translation at the shard boundary: for every topology shape —
/// single rack, single-node racks, uneven last rack — a global node index
/// round-trips through `(rack, local)` and back, and actuation addressed
/// either way lands on the same physical node. This is the regression
/// fence for `Cluster::set_caps`/`plan_subset` callers that cross the
/// boundary: programming rack-local caps slice-by-slice must equal
/// programming the flat fleet with the global vector.
#[test]
fn global_indices_round_trip_through_every_shape() {
    let shapes = [
        RackTopology::new(1, 8),
        RackTopology::new(5, 1),
        RackTopology::new(3, 7),
        RackTopology::with_total(10, 4),
        RackTopology::with_total(13, 5),
        RackTopology::with_total(21, 8),
    ];
    for topo in shapes {
        let n = topo.total_nodes();
        // Round-trip of every index, both directions.
        for g in 0..n {
            let (r, l) = (topo.rack_of(g), topo.local_of(g));
            assert!(l < topo.rack_len(r), "local index within its rack");
            assert_eq!(topo.global_of(r, l), g, "{n}-node topo: index {g}");
        }
        for r in 0..topo.racks() {
            let locals: Vec<usize> = (0..topo.rack_len(r)).collect();
            let globals = topo.globalize(r, &locals);
            for (&l, &g) in locals.iter().zip(&globals) {
                assert_eq!(topo.rack_of(g), r);
                assert_eq!(topo.local_of(g), l);
            }
        }

        // Actuation equivalence: per-node caps programmed rack-by-rack
        // (local indices) equal the flat fleet programmed globally.
        let seed = 7;
        let mut flat = Cluster::with_variability(n, &VariabilityModel::default(), seed);
        let caps: Vec<simnode::PowerCaps> = (0..n)
            .map(|g| simnode::PowerCaps::new(Power::watts(40.0 + g as f64), Power::watts(8.0)))
            .collect();
        flat.set_caps(&caps);
        let fleet = ShardedFleet::with_variability(topo, &VariabilityModel::default(), seed);
        let mut racks = fleet.into_racks();
        for (r, rack) in racks.iter_mut().enumerate() {
            let slice: Vec<simnode::PowerCaps> = (0..topo.rack_len(r))
                .filter_map(|l| caps.get(topo.global_of(r, l)).copied())
                .collect();
            rack.set_caps(&slice);
        }
        for g in 0..n {
            let local_caps = racks
                .get(topo.rack_of(g))
                .map(|rack| rack.node(topo.local_of(g)).caps());
            assert_eq!(
                local_caps,
                Some(flat.node(g).caps()),
                "{n}-node topo: caps at global {g} diverged across the boundary"
            );
        }

        // Fault addressing: killing global g flat equals killing
        // (rack_of, local_of) sharded, for a scatter of indices.
        for g in [0, n / 2, n - 1] {
            let (r, l) = (topo.rack_of(g), topo.local_of(g));
            let Some(rack) = racks.get_mut(r) else {
                continue;
            };
            if rack.alive_len() <= 1 || !rack.is_alive(l) {
                continue; // a rack cannot lose its last alive node
            }
            rack.fail_node(l);
            flat.fail_node(g);
        }
        for g in 0..n {
            let shard_alive = racks
                .get(topo.rack_of(g))
                .map(|rack| rack.is_alive(topo.local_of(g)));
            assert_eq!(shard_alive, Some(flat.is_alive(g)), "aliveness at {g}");
        }
    }
}

/// With slack-shifting off, every rack of a multi-rack campaign is an
/// independent flat run on its own seed, grant and fault slice — and the
/// parallel execute path must leave that decomposition untouched.
#[test]
fn frozen_grants_decompose_rack_by_rack() {
    let seed = 2017;
    let topo = RackTopology::new(3, 4);
    let budget = Power::watts(2400.0);
    let racks = sharded_run(seed, topo, budget, 0.0, Some(3));
    assert_eq!(racks.len(), 3);

    let faults = seeded_faults(seed, topo.total_nodes());
    let rack_plans = cluster_sim::split_faults(&topo, &faults);
    for (r, ((shard_trace, shard_report), plan)) in racks.iter().zip(&rack_plans).enumerate() {
        // Equal-sized racks split the budget evenly; rack r's cluster is
        // seeded by the topology's per-rack stream.
        let grant = Power::watts(budget.as_watts() * (topo.rack_len(r) as f64) / 12.0);
        let mut cluster = Cluster::with_variability(
            topo.rack_len(r),
            &VariabilityModel::default(),
            topo.rack_seed(seed, r),
        );
        let mut sched = ClipScheduler::new(predictor().clone());
        let mut rec = TraceRecorder::new(RingSink::new(8192));
        let flat = run_with_faults(
            &mut sched,
            &mut cluster,
            &suite::comd(),
            grant,
            plan,
            &FaultHarnessConfig {
                epochs: EPOCHS,
                iterations_per_epoch: ITERS,
            },
            &mut rec,
        );
        let sink = rec.finish();
        assert_eq!(sink.dropped(), 0);
        assert_eq!(
            shard_trace,
            &sink.to_jsonl(),
            "rack {r}: trace bytes diverged from the flat oracle"
        );
        let flat_json = serde_json::to_string(&flat).expect("reports serialize");
        assert_eq!(shard_report, &flat_json, "rack {r}: reports diverged");
    }
}
