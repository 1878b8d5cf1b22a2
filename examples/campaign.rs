//! A day on a power-bounded cluster: run the whole Table II campaign
//! back-to-back under one site budget.
//!
//! Exercises the knowledge database the way the paper's application
//! execution module does (§IV-B3): the first encounter with each
//! application triggers smart profiling; re-submissions hit the cache. The
//! example runs every benchmark twice, persists the database to JSON
//! between "days", and reports campaign-level statistics.
//!
//! Run with: `cargo run --release --example campaign`
//!
//! A second mode scales the campaign out to ROADMAP item 1's fleet:
//! `--shard` runs a seeded hierarchical campaign — rack-level
//! [`clip_core::EpochEngine`]s under the cluster-level
//! [`clip_core::BudgetArbiter`] — over 100 racks × 100 nodes for
//! 10 epochs × 10 iterations under a single 1.75 MW bound, with node
//! faults and a whole-rack crash along the way. Every Table II app's
//! decompositions stop at 8 nodes, so CLIP plans at most 8 nodes per rack
//! and the run executes 79,600 of the nominal million node-iterations; it
//! prints both counts, the executed one summed over the report's
//! per-epoch plans. It also prints an FNV-1a fingerprint of the serialized
//! [`clip_core::ShardRunReport`]; `scripts/check.sh` runs the smoke and
//! the full-size variant at 1 and 4 worker threads and fails unless each
//! prints its pinned fingerprint.
//!
//!   cargo run --release --example campaign -- --shard [--smoke] [--threads N]

use clip_core::{
    execute_plan, run_sharded, ClipScheduler, InflectionPredictor, KnowledgeDb, PowerScheduler,
    RackFault, ShardConfig,
};
use cluster_sim::{Cluster, FaultPlan, RackTopology, ShardedFleet, VariabilityModel};
use simkit::stats::geomean;
use simkit::table::Table;
use simkit::{Power, SimRng};
use workload::suite::{self, table2_suite};

/// 64-bit FNV-1a over the serialized report: the campaign's fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The sharded fleet campaign (`--shard`): smoke = 4×4 nodes, full =
/// 100×100. Deterministic in everything but wall time.
fn sharded_campaign(smoke: bool, threads: Option<usize>) {
    const SEED: u64 = 2017;
    const WATTS_PER_NODE: f64 = 175.0;
    let (topo, epochs, iterations) = if smoke {
        (RackTopology::new(4, 4), 4, 2)
    } else {
        (RackTopology::new(100, 100), 10, 10)
    };
    let budget = Power::watts(topo.total_nodes() as f64 * WATTS_PER_NODE);
    let fleet = ShardedFleet::with_variability(topo, &VariabilityModel::default(), SEED);
    let mut rng = SimRng::seed_from_u64(SEED);
    let faults = FaultPlan::random(&mut rng, topo.total_nodes(), epochs);
    // One whole rack dies mid-campaign; the arbiter hands its watts to the
    // survivors the same epoch.
    let rack_faults = [RackFault {
        at_epoch: epochs / 2,
        rack: 1,
    }];
    let cfg = ShardConfig {
        epochs,
        iterations_per_epoch: iterations,
        shift_fraction: 0.5,
        workers: threads,
        shuffle_seed: None,
    };

    // One predictor trained once; every rack's scheduler clones it.
    let predictor = InflectionPredictor::train_default(5);
    let started = std::time::Instant::now();
    let (report, _) = run_sharded(
        fleet,
        |_rack| Box::new(ClipScheduler::new(predictor.clone())),
        &suite::comd(),
        budget,
        &faults,
        &rack_faults,
        &cfg,
        (0..topo.racks()).map(|_| clip_obs::NoopRecorder).collect(),
        &mut clip_obs::NoopRecorder,
    );
    let elapsed = started.elapsed();

    let crashed: Vec<usize> = report
        .racks
        .iter()
        .filter(|r| r.crashed_at.is_some())
        .map(|r| r.rack)
        .collect();
    let reclaimed: f64 = report.racks.iter().map(|r| r.reclaimed.as_watts()).sum();
    let executed: usize = report
        .racks
        .iter()
        .flat_map(|r| &r.report.epochs)
        .map(|e| e.node_ids.len() * iterations)
        .sum();
    println!(
        "sharded campaign: {} racks x {} nodes, {} epochs x {} iterations \
         ({executed} node-iterations executed of {} nominal)",
        topo.racks(),
        topo.rack_len(0),
        epochs,
        iterations,
        topo.total_nodes() * epochs * iterations
    );
    println!(
        "  budget            : {:.0} W ({} W/node)",
        budget.as_watts(),
        WATTS_PER_NODE
    );
    println!("  survivors         : {} nodes", report.survivors);
    println!("  crashed racks     : {crashed:?} ({reclaimed:.0} W reclaimed)");
    println!(
        "  aggregate perf    : {:.4} it/s over live racks",
        report.aggregate_performance()
    );
    println!(
        "  wall time         : {:.1} ms",
        elapsed.as_secs_f64() * 1e3
    );
    let json = serde_json::to_string(&report).expect("shard reports serialize");
    println!(
        "  report fnv        : {:#018x} ({} bytes)",
        fnv1a(json.as_bytes()),
        json.len()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--shard") {
        let smoke = args.iter().any(|a| a == "--smoke");
        let threads = args
            .iter()
            .position(|a| a == "--threads")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse::<usize>().ok());
        sharded_campaign(smoke, threads);
        return;
    }

    let budget = Power::watts(1400.0);
    let cluster = Cluster::paper_testbed(42);
    let db_path = std::env::temp_dir().join("clip_campaign_knowledge.json");

    // Day 1: empty knowledge database — every job pays for profiling.
    let mut clip = ClipScheduler::new(InflectionPredictor::train_default(42));
    let mut table = Table::new(
        "Campaign day 1 (cold knowledge DB, 1400 W site budget)",
        &[
            "job",
            "class",
            "nodes",
            "threads",
            "perf (it/s)",
            "power (W)",
        ],
    );
    let mut perfs = Vec::new();
    for entry in table2_suite() {
        let mut planning = cluster.clone();
        let plan = clip.plan(&mut planning, &entry.app, budget);
        let mut exec = cluster.clone();
        let report = execute_plan(
            &mut exec,
            &entry.app,
            &plan,
            5,
            0,
            &mut clip_obs::NoopRecorder,
        );
        let record = clip.knowledge().get(entry.app.name()).expect("profiled");
        perfs.push(report.performance());
        table.row(&[
            entry.app.name().to_string(),
            record.profile.class.to_string(),
            plan.nodes().to_string(),
            plan.threads_per_node.to_string(),
            format!("{:.4}", report.performance()),
            format!("{:.0}", report.cluster_power.as_watts()),
        ]);
    }
    print!("{}", table.render());
    println!(
        "profiling passes: {} (one per unseen application)\n",
        clip.profiles_performed()
    );

    // Persist what the cluster learned.
    clip.knowledge()
        .save(&db_path)
        .expect("persist knowledge DB");

    // Day 2: a fresh scheduler process loads the database — zero profiling.
    let db = KnowledgeDb::load(&db_path).expect("reload knowledge DB");
    std::fs::remove_file(&db_path).ok();
    let mut clip2 =
        ClipScheduler::new(InflectionPredictor::train_default(42)).with_knowledge_db(db);
    let mut day2 = Vec::new();
    for entry in table2_suite() {
        let mut planning = cluster.clone();
        let plan = clip2.plan(&mut planning, &entry.app, budget);
        let mut exec = cluster.clone();
        day2.push(
            execute_plan(
                &mut exec,
                &entry.app,
                &plan,
                5,
                0,
                &mut clip_obs::NoopRecorder,
            )
            .performance(),
        );
    }
    println!("campaign summary:");
    println!("  geomean perf day 1 : {:.4} it/s", geomean(&perfs));
    println!("  geomean perf day 2 : {:.4} it/s", geomean(&day2));
    println!(
        "  profiling on day 2 : {} passes (knowledge DB hits for all {} jobs)",
        clip2.profiles_performed(),
        table2_suite().len()
    );
    assert_eq!(clip2.profiles_performed(), 0);
}
