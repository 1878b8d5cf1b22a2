//! Property-based stress tests for the queue dispatcher: random job
//! streams must never violate the resource invariants.

use clip_core::dispatch::{Dispatcher, QueuedJob};
use clip_core::{ClipScheduler, InflectionPredictor};
use cluster_sim::Cluster;
use proptest::prelude::*;
use simkit::{Power, SimRng, TimeSpan};
use workload::corpus;

fn predictor() -> &'static InflectionPredictor {
    #[expect(
        clippy::disallowed_types,
        reason = "a test-only cache of a deterministic computation; every reader sees the same value"
    )]
    static PRED: std::sync::OnceLock<InflectionPredictor> = std::sync::OnceLock::new();
    PRED.get_or_init(|| InflectionPredictor::train_default(5))
}

/// Build a sorted random job stream.
fn stream(seed: u64, count: usize, max_gap: f64) -> Vec<QueuedJob> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut t = 0.0;
    (0..count)
        .map(|i| {
            let app = match rng.uniform_usize(0, 2) {
                0 => corpus::gen_linear(&mut rng, i),
                1 => corpus::gen_logarithmic(&mut rng, i),
                _ => corpus::gen_parabolic(&mut rng, i),
            };
            // Unique names keep the knowledge DB per-job.
            let app = app.with_preferred_node_counts(vec![1, 2, 4]);
            t += rng.uniform_range(0.0, max_gap);
            QueuedJob {
                app,
                arrival: TimeSpan::secs(t),
                iterations: 2,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every job completes exactly once with sane timestamps, regardless of
    /// the stream shape and budget.
    #[test]
    fn all_jobs_complete(seed in any::<u64>(), count in 2usize..8,
                         budget_w in 700.0f64..2200.0, max_gap in 0.0f64..3.0)
    {
        let jobs = stream(seed, count, max_gap);
        let mut cluster = Cluster::homogeneous(8);
        let mut clip = ClipScheduler::new(predictor().clone());
        clip.coordinate_variability = false;
        let mut d = Dispatcher::new(clip, Power::watts(budget_w));
        let report = d.run(&mut cluster, &jobs, &mut clip_obs::NoopRecorder);

        prop_assert_eq!(report.outcomes.len(), count);
        for o in &report.outcomes {
            prop_assert!(o.start >= o.arrival);
            prop_assert!(o.finish > o.start);
            prop_assert!(o.finish <= report.makespan + TimeSpan::secs(1e-9));
            prop_assert!(o.nodes >= 1 && o.nodes <= 8);
            prop_assert!(o.performance > 0.0);
        }
    }

    /// At every instant, concurrently running jobs hold disjoint node sets
    /// and their combined power grants fit the budget.
    #[test]
    fn concurrent_grants_fit(seed in any::<u64>(), count in 2usize..8,
                             budget_w in 700.0f64..2200.0)
    {
        let jobs = stream(seed, count, 1.0);
        let mut cluster = Cluster::homogeneous(8);
        let mut clip = ClipScheduler::new(predictor().clone());
        clip.coordinate_variability = false;
        let mut d = Dispatcher::new(clip, Power::watts(budget_w));
        let report = d.run(&mut cluster, &jobs, &mut clip_obs::NoopRecorder);

        // Instantaneous accounting: at every job-start instant, sum the
        // grants of all jobs active at that instant (starts are the only
        // points where concurrent load increases).
        for probe in &report.outcomes {
            let t = probe.start;
            let mut power = Power::ZERO;
            let mut nodes = 0usize;
            for o in &report.outcomes {
                if o.start <= t && t < o.finish {
                    power += o.granted_power;
                    nodes += o.nodes;
                }
            }
            prop_assert!(
                power <= Power::watts(budget_w) + Power::watts(1e-6),
                "at t={:.3}: grants {} exceed budget {budget_w}",
                t.as_secs(),
                power
            );
            prop_assert!(nodes <= 8, "node oversubscription at t={:.3}", t.as_secs());
        }
    }

    /// FCFS without backfill: a job never starts before an earlier-arriving
    /// job has started.
    #[test]
    fn fcfs_start_order(seed in any::<u64>(), count in 2usize..8) {
        let jobs = stream(seed, count, 2.0);
        let mut cluster = Cluster::homogeneous(8);
        let mut clip = ClipScheduler::new(predictor().clone());
        clip.coordinate_variability = false;
        let mut d = Dispatcher::new(clip, Power::watts(1200.0));
        let report = d.run(&mut cluster, &jobs, &mut clip_obs::NoopRecorder);

        let mut by_arrival = report.outcomes.clone();
        by_arrival.sort_by(|a, b| {
            a.arrival
                .partial_cmp(&b.arrival)
                .unwrap()
                .then(a.start.partial_cmp(&b.start).unwrap())
        });
        for w in by_arrival.windows(2) {
            prop_assert!(
                w[0].start <= w[1].start + TimeSpan::secs(1e-9),
                "FCFS violated: {:?} started after {:?}", w[0], w[1]
            );
        }
    }
}
