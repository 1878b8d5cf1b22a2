//! Property-based tests for the application models: every random draw from
//! the corpus generators must behave like its declared scalability class,
//! and the model algebra (strong scaling, traffic, instructions) must stay
//! self-consistent.

use proptest::prelude::*;
use simkit::Power;
use simkit::SimRng;
use simnode::{AffinityPolicy, Node, NodeWorkload, OperatingPoint, PowerCaps};
use workload::{corpus, suite, ScalabilityClass};

fn perf(node: &mut Node, app: &workload::AppModel, threads: usize) -> f64 {
    node.execute(app, threads, AffinityPolicy::Scatter, 1)
        .performance()
}

/// Every number a [`NodeWorkload`] reports at `op`, as raw bits.
fn workload_bits<W: NodeWorkload>(w: &W, op: &OperatingPoint) -> [u64; 8] {
    let (read, write) = w.traffic_per_iteration(op);
    [
        w.iteration_time(op).as_secs().to_bits(),
        read.to_bits(),
        write.to_bits(),
        w.instructions_per_iteration(op.threads()).to_bits(),
        w.cpu_activity().to_bits(),
        w.shared_data_fraction().to_bits(),
        w.icache_mpki().to_bits(),
        w.burst_bandwidth_demand(op).as_gbps().to_bits(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The borrowed per-rank view is `strong_scale` without the copy: on
    /// every workload method it gives the same bits, for corpus draws of
    /// all three classes and BT-MZ's two phases, at odd and even thread
    /// counts under a binding CPU cap.
    #[test]
    fn per_rank_view_is_strong_scale_bit_for_bit(
        seed in any::<u64>(),
        kind in 0usize..4,
        nodes in 1usize..=16,
        threads in 1usize..=24,
        cpu_cap in 40.0f64..240.0,
        scatter in any::<bool>(),
    ) {
        let mut rng = SimRng::seed_from_u64(seed);
        let app = match kind {
            0 => corpus::gen_linear(&mut rng, 0),
            1 => corpus::gen_logarithmic(&mut rng, 0),
            2 => corpus::gen_parabolic(&mut rng, 0),
            _ => suite::bt_mz(),
        };
        let policy = if scatter { AffinityPolicy::Scatter } else { AffinityPolicy::Compact };
        let scaled = app.strong_scale(nodes);
        let view = app.per_rank(nodes);
        let mut node = Node::haswell();
        node.set_caps(PowerCaps::new(Power::watts(cpu_cap), Power::watts(40.0)));
        let op = node.resolve(&scaled, threads, policy);
        prop_assert_eq!(&node.resolve(&view, threads, policy), &op);
        prop_assert_eq!(workload_bits(&view, &op), workload_bits(&scaled, &op));
        prop_assert_eq!(view.name(), app.name());
        // The whole application is the view at one rank.
        prop_assert_eq!(workload_bits(&app, &op), workload_bits(&app.per_rank(1), &op));
    }

    /// Linear corpus draws: speedup from 6 to 12 threads stays near 2x.
    #[test]
    fn linear_models_scale(seed in any::<u64>()) {
        let mut rng = SimRng::seed_from_u64(seed);
        let app = corpus::gen_linear(&mut rng, 0);
        let mut node = Node::haswell();
        let s = perf(&mut node, &app, 12) / perf(&mut node, &app, 6);
        prop_assert!(s > 1.7, "linear speedup 6→12 was {s:.2}");
    }

    /// Logarithmic corpus draws: growth flattens but never reverses before
    /// all-core.
    #[test]
    fn logarithmic_models_flatten(seed in any::<u64>()) {
        let mut rng = SimRng::seed_from_u64(seed);
        let app = corpus::gen_logarithmic(&mut rng, 0);
        let mut node = Node::haswell();
        let p4 = perf(&mut node, &app, 4);
        let p8 = perf(&mut node, &app, 8);
        let p16 = perf(&mut node, &app, 16);
        let p24 = perf(&mut node, &app, 24);
        prop_assert!(p24 >= p16 * 0.999, "log app must not regress at all-core");
        let early = p8 / p4;
        let late = p24 / p16;
        prop_assert!(late < early, "growth must flatten: early {early:.2} late {late:.2}");
    }

    /// Parabolic corpus draws: the all-core configuration is strictly worse
    /// than the best interior one.
    #[test]
    fn parabolic_models_peak(seed in any::<u64>()) {
        let mut rng = SimRng::seed_from_u64(seed);
        let app = corpus::gen_parabolic(&mut rng, 0);
        let mut node = Node::haswell();
        let best = (2..=22)
            .map(|n| perf(&mut node, &app, n))
            .fold(f64::NEG_INFINITY, f64::max);
        let all = perf(&mut node, &app, 24);
        prop_assert!(all < best, "all-core {all:.4} must be below peak {best:.4}");
    }

    /// Strong scaling conserves total work: N ranks each do 1/N of the
    /// parallel cycles and memory volume.
    #[test]
    fn strong_scaling_conserves_work(seed in any::<u64>(), nodes in 1usize..=8) {
        let mut rng = SimRng::seed_from_u64(seed);
        let app = corpus::gen_logarithmic(&mut rng, 0);
        let scaled = app.strong_scale(nodes);
        for (orig, part) in app.phases().iter().zip(scaled.phases()) {
            let back = part.parallel_gcycles * nodes as f64;
            prop_assert!((back - orig.parallel_gcycles).abs() < 1e-9);
            let mem_back = part.mem_gbytes * nodes as f64;
            prop_assert!((mem_back - orig.mem_gbytes).abs() < 1e-9);
        }
    }

    /// Per-node time improves when the work is split across more ranks.
    #[test]
    fn more_ranks_less_node_time(seed in any::<u64>()) {
        let mut rng = SimRng::seed_from_u64(seed);
        let app = corpus::gen_linear(&mut rng, 0);
        let mut node = Node::haswell();
        let t1 = node.execute(&app.strong_scale(1), 24, AffinityPolicy::Scatter, 1).total_time;
        let t4 = node.execute(&app.strong_scale(4), 24, AffinityPolicy::Scatter, 1).total_time;
        prop_assert!(t4 < t1);
    }

    /// Traffic accounting: read + write equals the declared volume.
    #[test]
    fn traffic_conserved(seed in any::<u64>()) {
        let mut rng = SimRng::seed_from_u64(seed);
        let app = corpus::gen_logarithmic(&mut rng, 0);
        let node = Node::haswell();
        let op = node.resolve(&app, 8, AffinityPolicy::Scatter);
        let (r, w) = app.traffic_per_iteration(&op);
        let declared: f64 = app.phases().iter().map(|p| p.mem_gbytes).sum::<f64>() * 1e9;
        prop_assert!(((r + w) - declared).abs() < 1.0);
    }

    /// The odd-concurrency penalty: an odd count never beats both even
    /// neighbours for any corpus draw.
    #[test]
    fn odd_concurrency_never_best(seed in any::<u64>(), odd_half in 2usize..=11) {
        let odd = odd_half * 2 + 1; // 5..=23
        let mut rng = SimRng::seed_from_u64(seed);
        let app = corpus::gen_linear(&mut rng, 0);
        let mut node = Node::haswell();
        let p_odd = perf(&mut node, &app, odd);
        let p_up = perf(&mut node, &app, odd + 1);
        prop_assert!(p_odd <= p_up * (1.0 + 1e-9), "odd {odd} beat even {}", odd + 1);
    }

    /// Communication model: non-negative and non-decreasing in node count.
    #[test]
    fn comm_monotone(seed in any::<u64>()) {
        let mut rng = SimRng::seed_from_u64(seed);
        let app = corpus::gen_parabolic(&mut rng, 0);
        let mut last = -1.0f64;
        for n in 1..=16 {
            let t = app.comm().time_secs(n);
            prop_assert!(t >= 0.0);
            prop_assert!(t >= last - 1e-12);
            last = t;
        }
    }

    /// The classification of a model is invariant under iteration count
    /// (perf ratio is a rate, not a total).
    #[test]
    fn classification_iteration_invariant(seed in any::<u64>()) {
        let mut rng = SimRng::seed_from_u64(seed);
        let app = corpus::gen_logarithmic(&mut rng, 0);
        let mut node = Node::haswell();
        let ratio_of = |node: &mut Node, iters: usize| {
            let all = node.execute(&app, 24, AffinityPolicy::Scatter, iters).performance();
            let half = node.execute(&app, 12, AffinityPolicy::Scatter, iters).performance();
            half / all
        };
        let r1 = ratio_of(&mut node, 1);
        let r5 = ratio_of(&mut node, 5);
        prop_assert!((r1 - r5).abs() < 1e-9);
        let _ = ScalabilityClass::from_half_all_ratio(r1);
    }
}
