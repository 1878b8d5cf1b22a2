//! Property-based tests for the cluster simulator: job-report invariants
//! across random fleets, caps, and decompositions, plus the conservation
//! and differential bounds of the fault-injection layer.

use cluster_sim::{
    job_time, job_time_below, run_job, Cluster, FaultPlan, JobMemo, JobSpec, VariabilityModel,
};
use proptest::prelude::*;
use simkit::{Power, SimRng, TimeSpan};
use simnode::{AffinityPolicy, PowerCaps};
use workload::{corpus, AppModel, CommModel};

fn policy_strategy() -> impl Strategy<Value = AffinityPolicy> {
    prop_oneof![Just(AffinityPolicy::Compact), Just(AffinityPolicy::Scatter)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The synchronized iteration time is never shorter than any
    /// participant's own busy time, and the report is self-consistent.
    #[test]
    fn barrier_dominates(seed in any::<u64>(),
                         nodes in 1usize..=8,
                         threads in 1usize..=24,
                         policy in policy_strategy(),
                         sigma in 0.0f64..0.1)
    {
        let mut rng = SimRng::seed_from_u64(seed);
        let app = corpus::gen_linear(&mut rng, 0);
        let mut cluster =
            Cluster::with_variability(8, &VariabilityModel::with_sigma(sigma), seed);
        let spec = JobSpec::on_first_nodes(&app, nodes, threads, policy, 2);
        let job = run_job(&mut cluster, &spec, 0, &mut clip_obs::NoopRecorder);

        prop_assert_eq!(job.per_node.len(), nodes);
        for outcome in &job.per_node {
            prop_assert!(outcome.report.total_time <= job.total_time + simkit::TimeSpan::secs(1e-12));
            prop_assert!((0.0..=1.0).contains(&outcome.wait_fraction));
        }
        prop_assert!(job.imbalance() >= 0.0 && job.imbalance() < 1.0);
        prop_assert!(job.performance() > 0.0);
    }

    /// Cluster power equals the sum of per-node blended powers and every
    /// node's blended power is at most its busy power.
    #[test]
    fn power_accounting(seed in any::<u64>(), nodes in 1usize..=8,
                        cap_cpu in 80.0f64..260.0, cap_dram in 10.0f64..40.0)
    {
        let mut rng = SimRng::seed_from_u64(seed);
        let app = corpus::gen_logarithmic(&mut rng, 0);
        let mut cluster = Cluster::paper_testbed(seed);
        cluster.set_uniform_caps(PowerCaps::new(
            Power::watts(cap_cpu),
            Power::watts(cap_dram),
        ));
        let spec = JobSpec::on_first_nodes(&app, nodes, 24, AffinityPolicy::Scatter, 1);
        let job = run_job(&mut cluster, &spec, 0, &mut clip_obs::NoopRecorder);

        let sum: Power = job.per_node.iter().map(|n| n.avg_power).sum();
        prop_assert!((job.cluster_power.as_watts() - sum.as_watts()).abs() < 1e-6);
        for n in &job.per_node {
            prop_assert!(n.avg_power <= n.report.avg_total_power() + Power::watts(1e-9));
        }
        prop_assert!(job.max_node_power <= job.cluster_power + Power::watts(1e-9));
    }

    /// Under uniform caps, total cluster power never exceeds nodes × caps.
    #[test]
    fn budget_bound(seed in any::<u64>(), nodes in 1usize..=8,
                    cap_cpu in 60.0f64..250.0, cap_dram in 8.0f64..40.0)
    {
        let mut rng = SimRng::seed_from_u64(seed);
        let app = corpus::gen_parabolic(&mut rng, 0);
        let mut cluster = Cluster::homogeneous(8);
        let caps = PowerCaps::new(Power::watts(cap_cpu), Power::watts(cap_dram));
        cluster.set_uniform_caps(caps);
        let spec = JobSpec::on_first_nodes(&app, nodes, 24, AffinityPolicy::Scatter, 1);
        let job = run_job(&mut cluster, &spec, 0, &mut clip_obs::NoopRecorder);
        // Allow the static floor to exceed very small caps.
        let floor = {
            let pm = cluster.node(0).power_model();
            (pm.socket_base * 2.0
                + pm.core_static * 24.0
                + pm.dram_base * 2.0
                + Power::watts(1.0))
                * nodes as f64
        };
        let bound = (caps.total() * nodes as f64).max(floor);
        prop_assert!(
            job.cluster_power <= bound + Power::watts(1e-6),
            "cluster {} vs bound {}", job.cluster_power, bound
        );
    }

    /// Variability factors sampled for a fleet always average to 1 and the
    /// fleet is reproducible from its seed.
    #[test]
    fn fleet_reproducible(seed in any::<u64>(), sigma in 0.0f64..0.2, n in 1usize..32) {
        let a = Cluster::with_variability(n, &VariabilityModel::with_sigma(sigma), seed);
        let b = Cluster::with_variability(n, &VariabilityModel::with_sigma(sigma), seed);
        prop_assert_eq!(a.efficiencies(), b.efficiencies());
        let mean: f64 = a.efficiencies().iter().sum::<f64>() / n as f64;
        prop_assert!((mean - 1.0).abs() < 1e-9);
    }

    /// The bounded job time is `Some` exactly when the job's time `T` is
    /// below the bound, and then it is `job_time`'s and `run_job`'s, bit
    /// for bit: on variable fleets, under caps with actuation jitter, over
    /// any node set in any order, at bounds on, beside and away from `T`.
    #[test]
    fn bounded_job_time_is_exact(seed in any::<u64>(),
                                 mask in 1u8..=255,
                                 rotate in 0usize..8,
                                 threads in 1usize..=24,
                                 policy in policy_strategy(),
                                 cap_cpu in 30.0f64..260.0,
                                 cap_dram in 6.0f64..40.0,
                                 jitter in -0.08f64..0.08,
                                 bound_pick in 0u8..5,
                                 scale in 0.0f64..2.0)
    {
        let mut rng = SimRng::seed_from_u64(seed);
        let app = corpus::gen_parabolic(&mut rng, 0);
        let mut cluster =
            Cluster::with_variability(8, &VariabilityModel::with_sigma(0.08), seed);
        cluster.set_uniform_caps(PowerCaps::new(Power::watts(cap_cpu), Power::watts(cap_dram)));
        for id in 0..cluster.len() {
            cluster.node_mut(id).set_cap_jitter(if id % 2 == 0 { jitter } else { -jitter });
        }
        let mut ids: Vec<usize> = (0..8).filter(|id| mask & (1 << id) != 0).collect();
        let turn = rotate % ids.len();
        ids.rotate_left(turn);
        let spec = JobSpec {
            app: &app,
            node_ids: ids.into(),
            threads_per_node: threads,
            policy,
            iterations: 2,
        };
        let total = job_time(&cluster, &spec).as_secs();
        let report = run_job(&mut cluster.clone(), &spec, 0, &mut clip_obs::NoopRecorder);
        prop_assert_eq!(total.to_bits(), report.total_time.as_secs().to_bits());
        let bound = match bound_pick {
            0 => f64::INFINITY,
            1 => total,
            2 => total.next_up(),
            3 => total.next_down(),
            _ => total * scale,
        };
        let below = job_time_below(&cluster, &spec, TimeSpan::secs(bound));
        prop_assert_eq!(
            below.map(|t| t.as_secs().to_bits()),
            (total < bound).then_some(total.to_bits())
        );
    }

    /// Job reports are deterministic given the same cluster and spec.
    #[test]
    fn job_deterministic(seed in any::<u64>(), nodes in 1usize..=8) {
        let mut rng = SimRng::seed_from_u64(seed);
        let app = corpus::gen_linear(&mut rng, 0);
        let spec = JobSpec::on_first_nodes(&app, nodes, 12, AffinityPolicy::Compact, 1);
        let mut c1 = Cluster::paper_testbed(seed);
        let mut c2 = Cluster::paper_testbed(seed);
        let j1 = run_job(&mut c1, &spec, 0, &mut clip_obs::NoopRecorder);
        let j2 = run_job(&mut c2, &spec, 0, &mut clip_obs::NoopRecorder);
        prop_assert_eq!(j1.total_time, j2.total_time);
        prop_assert_eq!(j1.cluster_power, j2.cluster_power);
    }

    /// A job memo run after run gives `run_job`'s report and leaves every
    /// node's RAPL registers and accounted time where `run_job` leaves
    /// them, bit for bit, whatever changes between runs: a node's caps,
    /// jitter or efficiency, the node set, or only the app's name or only
    /// its communication model. A run that changes nothing replays, and a
    /// run that changes only the name or the communication model misses.
    #[test]
    fn memo_replay_matches_run_job(
        seed in any::<u64>(),
        sigma in 0.0f64..0.1,
        nodes in 1usize..=8,
        threads in 1usize..=24,
        policy in policy_strategy(),
        cap_cpu in 60.0f64..200.0,
        steps in prop::collection::vec(
            (0u8..8, 0usize..8, 60.0f64..200.0, -0.08f64..0.08, 0.9f64..1.1),
            1..16,
        ),
    ) {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut app = corpus::gen_mixed(&mut rng, 0);
        let mut memoized =
            Cluster::with_variability(8, &VariabilityModel::with_sigma(sigma), seed);
        memoized.set_uniform_caps(PowerCaps::new(Power::watts(cap_cpu), Power::watts(25.0)));
        let mut twin = memoized.clone();
        let mut node_ids: Vec<usize> = (0..nodes).collect();
        let mut memo = JobMemo::default();
        for (step, &(kind, node, cpu, jitter, efficiency)) in steps.iter().enumerate() {
            for cluster in [&mut memoized, &mut twin] {
                match kind {
                    2 => cluster
                        .node_mut(node)
                        .set_caps(PowerCaps::new(Power::watts(cpu), Power::watts(25.0))),
                    3 => cluster.set_cap_jitter(node, if jitter.abs() < 0.03 { 0.0 } else { jitter }),
                    4 => cluster.set_node_efficiency(node, efficiency),
                    _ => {}
                }
            }
            match kind {
                5 => match node_ids.iter().position(|&id| id == node) {
                    Some(at) if node_ids.len() > 1 => {
                        node_ids.remove(at);
                    }
                    Some(_) => {}
                    None => node_ids.push(node),
                },
                6 => {
                    app = AppModel::new(format!("{}'", app.name()), app.phases().to_vec())
                        .with_odd_penalty(app.odd_penalty())
                        .with_comm(app.comm().clone());
                }
                7 => {
                    let comm = CommModel {
                        alpha: app.comm().alpha + 1e-3,
                        ..app.comm().clone()
                    };
                    app = app.with_comm(comm);
                }
                _ => {}
            }
            let spec = JobSpec {
                app: &app,
                node_ids: node_ids.clone().into(),
                threads_per_node: threads,
                policy,
                iterations: 2,
            };
            if step > 0 && kind < 2 {
                prop_assert!(memo.replays(&memoized, &spec), "step {step} repeats");
            }
            if kind >= 6 {
                prop_assert!(!memo.replays(&memoized, &spec), "step {step} changes the app");
            }
            let got = memo.run_or_replay(&mut memoized, &spec, 0, &mut clip_obs::NoopRecorder);
            let want = run_job(&mut twin, &spec, 0, &mut clip_obs::NoopRecorder);
            prop_assert_eq!(
                serde_json::to_string(&got).unwrap(),
                serde_json::to_string(&want).unwrap()
            );
            for id in 0..memoized.len() {
                let (a, b) = (memoized.node(id), twin.node(id));
                prop_assert_eq!(a.rapl_pkg_raw(), b.rapl_pkg_raw());
                prop_assert_eq!(a.rapl_dram_raw(), b.rapl_dram_raw());
                prop_assert_eq!(
                    a.rapl_elapsed().as_secs().to_bits(),
                    b.rapl_elapsed().as_secs().to_bits()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A rank's iteration time never decreases when a cap shrinks: under
    /// caps at most another set's in each component, `time_iteration`
    /// reads at least as long, compared as `f64`. Every Table II app,
    /// strong-scaled, on nodes with efficiency and actuation error, at
    /// caps low enough to duty-cycle the cores and to cut DRAM below its
    /// base power. The Oracle's group bound rests on this.
    #[test]
    fn iteration_time_never_falls_as_a_cap_shrinks(
        app_pick in 0usize..10,
        ranks in 1usize..=8,
        threads in 1usize..=24,
        policy in policy_strategy(),
        efficiency in 0.9f64..1.1,
        jitter in -0.1f64..0.1,
        cpu in 1.0f64..300.0,
        dram in 1.0f64..60.0,
        cpu_step in prop_oneof![Just(0.0), 0.0f64..1.0, 0.0f64..300.0],
        dram_step in prop_oneof![Just(0.0), 0.0f64..1.0, 0.0f64..60.0],
    ) {
        let suite = workload::table2_suite();
        let app = &suite[app_pick % suite.len()].app;
        let rank = app.per_rank(ranks);
        let mut node = simnode::Node::haswell_with_efficiency(efficiency);
        node.set_cap_jitter(jitter);
        let mut time_under = |cpu: f64, dram: f64| {
            node.set_caps(PowerCaps::new(Power::watts(cpu), Power::watts(dram)));
            node.time_iteration(&rank, threads, policy).1.as_secs()
        };
        let tight = time_under(cpu, dram);
        let loose = time_under(cpu + cpu_step, dram + dram_step);
        prop_assert!(
            tight >= loose,
            "{} x{ranks}: {tight:e} s under ({cpu}, {dram}) W, {loose:e} s with {cpu_step}/{dram_step} W more",
            app.name()
        );
    }
}

/// One shared predictor for the ledger properties (training dominates).
fn predictor() -> &'static clip_core::InflectionPredictor {
    use std::sync::OnceLock;
    static PRED: OnceLock<clip_core::InflectionPredictor> = OnceLock::new();
    PRED.get_or_init(|| clip_core::InflectionPredictor::train_default(5))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every scheduler's plan passes the budget-ledger audit: the summed
    /// per-node caps stay within the cluster budget, for CLIP and all
    /// three baselines, across random fleets, apps and budgets.
    #[test]
    fn ledger_accepts_every_schedulers_plan(
        seed in any::<u64>(),
        class_pick in 0u8..3,
        n_nodes in 2usize..=8,
        budget_w in 300.0f64..2400.0,
        sigma in 0.0f64..0.08,
    ) {
        use baselines::{AllIn, Coordinated, LowerLimit};
        use clip_core::{BudgetLedger, ClipScheduler, PowerScheduler};

        let mut rng = SimRng::seed_from_u64(seed);
        let app = match class_pick % 3 {
            0 => corpus::gen_linear(&mut rng, 0),
            1 => corpus::gen_logarithmic(&mut rng, 0),
            _ => corpus::gen_parabolic(&mut rng, 0),
        };
        let budget = Power::watts(budget_w);
        let mut schedulers: Vec<Box<dyn PowerScheduler>> = vec![
            Box::new(AllIn),
            Box::new(LowerLimit::default()),
            Box::new(Coordinated::new()),
            Box::new(ClipScheduler::new(predictor().clone())),
        ];
        for sched in schedulers.iter_mut() {
            let mut cluster = Cluster::with_variability(
                n_nodes,
                &VariabilityModel::with_sigma(sigma),
                seed,
            );
            let plan = sched.plan(&mut cluster, &app, budget);
            let ledger = BudgetLedger::new(sched.name(), budget);
            prop_assert!(
                ledger.try_audit_plan(&plan).is_ok(),
                "{}: {:?}", sched.name(), ledger.try_audit_plan(&plan)
            );
            prop_assert!(plan.within_budget(budget),
                "{}: caps {} vs budget {}", sched.name(), plan.total_caps(), budget);
            prop_assert_eq!(plan.caps.len(), plan.node_ids.len());
        }
    }
}

/// Oracle performance on a clean 4-node fleet (the differential-bound
/// reference). Computed once: the Oracle grid search dominates the cost.
fn oracle_reference() -> f64 {
    use std::sync::OnceLock;
    static PERF: OnceLock<f64> = OnceLock::new();
    *PERF.get_or_init(|| {
        use baselines::Oracle;
        use clip_core::{execute_plan, PowerScheduler};
        let mut cluster = Cluster::homogeneous(4);
        let app = workload::suite::comd();
        let budget = Power::watts(700.0);
        let plan = Oracle::default().plan(&mut cluster, &app, budget);
        execute_plan(&mut cluster, &app, &plan, 1, 0, &mut clip_obs::NoopRecorder).performance()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Zero-sum reclamation: for a random fault plan, the watts reclaimed
    /// from crashed nodes plus the watts the survivors still hold equal
    /// the cluster budget during the degraded epoch, and one epoch later
    /// the re-coordinated survivors hold the full budget again. All-In is
    /// the probe scheduler because its caps sum to the budget *exactly*,
    /// so conservation is an equality, not just a bound.
    #[test]
    fn crash_reclamation_is_zero_sum(
        seed in any::<u64>(),
        n_nodes in 2usize..=8,
        epochs in 2usize..=6,
        budget_w in 600.0f64..2000.0,
    ) {
        use baselines::AllIn;
        use clip_core::{run_with_faults, FaultHarnessConfig, PowerScheduler};

        let mut rng = SimRng::seed_from_u64(seed);
        let faults = FaultPlan::random(&mut rng, n_nodes, epochs);
        let mut cluster = Cluster::with_variability(
            n_nodes,
            &VariabilityModel::with_sigma(0.03),
            seed,
        );
        let budget = Power::watts(budget_w);
        let app = corpus::gen_linear(&mut rng, 0);
        let mut sched = AllIn;
        let report = run_with_faults(
            &mut sched,
            &mut cluster,
            &app,
            budget,
            &faults,
            &FaultHarnessConfig { epochs, iterations_per_epoch: 1 },
            &mut clip_obs::NoopRecorder,
        );

        // Programmed caps never exceed the budget, in any epoch — degraded
        // or recovered.
        for e in &report.epochs {
            prop_assert!(
                e.caps_total.as_watts() <= budget.as_watts() + 1e-6,
                "epoch {}: caps {} over budget {}", e.epoch, e.caps_total, budget
            );
        }

        for r in &report.recoveries {
            // Conservation during degradation: what the dead nodes gave up
            // plus what the survivors kept is exactly the budget.
            let fault = &report.epochs[r.fault_epoch];
            prop_assert!(
                (r.reclaimed.as_watts() + fault.caps_total.as_watts()
                    - budget.as_watts()).abs() < 1e-6,
                "epoch {}: reclaimed {} + held {} != budget {}",
                r.fault_epoch, r.reclaimed, fault.caps_total, budget
            );
            // Within one coordination epoch the survivors hold the full
            // budget again — unless that very epoch crashed another node,
            // in which case its own recovery entry carries the balance.
            let recovered = &report.epochs[r.recovered_epoch];
            prop_assert!(recovered.replanned);
            let crashed_again = report
                .recoveries
                .iter()
                .any(|r2| r2.fault_epoch == r.recovered_epoch);
            if !crashed_again {
                prop_assert!(
                    (recovered.caps_total.as_watts() - budget.as_watts()).abs() < 1e-6,
                    "epoch {}: recovered caps {} != budget {}",
                    r.recovered_epoch, recovered.caps_total, budget
                );
            }
        }

        // The fleet still re-coordinates to the full budget after the run.
        prop_assert_eq!(report.survivors, cluster.alive_len());
        let allowed = cluster.alive_nodes();
        let settled = sched.plan_subset(&mut cluster, &app, budget, &allowed);
        prop_assert!(
            (settled.total_caps().as_watts() - budget.as_watts()).abs() < 1e-6,
            "settled caps {} != budget {}", settled.total_caps(), budget
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Differential bound: CLIP running through a purely degrading fault
    /// timeline (crashes, stragglers, undershooting caps, upward power
    /// drift) never outperforms the fault-free Oracle on the same fleet.
    /// Faults only take capacity away, so the clean optimum is a ceiling.
    #[test]
    fn clip_under_faults_never_beats_clean_oracle(seed in any::<u64>()) {
        use clip_core::{run_with_faults, ClipScheduler, FaultHarnessConfig};

        let ceiling = oracle_reference();
        prop_assert!(ceiling > 0.0);

        let mut rng = SimRng::seed_from_u64(seed);
        let faults = FaultPlan::random_degrading(&mut rng, 4, 5);
        let mut cluster = Cluster::homogeneous(4);
        let mut sched = ClipScheduler::new(predictor().clone());
        let app = workload::suite::comd();
        let report = run_with_faults(
            &mut sched,
            &mut cluster,
            &app,
            Power::watts(700.0),
            &faults,
            &FaultHarnessConfig { epochs: 5, iterations_per_epoch: 1 },
            &mut clip_obs::NoopRecorder,
        );

        // Grid granularity gives the Oracle a hair of slack; CLIP may tie
        // but never meaningfully exceed it, in any epoch.
        for e in &report.epochs {
            prop_assert!(
                e.performance <= ceiling * 1.001,
                "epoch {} ({} events): {} it/s beats oracle {} it/s",
                e.epoch, e.events_applied, e.performance, ceiling
            );
        }
        prop_assert!(report.mean_performance() <= ceiling * 1.001);
    }
}
