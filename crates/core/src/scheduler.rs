//! The CLIP scheduler and the common scheduler interface.
//!
//! [`PowerScheduler`] is the contract every coordination method in the
//! evaluation implements (CLIP here; All-In, Lower-Limit, Coordinated and
//! the Oracle in the `baselines` crate): given a cluster, an application
//! and a total power budget, produce a [`SchedulePlan`] — which nodes, how
//! many threads, which affinity, and the per-node RAPL caps.
//!
//! [`ClipScheduler`] implements the full Algorithm 1 pipeline:
//! knowledge-database lookup → smart profiling → classification → MLR
//! inflection prediction (+ the third sample at the predicted point) →
//! model fitting → cluster allocation → node selection → optional
//! variability coordination. [`execute_plan`] programs the caps and runs
//! the job, returning the measured [`JobReport`].
//!
//! A warm scheduler re-does none of this work while its inputs stand
//! still: it fits an app's models once per knowledge record, re-runs
//! Algorithm 1 only when the budget, the pool size or another input of
//! [`allocate_cluster`] changed since the app's last plan, and probes a
//! node only when its power state changed (see [`CalibrationTable`]).
//! Every plan is the one the full pipeline would compute.

use crate::allocate::{allocate_cluster, ClusterAllocation};
use crate::audit::BudgetLedger;
use crate::coordinate::CalibrationTable;
use crate::knowledge::{KnowledgeDb, KnowledgeRecord};
use crate::mlr::InflectionPredictor;
use crate::perfmodel::NodePerfModel;
use crate::powerfit::FittedPowerModel;
use crate::profile::SmartProfiler;
use cluster_sim::{run_job, Cluster, JobReport, JobSpec};
use serde::{Deserialize, Serialize};
use simkit::Power;
use simnode::{AffinityPolicy, PowerCaps};
use std::borrow::Cow;
use std::collections::BTreeMap;
use workload::{AppModel, ScalabilityClass};

/// A fully resolved scheduling decision.
#[must_use = "a plan does nothing until executed or audited"]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedulePlan {
    /// Which scheduler produced this plan.
    pub scheduler: String,
    /// Participating node indices.
    pub node_ids: Vec<usize>,
    /// OpenMP threads on every node.
    pub threads_per_node: usize,
    /// Affinity on every node.
    pub policy: AffinityPolicy,
    /// Per-node caps, parallel to `node_ids`.
    pub caps: Vec<PowerCaps>,
}

impl SchedulePlan {
    /// Participating node count.
    pub fn nodes(&self) -> usize {
        self.node_ids.len()
    }

    /// Sum of all programmed caps (the budget the plan can draw).
    pub fn total_caps(&self) -> Power {
        self.caps.iter().map(|c| c.total()).sum()
    }

    /// True when the plan cannot draw more than `budget`.
    pub fn within_budget(&self, budget: Power) -> bool {
        self.total_caps() <= budget + Power::watts(1e-6)
    }
}

/// Common interface for every power-bounded scheduling method.
pub trait PowerScheduler {
    /// Scheduler name as used in the paper's figures.
    fn name(&self) -> &str;

    /// Decide node count, concurrency, affinity and caps for `app` under
    /// a total cluster power budget.
    fn plan(&mut self, cluster: &mut Cluster, app: &AppModel, budget: Power) -> SchedulePlan;

    /// Plan over a restricted node pool — the re-coordination entry point
    /// the degradation harness calls after faults shrink or reshape the
    /// fleet. `allowed` holds the usable node indices; the full `budget`
    /// is still available (a dead node's share is reclaimed, not lost).
    ///
    /// The default implementation is a conservative fallback for external
    /// implementors: it plans as if the whole cluster were available and
    /// then re-maps the chosen slots onto the allowed pool, truncating if
    /// the pool is smaller. It never exceeds the budget, but it does not
    /// re-optimize for the pool either — every in-repo scheduler overrides
    /// it with a genuine subset-aware plan.
    fn plan_subset(
        &mut self,
        cluster: &mut Cluster,
        app: &AppModel,
        budget: Power,
        allowed: &[usize],
    ) -> SchedulePlan {
        assert!(!allowed.is_empty(), "no nodes available");
        let mut plan = self.plan(cluster, app, budget);
        let n = plan.node_ids.len().min(allowed.len());
        plan.node_ids = allowed.iter().copied().take(n).collect();
        plan.caps.truncate(n);
        plan
    }

    /// Ask the scheduler to buffer trace events at its internal decision
    /// points (coordinate, allocate) for the harness to drain after each
    /// plan call. The default ignores the request — a scheduler with no
    /// interesting decision points needs no tracing machinery.
    fn set_tracing(&mut self, on: bool) {
        let _ = on;
    }

    /// Hand over (and clear) the decision events buffered since the last
    /// drain. The default returns an empty `Vec`, which allocates nothing.
    fn drain_decisions(&mut self) -> Vec<clip_obs::TraceEvent> {
        Vec::new()
    }
}

/// Program a plan's caps and execute the job — the actuation path every
/// harness, dispatcher and bench goes through. [`crate::EpochEngine::execute`]
/// programs the plan the same way and runs the job through its
/// [`cluster_sim::JobMemo`]; this function keeps no memo and executes every
/// rank.
///
/// Generic over the telemetry recorder: emits the committed plan as one
/// [`clip_obs::TraceEvent::PlanComputed`] plus a
/// [`clip_obs::TraceEvent::PlanNode`] per slot, a
/// [`clip_obs::TraceEvent::RaplProgrammed`] per node as its caps are
/// written (programmed vs. jitter-adjusted effective cap), and executes
/// via [`cluster_sim::run_job`] (`DvfsResolved` and `NodePowerSample` per
/// node). With the [`clip_obs::NoopRecorder`] every hook compiles away.
pub fn execute_plan<R: clip_obs::Recorder>(
    cluster: &mut Cluster,
    app: &AppModel,
    plan: &SchedulePlan,
    iterations: usize,
    epoch: u64,
    rec: &mut R,
) -> JobReport {
    let spec = program_plan(cluster, app, plan, iterations, epoch, rec);
    run_job(cluster, &spec, epoch, rec)
}

/// The first half of [`execute_plan`]: emit the plan's events, write its
/// caps to the nodes, and return the job that runs under them.
pub(crate) fn program_plan<'a, R: clip_obs::Recorder>(
    cluster: &mut Cluster,
    app: &'a AppModel,
    plan: &'a SchedulePlan,
    iterations: usize,
    epoch: u64,
    rec: &mut R,
) -> JobSpec<'a> {
    if rec.enabled_for(clip_obs::EventClass::Scheduler) {
        rec.event_with(epoch, clip_obs::EventClass::Scheduler, || {
            clip_obs::TraceEvent::PlanComputed {
                scheduler: plan.scheduler.clone(),
                nodes: plan.nodes(),
                threads_per_node: plan.threads_per_node,
                caps_total: plan.total_caps(),
            }
        });
        for (&node_id, caps) in plan.node_ids.iter().zip(&plan.caps) {
            rec.event_with(epoch, clip_obs::EventClass::Scheduler, || {
                clip_obs::TraceEvent::PlanNode {
                    node: node_id,
                    cpu: caps.cpu,
                    dram: caps.dram,
                }
            });
        }
    }
    for (&node_id, &caps) in plan.node_ids.iter().zip(&plan.caps) {
        let node = cluster.node_mut(node_id);
        node.set_caps(caps);
        if rec.enabled_for(clip_obs::EventClass::Actuation) {
            let effective = node.effective_caps();
            rec.event_with(epoch, clip_obs::EventClass::Actuation, || {
                clip_obs::TraceEvent::RaplProgrammed {
                    node: node_id,
                    cpu: caps.cpu,
                    dram: caps.dram,
                    effective_cpu: effective.cpu,
                }
            });
        }
    }
    JobSpec {
        app,
        // Borrowed, not cloned: the plan owns the ids for the epoch and
        // the job only reads them (a clone here ran every epoch).
        node_ids: std::borrow::Cow::Borrowed(&plan.node_ids),
        threads_per_node: plan.threads_per_node,
        policy: plan.policy,
        iterations,
    }
}

/// The CLIP scheduler (paper Algorithm 1).
///
/// ```
/// use clip_core::{ClipScheduler, InflectionPredictor, PowerScheduler, execute_plan};
/// use cluster_sim::Cluster;
/// use simkit::Power;
///
/// let mut cluster = Cluster::paper_testbed(42);
/// let mut clip = ClipScheduler::new(InflectionPredictor::train_default(42));
/// let app = workload::suite::tea_leaf();
/// let budget = Power::watts(1200.0);
/// let plan = clip.plan(&mut cluster, &app, budget);
/// assert!(plan.within_budget(budget));
/// let report = execute_plan(&mut cluster, &app, &plan, 5, 0, &mut clip_obs::NoopRecorder);
/// assert!(report.cluster_power <= budget);
/// ```
#[derive(Debug, Clone)]
pub struct ClipScheduler {
    profiler: SmartProfiler,
    predictor: InflectionPredictor,
    db: KnowledgeDb,
    /// By app name: the models fitted to its record in `db`, and its last
    /// allocation.
    fitted: BTreeMap<String, FittedApp>,
    calibration: CalibrationTable,
    /// Enable inter-node variability coordination (§III-B2).
    pub coordinate_variability: bool,
    /// Spread threshold above which coordination engages.
    pub variability_threshold: f64,
    /// Floor predicted inflection points to even values (§V-B2); the
    /// ablation harness disables this.
    pub floor_even: bool,
    profiles_performed: usize,
    trace_decisions: bool,
    decisions: Vec<clip_obs::TraceEvent>,
}

impl ClipScheduler {
    /// The scheduler's name, as [`PowerScheduler::name`] returns it.
    const NAME: &'static str = "CLIP";

    /// Build with a trained inflection predictor.
    pub fn new(predictor: InflectionPredictor) -> Self {
        Self {
            profiler: SmartProfiler::default(),
            predictor,
            db: KnowledgeDb::new(),
            fitted: BTreeMap::new(),
            calibration: CalibrationTable::default(),
            coordinate_variability: true,
            variability_threshold: 0.02,
            floor_even: true,
            profiles_performed: 0,
            trace_decisions: false,
            decisions: Vec::new(),
        }
    }

    /// Build with a pre-populated knowledge database. Models fitted to
    /// the previous database's records are dropped with it.
    pub fn with_knowledge_db(mut self, db: KnowledgeDb) -> Self {
        self.db = db;
        self.fitted.clear();
        self
    }

    /// Read access to the knowledge database.
    pub fn knowledge(&self) -> &KnowledgeDb {
        &self.db
    }

    /// How many smart-profiling passes have run (cache misses).
    pub fn profiles_performed(&self) -> usize {
        self.profiles_performed
    }

    /// Profile on cluster node `probe`, predict the inflection point and
    /// remember the record. The probe node must be one the caller is
    /// allowed to use — after a crash, profiling must not touch the dead
    /// node.
    fn profile(&mut self, cluster: &mut Cluster, app: &AppModel, probe: usize) -> KnowledgeRecord {
        self.profiles_performed += 1;
        let node = cluster.node_mut(probe);
        let mut profile = self.profiler.profile(node, app);
        let np = if self.floor_even {
            self.predictor.predict(&profile)
        } else {
            let raw = self.predictor.predict_raw(&profile);
            (raw.floor() as i64).clamp(2, self.predictor.total_cores() as i64) as usize
        };
        if profile.class != ScalabilityClass::Linear {
            // Third sample configuration at the predicted point (§IV-B1).
            self.profiler
                .sample_at(cluster.node_mut(probe), app, &mut profile, np);
        }
        let record = KnowledgeRecord { profile, np };
        self.db.insert(record.clone());
        record
    }

    /// Algorithm 1's allocation for `app` over a pool of `pool` nodes,
    /// profiling on a knowledge-DB miss. The models are fitted once per
    /// record, and the search re-runs only when one of its inputs changed
    /// since the app's last plan.
    fn allocation(
        &mut self,
        cluster: &mut Cluster,
        app: &AppModel,
        budget: Power,
        pool: usize,
        probe: usize,
    ) -> ClusterAllocation {
        let total_cores = cluster.node(probe).topology().total_cores();
        let record = match self.db.get(app.name()) {
            Some(record) => Cow::Borrowed(record),
            None => Cow::Owned(self.profile(cluster, app, probe)),
        };
        let fitted = match self.fitted.get_mut(app.name()) {
            Some(fitted) => fitted,
            None => self
                .fitted
                .entry(app.name().to_string())
                .or_insert_with(|| FittedApp::fit(&record)),
        };
        let budget_bits = budget.as_watts().to_bits();
        let preferred = app.preferred_node_counts();
        if let Some(last) = &fitted.last {
            if last.budget_bits == budget_bits
                && last.pool == pool
                && last.total_cores == total_cores
                && last.preferred == preferred
            {
                return last.allocation.clone();
            }
        }
        let allocation = allocate_cluster(
            budget,
            pool,
            preferred,
            &record.profile,
            &fitted.perf_model,
            &fitted.power_model,
            total_cores,
        );
        fitted.last = Some(LastAllocation {
            budget_bits,
            pool,
            total_cores,
            preferred: preferred.to_vec(),
            allocation: allocation.clone(),
        });
        allocation
    }
}

/// The models fitted to one knowledge record, and Algorithm 1's last
/// allocation with the inputs it was computed from.
#[derive(Debug, Clone)]
struct FittedApp {
    perf_model: NodePerfModel,
    power_model: FittedPowerModel,
    last: Option<LastAllocation>,
}

impl FittedApp {
    fn fit(record: &KnowledgeRecord) -> Self {
        Self {
            perf_model: NodePerfModel::from_profile(&record.profile, record.np),
            power_model: FittedPowerModel::fit(&record.profile),
            last: None,
        }
    }
}

/// Algorithm 1's last allocation for one app, with every input of
/// [`allocate_cluster`] it was computed from besides the app's record and
/// fitted models. The budget is compared by its bits.
#[derive(Debug, Clone)]
struct LastAllocation {
    budget_bits: u64,
    pool: usize,
    total_cores: usize,
    preferred: Vec<usize>,
    allocation: ClusterAllocation,
}

impl ClipScheduler {
    /// Plan against a *subset* of the cluster: only `allowed_nodes` may be
    /// used and only `budget` may be drawn. This is the entry point the
    /// queue dispatcher uses when part of the machine is already busy.
    ///
    /// Variability coordination measures only the allowed nodes (the busy
    /// ones cannot run probes).
    pub fn plan_constrained(
        &mut self,
        cluster: &mut Cluster,
        app: &AppModel,
        budget: Power,
        allowed_nodes: &[usize],
    ) -> SchedulePlan {
        assert!(!allowed_nodes.is_empty(), "no nodes available");
        for &id in allowed_nodes {
            assert!(id < cluster.len(), "node {id} out of range");
        }
        let probe = allowed_nodes.first().copied().unwrap_or(0);
        let allocation = self.allocation(cluster, app, budget, allowed_nodes.len(), probe);
        let n = allocation.nodes;
        let uniform = allocation.node_config.caps;
        let ledger = BudgetLedger::new(Self::NAME, budget);
        if self.trace_decisions {
            self.decisions.push(clip_obs::TraceEvent::AllocateChosen {
                nodes: n,
                threads: allocation.node_config.threads,
                per_node_cap: uniform.total(),
            });
        }

        let (node_ids, caps) = if self.coordinate_variability {
            let (node_ids, caps, spread) = self.calibration.select_and_shift(
                cluster,
                allowed_nodes,
                n,
                uniform,
                self.variability_threshold,
                &ledger,
            );
            if self.trace_decisions {
                self.decisions
                    .push(clip_obs::TraceEvent::CoordinateMeasured {
                        pool: node_ids.clone(),
                        spread,
                        engaged: spread > self.variability_threshold,
                    });
            }
            (node_ids, caps)
        } else {
            (
                allowed_nodes.iter().copied().take(n).collect(),
                vec![uniform; n],
            )
        };

        let plan = SchedulePlan {
            scheduler: self.name().to_string(),
            node_ids,
            threads_per_node: allocation.node_config.threads,
            policy: allocation.node_config.policy,
            caps,
        };
        ledger.audit_plan(&plan);
        plan
    }
}

impl PowerScheduler for ClipScheduler {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn plan(&mut self, cluster: &mut Cluster, app: &AppModel, budget: Power) -> SchedulePlan {
        // The unrestricted plan is the constrained plan over every live
        // node: measure the fleet, activate the thriftiest nodes, and shift
        // CPU budget onto leaky ones if the spread warrants it.
        let alive = cluster.alive_nodes();
        self.plan_constrained(cluster, app, budget, &alive)
    }

    fn plan_subset(
        &mut self,
        cluster: &mut Cluster,
        app: &AppModel,
        budget: Power,
        allowed: &[usize],
    ) -> SchedulePlan {
        self.plan_constrained(cluster, app, budget, allowed)
    }

    fn set_tracing(&mut self, on: bool) {
        self.trace_decisions = on;
        if !on {
            self.decisions.clear();
        }
    }

    fn drain_decisions(&mut self) -> Vec<clip_obs::TraceEvent> {
        std::mem::take(&mut self.decisions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinate;
    use workload::suite;

    fn scheduler() -> ClipScheduler {
        ClipScheduler::new(InflectionPredictor::train_default(5))
    }

    fn plan_for(app: &AppModel, budget_w: f64) -> (SchedulePlan, Cluster) {
        let mut cluster = Cluster::homogeneous(8);
        let mut clip = scheduler();
        let plan = clip.plan(&mut cluster, app, Power::watts(budget_w));
        (plan, cluster)
    }

    #[test]
    fn plan_respects_budget() {
        for app in [suite::comd(), suite::lu_mz(), suite::sp_mz()] {
            for budget in [800.0, 1200.0, 1800.0] {
                let (plan, _) = plan_for(&app, budget);
                assert!(
                    plan.within_budget(Power::watts(budget)),
                    "{} at {budget} W: caps {}",
                    app.name(),
                    plan.total_caps()
                );
            }
        }
    }

    #[test]
    fn generous_budget_uses_whole_cluster_for_linear_apps() {
        let (plan, _) = plan_for(&suite::comd(), 2400.0);
        assert_eq!(plan.nodes(), 8);
        assert_eq!(plan.threads_per_node, 24);
    }

    #[test]
    fn tight_budget_reduces_node_count() {
        let (generous, _) = plan_for(&suite::comd(), 2400.0);
        let (tight, _) = plan_for(&suite::comd(), 600.0);
        assert!(tight.nodes() < generous.nodes());
        assert!(tight.nodes() >= 1);
    }

    #[test]
    fn parabolic_apps_do_not_use_all_cores() {
        let (plan, _) = plan_for(&suite::sp_mz(), 1800.0);
        assert!(
            plan.threads_per_node <= 16,
            "threads {}",
            plan.threads_per_node
        );
        assert!(plan.threads_per_node >= 6);
    }

    #[test]
    fn memory_apps_get_scatter_affinity() {
        let (plan, _) = plan_for(&suite::lu_mz(), 1600.0);
        assert_eq!(plan.policy, AffinityPolicy::Scatter);
    }

    #[test]
    fn knowledge_db_prevents_reprofiling() {
        let mut cluster = Cluster::homogeneous(8);
        let mut clip = scheduler();
        let app = suite::tea_leaf();
        let _ = clip.plan(&mut cluster, &app, Power::watts(1500.0));
        assert_eq!(clip.profiles_performed(), 1);
        let _ = clip.plan(&mut cluster, &app, Power::watts(900.0));
        assert_eq!(clip.profiles_performed(), 1, "second plan must hit the DB");
        assert_eq!(clip.knowledge().len(), 1);
    }

    #[test]
    fn executed_plan_power_within_budget() {
        let mut cluster = Cluster::paper_testbed(7);
        let mut clip = scheduler();
        let app = suite::amg();
        let budget = Power::watts(1400.0);
        let plan = clip.plan(&mut cluster, &app, budget);
        let report = execute_plan(&mut cluster, &app, &plan, 2, 0, &mut clip_obs::NoopRecorder);
        assert!(
            report.cluster_power <= budget + Power::watts(1.0),
            "measured {} vs budget {}",
            report.cluster_power,
            budget
        );
        assert!(report.performance() > 0.0);
    }

    #[test]
    fn variability_coordination_selects_efficient_nodes() {
        let mut cluster =
            Cluster::with_variability(8, &cluster_sim::VariabilityModel::with_sigma(0.08), 21);
        let mut clip = scheduler();
        let app = suite::comd();
        let plan = clip.plan(&mut cluster, &app, Power::watts(900.0));
        assert!(plan.nodes() < 8, "tight budget drops nodes");
        // Selected nodes must be the most efficient ones.
        let eff = cluster.efficiencies();
        let mut sorted: Vec<usize> = (0..8).collect();
        sorted.sort_by(|&a, &b| eff[a].partial_cmp(&eff[b]).unwrap());
        let expected: std::collections::BTreeSet<usize> =
            sorted[..plan.nodes()].iter().copied().collect();
        let got: std::collections::BTreeSet<usize> = plan.node_ids.iter().copied().collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn homogeneous_pool_keeps_its_first_nodes() {
        // Every node of a homogeneous fleet measures the same factor, so
        // the n thriftiest are the pool's first n, in pool order.
        let mut cluster = Cluster::homogeneous(100);
        let mut clip = scheduler();
        let app = suite::comd();
        let budget = Power::watts(17_500.0);
        let plan = clip.plan(&mut cluster, &app, budget);
        assert!(plan.nodes() < 100, "the rack keeps a few of its nodes");
        assert_eq!(plan.node_ids, (0..plan.nodes()).collect::<Vec<_>>());
        let pool: Vec<usize> = (0..100).map(|i| i * 37 % 100).collect();
        let plan = clip.plan_subset(&mut cluster, &app, budget, &pool);
        assert!(plan.nodes() < pool.len());
        assert_eq!(plan.node_ids, pool[..plan.nodes()]);
    }

    #[test]
    fn coordination_preserves_total_budget() {
        let mut cluster =
            Cluster::with_variability(4, &cluster_sim::VariabilityModel::with_sigma(0.10), 31);
        let mut clip = scheduler();
        let app = suite::mini_md();
        let budget = Power::watts(800.0);
        let plan = clip.plan(&mut cluster, &app, budget);
        assert!(plan.within_budget(budget));
        // With 10% sigma the spread exceeds the threshold: caps differ.
        if plan.nodes() >= 2 {
            let all_same = plan.caps.windows(2).all(|w| w[0] == w[1]);
            assert!(!all_same, "coordination should differentiate caps");
        }
    }

    #[test]
    fn subset_plan_stays_inside_the_pool_and_keeps_the_budget() {
        let mut cluster = Cluster::paper_testbed(13);
        cluster.fail_node(0);
        let mut clip = scheduler();
        let app = suite::comd();
        let budget = Power::watts(1400.0);
        let allowed = cluster.alive_nodes();
        let plan = clip.plan_subset(&mut cluster, &app, budget, &allowed);
        assert!(plan.node_ids.iter().all(|id| allowed.contains(id)));
        assert!(!plan.node_ids.contains(&0), "dead node must not be used");
        assert!(plan.within_budget(budget));
        assert!(plan.nodes() >= 1);
    }

    #[test]
    fn subset_plan_profiles_on_an_allowed_node() {
        // With node 0 crashed, profiling must probe an allowed node.
        let mut cluster = Cluster::homogeneous(4);
        cluster.fail_node(0);
        let mut clip = scheduler();
        let app = suite::tea_leaf();
        let allowed = cluster.alive_nodes();
        let plan = clip.plan_subset(&mut cluster, &app, Power::watts(800.0), &allowed);
        assert_eq!(clip.profiles_performed(), 1);
        assert!(!plan.node_ids.contains(&0));
    }

    #[test]
    #[should_panic(expected = "no nodes available")]
    fn empty_subset_rejected() {
        let mut cluster = Cluster::homogeneous(2);
        let mut clip = scheduler();
        let app = suite::comd();
        let _ = clip.plan_subset(&mut cluster, &app, Power::watts(500.0), &[]);
    }

    /// CLIP's plan computed from scratch on the cluster's current state:
    /// fresh probes, freshly fitted models and a fresh Algorithm 1 search,
    /// ranked and shifted as `plan_constrained` does. The warm scheduler's
    /// caches are checked against it.
    fn uncached_plan(
        clip: &ClipScheduler,
        cluster: &Cluster,
        app: &AppModel,
        budget: Power,
        pool: &[usize],
    ) -> SchedulePlan {
        let record = clip.knowledge().get(app.name()).expect("profiled");
        let allocation = allocate_cluster(
            budget,
            pool.len(),
            app.preferred_node_counts(),
            &record.profile,
            &NodePerfModel::from_profile(&record.profile, record.np),
            &FittedPowerModel::fit(&record.profile),
            cluster.node(pool[0]).topology().total_cores(),
        );
        let factors = coordinate::measure_efficiencies(&mut cluster.clone(), pool);
        let mut ranked: Vec<(usize, f64)> = pool.iter().copied().zip(factors).collect();
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
        ranked.truncate(allocation.nodes);
        let factors: Vec<f64> = ranked.iter().map(|&(_, f)| f).collect();
        let uniform = allocation.node_config.caps;
        SchedulePlan {
            scheduler: "CLIP".to_string(),
            node_ids: ranked.iter().map(|&(id, _)| id).collect(),
            threads_per_node: allocation.node_config.threads,
            policy: allocation.node_config.policy,
            caps: coordinate::coordinate_caps(uniform, &factors, clip.variability_threshold),
        }
    }

    fn assert_same_plan(got: &SchedulePlan, want: &SchedulePlan, what: &str) {
        let bits = |p: &SchedulePlan| -> Vec<(u64, u64)> {
            p.caps
                .iter()
                .map(|c| (c.cpu.as_watts().to_bits(), c.dram.as_watts().to_bits()))
                .collect()
        };
        assert_eq!(got.node_ids, want.node_ids, "{what}: node ids");
        assert_eq!(got.threads_per_node, want.threads_per_node, "{what}");
        assert_eq!(got.policy, want.policy, "{what}");
        assert_eq!(bits(got), bits(want), "{what}: cap bits");
    }

    #[test]
    fn warm_plans_match_plans_computed_from_scratch() {
        let mut cluster =
            Cluster::with_variability(8, &cluster_sim::VariabilityModel::with_sigma(0.08), 21);
        let mut clip = scheduler();
        // One app per scalability class: linear, logarithmic, parabolic.
        let apps = [suite::comd(), suite::lu_mz(), suite::tea_leaf()];
        let full: Vec<usize> = (0..8).collect();
        let shrunk: Vec<usize> = (0..6).collect();
        for phase in 0..5 {
            let pool = match phase {
                0 => full.clone(),
                1 => shrunk.clone(),
                2 => {
                    cluster.set_node_efficiency(2, 1.15);
                    cluster.scale_node_efficiency(4, 1.25);
                    shrunk.clone()
                }
                3 => {
                    cluster.set_cap_jitter(3, 0.05);
                    shrunk.clone()
                }
                _ => {
                    cluster.fail_node(1);
                    cluster.alive_nodes().into_iter().take(5).collect()
                }
            };
            for app in &apps {
                // Each phase opens at the budget the last one closed at,
                // so a change of pool alone must re-run the search.
                for watts in [1800.0, 700.0, 1200.0, 1800.0] {
                    let budget = Power::watts(watts);
                    let got = clip.plan_subset(&mut cluster, app, budget, &pool);
                    let want = uncached_plan(&clip, &cluster, app, budget, &pool);
                    let what = format!("phase {phase}, {} at {watts} W", app.name());
                    assert_same_plan(&got, &want, &what);
                }
            }
        }
        assert_eq!(clip.profiles_performed(), apps.len());
    }

    #[test]
    fn warm_plans_probe_only_nodes_whose_power_state_changed() {
        let mut cluster = Cluster::paper_testbed(3);
        let mut clip = scheduler();
        let app = suite::comd();
        let _ = clip.plan(&mut cluster, &app, Power::watts(1400.0));
        let elapsed = |c: &Cluster| -> Vec<f64> {
            (0..c.len())
                .map(|i| c.node(i).rapl_elapsed().as_secs())
                .collect()
        };
        let before = elapsed(&cluster);
        let _ = clip.plan(&mut cluster, &app, Power::watts(900.0));
        assert_eq!(elapsed(&cluster), before, "an unchanged pool is re-probed");

        cluster.set_node_efficiency(5, 1.2);
        let _ = clip.plan(&mut cluster, &app, Power::watts(900.0));
        let after = elapsed(&cluster);
        for (i, (a, b)) in after.iter().zip(&before).enumerate() {
            assert_eq!(a != b, i == 5, "node {i}: only the changed node is probed");
        }
    }

    #[test]
    fn replacing_the_knowledge_db_drops_what_was_fitted_to_the_old_one() {
        let testbed = Cluster::paper_testbed(9);
        let app = suite::tea_leaf();
        let budget = Power::watts(1200.0);
        let mut warm = scheduler();
        let old = warm.plan(&mut testbed.clone(), &app, budget);
        let mut record = warm.knowledge().get(app.name()).expect("profiled").clone();
        record.np = if record.np > 8 { 6 } else { 16 };
        let mut db = KnowledgeDb::new();
        db.insert(record);

        let mut warm = warm.with_knowledge_db(db.clone());
        let got = warm.plan(&mut testbed.clone(), &app, budget);
        let want = scheduler()
            .with_knowledge_db(db)
            .plan(&mut testbed.clone(), &app, budget);
        assert_ne!(got.threads_per_node, old.threads_per_node);
        assert_same_plan(&got, &want, "after with_knowledge_db");
    }

    #[test]
    fn disabled_coordination_gives_uniform_caps() {
        let mut cluster =
            Cluster::with_variability(4, &cluster_sim::VariabilityModel::with_sigma(0.10), 31);
        let mut clip = scheduler();
        clip.coordinate_variability = false;
        let app = suite::mini_md();
        let plan = clip.plan(&mut cluster, &app, Power::watts(800.0));
        assert!(plan.caps.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(plan.node_ids, (0..plan.nodes()).collect::<Vec<_>>());
    }
}
