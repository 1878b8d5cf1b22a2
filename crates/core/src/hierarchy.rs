//! Two-level coordination: rack-level epoch engines under a cluster-level
//! budget arbiter (ROADMAP item 1).
//!
//! The paper frames CLIP's coordinate→allocate→recommend cycle as
//! hierarchical by construction (§III); its evaluation stops at one
//! 8-node group. [`run_sharded`] scales the cycle out: a
//! [`ShardedFleet`](cluster_sim::ShardedFleet) partitions the fleet into
//! racks, each rack runs its own [`EpochEngine`] through the existing
//! [`EpochPolicy`] machinery ([`RackTimeline`] replays the rack's slice of
//! the global fault plan), and a [`BudgetArbiter`] splits the global power
//! bound across racks each epoch, shifting slack watts from
//! under-demanding racks to constrained ones — the inter-group
//! redistribution of Medhat et al., with EcoShift's demand-driven
//! reallocation as the receiving rule. Every grant change is zero-sum
//! audited by a [`BudgetLedger`] shift audit.
//!
//! # The rack pool
//!
//! A campaign splits its racks once into contiguous parts, one per worker
//! ([`worker_count`](cluster_sim::sweep::worker_count) resolves
//! [`ShardConfig::workers`]), and starts one helper thread per part
//! beyond the first inside a single `std::thread::scope` that lives as
//! long as the epoch loop. Racks stay in their part's `Vec` for the whole
//! campaign: each epoch a helper is sent its part by value over a std
//! channel — the `Vec` header, not the racks — and sends it back
//! executed, while the calling thread executes part 0. Nothing is
//! spawned, allocated or sorted per epoch. A panic while executing any
//! part re-raises its original payload from [`run_sharded`]; every way
//! out of the scope, unwinding included, drops the helpers' channels, so
//! each helper's inbox closes and it exits.
//!
//! # Determinism under parallel execution
//!
//! Each epoch is a strict three-phase cycle:
//!
//! 1. **prepare** (calling thread, rack-index order): rack crashes fire,
//!    the arbiter re-grants, each live rack plans and audits via
//!    [`EpochEngine::prepare_epoch`] — everything that touches the
//!    process-wide audit counters, the scheduler's decision buffer, or a
//!    trace sink happens here;
//! 2. **execute** (the pool): [`EpochEngine::execute`]'s in-place form
//!    per rack. A part owns its racks wholesale (cluster, engine,
//!    recorder) and each rack's report stays in its own engine's job memo
//!    — no shared accumulation, no interior mutability, which is exactly
//!    the shape clip-lint's shared-state and commutativity rules prove
//!    (§13's proof obligation; `run_sharded` is a registered
//!    replay-critical entry point);
//! 3. **settle** (calling thread, rack-index order): actuation audits,
//!    epoch records and trace emission, [`EpochEngine::settle_epoch`] on
//!    the report in the rack engine's memo, then the arbiter rebalances on
//!    the demands just reported.
//!
//! Parts are contiguous and return to their slots, so the prepare and
//! settle loops walk the racks in rack-index order whatever the worker
//! count or the execute order inside a part: traces, ledger audits and
//! golden hashes are byte-identical across thread schedules — the
//! replay-equivalence suite (`crates/cluster/tests/shard_equivalence.rs`,
//! `tests/replay.rs`) pins a 1-rack sharded run against the flat engine
//! bit for bit.

use crate::audit::BudgetLedger;
use crate::degrade::FaultTimeline;
use crate::engine::{
    Boundary, EpochEngine, EpochPolicy, EpochPrep, FaultHarnessConfig, FaultRunReport, RunState,
};
use crate::scheduler::{PowerScheduler, SchedulePlan};
use crate::service::ServiceTimeline;
use clip_obs::Recorder;
use clip_serve::ServiceReport;
use cluster_sim::sweep::worker_count;
use cluster_sim::{split_faults, Cluster, FaultPlan, JobReport, ShardedFleet};
use serde::{Deserialize, Serialize};
use simkit::{Power, SimRng};
use simnode::PowerCaps;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use workload::AppModel;

/// Grant deltas below this are noise, not a re-plan trigger (mirrors the
/// ledger's audit tolerance).
const GRANT_TOLERANCE_WATTS: f64 = 1e-6;

/// How a sharded campaign is shaped and paced.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardConfig {
    /// Coordination epochs to simulate.
    pub epochs: usize,
    /// Job iterations executed per epoch in every rack.
    pub iterations_per_epoch: usize,
    /// Fraction of a rack's slack watts the arbiter shifts per epoch
    /// (Medhat-style gradual redistribution), in `[0, 1]`.
    pub shift_fraction: f64,
    /// Threads in the campaign's rack pool, the calling thread included:
    /// `Some(1)` runs sequentially; `None` runs sequentially under 5 racks
    /// and otherwise uses one worker per CPU; never more workers than
    /// racks. The replay suite runs the same campaign at several counts
    /// and asserts byte-identity.
    pub workers: Option<usize>,
    /// When set, every part of the pool executes its racks in a seeded
    /// shuffled order each epoch (prepare and settle still walk the racks
    /// in rack-index order) — the schedule-independence tests drive this.
    pub shuffle_seed: Option<u64>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            epochs: 8,
            iterations_per_epoch: 2,
            shift_fraction: 0.5,
            workers: None,
            shuffle_seed: None,
        }
    }
}

impl ShardConfig {
    /// The per-rack engine config this campaign drives each rack with.
    pub fn rack_config(&self) -> FaultHarnessConfig {
        FaultHarnessConfig {
            epochs: self.epochs,
            iterations_per_epoch: self.iterations_per_epoch,
        }
    }
}

/// A whole-rack failure: at `at_epoch`'s boundary the rack drops out of
/// the campaign and the arbiter returns its grant to the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RackFault {
    /// Epoch at whose boundary the rack dies.
    pub at_epoch: usize,
    /// Rack index.
    pub rack: usize,
}

/// The fault policy of one rack: replay the rack's slice of the global
/// fault plan (already translated to rack-local indices by
/// [`cluster_sim::split_faults`]), plus an arbiter-driven re-plan trigger
/// for epochs whose grant changed. Optionally stacks an open-loop
/// [`ServiceTimeline`] on top, so a rack serves multi-tenant arrival
/// load while the fault plan and the arbiter act on it.
#[derive(Debug)]
pub struct RackTimeline {
    faults: FaultPlan,
    force_replan: bool,
    service: Option<ServiceTimeline>,
}

impl RackTimeline {
    /// A policy replaying `faults` (rack-local indices) epoch by epoch.
    pub fn new(faults: FaultPlan) -> Self {
        Self {
            faults,
            force_replan: false,
            service: None,
        }
    }

    /// A rack policy that also drives an open-loop service: faults fire
    /// first at every boundary, then the service admits/preempts/scales
    /// over the survivors.
    pub fn with_service(faults: FaultPlan, service: ServiceTimeline) -> Self {
        Self {
            faults,
            force_replan: false,
            service: Some(service),
        }
    }

    /// Arm an immediate re-plan at the next epoch boundary: the arbiter
    /// changed this rack's budget, so the standing plan is stale.
    pub fn force_replan(&mut self) {
        self.force_replan = true;
    }

    /// Follow an arbiter re-grant: the service's power envelope moves to
    /// the rack's new grant; the next boundary re-splits (and audits) the
    /// service grant against it.
    pub fn regrant(&mut self, envelope: Power) {
        if let Some(s) = self.service.as_mut() {
            s.set_cluster_budget(envelope);
        }
    }

    /// Take the stacked service policy back out (end of campaign).
    pub fn take_service(&mut self) -> Option<ServiceTimeline> {
        self.service.take()
    }
}

impl<R: Recorder> EpochPolicy<R> for RackTimeline {
    fn epoch_boundary(
        &mut self,
        cluster: &mut Cluster,
        scheduler: &mut dyn PowerScheduler,
        plan: &mut SchedulePlan,
        epoch: usize,
        rec: &mut R,
    ) -> Boundary {
        let mut timeline = FaultTimeline::new(&self.faults);
        let mut b = timeline.epoch_boundary(cluster, scheduler, plan, epoch, rec);
        if let Some(service) = self.service.as_mut() {
            // Faults fired above; the service decides over the survivors.
            // It never changes node liveness, so the fault boundary's
            // pool_changed/reclaimed verdicts stand untouched.
            let s = service.service_boundary(cluster, scheduler, epoch, rec);
            b.events_applied += s.events_applied;
            b.events_ignored += s.events_ignored;
            b.replan_now |= s.replan_now;
            if s.budget.is_some() {
                b.budget = s.budget;
            }
        }
        b.replan_now |= std::mem::take(&mut self.force_replan);
        b
    }

    fn app_for_epoch(&self, epoch: usize) -> Option<&AppModel> {
        let _ = epoch;
        self.service.as_ref().and_then(ServiceTimeline::active_app)
    }

    fn restrict_pool(&self, pool: &mut Vec<usize>) {
        if let Some(s) = self.service.as_ref() {
            s.restrict(pool);
        }
    }

    fn epoch_settled(&mut self, report: &JobReport, epoch: usize, rec: &mut R) {
        if let Some(s) = self.service.as_mut() {
            s.settled(report, epoch, rec);
        }
    }
}

/// The cluster-level layer of the hierarchy: owns the global power bound
/// and each rack's current grant, and shifts slack between racks each
/// epoch based on the demand (programmed caps) the racks report up.
///
/// The shifting rule is Medhat-style gradual redistribution: every rack
/// whose grant exceeds its demand donates `shift_fraction` of the slack;
/// the pooled watts go to constrained racks (demand at or above grant),
/// split by alive-node weight. No receivers → the donation round is
/// cancelled (grants unchanged). Every applied change is zero-sum by
/// construction and audited by [`BudgetLedger::audit_shift`].
#[derive(Debug, Clone)]
pub struct BudgetArbiter {
    budget: Power,
    shift_fraction: f64,
    grants: Vec<Power>,
    scratch: ArbiterScratch,
}

/// Reusable buffers for the arbiter's per-epoch work. `rebalance` runs
/// every epoch on the sharded hot path, so the donation /
/// weight / share vectors and the audit snapshots are kept here and
/// refilled with `clear()` + `resize`/`extend` instead of collected anew.
#[derive(Debug, Clone, Default)]
struct ArbiterScratch {
    donations: Vec<f64>,
    weights: Vec<usize>,
    shares: Vec<f64>,
    before: Vec<PowerCaps>,
    after: Vec<PowerCaps>,
}

impl BudgetArbiter {
    /// Split `budget` across racks proportionally to `weights` (alive
    /// node counts), with the last nonzero-weight rack absorbing the
    /// floating-point remainder so the grants sum to `budget` exactly.
    pub fn new(budget: Power, weights: &[usize], shift_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&shift_fraction),
            "shift fraction must be in [0, 1]"
        );
        let mut shares = Vec::new();
        proportional_split(budget.as_watts(), weights, &mut shares);
        let grants = shares.iter().copied().map(Power::watts).collect();
        Self {
            budget,
            shift_fraction,
            grants,
            // Seed the scratch with the construction-time share buffer so
            // the first rebalance starts from a warm allocation.
            scratch: ArbiterScratch {
                shares,
                ..ArbiterScratch::default()
            },
        }
    }

    /// The global bound the grants always sum to (dead racks hold zero).
    pub fn budget(&self) -> Power {
        self.budget
    }

    /// Current per-rack grants, in rack order.
    pub fn grants(&self) -> &[Power] {
        &self.grants
    }

    /// Retire a dead rack: zero its grant and immediately redistribute
    /// the reclaimed watts to the live racks (by alive-node weight), so
    /// survivors see the budget within the same epoch. Returns the watts
    /// reclaimed from the dead rack.
    pub fn retire_rack(&mut self, rack: usize, alive: &[usize], live: &[bool]) -> Power {
        // Take the scratch so its buffers can be filled while `self` is
        // mutably borrowed; restored before every return.
        let mut scratch = std::mem::take(&mut self.scratch);
        caps_of(&self.grants, &mut scratch.before);
        let reclaimed = self.grants.get(rack).copied().unwrap_or(Power::ZERO);
        if let Some(g) = self.grants.get_mut(rack) {
            *g = Power::ZERO;
        }
        scratch.weights.clear();
        scratch
            .weights
            .extend(alive.iter().zip(live).map(|(&a, &l)| if l { a } else { 0 }));
        proportional_split(reclaimed.as_watts(), &scratch.weights, &mut scratch.shares);
        for (g, share) in self.grants.iter_mut().zip(&scratch.shares) {
            *g += Power::watts(*share);
        }
        caps_of(&self.grants, &mut scratch.after);
        self.audit_shift(&scratch.before, &scratch.after);
        self.scratch = scratch;
        reclaimed
    }

    /// One Medhat-style rebalance round over the demands the racks
    /// reported this epoch. Returns the new grants (also stored).
    pub fn rebalance(&mut self, demands: &[Power], alive: &[usize], live: &[bool]) -> &[Power] {
        // Take the scratch so its buffers can be filled while `self` is
        // mutably borrowed; restored before every return.
        let mut scratch = std::mem::take(&mut self.scratch);
        caps_of(&self.grants, &mut scratch.before);
        let n = self.grants.len();
        scratch.donations.clear();
        scratch.donations.resize(n, 0.0);
        scratch.weights.clear();
        scratch.weights.resize(n, 0);
        let mut pool = 0.0f64;
        let mut has_receivers = false;
        for (r, grant) in self.grants.iter().enumerate() {
            let is_live = live.get(r).copied().unwrap_or(false);
            if !is_live {
                continue;
            }
            let demand = demands.get(r).copied().unwrap_or(Power::ZERO);
            let slack = grant.as_watts() - demand.as_watts();
            if slack > GRANT_TOLERANCE_WATTS {
                let d = slack * self.shift_fraction;
                if let Some(slot) = scratch.donations.get_mut(r) {
                    *slot = d;
                }
                pool += d;
            } else {
                // Demand at (or above) the grant: this rack is
                // power-constrained and wants more. Its receive weight is
                // its alive-node count; non-receivers stay zero-weighted.
                if let Some(w) = scratch.weights.get_mut(r) {
                    *w = alive.get(r).copied().unwrap_or(0);
                }
                has_receivers = true;
            }
        }
        if pool <= GRANT_TOLERANCE_WATTS || !has_receivers {
            self.scratch = scratch;
            return &self.grants;
        }
        proportional_split(pool, &scratch.weights, &mut scratch.shares);
        for ((g, donated), share) in self
            .grants
            .iter_mut()
            .zip(&scratch.donations)
            .zip(&scratch.shares)
        {
            *g = Power::watts(g.as_watts() - donated + share);
        }
        caps_of(&self.grants, &mut scratch.after);
        self.audit_shift(&scratch.before, &scratch.after);
        self.scratch = scratch;
        &self.grants
    }

    /// Zero-sum proof: every grant change preserves the global bound,
    /// checked through the same ledger machinery that audits intra-rack
    /// cap shifting.
    fn audit_shift(&self, before: &[PowerCaps], after: &[PowerCaps]) {
        BudgetLedger::new("arbiter", self.budget).audit_shift(before, after);
    }
}

/// Snapshot `grants` as [`PowerCaps`] into `out` for the shift audit.
/// Struct literal, not `PowerCaps::new`: a dead rack's grant is a
/// legitimate zero, and the shift audit only compares sums.
fn caps_of(grants: &[Power], out: &mut Vec<PowerCaps>) {
    out.clear();
    out.extend(grants.iter().map(|&g| PowerCaps {
        cpu: g,
        dram: Power::ZERO,
    }));
}

/// Split `total` watts over `weights` into `parts` (cleared and refilled,
/// so callers can reuse the buffer — this runs on the per-epoch rebalance
/// path), zero where the weight is zero, the last nonzero-weight slot
/// absorbing the rounding remainder so the parts sum to `total` exactly.
fn proportional_split(total: f64, weights: &[usize], parts: &mut Vec<f64>) {
    parts.clear();
    parts.resize(weights.len(), 0.0);
    let weight_sum: usize = weights.iter().sum();
    if weight_sum == 0 {
        return;
    }
    let last_nonzero = weights.iter().rposition(|&w| w > 0);
    let mut assigned = 0.0f64;
    for (i, (&w, part)) in weights.iter().zip(parts.iter_mut()).enumerate() {
        if w == 0 {
            continue;
        }
        if Some(i) == last_nonzero {
            *part = total - assigned;
        } else {
            *part = total * (w as f64) / (weight_sum as f64);
            assigned += *part;
        }
    }
}

/// One rack's worth of campaign state. The rack owns its cluster,
/// scheduler, engine (and therefore recorder), policy and run state, so
/// executing its epoch touches nothing outside the value, on whichever
/// pool thread holds its part.
struct RackRun<'a, R: Recorder> {
    rack: usize,
    cluster: Cluster,
    scheduler: Box<dyn PowerScheduler + Send>,
    engine: EpochEngine<R>,
    policy: RackTimeline,
    /// The campaign's app, shared by every rack.
    app: &'a AppModel,
    state: RunState,
    phase: RackPhase,
    iterations: usize,
    granted: Power,
    last_demand: Power,
    reclaimed: Power,
}

/// Where a rack stands in the campaign and in the current epoch.
enum RackPhase {
    /// Live, with nothing in flight: between epochs.
    Idle,
    /// Planned and audited this epoch; the execute phase runs next.
    Prepared(EpochPrep),
    /// Executed this epoch; the report waits in the rack engine's memo
    /// for the settle phase.
    Executed(EpochPrep),
    /// The whole rack crashed at epoch `at`'s boundary. Nothing touches
    /// the rack afterwards, so its engine is closed out with the
    /// survivors' at the end of the campaign, over the epochs it ran.
    Crashed { at: usize },
}

impl<R: Recorder> RackRun<'_, R> {
    fn is_live(&self) -> bool {
        !matches!(self.phase, RackPhase::Crashed { .. })
    }

    /// Phase 1 (calling thread, rack order): plan and audit the epoch.
    fn prepare(&mut self, epoch: usize) {
        if self.is_live() {
            let prep = self.engine.prepare_epoch(
                &mut self.state,
                &mut *self.scheduler,
                &mut self.cluster,
                self.app,
                &mut self.policy,
                epoch,
            );
            self.phase = RackPhase::Prepared(prep);
        }
    }

    /// Phase 2 (any pool thread): run the prepared epoch.
    fn execute(&mut self) {
        match std::mem::replace(&mut self.phase, RackPhase::Idle) {
            RackPhase::Prepared(prep) => {
                let app = self.state.staged().unwrap_or(self.app);
                self.engine.execute_in_place(
                    &mut self.cluster,
                    app,
                    &self.state.plan,
                    self.iterations,
                );
                self.phase = RackPhase::Executed(prep);
            }
            other => self.phase = other,
        }
    }

    /// Phase 3 (calling thread, rack order): audit the actuation, record
    /// the epoch and report the rack's demand to the arbiter.
    fn settle(&mut self, epoch: usize) {
        match std::mem::replace(&mut self.phase, RackPhase::Idle) {
            RackPhase::Executed(prep) => {
                self.last_demand = self.state.plan.total_caps();
                self.engine
                    .settle_in_place(&mut self.state, prep, &mut self.policy, epoch);
            }
            other => self.phase = other,
        }
    }

    /// Close the rack's engine out: its slice of the shard report, its
    /// service's report and its recorder.
    fn finish(mut self) -> (RackReport, Option<ServiceReport>, R) {
        let report = self
            .engine
            .finish_run(self.state, &mut *self.scheduler, &self.cluster);
        let crashed_at = match self.phase {
            RackPhase::Crashed { at } => Some(at),
            _ => None,
        };
        let rack = RackReport {
            rack: self.rack,
            granted: self.granted,
            crashed_at,
            reclaimed: self.reclaimed,
            report,
        };
        let service = self.policy.take_service().map(ServiceTimeline::into_report);
        (rack, service, self.engine.into_recorder())
    }
}

/// A contiguous run of racks, in rack order: the unit the pool hands a
/// thread.
type Part<'a, R> = Vec<RackRun<'a, R>>;

/// The calling thread's ends of one pool helper's channels: a part goes
/// out by value each epoch and comes back executed — or as the payload of
/// the panic that stopped it.
struct Helper<'a, R: Recorder> {
    to: SyncSender<Part<'a, R>>,
    from: Receiver<std::thread::Result<Part<'a, R>>>,
}

/// One rack's slice of a [`ShardRunReport`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RackReport {
    /// Rack index.
    pub rack: usize,
    /// The rack's final budget grant (zero if the rack died).
    pub granted: Power,
    /// Epoch at which the whole rack crashed, if it did.
    pub crashed_at: Option<usize>,
    /// Watts the arbiter reclaimed from this rack when it died.
    pub reclaimed: Power,
    /// The rack engine's full run report (epochs, recoveries, TTR).
    pub report: FaultRunReport,
}

/// Full deterministic record of a sharded campaign: a pure function of
/// (fleet seed, topology, fault plans, config), which is what the
/// cross-thread-count replay gate hashes.
#[must_use = "a shard report carries per-rack audit verdicts and must be inspected"]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardRunReport {
    /// The global power bound.
    pub budget: Power,
    /// Coordination epochs simulated.
    pub epochs: usize,
    /// Per-rack reports, in rack-index order.
    pub racks: Vec<RackReport>,
    /// Alive nodes across live racks when the campaign ended.
    pub survivors: usize,
}

impl ShardRunReport {
    /// Mean per-epoch performance summed over live racks (the cluster
    /// aggregate the 10k-node campaign prints).
    pub fn aggregate_performance(&self) -> f64 {
        self.racks
            .iter()
            .filter(|r| r.crashed_at.is_none())
            .map(|r| r.report.mean_performance())
            .sum()
    }
}

/// Drive a sharded fleet through a fault campaign under one global power
/// bound: one [`EpochEngine`] per rack, grants arbitrated per epoch,
/// rack-level executes run on the campaign's rack pool (module doc).
///
/// `make_scheduler` builds rack `r`'s scheduler (called once per rack, in
/// rack order, before the campaign starts). `recorders` supplies one
/// recorder per rack (rack order); they are returned, in rack order,
/// alongside the report so traced campaigns can recover their sinks.
/// `faults` uses *global* node indices and is routed through rack
/// boundaries by [`cluster_sim::split_faults`]; `rack_faults` kill whole
/// racks at epoch boundaries. `cluster_rec` narrates the arbiter's
/// decisions ([`clip_obs::TraceEvent::ShardRunStarted`] /
/// `RackGranted` / `RackCrashed`).
#[allow(clippy::too_many_arguments)]
pub fn run_sharded<R, C, F>(
    fleet: ShardedFleet,
    make_scheduler: F,
    app: &AppModel,
    budget: Power,
    faults: &FaultPlan,
    rack_faults: &[RackFault],
    cfg: &ShardConfig,
    recorders: Vec<R>,
    cluster_rec: &mut C,
) -> (ShardRunReport, Vec<R>)
where
    R: Recorder + Send,
    C: Recorder,
    F: FnMut(usize) -> Box<dyn PowerScheduler + Send>,
{
    let (report, _services, recorders) = run_sharded_service(
        fleet,
        make_scheduler,
        app,
        budget,
        faults,
        rack_faults,
        cfg,
        None,
        recorders,
        cluster_rec,
    );
    (report, recorders)
}

/// [`run_sharded`] with an optional open-loop service per rack: when
/// `services` is `Some`, it must hold one [`ServiceTimeline`] per rack
/// (rack order), each rack's policy becomes
/// [`RackTimeline::with_service`], and every arbiter re-grant moves that
/// rack's service power envelope ([`RackTimeline::regrant`]) so the
/// grant/reserve re-split stays zero-sum under the arbiter's audits.
/// Returns the per-rack [`ServiceReport`]s (in rack order, `None` for
/// racks that ran no service) between the shard report and the
/// recorders.
#[allow(clippy::too_many_arguments)]
pub fn run_sharded_service<R, C, F>(
    fleet: ShardedFleet,
    make_scheduler: F,
    app: &AppModel,
    budget: Power,
    faults: &FaultPlan,
    rack_faults: &[RackFault],
    cfg: &ShardConfig,
    services: Option<Vec<ServiceTimeline>>,
    recorders: Vec<R>,
    cluster_rec: &mut C,
) -> (ShardRunReport, Vec<Option<ServiceReport>>, Vec<R>)
where
    R: Recorder + Send,
    C: Recorder,
    F: FnMut(usize) -> Box<dyn PowerScheduler + Send>,
{
    let mut make_scheduler = make_scheduler;
    let topo = fleet.topology();
    assert!(cfg.epochs > 0, "need at least one epoch");
    assert_eq!(
        recorders.len(),
        topo.racks(),
        "one recorder per rack, in rack order"
    );
    if let Some(list) = services.as_ref() {
        assert_eq!(
            list.len(),
            topo.racks(),
            "one service timeline per rack, in rack order"
        );
    }
    let mut service_iter = services.map(Vec::into_iter);

    let rack_plans = split_faults(&topo, faults);
    let clusters = fleet.into_racks();
    let alive_counts: Vec<usize> = clusters.iter().map(Cluster::alive_len).collect();
    let mut arbiter = BudgetArbiter::new(budget, &alive_counts, cfg.shift_fraction);
    let rack_cfg = cfg.rack_config();

    if cluster_rec.enabled_for(clip_obs::EventClass::Shard) {
        let racks = topo.racks();
        let nodes = topo.total_nodes();
        let epochs = cfg.epochs as u64;
        cluster_rec.event_with(0, clip_obs::EventClass::Shard, || {
            clip_obs::TraceEvent::ShardRunStarted {
                budget,
                racks,
                nodes,
                epochs,
            }
        });
    }

    // Build every rack runner in rack order: scheduler, engine (owning
    // the rack's recorder and initial grant), fault policy, and the
    // epoch-0 coordinated plan via `begin_run`.
    let mut runs: Vec<RackRun<R>> = Vec::with_capacity(topo.racks());
    for (rack, ((mut cluster, rec), plan)) in clusters
        .into_iter()
        .zip(recorders)
        .zip(rack_plans)
        .enumerate()
    {
        let granted = arbiter.grants().get(rack).copied().unwrap_or(Power::ZERO);
        if cluster_rec.enabled_for(clip_obs::EventClass::Shard) {
            let alive = cluster.alive_len();
            cluster_rec.event_with(0, clip_obs::EventClass::Shard, || {
                clip_obs::TraceEvent::RackGranted {
                    rack,
                    granted,
                    demand: Power::ZERO,
                    alive,
                }
            });
        }
        let mut scheduler = make_scheduler(rack);
        let mut policy = match service_iter.as_mut().and_then(Iterator::next) {
            Some(svc) => RackTimeline::with_service(plan, svc),
            None => RackTimeline::new(plan),
        };
        // A service rack starts inside its own grant/reserve split of the
        // arbiter grant; its envelope follows every re-grant.
        policy.regrant(granted);
        let engine_budget = policy
            .service
            .as_ref()
            .map_or(granted, |s| s.grant().min(granted));
        let mut engine = EpochEngine::new(engine_budget, rec);
        let state = engine.begin_run(&mut *scheduler, &mut cluster, app, &mut policy, &rack_cfg);
        runs.push(RackRun {
            rack,
            cluster,
            scheduler,
            engine,
            policy,
            app,
            state,
            phase: RackPhase::Idle,
            iterations: cfg.iterations_per_epoch,
            granted,
            last_demand: Power::ZERO,
            reclaimed: Power::ZERO,
        });
    }
    let mut parts = split_parts(runs, worker_count(cfg.workers, topo.racks()));

    // Per-epoch scratch, hoisted out of the epoch loop: refilled with
    // clear() + extend each phase instead of collected anew.
    let mut order: Vec<usize> = Vec::new();
    let mut demands: Vec<Power> = Vec::with_capacity(topo.racks());
    let mut alive: Vec<usize> = Vec::with_capacity(topo.racks());
    let mut live: Vec<bool> = Vec::with_capacity(topo.racks());
    let shuffle_seed = cfg.shuffle_seed;

    std::thread::scope(|s| {
        // The pool: one helper per part beyond the first, for the whole
        // campaign. Dropping `helpers` — at the end, or while unwinding —
        // closes every helper's inbox, and each helper exits.
        let helpers: Vec<Helper<R>> = parts
            .iter()
            .skip(1)
            .map(|_| {
                let (to, inbox) = sync_channel(1);
                let (outbox, from) = sync_channel(1);
                s.spawn(move || serve_parts(inbox, outbox, shuffle_seed));
                Helper { to, from }
            })
            .collect();

        for epoch in 0..cfg.epochs {
            let ep = epoch as u64;

            // Phase 0 (sequential): whole-rack crashes at this boundary.
            // The dead rack stops running and its grant returns to the
            // pool, redistributed to the survivors *within this epoch*.
            for fault in rack_faults.iter().filter(|f| f.at_epoch == epoch) {
                let live_racks = parts.iter().flatten().filter(|r| r.is_live()).count();
                let Some(run) = parts.iter_mut().flatten().nth(fault.rack) else {
                    continue;
                };
                if !run.is_live() || live_racks <= 1 {
                    // Mirrors the node-level rule: never crash the last
                    // survivor; the event is dropped.
                    continue;
                }
                run.phase = RackPhase::Crashed { at: epoch };
                fleet_state(&parts, &mut alive, &mut live);
                let reclaimed = arbiter.retire_rack(fault.rack, &alive, &live);
                if let Some(run) = parts.iter_mut().flatten().nth(fault.rack) {
                    run.reclaimed = reclaimed;
                    run.granted = Power::ZERO;
                }
                if cluster_rec.enabled_for(clip_obs::EventClass::Shard) {
                    let rack = fault.rack;
                    cluster_rec.event_with(ep, clip_obs::EventClass::Shard, || {
                        clip_obs::TraceEvent::RackCrashed {
                            rack,
                            at_epoch: ep,
                            reclaimed,
                        }
                    });
                }
                apply_grants(&mut parts, &arbiter, cluster_rec, ep);
            }

            // Phase 1 (sequential, rack order): plan + audit each live rack.
            for run in parts.iter_mut().flatten() {
                run.prepare(epoch);
            }

            // Phase 2 (parallel): each helper takes its part by value while
            // this thread executes part 0, then every part comes back to
            // its slot, so rack order never changes.
            if let Some((first, rest)) = parts.split_first_mut() {
                for (helper, part) in helpers.iter().zip(rest.iter_mut()) {
                    // A helper hangs up only after this thread does, so the
                    // send cannot fail.
                    let _ = helper.to.send(std::mem::take(part));
                }
                execute_part(first, &mut order, shuffle_seed, epoch);
                for (helper, part) in helpers.iter().zip(rest) {
                    // Every part sent gets exactly one reply.
                    if let Ok(reply) = helper.from.recv() {
                        *part = reply.unwrap_or_else(|payload| resume_unwind(payload));
                    }
                }
            }

            // Phase 3 (sequential, rack order): settle each live rack and
            // collect its demand for the arbiter.
            for run in parts.iter_mut().flatten() {
                run.settle(epoch);
            }

            // Phase 4 (sequential): the arbiter shifts slack on the demands
            // just reported; changed grants take effect next epoch.
            if epoch + 1 < cfg.epochs {
                demands.clear();
                demands.extend(parts.iter().flatten().map(|r| r.last_demand));
                fleet_state(&parts, &mut alive, &mut live);
                arbiter.rebalance(&demands, &alive, &live);
                apply_grants(&mut parts, &arbiter, cluster_rec, ep);
            }
        }
    });

    // Close every rack out and merge the reports in rack order.
    let mut racks_out: Vec<RackReport> = Vec::with_capacity(topo.racks());
    let mut services_out: Vec<Option<ServiceReport>> = Vec::with_capacity(topo.racks());
    let mut recorders_out: Vec<R> = Vec::with_capacity(topo.racks());
    let mut survivors = 0usize;
    for run in parts.into_iter().flatten() {
        let (rack, service, rec) = run.finish();
        if rack.crashed_at.is_none() {
            survivors += rack.report.survivors;
        }
        racks_out.push(rack);
        services_out.push(service);
        recorders_out.push(rec);
    }

    (
        ShardRunReport {
            budget,
            epochs: cfg.epochs,
            racks: racks_out,
            survivors,
        },
        services_out,
        recorders_out,
    )
}

/// Split `runs` into `k` contiguous parts in rack order, their sizes
/// differing by at most one (the first parts take the remainder).
fn split_parts<T>(runs: Vec<T>, k: usize) -> Vec<Vec<T>> {
    let k = k.max(1);
    let (size, extra) = (runs.len() / k, runs.len() % k);
    let mut runs = runs.into_iter();
    (0..k)
        .map(|p| runs.by_ref().take(size + usize::from(p < extra)).collect())
        .collect()
}

/// A pool helper's life: execute each part it is handed and hand it back,
/// until the campaign hangs up. Parts arrive one per epoch, in epoch
/// order. A panic while executing goes back as the part's reply, payload
/// intact, for the calling thread to re-raise.
fn serve_parts<'a, R: Recorder>(
    inbox: Receiver<Part<'a, R>>,
    outbox: SyncSender<std::thread::Result<Part<'a, R>>>,
    shuffle_seed: Option<u64>,
) {
    let mut order = Vec::new();
    for (epoch, mut part) in inbox.into_iter().enumerate() {
        let ran = catch_unwind(AssertUnwindSafe(|| {
            execute_part(&mut part, &mut order, shuffle_seed, epoch);
        }));
        if outbox.send(ran.map(|()| part)).is_err() {
            break;
        }
    }
}

/// Execute every prepared rack of one part, in the part's submission
/// order for `epoch`.
fn execute_part<R: Recorder>(
    part: &mut [RackRun<'_, R>],
    order: &mut Vec<usize>,
    shuffle_seed: Option<u64>,
    epoch: usize,
) {
    submission_order(order, part.len(), shuffle_seed, epoch);
    for &i in order.iter() {
        if let Some(run) = part.get_mut(i) {
            run.execute();
        }
    }
}

/// Refill the arbiter's per-rack inputs in rack order: alive nodes and
/// liveness.
fn fleet_state<R: Recorder>(parts: &[Part<'_, R>], alive: &mut Vec<usize>, live: &mut Vec<bool>) {
    alive.clear();
    alive.extend(parts.iter().flatten().map(|r| r.cluster.alive_len()));
    live.clear();
    live.extend(parts.iter().flatten().map(RackRun::is_live));
}

/// Push the arbiter's current grants down into the rack engines: any rack
/// whose grant moved beyond tolerance re-targets its engine budget, arms
/// a forced re-plan for its next boundary, and is narrated on the
/// cluster-level recorder.
fn apply_grants<R: Recorder, C: Recorder>(
    parts: &mut [Part<'_, R>],
    arbiter: &BudgetArbiter,
    cluster_rec: &mut C,
    epoch: u64,
) {
    for (run, &grant) in parts.iter_mut().flatten().zip(arbiter.grants()) {
        if !run.is_live() {
            continue;
        }
        if (grant.as_watts() - run.granted.as_watts()).abs() <= GRANT_TOLERANCE_WATTS {
            continue;
        }
        run.granted = grant;
        run.engine.set_budget(grant);
        run.policy.regrant(grant);
        run.policy.force_replan();
        if cluster_rec.enabled_for(clip_obs::EventClass::Shard) {
            let rack = run.rack;
            let demand = run.last_demand;
            let alive = run.cluster.alive_len();
            cluster_rec.event_with(epoch, clip_obs::EventClass::Shard, || {
                clip_obs::TraceEvent::RackGranted {
                    rack,
                    granted: grant,
                    demand,
                    alive,
                }
            });
        }
    }
}

/// A part's execute order for `epoch`, of its `n` racks, filled into the
/// reused `order` buffer (this runs every epoch): identity
/// unless a shuffle seed asks for a seeded permutation (distinct per
/// epoch).
fn submission_order(order: &mut Vec<usize>, n: usize, shuffle_seed: Option<u64>, epoch: usize) {
    order.clear();
    order.extend(0..n);
    if let Some(seed) = shuffle_seed {
        let mut rng =
            SimRng::seed_from_u64(seed ^ (epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.shuffle(order);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlr::InflectionPredictor;
    use crate::scheduler::ClipScheduler;
    use clip_obs::NoopRecorder;
    use cluster_sim::{FaultEvent, FaultKind, RackTopology, VariabilityModel};
    use workload::suite;

    fn fleet(racks: usize, nodes_per_rack: usize, seed: u64) -> ShardedFleet {
        ShardedFleet::with_variability(
            RackTopology::new(racks, nodes_per_rack),
            &VariabilityModel::default(),
            seed,
        )
    }

    fn clip_factory() -> impl FnMut(usize) -> Box<dyn PowerScheduler + Send> {
        let predictor = InflectionPredictor::train_default(5);
        move |_rack| Box::new(ClipScheduler::new(predictor.clone()))
    }

    fn noop_recorders(racks: usize) -> Vec<NoopRecorder> {
        (0..racks).map(|_| NoopRecorder).collect()
    }

    #[test]
    fn sharded_campaign_runs_every_rack_every_epoch() {
        let cfg = ShardConfig {
            epochs: 4,
            iterations_per_epoch: 1,
            ..ShardConfig::default()
        };
        let (report, _) = run_sharded(
            fleet(3, 4, 11),
            clip_factory(),
            &suite::comd(),
            Power::watts(2400.0),
            &FaultPlan::empty(),
            &[],
            &cfg,
            noop_recorders(3),
            &mut NoopRecorder,
        );
        assert_eq!(report.racks.len(), 3);
        assert_eq!(report.survivors, 12);
        for rack in &report.racks {
            assert_eq!(rack.report.epochs.len(), 4);
            assert!(rack.crashed_at.is_none());
            assert!(rack.report.mean_performance() > 0.0);
        }
        assert!(report.aggregate_performance() > 0.0);
    }

    #[test]
    fn grants_always_sum_to_the_global_bound() {
        let budget = Power::watts(3000.0);
        let mut arb = BudgetArbiter::new(budget, &[4, 4, 2], 0.5);
        let sum = |g: &[Power]| -> f64 { g.iter().map(|p| p.as_watts()).sum() };
        assert!((sum(arb.grants()) - 3000.0).abs() < 1e-9);
        // Rack 0 has slack, rack 2 is constrained.
        arb.rebalance(
            &[
                Power::watts(800.0),
                Power::watts(1200.0),
                Power::watts(600.0),
            ],
            &[4, 4, 2],
            &[true, true, true],
        );
        assert!((sum(arb.grants()) - 3000.0).abs() < 1e-6);
        // Retiring a rack keeps the sum on the survivors.
        arb.retire_rack(1, &[4, 0, 2], &[true, false, true]);
        assert!((sum(arb.grants()) - 3000.0).abs() < 1e-6);
        assert_eq!(arb.grants().get(1).copied(), Some(Power::ZERO));
    }

    #[test]
    fn slack_moves_toward_constrained_racks() {
        let budget = Power::watts(2000.0);
        let mut arb = BudgetArbiter::new(budget, &[4, 4], 0.5);
        let g0 = arb.grants().first().copied().unwrap_or(Power::ZERO);
        // Rack 0 demands almost nothing; rack 1 wants its whole grant.
        arb.rebalance(
            &[Power::watts(200.0), Power::watts(1000.0)],
            &[4, 4],
            &[true, true],
        );
        let g0_after = arb.grants().first().copied().unwrap_or(Power::ZERO);
        let g1_after = arb.grants().get(1).copied().unwrap_or(Power::ZERO);
        assert!(g0_after < g0, "the idle rack must donate");
        assert!(g1_after > g0, "the constrained rack must receive");
    }

    #[test]
    fn no_receiver_means_no_shift() {
        let mut arb = BudgetArbiter::new(Power::watts(2000.0), &[4, 4], 0.5);
        let before: Vec<Power> = arb.grants().to_vec();
        // Everyone has slack; nobody is constrained.
        arb.rebalance(
            &[Power::watts(100.0), Power::watts(100.0)],
            &[4, 4],
            &[true, true],
        );
        assert_eq!(arb.grants(), before.as_slice());
    }

    #[test]
    fn rack_crash_redistributes_within_the_same_epoch() {
        let cfg = ShardConfig {
            epochs: 5,
            iterations_per_epoch: 1,
            ..ShardConfig::default()
        };
        let budget = Power::watts(3000.0);
        let (report, _) = run_sharded(
            fleet(3, 4, 23),
            clip_factory(),
            &suite::comd(),
            budget,
            &FaultPlan::empty(),
            &[RackFault {
                at_epoch: 2,
                rack: 1,
            }],
            &cfg,
            noop_recorders(3),
            &mut NoopRecorder,
        );
        let dead = report.racks.get(1).expect("rack 1 exists");
        assert_eq!(dead.crashed_at, Some(2));
        assert!(dead.reclaimed.as_watts() > 0.0, "the dead rack held watts");
        assert_eq!(dead.granted, Power::ZERO);
        assert_eq!(dead.report.epochs.len(), 2, "ran epochs 0 and 1 only");
        // Survivors' final grants absorb the whole bound.
        let live_total: f64 = report
            .racks
            .iter()
            .filter(|r| r.crashed_at.is_none())
            .map(|r| r.granted.as_watts())
            .sum();
        assert!((live_total - budget.as_watts()).abs() < 1e-6);
        // And they re-planned at the crash epoch (forced by the grant
        // change), within one epoch of the fault.
        for rack in report.racks.iter().filter(|r| r.crashed_at.is_none()) {
            let replanned_at_2 = rack
                .report
                .epochs
                .iter()
                .any(|e| e.epoch == 2 && e.replanned);
            assert!(replanned_at_2, "rack {} must re-plan at epoch 2", rack.rack);
        }
        assert_eq!(report.survivors, 8);
    }

    #[test]
    fn last_live_rack_cannot_be_crashed() {
        let cfg = ShardConfig {
            epochs: 3,
            iterations_per_epoch: 1,
            ..ShardConfig::default()
        };
        let (report, _) = run_sharded(
            fleet(2, 4, 5),
            clip_factory(),
            &suite::comd(),
            Power::watts(2000.0),
            &FaultPlan::empty(),
            &[
                RackFault {
                    at_epoch: 1,
                    rack: 0,
                },
                RackFault {
                    at_epoch: 2,
                    rack: 1,
                },
            ],
            &cfg,
            noop_recorders(2),
            &mut NoopRecorder,
        );
        let crashed: Vec<Option<usize>> = report.racks.iter().map(|r| r.crashed_at).collect();
        assert_eq!(crashed, vec![Some(1), None], "the last rack must survive");
        assert_eq!(report.survivors, 4);
    }

    #[test]
    fn worker_count_never_changes_the_report() {
        // Every pool shape against the sequential report: even and uneven
        // parts, more workers than racks, shuffled execute order, and a
        // rack crash that leaves a dead rack inside a helper's part.
        let run = |racks: usize, workers: Option<usize>, shuffle_seed: Option<u64>| {
            let cfg = ShardConfig {
                epochs: 4,
                iterations_per_epoch: 1,
                workers,
                shuffle_seed,
                ..ShardConfig::default()
            };
            let (report, _) = run_sharded(
                fleet(racks, 2, 97),
                clip_factory(),
                &suite::amg(),
                Power::watts(550.0 * racks as f64),
                &FaultPlan::empty(),
                &[RackFault {
                    at_epoch: 2,
                    rack: racks - 1,
                }],
                &cfg,
                noop_recorders(racks),
                &mut NoopRecorder,
            );
            serde_json::to_string(&report).expect("report serializes")
        };
        for racks in [4, 5] {
            let sequential = run(racks, Some(1), None);
            for (workers, shuffle) in [
                (Some(2), None),
                (Some(3), None),
                (Some(16), None),
                (None, None),
                (Some(1), Some(7)),
                (Some(2), Some(7)),
            ] {
                assert_eq!(
                    run(racks, workers, shuffle),
                    sequential,
                    "{racks} racks, workers {workers:?}, shuffle {shuffle:?}"
                );
            }
        }
    }

    #[test]
    fn parts_are_contiguous_and_even() {
        let sizes = |n: usize, k: usize| -> Vec<Vec<usize>> { split_parts((0..n).collect(), k) };
        assert_eq!(sizes(5, 2), vec![vec![0, 1, 2], vec![3, 4]]);
        assert_eq!(sizes(5, 3), vec![vec![0, 1], vec![2, 3], vec![4]]);
        assert_eq!(sizes(4, 1), vec![vec![0, 1, 2, 3]]);
        assert_eq!(sizes(0, 1), vec![Vec::<usize>::new()]);
    }

    /// CLIP, except that it plans a node the fault plan crashed back into
    /// every re-plan — a scheduler bug `run_job`'s liveness assert stops
    /// during the execute phase.
    struct RevivesTheDead(ClipScheduler);

    impl PowerScheduler for RevivesTheDead {
        fn name(&self) -> &str {
            self.0.name()
        }

        fn plan(&mut self, cluster: &mut Cluster, app: &AppModel, budget: Power) -> SchedulePlan {
            self.0.plan(cluster, app, budget)
        }

        fn plan_subset(
            &mut self,
            cluster: &mut Cluster,
            app: &AppModel,
            budget: Power,
            allowed: &[usize],
        ) -> SchedulePlan {
            let mut plan = self.0.plan_subset(cluster, app, budget, allowed);
            let dead = (0..cluster.len()).find(|&id| !cluster.is_alive(id));
            if let (Some(dead), Some(slot)) = (dead, plan.node_ids.first_mut()) {
                *slot = dead;
            }
            plan
        }
    }

    #[test]
    fn a_panic_on_a_helper_reaches_the_caller_with_its_payload() {
        // Global node 7 is rack 3's local node 1. Rack 3 sits in the last
        // part at 2 and 4 workers, so a helper thread executes it; the
        // recovery re-plan at epoch 2 puts the dead node back.
        let faults = FaultPlan::new(vec![FaultEvent {
            at_epoch: 1,
            node: 7,
            kind: FaultKind::NodeCrash,
        }]);
        for workers in [2, 4] {
            let cfg = ShardConfig {
                epochs: 4,
                iterations_per_epoch: 1,
                workers: Some(workers),
                ..ShardConfig::default()
            };
            let predictor = InflectionPredictor::train_default(5);
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_sharded(
                    fleet(4, 2, 97),
                    move |_rack| -> Box<dyn PowerScheduler + Send> {
                        Box::new(RevivesTheDead(ClipScheduler::new(predictor.clone())))
                    },
                    &suite::amg(),
                    Power::watts(2200.0),
                    &faults,
                    &[],
                    &cfg,
                    noop_recorders(4),
                    &mut NoopRecorder,
                )
            }))
            .expect_err("executing a crashed node must panic");
            let msg = caught
                .downcast_ref::<String>()
                .cloned()
                .expect("the assert's formatted message is the payload");
            assert!(
                msg.contains("node 1 has crashed"),
                "workers {workers}: got {msg}"
            );
        }
    }
}
