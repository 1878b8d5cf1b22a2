//! The recorder-generic epoch engine: CLIP's one control cycle, owned in
//! one place.
//!
//! The paper's contribution is a single loop — measure → coordinate →
//! allocate → actuate → audit (Algorithm 1, Eqs. 4–9) — yet the repo grew
//! four copies of it (`degrade`, `dispatch`, `multijob`, `phased`), each
//! with a parallel `_obs` telemetry twin. [`EpochEngine`] collapses them:
//! it owns the canonical per-epoch cycle
//!
//! 1. policy boundary — external events fire ([`EpochPolicy::epoch_boundary`]:
//!    faults, arrivals, phase switches), possibly degrading the live plan;
//! 2. re-coordination over the survivors when the previous boundary
//!    changed the pool (full budget — a dead node's share is reclaimed);
//! 3. plan / `plan_subset` through the [`PowerScheduler`] trait, draining
//!    the scheduler's buffered decision events;
//! 4. RAPL/DVFS actuation + job execution: the plan is programmed as
//!    [`crate::execute_plan`] programs it, and the job runs through the
//!    engine's [`JobMemo`], so an epoch that repeats the last one on nodes
//!    in the same state replays the memo's report in place instead of
//!    simulating its ranks;
//! 5. ledger plan audit and actuation audit (injected jitter classified,
//!    not punished);
//! 6. trace/metric emission, gated on [`Recorder::enabled`].
//!
//! What differs between callers is a policy: fault handling + TTR
//! accounting ([`crate::degrade::FaultTimeline`]), job arbitration
//! (`dispatch`/`multijob` drive [`EpochEngine::coordinate`] and
//! [`EpochEngine::execute`] directly), and epoch-level phase transitions
//! ([`PhaseSchedule`]). Execute and settle come in two pairs that share
//! one settle: [`EpochEngine::execute`] returns a copy of the report for
//! callers that keep it, and [`EpochEngine::settle_epoch`] takes one; the
//! epoch loop of [`EpochEngine::run`] and the rack pool of
//! [`crate::run_sharded`] leave the report in the memo and settle from
//! there, so a steady epoch copies no report. The recorder is a generic
//! parameter end-to-end: with [`NoopRecorder`] every hook compiles away,
//! and a borrowed `&mut TraceRecorder` works through the blanket
//! `Recorder for &mut R` impl. The golden FNV trace pin and the bit-identical replay tests prove
//! the engine reproduces the pre-refactor harness byte for byte.

use crate::audit::{ActuationCheck, BudgetLedger};
use crate::scheduler::{program_plan, PowerScheduler, SchedulePlan};
use clip_obs::{NoopRecorder, Recorder};
use cluster_sim::{Cluster, JobMemo, JobReport};
use serde::{Deserialize, Serialize};
use simkit::{Power, TimeSpan};
use std::sync::Arc;
use workload::AppModel;

/// How long and how densely to run the epoch loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultHarnessConfig {
    /// Coordination epochs to simulate.
    pub epochs: usize,
    /// Job iterations executed per epoch.
    pub iterations_per_epoch: usize,
}

impl Default for FaultHarnessConfig {
    fn default() -> Self {
        Self {
            epochs: 8,
            iterations_per_epoch: 2,
        }
    }
}

/// What one coordination epoch looked like.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Whether the scheduler re-planned at this epoch's boundary.
    pub replanned: bool,
    /// Nodes that executed this epoch, shared with every other record
    /// made under the same plan's node set.
    pub node_ids: Arc<[usize]>,
    /// Sum of the programmed caps this epoch.
    pub caps_total: Power,
    /// Measured (barrier-blended) cluster power.
    pub measured_power: Power,
    /// Epoch performance, iterations per second.
    pub performance: f64,
    /// Epoch wall time.
    pub epoch_time: TimeSpan,
    /// Fault events that took effect this epoch.
    pub events_applied: usize,
    /// Fault events dropped (dead target, last-survivor crash).
    pub events_ignored: usize,
    /// The ledger attributed a budget overshoot to injected cap jitter.
    pub injected_overshoot: bool,
}

/// One completed crash-recovery cycle.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Recovery {
    /// Epoch at which the pool-changing fault fired.
    pub fault_epoch: usize,
    /// Epoch at whose boundary the scheduler re-coordinated.
    pub recovered_epoch: usize,
    /// Wall time spent degraded (the fault epoch's remainder).
    pub time_to_recover: TimeSpan,
    /// Power reclaimed from nodes that crashed in the fault epoch.
    pub reclaimed: Power,
}

/// Full deterministic record of a scheduler run through the epoch engine.
///
/// The name predates the engine (the fault harness produced it first) and
/// is kept for serialization compatibility with the pinned replay reports.
#[must_use = "a run report carries the audit verdicts and must be inspected"]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultRunReport {
    /// The scheduler that was driven.
    pub scheduler: String,
    /// The cluster budget held throughout.
    pub budget: Power,
    /// Per-epoch records, in order.
    pub epochs: Vec<EpochRecord>,
    /// Completed crash-recovery cycles.
    pub recoveries: Vec<Recovery>,
    /// Epochs whose overshoot the ledger attributed to injected jitter.
    pub injected_overshoots: usize,
    /// Nodes alive when the run ended.
    pub survivors: usize,
}

impl FaultRunReport {
    /// Mean performance over all epochs.
    pub fn mean_performance(&self) -> f64 {
        if self.epochs.is_empty() {
            return 0.0;
        }
        self.epochs.iter().map(|e| e.performance).sum::<f64>() / self.epochs.len() as f64
    }

    /// Mean performance over the epochs before the first fault took
    /// effect (the whole run if no fault ever fired).
    pub fn pre_fault_performance(&self) -> f64 {
        let pre: Vec<f64> = self
            .epochs
            .iter()
            .take_while(|e| e.events_applied == 0)
            .map(|e| e.performance)
            .collect();
        if pre.is_empty() {
            return 0.0;
        }
        pre.iter().sum::<f64>() / pre.len() as f64
    }

    /// Mean performance over the epochs after the last re-coordination
    /// (0 when the scheduler never re-planned).
    pub fn post_fault_performance(&self) -> f64 {
        let last_replan = self
            .epochs
            .iter()
            .rev()
            .find(|e| e.replanned)
            .map(|e| e.epoch);
        let Some(from) = last_replan else {
            return 0.0;
        };
        let post: Vec<f64> = self
            .epochs
            .iter()
            .filter(|e| e.epoch >= from)
            .map(|e| e.performance)
            .collect();
        if post.is_empty() {
            return 0.0;
        }
        post.iter().sum::<f64>() / post.len() as f64
    }

    /// Mean time-to-recover over all completed recoveries.
    ///
    /// Returns `None` — never a zero duration — when the run completed no
    /// recovery cycle at all: a fault-free run, a run whose faults were all
    /// ignored or actuation-only (nothing to recover from), or a run too
    /// short for the re-coordination boundary to arrive (e.g. a
    /// pool-changing fault in the final epoch leaves its recovery pending
    /// forever). Callers must treat `None` as "no recovery observed", not
    /// as instant recovery; averaging it as 0 s would fabricate a perfect
    /// TTR for the worst possible outcome.
    pub fn mean_time_to_recover(&self) -> Option<TimeSpan> {
        if self.recoveries.is_empty() {
            return None;
        }
        let total: f64 = self
            .recoveries
            .iter()
            .map(|r| r.time_to_recover.as_secs())
            .sum();
        Some(TimeSpan::secs(total / self.recoveries.len() as f64))
    }
}

/// What a policy's epoch boundary did to the cluster and the live plan —
/// the engine folds this into its recovery arming and the epoch record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Boundary {
    /// External events that took effect this epoch.
    pub events_applied: usize,
    /// External events dropped (dead target, last-survivor crash).
    pub events_ignored: usize,
    /// The schedulable pool (or its efficiency profile) changed: the
    /// engine arms a full-budget re-coordination over the survivors at the
    /// *next* epoch boundary.
    pub pool_changed: bool,
    /// Watts reclaimed from plan slots the boundary removed (a crashed
    /// node's share); rides along with the armed re-plan.
    pub reclaimed: Power,
    /// The workload itself changed (an epoch-level phase transition):
    /// re-coordinate at *this* boundary, immediately.
    pub replan_now: bool,
    /// The policy re-drew the engine's power envelope (e.g. the service
    /// autoscaler re-split the cluster budget between its grant and the
    /// reserve): the engine audits every subsequent epoch against this
    /// budget. Policies that move the budget must also set `replan_now`
    /// when it shrank — a stale plan may overshoot the new bound.
    pub budget: Option<Power>,
}

impl Boundary {
    /// A boundary at which nothing happened.
    pub const fn quiet() -> Self {
        Self {
            events_applied: 0,
            events_ignored: 0,
            pool_changed: false,
            reclaimed: Power::ZERO,
            replan_now: false,
            budget: None,
        }
    }
}

impl Default for Boundary {
    fn default() -> Self {
        Self::quiet()
    }
}

/// What a driver plugs into the canonical cycle: the per-epoch variation
/// points. Everything else — re-coordination, actuation, audit, telemetry,
/// TTR accounting — is the engine's.
pub trait EpochPolicy<R: Recorder> {
    /// Fire this epoch's external events (faults, arrivals, phase
    /// switches) against the cluster, mutating the live `plan` when an
    /// event removed one of its participants (the degraded remainder of
    /// the epoch runs without it). The `scheduler` is the run's planner,
    /// lent so admission-style policies can solve trial feasibility
    /// checks at the boundary (holistic power-flow before accepting
    /// work); ordinary policies ignore it. Returns the boundary summary
    /// the engine folds into recovery arming and the epoch record.
    fn epoch_boundary(
        &mut self,
        cluster: &mut Cluster,
        scheduler: &mut dyn PowerScheduler,
        plan: &mut SchedulePlan,
        epoch: usize,
        rec: &mut R,
    ) -> Boundary {
        let _ = (cluster, scheduler, plan, epoch, rec);
        Boundary::quiet()
    }

    /// The workload for `epoch`, or `None` to keep the run's base app.
    /// Phase-transition policies override this; the engine stages a clone
    /// in [`RunState`] and re-clones only when the returned model differs
    /// from what is already staged, so steady epochs inside one phase pay
    /// no allocation. Re-queried after every [`Self::epoch_boundary`], so
    /// a boundary that activates a different job takes effect the same
    /// epoch.
    fn app_for_epoch(&self, epoch: usize) -> Option<&AppModel> {
        let _ = epoch;
        None
    }

    /// Narrow the node pool a re-coordination may plan over. The engine
    /// passes every freshly computed alive-node list through this hook
    /// before planning; pool-owning policies (the service autoscaler)
    /// retain only their members. Implementations must leave `pool`
    /// non-empty — when the intersection would be empty, keep the full
    /// pool (planning over strangers beats planning over nothing).
    fn restrict_pool(&self, pool: &mut Vec<usize>) {
        let _ = pool;
    }

    /// Observe one settled epoch: the execute phase's `report` for
    /// `epoch`, after the engine's actuation audit. Service policies
    /// advance job progress and record completions/latency here; the
    /// default does nothing.
    fn epoch_settled(&mut self, report: &JobReport, epoch: usize, rec: &mut R) {
        let _ = (report, epoch, rec);
    }
}

/// The trivial policy: no external events, a single phase. Running the
/// engine with it is the fault-free happy path.
#[derive(Debug, Clone, Copy, Default)]
pub struct SteadyState;

impl<R: Recorder> EpochPolicy<R> for SteadyState {}

/// Epoch-level phase transitions: the workload switches model at fixed
/// epoch boundaries (e.g. a solver alternating assembly and sweep stages),
/// and the engine re-coordinates at every switch — the `phased`
/// recommendation path expressed as an engine policy.
///
/// Stages are `(first_epoch, app)` pairs; epochs before the first stage
/// run the base app. Within-iteration phase concurrency stays node-level
/// (`workload::execute_phased`); this policy covers transitions at the
/// coordination-epoch scale, where re-planning is warranted.
#[derive(Debug, Clone)]
pub struct PhaseSchedule {
    stages: Vec<(usize, AppModel)>,
}

impl PhaseSchedule {
    /// Build from `(first_epoch, app)` stages; sorted by starting epoch so
    /// construction order never matters.
    pub fn new(mut stages: Vec<(usize, AppModel)>) -> Self {
        stages.sort_by_key(|&(start, _)| start);
        Self { stages }
    }

    /// True when a stage starts exactly at `epoch`.
    fn switches_at(&self, epoch: usize) -> bool {
        self.stages.iter().any(|&(start, _)| start == epoch)
    }
}

impl<R: Recorder> EpochPolicy<R> for PhaseSchedule {
    fn epoch_boundary(
        &mut self,
        _cluster: &mut Cluster,
        _scheduler: &mut dyn PowerScheduler,
        _plan: &mut SchedulePlan,
        epoch: usize,
        _rec: &mut R,
    ) -> Boundary {
        // The epoch-0 plan is already coordinated for the first stage's
        // app, so only later switches force an immediate re-plan.
        Boundary {
            replan_now: epoch > 0 && self.switches_at(epoch),
            ..Boundary::quiet()
        }
    }

    fn app_for_epoch(&self, epoch: usize) -> Option<&AppModel> {
        self.stages
            .iter()
            .rev()
            .find(|&&(start, _)| start <= epoch)
            .map(|(_, app)| app)
    }
}

/// Mutable state threaded through one engine run: the live plan plus the
/// accumulating report fields.
///
/// Produced by [`EpochEngine::begin_run`], advanced by
/// [`EpochEngine::prepare_epoch`] / [`EpochEngine::settle_epoch`], and
/// consumed by [`EpochEngine::finish_run`]. [`EpochEngine::run`] drives the
/// four phases back to back; the sharded coordinator in
/// [`crate::hierarchy`] instead holds one `RunState` per rack so the
/// sequential prepare/settle phases can interleave across racks around a
/// parallel execute phase.
pub struct RunState {
    name: String,
    /// The live plan the current epoch executes under.
    pub plan: SchedulePlan,
    // The staged app override for the current epoch, re-cloned only when
    // the policy switches phases (clone-on-change).
    staged: Option<AppModel>,
    epochs: Vec<EpochRecord>,
    recoveries: Vec<Recovery>,
    injected_overshoots: usize,
    // A pool-changing boundary arms a re-plan for the next epoch
    // boundary; the wall time and reclaimed watts of the degraded
    // epoch ride along.
    pending: Option<(usize, Power)>,
    degraded_time: TimeSpan,
}

impl RunState {
    /// Stage `epoch`'s app override, re-cloning only when the policy's
    /// choice differs from what is already staged: steady epochs inside
    /// one phase reuse the staged model (this `.cloned()` used to run
    /// every epoch, the engine's largest per-epoch allocation). Called
    /// before the boundary (the recovery re-plan needs an app) and again
    /// after it, so a boundary that switches the active job re-stages in
    /// the same epoch.
    fn stage<R: Recorder, P: EpochPolicy<R> + ?Sized>(&mut self, policy: &P, epoch: usize) {
        match (policy.app_for_epoch(epoch), self.staged.as_ref()) {
            (Some(want), Some(cur)) if want == cur => {}
            (Some(want), _) => self.staged = Some(want.clone()),
            (None, _) => self.staged = None,
        }
    }

    /// Completed crash-recovery cycles so far.
    pub fn recoveries(&self) -> &[Recovery] {
        &self.recoveries
    }

    /// The current epoch's staged app override, if the policy switched
    /// phases; the execute phase runs `staged().unwrap_or(base_app)`.
    pub fn staged(&self) -> Option<&AppModel> {
        self.staged.as_ref()
    }

    /// Per-epoch records so far.
    pub fn epochs(&self) -> &[EpochRecord] {
        &self.epochs
    }

    /// The settle phase both [`EpochEngine::settle_epoch`] and
    /// [`EpochEngine::settle_in_place`] run, with the engine's recorder
    /// and budget lent apart from the report, which the in-place path
    /// borrows from the engine's memo.
    fn settle<R: Recorder, P: EpochPolicy<R> + ?Sized>(
        &mut self,
        rec: &mut R,
        budget: Power,
        prep: EpochPrep,
        report: &JobReport,
        policy: &mut P,
        epoch: usize,
    ) {
        let ep = epoch as u64;
        self.degraded_time = report.total_time;

        let injected_overshoot = match BudgetLedger::new(&self.name, prep.budget)
            .with_injected_jitter(prep.jitter)
            .audit_actuation(&self.plan, report.cluster_power, ep, rec)
        {
            ActuationCheck::Nominal => false,
            ActuationCheck::InjectedJitter => {
                self.injected_overshoots += 1;
                true
            }
        };

        if rec.enabled() {
            rec.counter_add("epochs_total", 1);
            if prep.replanned {
                rec.counter_add("replans_total", 1);
            }
            rec.observe("epoch_time_secs", report.total_time.as_secs());
            if budget.as_watts() > 0.0 {
                rec.observe(
                    "budget_utilization",
                    report.cluster_power.as_watts() / budget.as_watts(),
                );
            }
            let caps_total = self.plan.total_caps();
            let measured = report.cluster_power;
            let performance = report.performance();
            let wall = report.total_time;
            let replanned = prep.replanned;
            rec.event_with(ep, clip_obs::EventClass::Scheduler, || {
                clip_obs::TraceEvent::EpochCompleted {
                    budget,
                    caps_total,
                    measured,
                    performance,
                    wall,
                    replanned,
                }
            });
        }

        // Epoch records made under the same ids share one list; a new one
        // is made for the first epoch and after the plan's ids change.
        let node_ids = match self.epochs.last() {
            Some(r) if *r.node_ids == *self.plan.node_ids => Arc::clone(&r.node_ids),
            _ => Arc::from(self.plan.node_ids.as_slice()),
        };
        self.epochs.push(EpochRecord {
            epoch,
            replanned: prep.replanned,
            node_ids,
            caps_total: self.plan.total_caps(),
            measured_power: report.cluster_power,
            performance: report.performance(),
            epoch_time: report.total_time,
            events_applied: prep.boundary.events_applied,
            events_ignored: prep.boundary.events_ignored,
            injected_overshoot,
        });

        policy.epoch_settled(report, epoch, rec);
    }
}

/// The sequential prologue's product for one epoch: everything the
/// execute phase needs, computed before the plan runs (planning, plan
/// audit and boundary trace emission stay in [`EpochEngine::prepare_epoch`];
/// the actuation audit and epoch record land in
/// [`EpochEngine::settle_epoch`]).
pub struct EpochPrep {
    replanned: bool,
    boundary: Boundary,
    /// The budget and the injected-jitter allowance the plan was audited
    /// under; the actuation audit rebuilds its ledger from them.
    budget: Power,
    jitter: f64,
}

/// The recorder-generic epoch engine.
///
/// Owns the cluster budget, the current epoch stamp, the recorder and the
/// last job's [`JobMemo`]; the scheduler is borrowed per call so drivers
/// (like the dispatcher) can consult their scheduler between engine calls.
/// Construct with a [`NoopRecorder`] for the zero-cost untraced path, or
/// with `&mut TraceRecorder` to narrate every decision point.
#[derive(Debug)]
pub struct EpochEngine<R: Recorder = NoopRecorder> {
    budget: Power,
    rec: R,
    epoch: u64,
    memo: JobMemo,
}

impl<R: Recorder> EpochEngine<R> {
    /// An engine auditing against `budget`, recording into `rec`.
    pub fn new(budget: Power, rec: R) -> Self {
        Self {
            budget,
            rec,
            epoch: 0,
            memo: JobMemo::default(),
        }
    }

    /// The budget every audited epoch is held to.
    pub fn budget(&self) -> Power {
        self.budget
    }

    /// The epoch stamp applied to emitted events.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Set the epoch stamp for subsequent [`EpochEngine::coordinate`] /
    /// [`EpochEngine::execute`] calls (drivers with their own notion of
    /// progress, like the dispatcher's start index, set it per step).
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Re-target the budget every subsequent epoch is audited against.
    /// The cluster-level arbiter re-grants per-rack budgets each epoch;
    /// callers that shrink the budget mid-run must force a re-plan before
    /// the next plan audit (a stale plan may overshoot the new bound).
    pub fn set_budget(&mut self, budget: Power) {
        self.budget = budget;
    }

    /// Direct access to the recorder, for driver-level events and metrics.
    pub fn recorder(&mut self) -> &mut R {
        &mut self.rec
    }

    /// Tear down, returning the recorder.
    pub fn into_recorder(self) -> R {
        self.rec
    }

    /// Coordinate: run Algorithm 1 over `allowed` with `budget` through
    /// the scheduler and drain its buffered decision events at the current
    /// epoch stamp.
    pub fn coordinate(
        &mut self,
        scheduler: &mut dyn PowerScheduler,
        cluster: &mut Cluster,
        app: &AppModel,
        budget: Power,
        allowed: &[usize],
    ) -> SchedulePlan {
        let plan = scheduler.plan_subset(cluster, app, budget, allowed);
        if self.rec.enabled() {
            for event in scheduler.drain_decisions() {
                // Drained events are already built, so the class comes off
                // the event itself; event_with still filters before
                // encoding.
                let class = event.class();
                self.rec.event_with(self.epoch, class, || event);
            }
        }
        plan
    }

    /// Actuate and execute a plan at the current epoch stamp: program the
    /// caps (RAPL) as [`crate::execute_plan`] does, then run the job
    /// through the engine's [`JobMemo`]. A job that repeats the engine's
    /// last one, on nodes with the same caps and power state, is replayed
    /// in place. The report, trace events and RAPL counters are the ones
    /// `execute_plan` gives either way. Returns a copy of the report the
    /// memo keeps; [`EpochEngine::run`] and the rack pool of
    /// [`crate::run_sharded`] settle from the memo's report instead.
    pub fn execute(
        &mut self,
        cluster: &mut Cluster,
        app: &AppModel,
        plan: &SchedulePlan,
        iterations: usize,
    ) -> JobReport {
        self.execute_in_place(cluster, app, plan, iterations)
            .clone()
    }

    /// [`EpochEngine::execute`] without the copy: the report stays in the
    /// engine's memo, where [`EpochEngine::settle_in_place`] reads it.
    pub(crate) fn execute_in_place(
        &mut self,
        cluster: &mut Cluster,
        app: &AppModel,
        plan: &SchedulePlan,
        iterations: usize,
    ) -> &JobReport {
        let spec = program_plan(cluster, app, plan, iterations, self.epoch, &mut self.rec);
        self.memo
            .run_or_replay(cluster, &spec, self.epoch, &mut self.rec)
    }

    /// Drive `scheduler` through `policy` on `cluster` for `cfg.epochs`
    /// coordination epochs under the engine's budget — the canonical
    /// cycle.
    ///
    /// Contract highlights, verified by the degradation unit tests and the
    /// props suite:
    ///
    /// - A pool-changing boundary at epoch *e* triggers re-coordination at
    ///   the boundary of epoch *e + 1*: the plan is rebuilt over the
    ///   survivors with the full budget (a crashed node's share is
    ///   reclaimed, not lost), and the degraded epoch's wall time is the
    ///   recovery's TTR.
    /// - Every epoch's programmed caps are audited against the budget by a
    ///   harness-level [`BudgetLedger`] — including the degraded remainder
    ///   of a crash epoch, whose surviving caps are a subset of an audited
    ///   plan.
    /// - Actuation-only boundaries (cap jitter) never re-plan; their
    ///   overshoot is classified (and tolerated) by the actuation audit.
    /// - A `replan_now` boundary (phase transition) re-coordinates at that
    ///   same epoch, for the epoch's own app.
    pub fn run<P: EpochPolicy<R>>(
        &mut self,
        scheduler: &mut dyn PowerScheduler,
        cluster: &mut Cluster,
        app: &AppModel,
        policy: &mut P,
        cfg: &FaultHarnessConfig,
    ) -> FaultRunReport {
        let mut state = self.begin_run(scheduler, cluster, app, policy, cfg);
        for epoch in 0..cfg.epochs {
            let prep = self.prepare_epoch(&mut state, scheduler, cluster, app, policy, epoch);
            self.execute_in_place(
                cluster,
                state.staged().unwrap_or(app),
                &state.plan,
                cfg.iterations_per_epoch,
            );
            self.settle_in_place(&mut state, prep, policy, epoch);
        }
        self.finish_run(state, scheduler, cluster)
    }

    /// Phase 1 of the cycle: validate the config, announce the run,
    /// coordinate the epoch-0 plan over the live pool. Returns the run
    /// state the remaining phases thread through.
    pub fn begin_run<P: EpochPolicy<R>>(
        &mut self,
        scheduler: &mut dyn PowerScheduler,
        cluster: &mut Cluster,
        app: &AppModel,
        policy: &mut P,
        cfg: &FaultHarnessConfig,
    ) -> RunState {
        assert!(cfg.epochs > 0, "need at least one epoch");
        assert!(cfg.iterations_per_epoch > 0, "need at least one iteration");

        let name = scheduler.name().to_string();
        let mut alive = cluster.alive_nodes();
        scheduler.set_tracing(self.rec.enabled_for(clip_obs::EventClass::Scheduler));
        if self.rec.enabled_for(clip_obs::EventClass::Scheduler) {
            self.rec.event_with(0, clip_obs::EventClass::Scheduler, || {
                clip_obs::TraceEvent::RunStarted {
                    scheduler: name.clone(),
                    budget: self.budget,
                    nodes: alive.len(),
                    epochs: cfg.epochs as u64,
                }
            });
        }
        // The RunStarted event reports the fleet; the epoch-0 plan is
        // drawn over whatever pool the policy owns.
        policy.restrict_pool(&mut alive);
        self.epoch = 0;
        let staged = policy.app_for_epoch(0).cloned();
        let plan = self.coordinate(
            scheduler,
            cluster,
            staged.as_ref().unwrap_or(app),
            self.budget,
            &alive,
        );
        RunState {
            name,
            plan,
            staged,
            epochs: Vec::with_capacity(cfg.epochs),
            recoveries: Vec::new(),
            injected_overshoots: 0,
            pending: None,
            degraded_time: TimeSpan::ZERO,
        }
    }

    /// Phase 2, the sequential epoch prologue: recover from an armed pool
    /// change, fire the policy boundary, re-plan when forced, audit the
    /// plan against the budget. Everything that plans, audits or emits
    /// boundary trace events happens here, before the execute phase.
    pub fn prepare_epoch<P: EpochPolicy<R>>(
        &mut self,
        state: &mut RunState,
        scheduler: &mut dyn PowerScheduler,
        cluster: &mut Cluster,
        app: &AppModel,
        policy: &mut P,
        epoch: usize,
    ) -> EpochPrep {
        let ep = epoch as u64;
        self.epoch = ep;
        let mut replanned = false;
        state.stage::<R, _>(policy, epoch);
        let app_e = state.staged.as_ref().unwrap_or(app);

        // 1. Recover from the previous epoch's pool change: Algorithm 1
        //    over the survivors, full budget.
        if let Some((fault_epoch, reclaimed)) = state.pending.take() {
            let mut alive = cluster.alive_nodes();
            policy.restrict_pool(&mut alive);
            state.plan = self.coordinate(scheduler, cluster, app_e, self.budget, &alive);
            replanned = true;
            if self.rec.enabled() {
                self.rec.observe("ttr_secs", state.degraded_time.as_secs());
                let degraded_time = state.degraded_time;
                self.rec.event_with(ep, clip_obs::EventClass::Fault, || {
                    clip_obs::TraceEvent::Recovered {
                        fault_epoch: fault_epoch as u64,
                        recovered_epoch: ep,
                        time_to_recover: degraded_time,
                        reclaimed,
                    }
                });
            }
            state.recoveries.push(Recovery {
                fault_epoch,
                recovered_epoch: epoch,
                time_to_recover: state.degraded_time,
                reclaimed,
            });
        }

        // 2. The policy boundary: fire this epoch's external events.
        let boundary =
            policy.epoch_boundary(cluster, scheduler, &mut state.plan, epoch, &mut self.rec);
        if boundary.pool_changed {
            let entry = state.pending.get_or_insert((epoch, Power::ZERO));
            entry.1 += boundary.reclaimed;
        }
        // The boundary may have re-drawn the power envelope (autoscaling)
        // or switched the active job; both take effect this epoch.
        if let Some(granted) = boundary.budget {
            self.budget = granted;
        }
        state.stage::<R, _>(policy, epoch);
        let app_e = state.staged.as_ref().unwrap_or(app);

        // A crash can empty the current plan (every participant died):
        // re-coordinate immediately rather than skip the epoch.
        if state.plan.node_ids.is_empty() {
            let mut alive = cluster.alive_nodes();
            policy.restrict_pool(&mut alive);
            state.plan = self.coordinate(scheduler, cluster, app_e, self.budget, &alive);
            replanned = true;
            if let Some((fault_epoch, reclaimed)) = state.pending.take() {
                if self.rec.enabled() {
                    self.rec.observe("ttr_secs", 0.0);
                    self.rec.event_with(ep, clip_obs::EventClass::Fault, || {
                        clip_obs::TraceEvent::Recovered {
                            fault_epoch: fault_epoch as u64,
                            recovered_epoch: ep,
                            time_to_recover: TimeSpan::ZERO,
                            reclaimed,
                        }
                    });
                }
                state.recoveries.push(Recovery {
                    fault_epoch,
                    recovered_epoch: epoch,
                    time_to_recover: TimeSpan::ZERO,
                    reclaimed,
                });
            }
        } else if boundary.replan_now {
            // A phase transition re-plans at this boundary, for this
            // epoch's own app; nothing was lost, so no recovery cycle.
            let mut alive = cluster.alive_nodes();
            policy.restrict_pool(&mut alive);
            state.plan = self.coordinate(scheduler, cluster, app_e, self.budget, &alive);
            replanned = true;
        }

        // 3. Audit the (possibly degraded) plan the epoch will execute
        //    under against the budget.
        let jitter = state
            .plan
            .node_ids
            .iter()
            .map(|&id| cluster.node(id).cap_jitter().abs())
            .fold(0.0, f64::max);
        BudgetLedger::new(&state.name, self.budget)
            .with_injected_jitter(jitter)
            .audit_plan(&state.plan);

        EpochPrep {
            replanned,
            boundary,
            budget: self.budget,
            jitter,
        }
    }

    /// Phase 3's counterpart, the sequential epoch epilogue: classify the
    /// measured power against the audited plan, emit the epoch metrics and
    /// trace event, append the epoch record, and hand the settled report
    /// to the policy ([`EpochPolicy::epoch_settled`] — job progress and
    /// completion accounting for service policies). The execute phase
    /// itself — [`EpochEngine::execute`] on `state.staged()`/`state.plan`
    /// — happens between `prepare_epoch` and this call, and is the only
    /// part a sharded coordinator runs in parallel.
    pub fn settle_epoch<P: EpochPolicy<R> + ?Sized>(
        &mut self,
        state: &mut RunState,
        prep: EpochPrep,
        report: &JobReport,
        policy: &mut P,
        epoch: usize,
    ) {
        state.settle(&mut self.rec, self.budget, prep, report, policy, epoch);
    }

    /// [`EpochEngine::settle_epoch`] on the report
    /// [`EpochEngine::execute_in_place`] left in the engine's memo.
    pub(crate) fn settle_in_place<P: EpochPolicy<R> + ?Sized>(
        &mut self,
        state: &mut RunState,
        prep: EpochPrep,
        policy: &mut P,
        epoch: usize,
    ) {
        // The epoch's execute always leaves its report in the memo.
        if let Some(report) = self.memo.last() {
            state.settle(&mut self.rec, self.budget, prep, report, policy, epoch);
        }
    }

    /// Phase 4: close out the run — final survivor gauge, tracing off,
    /// assemble the report.
    pub fn finish_run(
        &mut self,
        state: RunState,
        scheduler: &mut dyn PowerScheduler,
        cluster: &Cluster,
    ) -> FaultRunReport {
        let survivors = cluster.alive_len();
        if self.rec.enabled() {
            self.rec.gauge_set("survivors", survivors as f64);
            scheduler.set_tracing(false);
        }
        FaultRunReport {
            scheduler: state.name,
            budget: self.budget,
            epochs: state.epochs,
            recoveries: state.recoveries,
            injected_overshoots: state.injected_overshoots,
            survivors,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlr::InflectionPredictor;
    use crate::scheduler::{execute_plan, ClipScheduler};
    use workload::suite;

    fn clip() -> ClipScheduler {
        ClipScheduler::new(InflectionPredictor::train_default(5))
    }

    #[test]
    fn steady_state_run_matches_fault_free_degrade() {
        let mut cluster = Cluster::paper_testbed(7);
        let mut sched = clip();
        let app = suite::comd();
        let cfg = FaultHarnessConfig {
            epochs: 4,
            iterations_per_epoch: 1,
        };
        let report = EpochEngine::new(Power::watts(1500.0), NoopRecorder).run(
            &mut sched,
            &mut cluster,
            &app,
            &mut SteadyState,
            &cfg,
        );
        assert_eq!(report.epochs.len(), 4);
        assert!(report.epochs.iter().all(|e| !e.replanned));
        assert!(report.recoveries.is_empty());
        assert_eq!(report.survivors, 8);
    }

    #[test]
    fn phase_schedule_replans_at_each_stage_switch() {
        let mut cluster = Cluster::paper_testbed(7);
        let mut sched = clip();
        // Stage 0 is compute-bound, stage 2 switches to a memory-bound
        // model with a different best configuration.
        let base = suite::comd();
        let mut policy = PhaseSchedule::new(vec![(2, suite::lu_mz())]);
        let cfg = FaultHarnessConfig {
            epochs: 4,
            iterations_per_epoch: 1,
        };
        let report = EpochEngine::new(Power::watts(1500.0), NoopRecorder).run(
            &mut sched,
            &mut cluster,
            &base,
            &mut policy,
            &cfg,
        );
        assert_eq!(report.epochs.len(), 4);
        assert!(!report.epochs[1].replanned);
        assert!(report.epochs[2].replanned, "stage switch must re-plan");
        assert!(!report.epochs[3].replanned, "no switch, no re-plan");
        assert!(report.recoveries.is_empty(), "a phase switch loses nothing");
    }

    #[test]
    fn phase_schedule_selects_the_stage_app() {
        let policy = PhaseSchedule::new(vec![(3, suite::lu_mz()), (1, suite::amg())]);
        let p = |e: usize| {
            <PhaseSchedule as EpochPolicy<NoopRecorder>>::app_for_epoch(&policy, e)
                .map(|a| a.name().to_string())
        };
        assert_eq!(p(0), None, "before the first stage the base app runs");
        assert_eq!(p(1).as_deref(), Some("AMG"));
        assert_eq!(p(2).as_deref(), Some("AMG"));
        assert_eq!(p(3).as_deref(), Some("LU-MZ"));
        assert_eq!(p(9).as_deref(), Some("LU-MZ"));
    }

    #[test]
    fn coordinate_and_execute_primitives_compose() {
        // The dispatcher/multijob shape: coordinate over a pool, then
        // actuate+execute the grant — without the full epoch loop.
        let mut cluster = Cluster::paper_testbed(7);
        let mut sched = clip();
        let app = suite::amg();
        let budget = Power::watts(1400.0);
        let mut engine = EpochEngine::new(budget, NoopRecorder);
        let allowed: Vec<usize> = (0..cluster.len()).collect();
        let plan = engine.coordinate(&mut sched, &mut cluster, &app, budget, &allowed);
        assert!(plan.within_budget(budget));
        let report = engine.execute(&mut cluster, &app, &plan, 2);
        assert!(report.performance() > 0.0);
        assert!(report.cluster_power <= budget + Power::watts(1.0));
    }

    /// One job of the replay script: the app, plan and iterations both
    /// sides run, and the power state of the plan's first node.
    struct ScriptJob {
        app: AppModel,
        plan: SchedulePlan,
        iterations: usize,
        efficiency: f64,
        jitter: f64,
    }

    impl ScriptJob {
        /// Put the plan's first node of `cluster` into this job's state.
        fn apply(&self, cluster: &mut Cluster) {
            let id = self.plan.node_ids[0];
            cluster.set_node_efficiency(id, self.efficiency);
            cluster.set_cap_jitter(id, self.jitter);
        }
    }

    /// `app` with every phase's parallel work scaled by `factor`.
    fn reworked(app: &AppModel, name: &str, factor: f64) -> AppModel {
        let phases = app
            .phases()
            .iter()
            .map(|p| workload::Phase {
                parallel_gcycles: p.parallel_gcycles * factor,
                ..*p
            })
            .collect();
        AppModel::new(name, phases).with_odd_penalty(app.odd_penalty())
    }

    /// Each step edits the job, says whether the engine's memo must replay
    /// it, and both sides run it.
    type Step = (&'static str, bool, fn(&mut ScriptJob));

    const SCRIPT: [Step; 21] = [
        ("first job", false, |_| {}),
        ("repeat", true, |_| {}),
        ("repeat again", true, |_| {}),
        ("efficiency drift", false, |j| j.efficiency = 1.08),
        ("drift repeated", true, |_| {}),
        ("drift reverted", false, |j| j.efficiency = 1.02),
        ("jitter on", false, |j| j.jitter = 0.05),
        ("jitter repeated", true, |_| {}),
        ("jitter off", false, |j| j.jitter = 0.0),
        ("changed caps", false, |j| {
            j.plan.caps[1].cpu -= Power::watts(30.0)
        }),
        ("changed threads", false, |j| j.plan.threads_per_node = 11),
        ("changed policy", false, |j| {
            j.plan.policy = simnode::AffinityPolicy::Scatter
        }),
        ("changed iterations", false, |j| j.iterations = 3),
        ("changed node set", false, |j| {
            j.plan.node_ids.pop();
            j.plan.caps.pop();
        }),
        ("other odd penalty", false, |j| {
            j.app = j.app.clone().with_odd_penalty(0.05)
        }),
        ("same name, other phases", false, |j| {
            j.app = reworked(&j.app, j.app.name(), 1.01).with_comm(j.app.comm().clone())
        }),
        // The stored report carries the app's name and its communication
        // time, so both are in the key: changing either alone misses.
        ("same phases, other name", false, |j| {
            j.app = reworked(&j.app, "renamed", 1.0).with_comm(j.app.comm().clone())
        }),
        ("repeat renamed", true, |_| {}),
        ("repeat renamed again", true, |_| {}),
        (
            "same name and phases, other communication model",
            false,
            |j| j.app = j.app.clone().with_comm(workload::CommModel::default()),
        ),
        ("repeat other communication model", true, |_| {}),
    ];

    /// Drive `EpochEngine::execute` through [`SCRIPT`] and a crash, and
    /// run every step through `execute_plan` on a twin fleet. After each
    /// step the reports serialize to the same bytes and every node's RAPL
    /// registers and accounted time agree bit for bit. Returns both
    /// recorders.
    fn run_script<R: Recorder>(engine_rec: R, mut ref_rec: R) -> (R, R) {
        let mut cluster = Cluster::paper_testbed(11);
        let mut twin = cluster.clone();
        let mut engine = EpochEngine::new(Power::watts(2000.0), engine_rec);
        let mut job = ScriptJob {
            app: suite::comd(),
            plan: SchedulePlan {
                scheduler: "script".to_string(),
                node_ids: vec![1, 2, 4, 5, 7],
                threads_per_node: 24,
                policy: simnode::AffinityPolicy::Compact,
                caps: (0..5)
                    .map(|i| {
                        let cpu = Power::watts(110.0 + 6.0 * i as f64);
                        simnode::PowerCaps::new(cpu, Power::watts(22.0))
                    })
                    .collect(),
            },
            iterations: 2,
            efficiency: 1.02,
            jitter: 0.0,
        };
        for (step, (what, replays, edit)) in SCRIPT.iter().enumerate() {
            edit(&mut job);
            job.apply(&mut cluster);
            job.apply(&mut twin);
            let epoch = step as u64;
            engine.set_epoch(epoch);
            // Program the caps as `execute` will, to ask the memo first.
            let spec = program_plan(
                &mut cluster,
                &job.app,
                &job.plan,
                job.iterations,
                epoch,
                &mut NoopRecorder,
            );
            let replayed = engine.memo.replays(&cluster, &spec);
            let got = engine.execute(&mut cluster, &job.app, &job.plan, job.iterations);
            let want = execute_plan(
                &mut twin,
                &job.app,
                &job.plan,
                job.iterations,
                epoch,
                &mut ref_rec,
            );
            assert_eq!(&*got.app_name, job.app.name(), "{what}");
            assert_eq!(
                serde_json::to_string(&got).unwrap(),
                serde_json::to_string(&want).unwrap(),
                "{what}"
            );
            for id in 0..cluster.len() {
                let (a, b) = (cluster.node(id), twin.node(id));
                assert_eq!(a.rapl_pkg_raw(), b.rapl_pkg_raw(), "{what}: node {id}");
                assert_eq!(a.rapl_dram_raw(), b.rapl_dram_raw(), "{what}: node {id}");
                assert_eq!(
                    a.rapl_elapsed().as_secs().to_bits(),
                    b.rapl_elapsed().as_secs().to_bits(),
                    "{what}: node {id}"
                );
            }
            assert_eq!(replayed, *replays, "{what}: replayed");
        }

        // A crashed participant fails the job with run_job's message, memo
        // or not.
        let dead = job.plan.node_ids[1];
        cluster.fail_node(dead);
        twin.fail_node(dead);
        let epoch = SCRIPT.len() as u64;
        engine.set_epoch(epoch);
        let (app, plan, iterations) = (&job.app, &job.plan, job.iterations);
        let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.execute(&mut cluster, app, plan, iterations)
        }));
        let want = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_plan(&mut twin, app, plan, iterations, epoch, &mut ref_rec)
        }));
        let expected = format!("node {dead} has crashed");
        for (what, outcome) in [("engine", got.err()), ("execute_plan", want.err())] {
            let msg = outcome.and_then(|p| p.downcast::<String>().ok());
            assert_eq!(msg.as_deref(), Some(&expected), "{what}");
        }
        (engine.into_recorder(), ref_rec)
    }

    #[test]
    fn engine_execute_replays_bit_identically_to_execute_plan() {
        let _ = run_script(NoopRecorder, NoopRecorder);
    }

    #[test]
    fn traced_replay_emits_execute_plans_frames() {
        let ring = || clip_obs::TraceRecorder::new(clip_obs::RingSink::new(1 << 14));
        let (got, want) = run_script(ring(), ring());
        let (got, want) = (got.finish(), want.finish());
        assert_eq!(got.dropped(), 0, "the ring holds the whole script");
        assert!(!got.is_empty());
        assert!(got.frames().eq(want.frames()), "trace frames differ");
    }

    /// The same fault timeline — cap jitter on, a straggler, jitter off, a
    /// crash — driven twice: through [`EpochEngine::run`], which settles
    /// each epoch from the report in the engine's memo, and phase by phase
    /// through `execute` and `settle_epoch`, which settle a copy. Returns
    /// each run's serialized report and recorder.
    fn run_both_ways<R: Recorder>(rec: impl Fn() -> R) -> [(String, R); 2] {
        use cluster_sim::{FaultEvent, FaultKind, FaultPlan};
        let event = |at_epoch, node, kind| FaultEvent {
            at_epoch,
            node,
            kind,
        };
        let faults = FaultPlan::new(vec![
            event(2, 3, FaultKind::CapJitter { fraction: 0.06 }),
            event(4, 1, FaultKind::SlowNode { factor: 1.15 }),
            event(5, 3, FaultKind::CapJitter { fraction: 0.0 }),
            event(6, 5, FaultKind::NodeCrash),
        ]);
        let cfg = FaultHarnessConfig {
            epochs: 10,
            iterations_per_epoch: 2,
        };
        let budget = Power::watts(1200.0);
        let app = suite::comd();

        let mut cluster = Cluster::paper_testbed(41);
        let mut engine = EpochEngine::new(budget, rec());
        let mut policy = crate::degrade::FaultTimeline::new(&faults);
        let report = engine.run(&mut clip(), &mut cluster, &app, &mut policy, &cfg);
        // The straggler and the crash each change the pool, and each is
        // recovered from at the next boundary.
        assert_eq!(report.recoveries.len(), 2);
        let in_place = (
            serde_json::to_string(&report).unwrap(),
            engine.into_recorder(),
        );

        let mut cluster = Cluster::paper_testbed(41);
        let mut engine = EpochEngine::new(budget, rec());
        let mut policy = crate::degrade::FaultTimeline::new(&faults);
        let mut sched = clip();
        let mut state = engine.begin_run(&mut sched, &mut cluster, &app, &mut policy, &cfg);
        for epoch in 0..cfg.epochs {
            let prep = engine.prepare_epoch(
                &mut state,
                &mut sched,
                &mut cluster,
                &app,
                &mut policy,
                epoch,
            );
            let app = state.staged().unwrap_or(&app);
            let report = engine.execute(&mut cluster, app, &state.plan, cfg.iterations_per_epoch);
            engine.settle_epoch(&mut state, prep, &report, &mut policy, epoch);
        }
        let report = engine.finish_run(state, &mut sched, &cluster);
        let phased = (
            serde_json::to_string(&report).unwrap(),
            engine.into_recorder(),
        );
        [in_place, phased]
    }

    #[test]
    fn settling_in_place_matches_settling_a_copy() {
        let [(in_place, _), (phased, _)] = run_both_ways(|| NoopRecorder);
        assert_eq!(in_place, phased);
    }

    #[test]
    fn settling_in_place_emits_the_same_frames() {
        let ring = || clip_obs::TraceRecorder::new(clip_obs::RingSink::new(1 << 14));
        let [(in_place, got), (phased, want)] = run_both_ways(ring);
        assert_eq!(in_place, phased);
        let (got, want) = (got.finish(), want.finish());
        assert_eq!(got.dropped(), 0, "the ring holds the whole run");
        assert!(!got.is_empty());
        assert!(got.frames().eq(want.frames()), "trace frames differ");
    }

    #[test]
    fn engine_epoch_stamp_is_caller_controlled() {
        let mut engine: EpochEngine = EpochEngine::new(Power::watts(100.0), NoopRecorder);
        assert_eq!(engine.epoch(), 0);
        engine.set_epoch(7);
        assert_eq!(engine.epoch(), 7);
        assert_eq!(engine.budget(), Power::watts(100.0));
    }
}
