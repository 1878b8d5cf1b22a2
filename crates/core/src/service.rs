//! Open-loop multi-tenant service harness: admission control, priority
//! preemption and power-aware autoscaling on top of [`EpochEngine`]
//! (ROADMAP item 2, the arrival-driven half).
//!
//! The paper evaluates Algorithm 1 on a closed, drained queue; a
//! power-bounded cluster that *serves* rather than *drains* needs three
//! decisions the paper leaves open, and [`ServiceTimeline`] makes all
//! three at epoch boundaries through the [`EpochPolicy`] hooks:
//!
//! - **Admission** — every arrival is screened with a holistic
//!   feasibility trial (the OEC-style power-flow check): the run's own
//!   scheduler solves [`PowerScheduler::plan_subset`] over the service
//!   pool under the current grant, untraced, and the job is rejected as
//!   [`RejectReason::Infeasible`] when no plan fits, or as
//!   [`RejectReason::SloHopeless`] when the backlog already guarantees a
//!   blown SLO before the job could start.
//! - **Preemption** — a queued higher-priority job that has waited past
//!   `preempt_grace × SLO` bumps the running lower-priority job back to
//!   the queue head; the engine re-plans the same epoch.
//! - **Autoscaling** — queue depth drives pool growth/shrink between
//!   `min_nodes` and `max_nodes`; the grant is re-split against the
//!   cluster reserve (`watts_per_node × pool`, clamped to the envelope)
//!   and every re-split is zero-sum audited by
//!   [`BudgetLedger::audit_shift`] before the engine adopts it via
//!   [`Boundary::budget`].
//!
//! Determinism: arrivals come from a pre-resolved
//! [`clip_serve::ArrivalPlan`], all tie-breaks are by job id, and the
//! policy runs entirely inside the engine's sequential prepare/settle
//! phases — so service runs are replay-identical across worker counts,
//! which `tests/replay.rs` pins.

use crate::audit::BudgetLedger;
use crate::engine::{Boundary, EpochEngine, EpochPolicy, FaultHarnessConfig, FaultRunReport};
use crate::scheduler::{PowerScheduler, SchedulePlan};
use clip_obs::{EventClass, Recorder, TraceEvent};
use clip_serve::{
    ArrivalPlan, JobOutcome, JobRecord, RejectReason, ServiceConfig, ServiceReport, Tenant,
};
use cluster_sim::{Cluster, JobReport};
use serde::{Deserialize, Serialize};
use simkit::{Power, TimeSpan};
use simnode::PowerCaps;
use std::collections::VecDeque;
use workload::AppModel;

/// Minimum watts a trial plan must be able to draw before admission
/// considers it feasible (mirrors the dispatcher's free-power floor).
const FREE_POWER_FLOOR: Power = Power::watts(50.0);

/// Grant changes smaller than this are noise, not re-splits.
const GRANT_TOLERANCE: Power = Power::watts(1e-9);

/// One admitted job flowing through the service: queued, then active,
/// then completed. Plain `Copy` data — the heavyweight [`AppModel`] stays
/// in the catalog and is only referenced by index.
#[derive(Debug, Clone, Copy)]
struct ServiceJob {
    /// Ledger index (== position in [`ServiceTimeline::jobs`]).
    job: u64,
    /// Index into the tenant list.
    tenant: usize,
    /// Index into the application catalog.
    app: usize,
    /// Tenant priority, denormalized for queue scans.
    priority: u8,
    /// Iterations still to run.
    remaining: usize,
    /// Sim-clock seconds at admission (latency baseline).
    arrived_at: f64,
}

/// The service policy: owns the arrival cursor, the admission queue, the
/// active job, the node pool and the power grant. Drives one
/// [`EpochEngine`] run through every [`EpochPolicy`] hook.
#[derive(Debug)]
pub struct ServiceTimeline {
    tenants: Vec<Tenant>,
    catalog: Vec<AppModel>,
    cfg: ServiceConfig,
    arrivals: ArrivalPlan,
    /// Power envelope the grant + reserve must always sum to. Under the
    /// sharded arbiter this is the rack's current grant and moves via
    /// [`Self::set_cluster_budget`]; the reserve is signed headroom, so
    /// the shift audit stays zero-sum across envelope moves.
    cluster_budget: Power,
    ledger: BudgetLedger<'static>,
    cursor: usize,
    next_job: u64,
    jobs: Vec<JobRecord>,
    queue: VecDeque<ServiceJob>,
    active: Option<ServiceJob>,
    /// Sorted node ids the service currently plans over.
    pool: Vec<usize>,
    grant: Power,
    clock: TimeSpan,
    /// Running mean of settled epoch wall seconds (latency predictor for
    /// the SLO-hopeless screen).
    epoch_seconds: f64,
    epochs_settled: usize,
    scalings: usize,
}

impl ServiceTimeline {
    /// A service over `tenants` running jobs drawn from `catalog`,
    /// arrivals pre-resolved in `plan`, under `cluster_budget`.
    ///
    /// # Panics
    /// On inconsistent config ([`ServiceConfig::validate`]), an empty
    /// tenant list or catalog, or an arrival referencing an out-of-range
    /// tenant or application.
    pub fn new(
        tenants: Vec<Tenant>,
        catalog: Vec<AppModel>,
        plan: ArrivalPlan,
        cfg: ServiceConfig,
        cluster_budget: Power,
    ) -> Self {
        cfg.validate();
        assert!(!tenants.is_empty(), "service needs at least one tenant");
        assert!(!catalog.is_empty(), "service needs at least one app");
        for ev in plan.events() {
            assert!(ev.tenant < tenants.len(), "arrival names unknown tenant");
            assert!(ev.app < catalog.len(), "arrival names unknown app");
        }
        let grant = Self::split(&cfg, cfg.initial_nodes, cluster_budget);
        Self {
            tenants,
            catalog,
            arrivals: plan,
            ledger: BudgetLedger::new("clip-serve", cluster_budget),
            cluster_budget,
            cfg,
            cursor: 0,
            next_job: 0,
            jobs: Vec::new(),
            queue: VecDeque::new(),
            active: None,
            pool: (0..cfg.initial_nodes).collect(),
            grant,
            clock: TimeSpan::ZERO,
            epoch_seconds: 0.0,
            epochs_settled: 0,
            scalings: 0,
        }
    }

    /// The grant a `nodes`-wide pool asks for under `envelope`.
    fn split(cfg: &ServiceConfig, nodes: usize, envelope: Power) -> Power {
        Power::watts((cfg.watts_per_node.as_watts() * nodes as f64).min(envelope.as_watts()))
    }

    /// Current service power grant (the engine budget the policy last
    /// published).
    pub fn grant(&self) -> Power {
        self.grant
    }

    /// Current power envelope (grant + reserve).
    pub fn cluster_budget(&self) -> Power {
        self.cluster_budget
    }

    /// Node ids the service currently plans over, sorted.
    pub fn pool(&self) -> &[usize] {
        &self.pool
    }

    /// Jobs submitted so far (arrived, whatever their fate).
    pub fn submitted(&self) -> usize {
        self.jobs.len()
    }

    /// Move the power envelope (the sharded arbiter re-granted this
    /// rack). The next boundary re-splits the grant against the new
    /// envelope and audits the shift.
    pub fn set_cluster_budget(&mut self, envelope: Power) {
        self.cluster_budget = envelope;
    }

    /// The active job's application, if a job is running.
    pub fn active_app(&self) -> Option<&AppModel> {
        self.active.as_ref().and_then(|a| self.catalog.get(a.app))
    }

    /// Retain only pool members in `pool`; on an empty intersection keep
    /// the engine's pool untouched (the [`EpochPolicy::restrict_pool`]
    /// non-empty contract).
    pub fn restrict(&self, pool: &mut Vec<usize>) {
        if pool.iter().any(|id| self.pool.contains(id)) {
            pool.retain(|id| self.pool.contains(id));
        }
    }

    /// Consume the policy into its service-level report.
    pub fn into_report(self) -> ServiceReport {
        let Self {
            tenants,
            jobs,
            scalings,
            pool,
            ..
        } = self;
        ServiceReport::from_jobs(&tenants, jobs, scalings, pool.len())
    }

    /// Drop dead nodes from the pool; if every member died, re-seed from
    /// the lowest-index survivors so the pool invariant (non-empty while
    /// the cluster lives) holds.
    fn refresh_pool(&mut self, cluster: &Cluster) {
        self.pool.retain(|&id| cluster.is_alive(id));
        if self.pool.is_empty() {
            let mut id = 0;
            while self.pool.len() < self.cfg.min_nodes && id < cluster.len() {
                if cluster.is_alive(id) {
                    self.pool.push(id);
                }
                id += 1;
            }
        }
    }

    /// Iterations queued ahead of a new arrival at `priority`: only work
    /// the arrival cannot pass counts — jobs at the same or higher
    /// priority. A running lower-priority job is excluded (the arrival
    /// preempts it once the grace window expires, an error the screen
    /// accepts to stay a screen rather than a simulation).
    fn backlog_iterations(&self, priority: u8) -> usize {
        let active: usize = self
            .active
            .filter(|a| a.priority >= priority)
            .map_or(0, |a| a.remaining);
        active
            + self
                .queue
                .iter()
                .filter(|q| q.priority >= priority)
                .map(|q| q.remaining)
                .sum::<usize>()
    }

    /// The holistic admission screen for one arrival: solve a trial plan
    /// over the pool under the grant (untraced — trials are questions,
    /// not decisions), then check the backlog against the tenant's SLO.
    /// Returns `Ok(degraded)` or the rejection reason.
    fn admission_screen<R: Recorder>(
        &self,
        cluster: &mut Cluster,
        scheduler: &mut dyn PowerScheduler,
        app: &AppModel,
        iterations: usize,
        tenant: usize,
        rec: &R,
    ) -> Result<bool, RejectReason> {
        let (priority, slo) = self
            .tenants
            .get(tenant)
            .map_or((0, TimeSpan::ZERO), |t| (t.priority, t.slo));
        scheduler.set_tracing(false);
        let trial: SchedulePlan = scheduler.plan_subset(cluster, app, self.grant, &self.pool);
        scheduler.set_tracing(rec.enabled_for(EventClass::Scheduler));
        let feasible = !trial.node_ids.is_empty()
            && trial.within_budget(self.grant)
            && trial.total_caps() >= FREE_POWER_FLOOR;
        if !feasible {
            return Err(RejectReason::Infeasible);
        }
        if self.epochs_settled > 0 {
            let backlog = (self.backlog_iterations(priority) + iterations) as f64;
            let predicted = backlog / self.cfg.iterations_per_epoch as f64 * self.epoch_seconds;
            if predicted > slo.as_secs() {
                return Err(RejectReason::SloHopeless);
            }
        }
        Ok(trial.nodes() < self.pool.len())
    }

    /// Index of the queue's best candidate: highest priority, job id
    /// breaking ties (FIFO — ids are monotone in arrival order).
    fn best_queued(&self) -> Option<usize> {
        let mut best: Option<(usize, u8, u64)> = None;
        for (i, q) in self.queue.iter().enumerate() {
            let better = match best {
                None => true,
                Some((_, bp, bj)) => q.priority > bp || (q.priority == bp && q.job < bj),
            };
            if better {
                best = Some((i, q.priority, q.job));
            }
        }
        best.map(|(i, _, _)| i)
    }

    /// The service's epoch-boundary decision cycle: arrivals through
    /// admission, then preemption, activation and autoscaling. Returns
    /// the boundary summary, with [`Boundary::budget`] set whenever the
    /// grant was re-split.
    pub fn service_boundary<R: Recorder>(
        &mut self,
        cluster: &mut Cluster,
        scheduler: &mut dyn PowerScheduler,
        epoch: usize,
        rec: &mut R,
    ) -> Boundary {
        let mut b = Boundary::quiet();
        let ep = epoch as u64;
        let active_before = self.active.map(|a| a.job);
        self.refresh_pool(cluster);
        let pool_before = self.pool.len();

        // Arrivals: admit or reject every event due at this boundary.
        while let Some(&ev) = self.arrivals.events().get(self.cursor) {
            if ev.at_epoch > epoch {
                break;
            }
            self.cursor += 1;
            let job = self.next_job;
            self.next_job += 1;
            let priority = self.tenants.get(ev.tenant).map_or(0, |t| t.priority);
            if rec.enabled() {
                rec.event_with(ep, EventClass::Service, || TraceEvent::JobArrived {
                    job,
                    tenant: tenant_name(&self.tenants, ev.tenant),
                    app: app_name(&self.catalog, ev.app),
                    iterations: ev.iterations as u64,
                });
                rec.counter_add("service_jobs_arrived_total", 1);
            }
            let mut record = JobRecord {
                job,
                tenant: ev.tenant,
                app: ev.app,
                iterations: ev.iterations,
                arrival_epoch: ev.at_epoch,
                preemptions: 0,
                degraded: false,
                outcome: JobOutcome::Unfinished,
            };
            let screen = match self.catalog.get(ev.app) {
                Some(app) => {
                    self.admission_screen(cluster, scheduler, app, ev.iterations, ev.tenant, rec)
                }
                None => Err(RejectReason::Infeasible),
            };
            match screen {
                Ok(degraded) => {
                    record.degraded = degraded;
                    self.queue.push_back(ServiceJob {
                        job,
                        tenant: ev.tenant,
                        app: ev.app,
                        priority,
                        remaining: ev.iterations.max(1),
                        arrived_at: self.clock.as_secs(),
                    });
                    b.events_applied += 1;
                    if rec.enabled() {
                        rec.event_with(ep, EventClass::Service, || TraceEvent::JobAdmitted {
                            job,
                            tenant: tenant_name(&self.tenants, ev.tenant),
                            queued: self.queue.len(),
                            degraded,
                        });
                        rec.counter_add("service_jobs_admitted_total", 1);
                    }
                }
                Err(reason) => {
                    record.outcome = JobOutcome::Rejected { reason };
                    b.events_ignored += 1;
                    if rec.enabled() {
                        rec.event_with(ep, EventClass::Service, || TraceEvent::JobRejected {
                            job,
                            tenant: tenant_name(&self.tenants, ev.tenant),
                            reason: reason.into(),
                        });
                        rec.counter_add("service_jobs_rejected_total", 1);
                    }
                }
            }
            self.jobs.push(record);
        }

        // Preemption: a starved higher-priority job bumps the running
        // one back to the queue.
        if let (Some(active), Some(idx)) = (self.active, self.best_queued()) {
            if let Some(cand) = self.queue.get(idx).copied() {
                let slo = self
                    .tenants
                    .get(cand.tenant)
                    .map_or(f64::INFINITY, |t| t.slo.as_secs());
                let wait = self.clock.as_secs() - cand.arrived_at;
                if cand.priority > active.priority && wait > self.cfg.preempt_grace * slo {
                    if let Some(old) = self.active.take() {
                        if let Some(j) = self.jobs.get_mut(old.job as usize) {
                            j.preemptions += 1;
                        }
                        if rec.enabled() {
                            rec.event_with(ep, EventClass::Service, || TraceEvent::JobPreempted {
                                job: old.job,
                                tenant: tenant_name(&self.tenants, old.tenant),
                                by: cand.job,
                                remaining_iterations: old.remaining as u64,
                            });
                            rec.counter_add("service_preemptions_total", 1);
                        }
                        self.queue.push_front(old);
                    }
                }
            }
        }

        // Activation: idle engine picks the best queued job.
        if self.active.is_none() {
            if let Some(idx) = self.best_queued() {
                self.active = self.queue.remove(idx);
            }
        }

        // Autoscaling: queue depth drives the pool between min and max.
        let queued = self.queue.len();
        let mut target = pool_before;
        if queued >= self.cfg.grow_queue {
            target = (pool_before + self.cfg.scale_step).min(self.cfg.max_nodes);
        } else if queued <= self.cfg.shrink_queue {
            target = pool_before
                .saturating_sub(self.cfg.scale_step)
                .max(self.cfg.min_nodes);
        }
        if target > self.pool.len() {
            let mut id = 0;
            while self.pool.len() < target && id < cluster.len() {
                if cluster.is_alive(id) && !self.pool.contains(&id) {
                    self.pool.push(id);
                }
                id += 1;
            }
            self.pool.sort_unstable();
        } else {
            // Pool kept sorted, so popping removes the highest ids first.
            while self.pool.len() > target.max(self.cfg.min_nodes) {
                self.pool.pop();
            }
        }

        // Re-split the grant whenever the pool or the envelope moved;
        // zero-sum against the (signed) reserve, audited before adoption.
        let desired = Self::split(&self.cfg, self.pool.len(), self.cluster_budget);
        if (desired - self.grant).abs() > GRANT_TOLERANCE {
            let before = [caps(self.grant), caps(self.cluster_budget - self.grant)];
            let after = [caps(desired), caps(self.cluster_budget - desired)];
            self.ledger.audit_shift(&before, &after);
            self.grant = desired;
            b.budget = Some(desired);
            b.replan_now = true;
        }
        if self.pool.len() != pool_before {
            self.scalings += 1;
            b.replan_now = true;
            if rec.enabled() {
                rec.event_with(ep, EventClass::Service, || TraceEvent::PoolScaled {
                    nodes_before: pool_before,
                    nodes_after: self.pool.len(),
                    granted: self.grant,
                });
                rec.counter_add("service_pool_scalings_total", 1);
                rec.gauge_set("service_pool_nodes", self.pool.len() as f64);
            }
        }

        if self.active.map(|a| a.job) != active_before {
            b.replan_now = true;
        }
        b
    }

    /// Advance the active job by one epoch of progress and record a
    /// completion (latency, SLO verdict) when it finishes.
    pub fn settled<R: Recorder>(&mut self, report: &JobReport, epoch: usize, rec: &mut R) {
        self.clock += report.total_time;
        self.epochs_settled += 1;
        self.epoch_seconds +=
            (report.total_time.as_secs() - self.epoch_seconds) / self.epochs_settled as f64;
        if let Some(a) = self.active.as_mut() {
            a.remaining = a.remaining.saturating_sub(self.cfg.iterations_per_epoch);
        }
        if self.active.is_some_and(|a| a.remaining == 0) {
            if let Some(done) = self.active.take() {
                let latency = (self.clock.as_secs() - done.arrived_at).max(0.0);
                let slo = self
                    .tenants
                    .get(done.tenant)
                    .map_or(TimeSpan::ZERO, |t| t.slo);
                let met = latency <= slo.as_secs() + 1e-9;
                if let Some(j) = self.jobs.get_mut(done.job as usize) {
                    j.outcome = JobOutcome::Completed {
                        latency: TimeSpan::secs(latency),
                        slo_met: met,
                    };
                }
                if rec.enabled() {
                    rec.event_with(epoch as u64, EventClass::Service, || {
                        TraceEvent::SloEvaluated {
                            job: done.job,
                            tenant: tenant_name(&self.tenants, done.tenant),
                            latency: TimeSpan::secs(latency),
                            slo,
                            met,
                        }
                    });
                    rec.observe("service_latency_secs", latency);
                    rec.counter_add("service_jobs_completed_total", 1);
                }
            }
        }
    }
}

/// Tenant display name (only called on traced paths).
fn tenant_name(tenants: &[Tenant], idx: usize) -> String {
    tenants
        .get(idx)
        .map_or_else(String::new, |t| t.name.clone())
}

/// Application display name (only called on traced paths).
fn app_name(catalog: &[AppModel], idx: usize) -> String {
    catalog
        .get(idx)
        .map_or_else(String::new, |a| a.name().to_string())
}

/// A CPU-only caps entry for the grant/reserve shift audit.
fn caps(cpu: Power) -> PowerCaps {
    PowerCaps {
        cpu,
        dram: Power::ZERO,
    }
}

impl<R: Recorder> EpochPolicy<R> for ServiceTimeline {
    fn epoch_boundary(
        &mut self,
        cluster: &mut Cluster,
        scheduler: &mut dyn PowerScheduler,
        plan: &mut SchedulePlan,
        epoch: usize,
        rec: &mut R,
    ) -> Boundary {
        let _ = plan;
        self.service_boundary(cluster, scheduler, epoch, rec)
    }

    fn app_for_epoch(&self, epoch: usize) -> Option<&AppModel> {
        let _ = epoch;
        self.active_app()
    }

    fn restrict_pool(&self, pool: &mut Vec<usize>) {
        self.restrict(pool);
    }

    fn epoch_settled(&mut self, report: &JobReport, epoch: usize, rec: &mut R) {
        self.settled(report, epoch, rec);
    }
}

/// Outcome of one service run: the engine's per-epoch audit trail plus
/// the service-level job/tenant report.
#[must_use = "a service run report carries SLO statistics"]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceRunReport {
    /// The engine's per-epoch record (plans, audits, recoveries).
    pub engine: FaultRunReport,
    /// Job fates and per-tenant latency/SLO rollup.
    pub service: ServiceReport,
}

/// Drive one scheduler through `epochs` epochs of open-loop service
/// load. `base_app` fills idle epochs (it is what the engine plans for
/// when no job is active); the engine budget starts at the timeline's
/// initial grant and follows every audited re-split.
pub fn run_service<R: Recorder>(
    scheduler: &mut dyn PowerScheduler,
    cluster: &mut Cluster,
    base_app: &AppModel,
    mut timeline: ServiceTimeline,
    epochs: usize,
    rec: &mut R,
) -> ServiceRunReport {
    let cfg = FaultHarnessConfig {
        epochs,
        iterations_per_epoch: timeline.cfg.iterations_per_epoch,
    };
    let mut engine = EpochEngine::new(timeline.grant(), rec);
    let engine_report = engine.run(scheduler, cluster, base_app, &mut timeline, &cfg);
    ServiceRunReport {
        engine: engine_report,
        service: timeline.into_report(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlr::InflectionPredictor;
    use crate::scheduler::ClipScheduler;
    use clip_serve::ArrivalEvent;
    use simkit::SimRng;
    use workload::suite;

    fn clip() -> ClipScheduler {
        ClipScheduler::new(InflectionPredictor::train_default(5))
    }

    /// SLOs scaled to the testbed's ~4 s epochs: gold expects an answer
    /// within ~10 epochs, bronze within ~100.
    fn tenants() -> Vec<Tenant> {
        vec![
            Tenant::new("gold", 3, TimeSpan::secs(40.0)),
            Tenant::new("bronze", 1, TimeSpan::secs(400.0)),
        ]
    }

    fn catalog() -> Vec<AppModel> {
        vec![suite::comd(), suite::amg()]
    }

    fn cfg() -> ServiceConfig {
        ServiceConfig {
            min_nodes: 2,
            max_nodes: 8,
            initial_nodes: 4,
            watts_per_node: Power::watts(300.0),
            grow_queue: 2,
            shrink_queue: 0,
            scale_step: 2,
            preempt_grace: 0.25,
            iterations_per_epoch: 2,
        }
    }

    fn ev(at_epoch: usize, tenant: usize, app: usize, iterations: usize) -> ArrivalEvent {
        ArrivalEvent {
            at_epoch,
            tenant,
            app,
            iterations,
        }
    }

    fn run(plan: ArrivalPlan, epochs: usize) -> ServiceRunReport {
        let mut cluster = Cluster::paper_testbed(7);
        let mut sched = clip();
        let timeline =
            ServiceTimeline::new(tenants(), catalog(), plan, cfg(), Power::watts(2400.0));
        run_service(
            &mut sched,
            &mut cluster,
            &suite::comd(),
            timeline,
            epochs,
            &mut clip_obs::NoopRecorder,
        )
    }

    #[test]
    fn quiet_service_shrinks_to_floor_and_completes_nothing() {
        let report = run(ArrivalPlan::empty(), 4);
        assert_eq!(report.service.jobs.len(), 0);
        assert_eq!(report.service.completed(), 0);
        // Empty queue every epoch: the autoscaler walks the pool down to
        // min_nodes in one step of scale_step=2.
        assert_eq!(report.service.final_pool, 2);
        assert!(report.service.pool_scalings >= 1);
    }

    #[test]
    fn single_job_completes_with_latency_and_slo_verdict() {
        let plan = ArrivalPlan::new(vec![ev(0, 0, 0, 4)]);
        let report = run(plan, 6);
        assert_eq!(report.service.jobs.len(), 1);
        assert_eq!(report.service.completed(), 1);
        let job = &report.service.jobs[0];
        match job.outcome {
            JobOutcome::Completed { latency, .. } => {
                assert!(latency.as_secs() > 0.0, "latency must be positive");
            }
            other => panic!("expected completion, got {other:?}"),
        }
        let gold = &report.service.tenants[0];
        assert_eq!(gold.completed, 1);
        assert!(gold.latency_percentile(50.0).is_some());
    }

    #[test]
    fn burst_grows_the_pool_and_backlog_rejects_hopeless_arrivals() {
        // Saturate: a long bronze backlog, then a late bronze arrival
        // whose predicted wait blows even the 4000 s SLO.
        let mut events: Vec<ArrivalEvent> = (0..6).map(|i| ev(0, 1, 0, 40 + i)).collect();
        events.push(ev(4, 1, 0, 400));
        let report = run(ArrivalPlan::new(events), 6);
        assert_eq!(report.service.jobs.len(), 7);
        let bronze = &report.service.tenants[1];
        assert!(bronze.rejected >= 1, "backlog screen must reject");
        assert!(
            report.service.jobs.iter().any(|j| matches!(
                j.outcome,
                JobOutcome::Rejected {
                    reason: RejectReason::SloHopeless
                }
            )),
            "rejection reason must be the SLO screen"
        );
        assert!(
            report.service.pool_scalings >= 1,
            "burst must scale the pool"
        );
    }

    #[test]
    fn starved_gold_preempts_running_bronze() {
        // Bronze occupies the engine with a long job; gold arrives later
        // and must preempt once its grace window (0.25 × 400 s) expires.
        let plan = ArrivalPlan::new(vec![ev(0, 1, 0, 1000), ev(1, 0, 1, 4)]);
        let report = run(plan, 8);
        let bronze_job = &report.service.jobs[0];
        assert!(
            bronze_job.preemptions >= 1,
            "gold must preempt the running bronze job: {bronze_job:?}"
        );
        let gold = &report.service.tenants[0];
        assert_eq!(gold.completed, 1, "preempting gold job must finish");
    }

    #[test]
    fn grant_never_exceeds_envelope_and_audits_stay_clean() {
        let before = crate::audit::violation_count();
        let mut rng = SimRng::seed_from_u64(11);
        let plan = ArrivalPlan::poisson(&mut rng, &[0.8, 1.2], 2, 6, (2, 6));
        let report = run(plan, 8);
        assert_eq!(crate::audit::violation_count(), before);
        for e in &report.engine.epochs {
            assert!(
                e.caps_total <= Power::watts(2400.0) + Power::watts(1e-6),
                "epoch caps above envelope: {:?}",
                e.caps_total
            );
        }
    }

    #[test]
    fn replay_is_deterministic_for_a_fixed_seed() {
        let make = || {
            let mut rng = SimRng::seed_from_u64(7);
            ArrivalPlan::poisson(&mut rng, &[1.0, 0.5], 2, 8, (1, 5))
        };
        let a = run(make(), 10);
        let b = run(make(), 10);
        let ja = serde_json::to_string(&a.service).expect("serializes");
        let jb = serde_json::to_string(&b.service).expect("serializes");
        assert_eq!(ja, jb, "same plan, same report");
    }
}
