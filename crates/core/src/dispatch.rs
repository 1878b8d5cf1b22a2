//! Power-bounded job-queue dispatch.
//!
//! The paper's application execution module "creates a script to launch the
//! job … through our job scheduler" (§IV-B3); this module is that job
//! scheduler: a discrete-event FCFS dispatcher over the simulated cluster
//! that shares nodes *and* the power budget across whatever is running.
//!
//! When a job reaches the queue head and enough nodes/power are free, the
//! CLIP pipeline plans it against exactly those free resources
//! ([`crate::ClipScheduler::plan_constrained`]) — so a job arriving on a
//! half-busy machine naturally gets fewer nodes with per-node budgets in
//! its acceptable range, instead of waiting for the whole machine. An
//! optional backfill mode lets later jobs jump a blocked head if they fit.

use crate::engine::EpochEngine;
use crate::powerfit::FittedPowerModel;
use crate::scheduler::{ClipScheduler, PowerScheduler, SchedulePlan};
use clip_serve::ArrivalPlan;
use cluster_sim::Cluster;
use serde::{Deserialize, Serialize};
use simkit::{Power, TimeSpan};
use workload::AppModel;

/// A job submitted to the queue.
#[derive(Debug, Clone)]
pub struct QueuedJob {
    /// The application.
    pub app: AppModel,
    /// Submission time.
    pub arrival: TimeSpan,
    /// Iterations to run.
    pub iterations: usize,
}

/// Completion record of one dispatched job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DispatchOutcome {
    /// Application name.
    pub job: String,
    /// Submission time.
    pub arrival: TimeSpan,
    /// Dispatch (start) time.
    pub start: TimeSpan,
    /// Completion time.
    pub finish: TimeSpan,
    /// Nodes the job ran on.
    pub nodes: usize,
    /// Threads per node.
    pub threads: usize,
    /// Power the job was allowed to draw (sum of its caps).
    pub granted_power: Power,
    /// Measured performance, iterations per second.
    pub performance: f64,
}

impl DispatchOutcome {
    /// Queue wait time.
    pub fn wait(&self) -> TimeSpan {
        self.start - self.arrival
    }

    /// Turnaround (submission → completion).
    pub fn turnaround(&self) -> TimeSpan {
        self.finish - self.arrival
    }
}

/// Aggregate statistics of a dispatched workload.
#[must_use = "a dispatch report carries completion and wait statistics"]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DispatchReport {
    /// Per-job outcomes, in completion order.
    pub outcomes: Vec<DispatchOutcome>,
    /// Time the last job finished.
    pub makespan: TimeSpan,
}

impl DispatchReport {
    /// Mean turnaround across jobs.
    pub fn mean_turnaround(&self) -> TimeSpan {
        let total: f64 = self.outcomes.iter().map(|o| o.turnaround().as_secs()).sum();
        TimeSpan::secs(total / self.outcomes.len().max(1) as f64)
    }

    /// Mean queue wait across jobs.
    pub fn mean_wait(&self) -> TimeSpan {
        let total: f64 = self.outcomes.iter().map(|o| o.wait().as_secs()).sum();
        TimeSpan::secs(total / self.outcomes.len().max(1) as f64)
    }
}

/// The FCFS power-bounded dispatcher.
#[derive(Debug)]
pub struct Dispatcher {
    scheduler: ClipScheduler,
    /// Total cluster power budget shared by everything running.
    pub budget: Power,
    /// Allow jobs behind a blocked head to start if they fit (EASY-style
    /// backfill without reservations — acceptable here because CLIP shrinks
    /// jobs to fit rather than holding out for the full machine).
    pub backfill: bool,
}

/// A job currently executing.
struct Running {
    finish: TimeSpan,
    node_ids: Vec<usize>,
    power: Power,
}

impl Dispatcher {
    /// New dispatcher over a shared budget.
    pub fn new(scheduler: ClipScheduler, budget: Power) -> Self {
        Self {
            scheduler,
            budget,
            backfill: false,
        }
    }

    /// Trim a plan's caps to what the job can actually draw: stranded
    /// watts in a generous grant would block the rest of the queue. The
    /// ceiling comes from the application's fitted power model at the
    /// highest frequency, with headroom for model error and variability.
    fn trim_grant(&self, plan: &mut SchedulePlan, app: &AppModel) {
        let Some(record) = self.scheduler.knowledge().get(app.name()) else {
            return;
        };
        let pm = FittedPowerModel::fit(&record.profile);
        let cpu_need = pm.cpu_power(plan.threads_per_node, pm.f_max) * 1.10 + Power::watts(2.0);
        for caps in &mut plan.caps {
            *caps = simnode::PowerCaps::new(caps.cpu.min(cpu_need), caps.dram);
        }
    }

    /// Run a submission list to completion and report. Jobs must be sorted
    /// by arrival time.
    ///
    /// Each job start is one [`EpochEngine`] coordinate + execute pair —
    /// the dispatcher is job arbitration layered on the engine's
    /// primitives, with the engine's epoch stamp carrying the dispatch
    /// order (0-based start index, deterministic for a fixed submission
    /// list). With a tracing recorder this emits a
    /// [`clip_obs::TraceEvent::JobDispatched`] for every start (plus the
    /// engine's own plan/actuation events), and observes per-job
    /// `job_wait_secs` / `job_turnaround_secs` histograms and a
    /// `jobs_dispatched_total` counter; with the
    /// [`clip_obs::NoopRecorder`] every hook compiles away.
    pub fn run<R: clip_obs::Recorder>(
        &mut self,
        cluster: &mut Cluster,
        jobs: &[QueuedJob],
        rec: &mut R,
    ) -> DispatchReport {
        assert!(!jobs.is_empty(), "empty submission list");
        assert!(
            jobs.iter()
                .zip(jobs.iter().skip(1))
                .all(|(a, b)| a.arrival <= b.arrival),
            "jobs must be sorted by arrival"
        );

        let mut engine = EpochEngine::new(self.budget, rec);
        self.scheduler.set_tracing(
            engine
                .recorder()
                .enabled_for(clip_obs::EventClass::Scheduler),
        );
        let mut pending: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        let mut next_arrival = 0usize;
        let mut running: Vec<Running> = Vec::new();
        let mut outcomes = Vec::new();
        let mut now = TimeSpan::ZERO;

        loop {
            // Admit everything that has arrived by `now`.
            while jobs.get(next_arrival).is_some_and(|j| j.arrival <= now) {
                pending.push_back(next_arrival);
                next_arrival += 1;
            }

            // Try to start queued jobs (FCFS; optionally scan past a
            // blocked head).
            let mut idx = 0;
            while let Some(&job_idx) = pending.get(idx) {
                let free_nodes: Vec<usize> = (0..cluster.len())
                    .filter(|id| !running.iter().any(|r| r.node_ids.contains(id)))
                    .collect();
                let used_power: Power = running.iter().map(|r| r.power).sum();
                let free_power = self.budget - used_power;
                if free_nodes.is_empty() || free_power.as_watts() < 50.0 {
                    break; // nothing can start until something finishes
                }
                let Some(job) = jobs.get(job_idx) else {
                    break; // pending holds valid job indices by construction
                };
                engine.set_epoch(outcomes.len() as u64);
                let mut plan = engine.coordinate(
                    &mut self.scheduler,
                    cluster,
                    &job.app,
                    free_power,
                    &free_nodes,
                );
                debug_assert!(plan.within_budget(free_power));
                self.trim_grant(&mut plan, &job.app);
                // A plan always fits by construction; start the job.
                let report = engine.execute(cluster, &job.app, &plan, job.iterations);
                let finish = now + report.total_time;
                let outcome = DispatchOutcome {
                    job: job.app.name().to_string(),
                    arrival: job.arrival,
                    start: now,
                    finish,
                    nodes: plan.nodes(),
                    threads: plan.threads_per_node,
                    granted_power: plan.total_caps(),
                    performance: report.performance(),
                };
                let rec = engine.recorder();
                if rec.enabled() {
                    let seq = outcomes.len() as u64;
                    rec.counter_add("jobs_dispatched_total", 1);
                    rec.observe("job_wait_secs", outcome.wait().as_secs());
                    rec.observe("job_turnaround_secs", outcome.turnaround().as_secs());
                    let name = outcome.job.clone();
                    let granted = outcome.granted_power;
                    let nodes = outcome.nodes;
                    rec.event_with(seq, clip_obs::EventClass::Scheduler, || {
                        clip_obs::TraceEvent::JobDispatched {
                            job: name,
                            start: now,
                            nodes,
                            granted,
                        }
                    });
                }
                outcomes.push(outcome);
                running.push(Running {
                    finish,
                    node_ids: plan.node_ids.clone(),
                    power: plan.total_caps(),
                });
                pending.remove(idx);
                let _ = plan;
                if !self.backfill {
                    idx = 0; // re-scan from the head after any start
                } // with backfill, keep idx (element removed shifts next in)
            }

            // Advance to the next event.
            let next_finish = running
                .iter()
                .map(|r| r.finish)
                .fold(TimeSpan::secs(f64::INFINITY), TimeSpan::min);
            let next_arrive = jobs
                .get(next_arrival)
                .map(|j| j.arrival)
                .unwrap_or(TimeSpan::secs(f64::INFINITY));
            let next = next_finish.min(next_arrive);
            if !next.is_finite() {
                break; // no running jobs, no future arrivals
            }
            now = next;
            running.retain(|r| r.finish > now);
        }

        outcomes.sort_by(|a, b| a.finish.as_secs().total_cmp(&b.finish.as_secs()));
        let makespan = outcomes
            .iter()
            .map(|o| o.finish)
            .fold(TimeSpan::ZERO, TimeSpan::max);
        self.scheduler.set_tracing(false);
        DispatchReport { outcomes, makespan }
    }

    /// Run a pre-resolved open-loop [`ArrivalPlan`] through the
    /// dispatcher: every event becomes a [`QueuedJob`] whose application
    /// is drawn from `catalog` and whose arrival time is
    /// `at_epoch × seconds_per_epoch`. The closed batch queue is the
    /// degenerate plan whose events all carry epoch 0 — both the batch
    /// examples and the service harness now share one arrival
    /// vocabulary.
    ///
    /// # Panics
    /// When the plan is empty or an event references an application
    /// outside `catalog`.
    pub fn run_plan<R: clip_obs::Recorder>(
        &mut self,
        cluster: &mut Cluster,
        plan: &ArrivalPlan,
        catalog: &[AppModel],
        seconds_per_epoch: TimeSpan,
        rec: &mut R,
    ) -> DispatchReport {
        let mut jobs: Vec<QueuedJob> = Vec::with_capacity(plan.len());
        for ev in plan.events() {
            assert!(
                ev.app < catalog.len(),
                "arrival names an app outside the catalog"
            );
            let Some(app) = catalog.get(ev.app) else {
                continue;
            };
            jobs.push(QueuedJob {
                app: app.clone(),
                arrival: TimeSpan::secs(ev.at_epoch as f64 * seconds_per_epoch.as_secs()),
                iterations: ev.iterations,
            });
        }
        self.run(cluster, &jobs, rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlr::InflectionPredictor;
    use workload::suite;

    fn dispatcher(budget_w: f64) -> Dispatcher {
        let mut clip = ClipScheduler::new(InflectionPredictor::train_default(5));
        clip.coordinate_variability = false;
        Dispatcher::new(clip, Power::watts(budget_w))
    }

    fn batch(apps: Vec<AppModel>) -> Vec<QueuedJob> {
        apps.into_iter()
            .map(|app| QueuedJob {
                app,
                arrival: TimeSpan::ZERO,
                iterations: 3,
            })
            .collect()
    }

    #[test]
    fn run_plan_matches_equivalent_queued_jobs() {
        // The closed queue is the degenerate arrival plan: resolving the
        // same submissions through either entry must yield one report.
        let catalog = vec![suite::comd(), suite::lu_mz()];
        let jobs: Vec<QueuedJob> = vec![
            QueuedJob {
                app: suite::comd(),
                arrival: TimeSpan::ZERO,
                iterations: 3,
            },
            QueuedJob {
                app: suite::lu_mz(),
                arrival: TimeSpan::secs(4.0),
                iterations: 2,
            },
        ];
        let plan = ArrivalPlan::new(vec![
            clip_serve::ArrivalEvent {
                at_epoch: 0,
                tenant: 0,
                app: 0,
                iterations: 3,
            },
            clip_serve::ArrivalEvent {
                at_epoch: 2,
                tenant: 0,
                app: 1,
                iterations: 2,
            },
        ]);
        let mut cluster_a = Cluster::homogeneous(8);
        let a = dispatcher(1500.0).run(&mut cluster_a, &jobs, &mut clip_obs::NoopRecorder);
        let mut cluster_b = Cluster::homogeneous(8);
        let b = dispatcher(1500.0).run_plan(
            &mut cluster_b,
            &plan,
            &catalog,
            TimeSpan::secs(2.0),
            &mut clip_obs::NoopRecorder,
        );
        let ja = serde_json::to_string(&a).expect("serializes");
        let jb = serde_json::to_string(&b).expect("serializes");
        assert_eq!(ja, jb, "one dispatch path, two spellings");
    }

    #[test]
    fn single_job_runs_immediately() {
        let mut cluster = Cluster::homogeneous(8);
        let report = dispatcher(1600.0).run(
            &mut cluster,
            &batch(vec![suite::comd()]),
            &mut clip_obs::NoopRecorder,
        );
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(report.outcomes[0].wait(), TimeSpan::ZERO);
        assert!(report.makespan > TimeSpan::ZERO);
    }

    #[test]
    fn all_jobs_complete_exactly_once() {
        let mut cluster = Cluster::homogeneous(8);
        let jobs = batch(vec![
            suite::comd(),
            suite::lu_mz(),
            suite::sp_mz(),
            suite::tea_leaf(),
        ]);
        let report = dispatcher(1400.0).run(&mut cluster, &jobs, &mut clip_obs::NoopRecorder);
        assert_eq!(report.outcomes.len(), 4);
        let names: std::collections::BTreeSet<&str> =
            report.outcomes.iter().map(|o| o.job.as_str()).collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn concurrent_jobs_share_nodes_and_budget() {
        // Two decomposition-limited jobs submitted together on a big
        // budget should overlap in time on disjoint node halves.
        let mut cluster = Cluster::homogeneous(8);
        let jobs = batch(vec![
            suite::comd().with_preferred_node_counts(vec![1, 2, 4]),
            suite::amg().with_preferred_node_counts(vec![1, 2, 4]),
        ]);
        let report = dispatcher(1800.0).run(&mut cluster, &jobs, &mut clip_obs::NoopRecorder);
        let a = &report.outcomes[0];
        let b = &report.outcomes[1];
        let overlap = a.start < b.finish && b.start < a.finish;
        assert!(overlap, "jobs should space-share: {a:?} vs {b:?}");
        assert!(
            a.granted_power + b.granted_power <= Power::watts(1800.0 + 1e-6),
            "concurrent grants exceed the budget"
        );
    }

    #[test]
    fn later_arrivals_wait_for_capacity() {
        let mut cluster = Cluster::homogeneous(2);
        // Two all-machine jobs back to back: the second must queue.
        let jobs = vec![
            QueuedJob {
                app: suite::comd(),
                arrival: TimeSpan::ZERO,
                iterations: 4,
            },
            QueuedJob {
                app: suite::mini_md(),
                arrival: TimeSpan::secs(0.1),
                iterations: 2,
            },
        ];
        let report = dispatcher(520.0).run(&mut cluster, &jobs, &mut clip_obs::NoopRecorder);
        let second = report
            .outcomes
            .iter()
            .find(|o| o.job == "miniMD")
            .expect("ran");
        // CoMD takes both nodes (preferred counts 1,2); miniMD waits.
        assert!(second.wait() > TimeSpan::ZERO, "second job must queue");
    }

    #[test]
    fn turnaround_stats_consistent() {
        let mut cluster = Cluster::homogeneous(8);
        let jobs = batch(vec![suite::comd(), suite::tea_leaf(), suite::lu_mz()]);
        let report = dispatcher(1400.0).run(&mut cluster, &jobs, &mut clip_obs::NoopRecorder);
        for o in &report.outcomes {
            assert!(o.finish >= o.start);
            assert!(o.start >= o.arrival);
            assert!(o.turnaround() >= o.wait());
            assert!(o.finish <= report.makespan + TimeSpan::secs(1e-9));
        }
        assert!(report.mean_turnaround() >= report.mean_wait());
    }

    #[test]
    fn arrival_order_enforced() {
        let mut cluster = Cluster::homogeneous(4);
        let jobs = vec![
            QueuedJob {
                app: suite::comd(),
                arrival: TimeSpan::secs(5.0),
                iterations: 1,
            },
            QueuedJob {
                app: suite::amg(),
                arrival: TimeSpan::ZERO,
                iterations: 1,
            },
        ];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dispatcher(1000.0).run(&mut cluster, &jobs, &mut clip_obs::NoopRecorder)
        }));
        assert!(result.is_err(), "unsorted arrivals must be rejected");
    }
}
