//! Bulk-synchronous MPI-style job execution.
//!
//! A job runs one MPI rank per participating node; each rank executes the
//! strong-scaled application with the node's OpenMP thread count and
//! affinity under that node's RAPL caps. Ranks synchronize every iteration
//! (halo exchange / collective), so:
//!
//! ```text
//! t_iter = max_i t_node_i + t_comm(N)
//! ```
//!
//! Power accounting follows the hardware: while a fast node waits at the
//! barrier it idles (package C-state + DRAM background), so its *average*
//! power over the iteration blends busy and idle power by its wait
//! fraction. The managed cluster power CLIP budgets against is the sum of
//! the participating nodes' averages; idle (non-participating) nodes are
//! reported separately.
//!
//! [`run_job`] executes every rank, blends the ranks' reports into the
//! [`JobReport`] (the barrier blend and the totals), then emits the
//! per-rank trace events. A [`JobMemo`] keeps the last job of every app it
//! has run, each with its whole report, and replays one in place when a
//! later job repeats it: the same nodes, threads, policy, iterations,
//! per-rank workload, app name and communication model, on nodes with the
//! same caps and [`PowerState`]. Only the RAPL accounting runs again, into
//! the stored report, so the report, the trace and every counter are what
//! executing would give.

use crate::fleet::Cluster;
use serde::{Deserialize, Serialize};
use simkit::{Power, TimeSpan};
use simnode::{AffinityPolicy, ExecutionReport, PowerCaps, PowerState};
use std::borrow::Cow;
use std::sync::Arc;
use workload::{AppModel, CommModel, Phase, RankInputs};

/// What to run and how.
#[derive(Debug, Clone)]
pub struct JobSpec<'a> {
    /// The (unscaled) application.
    pub app: &'a AppModel,
    /// Indices of the participating nodes. Borrowed in the engine's
    /// per-epoch dispatch (the plan already owns the ids, and a copy
    /// would allocate every epoch); owned when the caller builds an
    /// ad-hoc set.
    pub node_ids: Cow<'a, [usize]>,
    /// OpenMP threads per node.
    pub threads_per_node: usize,
    /// Thread affinity policy on every node.
    pub policy: AffinityPolicy,
    /// Iterations to execute.
    pub iterations: usize,
}

impl<'a> JobSpec<'a> {
    /// Run on the first `nodes` nodes of the cluster.
    pub fn on_first_nodes(
        app: &'a AppModel,
        nodes: usize,
        threads_per_node: usize,
        policy: AffinityPolicy,
        iterations: usize,
    ) -> Self {
        Self {
            app,
            node_ids: Cow::Owned((0..nodes).collect()),
            threads_per_node,
            policy,
            iterations,
        }
    }
}

/// Per-node outcome within a job.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct NodeOutcome {
    /// Cluster index of the node.
    pub node_id: usize,
    /// The node-local execution report (busy time only).
    pub report: ExecutionReport,
    /// Fraction of each iteration this node spent waiting at the barrier.
    pub wait_fraction: f64,
    /// Barrier-blended average power of this node over the iteration.
    pub avg_power: Power,
}

/// Outcome of a cluster job.
#[must_use = "a job report carries the measured power and performance"]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobReport {
    /// Application name, shared with the [`AppModel`] that ran.
    pub app_name: Arc<str>,
    /// Participating node count.
    pub nodes_used: usize,
    /// Threads per node.
    pub threads_per_node: usize,
    /// Iterations executed.
    pub iterations: usize,
    /// Synchronized per-iteration time (slowest rank + communication).
    pub iteration_time: TimeSpan,
    /// Communication time per iteration.
    pub comm_time: TimeSpan,
    /// Total wall time.
    pub total_time: TimeSpan,
    /// Managed cluster power: sum of participating nodes' blended averages.
    pub cluster_power: Power,
    /// The highest single-node blended average power.
    pub max_node_power: Power,
    /// Per-node outcomes.
    pub per_node: Vec<NodeOutcome>,
}

impl JobReport {
    /// Performance as iterations per second (the paper's cluster `perf`).
    pub fn performance(&self) -> f64 {
        self.iterations as f64 / self.total_time.as_secs()
    }

    /// Managed energy consumed by the job (participating nodes, CPU+DRAM).
    pub fn energy(&self) -> simkit::Energy {
        self.cluster_power * self.total_time
    }

    /// Energy per iteration, joules — the power-efficiency metric of the
    /// paper's first contribution claim ("improves both performance and
    /// power efficiency").
    pub fn energy_per_iteration(&self) -> f64 {
        self.energy().as_joules() / self.iterations as f64
    }

    /// Energy-delay product per iteration (J·s): lower is better on both
    /// axes at once.
    pub fn edp_per_iteration(&self) -> f64 {
        self.energy_per_iteration() * self.iteration_time.as_secs()
    }

    /// Barrier imbalance: `(t_max − t_min) / t_max` over participating
    /// nodes' busy times. Zero on a perfectly balanced fleet.
    pub fn imbalance(&self) -> f64 {
        let times: Vec<f64> = self
            .per_node
            .iter()
            .map(|n| n.report.total_time.as_secs())
            .collect();
        let max = times.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = times.iter().copied().fold(f64::INFINITY, f64::min);
        if max > 0.0 {
            (max - min) / max
        } else {
            0.0
        }
    }
}

/// Panic on an empty node set, zero iterations, or a node that is out of
/// range or has crashed.
fn check_spec(cluster: &Cluster, spec: &JobSpec<'_>) {
    assert!(!spec.node_ids.is_empty(), "job needs at least one node");
    assert!(spec.iterations > 0, "job needs at least one iteration");
    for &id in spec.node_ids.iter() {
        assert!(id < cluster.len(), "node {id} out of range");
        assert!(cluster.is_alive(id), "node {id} has crashed");
    }
}

/// The communication term the ranks add on top of the slowest one's busy
/// time: the time per iteration, and that time over every iteration.
fn communication(spec: &JobSpec<'_>) -> (TimeSpan, TimeSpan) {
    let comm_per_iter = TimeSpan::secs(spec.app.comm().time_secs(spec.node_ids.len()));
    (comm_per_iter, comm_per_iter * spec.iterations as f64)
}

/// The wall time of a job, exactly [`run_job`]'s `total_time`, from the
/// timing half of each rank's execution ([`simnode::Node::time_iteration`]):
/// no power or energy accounting, no per-node report, and nothing written
/// to the cluster. Panics where [`run_job`] does. This is
/// [`job_time_below`] with no bound (a job too long for an `f64` reads ∞).
pub fn job_time(cluster: &Cluster, spec: &JobSpec<'_>) -> TimeSpan {
    let unbounded = TimeSpan::secs(f64::INFINITY);
    job_time_below(cluster, spec, unbounded).unwrap_or(unbounded)
}

/// The wall time of a job if it is below `bound`, exactly [`job_time`]'s;
/// `None` as soon as a rank proves it is not. The ranks are timed in
/// `spec.node_ids` order, and after each one the slowest busy time so far
/// plus the communication term is checked against `bound`.
///
/// Stopping early is exact. A partial maximum is at most the full one, and
/// floating-point addition is monotone, so once that sum reaches `bound`
/// the job's time `T` does too. A search that keeps a candidate only when
/// `iterations / T` strictly beats an incumbent timed at `bound` would
/// reject it anyway: division is monotone as well, so `T ≥ bound` gives
/// `iterations / T ≤ iterations / bound`.
///
/// Runs [`run_job`]'s spec checks first, so it panics where [`run_job`]
/// does, whatever the bound; every rank it times is checked for a positive
/// and finite iteration time.
pub fn job_time_below(cluster: &Cluster, spec: &JobSpec<'_>, bound: TimeSpan) -> Option<TimeSpan> {
    check_spec(cluster, spec);
    ranks_time_below(cluster, spec, &spec.node_ids, bound)
}

/// The first rank's busy time plus the communication term if that is
/// below `bound`, else `None`: [`job_time_below`] stopped after its first
/// rank, so `None` here gives `None` there at the same bound.
///
/// One timing can bound several jobs. A rank's time never decreases when
/// a cap shrinks ([`simnode::Node::time_iteration`]), so with the first
/// participant capped at the componentwise maximum of several jobs' caps,
/// `None` proves that [`job_time_below`] returns `None` for every one of
/// them that shares this spec. Runs [`run_job`]'s spec checks first.
pub fn first_rank_time_below(
    cluster: &Cluster,
    spec: &JobSpec<'_>,
    bound: TimeSpan,
) -> Option<TimeSpan> {
    check_spec(cluster, spec);
    let first = spec.node_ids.get(..1).unwrap_or_default();
    ranks_time_below(cluster, spec, first, bound)
}

/// The slowest busy time among `ranks`, participants of `spec`, plus the
/// communication term, if that is below `bound`; `None` as soon as a rank
/// proves it is not.
fn ranks_time_below(
    cluster: &Cluster,
    spec: &JobSpec<'_>,
    ranks: &[usize],
    bound: TimeSpan,
) -> Option<TimeSpan> {
    let rank = spec.app.per_rank(spec.node_ids.len());
    let (_, comm_total) = communication(spec);
    let mut busy_max = TimeSpan::ZERO;
    for &id in ranks {
        let (_, iter_time) =
            cluster
                .node(id)
                .time_iteration(&rank, spec.threads_per_node, spec.policy);
        busy_max = busy_max.max(iter_time * spec.iterations as f64);
        if busy_max + comm_total >= bound {
            return None;
        }
    }
    Some(busy_max + comm_total)
}

/// Execute a job on the cluster: every rank's timing and its power and
/// energy accounting. Panics on an empty node set, a node index out of
/// range, a crashed node, or zero iterations.
///
/// Generic over the telemetry recorder: every rank's resolved operating
/// point is emitted as a [`clip_obs::TraceEvent::DvfsResolved`], and after
/// barrier blending each participant contributes a
/// [`clip_obs::TraceEvent::NodePowerSample`] pairing its programmed cap
/// (setpoint) with its blended measured power, plus a `node_wait_fraction`
/// histogram observation. With the [`clip_obs::NoopRecorder`] every hook
/// compiles away.
pub fn run_job<R: clip_obs::Recorder>(
    cluster: &mut Cluster,
    spec: &JobSpec<'_>,
    epoch: u64,
    rec: &mut R,
) -> JobReport {
    check_spec(cluster, spec);
    let report = execute_ranks(cluster, spec, Vec::new());
    emit_rank_frames(cluster, &report, epoch, rec);
    report
}

/// [`run_job`] between its spec checks and its frames: execute every rank
/// under its own node's caps, blend busy and barrier-wait power, and sum
/// the totals. The outcomes are written into `per_node`, cleared first, so
/// a caller can hand back a spent report's buffer.
fn execute_ranks(
    cluster: &mut Cluster,
    spec: &JobSpec<'_>,
    mut per_node: Vec<NodeOutcome>,
) -> JobReport {
    let rank = spec.app.per_rank(spec.node_ids.len());
    // Each rank's report; the barrier blend below fills in each outcome's
    // wait fraction and average power.
    per_node.clear();
    per_node.extend(spec.node_ids.iter().map(|&id| NodeOutcome {
        node_id: id,
        report: cluster.node_mut(id).execute(
            &rank,
            spec.threads_per_node,
            spec.policy,
            spec.iterations,
        ),
        wait_fraction: 0.0,
        avg_power: Power::ZERO,
    }));

    let busy_max = per_node
        .iter()
        .map(|n| n.report.total_time)
        .fold(TimeSpan::ZERO, TimeSpan::max);
    let (comm_per_iter, comm_total) = communication(spec);
    let total_time = busy_max + comm_total;
    let iteration_time = total_time / spec.iterations as f64;

    // Blend busy and wait power per node.
    for n in &mut per_node {
        let busy_frac = if total_time.as_secs() > 0.0 {
            (n.report.total_time / total_time).clamp(0.0, 1.0)
        } else {
            1.0
        };
        let pm = cluster.node(n.node_id).power_model();
        let sockets = cluster.node(n.node_id).topology().sockets() as f64;
        let idle_power = (pm.socket_idle + pm.dram_base) * sockets * pm.efficiency;
        let busy_power = n.report.avg_total_power();
        n.avg_power = busy_power * busy_frac + idle_power * (1.0 - busy_frac);
        n.wait_fraction = 1.0 - busy_frac;
    }

    let cluster_power: Power = per_node.iter().map(|n| n.avg_power).sum();
    let max_node_power = per_node
        .iter()
        .map(|n| n.avg_power)
        .fold(Power::ZERO, Power::max);

    JobReport {
        app_name: Arc::clone(spec.app.shared_name()),
        nodes_used: spec.node_ids.len(),
        threads_per_node: spec.threads_per_node,
        iterations: spec.iterations,
        iteration_time,
        comm_time: comm_per_iter,
        total_time,
        cluster_power,
        max_node_power,
        per_node,
    }
}

/// Emit a finished job's per-rank frames, in rank order: each rank's
/// `DvfsResolved`, then each rank's `NodePowerSample` (its programmed
/// caps, read off the node, against its blended power) and its
/// `node_wait_fraction` observation. [`run_job`] calls it after the
/// barrier blend and a [`JobMemo`] hit on its replayed report, so both
/// emit the same frames.
fn emit_rank_frames<R: clip_obs::Recorder>(
    cluster: &Cluster,
    report: &JobReport,
    epoch: u64,
    rec: &mut R,
) {
    if rec.enabled_for(clip_obs::EventClass::Actuation) {
        for n in &report.per_node {
            let op = &n.report.op;
            rec.event_with(epoch, clip_obs::EventClass::Actuation, || {
                clip_obs::TraceEvent::DvfsResolved {
                    node: n.node_id,
                    threads: op.threads(),
                    frequency: op.frequency(),
                    throttled: op.speed.is_throttled(),
                }
            });
        }
    }
    if rec.enabled() {
        for n in &report.per_node {
            let caps = cluster.node(n.node_id).caps();
            rec.event_with(epoch, clip_obs::EventClass::Actuation, || {
                clip_obs::TraceEvent::NodePowerSample {
                    node: n.node_id,
                    setpoint: caps.cpu + caps.dram,
                    measured: n.avg_power,
                    wait_fraction: n.wait_fraction,
                }
            });
            rec.observe("node_wait_fraction", n.wait_fraction);
        }
    }
}

/// The scalar half of a [`JobMemo`]'s key.
#[derive(Debug, Clone, PartialEq)]
struct JobShape {
    threads_per_node: usize,
    policy: AffinityPolicy,
    iterations: usize,
    odd_penalty: f64,
    comm: CommModel,
}

impl JobShape {
    fn of(spec: &JobSpec<'_>, inputs: &RankInputs<'_>) -> Self {
        Self {
            threads_per_node: spec.threads_per_node,
            policy: spec.policy,
            iterations: spec.iterations,
            odd_penalty: inputs.odd_penalty(),
            comm: spec.app.comm().clone(),
        }
    }
}

/// One rank of a memoized job: its node and what the node's execution
/// read from it.
#[derive(Debug, Clone, Copy)]
struct RankMemo {
    node_id: usize,
    caps: PowerCaps,
    state: PowerState,
}

/// One app's memoized job: the key its report was built under, and the
/// report. Empty until a job has run into it.
#[derive(Debug, Default)]
struct MemoEntry {
    shape: Option<JobShape>,
    phases: Vec<Phase>,
    ranks: Vec<RankMemo>,
    report: Option<JobReport>,
}

impl MemoEntry {
    /// Whether `spec` on `cluster`, as its nodes now stand, is this
    /// entry's job: the key matches and the report is there.
    fn matches(&self, cluster: &Cluster, spec: &JobSpec<'_>) -> bool {
        let inputs = spec.app.rank_inputs();
        self.shape == Some(JobShape::of(spec, &inputs))
            && self.is_app(spec.app.name())
            && self.phases.iter().eq(inputs.phases())
            && self.ranks.len() == spec.node_ids.len()
            && self
                .ranks
                .iter()
                .zip(spec.node_ids.iter())
                .all(|(rank, &id)| {
                    let node = cluster.node(id);
                    rank.node_id == id
                        && rank.caps == node.caps()
                        && rank.state == node.power_state()
                })
    }

    /// Whether this entry holds a report of the app named `name`.
    fn is_app(&self, name: &str) -> bool {
        self.report.as_ref().is_some_and(|r| *r.app_name == *name)
    }

    /// Refill the key from `spec` and its nodes as they now stand.
    fn remember(&mut self, cluster: &Cluster, spec: &JobSpec<'_>) {
        let inputs = spec.app.rank_inputs();
        self.shape = Some(JobShape::of(spec, &inputs));
        self.phases.clear();
        self.phases.extend_from_slice(inputs.phases());
        self.ranks.clear();
        self.ranks.extend(spec.node_ids.iter().map(|&id| {
            let node = cluster.node(id);
            RankMemo {
                node_id: id,
                caps: node.caps(),
                state: node.power_state(),
            }
        }));
    }
}

/// The last job of every app run through the memo, each kept with its
/// whole [`JobReport`], so that a job repeating one is replayed in place
/// instead of simulated again.
///
/// An entry's key is every input its report reads: the node ids in order,
/// threads, policy and iterations; each participant's programmed caps and
/// [`PowerState`]; the app's [`RankInputs`] (its phases and
/// odd-concurrency penalty); and the app's name and communication model.
/// A *hit* (the key matches) re-accounts each rank's interval through its
/// node's RAPL counters ([`simnode::Node::replay`]) into the stored report
/// and emits the frames [`run_job`] would. Nothing else is rebuilt: with
/// the key equal, only each rank's `pkg_energy` and `dram_energy` can
/// differ from the stored report, and both are read off the node's
/// counters as they stand now, whatever ran on it since the entry was
/// stored. That rests on what [`PowerState`] documents: the barrier
/// blend's other inputs (a node's idle socket and DRAM base power, its
/// socket count) are fixed when the node is built. A *miss* runs the job
/// as [`run_job`] does, into the app's entry, and its report replaces the
/// stored one. Floats in the key compare with `==`, so a NaN input never
/// hits.
///
/// The entry of the last job's app is *current*, and a job is checked
/// against it first, as a memo of one job would check it. Only when that
/// misses and the job runs another app is that app's entry looked up:
/// it becomes current (an empty entry does, for an app the memo has not
/// run) and the one it replaces is *parked*, and the job is checked
/// again. The memo holds one entry per distinct app name it has run, and
/// a memo that only ever runs one app parks nothing and allocates no list.
#[derive(Debug, Default)]
pub struct JobMemo {
    current: MemoEntry,
    parked: Vec<MemoEntry>,
}

impl JobMemo {
    /// Run `spec` as [`run_job`] does, replaying its app's last job in
    /// place when the key matches, and return the report the memo now
    /// holds. The report, trace events and RAPL counters are bit-identical
    /// to [`run_job`]'s either way, and it panics where [`run_job`] does,
    /// hit or miss.
    pub fn run_or_replay<R: clip_obs::Recorder>(
        &mut self,
        cluster: &mut Cluster,
        spec: &JobSpec<'_>,
        epoch: u64,
        rec: &mut R,
    ) -> &JobReport {
        check_spec(cluster, spec);
        let hit = self.current.matches(cluster, spec) || self.switch_app(cluster, spec);
        let current = &mut self.current;
        let report = match current.report.take() {
            Some(mut last) if hit => {
                for n in &mut last.per_node {
                    n.report = cluster.node_mut(n.node_id).replay(&n.report);
                }
                last
            }
            last => {
                let spent = last.map(|r| r.per_node).unwrap_or_default();
                let report = execute_ranks(cluster, spec, spent);
                current.remember(cluster, spec);
                report
            }
        };
        emit_rank_frames(cluster, &report, epoch, rec);
        current.report.insert(report)
    }

    /// The report of the last job run through the memo, if any.
    pub fn last(&self) -> Option<&JobReport> {
        self.current.report.as_ref()
    }

    /// Whether running `spec` on `cluster` now would replay a memoized
    /// job. Runs [`run_job`]'s spec checks first, so it panics where
    /// [`run_job`] does.
    pub fn replays(&self, cluster: &Cluster, spec: &JobSpec<'_>) -> bool {
        check_spec(cluster, spec);
        self.current.matches(cluster, spec) || self.parked.iter().any(|e| e.matches(cluster, spec))
    }

    /// After the current entry missed: when `spec` runs another app, make
    /// that app's entry current (an empty one if the memo has none) and
    /// park the one it replaces, then say whether the new current entry
    /// matches. An entry that holds no report is dropped, not parked.
    fn switch_app(&mut self, cluster: &Cluster, spec: &JobSpec<'_>) -> bool {
        let name = spec.app.name();
        if self.current.is_app(name) {
            return false;
        }
        let entry = match self.parked.iter().position(|e| e.is_app(name)) {
            Some(at) => self.parked.swap_remove(at),
            None => MemoEntry::default(),
        };
        let previous = std::mem::replace(&mut self.current, entry);
        if previous.report.is_some() {
            self.parked.push(previous);
        }
        self.current.matches(cluster, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variability::VariabilityModel;
    use simnode::PowerCaps;
    use workload::suite;

    /// Untraced shorthand: these tests exercise job mechanics, not telemetry.
    fn run_job(cluster: &mut Cluster, spec: &JobSpec<'_>) -> JobReport {
        super::run_job(cluster, spec, 0, &mut clip_obs::NoopRecorder)
    }

    #[test]
    fn single_node_job_matches_node_execution() {
        let mut cluster = Cluster::homogeneous(4);
        let app = suite::comd();
        let spec = JobSpec::on_first_nodes(&app, 1, 24, AffinityPolicy::Compact, 2);
        let job = run_job(&mut cluster, &spec);
        assert_eq!(job.nodes_used, 1);
        assert_eq!(job.comm_time, TimeSpan::ZERO);
        assert_eq!(job.per_node.len(), 1);
        assert!(job.performance() > 0.0);
    }

    #[test]
    fn more_nodes_speed_up_scalable_apps() {
        let mut cluster = Cluster::homogeneous(8);
        let app = suite::comd();
        let p1 = run_job(
            &mut cluster,
            &JobSpec::on_first_nodes(&app, 1, 24, AffinityPolicy::Compact, 1),
        )
        .performance();
        let p8 = run_job(
            &mut cluster,
            &JobSpec::on_first_nodes(&app, 8, 24, AffinityPolicy::Compact, 1),
        )
        .performance();
        assert!(p8 > 4.0 * p1, "8-node speedup {:.2}", p8 / p1);
    }

    #[test]
    fn communication_grows_with_node_count() {
        let mut cluster = Cluster::homogeneous(8);
        let app = suite::amg();
        let j2 = run_job(
            &mut cluster,
            &JobSpec::on_first_nodes(&app, 2, 24, AffinityPolicy::Scatter, 1),
        );
        let j8 = run_job(
            &mut cluster,
            &JobSpec::on_first_nodes(&app, 8, 24, AffinityPolicy::Scatter, 1),
        );
        assert!(j8.comm_time > j2.comm_time);
    }

    #[test]
    fn homogeneous_fleet_has_no_imbalance() {
        let mut cluster = Cluster::homogeneous(4);
        let app = suite::comd();
        let job = run_job(
            &mut cluster,
            &JobSpec::on_first_nodes(&app, 4, 24, AffinityPolicy::Compact, 1),
        );
        assert!(job.imbalance() < 1e-12);
        // Identical nodes wait only for communication, and equally so.
        let w0 = job.per_node[0].wait_fraction;
        assert!(job
            .per_node
            .iter()
            .all(|n| (n.wait_fraction - w0).abs() < 1e-12));
        let comm_share = job.comm_time.as_secs() * job.iterations as f64 / job.total_time.as_secs();
        assert!((w0 - comm_share).abs() < 1e-9);
    }

    #[test]
    fn variability_under_uniform_caps_creates_waits() {
        let mut cluster = Cluster::with_variability(4, &VariabilityModel::with_sigma(0.08), 3);
        cluster.set_uniform_caps(PowerCaps::new(Power::watts(160.0), Power::watts(40.0)));
        let app = suite::comd();
        let job = run_job(
            &mut cluster,
            &JobSpec::on_first_nodes(&app, 4, 24, AffinityPolicy::Compact, 1),
        );
        assert!(job.imbalance() > 0.0, "imbalance {}", job.imbalance());
        let waiting = job
            .per_node
            .iter()
            .filter(|n| n.wait_fraction > 1e-6)
            .count();
        assert!(waiting >= 1, "some node must wait at the barrier");
    }

    #[test]
    fn cluster_power_sums_participants() {
        let mut cluster = Cluster::homogeneous(8);
        let app = suite::lu_mz();
        let job = run_job(
            &mut cluster,
            &JobSpec::on_first_nodes(&app, 3, 24, AffinityPolicy::Scatter, 1),
        );
        let sum: Power = job.per_node.iter().map(|n| n.avg_power).sum();
        assert!((job.cluster_power.as_watts() - sum.as_watts()).abs() < 1e-9);
        assert!(job.max_node_power <= job.cluster_power);
    }

    #[test]
    fn waiting_node_power_below_busy_power() {
        let mut cluster = Cluster::with_variability(2, &VariabilityModel::with_sigma(0.10), 11);
        cluster.set_uniform_caps(PowerCaps::new(Power::watts(150.0), Power::watts(40.0)));
        let app = suite::comd();
        let job = run_job(
            &mut cluster,
            &JobSpec::on_first_nodes(&app, 2, 24, AffinityPolicy::Compact, 1),
        );
        for n in &job.per_node {
            if n.wait_fraction > 1e-6 {
                assert!(n.avg_power < n.report.avg_total_power());
            }
        }
    }

    #[test]
    fn explicit_node_ids_respected() {
        let mut cluster = Cluster::homogeneous(4);
        let app = suite::mini_md();
        let spec = JobSpec {
            app: &app,
            node_ids: vec![1, 3].into(),
            threads_per_node: 12,
            policy: AffinityPolicy::Compact,
            iterations: 1,
        };
        let job = run_job(&mut cluster, &spec);
        let ids: Vec<usize> = job.per_node.iter().map(|n| n.node_id).collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_node_id_rejected() {
        let mut cluster = Cluster::homogeneous(2);
        let app = suite::comd();
        let spec = JobSpec {
            app: &app,
            node_ids: vec![5].into(),
            threads_per_node: 4,
            policy: AffinityPolicy::Compact,
            iterations: 1,
        };
        let _ = run_job(&mut cluster, &spec);
    }

    #[test]
    #[should_panic(expected = "has crashed")]
    fn crashed_node_cannot_run_jobs() {
        let mut cluster = Cluster::homogeneous(3);
        cluster.fail_node(1);
        let app = suite::comd();
        let spec = JobSpec {
            app: &app,
            node_ids: vec![0, 1].into(),
            threads_per_node: 4,
            policy: AffinityPolicy::Compact,
            iterations: 1,
        };
        let _ = run_job(&mut cluster, &spec);
    }

    /// Every rank of `cluster` capped at `caps`, with the actuation error
    /// `jitter` injected on even nodes and `-jitter` on odd ones.
    fn capped(mut cluster: Cluster, caps: PowerCaps, jitter: f64) -> Cluster {
        cluster.set_uniform_caps(caps);
        for id in 0..cluster.len() {
            let sign = if id % 2 == 0 { 1.0 } else { -1.0 };
            cluster.node_mut(id).set_cap_jitter(sign * jitter);
        }
        cluster
    }

    /// `job_time_below` at bounds around and far from the job's time `T`:
    /// `Some` exactly when `T < bound`, with `job_time`'s bits. And
    /// `first_rank_time_below` likewise around the first rank's busy time
    /// plus the report's communication term, which is at most `T`.
    fn assert_bounded_time_agrees(
        cluster: &Cluster,
        spec: &JobSpec<'_>,
        report: &JobReport,
        case: &str,
    ) {
        let total = report.total_time.as_secs();
        let first_rank = report.per_node[0].report.total_time;
        let lead = (first_rank + report.comm_time * spec.iterations as f64).as_secs();
        assert!(lead <= total, "{case}: first rank {lead:e} over {total:e}");
        for bound in [
            f64::INFINITY,
            total.next_up(),
            total,
            total.next_down(),
            first_rank.as_secs(),
            lead.next_up(),
            lead,
            0.0,
        ] {
            let below = job_time_below(cluster, spec, TimeSpan::secs(bound));
            assert_eq!(
                below.map(|t| t.as_secs().to_bits()),
                (total < bound).then_some(total.to_bits()),
                "{case}, bound {bound:e}"
            );
            let first = first_rank_time_below(cluster, spec, TimeSpan::secs(bound));
            assert_eq!(
                first.map(|t| t.as_secs().to_bits()),
                (lead < bound).then_some(lead.to_bits()),
                "{case}, first rank, bound {bound:e}"
            );
        }
    }

    #[test]
    fn job_time_is_run_jobs_total_time_bit_for_bit() {
        let testbed = Cluster::paper_testbed(2017);
        let cap_cases = [
            PowerCaps::unlimited(),
            PowerCaps::new(Power::watts(110.0), Power::watts(20.0)),
            PowerCaps::new(Power::watts(40.0), Power::watts(8.0)),
        ];
        let mut throttled = 0;
        for (caps, jitter) in cap_cases.iter().flat_map(|&c| [(c, 0.0), (c, 0.08)]) {
            let cluster = capped(testbed.clone(), caps, jitter);
            for entry in suite::table2_suite() {
                for nodes in [1, 3, 8] {
                    for threads in [1, 2, 11, 24] {
                        for policy in AffinityPolicy::ALL {
                            let spec = JobSpec {
                                app: &entry.app,
                                // Skip node 0 where the set allows it, so
                                // ids and positions differ.
                                node_ids: (8 - nodes..8).collect::<Vec<_>>().into(),
                                threads_per_node: threads,
                                policy,
                                iterations: 3,
                            };
                            let timed = job_time(&cluster, &spec);
                            let report = run_job(&mut cluster.clone(), &spec);
                            let case = format!(
                                "{} on {nodes} x {threads} {policy}, {caps:?}, jitter {jitter}",
                                entry.app.name()
                            );
                            assert_eq!(
                                timed.as_secs().to_bits(),
                                report.total_time.as_secs().to_bits(),
                                "{case}"
                            );
                            assert_bounded_time_agrees(&cluster, &spec, &report, &case);
                            throttled += report
                                .per_node
                                .iter()
                                .filter(|n| n.report.op.speed.is_throttled())
                                .count();
                        }
                    }
                }
            }
        }
        assert!(throttled > 0, "the grid must reach duty-cycle throttling");
    }

    /// The message of a caught panic.
    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(msg) => *msg,
            Err(payload) => payload
                .downcast::<&str>()
                .map(|msg| msg.to_string())
                .unwrap_or_default(),
        }
    }

    #[test]
    fn job_time_panics_where_run_job_does() {
        let mut cluster = Cluster::homogeneous(3);
        cluster.fail_node(1);
        let app = suite::comd();
        for (ids, expected) in [
            (vec![], "at least one node"),
            (vec![0, 5], "node 5 out of range"),
            (vec![0, 1], "node 1 has crashed"),
        ] {
            let spec = JobSpec {
                app: &app,
                node_ids: ids.into(),
                threads_per_node: 4,
                policy: AffinityPolicy::Compact,
                iterations: 1,
            };
            let timed = std::panic::catch_unwind(|| job_time(&cluster, &spec));
            let bounded =
                std::panic::catch_unwind(|| job_time_below(&cluster, &spec, TimeSpan::ZERO));
            let first =
                std::panic::catch_unwind(|| first_rank_time_below(&cluster, &spec, TimeSpan::ZERO));
            let run = std::panic::catch_unwind(|| run_job(&mut cluster.clone(), &spec));
            for (what, outcome) in [
                ("job_time", timed.map(|_| ())),
                ("job_time_below", bounded.map(|_| ())),
                ("first_rank_time_below", first.map(|_| ())),
                ("run_job", run.map(|_| ())),
            ] {
                let msg = outcome.err().map(panic_message);
                assert!(
                    msg.as_deref().is_some_and(|m| m.contains(expected)),
                    "{what} on {:?}: expected a panic with {expected:?}, got {msg:?}",
                    spec.node_ids
                );
            }
        }
    }

    /// A memo that only ever runs one app keeps one entry through misses
    /// (new caps, another node set) and hits alike: it parks nothing and
    /// allocates no list.
    #[test]
    fn a_memo_of_one_app_parks_nothing() {
        let mut cluster = Cluster::paper_testbed(5);
        let app = suite::comd();
        let mut memo = JobMemo::default();
        let mut replays = Vec::new();
        for (nodes, cpu) in [(4, 150.0), (4, 150.0), (4, 120.0), (6, 120.0), (6, 120.0)] {
            cluster.set_uniform_caps(PowerCaps::new(Power::watts(cpu), Power::watts(30.0)));
            let spec = JobSpec::on_first_nodes(&app, nodes, 24, AffinityPolicy::Compact, 2);
            replays.push(memo.replays(&cluster, &spec));
            let _ = memo.run_or_replay(&mut cluster, &spec, 0, &mut clip_obs::NoopRecorder);
            assert_eq!(memo.parked.capacity(), 0, "after {nodes} nodes at {cpu} W");
        }
        assert_eq!(replays, [false, true, false, false, true]);
    }

    #[test]
    fn energy_metrics_consistent() {
        let mut cluster = Cluster::homogeneous(4);
        let app = suite::amg();
        let job = run_job(
            &mut cluster,
            &JobSpec::on_first_nodes(&app, 4, 24, AffinityPolicy::Scatter, 5),
        );
        let e = job.energy().as_joules();
        assert!((e - job.cluster_power.as_watts() * job.total_time.as_secs()).abs() < 1e-6);
        assert!((job.energy_per_iteration() - e / 5.0).abs() < 1e-9);
        assert!(
            (job.edp_per_iteration() - job.energy_per_iteration() * job.iteration_time.as_secs())
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn slower_run_costs_more_energy_per_iteration_when_power_static() {
        // Capping CPU power saves watts but stretches time; with a large
        // static share, energy per iteration worsens for compute apps —
        // the effect the paper's efficiency claim is about.
        let app = suite::comd();
        let mut fast = Cluster::homogeneous(1);
        let jf = run_job(
            &mut fast,
            &JobSpec::on_first_nodes(&app, 1, 24, AffinityPolicy::Compact, 1),
        );
        let mut slow = Cluster::homogeneous(1);
        slow.set_uniform_caps(PowerCaps::new(Power::watts(90.0), Power::watts(30.0)));
        let js = run_job(
            &mut slow,
            &JobSpec::on_first_nodes(&app, 1, 24, AffinityPolicy::Compact, 1),
        );
        assert!(js.performance() < jf.performance());
        assert!(js.edp_per_iteration() > jf.edp_per_iteration());
    }

    #[test]
    fn parabolic_app_cluster_scaling_reflects_node_behaviour() {
        // Strong-scaling a parabolic app: per-node work shrinks, so the
        // per-node contention optimum shifts — the job still completes and
        // reports sane numbers.
        let mut cluster = Cluster::homogeneous(8);
        let app = suite::sp_mz();
        let job = run_job(
            &mut cluster,
            &JobSpec::on_first_nodes(&app, 8, 12, AffinityPolicy::Scatter, 2),
        );
        assert!(job.performance() > 0.0);
        assert!(job.iteration_time.as_secs() > 0.0);
    }
}
