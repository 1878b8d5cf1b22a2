//! The simulated node: caps in, operating point and measurements out.
//!
//! [`Node`] wires topology, DVFS, the power model, the memory subsystem and
//! the RAPL controller together. Executing a workload proceeds exactly as on
//! the paper's testbed:
//!
//! 1. Threads are pinned according to the affinity policy → per-socket
//!    occupancy and the NUMA remote-access fraction.
//! 2. The package cap is enforced: the highest P-state that fits, else
//!    duty-cycling ([`PowerModel::max_speed_under_cap`]).
//! 3. The DRAM cap converts into a bandwidth ceiling, combined with the
//!    topology/NUMA limits ([`MemorySubsystem::effective_ceiling`]).
//! 4. The workload model turns the resulting [`OperatingPoint`] into a
//!    per-iteration wall time; powers, energies and PMU counters follow.
//!
//! Applications plug in via [`NodeWorkload`], implemented by the `workload`
//! crate.
//!
//! An execution depends on the node only through its programmed caps and
//! its [`PowerState`]; everything else about a node is fixed when it is
//! built. So a run that repeats the node's last one, under the same caps
//! and state, can be *replayed* ([`Node::replay`]): the report is reused
//! and only its interval is accounted through the RAPL counters again.

use crate::affinity::{AffinityPolicy, Placement};
use crate::dvfs::{EffectiveSpeed, PStateTable};
use crate::events::EventCounters;
use crate::memory::MemorySubsystem;
use crate::power::PowerModel;
use crate::rapl::{EnergyCounter, PowerCaps, RaplController};
use crate::topology::NodeTopology;
use serde::{Deserialize, Serialize};
use simkit::{Bandwidth, Energy, Frequency, Power, TimeSpan};

/// The application-side model a node can execute. Implemented by the
/// `workload` crate's analytic application models.
pub trait NodeWorkload {
    /// Human-readable benchmark name.
    fn name(&self) -> &str;

    /// Wall time of one iteration at the operating point.
    fn iteration_time(&self, op: &OperatingPoint) -> TimeSpan;

    /// DRAM traffic per iteration as `(bytes_read, bytes_written)`.
    fn traffic_per_iteration(&self, op: &OperatingPoint) -> (f64, f64);

    /// Retired instructions per iteration when run with `threads` threads.
    fn instructions_per_iteration(&self, threads: usize) -> f64;

    /// CPU activity factor in `[0, 1]` scaling dynamic core power
    /// (compute-bound ≈ 1, memory-stalled lower).
    fn cpu_activity(&self) -> f64;

    /// Fraction of memory accesses that touch data shared across threads
    /// (drives the NUMA remote-access fraction).
    fn shared_data_fraction(&self) -> f64;

    /// Instruction-cache misses per kilo-instruction.
    fn icache_mpki(&self) -> f64;

    /// Peak instantaneous DRAM bandwidth the workload demands at the
    /// operating point (the memory-phase burst rate, before the ceiling is
    /// applied). Power monitors observe this as the max of short-window
    /// bandwidth samples; RAPL DRAM caps bind against it, not against the
    /// iteration-average rate.
    fn burst_bandwidth_demand(&self, op: &OperatingPoint) -> Bandwidth;
}

/// A fully resolved execution state: placement, speed, and memory limits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// Thread-to-socket placement.
    pub placement: Placement,
    /// Resolved processor speed under the package cap.
    pub speed: EffectiveSpeed,
    /// Effective bandwidth ceiling (topology ∧ power ∧ NUMA).
    pub bw_ceiling: Bandwidth,
    /// Remote-access fraction for this placement/application pair.
    pub remote_frac: f64,
}

impl OperatingPoint {
    /// Thread count.
    pub fn threads(&self) -> usize {
        self.placement.threads()
    }

    /// Throughput-equivalent core frequency.
    pub fn frequency(&self) -> Frequency {
        self.speed.effective_frequency()
    }
}

/// Measured outcome of executing a workload for some iterations.
#[must_use = "an execution report carries the resolved operating point and measured power"]
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Iterations executed.
    pub iterations: usize,
    /// Total wall time.
    pub total_time: TimeSpan,
    /// Average package power over the run.
    pub avg_pkg_power: Power,
    /// Average DRAM power over the run.
    pub avg_dram_power: Power,
    /// Package energy (from the RAPL counter delta).
    pub pkg_energy: Energy,
    /// DRAM energy (from the RAPL counter delta).
    pub dram_energy: Energy,
    /// Synthesized PMU counters over the run.
    pub counters: EventCounters,
    /// Peak short-window DRAM bandwidth observed during the run (the
    /// memory-phase burst rate, clipped by the effective ceiling).
    pub burst_bandwidth: Bandwidth,
    /// The operating point the run executed at.
    pub op: OperatingPoint,
}

impl ExecutionReport {
    /// Performance as iterations per second (the paper's `perf`).
    pub fn performance(&self) -> f64 {
        self.iterations as f64 / self.total_time.as_secs()
    }

    /// Average total managed power (PKG + DRAM).
    pub fn avg_total_power(&self) -> Power {
        self.avg_pkg_power + self.avg_dram_power
    }
}

/// What can change about a node after it is built: the efficiency factor
/// (drift and straggle faults turn it) and the injected RAPL actuation
/// jitter. Together with the programmed caps, this is every node input an
/// execution reads.
///
/// Keys built on it rely on the rest being fixed. Topology, P-states,
/// memory and the rest of the power model are set when the node is built,
/// and neither [`Node`] nor `Cluster` has a setter for them. Replacing a
/// whole node through a `&mut Node` is outside what this state sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerState {
    /// The manufacturing-variability efficiency factor.
    pub efficiency: f64,
    /// The injected actuation-error fraction (0 = exact actuation).
    pub cap_jitter: f64,
}

/// A simulated compute node.
///
/// ```
/// use simnode::{Node, PowerCaps, AffinityPolicy};
/// use simkit::Power;
///
/// // A paper-testbed node, capped at 150 W CPU / 25 W DRAM.
/// let mut node = Node::haswell();
/// node.set_caps(PowerCaps::new(Power::watts(150.0), Power::watts(25.0)));
/// # struct K;
/// # impl simnode::NodeWorkload for K {
/// #     fn name(&self) -> &str { "k" }
/// #     fn iteration_time(&self, op: &simnode::OperatingPoint) -> simkit::TimeSpan {
/// #         simkit::TimeSpan::secs(100.0 / (op.threads() as f64 * op.frequency().as_ghz()))
/// #     }
/// #     fn traffic_per_iteration(&self, _: &simnode::OperatingPoint) -> (f64, f64) { (1e9, 1e9) }
/// #     fn instructions_per_iteration(&self, _: usize) -> f64 { 1e11 }
/// #     fn cpu_activity(&self) -> f64 { 1.0 }
/// #     fn shared_data_fraction(&self) -> f64 { 0.1 }
/// #     fn icache_mpki(&self) -> f64 { 0.5 }
/// #     fn burst_bandwidth_demand(&self, _: &simnode::OperatingPoint) -> simkit::Bandwidth {
/// #         simkit::Bandwidth::gbps(10.0)
/// #     }
/// # }
/// let report = node.execute(&K, 24, AffinityPolicy::Scatter, 3);
/// assert!(report.avg_pkg_power <= Power::watts(150.0));
/// assert!(report.performance() > 0.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Node {
    topo: NodeTopology,
    pstates: PStateTable,
    power: PowerModel,
    memory: MemorySubsystem,
    rapl: RaplController,
}

impl Node {
    /// Build a node from explicit components.
    pub fn new(
        topo: NodeTopology,
        pstates: PStateTable,
        power: PowerModel,
        memory: MemorySubsystem,
    ) -> Self {
        let rapl = RaplController::new(PowerCaps::unlimited());
        Self {
            topo,
            pstates,
            power,
            memory,
            rapl,
        }
    }

    /// The paper's testbed node: 2 × 12-core Haswell, nominal part.
    pub fn haswell() -> Self {
        Self::new(
            NodeTopology::haswell_2x12(),
            PStateTable::haswell(),
            PowerModel::haswell(),
            MemorySubsystem::haswell(),
        )
    }

    /// Node topology.
    pub fn topology(&self) -> &NodeTopology {
        &self.topo
    }

    /// P-state ladder.
    pub fn pstates(&self) -> &PStateTable {
        &self.pstates
    }

    /// Power model (read-only).
    pub fn power_model(&self) -> &PowerModel {
        &self.power
    }

    /// Memory subsystem (read-only).
    pub fn memory(&self) -> &MemorySubsystem {
        &self.memory
    }

    /// Current RAPL caps.
    pub fn caps(&self) -> PowerCaps {
        self.rapl.caps()
    }

    /// Write RAPL caps (the next resolve/execute observes them).
    pub fn set_caps(&mut self, caps: PowerCaps) {
        self.rapl.set_caps(caps);
    }

    /// The caps the controller will actually enforce: the programmed caps
    /// with any injected actuation error applied. Telemetry layers pair
    /// this with [`Node::caps`] to report setpoint vs. enforcement.
    pub fn effective_caps(&self) -> PowerCaps {
        self.rapl.effective_caps()
    }

    /// Inject a signed RAPL actuation error (see
    /// [`RaplController::set_actuation_jitter`]): subsequent executions
    /// enforce `cpu_cap × (1 + jitter)`. Zero restores exact actuation.
    pub fn set_cap_jitter(&mut self, jitter: f64) {
        self.rapl.set_actuation_jitter(jitter);
    }

    /// The currently injected actuation-error fraction.
    pub fn cap_jitter(&self) -> f64 {
        self.rapl.actuation_jitter()
    }

    /// The node's current [`PowerState`].
    pub fn power_state(&self) -> PowerState {
        PowerState {
            efficiency: self.power.efficiency,
            cap_jitter: self.cap_jitter(),
        }
    }

    /// Overwrite the manufacturing-variability efficiency factor — the
    /// fault layer uses this to model slow-node straggle and variability
    /// drift (the part ages, its power appetite changes).
    pub fn set_efficiency(&mut self, efficiency: f64) {
        assert!(efficiency > 0.0, "efficiency must be positive");
        self.power.efficiency = efficiency;
    }

    /// Raw PKG energy register (wrapping, RAPL units) — the interface a
    /// power-meter daemon polls.
    pub fn rapl_pkg_raw(&self) -> u32 {
        self.rapl.pkg_energy_raw()
    }

    /// Raw DRAM energy register (wrapping, RAPL units).
    pub fn rapl_dram_raw(&self) -> u32 {
        self.rapl.dram_energy_raw()
    }

    /// Total simulated wall time this node has accounted.
    pub fn rapl_elapsed(&self) -> simkit::TimeSpan {
        self.rapl.elapsed()
    }

    /// Resolve the operating point for a workload at `threads`/`policy`
    /// under the currently programmed caps, without executing.
    pub fn resolve<W: NodeWorkload + ?Sized>(
        &self,
        workload: &W,
        threads: usize,
        policy: AffinityPolicy,
    ) -> OperatingPoint {
        let caps = self.rapl.effective_caps();
        let placement = Placement::resolve(&self.topo, threads, policy);
        let remote_frac = placement.remote_fraction(workload.shared_data_fraction());
        let speed = self.power.max_speed_under_cap(
            &self.pstates,
            placement.active_per_socket(),
            workload.cpu_activity(),
            caps.cpu,
        );
        let power_bw = self.power.bw_ceiling(caps.dram, self.topo.sockets());
        let bw_ceiling = self
            .memory
            .effective_ceiling(&placement, power_bw, remote_frac);
        OperatingPoint {
            placement,
            speed,
            bw_ceiling,
            remote_frac,
        }
    }

    /// The timing half of [`Node::execute`]: the operating point under the
    /// programmed caps and the workload's wall time per iteration there.
    /// Reads no power and leaves the RAPL counters untouched.
    ///
    /// The time never decreases when either cap shrinks, in rounded `f64`
    /// arithmetic: the CPU cap can only lower the resolved speed
    /// ([`PowerModel::max_speed_under_cap`]), the DRAM cap only the
    /// bandwidth ceiling ([`PowerModel::bw_ceiling`],
    /// [`MemorySubsystem::effective_ceiling`]), and each phase's time is
    /// non-increasing in both. The actuation error scales the CPU cap by a
    /// positive factor, which keeps the order. The Oracle's group bound
    /// relies on this; a property test pins it.
    pub fn time_iteration<W: NodeWorkload + ?Sized>(
        &self,
        workload: &W,
        threads: usize,
        policy: AffinityPolicy,
    ) -> (OperatingPoint, TimeSpan) {
        let op = self.resolve(workload, threads, policy);
        let iter_time = workload.iteration_time(&op);
        assert!(
            iter_time.as_secs() > 0.0 && iter_time.is_finite(),
            "workload produced a non-positive iteration time"
        );
        (op, iter_time)
    }

    /// Execute `iterations` iterations of a workload and report measured
    /// time, power, energy and PMU counters: [`Node::time_iteration`]
    /// plus the power and energy accounting.
    pub fn execute<W: NodeWorkload + ?Sized>(
        &mut self,
        workload: &W,
        threads: usize,
        policy: AffinityPolicy,
        iterations: usize,
    ) -> ExecutionReport {
        assert!(iterations > 0, "execute needs at least one iteration");
        let (op, iter_time) = self.time_iteration(workload, threads, policy);
        let total_time = iter_time * iterations as f64;

        // DRAM power follows from the achieved (iteration-average)
        // bandwidth; the burst rate is what short-window monitors see.
        let (rd, wr) = workload.traffic_per_iteration(&op);
        let demand = Bandwidth::gbps((rd + wr) / 1e9 / iter_time.as_secs());
        let achieved_bw = demand.min(op.bw_ceiling);
        let burst_bandwidth = workload.burst_bandwidth_demand(&op).min(op.bw_ceiling);
        let avg_dram_power = self.power.dram_power(achieved_bw, self.topo.sockets());

        // Package power follows from the resolved speed.
        let active = op.placement.active_per_socket();
        let activity = workload.cpu_activity();
        let avg_pkg_power = match op.speed {
            EffectiveSpeed::PState(f) => self.power.pkg_power(active, f, activity),
            EffectiveSpeed::Throttled { f_min, duty } => self
                .power
                .pkg_power_throttled(active, f_min, activity, duty),
        };

        let (pkg_energy, dram_energy) = self.account(avg_pkg_power, avg_dram_power, total_time);

        let counters = EventCounters::synthesize(
            total_time,
            workload.instructions_per_iteration(threads) * iterations as f64,
            op.frequency().as_ghz(),
            threads,
            rd * iterations as f64,
            wr * iterations as f64,
            op.remote_frac,
            workload.icache_mpki(),
        );

        ExecutionReport {
            iterations,
            total_time,
            avg_pkg_power,
            avg_dram_power,
            pkg_energy,
            dram_energy,
            counters,
            burst_bandwidth,
            op,
        }
    }

    /// Repeat `last`, an earlier execution on this node, without
    /// simulating it again: the same timing, powers, PMU counters and
    /// operating point, with the interval accounted through the RAPL
    /// counters as [`Node::execute`] accounts it. The energies are the new
    /// counter deltas, which can differ from `last`'s in the last unit,
    /// since the registers count whole units.
    ///
    /// Exact only when `execute` would reproduce `last`: the same
    /// workload, threads, policy and iterations, under the same caps and
    /// [`PowerState`] as when `last` ran.
    pub fn replay(&mut self, last: &ExecutionReport) -> ExecutionReport {
        let (pkg_energy, dram_energy) =
            self.account(last.avg_pkg_power, last.avg_dram_power, last.total_time);
        ExecutionReport {
            pkg_energy,
            dram_energy,
            ..*last
        }
    }

    /// Account an interval at the given average powers through the RAPL
    /// counters, reading the energy deltas the way a real power monitor
    /// would.
    fn account(&mut self, pkg: Power, dram: Power, time: TimeSpan) -> (Energy, Energy) {
        let pkg_before = self.rapl.pkg_energy_raw();
        let dram_before = self.rapl.dram_energy_raw();
        self.rapl.account(pkg, dram, time);
        (
            EnergyCounter::delta(pkg_before, self.rapl.pkg_energy_raw()),
            EnergyCounter::delta(dram_before, self.rapl.dram_energy_raw()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A perfectly scalable compute-bound kernel for exercising the node.
    struct ComputeKernel;

    impl NodeWorkload for ComputeKernel {
        fn name(&self) -> &str {
            "compute-kernel"
        }
        fn iteration_time(&self, op: &OperatingPoint) -> TimeSpan {
            // 100 G core-cycles of work, ideally parallel.
            let cycles = 100e9;
            TimeSpan::secs(cycles / (op.threads() as f64 * op.frequency().as_ghz() * 1e9))
        }
        fn traffic_per_iteration(&self, _op: &OperatingPoint) -> (f64, f64) {
            (2e9, 1e9)
        }
        fn instructions_per_iteration(&self, _threads: usize) -> f64 {
            150e9
        }
        fn cpu_activity(&self) -> f64 {
            1.0
        }
        fn shared_data_fraction(&self) -> f64 {
            0.2
        }
        fn icache_mpki(&self) -> f64 {
            0.5
        }
        fn burst_bandwidth_demand(&self, op: &OperatingPoint) -> Bandwidth {
            let t = self.iteration_time(op).as_secs();
            Bandwidth::gbps(3e9 / 1e9 / t)
        }
    }

    #[test]
    fn uncapped_runs_at_fmax() {
        let node = Node::haswell();
        let op = node.resolve(&ComputeKernel, 24, AffinityPolicy::Compact);
        assert_eq!(op.frequency(), Frequency::ghz(2.3));
        assert!(!op.speed.is_throttled());
    }

    #[test]
    fn cap_lowers_frequency() {
        let mut node = Node::haswell();
        node.set_caps(PowerCaps::new(Power::watts(140.0), Power::watts(50.0)));
        let op = node.resolve(&ComputeKernel, 24, AffinityPolicy::Compact);
        assert!(op.frequency() < Frequency::ghz(2.3));
    }

    #[test]
    fn measured_pkg_power_respects_cap() {
        let mut node = Node::haswell();
        let cap = Power::watts(150.0);
        node.set_caps(PowerCaps::new(cap, Power::watts(50.0)));
        let r = node.execute(&ComputeKernel, 24, AffinityPolicy::Compact, 3);
        assert!(
            r.avg_pkg_power <= cap + Power::watts(1e-9),
            "pkg {} exceeds cap {}",
            r.avg_pkg_power,
            cap
        );
    }

    #[test]
    fn fewer_threads_slower_for_compute_bound() {
        let mut node = Node::haswell();
        let fast = node.execute(&ComputeKernel, 24, AffinityPolicy::Compact, 1);
        let slow = node.execute(&ComputeKernel, 12, AffinityPolicy::Compact, 1);
        assert!(fast.performance() > slow.performance());
    }

    #[test]
    fn energy_consistent_with_power_and_time() {
        let mut node = Node::haswell();
        let r = node.execute(&ComputeKernel, 24, AffinityPolicy::Compact, 2);
        let expect = r.avg_pkg_power * r.total_time;
        assert!(
            (r.pkg_energy.as_joules() - expect.as_joules()).abs() / expect.as_joules() < 1e-3,
            "counter energy {} vs power×time {}",
            r.pkg_energy,
            expect
        );
    }

    #[test]
    fn counters_match_run_shape() {
        let mut node = Node::haswell();
        let iters = 4;
        let r = node.execute(&ComputeKernel, 24, AffinityPolicy::Compact, iters);
        assert!((r.counters.instructions - 150e9 * iters as f64).abs() < 1.0);
        assert!((r.counters.bytes_read - 2e9 * iters as f64).abs() < 1.0);
        assert!(r.counters.remote_miss_fraction() <= 0.2);
    }

    #[test]
    fn starved_cap_throttles_but_executes() {
        let mut node = Node::haswell();
        node.set_caps(PowerCaps::new(Power::watts(60.0), Power::watts(10.0)));
        let r = node.execute(&ComputeKernel, 24, AffinityPolicy::Compact, 1);
        assert!(r.op.speed.is_throttled());
        assert!(r.performance() > 0.0);
    }

    #[test]
    fn performance_is_iterations_per_second() {
        let mut node = Node::haswell();
        let r = node.execute(&ComputeKernel, 24, AffinityPolicy::Compact, 10);
        let p = r.performance();
        assert!((p - 10.0 / r.total_time.as_secs()).abs() < 1e-9);
    }

    #[test]
    fn scatter_wakes_both_sockets() {
        let node = Node::haswell();
        let op = node.resolve(&ComputeKernel, 4, AffinityPolicy::Scatter);
        assert_eq!(op.placement.sockets_used(), 2);
        assert!(op.remote_frac > 0.0);
    }

    #[test]
    fn jittered_actuation_stays_within_jitter_band() {
        // With an injected actuation error of ±j the enforcement target
        // moves to cap·(1+j): measured package power must never exceed
        // cap·(1+|j|), and the jittered run must be indistinguishable from
        // programming the scaled cap directly (the error is a shifted
        // setpoint, not noise).
        let cap = Power::watts(150.0);
        for jitter in [-0.08, -0.03, 0.03, 0.08] {
            let mut node = Node::haswell();
            node.set_caps(PowerCaps::new(cap, Power::watts(50.0)));
            node.set_cap_jitter(jitter);
            let r = node.execute(&ComputeKernel, 24, AffinityPolicy::Compact, 1);
            let hi = cap * (1.0 + jitter.abs()) + Power::watts(1e-9);
            assert!(
                r.avg_pkg_power <= hi,
                "jitter {jitter}: pkg {} above {hi}",
                r.avg_pkg_power
            );

            let mut shifted = Node::haswell();
            shifted.set_caps(PowerCaps::new(cap * (1.0 + jitter), Power::watts(50.0)));
            let s = shifted.execute(&ComputeKernel, 24, AffinityPolicy::Compact, 1);
            assert_eq!(r.avg_pkg_power, s.avg_pkg_power, "jitter {jitter}");
            assert_eq!(r.performance(), s.performance(), "jitter {jitter}");
        }
    }

    #[test]
    fn positive_jitter_overshoots_then_converges_back_to_cap() {
        let cap = Power::watts(150.0);
        let mut node = Node::haswell();
        node.set_caps(PowerCaps::new(cap, Power::watts(50.0)));

        node.set_cap_jitter(0.06);
        let jittered = node.execute(&ComputeKernel, 24, AffinityPolicy::Compact, 1);
        assert!(
            jittered.avg_pkg_power > cap,
            "positive jitter must overshoot the programmed cap"
        );

        // Jitter ends: the enforcement loop converges back to the cap.
        node.set_cap_jitter(0.0);
        let settled = node.execute(&ComputeKernel, 24, AffinityPolicy::Compact, 1);
        assert!(
            settled.avg_pkg_power <= cap + Power::watts(1e-9),
            "after jitter clears the cap must bind again ({})",
            settled.avg_pkg_power
        );
    }

    #[test]
    fn undershoot_jitter_slows_the_node() {
        let cap = Power::watts(150.0);
        let mut fair = Node::haswell();
        fair.set_caps(PowerCaps::new(cap, Power::watts(50.0)));
        let mut starved = Node::haswell();
        starved.set_caps(PowerCaps::new(cap, Power::watts(50.0)));
        starved.set_cap_jitter(-0.10);
        let pf = fair
            .execute(&ComputeKernel, 24, AffinityPolicy::Compact, 1)
            .performance();
        let ps = starved
            .execute(&ComputeKernel, 24, AffinityPolicy::Compact, 1)
            .performance();
        assert!(ps < pf, "undershoot must cost performance ({ps} vs {pf})");
    }

    #[test]
    fn set_efficiency_changes_power_appetite() {
        let mut nominal = Node::haswell();
        let mut leaky = Node::haswell();
        leaky.set_efficiency(1.15);
        let pn = nominal
            .execute(&ComputeKernel, 24, AffinityPolicy::Compact, 1)
            .avg_pkg_power;
        let pl = leaky
            .execute(&ComputeKernel, 24, AffinityPolicy::Compact, 1)
            .avg_pkg_power;
        assert!(pl > pn, "a degraded part burns more watts uncapped");
    }

    #[test]
    fn dram_cap_shrinks_bw_ceiling() {
        let mut node = Node::haswell();
        let open = node
            .resolve(&ComputeKernel, 24, AffinityPolicy::Compact)
            .bw_ceiling;
        node.set_caps(PowerCaps::new(Power::watts(500.0), Power::watts(15.0)));
        let tight = node
            .resolve(&ComputeKernel, 24, AffinityPolicy::Compact)
            .bw_ceiling;
        assert!(tight < open);
    }
}
