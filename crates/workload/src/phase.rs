//! The single-phase analytic kernel model (DESIGN.md §4.1).
//!
//! One phase of an application contributes four wall-time terms at an
//! operating point with `n` threads and effective frequency `f` (GHz):
//!
//! ```text
//! t_serial     = serial_gcycles / f
//! t_compute    = parallel_gcycles / (n · f)
//! t_memory     = mem_gbytes / min(bw_ceiling, n · per_thread_bw · f/f_nom)
//! t_contention = contention_gcycles · n^contention_exp / f
//! ```
//!
//! The three paper classes fall out of the coefficients:
//! *linear* phases have negligible memory volume and no contention;
//! *logarithmic* phases have a memory term whose per-thread demand saturates
//! the bandwidth ceiling at the inflection point; *parabolic* phases carry a
//! contention term that eventually outweighs the shrinking compute term.
//! Everything is cycle-denominated, so a power cap that lowers `f` stretches
//! compute and contention alike — which is exactly what moves the optimal
//! concurrency downward under tight budgets (paper Figure 3).

use serde::{Deserialize, Serialize};
use simnode::OperatingPoint;

/// Nominal frequency used to express per-thread bandwidth demand.
pub const NOMINAL_FREQ_GHZ: f64 = 2.3;

/// One execution phase of an application.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Non-parallelizable work, in giga-cycles per iteration.
    pub serial_gcycles: f64,
    /// Perfectly parallel compute work, in giga-cycles per iteration.
    pub parallel_gcycles: f64,
    /// DRAM volume moved per iteration, in gigabytes.
    pub mem_gbytes: f64,
    /// Bandwidth one thread can demand at the nominal frequency, GB/s.
    pub per_thread_bw_gbps: f64,
    /// Contention/synchronization work at n=1, giga-cycles per iteration.
    pub contention_gcycles: f64,
    /// Exponent of the contention growth in thread count.
    pub contention_exp: f64,
    /// Instructions per cycle while computing (converts cycles → retired
    /// instructions for the PMU model).
    pub ipc: f64,
    /// Share of DRAM traffic that is writes.
    pub write_fraction: f64,
    /// CPU activity factor in `[0, 1]` for dynamic power.
    pub cpu_activity: f64,
    /// Fraction of accesses to thread-shared data (NUMA spread).
    pub shared_frac: f64,
    /// Instruction-cache misses per kilo-instruction.
    pub icache_mpki: f64,
}

impl Default for Phase {
    fn default() -> Self {
        Self {
            serial_gcycles: 0.0,
            parallel_gcycles: 100.0,
            mem_gbytes: 1.0,
            per_thread_bw_gbps: 1.0,
            contention_gcycles: 0.0,
            contention_exp: 1.0,
            ipc: 1.5,
            write_fraction: 0.3,
            cpu_activity: 1.0,
            shared_frac: 0.2,
            icache_mpki: 0.5,
        }
    }
}

impl Phase {
    /// Validate parameter sanity; called by the application constructor.
    pub fn validate(&self) {
        assert!(self.serial_gcycles >= 0.0, "serial work non-negative");
        assert!(self.parallel_gcycles >= 0.0, "parallel work non-negative");
        assert!(
            self.serial_gcycles + self.parallel_gcycles + self.mem_gbytes > 0.0,
            "phase must contain some work"
        );
        assert!(self.mem_gbytes >= 0.0 && self.per_thread_bw_gbps > 0.0);
        assert!(self.contention_gcycles >= 0.0 && self.contention_exp >= 1.0);
        assert!(self.ipc > 0.0, "ipc must be positive");
        assert!((0.0..=1.0).contains(&self.write_fraction));
        assert!((0.0..=1.0).contains(&self.cpu_activity));
        assert!((0.0..=1.0).contains(&self.shared_frac));
        assert!(self.icache_mpki >= 0.0);
    }

    /// Wall time of this phase at the operating point, in seconds.
    pub fn time_secs(&self, op: &OperatingPoint) -> f64 {
        let f = op.frequency().as_ghz();
        let n = op.threads() as f64;
        debug_assert!(f > 0.0 && n >= 1.0);

        let t_serial = self.serial_gcycles / f;
        let t_compute = self.parallel_gcycles / (n * f);

        let t_memory = if self.mem_gbytes > 0.0 {
            let demand = n * self.per_thread_bw_gbps * (f / NOMINAL_FREQ_GHZ);
            let rate = demand.min(op.bw_ceiling.as_gbps()).max(1e-6);
            self.mem_gbytes / rate
        } else {
            0.0
        };

        let t_contention = if self.contention_gcycles > 0.0 {
            self.contention_gcycles * n.powf(self.contention_exp) / f
        } else {
            0.0
        };

        t_serial + t_compute + t_memory + t_contention
    }

    /// The per-thread bandwidth demand of this phase at frequency `f_ghz`,
    /// GB/s (used to pick memory-driven affinity).
    pub fn bandwidth_demand_gbps(&self, threads: usize, f_ghz: f64) -> f64 {
        threads as f64 * self.per_thread_bw_gbps * (f_ghz / NOMINAL_FREQ_GHZ)
    }

    /// Thread count at which this phase's memory demand saturates a given
    /// bandwidth ceiling at frequency `f_ghz`; `None` for compute phases.
    pub fn saturation_threads(&self, bw_ceiling_gbps: f64, f_ghz: f64) -> Option<f64> {
        if self.mem_gbytes <= 0.0 {
            return None;
        }
        let per_thread = self.per_thread_bw_gbps * (f_ghz / NOMINAL_FREQ_GHZ);
        if per_thread <= 0.0 {
            return None;
        }
        Some(bw_ceiling_gbps / per_thread)
    }

    /// Total cycles of one iteration at n=1 (for instruction accounting).
    pub fn total_gcycles(&self) -> f64 {
        self.serial_gcycles + self.parallel_gcycles + self.contention_gcycles
    }

    /// Retired instructions of one iteration, in absolute count.
    pub fn instructions(&self) -> f64 {
        self.total_gcycles() * self.ipc * 1e9
    }

    /// DRAM read/write bytes of one iteration.
    pub fn traffic_bytes(&self) -> (f64, f64) {
        let total = self.mem_gbytes * 1e9;
        (
            total * (1.0 - self.write_fraction),
            total * self.write_fraction,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::TimeSpan;
    use simnode::{AffinityPolicy, Node, NodeWorkload};

    /// Minimal adapter so `Node::resolve` can be used to build operating
    /// points for phase-level tests.
    struct PhaseProbe(Phase);

    impl NodeWorkload for PhaseProbe {
        fn name(&self) -> &str {
            "phase-probe"
        }
        fn iteration_time(&self, op: &OperatingPoint) -> TimeSpan {
            TimeSpan::secs(self.0.time_secs(op))
        }
        fn traffic_per_iteration(&self, _op: &OperatingPoint) -> (f64, f64) {
            self.0.traffic_bytes()
        }
        fn instructions_per_iteration(&self, _threads: usize) -> f64 {
            self.0.instructions()
        }
        fn cpu_activity(&self) -> f64 {
            self.0.cpu_activity
        }
        fn shared_data_fraction(&self) -> f64 {
            self.0.shared_frac
        }
        fn icache_mpki(&self) -> f64 {
            self.0.icache_mpki
        }
        fn burst_bandwidth_demand(&self, op: &OperatingPoint) -> simkit::Bandwidth {
            let f = op.frequency().as_ghz();
            simkit::Bandwidth::gbps(self.0.bandwidth_demand_gbps(op.threads(), f))
        }
    }

    fn op_at(phase: &Phase, threads: usize) -> OperatingPoint {
        let node = Node::haswell();
        node.resolve(&PhaseProbe(*phase), threads, AffinityPolicy::Scatter)
    }

    #[test]
    fn compute_phase_scales_linearly() {
        let phase = Phase {
            parallel_gcycles: 230.0,
            mem_gbytes: 0.0,
            ..Phase::default()
        };
        let t1 = phase.time_secs(&op_at(&phase, 1));
        let t24 = phase.time_secs(&op_at(&phase, 24));
        let speedup = t1 / t24;
        assert!((speedup - 24.0).abs() < 0.5, "speedup {speedup}");
    }

    #[test]
    fn serial_term_caps_speedup() {
        let phase = Phase {
            serial_gcycles: 23.0,
            parallel_gcycles: 230.0,
            mem_gbytes: 0.0,
            ..Phase::default()
        };
        let t1 = phase.time_secs(&op_at(&phase, 1));
        let t24 = phase.time_secs(&op_at(&phase, 24));
        // Amdahl: 10% serial → speedup well below 24.
        assert!(t1 / t24 < 9.0);
    }

    #[test]
    fn memory_term_saturates() {
        let phase = Phase {
            parallel_gcycles: 1.0,
            mem_gbytes: 100.0,
            per_thread_bw_gbps: 12.0,
            ..Phase::default()
        };
        // Scatter placement: 112 GB/s ceiling, saturation near 9.3 threads.
        let t8 = phase.time_secs(&op_at(&phase, 8));
        let t16 = phase.time_secs(&op_at(&phase, 16));
        let t24 = phase.time_secs(&op_at(&phase, 24));
        assert!(t8 > t16, "before saturation more threads help");
        assert!((t16 - t24).abs() / t16 < 0.05, "after saturation flat");
    }

    #[test]
    fn contention_term_grows_superlinearly() {
        let phase = Phase {
            parallel_gcycles: 120.0,
            mem_gbytes: 0.0,
            contention_gcycles: 0.04,
            contention_exp: 2.0,
            ..Phase::default()
        };
        let t12 = phase.time_secs(&op_at(&phase, 12));
        let t24 = phase.time_secs(&op_at(&phase, 24));
        assert!(t24 > t12, "past the optimum more threads hurt");
    }

    #[test]
    fn saturation_threads_math() {
        let phase = Phase {
            per_thread_bw_gbps: 8.0,
            mem_gbytes: 10.0,
            ..Phase::default()
        };
        let sat = phase.saturation_threads(112.0, 2.3).unwrap();
        assert!((sat - 14.0).abs() < 1e-9);
        // Lower frequency → less demand per thread → later saturation.
        let sat_low = phase.saturation_threads(112.0, 1.2).unwrap();
        assert!(sat_low > sat);
    }

    #[test]
    fn compute_phase_has_no_saturation() {
        let phase = Phase {
            mem_gbytes: 0.0,
            ..Phase::default()
        };
        assert!(phase.saturation_threads(112.0, 2.3).is_none());
    }

    #[test]
    fn traffic_split_by_write_fraction() {
        let phase = Phase {
            mem_gbytes: 10.0,
            write_fraction: 0.25,
            ..Phase::default()
        };
        let (r, w) = phase.traffic_bytes();
        assert!((r - 7.5e9).abs() < 1.0);
        assert!((w - 2.5e9).abs() < 1.0);
    }

    #[test]
    fn frequency_stretches_cycle_terms() {
        let phase = Phase {
            parallel_gcycles: 100.0,
            mem_gbytes: 0.0,
            ..Phase::default()
        };
        let mut op = op_at(&phase, 12);
        let t_fast = phase.time_secs(&op);
        op.speed = simnode::dvfs::EffectiveSpeed::PState(simkit::Frequency::ghz(1.2));
        let t_slow = phase.time_secs(&op);
        assert!((t_slow / t_fast - 2.3 / 1.2).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "some work")]
    fn empty_phase_rejected() {
        Phase {
            serial_gcycles: 0.0,
            parallel_gcycles: 0.0,
            mem_gbytes: 0.0,
            ..Phase::default()
        }
        .validate();
    }

    #[test]
    fn instructions_follow_ipc() {
        let phase = Phase {
            parallel_gcycles: 10.0,
            ipc: 2.0,
            ..Phase::default()
        };
        assert!((phase.instructions() - 10.0 * 2.0 * 1e9).abs() < 1.0);
    }
}
