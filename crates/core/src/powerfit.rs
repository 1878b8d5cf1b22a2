//! Application-specific power model fitted from profile measurements
//! (paper Eqs. 5–9).
//!
//! CLIP never reads hardware constants; it reconstructs the paper's power
//! decomposition from the three profiled samples:
//!
//! ```text
//! P_cpu(n, f) = base + n · (c0 + c1 · f³)
//! P_mem(bw)   = mem_base + mem_slope · bw
//! ```
//!
//! Three CPU measurements pin the three unknowns — all-core and half-core
//! at the top frequency give the per-core load power and socket base
//! (Eq. 7's split), and the forced-lowest-frequency run separates the
//! static `c0` from the dynamic `c1·f³` term. The DRAM line is fit from the
//! two most bandwidth-separated samples.
//!
//! The fitted model answers the two questions the allocator asks: "what cap
//! does configuration (n, f) need?" and "what frequency does budget P buy
//! at concurrency n?".

use crate::profile::ProfileData;
use serde::{Deserialize, Serialize};
use simkit::Power;

/// Power model reconstructed from RAPL measurements for one application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FittedPowerModel {
    /// Node-level base (uncore etc.), watts.
    pub base: f64,
    /// Static per-active-core power, watts.
    pub c0: f64,
    /// Dynamic per-core coefficient, W/GHz³ (includes the app's activity).
    pub c1: f64,
    /// DRAM background power, watts.
    pub mem_base: f64,
    /// DRAM power per GB/s of achieved bandwidth.
    pub mem_slope: f64,
    /// Frequency range the fit observed, GHz.
    pub f_min: f64,
    /// Highest frequency observed, GHz.
    pub f_max: f64,
}

impl FittedPowerModel {
    /// Fit from a smart profile. Panics if the profile's samples are
    /// degenerate (identical configurations).
    pub fn fit(profile: &ProfileData) -> Self {
        let all = &profile.all_core.report;
        let half = &profile.half_core.report;
        let low = &profile.low_freq.report;

        let n_all = profile.all_core.threads as f64;
        let n_half = profile.half_core.threads as f64;
        assert!(n_all > n_half, "profile needs distinct concurrencies");

        let f_max = all.op.frequency().as_ghz();
        let f_low = low.op.frequency().as_ghz();
        assert!(f_max > f_low, "profile needs distinct frequencies");

        // Per-core load power at f_max from the all/half pair (Eq. 7).
        let p_all = all.avg_pkg_power.as_watts();
        let p_half = half.avg_pkg_power.as_watts();
        let per_core_hi = ((p_all - p_half) / (n_all - n_half)).max(0.1);
        let base = (p_all - n_all * per_core_hi).max(0.0);

        // Static/dynamic split from the low-frequency anchor.
        let p_low = low.avg_pkg_power.as_watts();
        let per_core_lo = ((p_low - base) / n_all).max(0.05);
        let c1 = ((per_core_hi - per_core_lo) / (f_max.powi(3) - f_low.powi(3))).max(0.0);
        let c0 = (per_core_hi - c1 * f_max.powi(3)).max(0.0);

        // DRAM line from the two most bandwidth-separated samples.
        let samples = [
            (bw_of(all), all.avg_dram_power.as_watts()),
            (bw_of(half), half.avg_dram_power.as_watts()),
            (bw_of(low), low.avg_dram_power.as_watts()),
        ];
        let (mem_base, mem_slope) = fit_dram_line(&samples);

        Self {
            base,
            c0,
            c1,
            mem_base,
            mem_slope,
            f_min: f_low,
            f_max,
        }
    }

    /// Predicted CPU (package) power at `threads` cores and `f_ghz`.
    pub fn cpu_power(&self, threads: usize, f_ghz: f64) -> Power {
        Power::watts(self.base + threads as f64 * (self.c0 + self.c1 * f_ghz.powi(3)))
    }

    /// Predicted DRAM power at an achieved bandwidth.
    pub fn mem_power(&self, bw_gbps: f64) -> Power {
        Power::watts(self.mem_base + self.mem_slope * bw_gbps.max(0.0))
    }

    /// The highest frequency a CPU budget buys at a given concurrency,
    /// clamped to the observed frequency range.
    pub fn freq_for_budget(&self, threads: usize, cpu_budget: Power) -> f64 {
        let n = threads as f64;
        let dyn_budget =
            (cpu_budget.as_watts() - self.base - n * self.c0) / (n * self.c1.max(1e-9));
        if dyn_budget <= 0.0 {
            return self.f_min;
        }
        dyn_budget.cbrt().clamp(self.f_min, self.f_max)
    }

    /// Like [`Self::freq_for_budget`] but modelling the duty-cycling cliff:
    /// when the budget cannot sustain even the lowest P-state, the
    /// *effective* frequency drops below `f_min` proportionally to the duty
    /// cycle the remaining dynamic budget affords. This is what lets the
    /// allocator see that spreading a tight budget across many nodes is
    /// catastrophic rather than merely slow.
    pub fn effective_freq_for_budget(&self, threads: usize, cpu_budget: Power) -> f64 {
        let n = threads as f64;
        let at_fmin = self.cpu_power(threads, self.f_min);
        if cpu_budget >= at_fmin {
            return self.freq_for_budget(threads, cpu_budget);
        }
        let static_part = self.base + n * self.c0;
        let dyn_fmin = (n * self.c1 * self.f_min.powi(3)).max(1e-9);
        let duty = ((cpu_budget.as_watts() - static_part) / dyn_fmin).clamp(0.02, 1.0);
        self.f_min * duty
    }

    /// Total managed power (CPU + DRAM) predicted for a configuration.
    pub fn total_power(&self, threads: usize, f_ghz: f64, bw_gbps: f64) -> Power {
        self.cpu_power(threads, f_ghz) + self.mem_power(bw_gbps)
    }
}

fn bw_of(report: &simnode::ExecutionReport) -> f64 {
    report.counters.read_bandwidth().as_gbps() + report.counters.write_bandwidth().as_gbps()
}

/// Prior DRAM load slope (W per GB/s) used when the profiled samples cannot
/// identify the line — a spec-sheet figure (DDR4 module load power over
/// channel bandwidth), not a measurement of the application.
const DRAM_SLOPE_PRIOR_W_PER_GBPS: f64 = 0.25;

/// Least-squares line through the three (bw, power) samples. When the
/// sampled bandwidths are indistinguishable (compute-bound applications
/// barely load DRAM; saturated ones pin it), the slope is unidentifiable —
/// fall back to the spec-sheet prior so burst-rate cap sizing still works.
/// The coordinates stay in arrays, so a fit allocates nothing.
fn fit_dram_line(samples: &[(f64, f64); 3]) -> (f64, f64) {
    let xs = samples.map(|s| s.0);
    let ys = samples.map(|s| s.1);
    let fit = simkit::stats::linear_fit(&xs, &ys);
    let spread = simkit::stats::max(&xs) - simkit::stats::min(&xs);
    if spread < 0.5 || fit.slope <= 0.0 {
        let base = (simkit::stats::mean(&ys)
            - DRAM_SLOPE_PRIOR_W_PER_GBPS * simkit::stats::mean(&xs))
        .max(0.0);
        (base, DRAM_SLOPE_PRIOR_W_PER_GBPS)
    } else {
        (fit.intercept.max(0.0), fit.slope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::SmartProfiler;
    use simnode::Node;
    use workload::suite;

    fn fitted(app: &workload::AppModel) -> (FittedPowerModel, Node) {
        let mut node = Node::haswell();
        let p = SmartProfiler::default().profile(&mut node, app);
        (FittedPowerModel::fit(&p), node)
    }

    #[test]
    fn cpu_fit_reproduces_measured_allcore_power() {
        let mut node = Node::haswell();
        let app = suite::comd();
        let p = SmartProfiler::default().profile(&mut node, &app);
        let fit = FittedPowerModel::fit(&p);
        let measured = p.all_core.report.avg_pkg_power.as_watts();
        let predicted = fit
            .cpu_power(24, p.all_core.report.op.frequency().as_ghz())
            .as_watts();
        assert!(
            (predicted - measured).abs() / measured < 0.02,
            "predicted {predicted:.1} vs measured {measured:.1}"
        );
    }

    #[test]
    fn cpu_fit_interpolates_unseen_concurrency() {
        // Fit from 24/12-core samples, check against a real 18-core run.
        let mut node = Node::haswell();
        let app = suite::comd();
        let p = SmartProfiler::default().profile(&mut node, &app);
        let fit = FittedPowerModel::fit(&p);
        let r18 = node.execute(&app, 18, p.policy, 1);
        let predicted = fit.cpu_power(18, r18.op.frequency().as_ghz()).as_watts();
        let measured = r18.avg_pkg_power.as_watts();
        assert!(
            (predicted - measured).abs() / measured < 0.10,
            "predicted {predicted:.1} vs measured {measured:.1}"
        );
    }

    #[test]
    fn cpu_fit_interpolates_unseen_frequency() {
        let mut node = Node::haswell();
        let app = suite::amg();
        let p = SmartProfiler::default().profile(&mut node, &app);
        let fit = FittedPowerModel::fit(&p);
        // Cap the node so it lands on an intermediate P-state.
        node.set_caps(simnode::PowerCaps::new(
            Power::watts(170.0),
            Power::watts(60.0),
        ));
        let r = node.execute(&app, 24, p.policy, 1);
        let f = r.op.frequency().as_ghz();
        assert!(
            f > fit.f_min && f < fit.f_max,
            "intermediate state, got {f}"
        );
        let predicted = fit.cpu_power(24, f).as_watts();
        let measured = r.avg_pkg_power.as_watts();
        assert!(
            (predicted - measured).abs() / measured < 0.10,
            "predicted {predicted:.1} vs measured {measured:.1}"
        );
    }

    #[test]
    fn freq_for_budget_inverts_cpu_power() {
        let (fit, _) = fitted(&suite::comd());
        for f in [1.2, 1.6, 2.0, 2.3] {
            let budget = fit.cpu_power(24, f);
            let back = fit.freq_for_budget(24, budget);
            assert!((back - f).abs() < 0.02, "f {f} → budget → {back}");
        }
    }

    #[test]
    fn freq_for_budget_clamps() {
        let (fit, _) = fitted(&suite::comd());
        assert_eq!(fit.freq_for_budget(24, Power::watts(1.0)), fit.f_min);
        assert_eq!(fit.freq_for_budget(24, Power::watts(5000.0)), fit.f_max);
    }

    #[test]
    fn mem_fit_tracks_bandwidth_for_memory_apps() {
        let mut node = Node::haswell();
        let app = suite::lu_mz();
        let p = SmartProfiler::default().profile(&mut node, &app);
        let fit = FittedPowerModel::fit(&p);
        let bw = p.allcore_bandwidth_gbps();
        let measured = p.all_core.report.avg_dram_power.as_watts();
        let predicted = fit.mem_power(bw).as_watts();
        assert!(
            (predicted - measured).abs() < 3.0,
            "predicted {predicted:.1} vs measured {measured:.1}"
        );
    }

    #[test]
    fn fitted_constants_physical() {
        for app in [suite::comd(), suite::lu_mz(), suite::sp_mz()] {
            let (fit, _) = fitted(&app);
            assert!(fit.base >= 0.0, "{}", app.name());
            assert!(fit.c0 >= 0.0);
            assert!(fit.c1 >= 0.0);
            assert!(fit.mem_base >= 0.0);
            assert!(fit.f_max > fit.f_min);
        }
    }

    #[test]
    fn total_power_adds_domains() {
        let (fit, _) = fitted(&suite::amg());
        let total = fit.total_power(24, 2.0, 50.0);
        let parts = fit.cpu_power(24, 2.0) + fit.mem_power(50.0);
        assert_eq!(total, parts);
    }
}
