//! Analytic node power model (DESIGN.md §4.2, paper Eqs. 5–9).
//!
//! The paper decomposes node power as processor + memory + other, with the
//! processor term split into per-socket base power plus per-active-core load
//! power, and the memory term into base plus load (Eqs. 5–9). We mirror that
//! decomposition exactly:
//!
//! ```text
//! P_pkg  = Σ_sockets (base_or_idle) + Σ_active cores (c0 + a·c1·f³)
//! P_dram = dram_base·sockets + dram_load_max · (achieved_bw / peak_bw)
//! ```
//!
//! `a` is the workload's CPU activity factor (compute-bound ≈ 1, memory-bound
//! lower), `c1·f³` approximates the `V²f` dynamic-power law along the
//! voltage/frequency curve. Constants are calibrated to the E5-2670v3
//! ballpark: 120 W socket TDP at 2.3 GHz all-core, ~16 W DRAM per socket loaded.
//!
//! A per-node `efficiency` factor scales total drawn power and models
//! manufacturing variability (§III-B2 of the paper): less efficient parts
//! burn more watts at the same frequency, so a uniform cap forces them to a
//! lower frequency.

use crate::dvfs::{EffectiveSpeed, PStateTable};
use serde::{Deserialize, Serialize};
use simkit::{Bandwidth, Frequency, Power};

/// Calibrated power-model constants for one node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Uncore/base power of a socket with ≥1 active core.
    pub socket_base: Power,
    /// Power of a socket with no active cores (package C-state).
    pub socket_idle: Power,
    /// Static power of an active core (c0).
    pub core_static: Power,
    /// Dynamic coefficient c1 in W/GHz³ (multiplied by activity·f³).
    pub core_dyn_coeff: f64,
    /// DRAM background power per socket (always on).
    pub dram_base: Power,
    /// Additional DRAM power per socket at 100% bandwidth utilization.
    pub dram_load_max: Power,
    /// Peak DRAM bandwidth per socket.
    pub peak_bw_per_socket: Bandwidth,
    /// Manufacturing-variability multiplier on all drawn power (1.0 =
    /// nominal part; >1 burns more for the same work).
    pub efficiency: f64,
    /// Floor on the duty cycle when clock modulation engages.
    pub min_duty: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        Self::haswell()
    }
}

impl PowerModel {
    /// Constants matching the paper's E5-2670v3 node: 12-core socket reaches
    /// ~120 W at 2.3 GHz all-core with a compute-bound load.
    pub fn haswell() -> Self {
        Self {
            socket_base: Power::watts(18.0),
            socket_idle: Power::watts(9.0),
            core_static: Power::watts(1.5),
            core_dyn_coeff: 0.575,
            dram_base: Power::watts(3.0),
            dram_load_max: Power::watts(13.5),
            peak_bw_per_socket: Bandwidth::gbps(56.0),
            efficiency: 1.0,
            min_duty: 0.02,
        }
    }

    /// Power drawn by one active core at frequency `f` with CPU activity `a`.
    pub fn core_power(&self, f: Frequency, activity: f64) -> Power {
        debug_assert!((0.0..=1.0).contains(&activity), "activity in [0,1]");
        let dynamic = self.core_dyn_coeff * activity * f.as_ghz().powi(3);
        (self.core_static + Power::watts(dynamic)) * self.efficiency
    }

    /// Package (CPU) power with `active_per_socket[s]` busy cores on each
    /// socket, all at frequency `f` and activity `a`.
    pub fn pkg_power(&self, active_per_socket: &[usize], f: Frequency, activity: f64) -> Power {
        let mut total = Power::ZERO;
        for &n in active_per_socket {
            let base = if n > 0 {
                self.socket_base
            } else {
                self.socket_idle
            };
            total += base * self.efficiency;
            total += self.core_power(f, activity) * n as f64;
        }
        total
    }

    /// Package power under duty-cycle throttling: static parts stay, dynamic
    /// power scales with the duty fraction.
    pub fn pkg_power_throttled(
        &self,
        active_per_socket: &[usize],
        f_min: Frequency,
        activity: f64,
        duty: f64,
    ) -> Power {
        let mut total = Power::ZERO;
        for &n in active_per_socket {
            let base = if n > 0 {
                self.socket_base
            } else {
                self.socket_idle
            };
            total += base * self.efficiency;
            let per_core = self.core_static
                + Power::watts(self.core_dyn_coeff * activity * duty * f_min.as_ghz().powi(3));
            total += per_core * self.efficiency * n as f64;
        }
        total
    }

    /// DRAM power for an achieved aggregate bandwidth across `sockets`
    /// sockets (base power accrues on every socket regardless of load).
    pub fn dram_power(&self, achieved_bw: Bandwidth, sockets: usize) -> Power {
        let peak = self.peak_bw_per_socket * sockets as f64;
        let util = if peak.as_gbps() > 0.0 {
            (achieved_bw / peak).clamp(0.0, 1.0)
        } else {
            0.0
        };
        (self.dram_base * sockets as f64 + self.dram_load_max * sockets as f64 * util)
            * self.efficiency
    }

    /// Highest DRAM bandwidth sustainable under a DRAM power cap.
    ///
    /// Inverts the load-power line; below the base-power floor the memory
    /// still answers (you cannot cap refresh power away) but at a crawl,
    /// which we model as 2% of peak. Never decreases as `dram_cap` grows:
    /// the result is a clamp of `(cap − base) / load`, and every step is
    /// monotone under rounding.
    pub fn bw_ceiling(&self, dram_cap: Power, sockets: usize) -> Bandwidth {
        let peak = self.peak_bw_per_socket * sockets as f64;
        let base = self.dram_base * sockets as f64 * self.efficiency;
        let load_max = self.dram_load_max * sockets as f64 * self.efficiency;
        if load_max.as_watts() <= 0.0 {
            return peak;
        }
        let headroom = dram_cap - base;
        let frac = (headroom.as_watts() / load_max.as_watts()).clamp(0.02, 1.0);
        peak * frac
    }

    /// Resolve the fastest speed whose package power fits `cpu_cap`, walking
    /// the P-state ladder from the top and falling back to duty-cycling at
    /// `f_min` (T-states) when even that is too hot.
    ///
    /// The effective frequency never decreases as `cpu_cap` grows: a larger
    /// cap admits every state a smaller one does, the duty cycle is a clamp
    /// of `(cap − static) / dyn`, and any P-state is at least `f_min`, the
    /// fastest a duty-cycled core runs.
    pub fn max_speed_under_cap(
        &self,
        pstates: &PStateTable,
        active_per_socket: &[usize],
        activity: f64,
        cpu_cap: Power,
    ) -> EffectiveSpeed {
        for f in pstates.descending() {
            if self.pkg_power(active_per_socket, f, activity) <= cpu_cap {
                return EffectiveSpeed::PState(f);
            }
        }
        // Clock modulation: solve base + Σ(c0 + duty·a·c1·f³) = cap for duty.
        let f_min = pstates.f_min();
        let active: usize = active_per_socket.iter().sum();
        let mut static_part = Power::ZERO;
        for &n in active_per_socket {
            let base = if n > 0 {
                self.socket_base
            } else {
                self.socket_idle
            };
            static_part += (base + self.core_static * n as f64) * self.efficiency;
        }
        let dyn_full = self.core_dyn_coeff
            * activity
            * f_min.as_ghz().powi(3)
            * active as f64
            * self.efficiency;
        let duty = if dyn_full > 0.0 {
            ((cpu_cap - static_part).as_watts() / dyn_full).clamp(self.min_duty, 1.0)
        } else {
            self.min_duty
        };
        EffectiveSpeed::Throttled { f_min, duty }
    }

    /// Minimum package power the hardware can reach with this placement
    /// (everything static, dynamic duty at the floor).
    pub fn pkg_floor(&self, active_per_socket: &[usize], f_min: Frequency, activity: f64) -> Power {
        self.pkg_power_throttled(active_per_socket, f_min, activity, self.min_duty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PowerModel {
        PowerModel::haswell()
    }

    #[test]
    fn socket_tdp_calibration() {
        // All 12 cores busy at 2.3 GHz, compute-bound: ~120 W per socket.
        let p = model().pkg_power(&[12, 0], Frequency::ghz(2.3), 1.0);
        let socket_only = p - Power::watts(9.0); // remove idle socket 1
        assert!(
            (socket_only.as_watts() - 120.0).abs() < 5.0,
            "socket power {socket_only} should be ≈120 W"
        );
    }

    #[test]
    fn pkg_power_monotone_in_frequency() {
        let m = model();
        let lo = m.pkg_power(&[12, 12], Frequency::ghz(1.2), 1.0);
        let hi = m.pkg_power(&[12, 12], Frequency::ghz(2.3), 1.0);
        assert!(hi > lo);
    }

    #[test]
    fn pkg_power_monotone_in_cores() {
        let m = model();
        let few = m.pkg_power(&[4, 0], Frequency::ghz(2.0), 1.0);
        let many = m.pkg_power(&[8, 0], Frequency::ghz(2.0), 1.0);
        assert!(many > few);
    }

    #[test]
    fn idle_socket_draws_less() {
        let m = model();
        let one = m.pkg_power(&[6, 0], Frequency::ghz(2.0), 1.0);
        let spread = m.pkg_power(&[3, 3], Frequency::ghz(2.0), 1.0);
        // Spreading wakes the second socket's uncore: more power.
        assert!(spread > one);
    }

    #[test]
    fn activity_scales_dynamic_only() {
        let m = model();
        let hot = m.core_power(Frequency::ghz(2.3), 1.0);
        let cool = m.core_power(Frequency::ghz(2.3), 0.5);
        assert!(hot > cool);
        assert!(cool > m.core_static); // static floor remains
    }

    #[test]
    fn dram_power_tracks_utilization() {
        let m = model();
        let idle = m.dram_power(Bandwidth::ZERO, 2);
        assert!((idle.as_watts() - 6.0).abs() < 1e-9);
        let full = m.dram_power(Bandwidth::gbps(112.0), 2);
        assert!((full.as_watts() - 33.0).abs() < 1e-9);
        let over = m.dram_power(Bandwidth::gbps(500.0), 2);
        assert_eq!(full, over); // utilization clamps at 1
    }

    #[test]
    fn bw_ceiling_inverts_dram_power() {
        let m = model();
        // Cap exactly at base+half load → half bandwidth.
        let cap = Power::watts(6.0 + 13.5);
        let bw = m.bw_ceiling(cap, 2);
        assert!((bw.as_gbps() - 56.0).abs() < 1e-9);
        // Generous cap → peak.
        assert!((m.bw_ceiling(Power::watts(100.0), 2).as_gbps() - 112.0).abs() < 1e-9);
        // Starved cap → 2% floor, never zero.
        assert!(m.bw_ceiling(Power::watts(1.0), 2).as_gbps() > 0.0);
    }

    #[test]
    fn cap_resolution_picks_highest_feasible_state() {
        let m = model();
        let ladder = PStateTable::haswell();
        let generous = m.max_speed_under_cap(&ladder, &[12, 12], 1.0, Power::watts(500.0));
        assert_eq!(generous, EffectiveSpeed::PState(Frequency::ghz(2.3)));

        let tight = m.max_speed_under_cap(&ladder, &[12, 12], 1.0, Power::watts(150.0));
        match tight {
            EffectiveSpeed::PState(f) => {
                assert!(f < Frequency::ghz(2.3));
                // The chosen state fits and the next one up does not.
                assert!(m.pkg_power(&[12, 12], f, 1.0) <= Power::watts(150.0));
                let next = Frequency::ghz(f.as_ghz() + 0.1);
                assert!(m.pkg_power(&[12, 12], next, 1.0) > Power::watts(150.0));
            }
            other => panic!("expected a P-state, got {other:?}"),
        }
    }

    #[test]
    fn cap_resolution_duty_cycles_when_starved() {
        let m = model();
        let ladder = PStateTable::haswell();
        let starved = m.max_speed_under_cap(&ladder, &[12, 12], 1.0, Power::watts(80.0));
        assert!(starved.is_throttled());
        // Duty-cycled power respects the cap when above the static floor.
        if let EffectiveSpeed::Throttled { f_min, duty } = starved {
            let p = m.pkg_power_throttled(&[12, 12], f_min, 1.0, duty);
            let floor = m.pkg_floor(&[12, 12], f_min, 1.0);
            assert!(p <= Power::watts(80.0).max(floor) + Power::watts(1e-9));
        }
    }

    #[test]
    fn efficiency_scales_power() {
        let nominal = model().pkg_power(&[12, 12], Frequency::ghz(2.0), 1.0);
        let leaky = PowerModel {
            efficiency: 1.05,
            ..model()
        }
        .pkg_power(&[12, 12], Frequency::ghz(2.0), 1.0);
        assert!((leaky.as_watts() / nominal.as_watts() - 1.05).abs() < 1e-9);
    }

    #[test]
    fn leaky_part_runs_slower_under_same_cap() {
        let ladder = PStateTable::haswell();
        let cap = Power::watts(170.0);
        let nominal = model().max_speed_under_cap(&ladder, &[12, 12], 1.0, cap);
        let leaky = PowerModel {
            efficiency: 1.08,
            ..model()
        }
        .max_speed_under_cap(&ladder, &[12, 12], 1.0, cap);
        assert!(
            leaky.effective_frequency() < nominal.effective_frequency(),
            "variability must cost frequency under a uniform cap"
        );
    }
}
