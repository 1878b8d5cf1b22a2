//! Dynamic budget-conservation auditing.
//!
//! Static checks (`clip-lint`) catch unit mistakes at the source level;
//! this module catches *arithmetic* mistakes at run time. Every scheduler
//! threads a [`BudgetLedger`] through its allocation path and the ledger
//! verifies, on the finished plan, the conservation laws every power
//! coordinator in the paper must obey:
//!
//! 1. **Cluster budget**: the sum of all programmed per-node caps never
//!    exceeds the cluster budget (§III-B, the hard power bound).
//! 2. **Node cap**: each node's CPU + DRAM split never exceeds the node's
//!    physical capacity (caps above capacity are silently unenforceable —
//!    the plan would *look* legal but draw arbitrary power).
//! 3. **Zero-sum shifting**: inter-node variability coordination
//!    (§III-B2) moves CPU watts between nodes but creates none — the CPU
//!    sum and the total sum are preserved exactly.
//!
//! Violations panic in debug and test builds (`debug_assertions` on), so
//! the test suite fails loudly at the exact call site. In release builds
//! they are counted in a process-global counter instead, so a production
//! sweep completes and the harness can assert [`violation_count`]` == 0`
//! at the end.

use crate::scheduler::SchedulePlan;
use simkit::Power;
use simnode::PowerCaps;
use std::sync::atomic::{self, Ordering};

/// Absolute tolerance for budget comparisons, watts. Matches the
/// tolerance [`SchedulePlan::within_budget`] uses.
pub const TOLERANCE_WATTS: f64 = 1e-6;

/// Process-global count of audit violations observed in release builds.
#[expect(
    clippy::disallowed_types,
    reason = "a release-build violation count that only grows; addition commutes, so the total is the same in any rack order"
)]
static VIOLATIONS: atomic::AtomicU64 = atomic::AtomicU64::new(0);

/// Number of audit violations recorded so far (release builds only; debug
/// builds panic before counting).
pub fn violation_count() -> u64 {
    VIOLATIONS.load(Ordering::Relaxed)
}

/// Reset the global violation counter (test harness hook).
pub fn reset_violation_count() {
    VIOLATIONS.store(0, Ordering::Relaxed);
}

/// Which conservation law a violation broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditRule {
    /// Σ per-node caps exceeded the cluster budget.
    ClusterBudget,
    /// One node's CPU + DRAM caps exceeded the per-node capacity.
    NodeCap,
    /// Variability shifting changed the CPU or total power sum.
    ZeroSum,
    /// Measured power exceeded the budget beyond any declared RAPL
    /// actuation-jitter allowance: the overshoot cannot be blamed on the
    /// hardware, so the plan itself must be wrong.
    Actuation,
}

impl std::fmt::Display for AuditRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AuditRule::ClusterBudget => "cluster-budget",
            AuditRule::NodeCap => "node-cap",
            AuditRule::ZeroSum => "zero-sum",
            AuditRule::Actuation => "actuation",
        };
        f.write_str(s)
    }
}

/// Verdict of an actuation audit on measured (not programmed) power.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActuationCheck {
    /// Measured power within the budget: actuation is nominal.
    Nominal,
    /// Measured power exceeds the budget, but by no more than the declared
    /// injected-jitter allowance on the plan's CPU caps — a hardware
    /// (injected) fault, not a scheduler bug.
    InjectedJitter,
}

/// One observed conservation violation.
#[derive(Debug, Clone)]
pub struct AuditViolation {
    /// Scheduler whose plan broke the rule.
    pub scheduler: String,
    /// Which rule broke.
    pub rule: AuditRule,
    /// Human-readable account of the numbers involved.
    pub detail: String,
}

impl std::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.rule, self.scheduler, self.detail)
    }
}

impl std::error::Error for AuditViolation {}

/// The audit trail a scheduler threads through one allocation.
///
/// Construct with the cluster budget, optionally bound the per-node
/// capacity, then hand the finished plan (and any variability shift) to
/// the audit methods. The non-`try_` methods enforce: panic under
/// `debug_assertions`, count globally otherwise. The ledger borrows the
/// scheduler's name and copies it only into a violation, so building one
/// allocates nothing.
#[derive(Debug, Clone)]
pub struct BudgetLedger<'a> {
    scheduler: &'a str,
    cluster_budget: Power,
    node_cap: Option<Power>,
    /// Declared RAPL actuation-error fraction the fault injector is
    /// currently driving (0 = exact actuation expected).
    injected_jitter: f64,
}

impl<'a> BudgetLedger<'a> {
    /// A ledger for one allocation by `scheduler` under `cluster_budget`.
    pub fn new(scheduler: &'a str, cluster_budget: Power) -> Self {
        Self {
            scheduler,
            cluster_budget,
            node_cap: None,
            injected_jitter: 0.0,
        }
    }

    /// Also verify every node's CPU + DRAM split against a physical
    /// per-node capacity.
    pub fn with_node_cap(mut self, cap: Power) -> Self {
        self.node_cap = Some(cap);
        self
    }

    /// Declare the injected RAPL actuation-error fraction currently in
    /// force, so [`BudgetLedger::try_audit_actuation`] can tell bounded
    /// hardware overshoot apart from a scheduler bug.
    pub fn with_injected_jitter(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&fraction),
            "jitter allowance must be in [0, 1)"
        );
        self.injected_jitter = fraction;
        self
    }

    /// The budget this ledger audits against.
    pub fn cluster_budget(&self) -> Power {
        self.cluster_budget
    }

    /// Check rules 1 and 2 on a finished plan without enforcing.
    pub fn try_audit_plan(&self, plan: &SchedulePlan) -> Result<(), AuditViolation> {
        let total = plan.total_caps();
        if total.as_watts() > self.cluster_budget.as_watts() + TOLERANCE_WATTS {
            return Err(self.violation(
                AuditRule::ClusterBudget,
                format!(
                    "caps sum to {:.6} W over a {:.6} W budget ({} nodes)",
                    total.as_watts(),
                    self.cluster_budget.as_watts(),
                    plan.nodes()
                ),
            ));
        }
        if let Some(cap) = self.node_cap {
            for (i, caps) in plan.caps.iter().enumerate() {
                if caps.total().as_watts() > cap.as_watts() + TOLERANCE_WATTS {
                    return Err(self.violation(
                        AuditRule::NodeCap,
                        format!(
                            "node slot {i}: cpu {:.3} W + dram {:.3} W exceeds node capacity {:.3} W",
                            caps.cpu.as_watts(),
                            caps.dram.as_watts(),
                            cap.as_watts()
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Check rule 3 — a variability shift preserved the CPU sum and the
    /// total sum — without enforcing.
    pub fn try_audit_shift(
        &self,
        before: &[PowerCaps],
        after: &[PowerCaps],
    ) -> Result<(), AuditViolation> {
        if before.len() != after.len() {
            return Err(self.violation(
                AuditRule::ZeroSum,
                format!(
                    "shift changed node count: {} → {}",
                    before.len(),
                    after.len()
                ),
            ));
        }
        self.check_shift_sums(before.iter().copied(), after)
    }

    /// Rule 3's sums: the CPU and the total sums of `before` and `after`
    /// agree within the tolerance.
    fn check_shift_sums(
        &self,
        before: impl Iterator<Item = PowerCaps> + Clone,
        after: &[PowerCaps],
    ) -> Result<(), AuditViolation> {
        let cpu_before: f64 = before.clone().map(|c| c.cpu.as_watts()).sum();
        let cpu_after: f64 = after.iter().map(|c| c.cpu.as_watts()).sum();
        if (cpu_before - cpu_after).abs() > TOLERANCE_WATTS {
            return Err(self.violation(
                AuditRule::ZeroSum,
                format!("shift changed the CPU sum: {cpu_before:.6} W → {cpu_after:.6} W"),
            ));
        }
        let tot_before: f64 = before.map(|c| c.total().as_watts()).sum();
        let tot_after: f64 = after.iter().map(|c| c.total().as_watts()).sum();
        if (tot_before - tot_after).abs() > TOLERANCE_WATTS {
            return Err(self.violation(
                AuditRule::ZeroSum,
                format!("shift changed the total sum: {tot_before:.6} W → {tot_after:.6} W"),
            ));
        }
        Ok(())
    }

    /// Classify a *measured* cluster power reading against the budget,
    /// without enforcing.
    ///
    /// Programmed caps are checked by [`BudgetLedger::try_audit_plan`];
    /// this check closes the loop on what the hardware actually drew.
    /// Overshoot up to `Σ cpu-caps × injected_jitter` is attributed to the
    /// declared actuation fault ([`ActuationCheck::InjectedJitter`]);
    /// anything beyond that is a genuine violation — the scheduler
    /// programmed caps it had no right to.
    pub fn try_audit_actuation(
        &self,
        plan: &SchedulePlan,
        measured: Power,
    ) -> Result<ActuationCheck, AuditViolation> {
        let drawn = measured.as_watts();
        if drawn <= self.cluster_budget.as_watts() + TOLERANCE_WATTS {
            return Ok(ActuationCheck::Nominal);
        }
        let allowance: f64 =
            plan.caps.iter().map(|c| c.cpu.as_watts()).sum::<f64>() * self.injected_jitter;
        if drawn <= self.cluster_budget.as_watts() + allowance + TOLERANCE_WATTS {
            return Ok(ActuationCheck::InjectedJitter);
        }
        Err(self.violation(
            AuditRule::Actuation,
            format!(
                "measured {:.6} W over a {:.6} W budget exceeds the {:.3}% jitter allowance",
                drawn,
                self.cluster_budget.as_watts(),
                self.injected_jitter * 100.0
            ),
        ))
    }

    /// Enforce the actuation check: violations panic in debug / count in
    /// release; bounded overshoot is reported, not punished.
    ///
    /// Generic over the telemetry recorder: emits an
    /// [`clip_obs::TraceEvent::ActuationAudited`] carrying the verdict and
    /// bumps `actuation_injected_total` when overshoot is attributed to
    /// the declared jitter. With the [`clip_obs::NoopRecorder`] the hooks
    /// compile away.
    pub fn audit_actuation<R: clip_obs::Recorder>(
        &self,
        plan: &SchedulePlan,
        measured: Power,
        epoch: u64,
        rec: &mut R,
    ) -> ActuationCheck {
        let check = match self.try_audit_actuation(plan, measured) {
            Ok(check) => check,
            Err(v) => {
                enforce(&v);
                ActuationCheck::Nominal
            }
        };
        if rec.enabled() {
            let verdict = match check {
                ActuationCheck::Nominal => clip_obs::ActuationTag::Nominal,
                ActuationCheck::InjectedJitter => {
                    rec.counter_add("actuation_injected_total", 1);
                    clip_obs::ActuationTag::InjectedJitter
                }
            };
            rec.event_with(epoch, clip_obs::EventClass::Actuation, || {
                clip_obs::TraceEvent::ActuationAudited {
                    budget: self.cluster_budget,
                    measured,
                    verdict,
                }
            });
        }
        check
    }

    /// Enforce rules 1 and 2 on a finished plan.
    pub fn audit_plan(&self, plan: &SchedulePlan) {
        if let Err(v) = self.try_audit_plan(plan) {
            enforce(&v);
        }
    }

    /// Enforce rule 3 on a variability shift.
    pub fn audit_shift(&self, before: &[PowerCaps], after: &[PowerCaps]) {
        if let Err(v) = self.try_audit_shift(before, after) {
            enforce(&v);
        }
    }

    /// Enforce rule 3 on a shift away from `uniform` caps on every node:
    /// [`BudgetLedger::audit_shift`] with `after.len()` copies of `uniform`
    /// before it, without building them.
    pub fn audit_uniform_shift(&self, uniform: PowerCaps, after: &[PowerCaps]) {
        let before = std::iter::repeat_n(uniform, after.len());
        if let Err(v) = self.check_shift_sums(before, after) {
            enforce(&v);
        }
    }

    fn violation(&self, rule: AuditRule, detail: String) -> AuditViolation {
        AuditViolation {
            scheduler: self.scheduler.to_string(),
            rule,
            detail,
        }
    }
}

#[cfg(debug_assertions)]
fn enforce(v: &AuditViolation) {
    panic!("budget audit violation: {v}");
}

#[cfg(not(debug_assertions))]
fn enforce(_v: &AuditViolation) {
    VIOLATIONS.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnode::AffinityPolicy;

    fn plan(caps: Vec<PowerCaps>) -> SchedulePlan {
        SchedulePlan {
            scheduler: "test".to_string(),
            node_ids: (0..caps.len()).collect(),
            threads_per_node: 24,
            policy: AffinityPolicy::Compact,
            caps,
        }
    }

    fn caps(cpu: f64, dram: f64) -> PowerCaps {
        PowerCaps::new(Power::watts(cpu), Power::watts(dram))
    }

    #[test]
    fn legal_plan_passes() {
        let ledger = BudgetLedger::new("t", Power::watts(400.0));
        let p = plan(vec![caps(150.0, 40.0), caps(150.0, 40.0)]);
        assert!(ledger.try_audit_plan(&p).is_ok());
    }

    #[test]
    fn over_budget_plan_is_caught() {
        let ledger = BudgetLedger::new("t", Power::watts(300.0));
        let p = plan(vec![caps(150.0, 40.0), caps(150.0, 40.0)]);
        let v = ledger.try_audit_plan(&p).unwrap_err();
        assert_eq!(v.rule, AuditRule::ClusterBudget);
    }

    #[test]
    fn tolerance_absorbs_float_noise() {
        let ledger = BudgetLedger::new("t", Power::watts(380.0));
        let p = plan(vec![caps(150.0, 40.0), caps(150.0 + 1e-9, 40.0)]);
        assert!(ledger.try_audit_plan(&p).is_ok());
    }

    #[test]
    fn node_cap_is_checked_when_bound() {
        let ledger =
            BudgetLedger::new("t", Power::watts(1000.0)).with_node_cap(Power::watts(180.0));
        let p = plan(vec![caps(150.0, 40.0)]);
        let v = ledger.try_audit_plan(&p).unwrap_err();
        assert_eq!(v.rule, AuditRule::NodeCap);
        let ok = plan(vec![caps(140.0, 40.0)]);
        assert!(ledger.try_audit_plan(&ok).is_ok());
    }

    #[test]
    fn zero_sum_shift_passes() {
        let ledger = BudgetLedger::new("t", Power::watts(400.0));
        let before = vec![caps(150.0, 40.0), caps(150.0, 40.0)];
        let after = vec![caps(140.0, 40.0), caps(160.0, 40.0)];
        assert!(ledger.try_audit_shift(&before, &after).is_ok());
    }

    #[test]
    fn watt_creating_shift_is_caught() {
        let ledger = BudgetLedger::new("t", Power::watts(400.0));
        let before = vec![caps(150.0, 40.0), caps(150.0, 40.0)];
        let after = vec![caps(150.0, 40.0), caps(160.0, 40.0)];
        let v = ledger.try_audit_shift(&before, &after).unwrap_err();
        assert_eq!(v.rule, AuditRule::ZeroSum);
    }

    #[test]
    fn shift_moving_dram_is_caught_by_total_sum() {
        let ledger = BudgetLedger::new("t", Power::watts(400.0));
        // CPU sum preserved but DRAM grew: total-sum check fires.
        let before = vec![caps(150.0, 40.0), caps(150.0, 40.0)];
        let after = vec![caps(140.0, 50.0), caps(160.0, 45.0)];
        let v = ledger.try_audit_shift(&before, &after).unwrap_err();
        assert_eq!(v.rule, AuditRule::ZeroSum);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "budget audit violation")]
    fn enforcing_audit_panics_in_debug() {
        let ledger = BudgetLedger::new("t", Power::watts(100.0));
        let p = plan(vec![caps(150.0, 40.0)]);
        ledger.audit_plan(&p);
    }

    #[test]
    fn nominal_actuation_within_budget() {
        let ledger = BudgetLedger::new("t", Power::watts(400.0));
        let p = plan(vec![caps(150.0, 40.0), caps(150.0, 40.0)]);
        let check = ledger.try_audit_actuation(&p, Power::watts(375.0)).unwrap();
        assert_eq!(check, ActuationCheck::Nominal);
    }

    #[test]
    fn bounded_overshoot_attributed_to_injected_jitter() {
        let ledger = BudgetLedger::new("t", Power::watts(380.0)).with_injected_jitter(0.05);
        let p = plan(vec![caps(150.0, 40.0), caps(150.0, 40.0)]);
        // 300 W of CPU caps × 5% = 15 W allowance; 390 W is 10 W over.
        let check = ledger.try_audit_actuation(&p, Power::watts(390.0)).unwrap();
        assert_eq!(check, ActuationCheck::InjectedJitter);
    }

    #[test]
    fn overshoot_beyond_allowance_is_a_violation() {
        let ledger = BudgetLedger::new("t", Power::watts(380.0)).with_injected_jitter(0.05);
        let p = plan(vec![caps(150.0, 40.0), caps(150.0, 40.0)]);
        let v = ledger
            .try_audit_actuation(&p, Power::watts(400.0))
            .unwrap_err();
        assert_eq!(v.rule, AuditRule::Actuation);
        assert!(v.to_string().contains("actuation"), "{v}");
    }

    #[test]
    fn overshoot_without_declared_jitter_is_a_violation() {
        let ledger = BudgetLedger::new("t", Power::watts(380.0));
        let p = plan(vec![caps(150.0, 40.0), caps(150.0, 40.0)]);
        let v = ledger
            .try_audit_actuation(&p, Power::watts(381.0))
            .unwrap_err();
        assert_eq!(v.rule, AuditRule::Actuation);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "budget audit violation")]
    fn enforcing_actuation_audit_panics_in_debug() {
        let ledger = BudgetLedger::new("t", Power::watts(100.0));
        let p = plan(vec![caps(150.0, 40.0)]);
        let _ = ledger.audit_actuation(&p, Power::watts(200.0), 0, &mut clip_obs::NoopRecorder);
    }

    #[test]
    fn violation_message_names_rule_and_scheduler() {
        let ledger = BudgetLedger::new("CLIP", Power::watts(100.0));
        let p = plan(vec![caps(150.0, 40.0)]);
        let v = ledger.try_audit_plan(&p).unwrap_err();
        let msg = v.to_string();
        assert!(
            msg.contains("cluster-budget") && msg.contains("CLIP"),
            "{msg}"
        );
    }
}
