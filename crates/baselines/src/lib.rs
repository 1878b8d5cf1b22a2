#![warn(missing_docs)]

//! # baselines — the comparison schedulers of the CLIP evaluation (§V-C)
//!
//! Four methods share the [`clip_core::PowerScheduler`] interface:
//!
//! - [`AllIn`]: every node participates; each gets an equal share of the
//!   budget with 30 W pinned to memory and the rest to the CPU; all cores
//!   run. No application awareness at all.
//! - [`LowerLimit`]: like All-In, but never activates a node with less than
//!   a preset budget (180 W in the paper), shrinking the node count when
//!   the budget is tight.
//! - [`Coordinated`]: Ge et al. (ICPP'16) — application-specific node
//!   power floor and model-driven CPU/memory power coordination, but always
//!   at the highest concurrency (no thread throttling, no inflection
//!   points).
//! - [`Oracle`]: exhaustive search over node count × concurrency ×
//!   affinity × power split on the simulated cluster, as branch and bound:
//!   a candidate is timed only until one of its ranks proves it cannot
//!   strictly beat the best so far, which is exact because a job's time is
//!   its slowest rank plus communication.
//!   Not a paper method — it is the "optimal solution" CLIP is said to
//!   perform close to, and the reference for the EXPERIMENTS.md gap table.

pub mod allin;
pub mod coordinated;
pub mod lowerlimit;
pub mod oracle;

pub use allin::AllIn;
pub use coordinated::Coordinated;
pub use lowerlimit::LowerLimit;
pub use oracle::Oracle;

use simkit::Power;

/// The memory budget All-In and Lower-Limit pin per node (paper §V-C:
/// "allocating 30 watts to memory meets most applications' memory power
/// requirement").
pub const FIXED_DRAM_WATTS: f64 = 30.0;

/// Split a per-node budget the naive way: `FIXED_DRAM_WATTS` to memory,
/// the remainder to the CPU (floored at 1 W each so caps stay physical).
pub(crate) fn naive_split(per_node: Power) -> simnode::PowerCaps {
    let dram = FIXED_DRAM_WATTS.min(per_node.as_watts() * 0.5).max(1.0);
    let cpu = (per_node.as_watts() - dram).max(1.0);
    simnode::PowerCaps::new(Power::watts(cpu), Power::watts(dram))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_split_pins_30w_to_memory() {
        let caps = naive_split(Power::watts(200.0));
        assert_eq!(caps.dram, Power::watts(30.0));
        assert_eq!(caps.cpu, Power::watts(170.0));
    }

    #[test]
    fn naive_split_degrades_gracefully() {
        let caps = naive_split(Power::watts(40.0));
        assert!(caps.dram.as_watts() <= 20.0);
        assert!(caps.cpu.as_watts() >= 1.0);
        assert!(caps.total() <= Power::watts(40.0) + Power::watts(1e-9));
    }
}
