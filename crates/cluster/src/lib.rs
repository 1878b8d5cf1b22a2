#![warn(missing_docs)]

//! # cluster-sim — the simulated power-bounded cluster
//!
//! Stand-in for the paper's 8-node Haswell testbed. Provides:
//!
//! - [`variability`]: per-node manufacturing-variability sampling — the
//!   lognormal efficiency factors that make identical caps yield different
//!   frequencies across nodes (paper §III-B2, after Inadomi et al.).
//! - [`fleet`]: the [`Cluster`] — an array of [`simnode::Node`]s with
//!   individually programmable RAPL caps.
//! - [`job`]: bulk-synchronous MPI-style job execution — strong-scale the
//!   application over the participating nodes, run every rank, synchronize
//!   on the slowest, add the communication term, account power including
//!   barrier-wait idling; [`job_time`] is the same job's wall time alone,
//!   and [`job_time_below`] stops timing ranks once that time is proven
//!   to reach a bound ([`first_rank_time_below`] times only the first).
//!   A [`JobMemo`] keeps the last job of every app with its report and
//!   replays a job that repeats one in place instead of simulating its
//!   ranks again.
//! - [`sweep`]: a small fork-join helper for parallel configuration sweeps
//!   (used by the exhaustive Oracle baseline and the figure harnesses).
//! - [`faults`]: deterministic, seeded fault injection — timelines of node
//!   crashes, stragglers, cap-actuation jitter, and variability drift that
//!   the degradation harness in `clip-core` replays against the fleet.
//! - [`shard`]: rack-level fleet partitioning — the racks × nodes-per-rack
//!   topology, global↔rack-local index translation, per-rack variability
//!   seeds, and fault-plan routing for the two-level coordinator in
//!   `clip_core::hierarchy` (ROADMAP item 1).

pub mod faults;
pub mod fleet;
pub mod job;
pub mod shard;
pub mod sweep;
pub mod variability;

pub use faults::{apply_event, FaultEvent, FaultImpact, FaultKind, FaultPlan};
pub use fleet::Cluster;
pub use job::{
    first_rank_time_below, job_time, job_time_below, run_job, JobMemo, JobReport, JobSpec,
    NodeOutcome,
};
pub use shard::{split_faults, RackTopology, ShardedFleet};
pub use variability::VariabilityModel;
