#![warn(missing_docs)]

//! # simnode — NUMA multicore node hardware simulator
//!
//! A software stand-in for the paper's testbed node (dual-socket Intel Xeon
//! E5-2670v3 "Haswell", 12 cores/socket, DDR4 on two NUMA domains) exposing
//! exactly the observables and actuators the CLIP framework uses:
//!
//! - [`topology`]: sockets / cores / NUMA domains and core identifiers.
//! - [`dvfs`]: the P-state table and duty-cycle throttling below `f_min`.
//! - [`power`]: the analytic power model — per-core dynamic power `c0+c1·f³`,
//!   socket base (uncore) power, DRAM base + load power (DESIGN.md §4.2).
//! - [`rapl`]: a RAPL-like controller enforcing PKG and DRAM power caps by
//!   frequency selection / duty-cycling / bandwidth throttling, with energy
//!   accounting counters.
//! - [`memory`]: per-socket bandwidth ceilings, the NUMA remote-access
//!   penalty, and DRAM-cap-induced throttling.
//! - [`affinity`]: thread-to-core mapping policies (compact / scatter /
//!   explicit) and the derived per-socket occupancy and remote-access
//!   fraction.
//! - [`events`]: the Table I PMU events, synthesized from the analytic
//!   execution model.
//! - [`node`]: ties everything together — resolve an operating point under
//!   caps, execute a workload for some iterations, report time / power /
//!   energy / events, or replay the last execution when caps and
//!   [`PowerState`] are unchanged.
//!
//! The application performance model itself lives in the `workload` crate;
//! it plugs in through the [`node::NodeWorkload`] trait defined here.

pub mod affinity;
pub mod dvfs;
pub mod events;
pub mod memory;
pub mod node;
pub mod power;
pub mod rapl;
pub mod topology;

pub use affinity::{AffinityPolicy, Placement};
pub use dvfs::PStateTable;
pub use events::{EventCounters, HwEvent};
pub use node::{ExecutionReport, Node, NodeWorkload, OperatingPoint, PowerState};
pub use power::PowerModel;
pub use rapl::{PowerCaps, RaplController};
pub use topology::{NodeTopology, MAX_SOCKETS};
