#![warn(missing_docs)]

//! # workload — application models for the CLIP reproduction
//!
//! The paper evaluates CLIP with ten hybrid MPI/OpenMP proxy applications
//! (Table II). We cannot run CoMD or TeaLeaf here, so this crate provides
//! analytic stand-ins that reproduce the properties CLIP actually depends
//! on: the scalability shape (linear / logarithmic / parabolic, paper §II),
//! memory intensity, NUMA sensitivity, and power draw.
//!
//! - [`class`]: the three scalability classes and the half/all-core ratio
//!   thresholds the paper classifies by.
//! - [`phase`]: the single-phase analytic kernel model — serial, parallel
//!   compute, bandwidth-limited memory, and contention terms (DESIGN.md
//!   §4.1).
//! - [`app`]: multi-phase applications implementing
//!   [`simnode::NodeWorkload`], plus MPI strong-scaling and the cluster
//!   communication model.
//! - [`suite`]: the Table II benchmark instances (BT-MZ, LU-MZ, SP-MZ, CoMD,
//!   AMG, miniAero, miniMD, TeaLeaf, CloverLeaf ×2) and the auxiliary
//!   EP/STREAM-like kernels used in the paper's Figures 2–3.
//! - [`phased`]: phase-by-phase execution with per-phase concurrency (the
//!   paper's §V-B BT-MZ treatment).
//! - [`corpus`]: the synthetic training corpus standing in for the paper's
//!   NPB/HPCC/STREAM/PolyBench model-training set.

pub mod analysis;
pub mod app;
pub mod class;
pub mod corpus;
pub mod phase;
pub mod phased;
pub mod suite;

pub use analysis::Characterization;
pub use app::{AppModel, CommModel, RankInputs, RankView};
pub use class::ScalabilityClass;
pub use phase::Phase;
pub use phased::{execute_phased, PhasePlan, PhasedReport};
pub use suite::{table2_suite, BenchmarkEntry};
