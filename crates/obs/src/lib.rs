#![warn(missing_docs)]

//! # clip-obs — deterministic telemetry for the CLIP reproduction
//!
//! CLIP's evaluation (§IV of the paper) is built on time series: per-node
//! power under RAPL caps, per-epoch performance, budget utilization. This
//! crate is the observability pillar that records them — next to the bench
//! (performance), faults (robustness) and clip-lint (correctness)
//! subsystems — without ever perturbing what it observes:
//!
//! - [`metrics`]: counters, gauges and fixed-bucket histograms keyed by
//!   `BTreeMap`, with Prometheus text exposition. No `HashMap`, no
//!   `Instant` (clippy's `disallowed_types` bans both under `crates/`):
//!   the registry serializes identically across identically seeded runs.
//! - [`event`]: a structured [`TraceEvent`] for every scheduler decision
//!   point — coordinate, allocate, per-node plan, fault application,
//!   re-coordination, RAPL/DVFS actuation — stamped with the sim clock,
//!   never wall time. Each variant is one row of a table that also gives
//!   its wire tag and its [`EventClass`].
//! - [`wire`]: the binary frame codec — varint-length-prefixed,
//!   FNV-checksummed, schema-versioned frames encoding each record once
//!   into a reused buffer, with total (panic-free) decoding that keeps
//!   every whole frame before a damaged one.
//! - [`sink`]: pluggable batch-oriented [`TraceSink`]s fed encoded
//!   frames: [`BinarySink`] (buffered file, bounded
//!   flush-on-N-frames/K-bytes) and [`RingSink`] (in-memory flight
//!   recorder). JSONL is an *export* format (`clip-trace export`), no
//!   longer a sink.
//! - [`recorder`]: the [`Recorder`] hook trait with an inlined no-op
//!   default ([`NoopRecorder`]) — static dispatch, zero allocations when
//!   telemetry is off — and the live [`TraceRecorder`], class-filtered by
//!   a [`TraceFilter`] bitset over [`EventClass`].
//!
//! The `clip-trace` binary (in `src/bin/`) loads binary or JSONL traces
//! and reports budget-utilization timelines, per-node setpoint-vs-actual
//! power, time-to-recover breakdowns and histogram summaries; its
//! `export` subcommand converts a binary trace to the JSONL the old
//! pipeline wrote, byte for byte.
//!
//! Determinism contract: identical `(seed, FaultPlan, scheduler config,
//! TraceFilter)` runs emit byte-identical traces. Everything that feeds a
//! record — sequence numbers, sim epochs, event payloads, registry
//! contents — is a pure function of the simulated run; the tests in
//! `tests/trace_replay.rs` (workspace root) pin this with a golden hash
//! over the JSONL export.

pub mod event;
pub mod metrics;
pub mod recorder;
pub mod sink;
pub mod wire;

pub use event::{
    ActuationTag, EventClass, FaultTag, ImpactTag, RejectTag, TraceEvent, TraceRecord,
};
pub use metrics::{Histogram, MetricKind, MetricRegistry};
pub use recorder::{NoopRecorder, Recorder, TraceFilter, TraceRecorder};
pub use sink::{BinarySink, RingSink, TraceSink};
pub use wire::WireError;
