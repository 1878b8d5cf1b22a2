//! The structured trace vocabulary: every scheduler decision point as data.
//!
//! A trace is a sequence of [`TraceRecord`]s, each stamping one
//! [`TraceEvent`] with a monotone sequence number and the coordination
//! epoch of the deterministic sim clock — never wall time, so two
//! identically seeded runs serialize to byte-identical JSONL.
//!
//! `clip-obs` sits below `cluster_sim` and `clip_core` in the dependency
//! graph, so fault kinds and audit verdicts are mirrored here as obs-local
//! tag enums ([`FaultTag`], [`ImpactTag`], [`ActuationTag`]); the owning
//! crates provide the `From` conversions. All of these are domain enums
//! under `clip-lint`: matches over them must stay exhaustive.
//!
//! Each enum here is declared once, as a table: every variant row carries
//! its doc, its explicit wire tag and its fields, and [`TraceEvent`]'s rows
//! also name their [`EventClass`]. The table generates the enum (with its
//! serde derive, so the JSONL export is the derive's output), the binary
//! codec of [`crate::wire`] and [`TraceEvent::class`]. A new event is one
//! row.

use crate::metrics::MetricRegistry;
use crate::wire::{Cursor, Wire, WireError};
use serde::{Deserialize, Serialize};
use simkit::{Frequency, Power, TimeSpan};

/// Declares an enum from a table of variants, each row marked
/// `#[wire(tag)]`, and implements the wire codec for it: the tag byte,
/// then the variant's fields in declaration order, each in its type's
/// encoding. A repeated tag is a compile error (the decoder denies
/// unreachable patterns).
///
/// Rows marked `#[wire(tag, Class)]` declare [`TraceEvent`]: they also
/// generate [`TraceEvent::class`] and the `tag` consts, one per variant,
/// that the codec writes.
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $(
                $(#[doc = $doc:literal])*
                #[wire($tag:literal, $class:ident)]
                $variant:ident $({ $($fields:tt)* })?
            ),* $(,)?
        }
    ) => {
        impl $name {
            /// The recording class this event belongs to (the filtering
            /// unit).
            pub fn class(&self) -> EventClass {
                match self {
                    $($name::$variant { .. } => EventClass::$class,)*
                }
            }
        }

        /// Each event's wire tag, named after its variant.
        #[allow(non_upper_case_globals)]
        pub(crate) mod tag {
            $(pub(crate) const $variant: u8 = $tag;)*
        }

        wire_enum! {
            $(#[$meta])*
            pub enum $name {
                $($(#[doc = $doc])* #[wire(tag::$variant)] $variant $({ $($fields)* })?,)*
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $(
                $(#[doc = $doc:literal])*
                #[wire($($tag:tt)+)]
                $variant:ident $({
                    $($(#[doc = $field_doc:literal])* $field:ident: $ty:ty),* $(,)?
                })?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $(
                $(#[doc = $doc])*
                $variant $({ $($(#[doc = $field_doc])* $field: $ty,)* })?,
            )*
        }

        impl Wire for $name {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($name::$variant { $($($field),*)? } => {
                        out.push($($tag)+);
                        $($($field.put(out);)*)?
                    })*
                }
            }

            #[deny(unreachable_patterns)]
            fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
                Ok(match cur.byte()? {
                    $($($tag)+ => $name::$variant { $($($field: Wire::get(cur)?,)*)? },)*
                    unknown => return Err(WireError::BadTag(unknown)),
                })
            }
        }
    };
}

wire_enum! {
    /// Obs-local mirror of `cluster_sim::FaultKind` (obs cannot depend on
    /// the cluster crate without inverting the instrumentation dependency).
    #[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
    pub enum FaultTag {
        /// The node dropped out of the pool entirely.
        #[wire(0)]
        Crash,
        /// The node turned straggler; its efficiency factor was multiplied.
        #[wire(1)]
        Straggler {
            /// Multiplier applied to the node's efficiency factor.
            factor: f64,
        },
        /// The RAPL enforcement loop developed a signed actuation error.
        #[wire(2)]
        CapJitter {
            /// Signed actuation-error fraction in (−1, 1).
            fraction: f64,
        },
        /// Slow manufacturing-variability drift.
        #[wire(3)]
        Drift {
            /// Multiplier applied to the node's efficiency factor.
            factor: f64,
        },
    }
}

wire_enum! {
    /// Obs-local mirror of `cluster_sim::FaultImpact`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
    pub enum ImpactTag {
        /// The schedulable pool or its efficiency profile changed.
        #[wire(0)]
        PoolChanged,
        /// Only cap actuation changed; the plan stayed valid.
        #[wire(1)]
        ActuationOnly,
        /// The event targeted a dead/out-of-range node and was dropped.
        #[wire(2)]
        Ignored,
    }
}

wire_enum! {
    /// Obs-local mirror of `clip_core::audit::ActuationCheck`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
    pub enum ActuationTag {
        /// Measured power within the budget.
        #[wire(0)]
        Nominal,
        /// Overshoot within the declared injected-jitter allowance.
        #[wire(1)]
        InjectedJitter,
    }
}

wire_enum! {
    /// Obs-local mirror of `clip_serve::RejectReason` (obs sits below the
    /// service crate in the dependency graph; `clip-serve` provides `From`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
    pub enum RejectTag {
        /// No power-feasible plan existed on the service pool.
        #[wire(0)]
        Infeasible,
        /// The queue ahead already guaranteed a blown SLO.
        #[wire(1)]
        SloHopeless,
    }
}

/// The five recording classes a [`TraceEvent`] can belong to, the unit of
/// filtering in [`crate::TraceFilter`]: a recorder can keep, say, fault
/// and service events while dropping per-node actuation detail, and the
/// dropped classes cost one branch and zero allocation at the emit site.
///
/// Every row of the [`TraceEvent`] table names its class in a required
/// column, so a new event cannot be left unclassified. A domain enum under
/// `clip-lint`: matches must stay exhaustive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum EventClass {
    /// Coordination and planning: run/epoch lifecycle, allocate/plan
    /// decisions, dispatcher grants, the closing metrics snapshot.
    Scheduler,
    /// Per-node actuation detail: RAPL programming, DVFS resolution,
    /// power samples, audit verdicts.
    Actuation,
    /// Fault injection and recovery.
    Fault,
    /// Open-loop service lifecycle: arrivals, admission, preemption,
    /// autoscaling, SLO verdicts.
    Service,
    /// Sharded-campaign arbitration: rack grants and crashes.
    Shard,
}

impl EventClass {
    /// All classes, in declaration (= bit) order.
    pub const ALL: [EventClass; 5] = [
        EventClass::Scheduler,
        EventClass::Actuation,
        EventClass::Fault,
        EventClass::Service,
        EventClass::Shard,
    ];

    /// The class's bit in a [`crate::TraceFilter`] bitset.
    pub(crate) fn bit(self) -> u8 {
        match self {
            EventClass::Scheduler => 1 << 0,
            EventClass::Actuation => 1 << 1,
            EventClass::Fault => 1 << 2,
            EventClass::Service => 1 << 3,
            EventClass::Shard => 1 << 4,
        }
    }

    /// Short lowercase label (`scheduler`, `actuation`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            EventClass::Scheduler => "scheduler",
            EventClass::Actuation => "actuation",
            EventClass::Fault => "fault",
            EventClass::Service => "service",
            EventClass::Shard => "shard",
        }
    }
}

wire_enum! {
    /// One telemetry event at a scheduler decision point.
    ///
    /// Variants carry only primitives and `simkit` quantities so the trace
    /// is self-contained: `clip-trace` reconstructs timelines without
    /// linking the scheduler crates. Each row gives the variant's wire tag
    /// and its [`EventClass`]: `#[wire(tag, Class)]`.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub enum TraceEvent {
        /// A harness run began (one per scheduler per trace file).
        #[wire(0, Scheduler)]
        RunStarted {
            /// Scheduler name as used in the paper's figures.
            scheduler: String,
            /// Constant cluster budget held throughout the run.
            budget: Power,
            /// Fleet size at the start of the run.
            nodes: usize,
            /// Coordination epochs the harness will simulate.
            epochs: u64,
        },
        /// Variability coordination measured the pool (§III-B2): the
        /// decision whether to engage cap shifting.
        #[wire(1, Scheduler)]
        CoordinateMeasured {
            /// Node indices that were measured.
            pool: Vec<usize>,
            /// Relative efficiency spread across the pool.
            spread: f64,
            /// Whether the spread exceeded the threshold and shifting
            /// engaged.
            engaged: bool,
        },
        /// Hierarchical allocation chose the cluster-level configuration
        /// (Algorithm 1): node count, concurrency, uniform per-node cap.
        #[wire(2, Scheduler)]
        AllocateChosen {
            /// Participating node count.
            nodes: usize,
            /// OpenMP threads per node.
            threads: usize,
            /// Uniform per-node cap before variability shifting.
            per_node_cap: Power,
        },
        /// A `plan`/`plan_subset` call returned.
        #[wire(3, Scheduler)]
        PlanComputed {
            /// Scheduler that produced the plan.
            scheduler: String,
            /// Participating node count.
            nodes: usize,
            /// OpenMP threads per node.
            threads_per_node: usize,
            /// Sum of the programmed caps.
            caps_total: Power,
        },
        /// One node's slot in the committed plan.
        #[wire(4, Scheduler)]
        PlanNode {
            /// Fleet index of the node.
            node: usize,
            /// Programmed CPU (package) cap.
            cpu: Power,
            /// Programmed DRAM cap.
            dram: Power,
        },
        /// A fault event fired against the cluster.
        #[wire(5, Fault)]
        FaultApplied {
            /// Targeted node.
            node: usize,
            /// What happened to it.
            kind: FaultTag,
            /// What applying it did to the pool.
            impact: ImpactTag,
        },
        /// The scheduler re-coordinated after a pool change.
        #[wire(6, Fault)]
        Recovered {
            /// Epoch at which the pool-changing fault fired.
            fault_epoch: u64,
            /// Epoch at whose boundary the scheduler re-coordinated.
            recovered_epoch: u64,
            /// Wall time spent degraded.
            time_to_recover: TimeSpan,
            /// Power reclaimed from crashed nodes.
            reclaimed: Power,
        },
        /// RAPL caps were programmed on a node (actuation layer).
        #[wire(7, Actuation)]
        RaplProgrammed {
            /// Fleet index of the node.
            node: usize,
            /// Programmed CPU cap (the setpoint).
            cpu: Power,
            /// Programmed DRAM cap.
            dram: Power,
            /// The CPU cap the enforcement loop will actually hold
            /// (setpoint shifted by any injected actuation jitter).
            effective_cpu: Power,
        },
        /// DVFS resolved the operating point under the programmed caps.
        #[wire(8, Actuation)]
        DvfsResolved {
            /// Fleet index of the node.
            node: usize,
            /// Thread count of the placement.
            threads: usize,
            /// Throughput-equivalent core frequency.
            frequency: Frequency,
            /// Whether the package cap forced duty-cycling below f_min.
            throttled: bool,
        },
        /// Per-node power telemetry for one executed epoch: programmed
        /// setpoint versus barrier-blended measured draw.
        #[wire(9, Actuation)]
        NodePowerSample {
            /// Fleet index of the node.
            node: usize,
            /// Programmed total cap (CPU + DRAM setpoint).
            setpoint: Power,
            /// Measured barrier-blended average power.
            measured: Power,
            /// Fraction of the epoch spent waiting at the barrier.
            wait_fraction: f64,
        },
        /// The ledger classified an epoch's measured power against the
        /// budget.
        #[wire(10, Actuation)]
        ActuationAudited {
            /// The budget audited against.
            budget: Power,
            /// Measured cluster power.
            measured: Power,
            /// The ledger's verdict.
            verdict: ActuationTag,
        },
        /// One coordination epoch finished executing.
        #[wire(11, Scheduler)]
        EpochCompleted {
            /// The cluster budget in force.
            budget: Power,
            /// Sum of the programmed caps this epoch.
            caps_total: Power,
            /// Measured cluster power.
            measured: Power,
            /// Epoch performance, iterations per second.
            performance: f64,
            /// Epoch wall time.
            wall: TimeSpan,
            /// Whether the scheduler re-planned at this epoch's boundary.
            replanned: bool,
        },
        /// The queue dispatcher started a job.
        #[wire(12, Scheduler)]
        JobDispatched {
            /// Application name.
            job: String,
            /// Sim time the job started.
            start: TimeSpan,
            /// Nodes granted.
            nodes: usize,
            /// Power granted (sum of the trimmed caps).
            granted: Power,
        },
        /// A sharded (two-level) campaign began: the cluster-level arbiter
        /// took the global bound over a rack topology.
        #[wire(13, Shard)]
        ShardRunStarted {
            /// Global power bound split across the racks.
            budget: Power,
            /// Number of racks.
            racks: usize,
            /// Total nodes across the racks.
            nodes: usize,
            /// Coordination epochs the campaign will simulate.
            epochs: u64,
        },
        /// The arbiter granted (or re-granted) one rack's share of the
        /// global bound at an epoch boundary.
        #[wire(14, Shard)]
        RackGranted {
            /// Rack index.
            rack: usize,
            /// The rack's budget from this epoch on.
            granted: Power,
            /// The rack's reported demand (programmed caps) driving the
            /// grant.
            demand: Power,
            /// Alive nodes in the rack at grant time.
            alive: usize,
        },
        /// An entire rack dropped out of the campaign; its grant returns
        /// to the arbiter's pool for redistribution to the survivors.
        #[wire(15, Shard)]
        RackCrashed {
            /// Rack index.
            rack: usize,
            /// Epoch at which the rack died.
            at_epoch: u64,
            /// Watts reclaimed from the dead rack's grant.
            reclaimed: Power,
        },
        /// An open-loop service job arrived (before any admission
        /// decision).
        #[wire(16, Service)]
        JobArrived {
            /// Monotone job id within the service run.
            job: u64,
            /// Tenant name.
            tenant: String,
            /// Application name.
            app: String,
            /// Iterations of work the job carries.
            iterations: u64,
        },
        /// Admission accepted a job into the service queue.
        #[wire(17, Service)]
        JobAdmitted {
            /// Monotone job id within the service run.
            job: u64,
            /// Tenant name.
            tenant: String,
            /// Queue depth after the job joined.
            queued: usize,
            /// Whether the feasibility trial only fit a degraded
            /// (smaller-than-pool) plan.
            degraded: bool,
        },
        /// Admission turned a job away.
        #[wire(18, Service)]
        JobRejected {
            /// Monotone job id within the service run.
            job: u64,
            /// Tenant name.
            tenant: String,
            /// Why admission refused it.
            reason: RejectTag,
        },
        /// A higher-priority tenant preempted the running job.
        #[wire(19, Service)]
        JobPreempted {
            /// The job that lost the pool.
            job: u64,
            /// Tenant name of the preempted job.
            tenant: String,
            /// The job that took over.
            by: u64,
            /// Iterations the preempted job still owes.
            remaining_iterations: u64,
        },
        /// The service autoscaler resized its node pool and re-drew its
        /// zero-sum share of the cluster budget.
        #[wire(20, Service)]
        PoolScaled {
            /// Pool size before the decision.
            nodes_before: usize,
            /// Pool size after the decision.
            nodes_after: usize,
            /// Service power grant after the decision.
            granted: Power,
        },
        /// A completed job's latency was judged against its tenant's SLO.
        #[wire(21, Service)]
        SloEvaluated {
            /// Monotone job id within the service run.
            job: u64,
            /// Tenant name.
            tenant: String,
            /// Arrival → completion latency, queueing included.
            latency: TimeSpan,
            /// The tenant's SLO.
            slo: TimeSpan,
            /// Whether the latency met the SLO.
            met: bool,
        },
        /// Final snapshot of the metric registry, emitted when a recorder
        /// is closed so `clip-trace` can summarize histograms.
        #[wire(22, Scheduler)]
        MetricsSnapshot {
            /// The registry at close time.
            metrics: MetricRegistry,
        },
    }
}

/// One line of a trace: an event stamped with its sequence number and the
/// sim-clock epoch it belongs to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Monotone per-recorder sequence number (total order of emission).
    pub seq: u64,
    /// Coordination epoch of the deterministic sim clock (0 outside any
    /// epoch loop, e.g. one-shot plans).
    pub epoch: u64,
    /// The event.
    pub event: TraceEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_through_json() {
        let records = vec![
            TraceRecord {
                seq: 0,
                epoch: 0,
                event: TraceEvent::RunStarted {
                    scheduler: "CLIP".to_string(),
                    budget: Power::watts(1500.0),
                    nodes: 8,
                    epochs: 6,
                },
            },
            TraceRecord {
                seq: 1,
                epoch: 2,
                event: TraceEvent::FaultApplied {
                    node: 3,
                    kind: FaultTag::CapJitter { fraction: -0.05 },
                    impact: ImpactTag::ActuationOnly,
                },
            },
            TraceRecord {
                seq: 2,
                epoch: 3,
                event: TraceEvent::Recovered {
                    fault_epoch: 2,
                    recovered_epoch: 3,
                    time_to_recover: TimeSpan::secs(12.5),
                    reclaimed: Power::watts(190.0),
                },
            },
        ];
        for rec in records {
            let json = serde_json::to_string(&rec).expect("serialize");
            let back: TraceRecord = serde_json::from_str(&json).expect("parse");
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn serialization_is_deterministic() {
        let rec = TraceRecord {
            seq: 7,
            epoch: 1,
            event: TraceEvent::DvfsResolved {
                node: 2,
                threads: 24,
                frequency: Frequency::ghz(1.9),
                throttled: false,
            },
        };
        let a = serde_json::to_string(&rec).expect("serialize");
        let b = serde_json::to_string(&rec).expect("serialize");
        assert_eq!(a, b);
        assert!(a.contains("\"DvfsResolved\""), "{a}");
    }
}
