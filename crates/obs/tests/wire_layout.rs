//! Golden pin of the binary wire layout.
//!
//! Every other wire test encodes and then decodes, so an encoder and a
//! decoder that drift *together* — two swapped event tags, two fields
//! written and read in a new order — pass all of them while every trace
//! archived before the drift stops decoding. This test pins the bytes
//! themselves: one fixed record per [`TraceEvent`] variant, one per
//! variant of each sub-enum ([`FaultTag`], [`ImpactTag`],
//! [`ActuationTag`], [`RejectTag`]), and a metrics snapshot holding a
//! counter, a gauge, an observed histogram and an empty one. The frames
//! are concatenated and their 64-bit FNV-1a and length compared with the
//! pinned values.
//!
//! A failure here means the wire layout changed. That is a schema change:
//! bump `wire::SCHEMA_VERSION`, then re-pin from the assertion message.

use clip_obs::{
    wire, ActuationTag, FaultTag, ImpactTag, MetricRegistry, RejectTag, TraceEvent, TraceRecord,
};
use simkit::{Frequency, Power, TimeSpan};

const GOLDEN_FNV: u64 = 0xd7f7_f73d_6f73_cc8f;
const GOLDEN_LEN: usize = 949;

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn w(watts: f64) -> Power {
    Power::watts(watts)
}

fn s(secs: f64) -> TimeSpan {
    TimeSpan::secs(secs)
}

/// The fixed events, every field holding a value distinct from its
/// neighbours so a reordering shows. Counts above 127 take multi-byte
/// varints, and the strings include multi-byte UTF-8.
fn events() -> Vec<TraceEvent> {
    let mut metrics = MetricRegistry::new();
    metrics.counter_add("epochs_total", 300);
    metrics.gauge_set("survivors", 7.5);
    metrics.observe("epoch_time_secs", 3.25);
    metrics.observe("epoch_time_secs", 900.0);
    metrics.register_histogram("never_observed", vec![1.0, 2.0]);

    let faults = [
        (FaultTag::Crash, ImpactTag::PoolChanged),
        (
            FaultTag::Straggler { factor: 1.75 },
            ImpactTag::ActuationOnly,
        ),
        (
            FaultTag::CapJitter { fraction: -0.0625 },
            ImpactTag::Ignored,
        ),
        (FaultTag::Drift { factor: 0.96875 }, ImpactTag::PoolChanged),
    ];
    let mut out = vec![
        TraceEvent::RunStarted {
            scheduler: "CLIP".to_string(),
            budget: w(1500.0),
            nodes: 8,
            epochs: 6,
        },
        TraceEvent::CoordinateMeasured {
            pool: vec![0, 3, 200],
            spread: 0.125,
            engaged: true,
        },
        TraceEvent::AllocateChosen {
            nodes: 6,
            threads: 24,
            per_node_cap: w(187.5),
        },
        TraceEvent::PlanComputed {
            scheduler: "Oracle".to_string(),
            nodes: 5,
            threads_per_node: 12,
            caps_total: w(1199.5),
        },
        TraceEvent::PlanNode {
            node: 2,
            cpu: w(150.0),
            dram: w(40.0),
        },
    ];
    out.extend(
        faults
            .into_iter()
            .enumerate()
            .map(|(node, (kind, impact))| TraceEvent::FaultApplied { node, kind, impact }),
    );
    out.extend([
        TraceEvent::Recovered {
            fault_epoch: 2,
            recovered_epoch: 3,
            time_to_recover: s(12.5),
            reclaimed: w(190.0),
        },
        TraceEvent::RaplProgrammed {
            node: 4,
            cpu: w(130.0),
            dram: w(35.0),
            effective_cpu: w(126.1),
        },
        TraceEvent::DvfsResolved {
            node: 1,
            threads: 16,
            frequency: Frequency::ghz(1.9),
            throttled: true,
        },
        TraceEvent::NodePowerSample {
            node: 7,
            setpoint: w(165.0),
            measured: w(158.25),
            wait_fraction: 0.0375,
        },
        TraceEvent::ActuationAudited {
            budget: w(1200.0),
            measured: w(1104.25),
            verdict: ActuationTag::Nominal,
        },
        TraceEvent::ActuationAudited {
            budget: w(900.0),
            measured: w(912.5),
            verdict: ActuationTag::InjectedJitter,
        },
        TraceEvent::EpochCompleted {
            budget: w(1250.0),
            caps_total: w(1180.5),
            measured: w(1099.0),
            performance: 0.0625,
            wall: s(3.5),
            replanned: false,
        },
        TraceEvent::JobDispatched {
            job: "miniMD".to_string(),
            start: s(60.0),
            nodes: 4,
            granted: w(640.0),
        },
        TraceEvent::ShardRunStarted {
            budget: w(1_750_000.0),
            racks: 100,
            nodes: 10_000,
            epochs: 60,
        },
        TraceEvent::RackGranted {
            rack: 17,
            granted: w(17_500.0),
            demand: w(16_875.0),
            alive: 99,
        },
        TraceEvent::RackCrashed {
            rack: 3,
            at_epoch: 2,
            reclaimed: w(2200.0),
        },
        TraceEvent::JobArrived {
            job: 41,
            tenant: "tenant-α".to_string(),
            app: "CoMD".to_string(),
            iterations: 5000,
        },
        TraceEvent::JobAdmitted {
            job: 42,
            tenant: "batch".to_string(),
            queued: 3,
            degraded: true,
        },
        TraceEvent::JobRejected {
            job: 43,
            tenant: "interactive".to_string(),
            reason: RejectTag::Infeasible,
        },
        TraceEvent::JobRejected {
            job: 44,
            tenant: "interactive".to_string(),
            reason: RejectTag::SloHopeless,
        },
        TraceEvent::JobPreempted {
            job: 45,
            tenant: "batch".to_string(),
            by: 46,
            remaining_iterations: 1234,
        },
        TraceEvent::PoolScaled {
            nodes_before: 6,
            nodes_after: 8,
            granted: w(1400.0),
        },
        TraceEvent::SloEvaluated {
            job: 47,
            tenant: "interactive".to_string(),
            latency: s(95.5),
            slo: s(120.0),
            met: true,
        },
        TraceEvent::MetricsSnapshot { metrics },
    ]);
    out
}

/// The fixed records: sequence numbers count up, and epochs include the
/// `u64::MAX` a closing snapshot carries.
fn records() -> Vec<TraceRecord> {
    let events = events();
    let last = events.len() - 1;
    events
        .into_iter()
        .enumerate()
        .map(|(i, event)| TraceRecord {
            seq: i as u64,
            epoch: if i == last { u64::MAX } else { (i as u64) * 37 },
            event,
        })
        .collect()
}

#[test]
fn wire_layout_is_pinned() {
    let mut bytes = Vec::new();
    for record in records() {
        let frame = wire::encode_frame(&record);
        let (back, rest) = wire::decode_frame(&frame).expect("own frame decodes");
        assert!(rest.is_empty());
        assert_eq!(back, record);
        bytes.extend_from_slice(&frame);
    }
    let hash = fnv1a64(&bytes);
    assert_eq!(
        (hash, bytes.len()),
        (GOLDEN_FNV, GOLDEN_LEN),
        "wire layout changed: new hash {hash:#018x} over {} bytes",
        bytes.len()
    );
}
