//! Property tests for the binary trace wire format: encode/decode
//! round-trips exactly for arbitrary records, corrupt and truncated
//! frames are rejected (never mis-decoded, never panicking), and the
//! JSONL export of a decoded record is byte-identical to serializing the
//! original — the invariant the golden FNV pins ride on.
//!
//! `MetricsSnapshot` is exercised by the exact-value unit tests in
//! `wire.rs` (including the empty-histogram `NEG_INFINITY` max); the
//! random strategies here cover every other variant.

use clip_obs::wire::Loss;
use clip_obs::{
    wire, ActuationTag, FaultTag, ImpactTag, RejectTag, RingSink, TraceEvent, TraceRecord,
    TraceSink, WireError,
};
use proptest::prelude::*;
use simkit::{Frequency, Power, TimeSpan};

fn name_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(97u8..123u8, 0..12)
        .prop_map(|v| String::from_utf8(v).expect("ascii letters"))
}

fn power_strategy() -> impl Strategy<Value = Power> {
    (0.0f64..4000.0).prop_map(Power::watts)
}

fn span_strategy() -> impl Strategy<Value = TimeSpan> {
    (0.0f64..900.0).prop_map(TimeSpan::secs)
}

fn freq_strategy() -> impl Strategy<Value = Frequency> {
    (0.4f64..4.2).prop_map(Frequency::ghz)
}

fn fault_tag_strategy() -> impl Strategy<Value = FaultTag> {
    prop_oneof![
        Just(FaultTag::Crash),
        (1.0f64..3.0).prop_map(|factor| FaultTag::Straggler { factor }),
        (-0.5f64..0.5).prop_map(|fraction| FaultTag::CapJitter { fraction }),
        (0.9f64..1.2).prop_map(|factor| FaultTag::Drift { factor }),
    ]
}

fn impact_tag_strategy() -> impl Strategy<Value = ImpactTag> {
    prop_oneof![
        Just(ImpactTag::PoolChanged),
        Just(ImpactTag::ActuationOnly),
        Just(ImpactTag::Ignored),
    ]
}

fn event_strategy() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        (name_strategy(), power_strategy(), 0usize..64, 0u64..1000).prop_map(
            |(scheduler, budget, nodes, epochs)| TraceEvent::RunStarted {
                scheduler,
                budget,
                nodes,
                epochs,
            }
        ),
        (
            proptest::collection::vec(0usize..64, 0..16),
            0.0f64..1.0,
            any::<u64>(),
        )
            .prop_map(|(pool, spread, bits)| TraceEvent::CoordinateMeasured {
                pool,
                spread,
                engaged: bits & 1 == 1,
            }),
        (0usize..64, 0usize..128, power_strategy()).prop_map(|(nodes, threads, per_node_cap)| {
            TraceEvent::AllocateChosen {
                nodes,
                threads,
                per_node_cap,
            }
        }),
        (name_strategy(), 0usize..64, 0usize..128, power_strategy()).prop_map(
            |(scheduler, nodes, threads_per_node, caps_total)| TraceEvent::PlanComputed {
                scheduler,
                nodes,
                threads_per_node,
                caps_total,
            }
        ),
        (0usize..64, power_strategy(), power_strategy())
            .prop_map(|(node, cpu, dram)| { TraceEvent::PlanNode { node, cpu, dram } }),
        (0usize..64, fault_tag_strategy(), impact_tag_strategy())
            .prop_map(|(node, kind, impact)| TraceEvent::FaultApplied { node, kind, impact }),
        (0u64..1000, 0u64..1000, span_strategy(), power_strategy()).prop_map(
            |(fault_epoch, recovered_epoch, time_to_recover, reclaimed)| TraceEvent::Recovered {
                fault_epoch,
                recovered_epoch,
                time_to_recover,
                reclaimed,
            }
        ),
        (
            0usize..64,
            power_strategy(),
            power_strategy(),
            power_strategy(),
        )
            .prop_map(
                |(node, cpu, dram, effective_cpu)| TraceEvent::RaplProgrammed {
                    node,
                    cpu,
                    dram,
                    effective_cpu,
                }
            ),
        (0usize..64, 0usize..128, freq_strategy(), any::<u64>()).prop_map(
            |(node, threads, frequency, bits)| TraceEvent::DvfsResolved {
                node,
                threads,
                frequency,
                throttled: bits & 1 == 1,
            }
        ),
        (0usize..64, power_strategy(), power_strategy(), 0.0f64..1.0).prop_map(
            |(node, setpoint, measured, wait_fraction)| TraceEvent::NodePowerSample {
                node,
                setpoint,
                measured,
                wait_fraction,
            }
        ),
        (
            power_strategy(),
            power_strategy(),
            prop_oneof![
                Just(ActuationTag::Nominal),
                Just(ActuationTag::InjectedJitter)
            ],
        )
            .prop_map(|(budget, measured, verdict)| TraceEvent::ActuationAudited {
                budget,
                measured,
                verdict,
            }),
        (
            power_strategy(),
            power_strategy(),
            power_strategy(),
            0.0f64..50.0,
            span_strategy(),
            any::<u64>(),
        )
            .prop_map(|(budget, caps_total, measured, performance, wall, bits)| {
                TraceEvent::EpochCompleted {
                    budget,
                    caps_total,
                    measured,
                    performance,
                    wall,
                    replanned: bits & 1 == 1,
                }
            }),
        (
            name_strategy(),
            span_strategy(),
            0usize..64,
            power_strategy()
        )
            .prop_map(|(job, start, nodes, granted)| TraceEvent::JobDispatched {
                job,
                start,
                nodes,
                granted,
            }),
        (power_strategy(), 0usize..16, 0usize..256, 0u64..1000).prop_map(
            |(budget, racks, nodes, epochs)| TraceEvent::ShardRunStarted {
                budget,
                racks,
                nodes,
                epochs,
            }
        ),
        (0usize..16, power_strategy(), power_strategy(), 0usize..64).prop_map(
            |(rack, granted, demand, alive)| TraceEvent::RackGranted {
                rack,
                granted,
                demand,
                alive,
            }
        ),
        (0usize..16, 0u64..1000, power_strategy()).prop_map(|(rack, at_epoch, reclaimed)| {
            TraceEvent::RackCrashed {
                rack,
                at_epoch,
                reclaimed,
            }
        }),
        (
            any::<u64>(),
            name_strategy(),
            name_strategy(),
            0u64..100_000
        )
            .prop_map(|(job, tenant, app, iterations)| TraceEvent::JobArrived {
                job,
                tenant,
                app,
                iterations,
            }),
        (any::<u64>(), name_strategy(), 0usize..64, any::<u64>()).prop_map(
            |(job, tenant, queued, bits)| TraceEvent::JobAdmitted {
                job,
                tenant,
                queued,
                degraded: bits & 1 == 1,
            }
        ),
        (
            any::<u64>(),
            name_strategy(),
            prop_oneof![Just(RejectTag::Infeasible), Just(RejectTag::SloHopeless)],
        )
            .prop_map(|(job, tenant, reason)| TraceEvent::JobRejected {
                job,
                tenant,
                reason
            }),
        (any::<u64>(), name_strategy(), any::<u64>(), 0u64..100_000).prop_map(
            |(job, tenant, by, remaining_iterations)| TraceEvent::JobPreempted {
                job,
                tenant,
                by,
                remaining_iterations,
            }
        ),
        (0usize..64, 0usize..64, power_strategy()).prop_map(
            |(nodes_before, nodes_after, granted)| TraceEvent::PoolScaled {
                nodes_before,
                nodes_after,
                granted,
            }
        ),
        (
            any::<u64>(),
            name_strategy(),
            span_strategy(),
            span_strategy(),
            any::<u64>(),
        )
            .prop_map(
                |(job, tenant, latency, slo, bits)| TraceEvent::SloEvaluated {
                    job,
                    tenant,
                    latency,
                    slo,
                    met: bits & 1 == 1,
                }
            ),
    ]
}

fn record_strategy() -> impl Strategy<Value = TraceRecord> {
    (any::<u64>(), any::<u64>(), event_strategy()).prop_map(|(seq, epoch, event)| TraceRecord {
        seq,
        epoch,
        event,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Every frame decodes back to exactly the record that produced it,
    /// with no bytes left over.
    #[test]
    fn frame_round_trips_exactly(record in record_strategy()) {
        let frame = wire::encode_frame(&record);
        let (decoded, rest) = wire::decode_frame(&frame).expect("own frame decodes");
        prop_assert!(rest.is_empty(), "one frame, no remainder");
        prop_assert_eq!(&decoded, &record);
    }

    /// The JSONL view of a decoded record is byte-identical to the JSONL
    /// view of the original: the wire format loses nothing the exporter
    /// (and the golden FNV pins over it) can observe.
    #[test]
    fn jsonl_export_is_byte_identical(record in record_strategy()) {
        let frame = wire::encode_frame(&record);
        let (decoded, _) = wire::decode_frame(&frame).expect("own frame decodes");
        let original = serde_json::to_string(&record).expect("serialize original");
        let exported = serde_json::to_string(&decoded).expect("serialize decoded");
        prop_assert_eq!(exported, original);
    }

    /// Every proper prefix of a frame is rejected as an error — no cut
    /// point panics or yields a record.
    #[test]
    fn truncation_at_every_cut_point_is_rejected(record in record_strategy()) {
        let frame = wire::encode_frame(&record);
        for cut in 0..frame.len() {
            prop_assert!(
                wire::decode_frame(&frame[..cut]).is_err(),
                "prefix of {cut}/{} bytes must not decode",
                frame.len()
            );
        }
    }

    /// Flipping any single bit of a frame is caught: the checksum (or a
    /// structural check the flip trips first) rejects the frame.
    #[test]
    fn single_bit_corruption_is_rejected(
        record in record_strategy(),
        flip in (0usize..4096, 0u8..8),
    ) {
        let frame = wire::encode_frame(&record);
        let (pos, bit) = flip;
        let pos = pos % frame.len();
        let mut bad = frame.clone();
        bad[pos] ^= 1 << bit;
        prop_assert!(
            wire::decode_frame(&bad).is_err(),
            "flipped bit {bit} of byte {pos}/{} must not decode",
            frame.len()
        );
    }

    /// A headered stream of frames round-trips through `decode_stream`,
    /// and the same frames pushed through a `RingSink` come back in
    /// order via `records()`.
    #[test]
    fn stream_and_ring_round_trip(records in proptest::collection::vec(record_strategy(), 0..8)) {
        let mut stream = Vec::new();
        wire::write_stream_header(&mut stream);
        let mut ring = RingSink::new(records.len().max(1));
        for record in &records {
            let frame = wire::encode_frame(record);
            stream.extend_from_slice(&frame);
            ring.write_frame(&frame);
        }
        let (decoded, loss) = wire::decode_stream(&stream).expect("stream decodes");
        prop_assert_eq!(loss, None);
        prop_assert_eq!(&decoded, &records);
        prop_assert_eq!(&ring.records(), &records);
    }

    /// A stream cut at any byte past its header decodes to exactly the
    /// frames that lie wholly before the cut, and reports the bytes after
    /// them as lost to truncation. A cut inside the header stays an error.
    #[test]
    fn a_cut_stream_keeps_every_whole_frame(
        records in proptest::collection::vec(record_strategy(), 1..5),
    ) {
        let (stream, lens) = stream_of(&records);
        let header = stream.len() - lens.iter().sum::<usize>();
        for cut in 0..header {
            prop_assert!(wire::decode_stream(&stream[..cut]).is_err(), "header cut at {cut}");
        }
        let mut end = header;
        let mut whole = 0;
        for cut in header..=stream.len() {
            while lens.get(whole).is_some_and(|len| end + len <= cut) {
                end += lens[whole];
                whole += 1;
            }
            let (decoded, loss) = wire::decode_stream(&stream[..cut]).expect("header intact");
            prop_assert_eq!(&decoded, &records[..whole], "cut at {}", cut);
            let lost = (cut > end).then_some(Loss { error: WireError::Truncated, bytes: cut - end });
            prop_assert_eq!(loss, lost, "cut at {}", cut);
        }
    }

    /// A frame whose checksum no longer matches stops decoding: the frames
    /// before it survive, and everything from it on is reported lost.
    #[test]
    fn a_corrupt_frame_keeps_the_prefix_before_it(
        records in proptest::collection::vec(record_strategy(), 1..6),
        pick in any::<usize>(),
    ) {
        let (mut stream, lens) = stream_of(&records);
        let bad = pick % records.len();
        let start = stream.len() - lens[bad..].iter().sum::<usize>();
        // The checksum is the frame's last four bytes.
        let checksum = start + lens[bad] - 1;
        stream[checksum] ^= 0x01;
        let (decoded, loss) = wire::decode_stream(&stream).expect("header intact");
        prop_assert_eq!(&decoded, &records[..bad]);
        let loss = loss.expect("the corrupt frame is reported");
        prop_assert!(matches!(loss.error, WireError::BadChecksum { .. }), "{:?}", loss.error);
        prop_assert_eq!(loss.bytes, stream.len() - start);
    }
}

/// A headered stream of `records`, one frame each, and each frame's
/// length in bytes.
fn stream_of(records: &[TraceRecord]) -> (Vec<u8>, Vec<usize>) {
    let mut stream = Vec::new();
    wire::write_stream_header(&mut stream);
    let mut lens = Vec::new();
    for record in records {
        let frame = wire::encode_frame(record);
        lens.push(frame.len());
        stream.extend_from_slice(&frame);
    }
    (stream, lens)
}
