//! The binary trace wire format: compact, checksummed, self-describing.
//!
//! One JSON string per event made `engine_traced` pay ~21× over the no-op
//! recorder, all of it float formatting and per-record allocation. The
//! wire format replaces the hot path: each [`TraceRecord`] becomes one
//! *frame* — a varint-length-prefixed payload followed by a 32-bit FNV-1a
//! checksum of that payload — encoded into a caller-owned, reused buffer
//! with no intermediate allocation. JSONL survives as an *export* format
//! (`clip-trace export`), produced offline by decoding frames and
//! re-serializing through the same deterministic serializer as before, so
//! golden FNV pins over JSONL migrate byte-for-byte.
//!
//! ## Layout
//!
//! A binary trace *stream* (what [`crate::BinarySink`] writes) is:
//!
//! ```text
//! "CLPT"  u16-LE schema version  frame*
//! ```
//!
//! and each frame is:
//!
//! ```text
//! varint(payload_len)  payload  u32-LE fnv1a32(payload)
//! ```
//!
//! The payload is `varint(seq) varint(epoch) u8 event-tag fields…`. Each
//! field's type picks its encoding through one crate-private codec trait:
//!
//! - `u64` and `usize`: LEB128 varints;
//! - `f64` (and `Power`/`TimeSpan`/`Frequency` quantities as their
//!   canonical unit): the 8 little-endian bytes of `to_bits`, so every
//!   float round-trips exactly (NaNs and infinities included);
//! - `bool`: one byte, `0`/`1`;
//! - strings: varint byte length + UTF-8 bytes;
//! - sequences: varint element count + elements; the metric registry's
//!   name-keyed families likewise, each entry a name then a value;
//! - enums: their tag byte, then the variant's fields in order.
//!
//! Every tag is written once, explicitly, in the table in
//! [`crate::event`] that declares [`TraceEvent`] and its sub-enums; the
//! encoder and decoder are generated from that table. Everything is a pure
//! function of the record, so identically seeded runs produce
//! byte-identical frame streams — the determinism contract the JSONL path
//! pinned carries over unchanged.
//!
//! ## Corruption handling
//!
//! Decoding is total: a truncated buffer, a bad magic, an unknown schema
//! version, a checksum mismatch, an unknown tag or an over-long varint
//! each yield a distinct [`WireError`] instead of a panic. A stream
//! decodes up to its first bad frame: [`decode_stream`] returns the
//! records before it together with the [`Loss`] that stopped it, so a
//! trace cut off mid-flush keeps every frame written whole.

use crate::event::{tag, TraceEvent, TraceRecord};
use crate::metrics::MetricRegistry;
use simkit::{Frequency, Power, TimeSpan};
use std::collections::BTreeMap;

/// The four magic bytes opening every binary trace stream.
pub const MAGIC: [u8; 4] = *b"CLPT";

/// Wire schema version, bumped on any layout change.
pub const SCHEMA_VERSION: u16 = 1;

const FNV_BASIS: u32 = 0x811c_9dc5;
const FNV_PRIME: u32 = 0x0100_0193;

/// 32-bit FNV-1a over `bytes` — the per-frame payload checksum.
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut hash = FNV_BASIS;
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Why a buffer failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended inside a header, length prefix, payload or
    /// checksum.
    Truncated,
    /// The stream does not open with [`MAGIC`].
    BadMagic,
    /// The stream's schema version is not [`SCHEMA_VERSION`].
    UnsupportedVersion(u16),
    /// A frame's payload hashed to something other than its trailer.
    BadChecksum {
        /// Checksum stored in the frame trailer.
        stored: u32,
        /// Checksum computed over the received payload.
        computed: u32,
    },
    /// An event or sub-enum tag byte outside the known range.
    BadTag(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A varint ran past the ten bytes a `u64` needs, its tenth byte
    /// carried bits beyond bit 63, or its value does not fit a `usize`
    /// field.
    VarintOverflow,
    /// A frame's payload was longer than its fields — bytes the decoder
    /// cannot attribute, so the frame is treated as corrupt.
    TrailingBytes,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated trace stream"),
            WireError::BadMagic => write!(f, "not a binary trace (bad magic)"),
            WireError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported wire schema version {v} (expected {SCHEMA_VERSION})"
                )
            }
            WireError::BadChecksum { stored, computed } => write!(
                f,
                "frame checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            WireError::BadTag(t) => write!(f, "unknown wire tag byte {t:#04x}"),
            WireError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
            WireError::VarintOverflow => write!(f, "varint overflows its integer type"),
            WireError::TrailingBytes => write!(f, "frame payload has unattributed trailing bytes"),
        }
    }
}

impl std::error::Error for WireError {}

/// True when `bytes` opens with the binary-stream magic — the sniff
/// `clip-trace` uses to pick the decoder.
pub fn is_binary_trace(bytes: &[u8]) -> bool {
    bytes.starts_with(&MAGIC)
}

/// Append the stream header (magic + schema version) to `out`.
pub fn write_stream_header(out: &mut Vec<u8>) {
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
}

/// Validate and strip the stream header, returning the frame bytes.
pub fn strip_stream_header(bytes: &[u8]) -> Result<&[u8], WireError> {
    if !is_binary_trace(bytes) {
        return Err(WireError::BadMagic);
    }
    let mut version_bytes = bytes.iter().copied().skip(MAGIC.len());
    let (Some(lo), Some(hi)) = (version_bytes.next(), version_bytes.next()) else {
        return Err(WireError::Truncated);
    };
    let version = u16::from_le_bytes([lo, hi]);
    if version != SCHEMA_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    bytes.get(MAGIC.len() + 2..).ok_or(WireError::Truncated)
}

// ---------------------------------------------------------------------------
// The codec: one `Wire` impl per field type
// ---------------------------------------------------------------------------

/// A value's wire encoding: `put` appends it to a payload, `get` reads it
/// back from one. A field's type picks its encoding, so the event table in
/// [`crate::event`] names no codec: each enum it declares gets an impl
/// that writes the variant's tag byte and then its fields in order.
///
/// Every `put` is `#[inline]`: the table's impls expand in `event.rs`,
/// and without the hint a call between codegen units stays a call on the
/// per-event encode path.
pub(crate) trait Wire: Sized {
    /// Append `self` to `out`.
    fn put(&self, out: &mut Vec<u8>);
    /// Read one value from the front of `cur`.
    fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError>;
}

/// The unread rest of a payload. Every read either returns the bytes it
/// asked for or fails with [`WireError::Truncated`].
pub(crate) struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { rest: bytes }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let (head, tail) = self.rest.split_at_checked(n).ok_or(WireError::Truncated)?;
        self.rest = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, tail) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or(WireError::Truncated)?;
        self.rest = tail;
        Ok(*head)
    }

    /// One raw byte: an enum's tag.
    pub(crate) fn byte(&mut self) -> Result<u8, WireError> {
        let [b] = self.array()?;
        Ok(b)
    }
}

/// LEB128: seven bits per byte, low bits first, high bit set on every
/// byte but the last. A `u64` needs at most ten bytes, and the tenth can
/// only carry bit 63.
impl Wire for u64 {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        let mut v = *self;
        while v >= 0x80 {
            out.push((v & 0x7f) as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }

    fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = cur.byte()?;
            if shift == 63 && b > 1 {
                return Err(WireError::VarintOverflow);
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }
}

impl Wire for usize {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }

    fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        usize::try_from(u64::get(cur)?).map_err(|_| WireError::VarintOverflow)
    }
}

impl Wire for f64 {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }

    fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(f64::from_bits(u64::from_le_bytes(cur.array()?)))
    }
}

impl Wire for bool {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(cur.byte()? != 0)
    }
}

impl Wire for String {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        let len = usize::get(cur)?;
        let bytes = cur.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }
}

impl<T: Wire> Wire for Vec<T> {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        for item in self {
            item.put(out);
        }
    }

    fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        let len = usize::get(cur)?;
        // Every element takes at least one byte, so the unread rest bounds
        // what a corrupt length can make this allocate.
        let mut items = Vec::with_capacity(len.min(cur.rest.len()));
        for _ in 0..len {
            items.push(T::get(cur)?);
        }
        Ok(items)
    }
}

/// A name-keyed map, in key order: the metric registry's families.
impl<V: Wire> Wire for BTreeMap<String, V> {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        for (name, value) in self {
            name.put(out);
            value.put(out);
        }
    }

    fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        let mut map = BTreeMap::new();
        for _ in 0..usize::get(cur)? {
            let name = String::get(cur)?;
            map.insert(name, V::get(cur)?);
        }
        Ok(map)
    }
}

/// A simkit quantity travels as its canonical unit's `f64`.
macro_rules! quantity_codec {
    ($($ty:ident: $get:ident, $ctor:ident;)*) => {$(
        impl Wire for $ty {
            #[inline]
    fn put(&self, out: &mut Vec<u8>) {
                self.$get().put(out);
            }

            fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
                f64::get(cur).map($ty::$ctor)
            }
        }
    )*};
}

quantity_codec! {
    Power: as_watts, watts;
    TimeSpan: as_secs, secs;
    Frequency: as_ghz, ghz;
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// Encode one record as a complete frame into `out` (cleared first):
/// varint payload length, payload, FNV-1a32 payload checksum. The hot
/// path hands in one reused buffer, so encoding allocates nothing once
/// that buffer has grown past the longest frame.
pub fn encode_into(seq: u64, epoch: u64, event: &TraceEvent, out: &mut Vec<u8>) {
    frame_into(seq, epoch, out, |payload| event.put(payload));
}

/// Encode a [`TraceEvent::MetricsSnapshot`] frame directly from a
/// registry reference — byte-identical to building the owning event and
/// calling [`encode_into`], without cloning the registry (closing a
/// recorder stays cheap however many metrics it holds).
pub fn encode_metrics_snapshot_into(
    seq: u64,
    epoch: u64,
    metrics: &MetricRegistry,
    out: &mut Vec<u8>,
) {
    frame_into(seq, epoch, out, |payload| {
        payload.push(tag::MetricsSnapshot);
        metrics.put(payload);
    });
}

/// Write one frame into `out` (cleared first) in one pass: a one-byte
/// length placeholder, the payload (`seq`, `epoch`, then the event's tag
/// and fields, which `event` appends), and the FNV-1a32 of the payload.
/// A payload of 128 bytes or more needs a longer varint than the
/// placeholder, so the payload moves once to make room for it; of the
/// trace's events only a `MetricsSnapshot` is that long in practice.
fn frame_into(seq: u64, epoch: u64, out: &mut Vec<u8>, event: impl FnOnce(&mut Vec<u8>)) {
    out.clear();
    out.push(0);
    seq.put(out);
    epoch.put(out);
    event(out);
    let end = out.len();
    let payload_len = end - 1;
    let prefix_len = match u8::try_from(payload_len) {
        Ok(len) if len < 0x80 => {
            if let Some(placeholder) = out.first_mut() {
                *placeholder = len;
            }
            1
        }
        _ => {
            // Write the length's varint past the payload, then move it
            // into the placeholder's place.
            payload_len.put(out);
            let mut prefix = [0u8; 10];
            let varint = out.get(end..).unwrap_or_default();
            let prefix_len = varint.len();
            for (to, &from) in prefix.iter_mut().zip(varint) {
                *to = from;
            }
            out.truncate(end);
            out.splice(..1, prefix.into_iter().take(prefix_len));
            prefix_len
        }
    };
    let checksum = fnv1a32(out.get(prefix_len..).unwrap_or_default());
    out.extend_from_slice(&checksum.to_le_bytes());
}

/// Encode one record as a standalone frame (convenience for tests and
/// cold paths; the hot path reuses its buffer through [`encode_into`]).
pub fn encode_frame(record: &TraceRecord) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(record.seq, record.epoch, &record.event, &mut out);
    out
}

/// Decode one frame from the front of `bytes`, returning the record and
/// the unread remainder.
pub fn decode_frame(bytes: &[u8]) -> Result<(TraceRecord, &[u8]), WireError> {
    let mut outer = Cursor::new(bytes);
    let payload_len = usize::get(&mut outer)?;
    let payload = outer.take(payload_len)?;
    let stored = u32::from_le_bytes(outer.array()?);
    let computed = fnv1a32(payload);
    if stored != computed {
        return Err(WireError::BadChecksum { stored, computed });
    }
    let mut cur = Cursor::new(payload);
    let record = TraceRecord {
        seq: u64::get(&mut cur)?,
        epoch: u64::get(&mut cur)?,
        event: TraceEvent::get(&mut cur)?,
    };
    if !cur.rest.is_empty() {
        return Err(WireError::TrailingBytes);
    }
    Ok((record, outer.rest))
}

/// The undecoded tail of a frame sequence: where decoding stopped, and
/// why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Loss {
    /// Why the first undecoded frame failed.
    pub error: WireError,
    /// Bytes from the start of that frame to the end of the input.
    pub bytes: usize,
}

/// Decode a headerless sequence of frames (what a [`crate::RingSink`]
/// holds). Decoding stops at the first frame that fails: the records
/// before it come back with the [`Loss`] that stopped it, so a trace cut
/// off mid-flush still yields every frame written whole.
pub fn decode_frames(mut bytes: &[u8]) -> (Vec<TraceRecord>, Option<Loss>) {
    let mut records = Vec::new();
    while !bytes.is_empty() {
        match decode_frame(bytes) {
            Ok((record, rest)) => {
                records.push(record);
                bytes = rest;
            }
            Err(error) => {
                let loss = Loss {
                    error,
                    bytes: bytes.len(),
                };
                return (records, Some(loss));
            }
        }
    }
    (records, None)
}

/// Decode a complete binary trace stream: header, then frames as
/// [`decode_frames`] does. Only a bad header is an error here.
pub fn decode_stream(bytes: &[u8]) -> Result<(Vec<TraceRecord>, Option<Loss>), WireError> {
    Ok(decode_frames(strip_stream_header(bytes)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FaultTag, ImpactTag};

    fn sample() -> TraceRecord {
        TraceRecord {
            seq: 3,
            epoch: 1,
            event: TraceEvent::EpochCompleted {
                budget: Power::watts(1200.0),
                caps_total: Power::watts(1180.5),
                measured: Power::watts(1104.25),
                performance: 0.0625,
                wall: TimeSpan::secs(3.5),
                replanned: true,
            },
        }
    }

    #[test]
    fn frame_round_trips() {
        let record = sample();
        let frame = encode_frame(&record);
        let (back, rest) = decode_frame(&frame).expect("decode");
        assert_eq!(back, record);
        assert!(rest.is_empty());
    }

    #[test]
    fn stream_round_trips_with_header() {
        let mut stream = Vec::new();
        write_stream_header(&mut stream);
        let records = vec![
            sample(),
            TraceRecord {
                seq: 4,
                epoch: 2,
                event: TraceEvent::FaultApplied {
                    node: 5,
                    kind: FaultTag::CapJitter { fraction: -0.07 },
                    impact: ImpactTag::ActuationOnly,
                },
            },
        ];
        for r in &records {
            stream.extend_from_slice(&encode_frame(r));
        }
        assert!(is_binary_trace(&stream));
        assert_eq!(decode_stream(&stream).expect("decode"), (records, None));
    }

    #[test]
    fn truncated_frame_is_rejected() {
        let frame = encode_frame(&sample());
        for cut in 0..frame.len() {
            let err = decode_frame(&frame[..cut]).expect_err("truncation must fail");
            assert!(matches!(err, WireError::Truncated), "cut at {cut}: {err:?}");
        }
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let mut frame = encode_frame(&sample());
        // Flip a bit in the payload (skip the 1-byte length prefix).
        frame[2] ^= 0x40;
        let err = decode_frame(&frame).expect_err("corruption must fail");
        assert!(matches!(err, WireError::BadChecksum { .. }), "{err:?}");
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut stream = Vec::new();
        write_stream_header(&mut stream);
        stream[4] = 0xFF;
        assert_eq!(
            decode_stream(&stream).expect_err("version must be checked"),
            WireError::UnsupportedVersion(0x00FF)
        );
    }

    #[test]
    fn non_magic_bytes_are_not_a_binary_trace() {
        assert!(!is_binary_trace(b"{\"seq\": 0}"));
        assert_eq!(
            strip_stream_header(b"{\"seq\": 0}").expect_err("jsonl is not binary"),
            WireError::BadMagic
        );
    }

    #[test]
    fn varints_round_trip_at_the_boundaries() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            v.put(&mut buf);
            let mut cur = Cursor::new(&buf);
            assert_eq!(u64::get(&mut cur), Ok(v));
            assert!(cur.rest.is_empty());
        }
    }

    /// A checksummed frame whose `seq` field is the raw varint `seq`.
    fn frame_with_raw_seq(seq: &[u8]) -> Vec<u8> {
        let mut payload = seq.to_vec();
        1u64.put(&mut payload);
        sample().event.put(&mut payload);
        let mut frame = Vec::new();
        payload.len().put(&mut frame);
        frame.extend_from_slice(&payload);
        frame.extend_from_slice(&fnv1a32(&payload).to_le_bytes());
        frame
    }

    #[test]
    fn over_long_varints_are_rejected() {
        let nine = [0xff; 9];
        let ten = |last: u8| [&nine[..], &[last]].concat();
        // u64::MAX takes all ten bytes; the tenth carries bit 63 alone.
        let (record, _) = decode_frame(&frame_with_raw_seq(&ten(0x01))).expect("u64::MAX");
        assert_eq!(record.seq, u64::MAX);
        // Bits past 63 in the tenth byte, and an eleventh byte.
        for seq in [ten(0x02), ten(0x7f), [&ten(0xff)[..], &[0x01]].concat()] {
            assert_eq!(
                decode_frame(&frame_with_raw_seq(&seq)).err(),
                Some(WireError::VarintOverflow),
                "seq varint {seq:02x?}"
            );
        }
    }

    /// A frame built as the encoder once built it, in two passes: the
    /// payload into a scratch buffer, then its length, the payload and
    /// its checksum.
    fn two_pass(seq: u64, epoch: u64, event: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut payload = Vec::new();
        seq.put(&mut payload);
        epoch.put(&mut payload);
        event(&mut payload);
        let mut frame = Vec::new();
        payload.len().put(&mut frame);
        frame.extend_from_slice(&payload);
        frame.extend_from_slice(&fnv1a32(&payload).to_le_bytes());
        frame
    }

    /// One event of every kind, with short payloads.
    fn one_of_each_kind() -> Vec<TraceEvent> {
        use crate::event::{ActuationTag, RejectTag};
        let (w, s) = (Power::watts, TimeSpan::secs);
        let tenant = || "batch".to_string();
        vec![
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
            TraceEvent::FaultApplied {
                node: 1,
                kind: FaultTag::Straggler { factor: 1.75 },
                impact: ImpactTag::ActuationOnly,
            },
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
                budget: w(900.0),
                measured: w(912.5),
                verdict: ActuationTag::InjectedJitter,
            },
            sample().event,
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
                tenant: tenant(),
                app: "CoMD".to_string(),
                iterations: 5000,
            },
            TraceEvent::JobAdmitted {
                job: 42,
                tenant: tenant(),
                queued: 3,
                degraded: true,
            },
            TraceEvent::JobRejected {
                job: 43,
                tenant: tenant(),
                reason: RejectTag::SloHopeless,
            },
            TraceEvent::JobPreempted {
                job: 45,
                tenant: tenant(),
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
                tenant: tenant(),
                latency: s(95.5),
                slo: s(120.0),
                met: true,
            },
            TraceEvent::MetricsSnapshot {
                metrics: MetricRegistry::new(),
            },
        ]
    }

    /// The one-pass frame is the two-pass frame, bit for bit, for an
    /// event of every kind, for payloads on both sides of the one-,
    /// two- and three-byte length varints (127/128 and 16,383/16,384
    /// bytes), and for a metrics snapshot longer than 16 KiB.
    #[test]
    fn one_pass_frames_equal_two_pass_frames() {
        let mut out = Vec::new();
        let mut check = |seq: u64, epoch: u64, event: TraceEvent| {
            encode_into(seq, epoch, &event, &mut out);
            assert_eq!(out, two_pass(seq, epoch, |p| event.put(p)), "{event:?}");
            let record = TraceRecord { seq, epoch, event };
            assert_eq!(decode_frame(&out), Ok((record, &[][..])));
        };
        for (i, event) in one_of_each_kind().into_iter().enumerate() {
            check(i as u64, 300 + i as u64, event);
        }
        // At these field values `RunStarted`'s payload is its scheduler
        // name plus 13 to 15 bytes, so these names put it across 128 and
        // 16,384 bytes.
        for name in (100..130).chain(16_350..16_390) {
            let event = TraceEvent::RunStarted {
                scheduler: "x".repeat(name),
                budget: Power::watts(1500.0),
                nodes: 8,
                epochs: 6,
            };
            check(0, 0, event);
        }
        let mut metrics = MetricRegistry::new();
        for i in 0..2_000 {
            metrics.counter_add(&format!("counter_{i:04}"), i);
        }
        let mut snapshot = Vec::new();
        encode_metrics_snapshot_into(7, u64::MAX, &metrics, &mut snapshot);
        assert!(snapshot.len() > 16_384);
        let reference = two_pass(7, u64::MAX, |p| {
            p.push(tag::MetricsSnapshot);
            metrics.put(p);
        });
        assert_eq!(snapshot, reference);
        check(7, u64::MAX, TraceEvent::MetricsSnapshot { metrics });
    }

    #[test]
    fn metrics_snapshot_round_trips_exactly() {
        let mut reg = MetricRegistry::new();
        reg.counter_add("epochs_total", 12);
        reg.gauge_set("survivors", 7.0);
        reg.observe("epoch_time_secs", 3.25);
        reg.observe("epoch_time_secs", 900.0);
        let record = TraceRecord {
            seq: 0,
            epoch: u64::MAX,
            event: TraceEvent::MetricsSnapshot {
                metrics: reg.clone(),
            },
        };
        let (back, _) = decode_frame(&encode_frame(&record)).expect("decode");
        assert_eq!(back, record);
        // An *empty* histogram's max is -inf; raw-bits encoding must
        // preserve it exactly.
        let mut empty = MetricRegistry::new();
        empty.register_histogram("never_observed", vec![1.0, 2.0]);
        let record = TraceRecord {
            seq: 1,
            epoch: 0,
            event: TraceEvent::MetricsSnapshot { metrics: empty },
        };
        let (back, _) = decode_frame(&encode_frame(&record)).expect("decode");
        assert_eq!(back, record);
    }
}
