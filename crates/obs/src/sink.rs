//! Pluggable trace sinks: where encoded binary frames go.
//!
//! The recorder encodes every [`crate::TraceRecord`] exactly once into a
//! reused frame buffer (see [`crate::wire`]) and hands the finished frame
//! to a [`TraceSink`]; sinks are dumb byte movers, so byte-identical
//! traces are guaranteed by construction no matter which sink is plugged
//! in. Two implementations ship: [`BinarySink`], a batching file writer
//! that flushes every 64 KiB, and [`RingSink`], a bounded in-memory ring
//! buffer for tests and flight-recorder capture.
//! JSONL is no longer a sink: it is an export format, produced offline by
//! `clip-trace export` or [`RingSink::to_jsonl`].

use crate::event::TraceRecord;
use crate::wire;
use std::collections::VecDeque;
use std::fs::File;
use std::io::Write;
use std::path::Path;

/// A destination for encoded trace frames.
///
/// `write_frame` receives one complete frame (length prefix + payload +
/// checksum) and must not fail the hot path: I/O errors are counted by
/// the sink and surfaced at close time, never propagated per frame.
pub trait TraceSink {
    /// Accept one encoded frame. The slice is only valid for the call;
    /// sinks that retain frames must copy.
    fn write_frame(&mut self, frame: &[u8]);

    /// Flush any buffered output.
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// How many buffered bytes trigger a [`BinarySink`] flush by default.
pub const DEFAULT_FLUSH_BYTES: usize = 64 * 1024;

/// Batching binary trace file sink.
///
/// Frames accumulate in an internal buffer and reach the file in batches:
/// a write is issued once `max_bytes` bytes are pending, so a traced
/// epoch loop performs one syscall per batch instead of one per event,
/// however small its frames are. A run killed before it flushes or closes
/// the sink loses the pending batch, up to `max_bytes` of frames (64 KiB
/// by default); a reader keeps every frame written whole before it
/// ([`crate::wire::decode_stream`]). The stream opens with the wire
/// header (magic + schema version) so readers can sniff the format.
///
/// Write errors never panic and never interrupt the run; they increment
/// [`BinarySink::failed_writes`], which callers check at close time.
#[derive(Debug)]
pub struct BinarySink {
    file: File,
    buf: Vec<u8>,
    max_bytes: usize,
    failed_writes: u64,
}

impl BinarySink {
    /// Create (truncate) the binary trace file at `path`, flushing every
    /// [`DEFAULT_FLUSH_BYTES`], and write the stream header.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::with_threshold(path, DEFAULT_FLUSH_BYTES)
    }

    /// Create the trace file flushing once `max_bytes` bytes (at least
    /// one) are pending.
    pub fn with_threshold(path: impl AsRef<Path>, max_bytes: usize) -> std::io::Result<Self> {
        let file = File::create(path)?;
        let mut buf = Vec::with_capacity(max_bytes.clamp(1, 1 << 20));
        wire::write_stream_header(&mut buf);
        Ok(Self {
            file,
            buf,
            max_bytes: max_bytes.max(1),
            failed_writes: 0,
        })
    }

    /// Flush batches that failed to reach the file so far.
    pub fn failed_writes(&self) -> u64 {
        self.failed_writes
    }

    fn drain(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        if self.file.write_all(&self.buf).is_err() {
            self.failed_writes += 1;
        }
        self.buf.clear();
    }

    /// Flush and close, reporting the first deferred I/O failure.
    pub fn close(mut self) -> std::io::Result<()> {
        self.drain();
        self.file.flush()?;
        if self.failed_writes > 0 {
            return Err(std::io::Error::other(format!(
                "{} trace batch(es) failed to write",
                self.failed_writes
            )));
        }
        Ok(())
    }
}

impl TraceSink for BinarySink {
    fn write_frame(&mut self, frame: &[u8]) {
        self.buf.extend_from_slice(frame);
        if self.buf.len() >= self.max_bytes {
            self.drain();
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.drain();
        self.file.flush()
    }
}

/// Bounded in-memory sink keeping the most recent `capacity` frames — a
/// flight recorder: cheap to leave on, and after a failure the tail of
/// the trace is right there in memory.
///
/// Frames live contiguously in one flat byte buffer with a span table on
/// top: recording a frame is an `extend_from_slice` with no per-frame
/// allocation, and dropping the sink frees two buffers instead of one per
/// frame. Evicted frames leave a dead prefix that is compacted — a single
/// move of the live bytes — only once it outgrows the live region, so the
/// ring holds at most ~2x its live bytes and compaction cost amortizes to
/// O(1) per byte recorded.
#[derive(Debug, Clone)]
pub struct RingSink {
    capacity: usize,
    buf: Vec<u8>,
    /// `(offset, len)` into `buf` per retained frame, oldest first.
    spans: VecDeque<(usize, usize)>,
    /// Dead bytes at the front of `buf` left behind by evicted frames.
    dead: usize,
    dropped: u64,
}

impl RingSink {
    /// A ring holding at most `capacity` frames (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        // Pre-size for typical ~32-byte frames so a short recording never
        // climbs a realloc ladder; the pre-allocation is clamped so huge
        // rings start small and grow only if actually filled.
        let slots = capacity.min(1024);
        Self {
            capacity,
            buf: Vec::with_capacity(slots * 32),
            spans: VecDeque::with_capacity(slots),
            dead: 0,
            dropped: 0,
        }
    }

    /// The retained frames, oldest first.
    pub fn frames(&self) -> impl Iterator<Item = &[u8]> {
        self.spans
            .iter()
            .map(|&(off, len)| self.buf.get(off..off + len).unwrap_or(&[]))
    }

    /// Number of retained frames.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Frames evicted after the ring filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Decode the retained frames back into records, oldest first.
    /// Frames come from the recorder's own encoder, so decoding cannot
    /// fail in practice; a corrupt frame trips the debug assertion in
    /// test builds and is skipped in release (where it would otherwise
    /// surface as a golden-fingerprint mismatch anyway).
    pub fn records(&self) -> Vec<TraceRecord> {
        self.frames()
            .filter_map(|f| match wire::decode_frame(f) {
                Ok((record, rest)) => {
                    debug_assert!(rest.is_empty(), "ring slot holds exactly one frame");
                    Some(record)
                }
                Err(err) => {
                    debug_assert!(false, "ring frame decodes: {err}");
                    None
                }
            })
            .collect()
    }

    /// The retained records as one JSONL document (trailing newline) —
    /// the export path the golden FNV pins run over. Serialization goes
    /// through the same deterministic serializer the old per-event JSONL
    /// sink used, so the bytes are identical to what that path produced.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut line = String::new();
        for record in self.records() {
            if serde_json::to_string_into(&record, &mut line).is_ok() {
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }
}

impl TraceSink for RingSink {
    fn write_frame(&mut self, frame: &[u8]) {
        if self.spans.len() == self.capacity {
            if let Some((_, len)) = self.spans.pop_front() {
                self.dead += len;
                self.dropped += 1;
            }
        }
        // Compact once the dead prefix outweighs the live bytes: one move
        // of the live region, amortized over at least as many bytes
        // appended since the last compaction.
        if self.dead > self.buf.len().saturating_sub(self.dead) {
            self.buf.drain(..self.dead);
            for span in &mut self.spans {
                span.0 -= self.dead;
            }
            self.dead = 0;
        }
        self.spans.push_back((self.buf.len(), frame.len()));
        self.buf.extend_from_slice(frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{TraceEvent, TraceRecord};
    use simkit::Power;

    fn frame(seq: u64) -> Vec<u8> {
        wire::encode_frame(&TraceRecord {
            seq,
            epoch: 0,
            event: TraceEvent::PlanNode {
                node: seq as usize,
                cpu: Power::watts(150.0),
                dram: Power::watts(40.0),
            },
        })
    }

    #[test]
    fn ring_keeps_the_most_recent_frames() {
        let mut ring = RingSink::new(2);
        ring.write_frame(&frame(0));
        ring.write_frame(&frame(1));
        ring.write_frame(&frame(2));
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 1);
        let seqs: Vec<u64> = ring.records().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut ring = RingSink::new(0);
        ring.write_frame(&frame(0));
        ring.write_frame(&frame(1));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.records()[0].seq, 1);
    }

    #[test]
    fn ring_jsonl_matches_direct_serialization() {
        let mut ring = RingSink::new(8);
        ring.write_frame(&frame(0));
        ring.write_frame(&frame(1));
        let expected: String = ring
            .records()
            .iter()
            .map(|r| serde_json::to_string(r).expect("serialize") + "\n")
            .collect();
        assert_eq!(ring.to_jsonl(), expected);
    }

    #[test]
    fn binary_sink_writes_a_decodable_stream() {
        let dir = std::env::temp_dir().join("clip_obs_sink_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("trace.bin");
        let mut sink = BinarySink::with_threshold(&path, 64).expect("create");
        for seq in 0..5u64 {
            sink.write_frame(&frame(seq));
        }
        assert_eq!(sink.failed_writes(), 0);
        sink.close().expect("close");
        let bytes = std::fs::read(&path).expect("read back");
        assert!(wire::is_binary_trace(&bytes));
        let (records, loss) = wire::decode_stream(&bytes).expect("decode");
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        assert_eq!((seqs, loss), (vec![0, 1, 2, 3, 4], None));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_sink_batches_until_threshold() {
        let dir = std::env::temp_dir().join("clip_obs_sink_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("batch.bin");
        {
            let mut sink = BinarySink::with_threshold(&path, 1 << 20).expect("create");
            sink.write_frame(&frame(0));
            // Below the threshold: nothing past the header reaches disk
            // until an explicit flush.
            let on_disk = std::fs::metadata(&path).expect("stat").len();
            assert_eq!(on_disk, 0, "batched frame must still be pending");
            sink.flush().expect("flush");
            let flushed = std::fs::metadata(&path).expect("stat").len();
            assert!(flushed > 0);
            sink.close().expect("close");
        }
        std::fs::remove_file(&path).ok();
    }

    /// The default sink writes nothing until 64 KiB are pending, however
    /// many frames that takes, and then writes them all at once.
    #[test]
    fn binary_sink_issues_no_write_before_64_kib() {
        let dir = std::env::temp_dir().join("clip_obs_sink_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("default.bin");
        let mut sink = BinarySink::create(&path).expect("create");
        let mut pending = wire::MAGIC.len() + 2;
        let mut seq = 0;
        while pending + frame(seq).len() < DEFAULT_FLUSH_BYTES {
            sink.write_frame(&frame(seq));
            pending += frame(seq).len();
            seq += 1;
        }
        assert!(seq > 256, "{seq} frames fit under the threshold");
        assert_eq!(std::fs::metadata(&path).expect("stat").len(), 0);
        sink.write_frame(&frame(seq));
        pending += frame(seq).len();
        let on_disk = std::fs::metadata(&path).expect("stat").len();
        assert_eq!(on_disk, pending as u64, "the batch reaches disk whole");
        sink.close().expect("close");
        std::fs::remove_file(&path).ok();
    }
}
