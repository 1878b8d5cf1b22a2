//! The recorder: the hook surface instrumented code talks to.
//!
//! [`Recorder`] is designed so the *disabled* path is free: every hook has
//! an inlined empty default body, event payloads are built inside
//! closures that the no-op recorder never calls, and dispatch is static —
//! a function generic over `R: Recorder` monomorphizes to straight-line
//! code with no allocation and no branch on the [`NoopRecorder`].
//!
//! [`TraceRecorder`] is the live implementation: it stamps events with a
//! monotone sequence number and the caller's sim-clock epoch, encodes each
//! record once as a binary wire frame (see [`crate::wire`]) into a reused
//! buffer, and forwards the frame to a [`TraceSink`] while folding metric
//! updates into its [`MetricRegistry`]. A [`TraceFilter`] bitset decides
//! per [`EventClass`] whether an event is kept: a filtered-out class costs
//! one branch and zero allocation — the payload closure is never called.

use crate::event::{EventClass, TraceEvent};
use crate::metrics::MetricRegistry;
use crate::sink::TraceSink;
use crate::wire;

/// A bitset over [`EventClass`]: which classes a recorder keeps.
///
/// The default is [`TraceFilter::ALL`] — an unfiltered recorder emits
/// exactly what the pre-filter pipeline did, which is what keeps the
/// golden FNV pins stable. Sequence numbers are assigned *after* the
/// filter, so a filtered run's trace is itself deterministic (same seed +
/// same filter → identical frames, any worker count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceFilter(u8);

impl TraceFilter {
    /// Keep every class.
    pub const ALL: Self = Self(0b0001_1111);

    /// Keep nothing.
    pub const NONE: Self = Self(0);

    /// A filter keeping only `class`.
    pub fn only(class: EventClass) -> Self {
        Self(class.bit())
    }

    /// Whether `class` passes this filter.
    #[inline]
    pub fn allows(self, class: EventClass) -> bool {
        self.0 & class.bit() != 0
    }

    /// This filter plus `class`.
    #[must_use]
    pub fn with(self, class: EventClass) -> Self {
        Self(self.0 | class.bit())
    }

    /// This filter minus `class`.
    #[must_use]
    pub fn without(self, class: EventClass) -> Self {
        Self(self.0 & !class.bit())
    }

    /// True when no class passes.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// The classes this filter keeps, in declaration order.
    pub fn classes(self) -> impl Iterator<Item = EventClass> {
        EventClass::ALL.into_iter().filter(move |c| self.allows(*c))
    }
}

impl Default for TraceFilter {
    fn default() -> Self {
        Self::ALL
    }
}

/// Telemetry hook surface threaded through the scheduler stack.
///
/// Generic (not object-safe) on purpose: instrumented functions take
/// `rec: &mut R` with `R: Recorder`, so the no-op instantiation compiles
/// away. Event construction is deferred behind `FnOnce` so a disabled (or
/// class-filtered) recorder never allocates the payload.
pub trait Recorder {
    /// Whether this recorder keeps anything at all. Instrumented code may
    /// use this to skip work that only feeds telemetry.
    fn enabled(&self) -> bool;

    /// Whether this recorder keeps events of `class`. Instrumented code
    /// gates emission loops on this so a filtered-out class costs one
    /// branch. The default ignores the class.
    #[inline]
    fn enabled_for(&self, class: EventClass) -> bool {
        let _ = class;
        self.enabled()
    }

    /// Record the event built by `make`, stamped with `epoch`, if `class`
    /// passes the recorder's filter. The default does nothing and never
    /// calls `make`. `class` must match what `make`'s event reports via
    /// [`TraceEvent::class`]; the emitting macro-free call sites pass it
    /// explicitly so the filter check happens *before* payload
    /// construction.
    #[inline]
    fn event_with<F: FnOnce() -> TraceEvent>(&mut self, epoch: u64, class: EventClass, make: F) {
        let _ = (epoch, class, &make);
    }

    /// Add to a counter metric.
    #[inline]
    fn counter_add(&mut self, name: &str, delta: u64) {
        let _ = (name, delta);
    }

    /// Set a gauge metric.
    #[inline]
    fn gauge_set(&mut self, name: &str, value: f64) {
        let _ = (name, value);
    }

    /// Record a histogram observation.
    #[inline]
    fn observe(&mut self, name: &str, value: f64) {
        let _ = (name, value);
    }
}

/// Forwarding impl so a recorder can be passed by mutable reference into
/// APIs that take the recorder by value (e.g. `EpochEngine<R: Recorder>`):
/// `EpochEngine::new(budget, &mut my_tracer)` works without giving up
/// ownership of the tracer.
impl<R: Recorder> Recorder for &mut R {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline]
    fn enabled_for(&self, class: EventClass) -> bool {
        (**self).enabled_for(class)
    }

    #[inline]
    fn event_with<F: FnOnce() -> TraceEvent>(&mut self, epoch: u64, class: EventClass, make: F) {
        (**self).event_with(epoch, class, make);
    }

    #[inline]
    fn counter_add(&mut self, name: &str, delta: u64) {
        (**self).counter_add(name, delta);
    }

    #[inline]
    fn gauge_set(&mut self, name: &str, value: f64) {
        (**self).gauge_set(name, value);
    }

    #[inline]
    fn observe(&mut self, name: &str, value: f64) {
        (**self).observe(name, value);
    }
}

/// The zero-cost default: records nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }
}

/// A live recorder over a [`TraceSink`].
#[derive(Debug)]
pub struct TraceRecorder<S: TraceSink> {
    sink: S,
    metrics: MetricRegistry,
    seq: u64,
    filter: TraceFilter,
    /// Frame buffer reused across [`emit`](Self::emit) calls so a traced
    /// run pays one allocation per high-water frame length, not one per
    /// record.
    frame_buf: Vec<u8>,
}

impl<S: TraceSink> TraceRecorder<S> {
    /// An unfiltered recorder writing to `sink`.
    pub fn new(sink: S) -> Self {
        Self::with_filter(sink, TraceFilter::ALL)
    }

    /// A recorder keeping only the classes `filter` allows.
    pub fn with_filter(sink: S, filter: TraceFilter) -> Self {
        Self {
            sink,
            metrics: MetricRegistry::new(),
            seq: 0,
            filter,
            frame_buf: Vec::with_capacity(256),
        }
    }

    /// The active class filter.
    pub fn filter(&self) -> TraceFilter {
        self.filter
    }

    /// Read access to the accumulated metrics.
    pub fn metrics(&self) -> &MetricRegistry {
        &self.metrics
    }

    /// Records emitted so far.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Emit a final [`TraceEvent::MetricsSnapshot`], flush, and return the
    /// sink. The snapshot makes histogram summaries available to
    /// `clip-trace` without a side channel; it bypasses the class filter
    /// (closing a recorder is a cold path, and the registry is the run's
    /// summary regardless of which classes were kept).
    pub fn finish(mut self) -> S {
        if !self.metrics.is_empty() {
            // Encoded straight from the registry — byte-identical to
            // emitting an owning `MetricsSnapshot` event, minus the clone.
            wire::encode_metrics_snapshot_into(
                self.seq,
                u64::MAX,
                &self.metrics,
                &mut self.frame_buf,
            );
            self.seq += 1;
            self.sink.write_frame(&self.frame_buf);
        }
        let _ = self.sink.flush();
        self.sink
    }

    fn emit(&mut self, epoch: u64, event: &TraceEvent) {
        wire::encode_into(self.seq, epoch, event, &mut self.frame_buf);
        self.seq += 1;
        self.sink.write_frame(&self.frame_buf);
    }
}

impl<S: TraceSink> Recorder for TraceRecorder<S> {
    #[inline]
    fn enabled(&self) -> bool {
        !self.filter.is_none()
    }

    #[inline]
    fn enabled_for(&self, class: EventClass) -> bool {
        self.filter.allows(class)
    }

    fn event_with<F: FnOnce() -> TraceEvent>(&mut self, epoch: u64, class: EventClass, make: F) {
        if self.filter.allows(class) {
            let event = make();
            debug_assert_eq!(
                event.class(),
                class,
                "event_with class must match the event's own class"
            );
            self.emit(epoch, &event);
        }
    }

    fn counter_add(&mut self, name: &str, delta: u64) {
        self.metrics.counter_add(name, delta);
    }

    fn gauge_set(&mut self, name: &str, value: f64) {
        self.metrics.gauge_set(name, value);
    }

    fn observe(&mut self, name: &str, value: f64) {
        self.metrics.observe(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RingSink;
    use simkit::Power;

    fn sample_event(n: usize) -> TraceEvent {
        TraceEvent::PlanNode {
            node: n,
            cpu: Power::watts(150.0),
            dram: Power::watts(40.0),
        }
    }

    #[test]
    fn noop_recorder_never_builds_events() {
        let mut rec = NoopRecorder;
        assert!(!rec.enabled());
        assert!(!rec.enabled_for(EventClass::Scheduler));
        rec.event_with(0, EventClass::Scheduler, || {
            panic!("payload must not be built")
        });
        rec.counter_add("x", 1);
        rec.observe("y", 1.0);
    }

    #[test]
    fn trace_recorder_stamps_monotone_seq() {
        let mut rec = TraceRecorder::new(RingSink::new(16));
        rec.event_with(0, EventClass::Scheduler, || sample_event(0));
        rec.event_with(3, EventClass::Scheduler, || sample_event(1));
        assert!(rec.enabled());
        assert_eq!(rec.seq(), 2);
        let sink = rec.finish();
        let records = sink.records();
        assert_eq!(records.len(), 2, "no snapshot when metrics are empty");
        assert_eq!((records[0].seq, records[0].epoch), (0, 0));
        assert_eq!((records[1].seq, records[1].epoch), (1, 3));
        assert_eq!(records[1].event, sample_event(1));
    }

    #[test]
    fn finish_appends_metrics_snapshot() {
        let mut rec = TraceRecorder::new(RingSink::new(16));
        rec.counter_add("epochs_total", 3);
        rec.gauge_set("survivors", 7.0);
        rec.event_with(1, EventClass::Scheduler, || sample_event(0));
        let sink = rec.finish();
        let records = sink.records();
        let last = records.last().expect("snapshot record");
        match &last.event {
            TraceEvent::MetricsSnapshot { metrics } => {
                assert_eq!(metrics.counter("epochs_total"), Some(3));
            }
            other => panic!("expected MetricsSnapshot, got {other:?}"),
        }
    }

    #[test]
    fn identical_event_streams_serialize_identically() {
        let run = || {
            let mut rec = TraceRecorder::new(RingSink::new(64));
            for (epoch, n) in [(0u64, 0usize), (1, 2), (2, 1)] {
                rec.event_with(epoch, EventClass::Scheduler, || sample_event(n));
                rec.observe("epoch_time_secs", 10.0 + n as f64);
            }
            rec.finish().to_jsonl()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn filtered_classes_never_build_payloads() {
        let filter = TraceFilter::ALL.without(EventClass::Actuation);
        let mut rec = TraceRecorder::with_filter(RingSink::new(16), filter);
        assert!(rec.enabled());
        assert!(!rec.enabled_for(EventClass::Actuation));
        assert!(rec.enabled_for(EventClass::Fault));
        rec.event_with(0, EventClass::Actuation, || {
            panic!("filtered payload must not be built")
        });
        rec.event_with(0, EventClass::Scheduler, || sample_event(0));
        assert_eq!(rec.seq(), 1, "seq counts only kept events");
        let records = rec.finish().records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].seq, 0);
    }

    #[test]
    fn none_filter_reports_disabled() {
        let rec = TraceRecorder::with_filter(RingSink::new(4), TraceFilter::NONE);
        assert!(!rec.enabled());
        for class in EventClass::ALL {
            assert!(!rec.enabled_for(class));
        }
    }

    #[test]
    fn filter_set_operations() {
        let only = TraceFilter::only(EventClass::Service);
        assert!(only.allows(EventClass::Service));
        assert!(!only.allows(EventClass::Shard));
        let both = only.with(EventClass::Shard);
        assert_eq!(both.classes().count(), 2);
        assert_eq!(both.without(EventClass::Shard), only);
        assert!(TraceFilter::NONE.is_none());
        assert_eq!(TraceFilter::default(), TraceFilter::ALL);
        assert_eq!(TraceFilter::ALL.classes().count(), EventClass::ALL.len());
    }

    #[test]
    fn metrics_snapshot_bypasses_the_filter() {
        let mut rec = TraceRecorder::with_filter(RingSink::new(4), TraceFilter::NONE);
        rec.counter_add("epochs_total", 1);
        let records = rec.finish().records();
        assert_eq!(records.len(), 1, "snapshot survives a NONE filter");
        assert!(matches!(
            records[0].event,
            TraceEvent::MetricsSnapshot { .. }
        ));
    }
}
