//! Spans around the calls into each layer, recorded from outside the
//! library, and the wrappers that record them.
//!
//! A span is a layer, a tag, a parent and a start/end pair in nanoseconds.
//! Spans live in a per-thread in-memory log while a round runs and are
//! folded into a [`Breakdown`] after it; nothing is written during the
//! measured region. A span's self time is its duration minus its
//! children's durations, so the self times of one round add up to the
//! durations of its root spans exactly.

use clip_core::{Boundary, EpochPolicy, PowerScheduler, SchedulePlan};
use clip_obs::{EventClass, Recorder, TraceEvent, TraceSink};
use cluster_sim::{Cluster, JobReport};
use simkit::Power;
use std::cell::{Cell, RefCell};
use std::time::Instant;
use workload::AppModel;

/// The layers a span can be charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The round itself: its self time is the residual no layer claims.
    Root,
    /// The benchmark's own bookkeeping inside a round (also residual).
    Bench,
    /// `clip_core::hierarchy::run_sharded`.
    Hierarchy,
    /// `clip_core::engine::EpochEngine` phases; tags in [`engine_tag`].
    Engine,
    /// `clip_core::service::ServiceTimeline` as the epoch policy; tags in
    /// [`service_tag`].
    Service,
    /// `PowerScheduler::plan`/`plan_subset`; the tag is a [`Method`].
    Plan,
    /// `EpochEngine::execute` / `execute_plan` (cluster job + simnode).
    Execute,
    /// `clip_obs::Recorder` calls: event build + wire encode, metrics.
    ObsRecord,
    /// `clip_obs::TraceSink` calls.
    ObsSink,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 9;
/// Tags per layer.
pub const TAGS: usize = 5;

impl Layer {
    /// Every layer, in index order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::Root,
        Layer::Bench,
        Layer::Hierarchy,
        Layer::Engine,
        Layer::Service,
        Layer::Plan,
        Layer::Execute,
        Layer::ObsRecord,
        Layer::ObsSink,
    ];

    fn index(self) -> usize {
        self as usize
    }

    /// Short name used in the breakdown table.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Root => "residual",
            Layer::Bench => "bench",
            Layer::Hierarchy => "hierarchy",
            Layer::Engine => "engine",
            Layer::Service => "service",
            Layer::Plan => "plan",
            Layer::Execute => "execute",
            Layer::ObsRecord => "obs.record",
            Layer::ObsSink => "obs.sink",
        }
    }
}

/// Tags of [`Layer::Engine`] spans.
pub mod engine_tag {
    /// `begin_run`.
    pub const BEGIN: u8 = 0;
    /// `prepare_epoch`.
    pub const PREPARE: u8 = 1;
    /// `settle_epoch`.
    pub const SETTLE: u8 = 2;
    /// `finish_run`.
    pub const FINISH: u8 = 3;
}

/// Tags of [`Layer::Service`] spans.
pub mod service_tag {
    /// `EpochPolicy::epoch_boundary`.
    pub const BOUNDARY: u8 = 0;
    /// `EpochPolicy::epoch_settled`.
    pub const SETTLED: u8 = 1;
}

/// The scheduling methods, as [`Layer::Plan`] tags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// CLIP (`ClipScheduler`).
    Clip,
    /// All-In.
    AllIn,
    /// Lower-Limit.
    LowerLimit,
    /// Coordinated.
    Coordinated,
    /// The exhaustive Oracle.
    Oracle,
}

/// One recorded span; times are nanoseconds since the log started.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer charged.
    pub layer: Layer,
    /// Layer-specific tag (engine phase, service hook, method).
    pub tag: u8,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Start.
    pub start: u64,
    /// End.
    pub end: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

struct Log {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

thread_local! {
    static LOG: RefCell<Log> = RefCell::new(Log {
        on: false,
        t0: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
    });
    static SETUP_END: Cell<Option<SetupEnd>> = const { Cell::new(None) };
}

/// Start recording on this thread with an empty log.
pub fn start() {
    LOG.with(|log| {
        let mut log = log.borrow_mut();
        log.on = true;
        log.t0 = Instant::now();
        log.spans.clear();
        log.stack.clear();
    });
}

/// Stop recording and hand over the spans recorded since [`start`].
pub fn stop() -> Vec<Span> {
    LOG.with(|log| {
        let mut log = log.borrow_mut();
        log.on = false;
        log.stack.clear();
        std::mem::take(&mut log.spans)
    })
}

/// Nanoseconds from the current log's start to `at` (0 before it).
pub fn offset_ns(at: Instant) -> u64 {
    LOG.with(|log| at.saturating_duration_since(log.borrow().t0).as_nanos() as u64)
}

/// An open span; closes when dropped.
pub struct Guard(Option<u32>);

impl Guard {
    /// Close the span now, returning its duration in nanoseconds (0 when
    /// nothing is recording).
    pub fn close(mut self) -> u64 {
        self.finish()
    }

    fn finish(&mut self) -> u64 {
        let Some(id) = self.0.take() else {
            return 0;
        };
        LOG.with(|log| {
            let mut log = log.borrow_mut();
            let now = log.t0.elapsed().as_nanos() as u64;
            log.stack.pop();
            match log.spans.get_mut(id as usize) {
                Some(span) => {
                    span.end = now;
                    span.duration()
                }
                None => 0,
            }
        })
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Open a span charged to `layer` (a no-op unless this thread records).
pub fn enter(layer: Layer, tag: u8) -> Guard {
    LOG.with(|log| {
        let mut log = log.borrow_mut();
        if !log.on {
            return Guard(None);
        }
        let id = log.spans.len() as u32;
        let parent = log.stack.last().copied();
        let start = log.t0.elapsed().as_nanos() as u64;
        log.spans.push(Span {
            layer,
            tag,
            parent,
            start,
            end: start,
        });
        log.stack.push(id);
        Guard(Some(id))
    })
}

/// Whether this thread records spans.
pub fn recording() -> bool {
    LOG.with(|log| log.borrow().on)
}

/// When the most recent first plan call of any [`Probe`] on this thread
/// ended, with the allocator's totals at that moment. On `fleet` this is
/// the end of the last rack's epoch-0 coordination: where set-up ends and
/// the timed epochs begin.
#[derive(Clone, Copy, Debug)]
pub struct SetupEnd {
    /// The moment.
    pub at: Instant,
    /// [`crate::alloc::totals`] at that moment.
    pub allocs: (u64, u64),
}

fn mark_setup_end() {
    let mark = SetupEnd {
        at: Instant::now(),
        allocs: crate::alloc::totals(),
    };
    SETUP_END.with(|c| c.set(Some(mark)));
}

/// Take (and clear) this thread's latest [`SetupEnd`].
pub fn take_setup_end() -> Option<SetupEnd> {
    SETUP_END.with(Cell::take)
}

/// Self time of every span: its duration minus its children's. Fails if
/// a child does not lie inside its parent.
pub fn self_times(spans: &[Span]) -> Result<Vec<u64>, String> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration).collect();
    for (i, span) in spans.iter().enumerate() {
        let Some(p) = span.parent else { continue };
        let parent = spans
            .get(p as usize)
            .ok_or_else(|| format!("span {i} names missing parent {p}"))?;
        if span.start < parent.start || span.end > parent.end {
            return Err(format!(
                "span {i} ({:?}) escapes its parent {p}",
                span.layer
            ));
        }
        let slot = own
            .get_mut(p as usize)
            .ok_or_else(|| format!("span {i} names missing parent {p}"))?;
        *slot = slot
            .checked_sub(span.duration())
            .ok_or_else(|| format!("children of span {p} outlast it"))?;
    }
    Ok(own)
}

/// Self time and span counts per (layer, tag), summed over rounds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Breakdown {
    /// Self nanoseconds by `[layer][tag]`.
    pub self_ns: [[u64; TAGS]; LAYERS],
    /// Span count by `[layer][tag]`.
    pub count: [[u64; TAGS]; LAYERS],
    /// Summed duration of root spans: the span run's wall time.
    pub wall_ns: u64,
    /// Plan spans opened inside a service span (admission trials).
    pub trials: u64,
}

impl Breakdown {
    /// Fold one round's spans in.
    pub fn add(&mut self, spans: &[Span]) -> Result<(), String> {
        let own = self_times(spans)?;
        for (span, self_ns) in spans.iter().zip(own) {
            let (l, t) = (span.layer.index(), usize::from(span.tag).min(TAGS - 1));
            if let Some(slot) = self.self_ns.get_mut(l).and_then(|r| r.get_mut(t)) {
                *slot += self_ns;
            }
            if let Some(slot) = self.count.get_mut(l).and_then(|r| r.get_mut(t)) {
                *slot += 1;
            }
            match span.parent {
                None => self.wall_ns += span.duration(),
                Some(p) => {
                    let under_service = spans
                        .get(p as usize)
                        .is_some_and(|s| s.layer == Layer::Service);
                    if span.layer == Layer::Plan && under_service {
                        self.trials += 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// Self nanoseconds of `layer`, all tags.
    pub fn layer_ns(&self, layer: Layer) -> u64 {
        self.self_ns
            .get(layer.index())
            .map_or(0, |r| r.iter().sum())
    }

    /// Self nanoseconds of one (layer, tag).
    pub fn tag_ns(&self, layer: Layer, tag: u8) -> u64 {
        self.self_ns
            .get(layer.index())
            .and_then(|r| r.get(usize::from(tag)))
            .copied()
            .unwrap_or(0)
    }

    /// Span count of one (layer, tag).
    pub fn tag_count(&self, layer: Layer, tag: u8) -> u64 {
        self.count
            .get(layer.index())
            .and_then(|r| r.get(usize::from(tag)))
            .copied()
            .unwrap_or(0)
    }

    /// Span count of `layer`, all tags.
    pub fn layer_count(&self, layer: Layer) -> u64 {
        self.count.get(layer.index()).map_or(0, |r| r.iter().sum())
    }

    /// Time no layer accounts for: root and benchmark self time.
    pub fn residual_ns(&self) -> u64 {
        self.layer_ns(Layer::Root) + self.layer_ns(Layer::Bench)
    }
}

/// Figures a [`Probe`] keeps beyond its spans, summed over its calls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Calls that returned the same plan as this scheduler's previous call.
    pub unchanged: u64,
    /// Allocations on the calling thread inside the calls.
    pub allocs: u64,
    /// Nanoseconds in calls after each scheduler's first (the first is
    /// set-up on `fleet`).
    pub warm_ns: u64,
}

thread_local! {
    static PLAN_STATS: Cell<PlanStats> = const {
        Cell::new(PlanStats { unchanged: 0, allocs: 0, warm_ns: 0 })
    };
}

/// Take (and reset) this thread's [`PlanStats`].
pub fn take_plan_stats() -> PlanStats {
    PLAN_STATS.with(Cell::take)
}

/// A scheduler wrapper: marks the end of its first plan call (set-up on
/// `fleet`) and, while the thread records, opens a [`Layer::Plan`] span
/// around each call and keeps [`PlanStats`].
pub struct Probe {
    inner: Box<dyn PowerScheduler + Send>,
    method: Method,
    called: bool,
    last: Option<SchedulePlan>,
}

impl Probe {
    /// Wrap `inner`, charging its calls to `method`.
    pub fn new(inner: Box<dyn PowerScheduler + Send>, method: Method) -> Self {
        Self {
            inner,
            method,
            called: false,
            last: None,
        }
    }

    fn observe(
        &mut self,
        call: impl FnOnce(&mut dyn PowerScheduler) -> SchedulePlan,
    ) -> SchedulePlan {
        let first = !self.called;
        self.called = true;
        if !recording() {
            let plan = call(self.inner.as_mut());
            if first {
                mark_setup_end();
            }
            return plan;
        }
        let guard = enter(Layer::Plan, self.method as u8);
        let allocs_before = crate::alloc::thread_allocs();
        let plan = call(self.inner.as_mut());
        let allocs = crate::alloc::thread_allocs() - allocs_before;
        let ns = guard.close();
        if first {
            mark_setup_end();
        }

        let _bench = enter(Layer::Bench, 0);
        let unchanged = self.last.as_ref() == Some(&plan);
        self.last = Some(plan.clone());
        PLAN_STATS.with(|c| {
            let mut s = c.get();
            s.unchanged += u64::from(unchanged);
            s.allocs += allocs;
            if !first {
                s.warm_ns += ns;
            }
            c.set(s);
        });
        plan
    }
}

impl PowerScheduler for Probe {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn plan(&mut self, cluster: &mut Cluster, app: &AppModel, budget: Power) -> SchedulePlan {
        self.observe(|s| s.plan(cluster, app, budget))
    }

    fn plan_subset(
        &mut self,
        cluster: &mut Cluster,
        app: &AppModel,
        budget: Power,
        allowed: &[usize],
    ) -> SchedulePlan {
        self.observe(|s| s.plan_subset(cluster, app, budget, allowed))
    }

    fn set_tracing(&mut self, on: bool) {
        self.inner.set_tracing(on);
    }

    fn drain_decisions(&mut self) -> Vec<TraceEvent> {
        self.inner.drain_decisions()
    }
}

/// An epoch-policy wrapper: a [`Layer::Service`] span around each hook
/// that does work.
pub struct SpanPolicy<P>(pub P);

impl<R: Recorder, P: EpochPolicy<R>> EpochPolicy<R> for SpanPolicy<P> {
    fn epoch_boundary(
        &mut self,
        cluster: &mut Cluster,
        scheduler: &mut dyn PowerScheduler,
        plan: &mut SchedulePlan,
        epoch: usize,
        rec: &mut R,
    ) -> Boundary {
        let _span = enter(Layer::Service, service_tag::BOUNDARY);
        self.0.epoch_boundary(cluster, scheduler, plan, epoch, rec)
    }

    fn app_for_epoch(&self, epoch: usize) -> Option<&AppModel> {
        self.0.app_for_epoch(epoch)
    }

    fn restrict_pool(&self, pool: &mut Vec<usize>) {
        self.0.restrict_pool(pool);
    }

    fn epoch_settled(&mut self, report: &JobReport, epoch: usize, rec: &mut R) {
        let _span = enter(Layer::Service, service_tag::SETTLED);
        self.0.epoch_settled(report, epoch, rec);
    }
}

/// A recorder wrapper: a [`Layer::ObsRecord`] span around every call that
/// records (tag 0 events, tag 1 metrics).
pub struct SpanRecorder<R>(pub R);

impl<R: Recorder> Recorder for SpanRecorder<R> {
    fn enabled(&self) -> bool {
        self.0.enabled()
    }

    fn enabled_for(&self, class: EventClass) -> bool {
        self.0.enabled_for(class)
    }

    fn event_with<F: FnOnce() -> TraceEvent>(&mut self, epoch: u64, class: EventClass, make: F) {
        let _span = enter(Layer::ObsRecord, 0);
        self.0.event_with(epoch, class, make);
    }

    fn counter_add(&mut self, name: &str, delta: u64) {
        let _span = enter(Layer::ObsRecord, 1);
        self.0.counter_add(name, delta);
    }

    fn gauge_set(&mut self, name: &str, value: f64) {
        let _span = enter(Layer::ObsRecord, 1);
        self.0.gauge_set(name, value);
    }

    fn observe(&mut self, name: &str, value: f64) {
        let _span = enter(Layer::ObsRecord, 1);
        self.0.observe(name, value);
    }
}

/// A sink wrapper: a [`Layer::ObsSink`] span around every write and
/// flush, plus frame and byte counts.
pub struct SpanSink<S> {
    /// The wrapped sink.
    pub inner: S,
    /// Frames written.
    pub frames: u64,
    /// Frame bytes written.
    pub bytes: u64,
}

impl<S> SpanSink<S> {
    /// Wrap `inner` with zeroed counts.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            frames: 0,
            bytes: 0,
        }
    }
}

impl<S: TraceSink> TraceSink for SpanSink<S> {
    fn write_frame(&mut self, frame: &[u8]) {
        let _span = enter(Layer::ObsSink, 0);
        self.frames += 1;
        self.bytes += frame.len() as u64;
        self.inner.write_frame(frame);
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let _span = enter(Layer::ObsSink, 1);
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            layer,
            tag: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // root 0..100 { engine 10..60 { plan 20..35, plan 40..50 }, execute 70..90 }
        let spans = [
            span(Layer::Root, None, 0, 100),
            span(Layer::Engine, Some(0), 10, 60),
            span(Layer::Plan, Some(1), 20, 35),
            span(Layer::Plan, Some(1), 40, 50),
            span(Layer::Execute, Some(0), 70, 90),
        ];
        assert_eq!(self_times(&spans), Ok(vec![30, 25, 15, 10, 20]));

        let mut b = Breakdown::default();
        assert_eq!(b.add(&spans), Ok(()));
        assert_eq!(b.wall_ns, 100);
        assert_eq!(b.layer_ns(Layer::Plan), 25);
        assert_eq!(b.layer_count(Layer::Plan), 2);
        assert_eq!(b.residual_ns(), 30);
        let total: u64 = Layer::ALL.iter().map(|&l| b.layer_ns(l)).sum();
        assert_eq!(total, b.wall_ns, "self times add up to the wall time");
    }

    #[test]
    fn children_escaping_their_parent_are_rejected() {
        let spans = [
            span(Layer::Root, None, 0, 50),
            span(Layer::Plan, Some(0), 40, 60),
        ];
        assert!(self_times(&spans).is_err());
    }

    #[test]
    fn trials_are_plans_under_a_service_span() {
        let spans = [
            span(Layer::Root, None, 0, 100),
            span(Layer::Service, Some(0), 0, 50),
            span(Layer::Plan, Some(1), 10, 20),
            span(Layer::Plan, Some(0), 60, 70),
        ];
        let mut b = Breakdown::default();
        assert_eq!(b.add(&spans), Ok(()));
        assert_eq!(b.trials, 1);
    }

    #[test]
    fn recorded_spans_nest_and_add_up() {
        start();
        {
            let _root = enter(Layer::Root, 0);
            let outer = enter(Layer::Engine, engine_tag::PREPARE);
            drop(enter(Layer::Plan, Method::Clip as u8));
            drop(outer);
        }
        let spans = stop();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans.get(2).and_then(|s| s.parent), Some(1));
        let mut b = Breakdown::default();
        assert_eq!(b.add(&spans), Ok(()));
        let total: u64 = Layer::ALL.iter().map(|&l| b.layer_ns(l)).sum();
        assert_eq!(total, b.wall_ns);
        assert!(!recording());
        assert_eq!(enter(Layer::Root, 0).close(), 0, "no spans when stopped");
    }
}
