//! The deterministic metric registry: counters, gauges, histograms.
//!
//! Everything is keyed by `BTreeMap` and advances only with the sim clock
//! (no `HashMap`, no `Instant`: `crates/clippy.toml` bans both), so the
//! registry serializes identically across identically seeded runs — a
//! [`MetricRegistry`] snapshot is part of the byte-stable trace.
//!
//! Histograms use *fixed* bucket bounds chosen at registration: observing
//! never reallocates or rebalances, so the memory profile of a long run is
//! flat and the serialized shape never depends on the data.

use crate::wire::{Cursor, Wire, WireError};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The metric families the registry holds. A domain enum: matches must be
/// exhaustive, so a new family cannot be silently dropped from the
/// Prometheus exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricKind {
    /// Monotone event count.
    Counter,
    /// Last-write-wins instantaneous value.
    Gauge,
    /// Fixed-bucket distribution of observations.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword for this family.
    pub fn as_str(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Default bucket ladder: a 1–2.5–5 decade progression covering the
/// quantities this workspace observes (ratios, seconds, watts).
pub const DEFAULT_BUCKETS: [f64; 15] = [
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
];

/// A fixed-bucket histogram. `counts` has one slot per bound plus the
/// overflow bucket; `counts[i]` holds observations `≤ bounds[i]` in the
/// cumulative view Prometheus expects, stored here as per-bucket tallies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    count: u64,
    max: f64,
}

impl Histogram {
    /// A histogram over strictly ascending `bounds` (plus an implicit
    /// overflow bucket). Panics on an empty or non-ascending ladder.
    pub fn with_bounds(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.iter().zip(bounds.iter().skip(1)).all(|(a, b)| a < b),
            "histogram bounds must ascend strictly"
        );
        let slots = bounds.len() + 1;
        Self {
            bounds,
            counts: vec![0; slots],
            sum: 0.0,
            count: 0,
            max: f64::NEG_INFINITY,
        }
    }

    /// A histogram over [`DEFAULT_BUCKETS`].
    pub fn with_default_bounds() -> Self {
        Self::with_bounds(DEFAULT_BUCKETS.to_vec())
    }

    /// Record one observation into the first bucket whose bound is at
    /// least `value`, found by binary search over the ascending bounds. A
    /// NaN compares to no bound, so it lands in the overflow bucket.
    pub fn observe(&mut self, value: f64) {
        let slot = self
            .bounds
            .partition_point(|b| matches!(value.partial_cmp(b), Some(Ordering::Greater) | None));
        if let Some(c) = self.counts.get_mut(slot) {
            *c += 1;
        }
        self.sum += value;
        self.count += 1;
        self.max = self.max.max(value);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Largest observation seen (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Bucket-resolution quantile estimate: the upper bound of the bucket
    /// holding the `q`-th observation (the exact max for the overflow
    /// bucket). `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (slot, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(self.bounds.get(slot).copied().unwrap_or(self.max));
            }
        }
        Some(self.max)
    }

    /// The bucket bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket tallies (`bounds.len() + 1` slots, overflow last).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }
}

/// The raw fields in declaration order, the running maximum included
/// (`NEG_INFINITY` when empty), so a decoded histogram compares equal to
/// the original. Decoding does not re-validate the bounds: the codec
/// round-trips whatever was encoded.
impl Wire for Histogram {
    fn put(&self, out: &mut Vec<u8>) {
        self.bounds.put(out);
        self.counts.put(out);
        self.sum.put(out);
        self.count.put(out);
        self.max.put(out);
    }

    fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(Self {
            bounds: Wire::get(cur)?,
            counts: Wire::get(cur)?,
            sum: Wire::get(cur)?,
            count: Wire::get(cur)?,
            max: Wire::get(cur)?,
        })
    }
}

/// Deterministic registry of named metrics.
///
/// Names are free-form but should be `snake_case` with unit suffixes
/// (`epoch_time_secs`, `budget_utilization`); the Prometheus exposition
/// sanitizes anything else.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to a counter, creating it at zero on first touch.
    /// The lookup-first shape keeps the steady-state path (key already
    /// present) free of the `String` allocation `entry()` would force.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Set a gauge.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        if let Some(g) = self.gauges.get_mut(name) {
            *g = value;
        } else {
            self.gauges.insert(name.to_string(), value);
        }
    }

    /// Pre-register a histogram with explicit bucket bounds. Observing an
    /// unregistered name falls back to [`DEFAULT_BUCKETS`].
    pub fn register_histogram(&mut self, name: &str, bounds: Vec<f64>) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::with_bounds(bounds));
    }

    /// Record one observation into a histogram.
    pub fn observe(&mut self, name: &str, value: f64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(value);
        } else {
            let mut h = Histogram::with_default_bounds();
            h.observe(value);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// A counter's current value (`None` if never touched).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// A gauge's current value (`None` if never set).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// A histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All histograms, in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// All counters, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All gauges, in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Render the registry in the Prometheus text exposition format
    /// (v0.0.4): counters and gauges as single samples, histograms as
    /// cumulative `_bucket{le=…}` series plus `_sum`/`_count`. Output is
    /// deterministic: families sort by name.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let name = sanitize(name);
            let kind = MetricKind::Counter.as_str();
            let _ = writeln!(out, "# TYPE {name} {kind}");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in &self.gauges {
            let name = sanitize(name);
            let kind = MetricKind::Gauge.as_str();
            let _ = writeln!(out, "# TYPE {name} {kind}");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, hist) in &self.histograms {
            let name = sanitize(name);
            let kind = MetricKind::Histogram.as_str();
            let _ = writeln!(out, "# TYPE {name} {kind}");
            let mut cumulative = 0u64;
            for (bound, count) in hist.bounds.iter().zip(&hist.counts) {
                cumulative += count;
                let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
            }
            let _ = writeln!(
                out,
                "{name}_bucket{{le=\"+Inf\"}} {count}",
                count = hist.count
            );
            let _ = writeln!(out, "{name}_sum {sum}", sum = hist.sum);
            let _ = writeln!(out, "{name}_count {count}", count = hist.count);
        }
        out
    }
}

/// Counters, gauges, then histograms, each family in name order.
impl Wire for MetricRegistry {
    fn put(&self, out: &mut Vec<u8>) {
        self.counters.put(out);
        self.gauges.put(out);
        self.histograms.put(out);
    }

    fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(Self {
            counters: Wire::get(cur)?,
            gauges: Wire::get(cur)?,
            histograms: Wire::get(cur)?,
        })
    }
}

/// Restrict a metric name to the Prometheus charset `[a-zA-Z0-9_:]`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The values a comparison treats specially.
    const SPECIAL: [f64; 7] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::MIN_POSITIVE,
        1.0,
    ];

    /// A bound or an observation: any float, a small one, or a special
    /// value.
    fn float() -> impl Strategy<Value = f64> {
        prop_oneof![
            any::<f64>(),
            -1e3f64..1e3,
            (0..SPECIAL.len()).prop_map(|i| SPECIAL[i]),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The binary search puts every observation in the bucket the
        /// linear scan it replaced picks: the first bound at least the
        /// value, else overflow. Bounds are strictly ascending, any of them
        /// ±0 or ±∞; values include ±0, ±∞ and NaN, and every bound itself.
        #[test]
        fn observe_finds_the_linear_scans_bucket(
            draws in prop::collection::vec(float(), 1..24),
            values in prop::collection::vec(float(), 0..16),
        ) {
            let mut bounds: Vec<f64> = draws.into_iter().filter(|b| !b.is_nan()).collect();
            bounds.sort_by(f64::total_cmp);
            bounds.dedup_by(|a, b| a == b);
            prop_assume!(!bounds.is_empty());
            let mut hist = Histogram::with_bounds(bounds.clone());
            let mut want = vec![0u64; bounds.len() + 1];
            for &value in values.iter().chain(&bounds) {
                let slot = bounds.iter().position(|&b| value <= b).unwrap_or(bounds.len());
                want[slot] += 1;
                hist.observe(value);
            }
            prop_assert_eq!(&hist.counts, &want);
        }
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let mut reg = MetricRegistry::new();
        reg.counter_add("epochs_total", 1);
        reg.counter_add("epochs_total", 2);
        reg.gauge_set("survivors", 8.0);
        reg.gauge_set("survivors", 6.0);
        assert_eq!(reg.counter("epochs_total"), Some(3));
        assert_eq!(reg.gauge("survivors"), Some(6.0));
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::with_bounds(vec![1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 1.7, 3.0, 10.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.bucket_counts(), &[1, 2, 1, 1]);
        assert!((h.mean() - 16.7 / 5.0).abs() < 1e-12);
        assert_eq!(h.max(), Some(10.0));
        assert_eq!(h.quantile(0.5), Some(2.0));
        assert_eq!(h.quantile(1.0), Some(10.0), "overflow resolves to max");
        assert_eq!(Histogram::with_default_bounds().quantile(0.5), None);
    }

    #[test]
    #[should_panic(expected = "ascend strictly")]
    fn non_ascending_bounds_rejected() {
        Histogram::with_bounds(vec![1.0, 1.0]);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let mut reg = MetricRegistry::new();
        reg.counter_add("faults_applied_total", 4);
        reg.gauge_set("budget.utilization", 0.93);
        reg.register_histogram("epoch_time_secs", vec![10.0, 100.0]);
        reg.observe("epoch_time_secs", 42.0);
        reg.observe("epoch_time_secs", 700.0);
        let text = reg.prometheus();
        assert!(text.contains("# TYPE faults_applied_total counter"));
        assert!(text.contains("faults_applied_total 4"));
        assert!(
            text.contains("budget_utilization 0.93"),
            "dots sanitized: {text}"
        );
        assert!(text.contains("epoch_time_secs_bucket{le=\"100\"} 1"));
        assert!(text.contains("epoch_time_secs_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("epoch_time_secs_count 2"));
    }

    #[test]
    fn registry_round_trips_and_is_order_stable() {
        let mut reg = MetricRegistry::new();
        reg.counter_add("b", 2);
        reg.counter_add("a", 1);
        reg.observe("t", 0.3);
        let json = serde_json::to_string(&reg).expect("serialize");
        // BTreeMap keys serialize sorted regardless of insertion order.
        assert!(json.find("\"a\"").expect("a") < json.find("\"b\"").expect("b"));
        let back: MetricRegistry = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, reg);
    }
}
