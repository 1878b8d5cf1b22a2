//! Per-layer metrics from the span run, and the end-to-end metrics from
//! the timed run.

use crate::span::{engine_tag, service_tag, Breakdown, Layer, Method};
use crate::stats::{median, quartiles, relative_spread};
use crate::workloads::{Round, Variant};
use std::time::Duration;

/// `(name, unit, better)` of every end-to-end metric, printed with
/// `--trace 0`.
pub const END_TO_END: [(&str, &str, &str); 3] = [
    ("epochs_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric, printed with
/// `--trace 1`. `LAYERS.md` says what each measures and which end-to-end
/// metric it should move.
pub const PER_LAYER: [(&str, &str, &str); 36] = [
    ("sweep.fanout_net_us", "us", "lower"),
    ("plan.calls_per_epoch", "count", "lower"),
    ("plan.us_per_call", "us", "lower"),
    ("plan.us_per_call.oracle", "us", "lower"),
    ("plan.us_per_call.clip", "us", "lower"),
    ("plan.us_per_call.allin", "us", "lower"),
    ("plan.us_per_call.lowerlimit", "us", "lower"),
    ("plan.us_per_call.coordinated", "us", "lower"),
    ("plan.share", "ratio", "lower"),
    ("plan.unchanged_ratio", "ratio", "lower"),
    ("plan.allocs_per_call", "count", "lower"),
    ("engine.prepare_us", "us", "lower"),
    ("engine.settle_us", "us", "lower"),
    ("engine.replan_ratio", "ratio", "lower"),
    ("engine.share", "ratio", "lower"),
    ("service.boundary_us", "us", "lower"),
    ("service.trials_per_arrival", "count", "lower"),
    ("service.share", "ratio", "lower"),
    ("hierarchy.epoch_us_1w", "us", "lower"),
    ("hierarchy.unattributed_us", "us", "lower"),
    ("hierarchy.share", "ratio", "lower"),
    ("execute.us_per_epoch", "us", "lower"),
    ("execute.node_iterations_per_epoch", "count", "lower"),
    ("execute.ns_per_node_iteration", "ns", "lower"),
    ("execute.share", "ratio", "lower"),
    ("obs.frames_per_epoch", "count", "lower"),
    ("obs.bytes_per_epoch", "B", "lower"),
    ("obs.encode_ns_per_frame", "ns", "lower"),
    ("obs.sink_ns_per_frame", "ns", "lower"),
    ("obs.failed_writes", "count", "lower"),
    ("obs.share", "ratio", "lower"),
    ("alloc.per_epoch", "count", "lower"),
    ("alloc.bytes_per_epoch", "B", "lower"),
    ("audit.violations", "count", "lower"),
    ("bench.span_overhead", "ratio", "lower"),
    ("bench.residual_share", "ratio", "lower"),
];

/// `x / y`, or 0 when nothing was measured.
fn ratio(x: f64, y: f64) -> f64 {
    if y > 0.0 {
        x / y
    } else {
        0.0
    }
}

/// A printed metric: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

fn named(list: &[(&'static str, &'static str, &'static str)], values: &[f64]) -> Vec<Metric> {
    list.iter()
        .zip(values)
        .map(|(&(name, unit, _), &value)| (name, unit, value))
        .collect()
}

/// The end-to-end metrics of a set of timed rounds, in [`END_TO_END`]
/// order, from their [`best`] times.
pub fn end_to_end(timed: &[Round], peak_rss_mb: f64) -> Vec<Metric> {
    let best = best(timed);
    let values = [
        ratio(best.epochs as f64, best.wall_s),
        best.setup_s,
        peak_rss_mb,
    ];
    named(&END_TO_END, &values)
}

/// The timed rounds' best times.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Best {
    /// Epochs of one round of each input set, summed over the sets.
    pub epochs: u64,
    /// Seconds those epochs take at best: for each input set and each
    /// separately timed unit, its shortest time over the rounds, summed.
    pub wall_s: f64,
    /// Shortest set-up per input set, averaged over the sets.
    pub setup_s: f64,
}

/// The best of the timed rounds. Rounds with the same inputs do the same
/// work; the host's neighbours only add time to them, in stretches of
/// seconds to minutes, so medians move with the host while each unit's
/// shortest time, reached in the gaps between those stretches, repeats.
/// Timing units shorter than a round (grid cells) lets a gap too short
/// for a whole round still count.
pub fn best(timed: &[Round]) -> Best {
    let mut best = Best::default();
    let sets = timed.iter().map(|r| r.input + 1).max().unwrap_or(0);
    let mut setups = Vec::new();
    for k in 0..sets {
        let mut rounds = timed.iter().filter(|r| r.input == k && !r.units.is_empty());
        let Some(first) = rounds.next() else {
            continue;
        };
        let mut units = first.units.clone();
        let mut setup = first.setup;
        for r in rounds {
            for (b, u) in units.iter_mut().zip(&r.units) {
                *b = (*b).min(*u);
            }
            setup = setup.min(r.setup);
        }
        best.epochs += first.epochs;
        best.wall_s += units.iter().map(Duration::as_secs_f64).sum::<f64>();
        setups.push(setup.as_secs_f64());
    }
    best.setup_s = ratio(setups.iter().sum(), setups.len() as f64);
    best
}

/// The per-round distribution behind the end-to-end figures: the number
/// of rounds, the median and quartiles, the worst value with at least ten
/// rounds beyond it (low rates, long set-ups), and the reported best.
pub fn rounds_table(timed: &[Round]) -> String {
    let rates: Vec<f64> = timed.iter().map(Round::rate).collect();
    let setups: Vec<f64> = timed.iter().map(|r| r.setup.as_secs_f64()).collect();
    let best = best(timed);
    let reported = [ratio(best.epochs as f64, best.wall_s), best.setup_s];
    let mut table = format!("timed rounds: {}\n", timed.len());
    for ((name, mut values, higher_is_better), best) in
        [("epochs_per_s", rates, true), ("setup_s", setups, false)]
            .into_iter()
            .zip(reported)
    {
        values.sort_by(f64::total_cmp);
        if higher_is_better {
            values.reverse();
        }
        let (q1, q3) = quartiles(&values).unwrap_or((0.0, 0.0));
        table.push_str(&format!(
            "  {name:<13} best {best:.6e}  median {:.6e}  q1 {q1:.6e}  q3 {q3:.6e}  spread {:.1}%",
            median(&values).unwrap_or(0.0),
            relative_spread(&values).unwrap_or(0.0) * 100.0
        ));
        if let Some(tail) = values.len().checked_sub(11).and_then(|i| values.get(i)) {
            table.push_str(&format!("  ten-worse {tail:.6e}"));
        }
        table.push('\n');
    }
    table
}

/// The spanned rounds' breakdowns summed.
pub fn total_breakdown(spanned: &[(Variant, Round)]) -> Breakdown {
    let mut total = Breakdown::default();
    for figures in spanned.iter().filter_map(|(_, r)| r.spans.as_ref()) {
        let b = &figures.breakdown;
        for (t, row) in total.self_ns.iter_mut().zip(b.self_ns.iter()) {
            for (x, y) in t.iter_mut().zip(row) {
                *x += y;
            }
        }
        for (t, row) in total.count.iter_mut().zip(b.count.iter()) {
            for (x, y) in t.iter_mut().zip(row) {
                *x += y;
            }
        }
        total.wall_ns += b.wall_ns;
        total.trials += b.trials;
    }
    total
}

/// Host microseconds per epoch of the timed phase of spanned rounds of
/// `variant` (`fleet`: from the end of set-up to the end of the run),
/// and the part of it plan calls took.
fn epoch_us(spanned: &[(Variant, Round)], variant: Variant) -> (f64, f64) {
    let (mut ns, mut plan_ns, mut epochs) = (0u64, 0u64, 0u64);
    for (_, r) in spanned.iter().filter(|(v, _)| *v == variant) {
        if let Some(f) = r.spans.as_ref() {
            ns += f.end_ns.saturating_sub(f.setup_end_ns);
            plan_ns += f.plan.warm_ns;
            epochs += r.epochs;
        }
    }
    let per = |x: u64| ratio(x as f64, epochs as f64) / 1e3;
    (per(ns), per(plan_ns))
}

/// Every per-layer metric, in [`PER_LAYER`] order.
///
/// `timed` are this process's timed rounds (allocation counts come from
/// the last); `spanned` the span run's rounds with their variant.
pub fn per_layer(timed: &[Round], spanned: &[(Variant, Round)], violations: u64) -> Vec<Metric> {
    let b = total_breakdown(spanned);
    let wall = b.wall_ns as f64;
    let share = |ns: u64| ratio(ns as f64, wall);
    let rounds = || spanned.iter().map(|(_, r)| r);
    let epochs: u64 = rounds().map(|r| r.epochs).sum();
    let sum = |f: fn(&Round) -> u64| rounds().map(f).sum::<u64>() as f64;
    let per_epoch_us = |ns: u64| ratio(ns as f64, epochs as f64) / 1e3;

    let plan_calls = b.layer_count(Layer::Plan) as f64;
    let plan_ns = b.layer_ns(Layer::Plan);
    let plan_stats = |f: fn(&crate::span::PlanStats) -> u64| {
        rounds()
            .filter_map(|r| r.spans.as_ref())
            .map(|s| f(&s.plan))
            .sum::<u64>() as f64
    };
    let us_per_call = |m: Method| {
        let tag = m as u8;
        ratio(
            b.tag_ns(Layer::Plan, tag) as f64,
            b.tag_count(Layer::Plan, tag) as f64,
        ) / 1e3
    };
    let (epoch_1w, plan_1w) = epoch_us(spanned, Variant::Spanned1w);
    let (epoch_2w, _) = epoch_us(spanned, Variant::Spanned);
    let fanout = if epoch_1w > 0.0 {
        epoch_2w - epoch_1w
    } else {
        0.0
    };
    let node_iterations = sum(|r| r.counts.node_iterations);
    let frames = sum(|r| r.counts.frames);
    let execute_ns = b.layer_ns(Layer::Execute);
    let (allocs, alloc_bytes, alloc_epochs) = timed.last().map_or((0, 0, 0), |r| {
        (r.counts.allocs, r.counts.alloc_bytes, r.epochs)
    });
    let span_scope: Vec<f64> = spanned
        .iter()
        .filter(|(v, _)| *v == Variant::Spanned)
        .map(|(_, r)| r.scope.as_secs_f64())
        .collect();
    let timed_scope: Vec<f64> = timed.iter().map(|r| r.scope.as_secs_f64()).collect();
    let overhead = ratio(
        median(&span_scope).unwrap_or(0.0),
        median(&timed_scope).unwrap_or(0.0),
    );

    let values = [
        fanout,
        ratio(plan_calls, epochs as f64),
        ratio(plan_ns as f64, plan_calls) / 1e3,
        us_per_call(Method::Oracle),
        us_per_call(Method::Clip),
        us_per_call(Method::AllIn),
        us_per_call(Method::LowerLimit),
        us_per_call(Method::Coordinated),
        share(plan_ns),
        ratio(plan_stats(|p| p.unchanged), plan_calls),
        ratio(plan_stats(|p| p.allocs), plan_calls),
        per_epoch_us(b.tag_ns(Layer::Engine, engine_tag::PREPARE)),
        per_epoch_us(b.tag_ns(Layer::Engine, engine_tag::SETTLE)),
        ratio(sum(|r| r.counts.replans), sum(|r| r.counts.replan_base)),
        share(b.layer_ns(Layer::Engine)),
        per_epoch_us(b.tag_ns(Layer::Service, service_tag::BOUNDARY)),
        ratio(b.trials as f64, sum(|r| r.counts.arrivals)),
        share(b.layer_ns(Layer::Service)),
        epoch_1w,
        if epoch_1w > 0.0 {
            epoch_1w - plan_1w
        } else {
            0.0
        },
        share(b.layer_ns(Layer::Hierarchy)),
        per_epoch_us(execute_ns),
        ratio(node_iterations, epochs as f64),
        ratio(execute_ns as f64, node_iterations),
        share(execute_ns),
        ratio(frames, epochs as f64),
        ratio(sum(|r| r.counts.bytes), epochs as f64),
        ratio(b.layer_ns(Layer::ObsRecord) as f64, frames),
        ratio(b.layer_ns(Layer::ObsSink) as f64, frames),
        sum(|r| r.counts.failed_writes),
        share(b.layer_ns(Layer::ObsRecord) + b.layer_ns(Layer::ObsSink)),
        ratio(allocs as f64, alloc_epochs as f64),
        ratio(alloc_bytes as f64, alloc_epochs as f64),
        violations as f64,
        overhead,
        share(b.residual_ns()),
    ];
    named(&PER_LAYER, &values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_takes_each_units_shortest_time_per_input_set() {
        let ms = Duration::from_millis;
        let round = |input, setup, units: &[u64]| Round {
            input,
            epochs: units.len() as u64,
            setup: ms(setup),
            units: units.iter().map(|&u| ms(u)).collect(),
            ..Round::default()
        };
        let timed = [
            round(0, 5, &[10, 20]),
            round(1, 4, &[30]),
            round(0, 3, &[12, 15]),
            round(1, 6, &[25]),
        ];
        let b = best(&timed);
        assert_eq!(b.epochs, 3);
        // Set 0: 10 ms + 15 ms from different rounds; set 1: 25 ms.
        assert!((b.wall_s - 0.050).abs() < 1e-12, "{b:?}");
        // Shortest set-ups 3 ms and 4 ms, averaged over the two sets.
        assert!((b.setup_s - 0.0035).abs() < 1e-12, "{b:?}");
        assert_eq!(best(&[]), Best::default());
    }

    /// The metric lists in `BENCHMARK.json` are the ones this module prints.
    #[test]
    fn benchmark_json_lists_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap_or_default();
        let json: serde_json::Value =
            serde_json::from_str(&text).unwrap_or(serde_json::Value::Null);
        let listed = |key: &str| -> Vec<(String, String, String)> {
            json.get(key)
                .and_then(|v| v.as_array())
                .map(|a| {
                    a.iter()
                        .map(|m| {
                            let field = |f: &str| {
                                m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string()
                            };
                            (field("name"), field("unit"), field("better"))
                        })
                        .collect()
                })
                .unwrap_or_default()
        };
        let ours = |list: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            list.iter()
                .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
    }
}
