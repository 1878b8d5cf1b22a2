//! `clip-trace`: offline analysis of clip-obs traces, binary or JSONL.
//!
//! ```text
//! clip-trace summary <trace>
//! clip-trace diff <a> <b>
//! clip-trace export <trace> <out.jsonl>
//! ```
//!
//! Every command sniffs the input: files starting with the `CLPT` stream
//! header decode through the binary wire format (what `BinarySink`
//! writes); anything else parses as JSONL, one record per line. The two
//! forms are interchangeable here — `summary` on a binary trace and on
//! its `export`ed JSONL print identical reports.
//!
//! `summary` reports, per run in the trace (a file may hold several — the
//! `ext_faults` harness traces every comparison method into one file): the
//! budget-utilization timeline, per-node power setpoint-vs-actual,
//! time-to-recover breakdown, and histogram summaries from the final
//! metrics snapshot.
//!
//! `diff` aligns two traces run-by-run (matching scheduler names in
//! order) and reports per-epoch utilization/performance deltas and the
//! TTR comparison — the workflow for before/after fault-handling changes.
//!
//! `export` re-serializes a trace as JSONL through the same deterministic
//! serializer the old per-event JSONL sink used, so the output is
//! byte-for-byte what that sink would have written — existing JSONL
//! tooling and golden FNV pins keep working against exported traces.
//!
//! A trace cut short or corrupted part-way still reports, binary or
//! JSONL: every command runs on the records before the first frame or
//! line that fails to decode, prints `N byte(s) after record K not
//! decoded: <error>` to stderr, and exits 2.
//!
//! Exits 0 on success, 2 on usage, I/O or parse errors, or a trace that
//! did not decode whole.

use clip_obs::{wire, TraceEvent, TraceRecord};
use simkit::table::Table;
use simkit::{Power, TimeSpan};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// One scheduler run sliced out of a trace file.
struct Run {
    scheduler: String,
    budget: Power,
    nodes: usize,
    records: Vec<TraceRecord>,
}

/// Per-epoch execution row (from `EpochCompleted`).
struct EpochRow {
    epoch: u64,
    caps_total: Power,
    measured: Power,
    performance: f64,
    wall: TimeSpan,
    replanned: bool,
}

/// Aggregated setpoint-vs-actual stats for one node.
#[derive(Default)]
struct NodeStat {
    samples: usize,
    setpoint_sum: f64,
    measured_sum: f64,
    measured_max: f64,
}

/// One completed recovery (from `Recovered`).
struct TtrRow {
    fault_epoch: u64,
    recovered_epoch: u64,
    ttr: TimeSpan,
    reclaimed: Power,
}

/// One arbiter grant decision (from `RackGranted`).
struct GrantRow {
    epoch: u64,
    rack: usize,
    granted: Power,
    demand: Power,
    alive: usize,
}

/// One whole-rack failure (from `RackCrashed`).
struct RackCrashRow {
    rack: usize,
    at_epoch: u64,
    reclaimed: Power,
}

/// Per-tenant service rollup (from the `Job*`/`SloEvaluated` events an
/// open-loop service run emits).
#[derive(Default)]
struct TenantStat {
    arrived: usize,
    admitted: usize,
    degraded: usize,
    rejected_infeasible: usize,
    rejected_hopeless: usize,
    preempted: usize,
    slo_total: usize,
    slo_met: usize,
    latencies: Vec<f64>,
}

impl TenantStat {
    /// Nearest-rank percentile over the observed completion latencies.
    fn percentile(&self, q: f64) -> Option<f64> {
        if self.latencies.is_empty() {
            return None;
        }
        let mut sorted = self.latencies.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let rank = ((q / 100.0) * n as f64).ceil() as usize;
        sorted.get(rank.saturating_sub(1).min(n - 1)).copied()
    }
}

/// One autoscaling decision (from `PoolScaled`).
struct PoolRow {
    epoch: u64,
    before: usize,
    after: usize,
    granted: Power,
}

/// Load a trace's records, and whether it decoded whole. A trace that
/// ends in bytes which do not decode (a run cut off mid-flush, a corrupt
/// frame or line) yields the records before them; the loss is reported on
/// stderr and the command still runs on that prefix.
fn load(path: &str) -> Result<(Vec<TraceRecord>, bool), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let (records, loss) = if wire::is_binary_trace(&bytes) {
        let (records, loss) = wire::decode_stream(&bytes).map_err(|e| format!("{path}: {e}"))?;
        (records, loss.map(|l| (l.bytes, l.error.to_string())))
    } else {
        jsonl_records(&bytes)
    };
    if let Some((lost, error)) = &loss {
        eprintln!(
            "clip-trace: {path}: {lost} byte(s) after record {} not decoded: {error}",
            records.len()
        );
    }
    if records.is_empty() {
        return Err(format!("{path}: no trace records"));
    }
    Ok((records, loss.is_none()))
}

/// Parse JSONL records up to the first line that fails: the records
/// before it, plus the undecoded byte count and error from that line on.
fn jsonl_records(bytes: &[u8]) -> (Vec<TraceRecord>, Option<(usize, String)>) {
    let mut records = Vec::new();
    let mut offset = 0;
    for (lineno, line) in bytes.split_inclusive(|&b| b == b'\n').enumerate() {
        let parsed = std::str::from_utf8(line)
            .map_err(|e| e.to_string())
            .and_then(|text| match text.trim() {
                "" => Ok(None),
                json => serde_json::from_str(json)
                    .map(Some)
                    .map_err(|e| e.to_string()),
            });
        match parsed {
            Ok(Some(rec)) => records.push(rec),
            Ok(None) => {}
            Err(e) => {
                let loss = (bytes.len() - offset, format!("line {}: {e}", lineno + 1));
                return (records, Some(loss));
            }
        }
        offset += line.len();
    }
    (records, None)
}

/// Slice a record stream into runs at `RunStarted` boundaries. Records
/// before the first boundary form an anonymous run.
fn split_runs(records: Vec<TraceRecord>) -> Vec<Run> {
    let mut runs: Vec<Run> = Vec::new();
    for rec in records {
        if let TraceEvent::RunStarted {
            scheduler,
            budget,
            nodes,
            ..
        } = &rec.event
        {
            runs.push(Run {
                scheduler: scheduler.clone(),
                budget: *budget,
                nodes: *nodes,
                records: vec![rec],
            });
            continue;
        }
        // The cluster-level arbiter stream of a sharded campaign is its
        // own run: RackGranted/RackCrashed records that follow summarize
        // per-rack, not per-node.
        if let TraceEvent::ShardRunStarted {
            budget,
            racks,
            nodes,
            ..
        } = &rec.event
        {
            runs.push(Run {
                scheduler: format!("(arbiter over {racks} racks)"),
                budget: *budget,
                nodes: *nodes,
                records: vec![rec],
            });
            continue;
        }
        match runs.last_mut() {
            Some(run) => run.records.push(rec),
            None => runs.push(Run {
                scheduler: "(untagged)".to_string(),
                budget: Power::ZERO,
                nodes: 0,
                records: vec![rec],
            }),
        }
    }
    runs
}

fn epoch_rows(run: &Run) -> Vec<EpochRow> {
    run.records
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::EpochCompleted {
                caps_total,
                measured,
                performance,
                wall,
                replanned,
                ..
            } => Some(EpochRow {
                epoch: r.epoch,
                caps_total: *caps_total,
                measured: *measured,
                performance: *performance,
                wall: *wall,
                replanned: *replanned,
            }),
            _ => None,
        })
        .collect()
}

fn node_stats(run: &Run) -> BTreeMap<usize, NodeStat> {
    let mut stats: BTreeMap<usize, NodeStat> = BTreeMap::new();
    for rec in &run.records {
        if let TraceEvent::NodePowerSample {
            node,
            setpoint,
            measured,
            ..
        } = &rec.event
        {
            let s = stats.entry(*node).or_default();
            s.samples += 1;
            s.setpoint_sum += setpoint.as_watts();
            s.measured_sum += measured.as_watts();
            s.measured_max = s.measured_max.max(measured.as_watts());
        }
    }
    stats
}

fn ttr_rows(run: &Run) -> Vec<TtrRow> {
    run.records
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::Recovered {
                fault_epoch,
                recovered_epoch,
                time_to_recover,
                reclaimed,
            } => Some(TtrRow {
                fault_epoch: *fault_epoch,
                recovered_epoch: *recovered_epoch,
                ttr: *time_to_recover,
                reclaimed: *reclaimed,
            }),
            _ => None,
        })
        .collect()
}

fn grant_rows(run: &Run) -> Vec<GrantRow> {
    run.records
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::RackGranted {
                rack,
                granted,
                demand,
                alive,
            } => Some(GrantRow {
                epoch: r.epoch,
                rack: *rack,
                granted: *granted,
                demand: *demand,
                alive: *alive,
            }),
            _ => None,
        })
        .collect()
}

fn rack_crash_rows(run: &Run) -> Vec<RackCrashRow> {
    run.records
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::RackCrashed {
                rack,
                at_epoch,
                reclaimed,
            } => Some(RackCrashRow {
                rack: *rack,
                at_epoch: *at_epoch,
                reclaimed: *reclaimed,
            }),
            _ => None,
        })
        .collect()
}

fn tenant_stats(run: &Run) -> BTreeMap<String, TenantStat> {
    let mut stats: BTreeMap<String, TenantStat> = BTreeMap::new();
    for rec in &run.records {
        match &rec.event {
            TraceEvent::JobArrived { tenant, .. } => {
                stats.entry(tenant.clone()).or_default().arrived += 1;
            }
            TraceEvent::JobAdmitted {
                tenant, degraded, ..
            } => {
                let s = stats.entry(tenant.clone()).or_default();
                s.admitted += 1;
                if *degraded {
                    s.degraded += 1;
                }
            }
            TraceEvent::JobRejected { tenant, reason, .. } => {
                let s = stats.entry(tenant.clone()).or_default();
                match reason {
                    clip_obs::RejectTag::Infeasible => s.rejected_infeasible += 1,
                    clip_obs::RejectTag::SloHopeless => s.rejected_hopeless += 1,
                }
            }
            TraceEvent::JobPreempted { tenant, .. } => {
                stats.entry(tenant.clone()).or_default().preempted += 1;
            }
            TraceEvent::SloEvaluated {
                tenant,
                latency,
                met,
                ..
            } => {
                let s = stats.entry(tenant.clone()).or_default();
                s.slo_total += 1;
                if *met {
                    s.slo_met += 1;
                }
                s.latencies.push(latency.as_secs());
            }
            _ => {}
        }
    }
    stats
}

fn pool_rows(run: &Run) -> Vec<PoolRow> {
    run.records
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::PoolScaled {
                nodes_before,
                nodes_after,
                granted,
            } => Some(PoolRow {
                epoch: r.epoch,
                before: *nodes_before,
                after: *nodes_after,
                granted: *granted,
            }),
            _ => None,
        })
        .collect()
}

fn fault_counts(run: &Run) -> (usize, usize) {
    let mut applied = 0;
    let mut ignored = 0;
    for rec in &run.records {
        if let TraceEvent::FaultApplied { impact, .. } = &rec.event {
            match impact {
                clip_obs::ImpactTag::Ignored => ignored += 1,
                clip_obs::ImpactTag::PoolChanged | clip_obs::ImpactTag::ActuationOnly => {
                    applied += 1
                }
            }
        }
    }
    (applied, ignored)
}

fn metrics_snapshot(run: &Run) -> Option<&clip_obs::MetricRegistry> {
    run.records.iter().rev().find_map(|r| match &r.event {
        TraceEvent::MetricsSnapshot { metrics } => Some(metrics),
        _ => None,
    })
}

fn utilization(power: Power, budget: Power) -> f64 {
    if budget.as_watts() > 0.0 {
        power.as_watts() / budget.as_watts()
    } else {
        0.0
    }
}

fn summarize_run(run: &Run) {
    println!(
        "run: {} (budget {:.1} W, {} nodes, {} records)",
        run.scheduler,
        run.budget.as_watts(),
        run.nodes,
        run.records.len()
    );
    let (applied, ignored) = fault_counts(run);
    if applied + ignored > 0 {
        println!("faults: {applied} applied, {ignored} ignored");
    }

    let tenants = tenant_stats(run);
    if !tenants.is_empty() {
        let fmt_s = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.1}"));
        let mut table = Table::new(
            "service: per-tenant admission and SLO",
            &[
                "tenant",
                "arrived",
                "admitted",
                "degraded",
                "rej infeas",
                "rej slo",
                "preempted",
                "SLO met",
                "p50 (s)",
                "p95 (s)",
                "p99 (s)",
            ],
        );
        for (name, s) in &tenants {
            table.row(&[
                name.clone(),
                s.arrived.to_string(),
                s.admitted.to_string(),
                s.degraded.to_string(),
                s.rejected_infeasible.to_string(),
                s.rejected_hopeless.to_string(),
                s.preempted.to_string(),
                format!("{}/{}", s.slo_met, s.slo_total),
                fmt_s(s.percentile(50.0)),
                fmt_s(s.percentile(95.0)),
                fmt_s(s.percentile(99.0)),
            ]);
        }
        print!("{}", table.render());
        let (met, total) = tenants
            .values()
            .fold((0, 0), |(m, t), s| (m + s.slo_met, t + s.slo_total));
        if total > 0 {
            println!(
                "overall SLO attainment: {:.1}% ({met}/{total} evaluated)",
                100.0 * met as f64 / total as f64
            );
        }
    }
    let pools = pool_rows(run);
    if let (Some(first), Some(last)) = (pools.first(), pools.last()) {
        let path: Vec<String> = std::iter::once(first.before.to_string())
            .chain(pools.iter().map(|p| p.after.to_string()))
            .collect();
        println!(
            "pool scalings: {} ({} nodes), final grant {:.1} W at epoch {}",
            pools.len(),
            path.join("→"),
            last.granted.as_watts(),
            last.epoch
        );
    }

    let grants = grant_rows(run);
    if !grants.is_empty() {
        let mut table = Table::new(
            "per-rack budget grants",
            &[
                "epoch",
                "rack",
                "granted (W)",
                "demand (W)",
                "alive",
                "grant/budget",
            ],
        );
        for g in &grants {
            table.row(&[
                g.epoch.to_string(),
                g.rack.to_string(),
                format!("{:.1}", g.granted.as_watts()),
                format!("{:.1}", g.demand.as_watts()),
                g.alive.to_string(),
                format!("{:.3}", utilization(g.granted, run.budget)),
            ]);
        }
        print!("{}", table.render());
    }
    for c in &rack_crash_rows(run) {
        println!(
            "rack {} crashed at epoch {} (reclaimed {:.1} W for survivors)",
            c.rack,
            c.at_epoch,
            c.reclaimed.as_watts()
        );
    }

    let rows = epoch_rows(run);
    if !rows.is_empty() {
        let mut table = Table::new(
            "budget utilization timeline",
            &[
                "epoch",
                "caps (W)",
                "meas (W)",
                "caps/budget",
                "meas/budget",
                "perf (it/s)",
                "wall (s)",
                "replan",
            ],
        );
        for row in &rows {
            table.row(&[
                row.epoch.to_string(),
                format!("{:.1}", row.caps_total.as_watts()),
                format!("{:.1}", row.measured.as_watts()),
                format!("{:.3}", utilization(row.caps_total, run.budget)),
                format!("{:.3}", utilization(row.measured, run.budget)),
                format!("{:.3}", row.performance),
                format!("{:.1}", row.wall.as_secs()),
                if row.replanned { "yes" } else { "" }.to_string(),
            ]);
        }
        print!("{}", table.render());
    }

    let stats = node_stats(run);
    if !stats.is_empty() {
        let mut table = Table::new(
            "per-node power: setpoint vs actual",
            &[
                "node",
                "epochs",
                "mean set (W)",
                "mean act (W)",
                "max act (W)",
                "act/set",
            ],
        );
        for (node, s) in &stats {
            let n = s.samples.max(1) as f64;
            let mean_set = s.setpoint_sum / n;
            let mean_act = s.measured_sum / n;
            let ratio = if mean_set > 0.0 {
                mean_act / mean_set
            } else {
                0.0
            };
            table.row(&[
                node.to_string(),
                s.samples.to_string(),
                format!("{mean_set:.1}"),
                format!("{mean_act:.1}"),
                format!("{:.1}", s.measured_max),
                format!("{ratio:.3}"),
            ]);
        }
        print!("{}", table.render());
    }

    let ttrs = ttr_rows(run);
    if ttrs.is_empty() {
        println!("recoveries: none");
    } else {
        let mut table = Table::new(
            "time-to-recover breakdown",
            &["fault epoch", "recovered", "TTR (s)", "reclaimed (W)"],
        );
        for t in &ttrs {
            table.row(&[
                t.fault_epoch.to_string(),
                t.recovered_epoch.to_string(),
                format!("{:.2}", t.ttr.as_secs()),
                format!("{:.1}", t.reclaimed.as_watts()),
            ]);
        }
        print!("{}", table.render());
        let mean: f64 = ttrs.iter().map(|t| t.ttr.as_secs()).sum::<f64>() / ttrs.len() as f64;
        println!("mean TTR: {mean:.2} s over {} recoveries", ttrs.len());
    }
    println!();
}

fn summarize_metrics(runs: &[Run]) {
    let Some(metrics) = runs.iter().rev().find_map(metrics_snapshot) else {
        return;
    };
    let mut table = Table::new(
        "histogram summaries",
        &["metric", "count", "mean", "p50", "p90", "max"],
    );
    for (name, hist) in metrics.histograms() {
        table.row(&[
            name.to_string(),
            hist.count().to_string(),
            format!("{:.3}", hist.mean()),
            format!("{:.3}", hist.quantile(0.5).unwrap_or(0.0)),
            format!("{:.3}", hist.quantile(0.9).unwrap_or(0.0)),
            format!("{:.3}", hist.max().unwrap_or(0.0)),
        ]);
    }
    if !table.is_empty() {
        print!("{}", table.render());
    }
}

fn cmd_summary(path: &str) -> Result<bool, String> {
    let (records, whole) = load(path)?;
    let runs = split_runs(records);
    println!("trace: {path} ({} run(s))\n", runs.len());
    for run in &runs {
        summarize_run(run);
    }
    summarize_metrics(&runs);
    Ok(whole)
}

fn diff_runs(a: &Run, b: &Run) {
    println!(
        "diff: {} (budget {:.1} W) vs {} (budget {:.1} W)",
        a.scheduler,
        a.budget.as_watts(),
        b.scheduler,
        b.budget.as_watts()
    );
    let rows_a = epoch_rows(a);
    let rows_b = epoch_rows(b);
    let mut table = Table::new(
        "per-epoch utilization and performance",
        &[
            "epoch", "utilA", "utilB", "Δutil", "perfA", "perfB", "Δperf",
        ],
    );
    let mut max_du: f64 = 0.0;
    for (ra, rb) in rows_a.iter().zip(&rows_b) {
        let ua = utilization(ra.measured, a.budget);
        let ub = utilization(rb.measured, b.budget);
        let du = ub - ua;
        max_du = max_du.max(du.abs());
        table.row(&[
            format!("{}/{}", ra.epoch, rb.epoch),
            format!("{ua:.3}"),
            format!("{ub:.3}"),
            format!("{du:+.3}"),
            format!("{:.3}", ra.performance),
            format!("{:.3}", rb.performance),
            format!("{:+.3}", rb.performance - ra.performance),
        ]);
    }
    print!("{}", table.render());
    if rows_a.len() != rows_b.len() {
        println!("epoch count differs: {} vs {}", rows_a.len(), rows_b.len());
    }
    println!("max |Δutil|: {max_du:.3}");

    let mean_ttr = |rows: &[TtrRow]| -> Option<f64> {
        if rows.is_empty() {
            None
        } else {
            Some(rows.iter().map(|t| t.ttr.as_secs()).sum::<f64>() / rows.len() as f64)
        }
    };
    let (ta, tb) = (ttr_rows(a), ttr_rows(b));
    let show = |t: Option<f64>| t.map_or("-".to_string(), |v| format!("{v:.2} s"));
    println!(
        "recoveries: {} vs {}; mean TTR: {} vs {}",
        ta.len(),
        tb.len(),
        show(mean_ttr(&ta)),
        show(mean_ttr(&tb))
    );

    let (sa, sb) = (node_stats(a), node_stats(b));
    let mut max_node_delta: f64 = 0.0;
    for (node, stat_a) in &sa {
        if let Some(stat_b) = sb.get(node) {
            let ma = stat_a.measured_sum / stat_a.samples.max(1) as f64;
            let mb = stat_b.measured_sum / stat_b.samples.max(1) as f64;
            max_node_delta = max_node_delta.max((mb - ma).abs());
        }
    }
    println!("max per-node mean-power delta: {max_node_delta:.1} W");

    // Service-level comparison: tenants paired by name across the runs.
    let (ta_svc, tb_svc) = (tenant_stats(a), tenant_stats(b));
    if !ta_svc.is_empty() || !tb_svc.is_empty() {
        let attain = |s: &TenantStat| -> Option<f64> {
            (s.slo_total > 0).then(|| 100.0 * s.slo_met as f64 / s.slo_total as f64)
        };
        let show_pc = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.1}%"));
        let mut table = Table::new(
            "service: per-tenant SLO and admission deltas",
            &[
                "tenant",
                "SLO% A",
                "SLO% B",
                "rej A",
                "rej B",
                "p95 A",
                "p95 B",
                "Δp95 (s)",
            ],
        );
        let empty = TenantStat::default();
        let names: std::collections::BTreeSet<&String> =
            ta_svc.keys().chain(tb_svc.keys()).collect();
        for name in names {
            let (stat_a, stat_b) = (
                ta_svc.get(name).unwrap_or(&empty),
                tb_svc.get(name).unwrap_or(&empty),
            );
            let rej = |s: &TenantStat| s.rejected_infeasible + s.rejected_hopeless;
            let (p95a, p95b) = (stat_a.percentile(95.0), stat_b.percentile(95.0));
            let dp95 = match (p95a, p95b) {
                (Some(x), Some(y)) => format!("{:+.1}", y - x),
                _ => "-".to_string(),
            };
            table.row(&[
                name.clone(),
                show_pc(attain(stat_a)),
                show_pc(attain(stat_b)),
                rej(stat_a).to_string(),
                rej(stat_b).to_string(),
                p95a.map_or("-".to_string(), |x| format!("{x:.1}")),
                p95b.map_or("-".to_string(), |x| format!("{x:.1}")),
                dp95,
            ]);
        }
        print!("{}", table.render());
    }
    println!();
}

fn cmd_diff(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (records_a, whole_a) = load(path_a)?;
    let (records_b, whole_b) = load(path_b)?;
    let runs_a = split_runs(records_a);
    let runs_b = split_runs(records_b);
    println!(
        "diff: {path_a} ({} run(s)) vs {path_b} ({} run(s))\n",
        runs_a.len(),
        runs_b.len()
    );
    // Pair by scheduler name where possible, by position otherwise.
    for (i, a) in runs_a.iter().enumerate() {
        let b = runs_b
            .iter()
            .find(|r| r.scheduler == a.scheduler)
            .or_else(|| runs_b.get(i));
        match b {
            Some(b) => diff_runs(a, b),
            None => println!("run {} ({}) has no counterpart\n", i, a.scheduler),
        }
    }
    Ok(whole_a && whole_b)
}

/// Re-serialize a trace (binary or JSONL) as JSONL, byte-for-byte what
/// the old per-event JSONL sink produced for the same records.
fn cmd_export(input: &str, output: &str) -> Result<bool, String> {
    let (records, whole) = load(input)?;
    let mut out = String::new();
    let mut line = String::new();
    for rec in &records {
        serde_json::to_string_into(rec, &mut line).map_err(|e| format!("{input}: {e}"))?;
        out.push_str(&line);
        out.push('\n');
    }
    std::fs::write(output, &out).map_err(|e| format!("{output}: {e}"))?;
    println!("exported {} record(s) to {output}", records.len());
    Ok(whole)
}

/// Run the command line; `Ok(false)` when it ran on a trace that did not
/// decode whole.
fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [cmd, path] if cmd == "summary" => cmd_summary(path),
        [cmd, a, b] if cmd == "diff" => cmd_diff(a, b),
        [cmd, input, output] if cmd == "export" => cmd_export(input, output),
        _ => Err(
            "usage: clip-trace summary <trace> | clip-trace diff <a> <b> | \
             clip-trace export <trace> <out.jsonl>"
                .to_string(),
        ),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(msg) => {
            eprintln!("clip-trace: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(seq: u64) -> String {
        let rec = TraceRecord {
            seq,
            epoch: seq,
            event: TraceEvent::PoolScaled {
                nodes_before: 4,
                nodes_after: 8,
                granted: Power::watts(900.0),
            },
        };
        serde_json::to_string(&rec).expect("a record serializes") + "\n"
    }

    #[test]
    fn a_whole_jsonl_trace_decodes_without_loss() {
        let text = line(0) + "\n" + &line(1);
        let (records, loss) = jsonl_records(text.as_bytes());
        assert_eq!(records.iter().map(|r| r.seq).collect::<Vec<_>>(), [0, 1]);
        assert!(loss.is_none());
    }

    #[test]
    fn a_cut_jsonl_trace_keeps_the_lines_before_the_cut() {
        let whole = line(0) + &line(1) + &line(2);
        let cut = &whole.as_bytes()[..whole.len() - 3];
        let (records, loss) = jsonl_records(cut);
        assert_eq!(records.iter().map(|r| r.seq).collect::<Vec<_>>(), [0, 1]);
        let (lost, error) = loss.expect("the cut line is reported");
        assert_eq!(lost, line(2).len() - 3);
        assert!(error.starts_with("line 3: "), "{error}");
    }
}
