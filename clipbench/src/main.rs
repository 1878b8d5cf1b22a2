//! The CLIP reproduction's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path clipbench/Cargo.toml -- \
//!     --workload <fleet|service|service_traced|paper_grid> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. A run measures [`INPUT_SETS`] input sets
//! generated from its seed. Every run first checks the outputs: rounds
//! at the default and the held-out seed must reproduce their pinned
//! report fingerprints, and a round of the workload's twin (`fleet` at 1
//! worker, `service` traced, `service_traced` untraced) on each input set
//! gives the reference every later round on that set must reproduce.
//! Then:
//!
//! - `--trace 0` cycles timed rounds (set-up, then the timed epochs)
//!   through the input sets for `--seconds` and prints the end-to-end
//!   metrics from the rounds' best times (see [`layers::best`]).
//! - `--trace 1` runs timed rounds on input set 0 for a third of the
//!   time, with the allocator counting, then spanned rounds for the rest,
//!   and prints the per-layer metrics and a self-time table checked
//!   against the span run's wall time.
//!
//! The last line of standard output is the JSON result; the line before
//! it is the environment metadata. Both, and the spans of the last spanned
//! round, are also written under `.bench_out/`.

mod alloc;
mod env;
mod layers;
mod pin;
mod span;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{
    input_seed, Round, Size, Variant, Workload, DEFAULT_SEED, HELD_OUT_SEED, INPUT_SETS,
};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Where results, traces and span dumps go, relative to the checkout.
const OUT_DIR: &str = ".bench_out";

/// Timed rounds after which `peak_rss_mb` is read: a fixed amount of work,
/// so the number of rounds a fast host fits into `--seconds` (and the heap
/// fragmentation they add) does not move it.
const RSS_ROUNDS: usize = 8;

/// Share of `--seconds` the span run spends on timed rounds.
const TRACE_TIMED_SHARE: f64 = 1.0 / 3.0;

/// Pinned report fingerprints at full size: `(report, seed, fnv)`.
/// `service` and `service_traced` share one report.
const PINS: [(&str, u64, u64); 6] = [
    ("fleet", DEFAULT_SEED, 0x57bb_8ba8_72ca_918f),
    ("fleet", HELD_OUT_SEED, 0x57e2_b60f_79c6_e20e),
    ("service", DEFAULT_SEED, 0x8b23_2c42_448a_0fc6),
    ("service", HELD_OUT_SEED, 0xba80_293d_4799_e261),
    ("paper_grid", DEFAULT_SEED, 0x1e7f_709c_5392_88e3),
    ("paper_grid", HELD_OUT_SEED, 0x9c47_f3b4_4ec9_0c35),
];

/// The pinned fingerprint of `workload`'s report at `seed`, if pinned.
fn pinned(workload: Workload, seed: u64) -> Option<u64> {
    let report = match workload {
        Workload::ServiceTraced => "service",
        w => w.name(),
    };
    PINS.iter()
        .find(|&&(r, s, _)| r == report && s == seed)
        .map(|&(_, _, fnv)| fnv)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Rounds attempted and failed, with the first few reasons.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
}

impl Tally {
    /// Run one round, check it, and count it. `expect` is the fingerprint
    /// its report must have.
    fn round(
        &mut self,
        workload: Workload,
        seed: u64,
        variant: Variant,
        expect: Option<u64>,
        out: &Path,
    ) -> Option<Round> {
        let violations = clip_core::audit::violation_count();
        let result = catch_unwind(AssertUnwindSafe(|| {
            workloads::round(workload, seed, Size::Full, variant, out)
        }));
        self.attempted += 1;
        let mut problems = Vec::new();
        let round = match result {
            Ok(round) => Some(round),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                problems.push(format!("round panicked: {msg}"));
                None
            }
        };
        if let Some(r) = round.as_ref() {
            problems.extend(r.problems.iter().cloned());
            if let Some(m) = workloads::fingerprint_mismatch(r.fingerprint, expect) {
                problems.push(format!("{variant:?} round at seed {seed}: {m}"));
            }
        }
        let new_violations = clip_core::audit::violation_count() - violations;
        if new_violations > 0 {
            problems.push(format!("{new_violations} audit violations"));
        }
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                if self.reasons.len() < 8 {
                    self.reasons.push(p);
                }
            }
        }
        round
    }
}

/// Everything one run produced.
struct Outcome {
    tally: Tally,
    metrics: Vec<layers::Metric>,
    table: String,
    last_spans: Vec<span::Span>,
    /// `[input set, setup_s, epochs_per_s]` of every timed round, in order.
    rounds: Vec<[f64; 3]>,
}

fn run(args: &Args, out: &Path) -> Outcome {
    let w = args.workload;
    let mut tally = Tally::default();
    alloc::set_counting(args.trace);

    // Pinned seeds, then the twins that set the reference for each of the
    // run's input sets. The span run uses input set 0 only, so its counts
    // repeat exactly for a seed.
    for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
        tally.round(w, seed, Variant::Timed, pinned(w, seed), out);
    }
    let sets = if args.trace { 1 } else { INPUT_SETS };
    let references: Vec<Option<u64>> = (0..sets)
        .map(|k| {
            let seed = input_seed(args.seed, k);
            tally
                .round(w, seed, Variant::Twin, pinned(w, seed), out)
                .map(|r| r.fingerprint)
        })
        .collect();
    let expect = |k: usize, timed: &[Round]| {
        references
            .get(k)
            .copied()
            .flatten()
            .or_else(|| timed.iter().find(|r| r.input == k).map(|r| r.fingerprint))
    };

    let budget = Duration::from_secs_f64(args.seconds);
    let timed_budget = if args.trace {
        budget.mul_f64(TRACE_TIMED_SHARE)
    } else {
        budget
    };
    let mut timed: Vec<Round> = Vec::new();
    let mut peak_rss = None;
    let started = Instant::now();
    let mut i = 0;
    while timed.len() < sets || started.elapsed() < timed_budget {
        let k = i % sets;
        i += 1;
        let seed = input_seed(args.seed, k);
        match tally.round(w, seed, Variant::Timed, expect(k, &timed), out) {
            Some(r) => timed.push(Round { input: k, ..r }),
            None if started.elapsed() >= timed_budget => break,
            None => {}
        }
        if timed.len() == RSS_ROUNDS {
            peak_rss = Some(peak_rss_mb());
        }
    }

    if !args.trace {
        let rss = peak_rss.unwrap_or_else(peak_rss_mb);
        let metrics = layers::end_to_end(&timed, rss);
        return Outcome {
            tally,
            metrics,
            table: layers::rounds_table(&timed),
            last_spans: Vec::new(),
            rounds: round_timings(&timed),
        };
    }

    let variants: &[Variant] = if w == Workload::Fleet {
        &[Variant::Spanned, Variant::Spanned1w]
    } else {
        &[Variant::Spanned]
    };
    let mut spanned: Vec<(Variant, Round)> = Vec::new();
    let started = Instant::now();
    let span_budget = budget.saturating_sub(timed_budget);
    let mut i = 0;
    while spanned.len() < variants.len() || started.elapsed() < span_budget {
        let variant = variants
            .get(i % variants.len())
            .copied()
            .unwrap_or(Variant::Spanned);
        i += 1;
        if let Some(r) = tally.round(w, args.seed, variant, expect(0, &timed), out) {
            // Only the last round's raw spans are written out.
            if let Some(prev) = spanned.last_mut().and_then(|(_, p)| p.spans.as_mut()) {
                prev.spans = Vec::new();
            }
            spanned.push((variant, r));
        } else if i > 4 * variants.len() && spanned.is_empty() {
            break;
        }
    }
    let metrics = layers::per_layer(&timed, &spanned, clip_core::audit::violation_count());
    let b = layers::total_breakdown(&spanned);
    let scope: Duration = spanned.iter().map(|(_, r)| r.scope).sum();
    let table = breakdown_table(&b, scope, &mut tally);
    let last_spans = spanned
        .last_mut()
        .and_then(|(_, r)| r.spans.as_mut())
        .map(|s| std::mem::take(&mut s.spans))
        .unwrap_or_default();
    Outcome {
        tally,
        metrics,
        table,
        last_spans,
        rounds: round_timings(&timed),
    }
}

fn round_timings(timed: &[Round]) -> Vec<[f64; 3]> {
    timed
        .iter()
        .map(|r| [r.input as f64, r.setup.as_secs_f64(), r.rate()])
        .collect()
}

/// Share of the independently clocked span-run time the root spans may
/// miss: the few clock reads between a round's `Instant` and its root span.
const SCOPE_TOLERANCE: f64 = 0.01;

/// The span run's self time per layer. The rows add up to the summed root
/// spans by construction; this checks those against `scope`, the same
/// regions timed with `Instant` around the spans, so time the spans miss
/// or double-count fails the run.
fn breakdown_table(b: &span::Breakdown, scope: Duration, tally: &mut Tally) -> String {
    let mut table = String::from("span run self time by layer:\n");
    let wall = b.wall_ns as f64;
    let mut sum = 0u64;
    for layer in span::Layer::ALL {
        let ns = b.layer_ns(layer);
        sum += ns;
        let _ = writeln!(
            table,
            "  {:<12} {:>12.3} ms {:>7.2}% {:>10} spans",
            layer.name(),
            ns as f64 / 1e6,
            if wall > 0.0 {
                ns as f64 / wall * 100.0
            } else {
                0.0
            },
            b.layer_count(layer)
        );
    }
    let scope_ns = scope.as_nanos() as f64;
    let _ = writeln!(
        table,
        "  layers + residual = {:.3} ms; span-run wall = {:.3} ms (Instant)",
        sum as f64 / 1e6,
        scope_ns / 1e6
    );
    let missed = scope_ns - sum as f64;
    if missed < 0.0 || missed > scope_ns * SCOPE_TOLERANCE {
        tally.failed += 1;
        tally.reasons.push(format!(
            "self times sum to {sum} ns, span-run wall is {scope_ns} ns"
        ));
    }
    table
}

/// Peak resident set of this process in MB, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn result_json(outcome: &Outcome) -> String {
    use serde_json::Value;
    let metrics = outcome
        .metrics
        .iter()
        .map(|&(name, unit, value)| {
            let entry = Value::Object(vec![
                ("value".to_string(), Value::F64(value)),
                ("unit".to_string(), Value::String(unit.to_string())),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    let top = Value::Object(vec![
        (
            "correct".to_string(),
            Value::Bool(outcome.tally.failed == 0),
        ),
        ("attempted".to_string(), Value::U64(outcome.tally.attempted)),
        ("failed".to_string(), Value::U64(outcome.tally.failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&top).unwrap_or_default()
}

fn write_spans(path: &Path, spans: &[span::Span]) -> std::io::Result<()> {
    const MAX_LINES: usize = 100_000;
    let mut text = String::from("id\tparent\tlayer\ttag\tstart_ns\tend_ns\n");
    for (i, s) in spans.iter().take(MAX_LINES).enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{i}\t{parent}\t{}\t{}\t{}\t{}",
            s.layer.name(),
            s.tag,
            s.start,
            s.end
        );
    }
    std::fs::write(path, text)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("clipbench: {e}");
            eprintln!(
                "usage: clipbench --workload <fleet|service|service_traced|paper_grid> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("clipbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(1);
    }

    // Pin before the environment record, so its `nproc` is what the
    // run's `available_parallelism` sees.
    let pinned_cpu = pin::pin_to_current_cpu();
    let mut env = env::collect();
    env.insert(
        "pinned_cpu".to_string(),
        pinned_cpu.map_or_else(|| "none".to_string(), |c| c.to_string()),
    );
    env.insert("workload".to_string(), args.workload.name().to_string());
    env.insert("seed".to_string(), args.seed.to_string());
    env.insert("seconds".to_string(), args.seconds.to_string());
    env.insert("trace".to_string(), u8::from(args.trace).to_string());

    let outcome = run(&args, &out);
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    if !outcome.last_spans.is_empty() {
        let path = out.join(format!("{stem}.spans.tsv"));
        if let Err(e) = write_spans(&path, &outcome.last_spans) {
            eprintln!("clipbench: cannot write {}: {e}", path.display());
        }
    }
    for reason in &outcome.tally.reasons {
        eprintln!("clipbench: failed check: {reason}");
    }
    print!("{}", outcome.table);
    let result = result_json(&outcome);
    let env_json = serde_json::to_string(&env).unwrap_or_default();
    let _ = std::fs::write(
        out.join(format!("{stem}.json")),
        format!(
            "{{\"env\":{env_json},\"result\":{result},\"rounds\":{}}}\n",
            serde_json::to_string(&outcome.rounds).unwrap_or_default()
        ),
    );
    println!("env {env_json}");
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv("--workload fleet --seed 3 --seconds 10 --trace 1"));
        let a = a.unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(a.workload, Workload::Fleet);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload fleet --seed 3 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload fleet --seconds 1")).is_err());
    }

    #[test]
    fn every_pin_is_set() {
        for w in Workload::ALL {
            for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
                assert!(pinned(w, seed).is_some_and(|f| f != 0), "{w:?} at {seed}");
            }
        }
    }
}
