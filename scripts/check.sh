#!/usr/bin/env bash
# Single CI entry point: formatting, clippy, workspace lint, build, tests.
# Exits non-zero on the first failure.
#
# The four clippy panic-hygiene lints (unwrap_used, expect_used,
# indexing_slicing, panic) are set to "warn" in [workspace.lints] so they
# surface in editors, but are allowed here: the hard gate for panic
# freedom is clip-lint, which scopes the rules to library code and
# requires a reasoned allowlist entry for every intentional escape.
# crates/clippy.toml bans the types that break replay (HashMap, HashSet,
# Instant, SystemTime) in every crate under crates/; -D warnings makes
# each use a failure here.

set -euo pipefail
cd "$(dirname "$0")/.."

# `--record` re-pins the BENCH_lint.json "last" block from this run's
# timings. The default run is read-only on the repo: measurements land in
# target/ so a plain `scripts/check.sh` never dirties the working tree.
record_bench=0
if [ "${1:-}" = "--record" ]; then
    record_bench=1
    shift
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings \
    -A clippy::unwrap_used \
    -A clippy::expect_used \
    -A clippy::indexing_slicing \
    -A clippy::panic

echo "==> clip-lint (schema gate + wall-time ratchet)"
# The report schema version is pinned by the golden test and
# double-checked here — `--schema-version` prints the bare number, so the
# gate no longer greps the JSON report. The analysis run writes its wall
# time and file count to target/clip-lint-timings.json; the ratchet below
# records them into BENCH_lint.json and fails the build if the analyzer
# has grown past 2x its pinned wall-time baseline.
report_version="$(cargo run -p clip-lint --offline --quiet -- --schema-version)"
if [ "$report_version" != "5" ]; then
    echo "clip-lint report schema drifted: version=$report_version, expected 5" >&2
    echo "(update crates/lint/tests/golden_json.rs and this gate together)" >&2
    exit 1
fi
cargo run -p clip-lint --offline --quiet -- --timings target/clip-lint-timings.json
RECORD_BENCH="$record_bench" python3 - <<'PY'
import json, os, sys

bench = json.load(open("BENCH_lint.json"))
cur = json.load(open("target/clip-lint-timings.json"))
baseline = bench["baseline_wall_ms"]
limit = 2.0 * baseline
if cur["wall_ms"] > limit:
    sys.exit(
        f"clip-lint wall-time ratchet: {cur['wall_ms']:.1f} ms exceeds "
        f"2x the {baseline:.1f} ms baseline (limit {limit:.1f} ms); "
        "speed the analyzer up or re-pin BENCH_lint.json deliberately"
    )
# Default: leave the checked-in baseline untouched and drop the evidence
# in target/. Only `scripts/check.sh --record` rewrites BENCH_lint.json.
bench["last"] = cur
out = "BENCH_lint.json" if os.environ.get("RECORD_BENCH") == "1" else "target/clip-lint-last.json"
with open(out, "w") as f:
    json.dump(bench, f, indent=2)
    f.write("\n")
print(
    f"    lint ok: {cur['wall_ms']:.1f} ms (limit {limit:.1f} ms) "
    f"over {cur['files_scanned']} files"
    + (" [recorded]" if os.environ.get("RECORD_BENCH") == "1" else "")
)
PY

# Ratchet: the `_obs` duplicate-API era is over. Every recorder hook is a
# generic parameter on the one canonical entry point; a reappearing
# `*_obs` function or method would mean the split is creeping back in.
# (The `clip_obs` crate name itself is fine — only item names are gated.)
echo "==> no _obs duplicate APIs"
if grep -rnE '\b(fn|struct|enum|trait|type|mod) [A-Za-z0-9_]*_obs\b' crates --include='*.rs'; then
    echo "found a *_obs item: fold it into the recorder-generic API instead" >&2
    exit 1
fi

echo "==> cargo test"
cargo test --workspace --offline -q

# The benchmark (clipbench/) is a workspace of its own, so the workspace
# run above skips its tests. Its smoke tests drive `fleet` at 2 workers
# against the 1-worker twin and check the span-run breakdown, which puts
# the sharded fleet's rack pool through the benchmark's own checks.
echo "==> clipbench tests"
cargo test --offline --manifest-path clipbench/Cargo.toml -q

# Those tests run smoke sizes. The full-size pinned report fingerprints
# (every Oracle plan of the paper grid among them, at seeds 2017 and
# 90210) are checked by every benchmark run before it times anything, so
# a one-second run of each workload with BENCHMARK.json's command gates
# them. The benchmark exits 0 even when a check fails, so the stage reads
# its JSON result line (the last line of standard output).
echo "==> benchmark pins (every workload, 1 s at seed 2017)"
python3 - <<'PY'
import json, subprocess, sys

bench = json.load(open("BENCHMARK.json"))
for workload in bench["workloads"]:
    name = workload["name"]
    cmd = bench["command"] + [
        "--workload", name, "--seed", "2017", "--seconds", "1", "--trace", "0",
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if result.get("failed") != 0 or not result.get("attempted"):
        sys.exit(
            f"benchmark {name}: {result.get('failed')} of "
            f"{result.get('attempted')} rounds failed their checks"
        )
    print(f"    {name} ok: {result['attempted']} rounds, 0 failed")
PY

# The tree's one per-epoch allocation check. A span run counts every
# allocation, planning included, and the counts repeat exactly for a
# seed, so each workload's `plan.allocs_per_call` and `alloc.per_epoch`
# are ceilings here, pinned at their exact counts rounded up at two
# decimals. A change that removes allocations lowers its workload's
# ceilings.
echo "==> allocation ceilings (every workload, 1 s span run at seed 2017)"
python3 - <<'PY'
import json, subprocess, sys

# workload: (plan.allocs_per_call, alloc.per_epoch)
CEILINGS = {
    "fleet": (13.39, 27.62),
    "service": (5.07, 10.56),
    "service_traced": (5.46, 17.16),
    "paper_grid": (12.80, 35.80),
}
bench = json.load(open("BENCHMARK.json"))
for workload in bench["workloads"]:
    name = workload["name"]
    if name not in CEILINGS:
        sys.exit(f"benchmark {name}: no allocation ceilings pinned")
    cmd = bench["command"] + [
        "--workload", name, "--seed", "2017", "--seconds", "1", "--trace", "1",
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    metrics = result.get("metrics", {})
    value = lambda metric: metrics.get(metric, {}).get("value")
    if result.get("failed") != 0 or not result.get("attempted"):
        sys.exit(
            f"benchmark {name} span run: {result.get('failed')} of "
            f"{result.get('attempted')} rounds failed their checks"
        )
    if value("audit.violations") != 0:
        sys.exit(f"benchmark {name}: audit.violations {value('audit.violations')}")
    counts = []
    for metric, ceiling in zip(("plan.allocs_per_call", "alloc.per_epoch"), CEILINGS[name]):
        got = value(metric)
        if got is None or got > ceiling:
            sys.exit(f"benchmark {name}: {metric} {got} exceeds its ceiling {ceiling}")
        counts.append(f"{metric} {got:.2f} <= {ceiling}")
    print(f"    {name} ok: " + ", ".join(counts))
PY

# Gate the full fault-injection path end to end: scheduler -> fault plan ->
# degraded epoch -> re-coordination -> ledger classification. The smoke
# plan (4 nodes, one crash, 3 epochs) keeps this well under five seconds.
echo "==> ext_faults --smoke"
cargo run -p clip-bench --bin ext_faults --offline --quiet --release -- --smoke

# Sharded-campaign gate: the hierarchical campaign (rack-level engines
# under the budget arbiter, parallel execute phase) must print its pinned
# report fingerprint, an FNV-1a hash of the serialized ShardRunReport, at
# 1 and at 4 worker threads, at the smoke size and at full size (100
# racks x 100 nodes, some tens of ms). Comparing the two thread counts
# only with each other misses a byte that moves at both: a sum that
# depends on the order racks execute in moved both smoke fingerprints
# alike.
echo "==> sharded campaign (pinned fingerprints, smoke and full size, 1 and 4 threads)"
cargo build --offline --quiet --release --example campaign -p clip-repro

# expect_fnv <pinned> <cmd...>: the run's `report fnv` line must read
# <pinned>.
expect_fnv() {
    local want="$1" out got
    shift
    out="$("$@")"
    got="$(grep 'report fnv' <<< "$out" | awk '{print $4}' || true)"
    if [ "$got" != "$want" ]; then
        echo "report fingerprint drifted: '$*' printed '${got}', pinned ${want}" >&2
        exit 1
    fi
}
shard_smoke_fnv=0xeaf7c5be796c388a
shard_full_fnv=0x2769fd851bb96c4d
for threads in 1 4; do
    expect_fnv "$shard_smoke_fnv" target/release/examples/campaign --shard --smoke --threads "$threads"
    expect_fnv "$shard_full_fnv" target/release/examples/campaign --shard --threads "$threads"
done
echo "    shard ok: smoke ${shard_smoke_fnv}, full ${shard_full_fnv}, at 1 and 4 threads"

# Trace smoke gate: the whole observability loop — traced run, binary
# frames on disk, clip-trace reads them natively, `clip-trace export`
# emits JSONL that summarizes identically — plus a bound on tracing
# overhead. Timing uses best-of-3 (minimum is the noise-robust statistic
# for wall time). With the binary frame pipeline (no per-event JSON),
# traced runs hold near the untraced baseline, so the gate is a
# multiplicative 2x with a 10 ms absolute floor to keep millisecond-scale
# jitter on the sub-second workload from flaking it.
echo "==> trace smoke (quickstart --trace + clip-trace summary/export + overhead)"
cargo build --offline --quiet --release --example quickstart -p clip-repro
cargo build --offline --quiet --release -p clip-obs --bin clip-trace
trace_file="target/quickstart-smoke.trace"
rm -f "$trace_file"

# The clock is bash's own $EPOCHREALTIME (seconds and microseconds), read
# with both separators a locale may print stripped, so taking a time
# starts no process: an interpreter's start-up would dwarf the runs timed.
best_ms() { # best_ms <runs> <cmd...>
    local runs="$1"; shift
    local best="" t0 t1 dt
    for _ in $(seq "$runs"); do
        t0="${EPOCHREALTIME/[.,]/}"
        "$@" > /dev/null
        t1="${EPOCHREALTIME/[.,]/}"
        dt=$(((t1 - t0) / 1000))
        if [ -z "$best" ] || [ "$dt" -lt "$best" ]; then best="$dt"; fi
    done
    echo "$best"
}

plain_ms="$(best_ms 3 target/release/examples/quickstart)"
traced_ms="$(best_ms 3 target/release/examples/quickstart --trace "$trace_file")"
test -s "$trace_file" || { echo "traced quickstart wrote no trace" >&2; exit 1; }

# Capture the whole summary before grepping: piping straight into
# `grep -q` lets grep exit at first match and break the pipe under
# `pipefail` once the trace narrates more than one buffer's worth.
summary="$(target/release/clip-trace summary "$trace_file")"
grep -q "budget 1200.0 W" <<< "$summary" \
    || { echo "clip-trace summary did not parse the quickstart trace" >&2; exit 1; }

# Export migration gate: the JSONL export of a binary trace must carry
# every record (clip-trace parses it) and summarize byte-identically to
# the binary original — the invariant archived-trace tooling and the
# golden FNV pins depend on.
export_file="target/quickstart-smoke.jsonl"
rm -f "$export_file"
target/release/clip-trace export "$trace_file" "$export_file" > /dev/null
test -s "$export_file" || { echo "clip-trace export wrote no JSONL" >&2; exit 1; }
exported_summary="$(target/release/clip-trace summary "$export_file")"
# First line names the input file; everything after it must match exactly.
if [ "$(tail -n +2 <<< "$summary")" != "$(tail -n +2 <<< "$exported_summary")" ]; then
    echo "clip-trace summary differs between binary trace and its JSONL export" >&2
    exit 1
fi

limit_ms=$((plain_ms * 2 + 10))
if [ "$traced_ms" -gt "$limit_ms" ]; then
    echo "tracing overhead too high: traced ${traced_ms} ms vs untraced ${plain_ms} ms (limit ${limit_ms} ms)" >&2
    exit 1
fi
echo "    trace ok: untraced ${plain_ms} ms, traced ${traced_ms} ms (limit ${limit_ms} ms)"

# Service smoke gate: the open-loop multi-tenant campaign end to end —
# per-tenant SLO tables, the sharded per-rack service run printing its
# pinned FNV fingerprint at 1 and at 4 worker threads, the golden SLO
# line, and a traced run writing binary frames that clip-trace digests
# natively, under the same 2x + 10 ms overhead bound as the quickstart
# gate. The trace also goes through the export gate, and a copy cut off
# mid-frame must still summarize.
echo "==> service smoke (SLO attainment + pinned fingerprint at 1 and 4 threads + trace)"
cargo build --offline --quiet --release --example service -p clip-repro
svc_fnv=0x7502c77131416454
for threads in 1 4; do
    expect_fnv "$svc_fnv" target/release/examples/service --smoke --threads "$threads"
done
svc_out="$(target/release/examples/service --smoke)"
grep -q "overall SLO attainment (CLIP): 100.0% (4/23 admitted, 4 scalings, final pool 8)" <<< "$svc_out" \
    || { echo "service smoke SLO line drifted (update tests/golden.rs and this gate together)" >&2; exit 1; }

svc_trace="target/service-smoke.trace"
rm -f "$svc_trace"
svc_plain_ms="$(best_ms 3 target/release/examples/service --smoke)"
svc_traced_ms="$(best_ms 3 target/release/examples/service --smoke --trace "$svc_trace")"
test -s "$svc_trace" || { echo "traced service run wrote no trace" >&2; exit 1; }
svc_summary="$(target/release/clip-trace summary "$svc_trace")"
grep -q "per-tenant admission and SLO" <<< "$svc_summary" \
    || { echo "clip-trace summary did not parse the service trace" >&2; exit 1; }
grep -q "pool scalings: 4" <<< "$svc_summary" \
    || { echo "clip-trace summary lost the autoscaling timeline" >&2; exit 1; }

# The export gate again: the quickstart trace holds 9 of the event
# variants, the service trace 16, the service lifecycle among them.
svc_export="target/service-smoke.jsonl"
rm -f "$svc_export"
target/release/clip-trace export "$svc_trace" "$svc_export" > /dev/null
svc_exported_summary="$(target/release/clip-trace summary "$svc_export")"
if [ "$(tail -n +2 <<< "$svc_summary")" != "$(tail -n +2 <<< "$svc_exported_summary")" ]; then
    echo "clip-trace summary differs between the service trace and its JSONL export" >&2
    exit 1
fi

# Salvage gate: a trace that loses its last bytes (a run killed
# mid-flush) still summarizes. clip-trace reports the whole frames before
# the cut, which are the export minus its last line, names the undecoded
# bytes on stderr, and exits 2.
svc_records="$(wc -l < "$svc_export")"
svc_cut="target/service-smoke-cut.trace"
head -c -3 "$svc_trace" > "$svc_cut"
head -n -1 "$svc_export" > target/service-smoke-prefix.jsonl
prefix_summary="$(target/release/clip-trace summary target/service-smoke-prefix.jsonl)"
cut_summary="$(target/release/clip-trace summary "$svc_cut" 2> target/service-smoke-cut.err)" \
    && cut_status=0 || cut_status=$?
loss_line="byte(s) after record $((svc_records - 1)) not decoded: truncated trace stream"
if [ "$cut_status" -ne 2 ] \
    || [ "$(tail -n +2 <<< "$cut_summary")" != "$(tail -n +2 <<< "$prefix_summary")" ] \
    || ! grep -qF "$loss_line" target/service-smoke-cut.err; then
    echo "clip-trace did not salvage the cut service trace (exit ${cut_status}):" >&2
    cat target/service-smoke-cut.err >&2
    exit 1
fi
# The same salvage for JSONL: the export cut by 3 bytes loses its last
# line, so it summarizes as the export minus that line, names the
# undecoded bytes, and exits 2.
jsonl_cut="target/service-smoke-cut.jsonl"
head -c -3 "$svc_export" > "$jsonl_cut"
jsonl_summary="$(target/release/clip-trace summary "$jsonl_cut" 2> target/service-smoke-cut-jsonl.err)" \
    && jsonl_status=0 || jsonl_status=$?
jsonl_loss="byte(s) after record $((svc_records - 1)) not decoded: line ${svc_records}:"
if [ "$jsonl_status" -ne 2 ] \
    || [ "$(tail -n +2 <<< "$jsonl_summary")" != "$(tail -n +2 <<< "$prefix_summary")" ] \
    || ! grep -qF "$jsonl_loss" target/service-smoke-cut-jsonl.err; then
    echo "clip-trace did not salvage the cut service export (exit ${jsonl_status}):" >&2
    cat target/service-smoke-cut-jsonl.err >&2
    exit 1
fi
svc_limit_ms=$((svc_plain_ms * 2 + 10))
if [ "$svc_traced_ms" -gt "$svc_limit_ms" ]; then
    echo "service tracing overhead too high: traced ${svc_traced_ms} ms vs untraced ${svc_plain_ms} ms (limit ${svc_limit_ms} ms)" >&2
    exit 1
fi
echo "    service ok: ${svc_fnv}, untraced ${svc_plain_ms} ms, traced ${svc_traced_ms} ms (limit ${svc_limit_ms} ms), cut trace and cut export each kept $((svc_records - 1)) of ${svc_records} records"

echo "All checks passed."
