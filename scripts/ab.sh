#!/usr/bin/env bash
# Parent-vs-change benchmark comparison for one workload.
#
#   scripts/ab.sh <base-rev> <workload> [pairs] [seed]
#
# Unpacks `git archive <base-rev>` under target/ab/, builds the benchmark
# (clipbench/) there and in the working tree, then runs BENCHMARK.json's
# command `pairs` times on each side (default 10 pairs at seed 2017,
# untraced, each run as long as BENCHMARK.json's `run_seconds`),
# alternating which side runs first so host drift lands on both. Every run's env line and result line, with the commit each side
# was built from (the working tree's marked `+dirty` when it has
# uncommitted changes), go to target/ab/<workload>-<seed>-<date>.jsonl.
#
# The summary gives, per end-to-end metric of BENCHMARK.json, each side's
# median and interquartile range (exclusive quartiles, as the benchmark
# computes them), the ratio of the medians (change / base), and in how
# many pairs the change was better.
#
# Exits 1 as soon as a run reports failed rounds, 2 on a usage error.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
    echo "usage: scripts/ab.sh <base-rev> <workload> [pairs] [seed]" >&2
    exit 2
fi
base_commit="$(git rev-parse --verify --quiet "$1^{commit}")" \
    || { echo "ab: '$1' names no commit" >&2; exit 2; }
change_commit="$(git rev-parse HEAD)"
if [ -n "$(git status --porcelain)" ]; then
    change_commit="${change_commit}+dirty"
fi

base_dir="target/ab/base-${base_commit:0:12}"
if [ ! -d "$base_dir" ]; then
    mkdir -p "$base_dir.tmp"
    git archive "$base_commit" | tar -x -C "$base_dir.tmp"
    mv "$base_dir.tmp" "$base_dir"
fi
# Each side builds into its own clipbench/target.
unset CARGO_TARGET_DIR
for root in "$base_dir" .; do
    echo "==> building the benchmark in $root" >&2
    (cd "$root" && cargo build --release --offline --quiet --manifest-path clipbench/Cargo.toml)
done

AB_BASE_DIR="$base_dir" AB_BASE_COMMIT="$base_commit" AB_CHANGE_COMMIT="$change_commit" \
    python3 - "$2" "${3:-10}" "${4:-2017}" <<'PY'
import json, os, statistics, subprocess, sys, time

workload, pairs, seed = sys.argv[1], int(sys.argv[2]), sys.argv[3]
bench = json.load(open("BENCHMARK.json"))
seconds = str(bench["run_seconds"])
if workload not in [w["name"] for w in bench["workloads"]]:
    sys.exit(f"ab: BENCHMARK.json declares no workload {workload!r}")
cmd = bench["command"] + [
    "--workload", workload, "--seed", seed, "--seconds", seconds, "--trace", "0",
]
base_dir = os.environ["AB_BASE_DIR"]
sides = {
    "base": (base_dir, os.environ["AB_BASE_COMMIT"]),
    "change": (".", os.environ["AB_CHANGE_COMMIT"]),
}
# The unpacked base has no .git of its own: stop git at it, so the
# benchmark's env line reads `unknown` instead of the enclosing checkout.
base_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.abspath(os.path.dirname(base_dir)))

stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
log_path = f"target/ab/{workload}-{seed}-{stamp}.jsonl"
log = open(log_path, "w")
log.write(json.dumps({
    "base_commit": sides["base"][1], "change_commit": sides["change"][1],
    "workload": workload, "pairs": pairs, "seconds": seconds, "seed": seed,
    "command": cmd,
}) + "\n")

results = {"base": [], "change": []}
for pair in range(pairs):
    order = ["base", "change"] if pair % 2 == 0 else ["change", "base"]
    for side in order:
        root, commit = sides[side]
        out = subprocess.run(
            cmd, cwd=root, stdout=subprocess.PIPE, text=True, check=True,
            env=base_env if side == "base" else None,
        ).stdout
        lines = out.strip().splitlines()
        env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), None)
        result = json.loads(lines[-1]) if lines else {}
        log.write(json.dumps({
            "pair": pair, "side": side, "commit": commit, "env": env, "result": result,
        }) + "\n")
        log.flush()
        metrics = result.get("metrics", {})
        shown = "  ".join(f"{k} {v['value']:.6g}" for k, v in metrics.items())
        print(f"pair {pair + 1}/{pairs} {side:6} {shown}  failed {result.get('failed')}", flush=True)
        if result.get("failed") != 0 or not result.get("attempted"):
            sys.exit(
                f"ab: {side} run of pair {pair + 1} failed "
                f"{result.get('failed')} of {result.get('attempted')} rounds ({log_path})"
            )
        results[side].append(metrics)

def spread(values):
    if len(values) < 2:
        return statistics.median(values), float("nan"), float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3

rows = [("metric", "base median [q1, q3]", "change median [q1, q3]", "ratio", "led")]
for metric in bench["end_to_end"]:
    name, higher = metric["name"], metric["better"] == "higher"
    base = [m[name]["value"] for m in results["base"]]
    change = [m[name]["value"] for m in results["change"]]
    led = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
    (bm, b1, b3), (cm, c1, c3) = spread(base), spread(change)
    rows.append((
        name, f"{bm:.6g} [{b1:.6g}, {b3:.6g}]", f"{cm:.6g} [{c1:.6g}, {c3:.6g}]",
        f"{cm / bm:.4f}", f"{led}/{pairs}",
    ))
widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
print(f"\n{workload} at seed {seed}, {pairs} pairs of {seconds} s")
print(f"  base   {sides['base'][1]}\n  change {sides['change'][1]}")
for row in rows:
    print("  " + row[0].ljust(widths[0]) + "".join(
        "  " + cell.rjust(width) for cell, width in zip(row[1:], widths[1:])
    ))
print(f"  log: {log_path}")
PY
