#!/usr/bin/env bash
# Bench smoke for the Flux-sharded executor: runs BM_ShardedExecutor at
# 1/2/4/8 shard replicas, 5 repetitions each, and writes
# BENCH_cacq_scaling.json at the repo root: per shard count the median and
# coefficient of variation (CV) of the repetitions, and the 4-shard-vs-
# 1-shard speedup of the medians, which the acceptance criterion reads
# (>= 3x is only expected on a host with >= 4 cores; the JSON records the
# host's core count so the number can be read honestly).
#
# Usage: scripts/bench_cacq_scaling.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"

if [[ ! -x "$BUILD/bench/bench_cacq_scaling" ]]; then
  echo "benchmarks not built; run: cmake -B $BUILD -S . && cmake --build $BUILD -j" >&2
  exit 1
fi

MIN_TIME="${TCQ_BENCH_MIN_TIME:-0.3}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

"$BUILD/bench/bench_cacq_scaling" \
  --benchmark_filter='BM_ShardedExecutor' \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_repetitions=5 \
  --benchmark_format=json >"$TMP/sharded.json"

python3 - "$TMP/sharded.json" <<'PY'
import json, os, statistics, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

def ms(b, key):
    v = b.get(key, 0)
    return v if b.get("time_unit") == "ms" else v / 1e6

# One entry per repetition (aggregate rows are recomputed here).
reps = {}
for b in doc.get("benchmarks", []):
    if b.get("run_type") == "aggregate":
        continue
    reps.setdefault(int(b["shards"]), []).append(b)

rows = {}
for shards, runs in reps.items():
    ips = [r["items_per_second"] for r in runs]
    mean = statistics.fmean(ips)
    rows[shards] = {
        "name": runs[0]["name"].split("/repeats")[0],
        "shards": shards,
        "repetitions": len(runs),
        "items_per_second": statistics.median(ips),
        "items_per_second_cv": (statistics.stdev(ips) / mean
                                if len(ips) > 1 and mean > 0 else 0.0),
        "real_time_ms": statistics.median(ms(r, "real_time") for r in runs),
        "cpu_time_ms": statistics.median(ms(r, "cpu_time") for r in runs),
        "drained": all(bool(r.get("drained", 0)) for r in runs),
    }

report = {
    "host_cores": os.cpu_count(),
    "statistic": "median of repetitions",
    "results": [rows[k] for k in sorted(rows)],
}
if 1 in rows and 4 in rows:
    report["speedup_4_vs_1"] = (
        rows[4]["items_per_second"] / rows[1]["items_per_second"])
with open("BENCH_cacq_scaling.json", "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")

ok = all(r["drained"] for r in report["results"])
ratio = report.get("speedup_4_vs_1")
cores = report["host_cores"] or 1
print(f"host cores: {cores}")
for r in report["results"]:
    print(f"  shards={r['shards']}: median {r['items_per_second']:.0f} items/s "
          f"over {r['repetitions']} reps (CV {r['items_per_second_cv']:.3f}, "
          f"drained={r['drained']})")
if ratio is not None:
    print(f"4-shard vs 1-shard speedup (medians) = {ratio:.2f}x")
    if cores >= 4 and ratio < 3.0:
        print("FAIL: expected >= 3x on a >=4-core host", file=sys.stderr)
        ok = False
    elif cores < 4:
        print(f"(host has {cores} core(s); shard pumps serialize — "
              "speedup criterion applies on multi-core hosts only)")
else:
    ok = False
print("wrote BENCH_cacq_scaling.json")
sys.exit(0 if ok else 1)
PY
