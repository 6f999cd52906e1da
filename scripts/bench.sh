#!/usr/bin/env bash
# Perf trajectory runners. Six modes:
#
#   scripts/bench.sh [ml]        # model-training microbenchmarks  -> BENCH_ml.json
#   scripts/bench.sh ml-predict  # compiled-inference benchmarks   -> BENCH_ml.json
#   scripts/bench.sh serve       # dfv serve load generator        -> BENCH_serve.json
#   scripts/bench.sh store       # campaign-cache publish + open   -> BENCH_store.json
#   scripts/bench.sh net         # routing + flow-model benchmarks -> BENCH_net.json
#   scripts/bench.sh pipeline    # dfv campaign end to end         -> BENCH_pipeline.json
#
#   DFV_BENCH_MIN_TIME=1.0 scripts/bench.sh        # longer per-bench min time (ml*, net)
#   DFV_BENCH_SECONDS=5 scripts/bench.sh serve     # longer per-phase window (serve)
#   DFV_BENCH_REPS=5 scripts/bench.sh pipeline     # more repetitions of the 10-day runs
#   DFV_BENCH_REPS=9 scripts/bench.sh store        # more bench_store runs (default 5)
#
# Measurements come from the Release preset (build-release/) so the
# committed numbers reflect optimized code, and the context block records
# the git SHA, compiler, and project build type they were taken under.
#
# Every JSON file keeps two snapshots: "baseline" (frozen numbers from
# before the corresponding fast path landed; a metric name with no
# recorded baseline is initialized from its first run) and "current"
# (refreshed every run), so speedups are always readable from the
# committed file. A ratio is printed only when the baseline was recorded
# on a host with as many CPUs as this one (`baseline_host_cpus`);
# otherwise the run says to re-baseline.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-ml}"
BUILD="${BUILD:-build-release}"

if [[ "$BUILD" == "build-release" ]]; then
  cmake --preset release >/dev/null
else
  cmake -B "$BUILD" -S . -G Ninja >/dev/null
fi

build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD/CMakeCache.txt")
compiler_path=$(sed -n 's/^CMAKE_CXX_COMPILER:[^=]*=//p' "$BUILD/CMakeCache.txt")
compiler="$("$compiler_path" --version 2>/dev/null | head -n1 || echo unknown)"
git_sha=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

# Merge a {name: value} "current" snapshot into $2, preserving baselines.
# stdin: raw JSON; argv: raw_path out_path schema note higher_is_better_regex
merge_snapshot() {
  python3 - "$raw" "$@" "$build_type" "$compiler" "$git_sha" "$(nproc)" <<'PY'
import json, re, sys

raw_path, out_path, schema, note, higher_re, build_type, compiler, git_sha, cpus = (
    sys.argv[1:10])
with open(raw_path) as f:
    current = json.load(f)

try:
    with open(out_path) as f:
        doc = json.load(f)
except (FileNotFoundError, json.JSONDecodeError):
    doc = {}
# The baseline's host: a file without a baseline takes this run's as its
# new baseline; files from before this field existed carry it as the last
# run's context.
if "baseline" in doc:
    base_cpus = doc.get("baseline_host_cpus", doc.get("context", {}).get("host_cpus", int(cpus)))
else:
    base_cpus = int(cpus)
doc["baseline_host_cpus"] = base_cpus
same_host = base_cpus == int(cpus)

doc.setdefault("schema", schema)
doc["note"] = note
baseline = doc.setdefault("baseline", {})
for name, v in current.items():
    baseline.setdefault(name, v if isinstance(v, dict) else v)
# Per-key merge, not replacement: modes that share one file (ml and
# ml-predict both land in BENCH_ml.json) must not wipe each other's
# latest numbers.
doc.setdefault("current", {}).update(current)
doc["context"] = {
    "host_cpus": int(cpus),
    "build_type": build_type or "unknown",
    "compiler": compiler,
    "git_sha": git_sha,
}

with open(out_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")

def scalar(v):
    return list(v.values())[0] if isinstance(v, dict) else v

if not same_host:
    print(f"{out_path}: baseline recorded on a {base_cpus}-CPU host, this one has {cpus}: "
          f"no ratios. Re-baseline: remove \"baseline\" and \"baseline_host_cpus\", "
          f"run at the baseline commit on this host, then at the change.")
for name, v in sorted(current.items()):
    base = baseline.get(name)
    line = f"{name}: {scalar(v)}"
    if same_host and base is not None and scalar(base):
        ratio = scalar(v) / scalar(base)
        if not re.search(higher_re, name):
            ratio = 1.0 / ratio if ratio else 0.0
        line += f"  ({ratio:.2f}x vs baseline)"
    print(line)
PY
}

case "$MODE" in
  ml)
    FILTER='BM_RfeCv|BM_GbrFit$|BM_GbrFitBinned|BM_TreeFitNode|BM_AttentionFit|BM_AttentionEpoch|BM_BuildWindows|BM_ForecastGrid'
    cmake --build "$BUILD" -j --target micro_benchmarks >/dev/null
    gbench=$(mktemp)
    "./$BUILD/bench/micro_benchmarks" \
      --benchmark_filter="$FILTER" \
      --benchmark_min_time="${DFV_BENCH_MIN_TIME:-0.3}" \
      --benchmark_format=json >"$gbench" 2>/dev/null
    python3 - "$gbench" >"$raw" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    raw = json.load(f)
print(json.dumps({
    b["name"]: {"real_time_ms": round(b["real_time"], 3)}
    for b in raw["benchmarks"] if b["time_unit"] == "ms"
}))
PY
    rm -f "$gbench"
    merge_snapshot BENCH_ml.json dfv-bench-ml-v1 \
      "baseline = pre-fast-path numbers per benchmark; current = last scripts/bench.sh run" \
      '_items_per_sec$'
    echo "wrote BENCH_ml.json"
    ;;
  ml-predict)
    # Compiled-inference benches (ml/compiled.{hpp,cpp}); all run in
    # microseconds, and the batch benches also report predictions/sec as
    # separate _items_per_sec metrics (kept as their own top-level names
    # so the one-value-per-metric snapshot schema stays intact).
    FILTER='BM_GbrPredict|BM_AttentionPredict|BM_ForecastOne'
    cmake --build "$BUILD" -j --target micro_benchmarks >/dev/null
    gbench=$(mktemp)
    "./$BUILD/bench/micro_benchmarks" \
      --benchmark_filter="$FILTER" \
      --benchmark_min_time="${DFV_BENCH_MIN_TIME:-0.3}" \
      --benchmark_format=json >"$gbench" 2>/dev/null
    python3 - "$gbench" >"$raw" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    raw = json.load(f)
out = {}
for b in raw["benchmarks"]:
    if b["time_unit"] != "us":
        continue
    out[b["name"]] = {"real_time_us": round(b["real_time"], 3)}
    if "items_per_second" in b:
        out[b["name"] + "_items_per_sec"] = round(b["items_per_second"])
print(json.dumps(out))
PY
    rm -f "$gbench"
    merge_snapshot BENCH_ml.json dfv-bench-ml-v1 \
      "baseline = pre-fast-path numbers per benchmark; current = last scripts/bench.sh run" \
      '_items_per_sec$'
    echo "wrote BENCH_ml.json"
    ;;
  serve)
    cmake --build "$BUILD" -j --target bench_serve >/dev/null
    "./$BUILD/bench/bench_serve" \
      --shards "${DFV_BENCH_SHARDS:-8}" \
      --clients "${DFV_BENCH_CLIENTS:-16}" \
      --seconds "${DFV_BENCH_SECONDS:-3}" \
      --json "$raw"
    merge_snapshot BENCH_serve.json dfv-bench-serve-v1 \
      "8-shard dfv serve, direct phases over its AF_UNIX socket, degraded phase over TCP through the chaos proxy; qps higher is better, latency lower; restart_ms = median of 5 server starts over a warm cache (campaign and trained forecasters cached) until one forecast per dataset is answered, lower is better; current = last scripts/bench.sh serve run" \
      '_qps$|^shards$|^clients$|_requests$'
    echo "wrote BENCH_serve.json"
    ;;
  store)
    # Each metric is the median of DFV_BENCH_REPS bench_store runs
    # (default 5), each its own process: on a shared host one run's open
    # time has swung by up to 2x between runs of one build.
    cmake --build "$BUILD" -j --target bench_store >/dev/null
    python3 - "./$BUILD/bench/bench_store" "${DFV_BENCH_REPS:-5}" \
      "${DFV_BENCH_STORE_DAYS:-120}" >"$raw" <<'PY'
import json, statistics, subprocess, sys, tempfile

bench, reps, days = sys.argv[1], int(sys.argv[2]), sys.argv[3]
runs = []
for _ in range(reps):
    with tempfile.NamedTemporaryFile(suffix=".json") as out:
        subprocess.run([bench, "--campaign-days", days, "--json", out.name], check=True,
                       stdout=sys.stderr)
        with open(out.name) as f:
            runs.append(json.load(f))
print(json.dumps({name: statistics.median(r[name] for r in runs) for name in runs[0]}))
PY
    merge_snapshot BENCH_store.json dfv-bench-store-v1 \
      "campaign cache: publish (save_campaign_store into a fresh directory, median of 5), cold open (store-entry pin: META parse and mappings) and load (pin + load_all, every column CRC-verified and every dataset materialized, median of 9; cold_open_speedup = CSV deserialize of the same campaign / load); each value the median of DFV_BENCH_REPS bench_store runs; current = last scripts/bench.sh store run" \
      '_speedup$|^campaign_runs$'
    echo "wrote BENCH_store.json"
    ;;
  net)
    # Routing and the flow model, innermost to outermost: one UGAL path
    # choice, one MILC-128 transfer phase, one 512-node background route,
    # one LDMS sample over every Cori link, and a whole instrumented
    # MILC-128 run on a loaded Cori. Each value is the median of 5
    # repetitions: BM_ClusterMilcStep times only 3 iterations, and one
    # repetition of it swings by 20% on a shared host.
    FILTER='^(BM_UgalChoice|BM_FlowTransferMilcStep|BM_BackgroundRoute512NodeJob|BM_LdmsSampleCori|BM_ClusterMilcStep)'
    cmake --build "$BUILD" -j --target micro_benchmarks >/dev/null
    gbench=$(mktemp)
    "./$BUILD/bench/micro_benchmarks" \
      --benchmark_filter="$FILTER" \
      --benchmark_min_time="${DFV_BENCH_MIN_TIME:-0.5}" \
      --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
      --benchmark_format=json >"$gbench" 2>/dev/null
    python3 - "$gbench" >"$raw" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    raw = json.load(f)
print(json.dumps({
    b["run_name"].split("/")[0]: {f"real_time_{b['time_unit']}": round(b["real_time"], 3)}
    for b in raw["benchmarks"] if b.get("aggregate_name") == "median"
}))
PY
    rm -f "$gbench"
    merge_snapshot BENCH_net.json dfv-bench-net-v1 \
      "baseline = the commit before two-pass routing (parallel UGAL candidate sampling) and the exact LDMS and stencil-demand trims, same host; current = last scripts/bench.sh net run" \
      '_items_per_sec$'
    echo "wrote BENCH_net.json"
    ;;
  pipeline)
    # The first stage of the paper's pipeline, end to end: wall time and
    # peak RSS of `dfv campaign` generating (and publishing) the Cori
    # campaign into an empty cache, for 10 days on 1 and 4 threads and the
    # paper's 120 days on 4. A 10-day value is the median of
    # DFV_BENCH_REPS runs (default 3), the 120-day value one run; peak RSS
    # is the largest of the runs. Each run is its own process.
    cmake --build "$BUILD" -j --target dfv >/dev/null
    python3 - "./$BUILD/tools/dfv" "${DFV_BENCH_REPS:-3}" >"$raw" <<'PY'
import json, shutil, statistics, subprocess, sys, tempfile

dfv, reps = sys.argv[1], int(sys.argv[2])

def one(days, threads):
    """Wall seconds and peak RSS (MB) of one campaign in a fresh process."""
    cache = tempfile.mkdtemp(prefix="dfv_pipeline_")
    probe = ("import resource, subprocess, sys, time\n"
             "t0 = time.monotonic()\n"
             "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL,"
             " stderr=subprocess.DEVNULL)\n"
             "wall = time.monotonic() - t0\n"
             "print(wall, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)\n")
    try:
        out = subprocess.run([sys.executable, "-c", probe, dfv, "campaign", "--days", str(days),
                              "--threads", str(threads), "--cache", cache],
                             check=True, capture_output=True, text=True).stdout.split()
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return float(out[0]), float(out[1])

current = {}
for days, threads, n in ((10, 1, reps), (10, 4, reps), (120, 4, 1)):
    runs = [one(days, threads) for _ in range(n)]
    key = f"campaign_{days}d_{threads}t"
    current[key + "_wall_s"] = round(statistics.median(w for w, _ in runs), 2)
    current[key + "_peak_rss_mb"] = round(max(r for _, r in runs), 1)
    print(f"{key}: {[round(w, 2) for w, _ in runs]} s", file=sys.stderr)
print(json.dumps(current))
PY
    merge_snapshot BENCH_pipeline.json dfv-bench-pipeline-v1 \
      "dfv campaign end to end (Cori, empty cache): wall time and peak RSS; baseline = the commit before deferred step measurement (its Release build, same host); current = last scripts/bench.sh pipeline run" \
      '^$'
    echo "wrote BENCH_pipeline.json"
    ;;
  *)
    echo "usage: scripts/bench.sh [ml|ml-predict|serve|store|net|pipeline]" >&2
    exit 2
    ;;
esac
