#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload serve --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --compare OLD.json NEW.json

Builds dfv_perfbench (the dfv libraries plus perfbench/*.cpp) into
.bench_build/ at the repository root, generates the paper-sized campaign
the analysis and serve workloads read (once per build, untimed), runs one
workload and prints every metric by name with its unit. The last line of
stdout is the result: {"correct", "attempted", "failed", "metrics"} with
the end_to_end metrics of BENCHMARK.json (--trace 0) or its per_layer
metrics (--trace 1; a layer that does not run on the workload, after the
layer_map of perfbench/reference.json, reads 0, and one that runs there
but is missing makes the run incorrect).
The full record, with digest and host context, is kept under
.bench_build/results/ and a traced run's Chrome trace under
.bench_build/traces/.

--compare prints the median of each metric in two sets of result files
(files or directories) and refuses sets taken on different host_cpus.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "dfv_perfbench")
CACHE = os.path.join(BUILD, "cache")
REFERENCE = os.path.join(ROOT, "perfbench", "reference.json")
WORKLOADS = ("campaign", "analysis", "serve")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then an incremental build (a no-op when current)."""
    out = os.path.join(BUILD, "perfbench")
    if not any(os.path.exists(os.path.join(out, f)) for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "dfv_perfbench",
                    "-j", str(os.cpu_count() or 1)], check=True, stdout=sys.stderr)


def prime():
    """Generate the analysis/serve campaign once per build of the binary."""
    stamp = os.path.join(CACHE, "PRIMED")
    built = str(os.stat(BINARY).st_mtime_ns)
    try:
        with open(stamp) as f:
            if f.read() == built:
                return
    except FileNotFoundError:
        pass
    shutil.rmtree(CACHE, ignore_errors=True)
    os.makedirs(CACHE)
    log("priming the paper-sized campaign cache")
    subprocess.run([BINARY, "prime", "--cache", CACHE], check=True, stdout=sys.stderr)
    with open(stamp, "w") as f:
        f.write(built)


def git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, check=True).stdout.strip()
        if os.path.realpath(top) != os.path.realpath(ROOT):
            return "unknown"
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def layers_on(workload):
    """The per-layer metrics whose layer runs on `workload`."""
    with open(REFERENCE) as f:
        layer_map = json.load(f)["layer_map"]
    return {name for group in layer_map if workload in group["workloads"]
            for name in group["layers"]}


def run_workload(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    prime()

    trace_out = os.path.join(BUILD, "traces", f"{args.workload}-seed{args.seed}.json")
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [BINARY, args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--cache", CACHE,
           "--work", os.path.join(BUILD, "work", args.workload)]
    if args.trace:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"dfv_perfbench exited with {proc.returncode}")
        return 1
    print("\n".join(lines[:-1]))
    full = json.loads(lines[-1])
    full["context"]["git_sha"] = git_sha()
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump(full, f, indent=1)
    print(f"context: {json.dumps(full['context'])}, digest {full['digest']}")

    if args.trace:
        wanted, source = spec["per_layer"], full["layers"]
    else:
        wanted, source = spec["end_to_end"], full["metrics"]
    runs_here = layers_on(args.workload) if args.trace else set()
    metrics, correct = {}, full["correct"]
    for m in wanted:
        got = source.get(m["name"])
        if got is None and args.trace and m["name"] not in runs_here:
            got = {"value": 0.0, "unit": m["unit"]}  # the layer does not run here
        if got is None or got["value"] is None:
            log(f"metric {m['name']} missing from the {args.workload} workload")
            correct = False
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": correct and full["failed"] == 0,
                      "attempted": full["attempted"], "failed": full["failed"],
                      "metrics": metrics}))
    return 0


def load_results(paths):
    out = []
    for p in paths:
        files = [os.path.join(p, n) for n in sorted(os.listdir(p))] if os.path.isdir(p) else [p]
        for name in files:
            if name.endswith(".json"):
                with open(name) as f:
                    out.append(json.load(f))
    return out


def compare(old_path, new_path):
    old, new = load_results([old_path]), load_results([new_path])
    cpus = {r["context"]["host_cpus"] for r in old + new}
    if len(cpus) != 1:
        log(f"refusing to compare result sets taken on different host_cpus {sorted(cpus)}")
        return 2
    groups = {}
    for side, rs in (("old", old), ("new", new)):
        for r in rs:
            for kind in ("metrics", "layers"):
                for name, m in r[kind].items():
                    key = (r["workload"], r["trace"], name, m["unit"])
                    groups.setdefault(key, {"old": [], "new": []})[side].append(m["value"])
    print(f"{'workload':<10} {'trace':>5} {'metric':<32} {'old':>14} {'new':>14} {'new/old':>8}")
    for (workload, trace, name, unit), v in sorted(groups.items()):
        if not v["old"] or not v["new"]:
            continue
        a, b = statistics.median(v["old"]), statistics.median(v["new"])
        ratio = f"{b / a:.3f}" if a else "-"
        print(f"{workload:<10} {trace:>5} {name:<32} {a:>14.6g} {b:>14.6g} {ratio:>8}  {unit}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    try:
        return run_workload(args)
    except (OSError, subprocess.CalledProcessError, subprocess.TimeoutExpired,
            json.JSONDecodeError, KeyError) as e:
        log(f"failed: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
