#!/usr/bin/env bash
# Tier-1 verification: static analysis (dfv-lint + strict warnings) and a
# Release build under -Werror, then configure + build + full ctest, then
# rebuild the wire decoder's tests under ASan+UBSan and the
# concurrency-sensitive targets under ThreadSanitizer, with every
# sanitizer report fatal.
#
#   scripts/tier1.sh            # full run
#   DFV_SKIP_TSAN=1 scripts/tier1.sh   # skip the TSan stage
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j

# Fail-fast lint stage: the tree must be dfv-lint clean (zero violations,
# no dead suppressions) before anything heavier runs.
echo "=== dfv-lint ==="
./build/tools/lint/dfv-lint --root .
echo "dfv-lint: clean"

# Strict-warning stage: src/common, src/mon, src/ml and every public
# common/ml header (self-containment TUs) must compile warning-free under
# the curated -Werror set (see DFV_STRICT in CMakeLists.txt).
echo "=== strict warnings (DFV_STRICT) ==="
cmake --preset lint >/dev/null
cmake --build --preset lint -j
echo "strict build: clean"

# Release stage: scripts/bench.sh measures the release preset, whose -O3
# inlining raises warnings the default build never sees. Every dfv library
# (micro_benchmarks links them all) must compile there under -Werror.
echo "=== release build (-Werror) ==="
cmake --preset release >/dev/null
cmake --build build-release -j --target micro_benchmarks
echo "release build: clean"

(cd build && ctest --output-on-failure -j)

# Benchmark smoke run: the perf binaries must build and execute (one
# iteration each), so perf-path regressions that only compile under the
# bench target cannot slip through tier-1. Numbers from this run are
# meaningless; scripts/bench.sh produces the real trajectory.
./build/bench/micro_benchmarks \
  --benchmark_filter='BM_RfeCv|BM_GbrFit$|BM_GbrFitBinned|BM_TreeFitNode|BM_AttentionFit|BM_BuildWindows|BM_ForecastGrid|BM_NeighborhoodQuery' \
  --benchmark_min_time=0.01 >/dev/null
# Flow-model, background-routing and LDMS smoke on Cori: the pool regions
# that overlap routing's picks with its draws, and the LDMS sample's one
# region.
./build/bench/micro_benchmarks \
  --benchmark_filter='BM_FlowTransferMilcStep|BM_BackgroundRoute512NodeJob|BM_LdmsSampleCori' \
  --benchmark_min_time=0.01 >/dev/null
# Compiled-inference smoke (BM_ForecastOne is excluded: it would build a
# second campaign; the serve smoke below covers that path end to end).
./build/bench/micro_benchmarks \
  --benchmark_filter='BM_GbrPredict|BM_AttentionPredict' \
  --benchmark_min_time=0.01 >/dev/null
# Serving smoke: the sharded server must start, answer real loopback
# traffic on both hot paths, and drain cleanly (short window; the real
# QPS/latency trajectory comes from scripts/bench.sh serve).
./build/bench/bench_serve --shards 4 --clients 4 --seconds 0.3 >/dev/null
# Campaign-cache cold-open smoke: publish a small campaign as a store
# entry and as CSVs, then pin and deserialize both (bench_store aborts
# on a run-count mismatch). Real numbers come from scripts/bench.sh store.
./build/bench/bench_store --campaign-days 3 >/dev/null
echo "bench smoke: OK"

# Sanitizer stage for the readers of outside bytes: the wire decoder
# reads untrusted network bytes, so the adversarial corpus (truncations,
# byte flips, forged lengths) and the api suite run under AddressSanitizer
# + UndefinedBehaviorSanitizer with every report fatal; so do the dataset
# CSV import and the CSV parser under it, which read files from anywhere.
# The neighborhood index indexes runs by id and the serve protocol frames
# every message, so their suites run here too. The attention kernels load
# and store explicit vector types through unaligned row pointers, so the
# matrix, attention and scaler suites run here as well. The campaign
# store decodes cache bytes it did not write this run (damaged columns,
# forged META, bad integer cells, short or missing dataset files) at
# computed offsets inside one mapping per dataset, where a wrong offset is
# an out-of-bounds read; its suite and the cache-integrity suite run here
# too.
echo "=== ASan+UBSan pass (test_wire_adversarial, test_api, test_dataset, test_table_csv, test_neighborhood, test_serve, test_matrix, test_attention, test_scaler, test_store, test_cache_integrity) ==="
cmake --preset asan
cmake --build build-asan -j --target test_wire_adversarial test_api test_dataset \
  test_table_csv test_neighborhood test_serve test_matrix test_attention test_scaler test_store \
  test_cache_integrity
for t in test_wire_adversarial test_api test_dataset test_table_csv test_neighborhood \
    test_serve test_matrix test_attention test_scaler test_store test_cache_integrity; do
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    "./build-asan/tests/$t"
done

if [[ "${DFV_SKIP_TSAN:-0}" != "1" ]]; then
  echo "=== ThreadSanitizer pass (exec, net, ldms, patterns, cluster, campaign, faults, cache, store, gbr, rfe, attention, compiled, forecast, neighborhood, api, serve) ==="
  cmake --preset tsan
  cmake --build build-tsan -j --target test_exec test_flow_model test_flow_properties \
    test_routing test_ldms test_comm_patterns test_cluster test_campaign test_faults \
    test_cache_integrity test_store test_gbr test_rfe test_attention \
    test_compiled test_forecast test_neighborhood test_api test_serve test_serve_chaos
  # TSan needs real concurrency to observe races; force an oversubscribed
  # pool so worker interleavings actually happen even on small machines.
  DFV_THREADS=4 TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_exec
  # Routing draws each sample block's candidates on pool workers, each
  # into its own slots of the flow model's scratch; the LDMS link pass is
  # a chunked reduction; the stencil memo is state shared by every step.
  DFV_THREADS=4 TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_flow_model
  DFV_THREADS=4 TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_flow_properties
  DFV_THREADS=4 TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_routing
  DFV_THREADS=4 TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_ldms
  DFV_THREADS=4 TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_comm_patterns
  # A cluster measures each step on idle workers (a deferred job) while
  # the caller routes the next step into the other load buffers.
  DFV_THREADS=4 TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_cluster
  DFV_THREADS=4 TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_campaign
  # Faulted-campaign determinism (parallel injection + repair) and the
  # corrupt-cache detect/evict/regenerate path, also race-checked.
  DFV_THREADS=4 TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_faults
  DFV_THREADS=4 TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_cache_integrity
  # The campaign store writes its dataset files in parallel, one pool
  # task per dataset, before META; race-checked end to end.
  DFV_THREADS=4 TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_store
  # Tree node scans, binning, and the boosting update are parallel; the
  # GBR/RFE suites race-check them end to end.
  DFV_THREADS=4 TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_gbr
  DFV_THREADS=4 TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_rfe
  # The attention fast path runs slab-parallel minibatches, and the
  # forecast grid runs one task per (cell, fold) pair over the shared
  # window cache with each fold's fit inline in its task; both are
  # race-checked, including the 1/2/8-thread identity sweeps.
  DFV_THREADS=4 TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_attention
  # Compiled inference fans predict_many chunks across the pool, and the
  # models' batch predict methods route through it; race-checked with the
  # 1/2/8-thread bit-identity sweeps.
  DFV_THREADS=4 TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_compiled
  DFV_THREADS=4 TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_forecast
  # The serve stack is the one place shard threads, the acceptor, and
  # client threads share state (the model registry every session fills
  # concurrently, the fd hand-off and wake pipes, shutdown flags); the
  # session/wire layer underneath is race-checked with it.
  # The neighborhood suite generates its campaign on the pool.
  DFV_THREADS=4 TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_neighborhood
  DFV_THREADS=4 TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_api
  DFV_THREADS=4 TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_serve
  # Chaos stage: the retrying client against a fault-injecting proxy plus
  # deadline/eviction/drain edge paths — the harshest scheduler pressure
  # the serve stack sees, so it runs race-checked too.
  echo "=== chaos stage (test_serve_chaos under TSan) ==="
  DFV_THREADS=4 TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_serve_chaos
fi

echo "tier-1: OK"
