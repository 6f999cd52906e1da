// dfv::exec — deterministic parallel execution engine.
//
// A small, dependency-free work-stealing thread pool plus data-parallel
// helpers (`parallel_for`, `parallel_map`, `parallel_reduce`) designed so
// that every parallel result is **bit-identical** to the serial run
// regardless of thread count:
//
//  * Work is split into chunks by an explicit `grain` that never depends
//    on the pool size. Each chunk computes into its own output slot, and
//    reductions combine per-chunk partials serially in chunk order, so
//    floating-point summation order is a function of (range, grain) only.
//  * Randomized chunks draw from SplitMix-derived RNG substreams keyed by
//    element index (`substream_seed`), never from a shared generator, so
//    the consumed random sequence is independent of execution order.
//
// Thread-count precedence: `--threads` flag (via `configure_threads`) >
// `DFV_THREADS` environment variable > `std::thread::hardware_concurrency`.
//
// Nested parallel calls are safe: a parallel region entered from inside a
// worker (or from a caller already inside a region) executes its chunks
// inline on the calling thread, which keeps determinism trivially intact.
//
// A `DeferredJob` hands chunks to lanes that have no region work: they run
// in the background while the posting thread goes on, and `wait()` runs
// whatever is left on the caller. Each chunk writes only its own slot, so
// which lane ran it cannot show in a result.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace dfv::exec {

/// Most lanes a pool may have; also the cap on `dfv serve --shards`.
inline constexpr int kMaxThreads = 256;

/// Resolve a thread count: `flag` (>0) wins, then DFV_THREADS, then the
/// hardware concurrency, capped to [1, kMaxThreads]. A flag outside
/// [0, kMaxThreads] is a ContractError; a DFV_THREADS that is not a whole
/// number in [1, kMaxThreads] logs a warning and is ignored.
[[nodiscard]] int resolve_threads(int flag = 0);

/// Seed for the RNG substream of task `index` under a parent `seed`
/// (SplitMix64-based; matches dfv::hash_combine).
[[nodiscard]] constexpr std::uint64_t substream_seed(std::uint64_t seed,
                                                     std::uint64_t index) noexcept {
  return hash_combine(seed, 0x5eed5u + index);
}

/// Work-stealing thread pool. One process-wide instance; `size()` lanes
/// (the caller participates, so `size() - 1` worker threads are spawned).
/// A parallel region partitions its chunk range across lanes; a lane that
/// drains its own range steals chunks from the other lanes.
class ThreadPool {
 public:
  /// The process-wide pool, created on first use with `resolve_threads()`.
  [[nodiscard]] static ThreadPool& instance();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  /// Total lanes (worker threads + the calling thread). >= 1.
  [[nodiscard]] int size() const noexcept { return size_; }

  /// Re-create the pool with `n` lanes (1 <= n <= kMaxThreads). Must not
  /// be called from inside a parallel region. Thread count never affects
  /// results — only wall-clock — so this is a pure resource knob.
  void resize(int n);

  /// Execute fn(chunk) for every chunk in [0, nchunks), blocking until all
  /// complete. The first exception thrown by any chunk is rethrown on the
  /// calling thread (remaining chunks are drained without running).
  /// Chunks run inline when the pool has one lane, when nchunks == 1, or
  /// when called from inside another parallel region (nested call).
  void run(std::size_t nchunks, const std::function<void(std::size_t)>& fn);

  /// True while the calling thread executes inside a parallel region
  /// (used by the helpers; exposed for tests).
  [[nodiscard]] static bool in_parallel_region() noexcept;

 private:
  friend class DeferredJob;

  struct alignas(64) Lane {
    /// Packed (next:32 | end:32) chunk cursor, updated with CAS so a
    /// concurrent steal can never tear a half-published range.
    std::atomic<std::uint64_t> range{0};
  };

  explicit ThreadPool(int n);
  void spawn();
  void join_all();
  void worker_main(int lane);
  void work(int lane);
  [[nodiscard]] static bool claim(Lane& lane, std::size_t& chunk) noexcept;
  void finish_chunk();

  /// Take the deferred-job slot for `fn` over `nchunks` chunks; false if
  /// the pool has one lane, the caller is inside a region, or another job
  /// holds the slot (the caller then runs its chunks itself).
  [[nodiscard]] bool publish_deferred(std::size_t nchunks,
                                      const std::function<void(std::size_t)>* fn);
  /// Claim and run one chunk of the published deferred job; false if none
  /// was left to claim.
  [[nodiscard]] bool run_deferred_chunk();
  /// Run the deferred job's unclaimed chunks on the caller and wait for
  /// the claimed ones. Leaves the slot held and any exception stored.
  void drain_deferred();
  /// drain_deferred(), then release the slot and return the first
  /// exception a chunk threw.
  [[nodiscard]] std::exception_ptr finish_deferred();

  int size_ = 1;
  std::vector<std::thread> workers_;
  std::vector<Lane> lanes_;

  std::mutex start_mu_;
  std::condition_variable start_cv_;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<bool> stop_{false};

  std::mutex run_mu_;  ///< serializes top-level parallel regions
  /// Current region's chunk function. Atomic because a straggler worker
  /// finishing the previous region may claim chunks of the next one; the
  /// release store of the lane ranges orders this for any such claimant.
  std::atomic<const std::function<void(std::size_t)>*> fn_{nullptr};
  std::atomic<std::int64_t> remaining_{0};
  std::atomic<bool> failed_{false};
  std::mutex error_mu_;
  std::exception_ptr error_;
  std::mutex done_mu_;
  std::condition_variable done_cv_;

  // The deferred-job slot: at most one job at a time. Its cursor and
  // function follow the region protocol: fn is stored before the cursor is
  // published, and read only after a successful claim.
  std::atomic<bool> deferred_held_{false};
  Lane deferred_range_;
  std::atomic<const std::function<void(std::size_t)>*> deferred_fn_{nullptr};
  std::atomic<std::int64_t> deferred_remaining_{0};
  std::atomic<bool> deferred_failed_{false};
  std::exception_ptr deferred_error_;  ///< guarded by error_mu_
};

/// Chunks that run on idle lanes while the thread that posted them goes on.
///
/// post(n, fn) hands fn(0) ... fn(n - 1) to the process-wide pool. A worker
/// with no region to work on runs them one at a time and looks for a new
/// region between chunks, so regions keep priority over deferred chunks.
/// wait() runs every chunk no lane has claimed on the caller, waits for the
/// claimed ones and rethrows the first exception a chunk threw. On a
/// one-lane pool, inside a parallel region, or while another job holds the
/// pool's one deferred slot, post() hands nothing out and wait() runs every
/// chunk inline. Chunks run with the calling thread's region depth raised,
/// so a parallel call inside one runs inline. A chunk may run on any lane
/// at any time before wait() returns, so it must write only what no other
/// chunk and nothing outside the job touches until then. Resizing or
/// destroying the pool while a job is pending first runs the job to the
/// end; its exception, if any, still surfaces at wait().
class DeferredJob {
 public:
  DeferredJob() = default;
  DeferredJob(const DeferredJob&) = delete;
  DeferredJob& operator=(const DeferredJob&) = delete;
  /// Waits for a pending job; an exception it threw is dropped.
  ~DeferredJob();

  /// Post fn(chunk) for every chunk in [0, nchunks). A job still pending
  /// on this handle is waited for first (rethrowing its exception).
  void post(std::size_t nchunks, std::function<void(std::size_t)> fn);

  /// Finish the pending job (nothing if none): see the class comment.
  void wait();

  [[nodiscard]] bool pending() const noexcept { return pending_; }

 private:
  std::function<void(std::size_t)> fn_;
  std::size_t nchunks_ = 0;
  bool pending_ = false;
  bool published_ = false;  ///< in the pool's slot; else wait() runs it all
};

/// Resize the global pool according to `resolve_threads(flag)` and return
/// the resulting lane count (CLI plumbing for `--threads`).
[[nodiscard]] int configure_threads(int flag = 0);

/// Number of grain-sized chunks covering [0, n).
[[nodiscard]] constexpr std::size_t num_chunks(std::size_t n, std::size_t grain) noexcept {
  const std::size_t g = grain == 0 ? 1 : grain;
  return (n + g - 1) / g;
}

/// Run `fn(lo, hi)` over consecutive chunks [lo, hi) of [begin, end),
/// each at most `grain` long. Chunk boundaries depend only on the range
/// and grain, never on the thread count.
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain, Fn&& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t g = grain == 0 ? 1 : grain;
  const std::size_t chunks = num_chunks(n, g);
  const std::function<void(std::size_t)> chunk_fn = [&](std::size_t c) {
    const std::size_t lo = begin + c * g;
    const std::size_t hi = lo + std::min(g, end - lo);
    fn(lo, hi);
  };
  ThreadPool::instance().run(chunks, chunk_fn);
}

/// Map i -> fn(i) over [0, n) into a vector (one slot per element; no
/// ordering hazards). `T` must be default-constructible.
template <typename T, typename Fn>
[[nodiscard]] std::vector<T> parallel_map(std::size_t n, std::size_t grain, Fn&& fn) {
  std::vector<T> out(n);
  parallel_for(0, n, grain, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) out[i] = fn(i);
  });
  return out;
}

/// Deterministic chunked reduction: `map_chunk(lo, hi)` produces one
/// partial per chunk; partials are combined **serially in chunk order**
/// with `combine`, so the floating-point evaluation order is fixed by
/// (range, grain) alone.
template <typename T, typename MapChunk, typename Combine>
[[nodiscard]] T parallel_reduce(std::size_t begin, std::size_t end, std::size_t grain,
                                T init, MapChunk&& map_chunk, Combine&& combine) {
  if (begin >= end) return init;
  const std::size_t g = grain == 0 ? 1 : grain;
  const std::size_t chunks = num_chunks(end - begin, g);
  std::vector<T> partials(chunks, init);
  parallel_for(begin, end, g, [&](std::size_t lo, std::size_t hi) {
    partials[(lo - begin) / g] = map_chunk(lo, hi);
  });
  T acc = std::move(init);
  for (std::size_t c = 0; c < chunks; ++c) acc = combine(std::move(acc), partials[c]);
  return acc;
}

}  // namespace dfv::exec
