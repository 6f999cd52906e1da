#include "exec/exec.hpp"

#include <charconv>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"

namespace dfv::exec {

namespace {

/// Depth of nested parallel regions on this thread (workers and callers).
thread_local int tl_region_depth = 0;

constexpr std::uint64_t pack(std::uint32_t next, std::uint32_t end) noexcept {
  return (std::uint64_t(next) << 32) | std::uint64_t(end);
}
constexpr std::uint32_t unpack_next(std::uint64_t v) noexcept {
  return std::uint32_t(v >> 32);
}
constexpr std::uint32_t unpack_end(std::uint64_t v) noexcept {
  return std::uint32_t(v & 0xffffffffu);
}

}  // namespace

int resolve_threads(int flag) {
  DFV_CHECK_MSG(flag >= 0 && flag <= kMaxThreads,
                "thread count " << flag << " is outside [0, " << kMaxThreads
                                << "] (0 = DFV_THREADS or hardware)");
  if (flag > 0) return flag;
  if (const char* env = std::getenv("DFV_THREADS"); env != nullptr && *env != '\0') {
    const std::string_view text(env);
    int v = 0;
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec == std::errc() && end == text.data() + text.size() && v >= 1 && v <= kMaxThreads)
      return v;
    static std::atomic<bool> warned{false};  // the pool and the CLI both resolve
    if (!warned.exchange(true))
      DFV_LOG_WARN("DFV_THREADS='" << text << "' is not a thread count in [1, "
                                   << kMaxThreads << "]; using the hardware count");
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? int(std::min<unsigned>(hc, kMaxThreads)) : 1;
}

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool(resolve_threads());
  return pool;
}

ThreadPool::ThreadPool(int n) {
  DFV_CHECK(n >= 1 && n <= kMaxThreads);
  size_ = n;
  lanes_ = std::vector<Lane>(std::size_t(n));
  spawn();
}

ThreadPool::~ThreadPool() {
  drain_deferred();
  join_all();
}

bool ThreadPool::in_parallel_region() noexcept { return tl_region_depth > 0; }

void ThreadPool::spawn() {
  stop_.store(false, std::memory_order_relaxed);
  workers_.reserve(std::size_t(size_ - 1));
  for (int lane = 1; lane < size_; ++lane)
    workers_.emplace_back([this, lane] { worker_main(lane); });
}

void ThreadPool::join_all() {
  {
    std::lock_guard<std::mutex> l(start_mu_);
    stop_.store(true, std::memory_order_release);
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

void ThreadPool::resize(int n) {
  DFV_CHECK_MSG(n >= 1 && n <= kMaxThreads,
                "thread pool size must be in [1, " << kMaxThreads << "]");
  DFV_CHECK_MSG(!in_parallel_region(), "cannot resize the pool inside a parallel region");
  std::lock_guard<std::mutex> run_lock(run_mu_);
  if (n == size_) return;
  drain_deferred();  // a pending deferred job runs to its end first
  join_all();
  size_ = n;
  lanes_ = std::vector<Lane>(std::size_t(n));
  spawn();
}

bool ThreadPool::claim(Lane& ln, std::size_t& chunk) noexcept {
  std::uint64_t v = ln.range.load(std::memory_order_acquire);
  while (true) {
    const std::uint32_t next = unpack_next(v);
    const std::uint32_t end = unpack_end(v);
    if (next >= end) return false;
    if (ln.range.compare_exchange_weak(v, pack(next + 1, end), std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      chunk = next;
      return true;
    }
  }
}

void ThreadPool::finish_chunk() {
  if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    {
      std::lock_guard<std::mutex> l(done_mu_);
    }
    done_cv_.notify_all();
  }
}

void ThreadPool::work(int lane) {
  ++tl_region_depth;
  // Own lane first, then steal round-robin from the others.
  for (int probe = 0; probe < size_; ++probe) {
    const int victim = (lane + probe) % size_;
    std::size_t chunk = 0;
    while (claim(lanes_[std::size_t(victim)], chunk)) {
      // Read the region function only after a successful claim: the claim
      // synchronizes with the lane publication, which follows the fn_
      // store, so a claimed chunk always sees its own region's function.
      const std::function<void(std::size_t)>* fn =
          fn_.load(std::memory_order_acquire);
      if (!failed_.load(std::memory_order_acquire)) {
        try {
          (*fn)(chunk);
        } catch (...) {
          bool expected = false;
          if (failed_.compare_exchange_strong(expected, true, std::memory_order_acq_rel)) {
            std::lock_guard<std::mutex> l(error_mu_);
            error_ = std::current_exception();
          }
        }
      }
      finish_chunk();
    }
  }
  --tl_region_depth;
}

void ThreadPool::worker_main(int lane) {
  std::uint64_t seen = generation_.load(std::memory_order_acquire);
  const auto region_or_stop = [&] {
    return generation_.load(std::memory_order_acquire) != seen ||
           stop_.load(std::memory_order_acquire);
  };
  const auto deferred_ready = [&] {
    const std::uint64_t v = deferred_range_.range.load(std::memory_order_relaxed);
    return unpack_next(v) < unpack_end(v);
  };
  while (true) {
    // Brief spin before sleeping: campaign phases issue many small
    // regions back to back, and a condvar round trip per region would
    // dominate them. Between regions the lane runs deferred chunks, one
    // at a time, and looks for a new region before each.
    for (int spin = 0; spin < 4096 && !region_or_stop(); ++spin) {
      if (deferred_ready() && run_deferred_chunk()) {
        spin = 0;
        continue;
      }
      // Periodic yield keeps oversubscribed pools (threads > cores) from
      // starving the thread that is doing the actual work.
      if ((spin & 255) == 255) std::this_thread::yield();
    }
    if (!region_or_stop()) {
      std::unique_lock<std::mutex> l(start_mu_);
      start_cv_.wait(l, [&] { return region_or_stop() || deferred_ready(); });
    }
    if (stop_.load(std::memory_order_acquire)) return;
    if (generation_.load(std::memory_order_acquire) == seen) continue;  // deferred work
    seen = generation_.load(std::memory_order_acquire);
    work(lane);
  }
}

bool ThreadPool::publish_deferred(std::size_t nchunks,
                                  const std::function<void(std::size_t)>* fn) {
  if (size_ == 1 || nchunks == 0 || tl_region_depth > 0) return false;
  DFV_CHECK_MSG(nchunks <= 0xffffffffull, "deferred job exceeds 2^32 chunks");
  if (deferred_held_.exchange(true, std::memory_order_acquire)) return false;
  deferred_fn_.store(fn, std::memory_order_relaxed);
  deferred_failed_.store(false, std::memory_order_relaxed);
  deferred_remaining_.store(std::int64_t(nchunks), std::memory_order_relaxed);
  // The release store publishes fn and the count to any lane that claims.
  deferred_range_.range.store(pack(0, std::uint32_t(nchunks)), std::memory_order_release);
  {
    std::lock_guard<std::mutex> l(start_mu_);
  }
  start_cv_.notify_all();
  return true;
}

bool ThreadPool::run_deferred_chunk() {
  std::size_t chunk = 0;
  if (!claim(deferred_range_, chunk)) return false;
  const std::function<void(std::size_t)>* fn = deferred_fn_.load(std::memory_order_acquire);
  if (!deferred_failed_.load(std::memory_order_acquire)) {
    ++tl_region_depth;
    try {
      (*fn)(chunk);
    } catch (...) {
      bool expected = false;
      if (deferred_failed_.compare_exchange_strong(expected, true,
                                                   std::memory_order_acq_rel)) {
        std::lock_guard<std::mutex> l(error_mu_);
        deferred_error_ = std::current_exception();
      }
    }
    --tl_region_depth;
  }
  if (deferred_remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    {
      std::lock_guard<std::mutex> l(done_mu_);
    }
    done_cv_.notify_all();
  }
  return true;
}

void ThreadPool::drain_deferred() {
  if (!deferred_held_.load(std::memory_order_acquire)) return;
  while (run_deferred_chunk()) {
  }
  for (int spin = 0; spin < 16384; ++spin) {
    if (deferred_remaining_.load(std::memory_order_acquire) == 0) return;
    if ((spin & 255) == 255) std::this_thread::yield();
  }
  std::unique_lock<std::mutex> l(done_mu_);
  done_cv_.wait(l, [&] { return deferred_remaining_.load(std::memory_order_acquire) == 0; });
}

std::exception_ptr ThreadPool::finish_deferred() {
  drain_deferred();
  deferred_fn_.store(nullptr, std::memory_order_relaxed);
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> l(error_mu_);
    err = std::exchange(deferred_error_, nullptr);
  }
  deferred_held_.store(false, std::memory_order_release);
  return err;
}

DeferredJob::~DeferredJob() {
  if (!pending_) return;
  try {
    wait();
  } catch (...) {  // dropped: a destructor must not throw
  }
}

void DeferredJob::post(std::size_t nchunks, std::function<void(std::size_t)> fn) {
  wait();
  fn_ = std::move(fn);
  nchunks_ = nchunks;
  pending_ = nchunks > 0;
  published_ = pending_ && ThreadPool::instance().publish_deferred(nchunks, &fn_);
}

void DeferredJob::wait() {
  if (!pending_) return;
  pending_ = false;
  if (published_) {
    published_ = false;
    if (const std::exception_ptr err = ThreadPool::instance().finish_deferred())
      std::rethrow_exception(err);
    return;
  }
  ++tl_region_depth;
  try {
    for (std::size_t c = 0; c < nchunks_; ++c) fn_(c);
  } catch (...) {
    --tl_region_depth;
    throw;
  }
  --tl_region_depth;
}

void ThreadPool::run(std::size_t nchunks, const std::function<void(std::size_t)>& fn) {
  if (nchunks == 0) return;
  DFV_CHECK_MSG(nchunks <= 0xffffffffull, "parallel region exceeds 2^32 chunks");
  if (size_ == 1 || nchunks == 1 || tl_region_depth > 0) {
    // Serial / nested fallback: identical chunk decomposition, inline.
    ++tl_region_depth;
    try {
      for (std::size_t c = 0; c < nchunks; ++c) fn(c);
    } catch (...) {
      --tl_region_depth;
      throw;
    }
    --tl_region_depth;
    return;
  }

  std::lock_guard<std::mutex> run_lock(run_mu_);
  fn_.store(&fn, std::memory_order_relaxed);
  failed_.store(false, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> l(error_mu_);
    error_ = nullptr;
  }
  remaining_.store(std::int64_t(nchunks), std::memory_order_relaxed);
  // Partition chunks across lanes; release stores publish fn_/remaining_
  // to any lane that claims from them.
  const std::size_t lanes = std::size_t(size_);
  for (std::size_t l = 0; l < lanes; ++l) {
    const std::uint32_t lo = std::uint32_t(l * nchunks / lanes);
    const std::uint32_t hi = std::uint32_t((l + 1) * nchunks / lanes);
    lanes_[l].range.store(pack(lo, hi), std::memory_order_release);
  }
  generation_.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> l(start_mu_);
  }
  start_cv_.notify_all();

  work(0);

  // Wait for stragglers (spin briefly, then sleep).
  for (int spin = 0; spin < 16384; ++spin) {
    if (remaining_.load(std::memory_order_acquire) == 0) break;
    if ((spin & 255) == 255) std::this_thread::yield();
  }
  if (remaining_.load(std::memory_order_acquire) != 0) {
    std::unique_lock<std::mutex> l(done_mu_);
    done_cv_.wait(l, [&] { return remaining_.load(std::memory_order_acquire) == 0; });
  }
  fn_.store(nullptr, std::memory_order_release);

  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> l(error_mu_);
    err = error_;
    error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

int configure_threads(int flag) {
  const int n = resolve_threads(flag);
  ThreadPool::instance().resize(n);
  return n;
}

}  // namespace dfv::exec
