#include "exec/exec.hpp"

#include <charconv>
#include <cstdlib>
#include <string>
#include <string_view>

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

ThreadPool::~ThreadPool() { join_all(); }

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
  join_all();
  size_ = n;
  lanes_ = std::vector<Lane>(std::size_t(n));
  spawn();
}

bool ThreadPool::claim(int lane, std::size_t& chunk) noexcept {
  Lane& ln = lanes_[std::size_t(lane)];
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
    while (claim(victim, chunk)) {
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
  while (true) {
    // Brief spin before sleeping: campaign phases issue many small
    // regions back to back, and a condvar round trip per region would
    // dominate them.
    for (int spin = 0; spin < 4096; ++spin) {
      if (generation_.load(std::memory_order_acquire) != seen ||
          stop_.load(std::memory_order_acquire))
        break;
      // Periodic yield keeps oversubscribed pools (threads > cores) from
      // starving the thread that is doing the actual work.
      if ((spin & 255) == 255) std::this_thread::yield();
    }
    if (generation_.load(std::memory_order_acquire) == seen &&
        !stop_.load(std::memory_order_acquire)) {
      std::unique_lock<std::mutex> l(start_mu_);
      start_cv_.wait(l, [&] {
        return generation_.load(std::memory_order_acquire) != seen ||
               stop_.load(std::memory_order_acquire);
      });
    }
    if (stop_.load(std::memory_order_acquire)) return;
    seen = generation_.load(std::memory_order_acquire);
    work(lane);
  }
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
