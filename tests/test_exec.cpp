#include "exec/exec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"

namespace dfv::exec {
namespace {

class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override { ThreadPool::instance().resize(4); }
  void TearDown() override { ThreadPool::instance().resize(4); }
};

TEST_F(ExecTest, ResolveThreadsPrecedence) {
  EXPECT_EQ(resolve_threads(3), 3);  // flag wins over everything
  EXPECT_GE(resolve_threads(0), 1);  // env/hardware fallback is sane
}

/// Sets DFV_THREADS for one scope and restores the old value after.
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* value) {
    if (const char* old = std::getenv("DFV_THREADS")) old_ = old;
    ::setenv("DFV_THREADS", value, 1);
  }
  ~ScopedThreadsEnv() {
    if (old_) {
      ::setenv("DFV_THREADS", old_->c_str(), 1);
    } else {
      ::unsetenv("DFV_THREADS");
    }
  }
  ScopedThreadsEnv(const ScopedThreadsEnv&) = delete;
  ScopedThreadsEnv& operator=(const ScopedThreadsEnv&) = delete;

 private:
  std::optional<std::string> old_;
};

// Only counts are resolved here; no pool of the rejected size is started.
TEST_F(ExecTest, ResolveThreadsBoundsTheFlag) {
  EXPECT_EQ(resolve_threads(1), 1);
  EXPECT_EQ(resolve_threads(kMaxThreads), kMaxThreads);
  EXPECT_THROW((void)resolve_threads(-1), ContractError);
  EXPECT_THROW((void)resolve_threads(kMaxThreads + 1), ContractError);
  EXPECT_THROW((void)resolve_threads(100000), ContractError);
  EXPECT_THROW(ThreadPool::instance().resize(kMaxThreads + 1), ContractError);
  EXPECT_EQ(ThreadPool::instance().size(), 4);
}

TEST_F(ExecTest, ResolveThreadsValidatesTheEnvironment) {
  const unsigned hc = std::thread::hardware_concurrency();
  const int hardware = hc > 0 ? int(std::min<unsigned>(hc, kMaxThreads)) : 1;
  {
    const ScopedThreadsEnv env("3");
    EXPECT_EQ(resolve_threads(0), 3);
    EXPECT_EQ(resolve_threads(5), 5);  // the flag still wins
  }
  {
    const ScopedThreadsEnv env(std::to_string(kMaxThreads).c_str());
    EXPECT_EQ(resolve_threads(0), kMaxThreads);
  }
  // Malformed or out of range: a warning, then the hardware count.
  for (const std::string& bad : std::vector<std::string>{
           "3x", "x3", " 3", "3.0", "0", "-2", "100000", "99999999999999999999",
           std::to_string(kMaxThreads + 1)}) {
    const ScopedThreadsEnv env(bad.c_str());
    EXPECT_EQ(resolve_threads(0), hardware) << "DFV_THREADS=" << bad;
  }
  {
    const ScopedThreadsEnv env("");
    EXPECT_EQ(resolve_threads(0), hardware);
  }
}

TEST_F(ExecTest, PoolLifecycleResize) {
  auto& pool = ThreadPool::instance();
  for (int n : {1, 2, 8, 1, 4}) {
    pool.resize(n);
    EXPECT_EQ(pool.size(), n);
    std::atomic<int> count{0};
    parallel_for(0, 1000, 16, [&](std::size_t lo, std::size_t hi) {
      count.fetch_add(int(hi - lo), std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), 1000);
  }
}

TEST_F(ExecTest, ParallelForCoversEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(1237);
  parallel_for(0, hits.size(), 7, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(ExecTest, ExceptionPropagatesOutOfParallelFor) {
  EXPECT_THROW(
      parallel_for(0, 256, 1,
                   [&](std::size_t lo, std::size_t) {
                     if (lo == 100) throw std::runtime_error("chunk failed");
                   }),
      std::runtime_error);
  // The pool must remain usable after a failed region.
  std::atomic<int> count{0};
  parallel_for(0, 64, 4, [&](std::size_t lo, std::size_t hi) {
    count.fetch_add(int(hi - lo));
  });
  EXPECT_EQ(count.load(), 64);
}

TEST_F(ExecTest, NestedCallsRunInline) {
  std::atomic<int> total{0};
  parallel_for(0, 8, 1, [&](std::size_t, std::size_t) {
    EXPECT_TRUE(ThreadPool::in_parallel_region());
    // Nested region: must execute inline without deadlocking.
    parallel_for(0, 10, 2, [&](std::size_t lo, std::size_t hi) {
      total.fetch_add(int(hi - lo), std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 80);
  EXPECT_FALSE(ThreadPool::in_parallel_region());
}

TEST_F(ExecTest, GrainOneVsGrainNEquivalence) {
  // A chunked reduction must give bit-identical results for any thread
  // count at fixed grain; and the grain=1 decomposition equals a serial
  // left fold.
  std::vector<double> vals(5000);
  Rng rng(42);
  for (double& v : vals) v = rng.uniform(-1.0, 1.0);

  auto sum_with = [&](std::size_t grain) {
    return parallel_reduce(
        0, vals.size(), grain, 0.0,
        [&](std::size_t lo, std::size_t hi) {
          double s = 0.0;
          for (std::size_t i = lo; i < hi; ++i) s += vals[i];
          return s;
        },
        [](double a, double b) { return a + b; });
  };

  double serial = 0.0;
  for (double v : vals) serial += v;
  EXPECT_DOUBLE_EQ(sum_with(1), serial);  // grain=1: identical fold order

  const double g64 = sum_with(64);
  for (int threads : {1, 2, 8}) {
    ThreadPool::instance().resize(threads);
    EXPECT_DOUBLE_EQ(sum_with(64), g64) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(sum_with(1), serial) << "threads=" << threads;
  }
}

TEST_F(ExecTest, ParallelMapFillsEverySlot) {
  const auto out = parallel_map<std::uint64_t>(
      777, 5, [](std::size_t i) { return substream_seed(1, i); });
  ASSERT_EQ(out.size(), 777u);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], substream_seed(1, i)) << i;
}

TEST_F(ExecTest, SubstreamSeedsDecorrelated) {
  // Substream seeds must differ from each other and from the parent.
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 100; ++i) seeds.push_back(substream_seed(7, i));
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::unique(seeds.begin(), seeds.end()), seeds.end());
}

TEST_F(ExecTest, ManySmallRegionsStress) {
  // Back-to-back small regions exercise the spin/wake path and stale
  // worker claims across generations.
  std::uint64_t acc = 0;
  for (int rep = 0; rep < 2000; ++rep) {
    acc += parallel_reduce(
        0, 64, 8, std::uint64_t{0},
        [&](std::size_t lo, std::size_t hi) { return std::uint64_t(hi - lo); },
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
  }
  EXPECT_EQ(acc, 2000u * 64u);
}

TEST_F(ExecTest, ResizeInsideRegionRejected) {
  parallel_for(0, 4, 1, [&](std::size_t, std::size_t) {
    EXPECT_THROW(ThreadPool::instance().resize(2), ContractError);
  });
}

// --- deferred jobs ---------------------------------------------------------

TEST_F(ExecTest, DeferredJobRunsEveryChunkExactlyOnce) {
  for (int threads : {2, 4, 8}) {
    ThreadPool::instance().resize(threads);
    std::vector<std::atomic<int>> hits(1000);
    DeferredJob job;
    job.post(hits.size(), [&](std::size_t c) { hits[c].fetch_add(1); });
    EXPECT_TRUE(job.pending());
    job.wait();
    EXPECT_FALSE(job.pending());
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "threads=" << threads;
  }
}

TEST_F(ExecTest, DeferredChunksRunOnIdleLanesBeforeWait) {
  constexpr int kChunks = 64;
  std::atomic<int> done{0};
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> on_caller{false};
  DeferredJob job;
  job.post(kChunks, [&](std::size_t) {
    EXPECT_TRUE(ThreadPool::in_parallel_region());
    if (std::this_thread::get_id() == caller) on_caller = true;
    done.fetch_add(1);
  });
  // The caller does nothing with the pool, so the workers finish the job.
  for (int ms = 0; ms < 20000 && done.load() < kChunks; ++ms)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(done.load(), kChunks);
  job.wait();
  EXPECT_EQ(done.load(), kChunks);
  EXPECT_FALSE(on_caller.load());
}

TEST_F(ExecTest, DeferredExceptionIsRethrownAtWait) {
  std::atomic<int> ran{0};
  DeferredJob job;
  job.post(100, [&](std::size_t c) {
    ran.fetch_add(1);
    if (c == 37) throw std::runtime_error("chunk failed");
  });
  EXPECT_THROW(job.wait(), std::runtime_error);
  EXPECT_FALSE(job.pending());
  EXPECT_LE(ran.load(), 100);
  // The slot is free again and the pool still runs regions and jobs.
  std::vector<std::atomic<int>> hits(50);
  job.post(hits.size(), [&](std::size_t c) { hits[c].fetch_add(1); });
  std::atomic<int> count{0};
  parallel_for(0, 64, 4, [&](std::size_t lo, std::size_t hi) { count.fetch_add(int(hi - lo)); });
  EXPECT_EQ(count.load(), 64);
  job.wait();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(ExecTest, DeferredJobOnOneLaneRunsInlineAtWait) {
  ThreadPool::instance().resize(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  DeferredJob job;
  job.post(20, [&](std::size_t c) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(int(c));
  });
  EXPECT_TRUE(order.empty());  // no lane to run it before wait()
  job.wait();
  std::vector<int> expected(20);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
  // Inline, the first exception stops the job and surfaces at wait().
  job.post(5, [](std::size_t c) {
    if (c == 2) throw std::runtime_error("inline chunk failed");
  });
  EXPECT_THROW(job.wait(), std::runtime_error);
}

TEST_F(ExecTest, RegionsRunWhileADeferredJobIsPending) {
  // Each deferred chunk writes its own slot; regions run meanwhile and both
  // give the serial answers.
  std::vector<double> slot(512, 0.0);
  const auto chunk_value = [](std::size_t c) {
    double v = 0.0;
    for (std::size_t i = 0; i < 2000; ++i) v += double((c * 2654435761u + i) % 97) * 0.5;
    return v;
  };
  DeferredJob job;
  job.post(slot.size(), [&](std::size_t c) { slot[c] = chunk_value(c); });
  for (int rep = 0; rep < 200; ++rep) {
    const std::uint64_t sum = parallel_reduce(
        0, 1000, 8, std::uint64_t{0},
        [&](std::size_t lo, std::size_t hi) {
          std::uint64_t s = 0;
          for (std::size_t i = lo; i < hi; ++i) s += i;
          return s;
        },
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
    ASSERT_EQ(sum, 999u * 1000u / 2u);
  }
  job.wait();
  for (std::size_t c = 0; c < slot.size(); ++c) EXPECT_EQ(slot[c], chunk_value(c)) << c;
}

TEST_F(ExecTest, DeferredJobsPostedInsideARegionOrWhileTheSlotIsHeldRunAtWait) {
  std::atomic<int> outer_hits{0}, inner_hits{0};
  DeferredJob outer;
  outer.post(200, [&](std::size_t) { outer_hits.fetch_add(1); });
  {
    DeferredJob second;  // the pool's one slot is held: runs at its wait()
    second.post(30, [&](std::size_t) { inner_hits.fetch_add(1); });
    second.wait();
    EXPECT_EQ(inner_hits.load(), 30);
  }
  parallel_for(0, 4, 1, [&](std::size_t, std::size_t) {
    DeferredJob nested;
    std::atomic<int> n{0};
    nested.post(10, [&](std::size_t) { n.fetch_add(1); });
    nested.wait();
    EXPECT_EQ(n.load(), 10);
  });
  outer.wait();
  EXPECT_EQ(outer_hits.load(), 200);
}

TEST_F(ExecTest, ResizeWithAPendingDeferredJobFinishesItFirst) {
  std::vector<std::atomic<int>> hits(64);
  DeferredJob job;
  job.post(hits.size(), [&](std::size_t c) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    hits[c].fetch_add(1);
  });
  ThreadPool::instance().resize(2);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);  // done before resize returned
  EXPECT_TRUE(job.pending());
  job.wait();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // A handle destroyed while its job is pending waits for the job.
  std::atomic<int> late{0};
  {
    DeferredJob dropped;
    dropped.post(32, [&](std::size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      late.fetch_add(1);
    });
  }
  EXPECT_EQ(late.load(), 32);
}

}  // namespace
}  // namespace dfv::exec
