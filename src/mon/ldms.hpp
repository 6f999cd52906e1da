// LDMS-style system-wide monitoring.
//
// On Cori, LDMS samples counters on *all* routers once per second
// (~5 TB/day). The analyses only consume two aggregates derived from it
// (§IV-C / Fig. 10):
//   io  — counters of routers whose nodes serve the filesystem (I/O nodes)
//   sys — counters of routers sharing no nodes with the instrumented job
#pragma once

#include <array>
#include <span>
#include <vector>

#include "mon/counter_model.hpp"

namespace dfv::mon {

/// The 4+4 aggregate features exposed to the forecasting models.
struct LdmsFeatures {
  std::array<double, kNumIoFeatures> io{};    ///< IO_RT_FLIT_TOT, IO_RT_RB_STL, IO_PT_FLIT_TOT, IO_PT_PKT_TOT
  std::array<double, kNumSysFeatures> sys{};  ///< SYS_* equivalents over non-job routers
};

/// Pick the default I/O router set: `per_group` routers per group
/// (deterministic, spread over rows) playing the role of service/LNET
/// routers that front the filesystem.
[[nodiscard]] std::vector<net::RouterId> make_default_io_routers(const net::Topology& topo,
                                                                 int per_group = 1);

/// Partial sums of one chunk of a sample's system-wide part.
using LdmsPartial = std::array<double, 4>;

class Measurement;

class LdmsSampler {
 public:
  LdmsSampler(const CounterModel& model, std::vector<net::RouterId> io_routers);

  /// Aggregate features over one interval. `job_routers` must be sorted
  /// (they are excluded from the sys aggregate). Runs every chunk of a
  /// Measurement as one pool region, then finishes it.
  [[nodiscard]] LdmsFeatures sample(const net::RateLoads& bg, const net::ByteLoads& job,
                                    double dt,
                                    std::span<const net::RouterId> job_routers) const;

  [[nodiscard]] const std::vector<net::RouterId>& io_routers() const noexcept {
    return io_routers_;
  }

 private:
  friend class Measurement;
  enum Part : std::size_t { kIo, kLinks, kEndpoints, kParts };

  /// Chunks of the system-wide part.
  [[nodiscard]] std::size_t system_chunks() const noexcept { return first_[kParts]; }
  /// Partial sums of system chunk `c` (< system_chunks()).
  [[nodiscard]] LdmsPartial system_chunk(std::size_t c, const net::RateLoads& bg,
                                         const net::ByteLoads& job, double dt) const;
  /// The system partials summed part by part in chunk order, minus
  /// `job_total`, the job routers' aggregate() over the same interval.
  [[nodiscard]] LdmsFeatures finish(std::span<const LdmsPartial> partials,
                                    const CounterVec& job_total) const;

  const CounterModel* model_;
  std::vector<net::RouterId> io_routers_;
  std::array<std::size_t, kParts> size_{};       ///< elements per part
  std::array<std::size_t, kParts + 1> first_{};  ///< each part's first chunk
};

/// One interval's measurement of an instrumented job as chunked work: the
/// job routers' counters (CounterModel::aggregate) and the LDMS sample,
/// whose sys aggregate subtracts those same counters, so they are computed
/// once. A chunk is one of the sample's system-wide chunks (the I/O
/// routers, every link, every router's endpoint arrays, each at its own
/// grain) or one of aggregate()'s job-router chunks. run(c) writes only
/// chunk c's partial, so chunks may run on any thread in any order;
/// finish() combines each reduction's partials in chunk order, so the
/// result is aggregate()'s and sample()'s, bit for bit.
class Measurement {
 public:
  struct Result {
    CounterVec counters;  ///< CounterModel::aggregate over the job routers
    LdmsFeatures ldms;    ///< LdmsSampler::sample
  };

  /// Set up the measurement of one interval of `dt` seconds. What the
  /// arguments refer to must stay unchanged until finish() returns.
  void start(const LdmsSampler& sampler, std::span<const net::RouterId> job_routers,
             const net::RateLoads& bg, const net::ByteLoads& job, double dt);
  [[nodiscard]] std::size_t chunks() const noexcept { return system_part_.size() + job_part_.size(); }
  /// Compute chunk `c`'s partial (c < chunks()).
  void run(std::size_t c);
  /// Combine the partials; every chunk must have run.
  [[nodiscard]] Result finish() const;

 private:
  const LdmsSampler* sampler_ = nullptr;
  std::span<const net::RouterId> routers_;
  const net::RateLoads* bg_ = nullptr;
  const net::ByteLoads* job_ = nullptr;
  double dt_ = 0.0;
  std::vector<LdmsPartial> system_part_;
  std::vector<CounterVec> job_part_;
};

}  // namespace dfv::mon
