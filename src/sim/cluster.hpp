// Cluster: ties the network engine, scheduler, and monitoring together
// and executes instrumented application runs step by step.
//
// Background jobs contribute sustained link loads (refreshed when the
// running-job set changes or every bg_refresh_interval_s of simulated
// time, with per-job OU intensity modulation). The instrumented job's
// phases are routed against that background; phase durations combine a
// latency/software baseline scaled by the app's congestion sensitivities
// with the measured transfer makespan.
//
// Steps are pipelined: step t's counters and LDMS sample are computed as a
// deferred pool job (exec::DeferredJob) that idle lanes run while the
// calling thread routes and solves step t + 1. Two background-load and two
// step-load buffers, used in turn, keep what the pending measurement reads
// unchanged until it is finished; the records equal a synchronous
// measurement's bit for bit.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "apps/app_model.hpp"
#include "exec/exec.hpp"
#include "mon/counter_model.hpp"
#include "mon/ldms.hpp"
#include "net/flow_model.hpp"
#include "sched/slurm.hpp"
#include "sim/dataset.hpp"

namespace dfv::sim {

struct ClusterParams {
  net::FlowModelParams flow;
  mon::CounterModelParams counters;
  net::RoutingPolicy policy = net::RoutingPolicy::Ugal;
  /// Background load cache lifetime in simulated seconds.
  double bg_refresh_interval_s = 30.0;
  int io_routers_per_group = 1;
  /// Headroom cap on background utilization (see SlurmSim). On small
  /// machines set this low enough that the instrumented jobs always fit.
  double max_bg_utilization = 0.88;
  /// Residual (unexplained) multiplicative noise on MPI phase times:
  /// OS jitter and everything else the counters cannot see.
  double mpi_noise_sigma = 0.03;
};

/// Congestion factors observed by a job at a point in time.
struct CongestionView {
  double pt_stall = 0.0;   ///< endpoint stall-fraction summary over job routers
  double transit = 1.0;    ///< congestion_factor over job links (>= 1)
};

class Cluster {
 public:
  Cluster(const net::DragonflyConfig& cfg, ClusterParams params,
          std::vector<sched::UserArchetype> users, std::uint64_t seed);

  [[nodiscard]] const net::Topology& topology() const noexcept { return topo_; }
  [[nodiscard]] sched::SlurmSim& slurm() noexcept { return slurm_; }
  [[nodiscard]] const sched::SlurmSim& slurm() const noexcept { return slurm_; }
  [[nodiscard]] const mon::LdmsSampler& ldms() const noexcept { return ldms_; }
  [[nodiscard]] const ClusterParams& params() const noexcept { return params_; }

  /// Execute one instrumented run of `app` under `user_id`, advancing
  /// simulated time. Returns the populated record (neighborhood not yet
  /// filled; the campaign fills it from sacct once the run window is
  /// known). Throws ContractError if the job cannot be placed after
  /// `max_wait_s` of queue waiting.
  [[nodiscard]] RunRecord run_app(const apps::AppModel& app,
                                  int user_id = sched::kCampaignUserId,
                                  double max_wait_s = 6 * 3600.0);

  /// Current congestion factors for an ad-hoc router set (examples use
  /// this to show interference directly).
  [[nodiscard]] CongestionView congestion(std::span<const net::RouterId> routers);

  /// Force a background-load refresh on next access (tests).
  void invalidate_background() noexcept { bg_valid_ = false; }

  /// Measure each step synchronously, after its routing, instead of on
  /// idle lanes during the next step's (tests compare the two).
  void set_synchronous_measurement(bool on) noexcept { synchronous_measurement_ = on; }

  /// Direct access to the flow model for examples / what-if studies.
  [[nodiscard]] const net::FlowModel& flow_model() const noexcept { return flow_; }
  /// Current background loads (refreshing if stale).
  [[nodiscard]] const net::RateLoads& background_loads();

 private:
  void refresh_background_if_needed();
  [[nodiscard]] CongestionView congestion_of(std::span<const net::RouterId> routers) const;
  [[nodiscard]] const net::RateLoads& bg() const noexcept {
    return bg_loads_[std::size_t(bg_cur_)];
  }
  /// Wait for `job`, the pending step's measurement, if any, and append
  /// its counters and LDMS sample to `rec`.
  void finish_measurement(exec::DeferredJob& job, RunRecord& rec);

  net::Topology topo_;
  ClusterParams params_;
  net::FlowModel flow_;
  mon::CounterModel counter_model_;
  mon::LdmsSampler ldms_;
  sched::SlurmSim slurm_;
  Rng rng_;

  /// Background loads: bg_loads_[bg_cur_] is current; a refresh writes
  /// the other one, which no pending measurement reads, then flips. Each
  /// load buffer is sized on first use.
  std::array<net::RateLoads, 2> bg_loads_;
  int bg_cur_ = 0;
  bool bg_valid_ = false;
  double bg_refresh_time_ = -1.0;
  std::uint64_t bg_epoch_seen_ = ~0ull;

  /// Per-job routed link loads at intensity 1, stored sparsely so a
  /// refresh is a weighted sum instead of a full re-route. Paths are
  /// frozen at job start (realistic: placements do not move).
  struct SparseLoads {
    std::vector<std::pair<net::LinkId, double>> links;
    std::vector<std::pair<net::RouterId, double>> inject;
    std::vector<std::pair<net::RouterId, double>> eject;
  };
  std::vector<std::pair<int, SparseLoads>> bg_cache_;  ///< job_id -> loads
  net::RateLoads route_scratch_;  ///< all zero between refreshes
  std::vector<net::LinkId> route_touched_;

  /// The instrumented job's bytes per step, in turn: a step writes one
  /// while the previous step's measurement reads the other.
  std::array<net::ByteLoads, 2> step_loads_;
  mon::Measurement measurement_;  ///< the pending step's, run as a deferred job
  bool synchronous_measurement_ = false;
};

}  // namespace dfv::sim
