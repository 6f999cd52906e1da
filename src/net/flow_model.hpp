// Flow-level congestion model.
//
// This is the fast network engine used for campaign generation: instead
// of simulating every flit, it (a) routes each demand along a policy-
// chosen path, (b) computes max-min fair bandwidth shares for the
// instrumented job's messages given the residual capacity left by
// background traffic, and (c) reports per-link byte totals from which
// the monitoring layer derives Aries-style counters. The packet-level
// DES in packet_sim.hpp validates its qualitative behavior.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "net/routing.hpp"
#include "net/traffic.hpp"

namespace dfv::net {

/// One message of the instrumented job after routing and rate solving.
struct RoutedMessage {
  Demand demand;
  Path path;
  double rate = 0.0;  ///< max-min fair bandwidth share [bytes/s]
  double time = 0.0;  ///< completion time = latency + bytes / rate [s]
};

/// Result of transferring a set of messages in one communication phase.
struct TransferResult {
  std::vector<RoutedMessage> messages;
  double makespan = 0.0;  ///< max completion time over all messages
};

struct FlowModelParams {
  RoutingParams routing;
  /// Fraction of nominal capacity available to payload (protocol overhead).
  double capacity_headroom = 0.95;
  /// Floor on residual capacity as a fraction of nominal capacity: even a
  /// saturated link drains slowly rather than stalling forever.
  double min_residual_frac = 0.04;
  /// Messages larger than this are split into up to `max_chunks` chunks
  /// routed independently (adaptive routing sprays large transfers).
  double chunk_bytes = 1.0e6;
  int max_chunks = 4;
};

/// Utilization -> stall-cycles-per-cycle shape: queueing-style growth that
/// stays near zero below ~60% utilization and explodes as u -> 1.
/// Exposed so the monitoring layer and tests share one definition.
[[nodiscard]] double stall_fraction(double utilization) noexcept;

class FlowModel {
 public:
  explicit FlowModel(const Topology& topo, FlowModelParams params = {});

  [[nodiscard]] const Topology& topology() const noexcept { return *topo_; }
  [[nodiscard]] const FlowModelParams& params() const noexcept { return params_; }

  /// Route sustained background demands (bytes over an interval of `dt`
  /// seconds) and accumulate the resulting rates into `out`. If `touched`
  /// is non-null, the id of every link whose rate this call raises from 0
  /// is appended there, in the order the rates are applied.
  void route_background(std::span<const Demand> demands, RoutingPolicy policy, double dt,
                        Rng& rng, RateLoads& out,
                        std::vector<LinkId>* touched = nullptr) const;

  /// Route and rate-solve one communication phase of the instrumented job
  /// against background load `bg`. If `ours` is non-null, the job's own
  /// byte totals are accumulated there (for counter accounting; link bytes
  /// through ByteLoads::add_link, so ByteLoads::clear finds them).
  [[nodiscard]] TransferResult transfer(std::span<const Demand> messages,
                                        RoutingPolicy policy, const RateLoads& bg,
                                        Rng& rng, ByteLoads* ours = nullptr) const;

  /// Scalar congestion multiplier (>= 1) summarizing how loaded the links
  /// around `job_routers` are; used for collective (allreduce/barrier)
  /// latency scaling where per-message routing would be overkill.
  [[nodiscard]] double congestion_factor(std::span<const RouterId> job_routers,
                                         const RateLoads& bg) const;

 private:
  /// Route `demands` in waves, in two passes per sample block of waves:
  /// draw every chunk's candidates (demand i from `substream_seed(seed,
  /// i)`), then, wave by wave, pick each chunk's path against `link_rate`
  /// as it stands before the wave and call `apply(i, paths)` for the
  /// wave's demands in order. Block b's draws fill one half of a
  /// two-block candidate buffer in the same pool region as the picks and
  /// applies of block b - 1 read the other; region 0 also copies
  /// `initial_rate` (when not empty) into `link_rate`. `paths` holds
  /// demand i's chunk paths; it is meaningful only for a demand with
  /// bytes > 0 and src != dst.
  template <typename Apply>
  void route_waves(std::span<const Demand> demands, RoutingPolicy policy, std::uint64_t seed,
                   std::span<const double> initial_rate, std::span<double> link_rate,
                   Apply&& apply) const;

  const Topology* topo_;
  FlowModelParams params_;
  PathChooser chooser_;
  /// Scratch buffers reused across transfer() and route_background()
  /// calls: link rates, the epoch-stamped resource->dense-index table of
  /// the max-min solve, and two sample blocks' routing candidates.
  /// FlowModel is therefore not safe for concurrent calls on one
  /// instance; each call parallelizes internally via dfv::exec.
  mutable std::vector<double> scratch_rate_;
  mutable std::vector<Candidates> cand_draws_;
  mutable std::vector<Path> cand_paths_;
  mutable std::vector<std::uint32_t> res_stamp_;
  mutable std::vector<std::uint32_t> res_dense_;
  mutable std::uint32_t res_epoch_ = 0;
};

}  // namespace dfv::net
