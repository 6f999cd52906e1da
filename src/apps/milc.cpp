// MILC (su3_rmd): lattice QCD, 4-D stencil on a 4x4x4x4 per-rank grid.
//
// Characterization targets (§III-B, Figs. 3-4): 80 time steps of which
// the first 20 are fast "warmup" trajectories; ~89% of time in MPI;
// large point-to-point messages; dominant routines Allreduce, Wait,
// Isend, Irecv. Deviation driver (Fig. 9): router-tile transit stalls
// (RT_RB_STL) — MILC is bandwidth-bound, so congestion on the links its
// large messages traverse (including I/O traffic) hurts it most.
#include <cmath>

#include "apps/app_model.hpp"
#include "apps/comm_patterns.hpp"
#include "common/check.hpp"

namespace dfv::apps {

namespace {

inline constexpr int kWarmupSteps = 20;

class MilcModel final : public AppModel {
 public:
  explicit MilcModel(int nodes, int time_steps = 80) {
    DFV_CHECK_MSG(nodes == 128 || nodes == 512, "MILC datasets use 128 or 512 nodes");
    DFV_CHECK(time_steps > kWarmupSteps);
    info_.name = "MILC";
    info_.version = "7.8.0";
    info_.nodes = nodes;
    info_.input_params = nodes == 128 ? "n128 large.in" : "n512 large.in";
    info_.time_steps = time_steps;
    if (nodes == 128) {
      compute_s_ = 0.70;
      p2p_base_s_ = 4.6;
      coll_base_s_ = 1.6;
    } else {
      compute_s_ = 0.75;
      p2p_base_s_ = 5.2;
      coll_base_s_ = 1.8;
    }
    coeffs_ = {/*pt=*/0.2, /*rt=*/0.85, /*coll=*/0.6};
    dims_ = factor4(nodes);
  }

  [[nodiscard]] const AppInfo& info() const override { return info_; }
  [[nodiscard]] const AppCoefficients& coefficients() const override { return coeffs_; }

  [[nodiscard]] StepSpec step(int step_idx, const sched::Placement& placement,
                              const net::Topology& topo, Rng& rng) const override {
    DFV_CHECK(step_idx >= 0 && step_idx < info_.time_steps);
    // Warmup trajectories run ~3.5x faster than production steps (Fig. 3
    // middle), with a short ramp into the steady regime.
    double shape;
    if (step_idx < kWarmupSteps) {
      shape = 0.28;
    } else {
      const double ramp = std::min(1.0, double(step_idx - kWarmupSteps + 1) / 3.0);
      shape = 0.28 + (1.0 - 0.28) * ramp;
    }

    StepSpec s;
    s.compute_s = compute_s_ * shape * (1.0 + 0.015 * rng.normal());

    // CG solves: large 4-D halo exchanges every iteration; we aggregate
    // the step's exchanges into one phase with the step's full volume.
    PhaseSpec p2p;
    p2p.kind = PhaseSpec::Kind::PointToPoint;
    p2p.base_seconds = p2p_base_s_ * shape;
    p2p.demands = stencil_(placement, topo, dims_, 60.0e6 * shape);
    p2p.attribution = {{mon::MpiRoutine::Wait, 0.50},
                       {mon::MpiRoutine::Isend, 0.22},
                       {mon::MpiRoutine::Irecv, 0.20},
                       {mon::MpiRoutine::Other, 0.08}};
    s.phases.push_back(std::move(p2p));

    // CG residual reductions: many small allreduces per trajectory.
    PhaseSpec coll;
    coll.kind = PhaseSpec::Kind::Allreduce;
    coll.base_seconds = coll_base_s_ * shape;
    coll.rounds = 60;
    coll.bytes = 64;
    coll.attribution = {{mon::MpiRoutine::Allreduce, 1.0}};
    s.phases.push_back(std::move(coll));
    return s;
  }

 private:
  AppInfo info_;
  AppCoefficients coeffs_;
  std::array<int, 4> dims_{};
  StencilDemands<4> stencil_;
  double compute_s_ = 0.0, p2p_base_s_ = 0.0, coll_base_s_ = 0.0;
};

}  // namespace

std::unique_ptr<AppModel> make_milc(int nodes) { return std::make_unique<MilcModel>(nodes); }

std::unique_ptr<AppModel> make_milc_long(int nodes, int time_steps) {
  return std::make_unique<MilcModel>(nodes, time_steps);
}

}  // namespace dfv::apps
