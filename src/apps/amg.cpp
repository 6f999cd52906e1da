// AMG: parallel algebraic multigrid solver (Hypre BoomerAMG proxy) in a
// time-dependent AMG-GMRES loop on a 3-D problem, 32x32x32 per rank.
//
// Characterization targets (§III-B, Figs. 3-4): 20 time steps; ~76% of
// time in MPI at 128 nodes, ~82% at 512; a large number of small
// messages; dominant routines Iprobe, Test, Testall, Waitall, Allreduce.
// Deviation drivers (Fig. 9): endpoint request stalls and row-bus 2x
// usage (PT_RB_STL_RQ, PT_RB_2X_USG), plus transit stalls (RT_RB_STL)
// at 512 nodes where the job spreads over more groups.
#include <cmath>

#include "apps/app_model.hpp"
#include "apps/comm_patterns.hpp"
#include "common/check.hpp"

namespace dfv::apps {

namespace {

class AmgModel final : public AppModel {
 public:
  explicit AmgModel(int nodes) {
    DFV_CHECK_MSG(nodes == 128 || nodes == 512, "AMG datasets use 128 or 512 nodes");
    info_.name = "AMG";
    info_.version = "1.1";
    info_.nodes = nodes;
    info_.input_params = nodes == 128 ? "-P 32 16 16 -n 32 32 32 -problem 2"
                                      : "-P 32 32 32 -n 32 32 32 -problem 2";
    info_.time_steps = 20;
    if (nodes == 128) {
      compute_s_ = 6.3;
      p2p_base_s_ = 14.0;
      coll_base_s_ = 6.0;
      coeffs_ = {/*pt=*/1.2, /*rt=*/0.35, /*coll=*/0.6};
    } else {
      compute_s_ = 8.0;
      p2p_base_s_ = 25.0;
      coll_base_s_ = 12.0;
      // At 512 nodes the job spans more groups: transit congestion joins
      // endpoint congestion as a deviation driver.
      coeffs_ = {/*pt=*/0.45, /*rt=*/0.45, /*coll=*/0.4};
    }
    dims_ = factor3(nodes);
  }

  [[nodiscard]] const AppInfo& info() const override { return info_; }
  [[nodiscard]] const AppCoefficients& coefficients() const override { return coeffs_; }

  [[nodiscard]] StepSpec step(int step_idx, const sched::Placement& placement,
                              const net::Topology& topo, Rng& rng) const override {
    DFV_CHECK(step_idx >= 0 && step_idx < info_.time_steps);
    // Mild per-step structure (Fig. 3 left): nearly flat with a gentle
    // wiggle from the GMRES restart cadence.
    const double shape =
        1.0 + 0.12 * std::sin(0.7 * double(step_idx)) + 0.006 * double(step_idx);

    StepSpec s;
    s.compute_s = compute_s_ * shape * (1.0 + 0.015 * rng.normal());

    // V-cycle halo exchanges: many small messages, aggregated per node
    // face. Volume scales with the step's work so that mean counter
    // trends mirror the mean time-per-step trend (Fig. 7).
    PhaseSpec p2p;
    p2p.kind = PhaseSpec::Kind::PointToPoint;
    p2p.base_seconds = p2p_base_s_ * shape;
    p2p.demands = stencil_(placement, topo, dims_, 2.0e6 * shape);
    p2p.attribution = {{mon::MpiRoutine::Waitall, 0.33},
                       {mon::MpiRoutine::Iprobe, 0.27},
                       {mon::MpiRoutine::Test, 0.20},
                       {mon::MpiRoutine::Testall, 0.13},
                       {mon::MpiRoutine::Other, 0.07}};
    s.phases.push_back(std::move(p2p));

    // GMRES dot products: ~40 small allreduces per step.
    PhaseSpec coll;
    coll.kind = PhaseSpec::Kind::Allreduce;
    coll.base_seconds = coll_base_s_ * shape;
    coll.rounds = 40;
    coll.bytes = 1024;
    coll.attribution = {{mon::MpiRoutine::Allreduce, 1.0}};
    s.phases.push_back(std::move(coll));
    return s;
  }

 private:
  AppInfo info_;
  AppCoefficients coeffs_;
  std::array<int, 3> dims_{};
  StencilDemands<3> stencil_;
  double compute_s_ = 0.0, p2p_base_s_ = 0.0, coll_base_s_ = 0.0;
};

}  // namespace

std::unique_ptr<AppModel> make_amg(int nodes) { return std::make_unique<AmgModel>(nodes); }

}  // namespace dfv::apps
