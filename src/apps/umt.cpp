// UMT: discrete-ordinates (Sn) deterministic radiation transport over a
// 3-D unstructured mesh (custom_8k.cmg 4 2 4 4 4 0.04 input).
//
// Characterization targets (§III-B, Fig. 5): only ~30% of time in MPI —
// the smallest communication fraction of the four codes — yet among the
// highest variability (slowest run 3.3x the best); dominant routines
// Allreduce, Barrier, Wait. Deviation driver (Fig. 9): endpoint request
// stalls (PT_RB_STL_RQ): 64 ranks per node hammer the NIC with sweep
// wavefront messages, so processor-tile back-pressure stretches the
// tightly synchronized sweep.
#include <cmath>

#include "apps/app_model.hpp"
#include "apps/comm_patterns.hpp"
#include "common/check.hpp"

namespace dfv::apps {

namespace {

class UmtModel final : public AppModel {
 public:
  explicit UmtModel(int nodes) {
    DFV_CHECK_MSG(nodes == 128, "the UMT dataset uses 128 nodes");
    info_.name = "UMT";
    info_.version = "2.0";
    info_.nodes = nodes;
    info_.input_params = "custom_8k.cmg 4 2 4 4 4 0.04";
    info_.time_steps = 7;
    coeffs_ = {/*pt=*/4.2, /*rt=*/0.35, /*coll=*/0.9};
    dims_ = factor3(nodes);
  }

  [[nodiscard]] const AppInfo& info() const override { return info_; }
  [[nodiscard]] const AppCoefficients& coefficients() const override { return coeffs_; }

  [[nodiscard]] StepSpec step(int step_idx, const sched::Placement& placement,
                              const net::Topology& topo, Rng& rng) const override {
    DFV_CHECK(step_idx >= 0 && step_idx < info_.time_steps);
    // Transport iterations deepen as the radiation field develops
    // (Fig. 3 right, rising curve).
    static constexpr double kShape[7] = {0.62, 0.78, 0.90, 1.00, 1.08, 1.15, 1.20};
    const double shape = kShape[step_idx];

    StepSpec s;
    s.compute_s = 110.0 * shape * (1.0 + 0.012 * rng.normal());

    // Sweep wavefront: small/medium downwind face messages, strictly
    // pipelined, so the phase is latency- and endpoint-bound.
    PhaseSpec sweep;
    sweep.kind = PhaseSpec::Kind::PointToPoint;
    sweep.base_seconds = 26.0 * shape;
    sweep.demands = stencil_(placement, topo, dims_, 1.5e6 * shape);
    sweep.attribution = {{mon::MpiRoutine::Wait, 0.78}, {mon::MpiRoutine::Other, 0.22}};
    s.phases.push_back(std::move(sweep));

    // Flux convergence reductions per sweep ordinate set.
    PhaseSpec coll;
    coll.kind = PhaseSpec::Kind::Allreduce;
    coll.base_seconds = 9.0 * shape;
    coll.rounds = 16;
    coll.bytes = 512;
    coll.attribution = {{mon::MpiRoutine::Allreduce, 1.0}};
    s.phases.push_back(std::move(coll));

    // Synchronization barrier between angle sets.
    PhaseSpec bar;
    bar.kind = PhaseSpec::Kind::Barrier;
    bar.base_seconds = 6.0 * shape;
    bar.rounds = 16;
    bar.attribution = {{mon::MpiRoutine::Barrier, 1.0}};
    s.phases.push_back(std::move(bar));
    return s;
  }

 private:
  AppInfo info_;
  AppCoefficients coeffs_;
  std::array<int, 3> dims_{};
  StencilDemands<3> stencil_;
};

}  // namespace

std::unique_ptr<AppModel> make_umt(int nodes) { return std::make_unique<UmtModel>(nodes); }

}  // namespace dfv::apps
