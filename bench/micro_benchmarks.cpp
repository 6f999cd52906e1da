// google-benchmark microbenchmarks for the substrates: topology path
// construction, adaptive path choice, flow-model transfers, background
// routing, counter synthesis, packet DES throughput, GBR fitting, and
// attention training steps. These quantify the engineering claims in
// DESIGN.md (e.g. "one campaign step in well under a millisecond").
#include <benchmark/benchmark.h>

#include <cmath>
#include <thread>

#include "analysis/forecast.hpp"
#include "analysis/neighborhood.hpp"
#include "api/session.hpp"
#include "apps/registry.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "exec/exec.hpp"
#include "ml/attention.hpp"
#include "ml/compiled.hpp"
#include "ml/gbr.hpp"
#include "ml/rfe.hpp"
#include "mon/counter_model.hpp"
#include "mon/ldms.hpp"
#include "net/flow_model.hpp"
#include "net/packet_sim.hpp"
#include "sched/allocator.hpp"
#include "sim/campaign.hpp"
#include "sim/cluster.hpp"
#include "synthetic.hpp"

namespace {

using namespace dfv;

const net::Topology& cori() {
  static const net::Topology topo(net::DragonflyConfig::cori());
  return topo;
}

void BM_TopologyConstructCori(benchmark::State& state) {
  for (auto _ : state) {
    net::Topology topo(net::DragonflyConfig::cori());
    benchmark::DoNotOptimize(topo.num_links());
  }
}
BENCHMARK(BM_TopologyConstructCori)->Unit(benchmark::kMillisecond);

void BM_MinimalPath(benchmark::State& state) {
  const auto& topo = cori();
  Rng rng(1);
  const int R = topo.config().num_routers();
  for (auto _ : state) {
    const auto src = net::RouterId(rng.uniform_index(R));
    const auto dst = net::RouterId(rng.uniform_index(R));
    benchmark::DoNotOptimize(topo.minimal_path(src, dst, 0));
  }
}
BENCHMARK(BM_MinimalPath);

void BM_UgalChoice(benchmark::State& state) {
  const auto& topo = cori();
  net::PathChooser chooser(topo);
  std::vector<double> load(std::size_t(topo.num_links()), 1e8);
  Rng rng(2);
  const int R = topo.config().num_routers();
  for (auto _ : state) {
    const auto src = net::RouterId(rng.uniform_index(R));
    const auto dst = net::RouterId(rng.uniform_index(R));
    benchmark::DoNotOptimize(
        chooser.choose(src, dst, net::RoutingPolicy::Ugal, load, rng));
  }
}
BENCHMARK(BM_UgalChoice);

void BM_FlowTransferMilcStep(benchmark::State& state) {
  const auto& topo = cori();
  const net::FlowModel flow(topo);
  sched::NodeAllocator alloc(topo);
  Rng rng(3);
  const auto placement =
      sched::make_placement(alloc.allocate(128, sched::AllocPolicy::Clustered, rng), topo);
  const auto milc = apps::make_milc(128);
  const auto spec = milc->step(40, placement, topo, rng);
  net::RateLoads bg;
  bg.resize(topo);
  for (auto _ : state) {
    Rng r(4);
    benchmark::DoNotOptimize(
        flow.transfer(spec.phases[0].demands, net::RoutingPolicy::Ugal, bg, r));
  }
}
BENCHMARK(BM_FlowTransferMilcStep)->Unit(benchmark::kMicrosecond);

void BM_BackgroundRoute512NodeJob(benchmark::State& state) {
  const auto& topo = cori();
  const net::FlowModel flow(topo);
  sched::NodeAllocator alloc(topo);
  Rng rng(5);
  const auto placement =
      sched::make_placement(alloc.allocate(512, sched::AllocPolicy::Clustered, rng), topo);
  sched::TrafficSpec spec;
  spec.net_bytes_per_node_per_s = 1e9;
  const auto demands = sched::generate_background_demands(
      placement, spec, {}, topo, rng);
  for (auto _ : state) {
    net::RateLoads out;
    out.resize(topo);
    Rng r(6);
    flow.route_background(demands, net::RoutingPolicy::Ugal, 1.0, r, out);
    benchmark::DoNotOptimize(out.link_rate.data());
  }
}
BENCHMARK(BM_BackgroundRoute512NodeJob)->Unit(benchmark::kMicrosecond);

void BM_CounterSynthesis128Routers(benchmark::State& state) {
  const auto& topo = cori();
  const mon::CounterModel model(topo);
  net::RateLoads bg;
  bg.resize(topo);
  net::ByteLoads job;
  job.resize(topo);
  std::vector<net::RouterId> routers;
  for (int r = 0; r < 128; ++r) routers.push_back(net::RouterId(r * 3));
  for (auto _ : state)
    benchmark::DoNotOptimize(model.aggregate(routers, bg, job, 7.0));
}
BENCHMARK(BM_CounterSynthesis128Routers)->Unit(benchmark::kMicrosecond);

// One LDMS sample on Cori: the system pass over all 97,818 directed links
// plus the io and job-router counters. Ten 1,024-node background jobs of
// mixed intensity fill most of the machine, as in a campaign, and one
// MILC-128 phase runs beside them, so links sit on both sides of the
// stall knee.
void BM_LdmsSampleCori(benchmark::State& state) {
  const auto& topo = cori();
  const mon::CounterModel model(topo);
  const mon::LdmsSampler sampler(model, mon::make_default_io_routers(topo, 1));
  const net::FlowModel flow(topo);
  sched::NodeAllocator alloc(topo);
  Rng rng(11);
  net::RateLoads bg;
  bg.resize(topo);
  for (int j = 0; j < 10; ++j) {
    const auto place = sched::make_placement(
        alloc.allocate(1024, sched::AllocPolicy::Clustered, rng), topo);
    sched::TrafficSpec traffic;
    traffic.net_bytes_per_node_per_s = 0.25e9 * double(1 + j % 4);
    traffic.io_bytes_per_node_per_s = 0.05e9;
    const auto demands = sched::generate_background_demands(
        place, traffic, sampler.io_routers(), topo, rng);
    flow.route_background(demands, net::RoutingPolicy::Ugal, 1.0, rng, bg);
  }
  const auto job_place =
      sched::make_placement(alloc.allocate(128, sched::AllocPolicy::Clustered, rng), topo);
  const auto spec = apps::make_milc(128)->step(40, job_place, topo, rng);
  net::ByteLoads job;
  job.resize(topo);
  (void)flow.transfer(spec.phases[0].demands, net::RoutingPolicy::Ugal, bg, rng, &job);
  for (auto _ : state)
    benchmark::DoNotOptimize(sampler.sample(bg, job, 2.0, job_place.routers));
}
BENCHMARK(BM_LdmsSampleCori)->Unit(benchmark::kMicrosecond);

void BM_PacketSimUniform(benchmark::State& state) {
  const net::Topology topo(net::DragonflyConfig::small(6));
  for (auto _ : state) {
    net::PacketSimParams params;
    net::PacketSim sim(topo, params, 7);
    benchmark::DoNotOptimize(sim.run_synthetic(net::TrafficPattern::Uniform, 0.2, 50));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * 50 *
                          net::DragonflyConfig::small(6).num_routers());
}
BENCHMARK(BM_PacketSimUniform)->Unit(benchmark::kMillisecond);

void BM_GbrFit(benchmark::State& state) {
  Rng rng(8);
  ml::Matrix x(4000, 13);
  std::vector<double> y(4000);
  for (std::size_t i = 0; i < 4000; ++i) {
    for (std::size_t c = 0; c < 13; ++c) x(i, c) = rng.normal();
    y[i] = x(i, 3) * 2.0 + std::sin(x(i, 7));
  }
  for (auto _ : state) {
    ml::GradientBoostedRegressor gbr;
    gbr.fit(x, y);
    benchmark::DoNotOptimize(gbr.predict_one(x.row(0)));
  }
}
BENCHMARK(BM_GbrFit)->Unit(benchmark::kMillisecond);

void BM_TreeFitNode(benchmark::State& state) {
  // Cost of growing one boosted-depth tree; items = nodes built, so the
  // per-node rate isolates the histogram build + split scan from the
  // fixed binning cost.
  Rng rng(12);
  ml::Matrix x(4000, 13);
  std::vector<double> y(4000);
  std::vector<std::size_t> idx(4000);
  for (std::size_t i = 0; i < 4000; ++i) {
    idx[i] = i;
    for (std::size_t c = 0; c < 13; ++c) x(i, c) = rng.normal();
    y[i] = x(i, 3) * 2.0 + std::sin(x(i, 7)) + 0.1 * rng.normal();
  }
  ml::TreeParams params;
  params.max_depth = 6;
  params.min_samples_leaf = 15;
  std::size_t nodes = 0;
  for (auto _ : state) {
    ml::RegressionTree tree;
    tree.fit(x, y, idx, params);
    nodes += tree.node_count();
    benchmark::DoNotOptimize(tree.predict_one(x.row(0)));
  }
  state.SetItemsProcessed(std::int64_t(nodes));
}
BENCHMARK(BM_TreeFitNode)->Unit(benchmark::kMillisecond);

void BM_GbrFitBinned(benchmark::State& state) {
  // The boosting loop alone on a prebuilt BinnedDataset (the shared
  // bin-once path every RFE stage/fold takes); contrast with BM_GbrFit,
  // which pays the one-time binning inside the loop as well.
  Rng rng(8);
  ml::Matrix x(4000, 13);
  std::vector<double> y(4000);
  std::vector<std::size_t> rows(4000);
  for (std::size_t i = 0; i < 4000; ++i) {
    rows[i] = i;
    for (std::size_t c = 0; c < 13; ++c) x(i, c) = rng.normal();
    y[i] = x(i, 3) * 2.0 + std::sin(x(i, 7));
  }
  const ml::GbrParams params;
  const ml::BinnedDataset binned(x, params.tree.histogram_bins);
  const ml::FeatureMask mask = ml::FeatureMask::all(13);
  for (auto _ : state) {
    ml::GradientBoostedRegressor gbr(params);
    gbr.fit(binned, y, rows, mask);
    benchmark::DoNotOptimize(gbr.predict_binned(binned, 0));
  }
}
BENCHMARK(BM_GbrFitBinned)->Unit(benchmark::kMillisecond);

void BM_RfeCv(benchmark::State& state) {
  // The full deviation-prediction inner loop (RFE + 10-fold CV) at the
  // default `dfv deviation` parameters on a 13-counter design matrix —
  // the dominant compute of fig09/fig11.
  Rng rng(11);
  ml::Matrix x(1200, 13);
  std::vector<double> y(1200), offset(1200, 40.0);
  std::vector<std::size_t> groups(1200);
  for (std::size_t i = 0; i < 1200; ++i) {
    groups[i] = i / 30;  // 40 "runs" of 30 steps
    for (std::size_t c = 0; c < 13; ++c) x(i, c) = rng.normal();
    y[i] = 3.0 * x(i, 2) + std::sin(2.0 * x(i, 5)) + 0.2 * rng.normal();
  }
  ml::RfeParams params;  // defaults below match analysis::DeviationConfig
  params.folds = 10;
  params.gbr.n_trees = 60;
  params.gbr.learning_rate = 0.10;
  params.gbr.subsample = 0.40;
  params.gbr.tree.max_depth = 4;
  params.gbr.tree.min_samples_leaf = 15;
  for (auto _ : state) {
    const auto res = ml::rfe_cv(x, y, params, offset, groups);
    benchmark::DoNotOptimize(res.relevance.data());
  }
}
BENCHMARK(BM_RfeCv)->Unit(benchmark::kMillisecond);

void BM_AttentionEpoch(benchmark::State& state) {
  Rng rng(9);
  const int m = 30, F = 23;
  ml::Matrix x(2000, std::size_t(m * F));
  std::vector<double> y(2000);
  for (std::size_t i = 0; i < 2000; ++i) {
    for (std::size_t c = 0; c < std::size_t(m * F); ++c) x(i, c) = rng.normal();
    y[i] = rng.normal();
  }
  ml::AttentionParams params;
  params.epochs = 1;
  for (auto _ : state) {
    ml::AttentionForecaster model(m, F, params);
    model.fit(x, y);
    benchmark::DoNotOptimize(model.predict_one(x.row(0)));
  }
}
BENCHMARK(BM_AttentionEpoch)->Unit(benchmark::kMillisecond);

// The forecasting-pipeline trio below uses the grid's default training
// configuration (ForecastConfig: d_model=12, d_hidden=16, 30 epochs,
// batch 32) so the recorded numbers track the real fig08/fig10 cost.

const sim::Dataset& forecast_bench_dataset() {
  static const sim::Dataset ds = [] {
    testutil::SyntheticSpec spec;
    spec.runs = 40;
    spec.steps = 30;
    spec.seed = 77;
    return testutil::make_planted_dataset(spec);
  }();
  return ds;
}

void BM_AttentionFit(benchmark::State& state) {
  // One grid cell's worth of training on a realistic window design
  // matrix (m=8, all 23 features) — the dominant kernel of the grid.
  const auto& ds = forecast_bench_dataset();
  analysis::WindowConfig wcfg;
  wcfg.m = 8;
  wcfg.k = 5;
  wcfg.features = analysis::FeatureSet::AppPlacementIoSys;
  const auto wd = analysis::build_windows(ds, wcfg);
  const analysis::ForecastConfig fcfg;
  for (auto _ : state) {
    ml::AttentionForecaster model(wcfg.m, analysis::feature_count(wcfg.features),
                                  fcfg.attention);
    model.fit(wd.x, wd.y);
    benchmark::DoNotOptimize(model.predict_one(wd.x.row(0)));
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(wd.y.size()) * fcfg.attention.epochs);
}
BENCHMARK(BM_AttentionFit)->Unit(benchmark::kMillisecond);

void BM_BuildWindows(benchmark::State& state) {
  // Window-matrix construction across an ablation slice: every feature
  // set at several context lengths, as evaluate_forecast_grid does it.
  const auto& ds = forecast_bench_dataset();
  using analysis::FeatureSet;
  for (auto _ : state) {
    std::size_t windows = 0;
    for (const int m : {2, 4, 8}) {
      for (const FeatureSet fs :
           {FeatureSet::App, FeatureSet::AppPlacement, FeatureSet::AppPlacementIo,
            FeatureSet::AppPlacementIoSys}) {
        analysis::WindowConfig wcfg;
        wcfg.m = m;
        wcfg.k = 5;
        wcfg.features = fs;
        const auto wd = analysis::build_windows(ds, wcfg);
        windows += wd.y.size();
        benchmark::DoNotOptimize(wd.x.data());
      }
    }
    benchmark::DoNotOptimize(windows);
  }
}
BENCHMARK(BM_BuildWindows)->Unit(benchmark::kMillisecond);

void BM_NeighborhoodQuery(benchmark::State& state) {
  // One Table III blame query against a prebuilt per-dataset index, as
  // a serve shard answers a NeighborhoodRequest: the optimality vector,
  // each user's 2x2 counts and MI, and the ranking.
  testutil::SyntheticSpec spec;
  spec.runs = 180;
  spec.bystander_users = 40;
  spec.seed = 31;
  const analysis::NeighborhoodIndex index(testutil::make_planted_dataset(spec));
  for (auto _ : state) benchmark::DoNotOptimize(index.query(1.0).ranked.data());
}
BENCHMARK(BM_NeighborhoodQuery)->Unit(benchmark::kMicrosecond);

void BM_ForecastGrid(benchmark::State& state) {
  // A small fig-8-shaped ablation grid end to end (CV folds included):
  // the unit of work this PR's fast path is judged on.
  const auto& ds = forecast_bench_dataset();
  using analysis::FeatureSet;
  std::vector<analysis::WindowConfig> cells;
  for (const int m : {2, 8})
    for (const int k : {1, 5})
      for (const FeatureSet fs : {FeatureSet::App, FeatureSet::AppPlacementIoSys})
        cells.push_back({m, k, fs});
  analysis::ForecastConfig fcfg;
  fcfg.folds = 3;
  for (auto _ : state) {
    const auto grid = analysis::evaluate_forecast_grid(ds, cells, fcfg);
    benchmark::DoNotOptimize(grid.data());
  }
}
BENCHMARK(BM_ForecastGrid)->Unit(benchmark::kMillisecond);

// ---- compiled inference (ROADMAP item 3) ----------------------------------
//
// The serve-side budget: >= 100k deviation predictions/sec/core and
// sub-millisecond single-forecast latency. These benches measure the
// CompiledGbr/CompiledAttention fast path on the same model shapes the
// deviation and forecast pipelines serve; scripts/bench.sh ml-predict
// records them in BENCH_ml.json.

/// Fitted GBR at the deviation-pipeline shape (fit once; the benches
/// below measure inference only).
class GbrPredictBench {
 public:
  GbrPredictBench()
      : x(make_design(y)), binned(x, params.tree.histogram_bins), gbr(params) {
    rows.resize(x.rows());
    for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
    gbr.fit(binned, y, rows, ml::FeatureMask::all(x.cols()));
  }

  std::vector<double> y;  ///< filled by make_design (declared before x)
  ml::Matrix x;
  std::vector<std::size_t> rows;
  ml::GbrParams params;
  ml::BinnedDataset binned;
  ml::GradientBoostedRegressor gbr;

 private:
  static ml::Matrix make_design(std::vector<double>& y_out) {
    Rng rng(8);
    ml::Matrix m(4000, 13);
    y_out.resize(4000);
    for (std::size_t i = 0; i < 4000; ++i) {
      for (std::size_t c = 0; c < 13; ++c) m(i, c) = rng.normal();
      y_out[i] = m(i, 3) * 2.0 + std::sin(m(i, 7));
    }
    return m;
  }
};

const GbrPredictBench& gbr_predict_bench() {
  static const GbrPredictBench b;
  return b;
}

void BM_GbrPredictOne(benchmark::State& state) {
  const GbrPredictBench& b = gbr_predict_bench();
  const ml::CompiledGbr compiled = b.gbr.compile();
  std::size_t r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiled.predict_one(b.x.row(r)));
    r = r + 1 == b.x.rows() ? 0 : r + 1;
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_GbrPredictOne)->Unit(benchmark::kMicrosecond);

void BM_GbrPredictMany(benchmark::State& state) {
  // The RFE/deviation batch shape: every row of the binned view in one
  // predict_many call (items/sec is the headline predictions-per-second
  // number).
  const GbrPredictBench& b = gbr_predict_bench();
  const ml::CompiledGbr compiled = b.gbr.compile();
  for (auto _ : state) {
    const std::vector<double> out = compiled.predict_many(b.binned, b.rows);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(b.rows.size()));
}
BENCHMARK(BM_GbrPredictMany)->Unit(benchmark::kMicrosecond);

/// Fitted attention forecaster at the fig08 grid shape (m=8, all 23
/// features), compiled once.
struct AttnPredictBench {
  analysis::WindowData wd;
  ml::AttentionForecaster model;
  ml::CompiledAttention compiled;

  AttnPredictBench(analysis::WindowData w, ml::AttentionForecaster mod)
      : wd(std::move(w)), model(std::move(mod)), compiled(model.compile()) {}
};

const AttnPredictBench& attn_predict_bench() {
  static const AttnPredictBench* b = [] {
    const auto& ds = forecast_bench_dataset();
    analysis::WindowConfig wcfg;
    wcfg.m = 8;
    wcfg.k = 5;
    wcfg.features = analysis::FeatureSet::AppPlacementIoSys;
    analysis::WindowData wd = analysis::build_windows(ds, wcfg);
    const analysis::ForecastConfig fcfg;
    ml::AttentionForecaster model(wcfg.m, analysis::feature_count(wcfg.features),
                                  fcfg.attention);
    model.fit(wd.x, wd.y);
    return new AttnPredictBench(std::move(wd), std::move(model));
  }();
  return *b;
}

void BM_AttentionPredictOne(benchmark::State& state) {
  // The serve ForecastRequest inner call: one window through the
  // pre-packed forward pass with a resident scratch arena.
  const AttnPredictBench& b = attn_predict_bench();
  ml::CompiledAttention::Scratch ws;
  std::size_t r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.compiled.predict_one(b.wd.x.row(r), ws));
    r = r + 1 == b.wd.x.rows() ? 0 : r + 1;
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_AttentionPredictOne)->Unit(benchmark::kMicrosecond);

void BM_AttentionPredictMany(benchmark::State& state) {
  // The forecast-eval batch shape: every window of the dataset in one
  // slab-batched predict_many call.
  const AttnPredictBench& b = attn_predict_bench();
  const auto ptrs = ml::row_pointers(b.wd.x);
  const ml::RowBatch rb{ptrs, 1, b.wd.x.cols(), b.wd.x.cols()};
  for (auto _ : state) {
    const std::vector<double> out = b.compiled.predict_many(rb);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(b.wd.x.rows()));
}
BENCHMARK(BM_AttentionPredictMany)->Unit(benchmark::kMicrosecond);

api::Session& forecast_bench_session() {
  // The serve shard shape: one resident campaign + pinned forecaster;
  // the first request pays campaign generation and model training, so
  // build (and warm) outside the timed loop.
  static api::Session* session = [] {
    set_log_level(LogLevel::Warn);
    api::SessionOptions opt;
    sim::CampaignConfig cfg = sim::CampaignConfig::small(2026);
    cfg.days = 8;
    cfg.datasets = {{"MILC", 128}};
    opt.config = cfg;
    auto* s = new api::Session(std::move(opt));
    const api::Response warm = s->handle(api::ForecastRequest{}.center(10).m(10).k(20));
    DFV_CHECK(!std::holds_alternative<api::ErrorResponse>(warm));
    return s;
  }();
  return *session;
}

void BM_ForecastOne(benchmark::State& state) {
  // End-to-end Session::handle(ForecastRequest) — the dfv serve hot path
  // minus the socket: cache lookups, window gather, compiled predict,
  // persistence baseline.
  api::Session& session = forecast_bench_session();
  std::uint64_t i = 0;
  for (auto _ : state) {
    const api::Response resp = session.handle(api::ForecastRequest{}
                                                  .run(std::uint32_t(i % 8))
                                                  .center(10 + int(i % 20))
                                                  .m(10)
                                                  .k(20));
    benchmark::DoNotOptimize(&resp);
    ++i;
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_ForecastOne)->Unit(benchmark::kMicrosecond);

void BM_ClusterMilcStep(benchmark::State& state) {
  // One full instrumented MILC-128 run on a loaded Cori: the unit of
  // campaign generation (~80 steps per iteration here).
  for (auto _ : state) {
    state.PauseTiming();
    sim::Cluster cluster(net::DragonflyConfig::cori(), {},
                         sched::default_user_population(24), 10);
    cluster.slurm().advance_to(86400.0);
    const auto milc = apps::make_milc(128);
    state.ResumeTiming();
    benchmark::DoNotOptimize(cluster.run_app(*milc));
  }
}
BENCHMARK(BM_ClusterMilcStep)->Unit(benchmark::kMillisecond)->Iterations(3);

// parallel_scaling: the same work at different dfv::exec pool widths.
// Output is bit-identical for every width (the determinism contract);
// only wall-clock changes. The `hw_cores` counter names the machine's
// concurrency so speedups are read against what the hardware can give —
// widths past hw_cores measure oversubscription overhead, not speedup.

void BM_ParallelScalingCampaign(benchmark::State& state) {
  set_log_level(LogLevel::Warn);
  exec::ThreadPool::instance().resize(int(state.range(0)));
  const sim::CampaignConfig cfg = sim::CampaignConfig::small_machine(42)
                                      .days(2)
                                      .dataset("MILC", 128)
                                      .build();
  for (auto _ : state) benchmark::DoNotOptimize(sim::run_campaign(cfg));
  state.counters["threads"] = double(state.range(0));
  state.counters["hw_cores"] = double(std::thread::hardware_concurrency());
  exec::ThreadPool::instance().resize(exec::resolve_threads());
}
BENCHMARK(BM_ParallelScalingCampaign)
    ->Name("parallel_scaling/campaign")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_ParallelScalingBackgroundRoute(benchmark::State& state) {
  exec::ThreadPool::instance().resize(int(state.range(0)));
  const auto& topo = cori();
  const net::FlowModel flow(topo);
  sched::NodeAllocator alloc(topo);
  Rng rng(5);
  const auto placement =
      sched::make_placement(alloc.allocate(512, sched::AllocPolicy::Clustered, rng), topo);
  sched::TrafficSpec spec;
  spec.net_bytes_per_node_per_s = 1e9;
  const auto demands = sched::generate_background_demands(placement, spec, {}, topo, rng);
  for (auto _ : state) {
    net::RateLoads out;
    out.resize(topo);
    Rng r(6);
    flow.route_background(demands, net::RoutingPolicy::Ugal, 1.0, r, out);
    benchmark::DoNotOptimize(out.link_rate.data());
  }
  state.counters["threads"] = double(state.range(0));
  state.counters["hw_cores"] = double(std::thread::hardware_concurrency());
  exec::ThreadPool::instance().resize(exec::resolve_threads());
}
BENCHMARK(BM_ParallelScalingBackgroundRoute)
    ->Name("parallel_scaling/background_route")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
