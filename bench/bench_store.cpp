// Out-of-core column-store benchmark: generate an N-run longitudinal
// campaign straight into a `dfv::store` directory, then measure the
// properties the store exists for —
//
//   append     rows/s and MB/s through the chunked append + publish path
//   cold open  mmap pin of a committed campaign-store entry vs a full
//              CSV deserialize of the same campaign (the >= 100x claim)
//   ooc train  TrainingView build + GBR fit + RFE over the mmap'd bin
//              codes, with peak RSS read from VmHWM — the resident set
//              must stay a small fraction of the on-disk dataset
//   in-RAM     the same GBR fit over a materialized Matrix (run last so
//              its resident set cannot pollute the out-of-core number),
//              plus a bit-identity check between the two models
//
//   bench_store [--runs N] [--campaign-days D] [--dir PATH] [--json PATH]
//
// Peak-RSS isolation uses /proc/self/clear_refs ("5" resets VmHWM); when
// the kernel refuses the write the numbers are still reported but are
// high-water marks over the whole process, and rss_reset_ok says so.
// scripts/bench.sh store merges the JSON into BENCH_store.json.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/log.hpp"
#include "ml/gbr.hpp"
#include "ml/rfe.hpp"
#include "sim/campaign.hpp"
#include "sim/campaign_store.hpp"
#include "sim/dataset.hpp"
#include "store/column_store.hpp"
#include "store/longitudinal.hpp"
#include "store/training_view.hpp"

namespace {

using namespace dfv;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

struct Options {
  std::uint64_t runs = 1'000'000;
  int campaign_days = 120;
  std::string dir = std::string(DFV_DEFAULT_CACHE_DIR) + "/bench_store";
  std::string json_path;
};

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Peak resident set (VmHWM) in MB from /proc/self/status.
double vm_hwm_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

/// Reset the peak-RSS counter so each phase gets its own high-water mark.
/// Freed-but-retained heap pages from earlier phases would survive the
/// reset (the counter restarts at *current* RSS), so hand them back to
/// the kernel first.
bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5\n";
  return out.good();
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir))
    if (e.is_regular_file()) total += e.file_size();
  return total;
}

std::string json_number(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

int run_bench(const Options& opt) {
  std::vector<std::pair<std::string, double>> metrics;
  const auto put = [&](const std::string& name, double v) {
    metrics.emplace_back(name, v);
  };

  fs::remove_all(opt.dir);
  fs::create_directories(opt.dir);
  const std::string long_dir = opt.dir + "/longitudinal.store";

  // --- Phase 1: append throughput (generation + chunked appends +
  // publish, the `dfv campaign --append` write path end to end).
  store::LongitudinalSpec spec;
  {
    store::ColumnStore cs = store::open_longitudinal_store(long_dir);
    const auto t0 = Clock::now();
    store::append_longitudinal_runs(cs, spec, 0, opt.runs);
    const double append_s = secs_since(t0);
    DFV_CHECK(cs.rows() == opt.runs);

    const double disk_mb = double(dir_bytes(long_dir)) / (1024.0 * 1024.0);
    put("runs", double(opt.runs));
    put("features", double(store::longitudinal_features().size()));
    put("dataset_disk_mb", disk_mb);
    put("append_s", append_s);
    put("append_runs_per_sec", double(opt.runs) / append_s);
    put("append_mb_per_sec", disk_mb / append_s);
    std::cout << "append: " << opt.runs << " runs in " << append_s << " s ("
              << std::uint64_t(double(opt.runs) / append_s) << " runs/s, " << disk_mb
              << " MB on disk)\n";
  }
  const double dataset_mb = metrics[2].second;

  // --- Phase 2: longitudinal cold open (pin = MANIFEST parse + mmap;
  // no row materialization, so this must not scale with row count).
  {
    constexpr int kReps = 20;
    const auto t0 = Clock::now();
    for (int i = 0; i < kReps; ++i) {
      const auto pin = store::ColumnStore::open_pin(long_dir);
      DFV_CHECK(pin->rows() == opt.runs);
    }
    const double pin_ms = secs_since(t0) * 1e3 / kReps;
    put("pin_open_ms", pin_ms);
    std::cout << "pin open: " << pin_ms << " ms (" << dataset_mb << " MB store)\n";
  }

  // --- Phase 3: out-of-core training over the mmap'd bin codes. Peak
  // RSS is reset first so the number reflects this phase alone.
  const bool rss_reset_ok = reset_peak_rss();
  ml::GradientBoostedRegressor ooc_gbr;  // default GbrParams: the paper config
  {
    const auto pin = store::ColumnStore::open_pin(long_dir);

    store::TrainingSpec tspec;
    tspec.features = store::longitudinal_features();
    tspec.target = store::longitudinal_target();

    // The GBR and RFE stages run in their own scopes so each maps only
    // the codes it trains on: peak RSS is the max working set of any
    // one stage, not the sum of every view held at once.
    double view_s = 0.0, gbr_s = 0.0, rfe_s = 0.0;
    {
      auto t0 = Clock::now();
      const store::TrainingView view = store::TrainingView::build(pin, tspec);
      view_s = secs_since(t0);

      t0 = Clock::now();
      ooc_gbr.fit(view.binned(), view.y(), ml::FeatureMask::all(view.features()));
      gbr_s = secs_since(t0);
    }
    // Hand the boosting stage's freed heap back to the kernel so RFE's
    // allocations reuse address space instead of stacking on top of it;
    // otherwise the phase peak reads as the *sum* of both stages.
    malloc_trim(0);

    // RFE over a 12-feature slice: elimination is quadratic in feature
    // count, so the full 41-feature sweep is a study, not a benchmark.
    store::TrainingSpec rspec = tspec;
    rspec.features.resize(12);
    {
      const auto t0 = Clock::now();
      const store::TrainingView rview = store::TrainingView::build(pin, rspec);
      ml::RfeParams rparams;
      rparams.folds = 2;
      rparams.gbr.n_trees = 12;
      rparams.with_linear_baseline = false;  // needs source(); off out-of-core
      const ml::RfeResult rfe = ml::rfe_cv(rview.binned(), rview.y(), rparams);
      rfe_s = secs_since(t0);
      DFV_CHECK(rfe.relevance.size() == rspec.features.size());
    }

    const double rss_mb = vm_hwm_mb();
    put("view_build_s", view_s);
    put("ooc_gbr_fit_s", gbr_s);
    put("ooc_rfe_s", rfe_s);
    put("ooc_peak_rss_mb", rss_mb);
    put("ooc_rss_pct_of_disk", 100.0 * rss_mb / dataset_mb);
    put("rss_reset_ok", rss_reset_ok ? 1.0 : 0.0);
    std::cout << "ooc: view " << view_s << " s, gbr fit " << gbr_s << " s, rfe "
              << rfe_s << " s, peak RSS " << rss_mb << " MB ("
              << 100.0 * rss_mb / dataset_mb << "% of dataset"
              << (rss_reset_ok ? "" : "; clear_refs unavailable, whole-process HWM")
              << ")\n";
  }

  // --- Phase 4: in-RAM baseline, run last. Materialize the Matrix, fit
  // the same GBR the convenience way, and require bit-identity.
  {
    if (rss_reset_ok) DFV_CHECK(reset_peak_rss());
    const auto pin = store::ColumnStore::open_pin(long_dir);
    const std::vector<std::string> features = store::longitudinal_features();

    auto t0 = Clock::now();
    ml::Matrix x(pin->rows(), features.size());
    for (std::size_t f = 0; f < features.size(); ++f) {
      const auto col = pin->f64(features[f]);
      for (std::size_t r = 0; r < col.size(); ++r) x(r, f) = col[r];
    }
    const auto y = pin->f64(store::longitudinal_target());
    const double load_s = secs_since(t0);

    t0 = Clock::now();
    ml::GradientBoostedRegressor in_ram;
    in_ram.fit(x, y);
    const double fit_s = secs_since(t0);
    const double rss_mb = vm_hwm_mb();

    bool identical = in_ram.tree_count() == ooc_gbr.tree_count();
    const std::size_t stride = std::max<std::size_t>(1, pin->rows() / 512);
    for (std::size_t r = 0; identical && r < pin->rows(); r += stride)
      identical = in_ram.predict_one(x.row(r)) == ooc_gbr.predict_one(x.row(r));
    const auto imp_a = in_ram.feature_importances();
    const auto imp_b = ooc_gbr.feature_importances();
    for (std::size_t f = 0; identical && f < imp_a.size(); ++f)
      identical = imp_a[f] == imp_b[f];

    put("inram_load_s", load_s);
    put("inram_gbr_fit_s", fit_s);
    put("inram_peak_rss_mb", rss_mb);
    put("gbr_bit_identical", identical ? 1.0 : 0.0);
    std::cout << "in-RAM: load " << load_s << " s, gbr fit " << fit_s
              << " s, peak RSS " << rss_mb << " MB, bit-identical: "
              << (identical ? "yes" : "NO") << "\n";
    DFV_CHECK_MSG(identical, "bench_store: out-of-core GBR diverged from in-RAM");
  }

  // --- Phase 5: campaign cold open. One simulated campaign, published
  // both ways; the store entry must pin orders of magnitude faster than
  // the CSV blobs deserialize.
  {
    sim::CampaignConfig cfg = sim::CampaignConfig::small(2026);
    cfg.days = opt.campaign_days;
    cfg.datasets = {{"MILC", 128}, {"UMT", 128}};

    auto t0 = Clock::now();
    const sim::CampaignResult result = sim::run_campaign(cfg);
    const double build_s = secs_since(t0);
    std::size_t campaign_runs = 0;
    for (const auto& ds : result.datasets) campaign_runs += ds.runs.size();

    const std::string store_dir = opt.dir + "/campaign.store";
    const std::string csv_dir = opt.dir + "/campaign.csv";
    DFV_CHECK(sim::save_campaign_store(result, store_dir));
    fs::create_directories(csv_dir);
    std::vector<std::string> csv_paths;
    for (std::size_t i = 0; i < result.datasets.size(); ++i) {
      csv_paths.push_back(csv_dir + "/dataset_" + std::to_string(i) + ".csv");
      DFV_CHECK(sim::save_dataset(result.datasets[i], csv_paths.back()));
    }

    constexpr int kOpenReps = 25;
    t0 = Clock::now();
    for (int i = 0; i < kOpenReps; ++i) {
      const auto pin = sim::CampaignStorePin::open(store_dir);
      DFV_CHECK(pin.num_datasets() == result.datasets.size());
    }
    const double store_ms = secs_since(t0) * 1e3 / kOpenReps;

    double csv_ms = 0.0;
    for (int rep = 0; rep < 2; ++rep) {  // min of two: first read warms the cache
      t0 = Clock::now();
      std::size_t rows = 0;
      for (const std::string& p : csv_paths)
        rows += sim::load_dataset(p, /*require_checksum=*/true).runs.size();
      const double ms = secs_since(t0) * 1e3;
      DFV_CHECK(rows == campaign_runs);
      csv_ms = rep == 0 ? ms : std::min(csv_ms, ms);
    }

    put("campaign_runs", double(campaign_runs));
    put("campaign_build_s", build_s);
    put("cold_open_store_ms", store_ms);
    put("cold_open_csv_ms", csv_ms);
    put("cold_open_speedup", csv_ms / store_ms);
    std::cout << "cold open: store pin " << store_ms << " ms vs CSV deserialize "
              << csv_ms << " ms (" << csv_ms / store_ms << "x, " << campaign_runs
              << " runs)\n";
  }

  if (!opt.json_path.empty()) {
    std::ofstream out(opt.json_path);
    DFV_CHECK_MSG(out.good(), "bench_store: cannot open " << opt.json_path);
    out << "{";
    for (std::size_t i = 0; i < metrics.size(); ++i)
      out << (i ? ",\n  " : "\n  ") << '"' << metrics[i].first
          << "\": " << json_number(metrics[i].second);
    out << "\n}\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::Warn);
  cli::App app("bench_store", "out-of-core column-store benchmark");
  app.command("", "run the append, cold-open, out-of-core and in-RAM training phases",
              {{"runs", cli::ArgType::Int, "1000000", "runs in the longitudinal store"},
               {"campaign-days", cli::ArgType::Int, "120", "days of the cold-open campaign"},
               {"dir", cli::ArgType::String, Options{}.dir, "scratch directory (wiped)"},
               {"json", cli::ArgType::String, "", "also write the metrics as JSON here"}},
              [](const cli::ParsedArgs& a) {
                const int runs = a.get_int("runs");
                Options opt;
                opt.campaign_days = a.get_int("campaign-days");
                opt.dir = a.get("dir");
                opt.json_path = a.get("json");
                if (runs < 1024 || opt.campaign_days < 1) {
                  std::cerr << "bench_store: need --runs >= 1024 and --campaign-days >= 1\n";
                  return 2;
                }
                opt.runs = std::uint64_t(runs);
                return run_bench(opt);
              });
  try {
    return app.run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_store: " << e.what() << "\n";
    return 1;
  }
}
