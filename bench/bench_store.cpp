// Campaign-cache benchmark: simulate one campaign, publish it both as a
// campaign-store entry and as dataset CSVs, then time
//
//   publish    save_campaign_store into a fresh directory (median of 5):
//              every dataset file written and synced, then META
//   cold open  mmap pin of the committed campaign-store entry (META parse
//              and mappings only)
//   load       the pin plus load_all: every column verified against its
//              CRC and every dataset materialized (median of 9), against a
//              full CSV deserialize of the same campaign
//
//   bench_store [--campaign-days D] [--dir PATH] [--json PATH]
//
// scripts/bench.sh store merges the JSON into BENCH_store.json.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/log.hpp"
#include "sim/campaign.hpp"
#include "sim/campaign_store.hpp"
#include "sim/dataset.hpp"

namespace {

using namespace dfv;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

struct Options {
  int campaign_days = 120;
  std::string dir = std::string(DFV_DEFAULT_CACHE_DIR) + "/bench_store";
  std::string json_path;
};

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
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

  // One simulated campaign, published both ways; the store entry must
  // load many times faster than the CSV blobs deserialize.
  sim::CampaignConfig cfg = sim::CampaignConfig::small(2026);
  cfg.days = opt.campaign_days;
  cfg.datasets = {{"MILC", 128}, {"UMT", 128}};

  auto t0 = Clock::now();
  const sim::CampaignResult result = sim::run_campaign(cfg);
  const double build_s = secs_since(t0);
  std::size_t campaign_runs = 0;
  for (const auto& ds : result.datasets) campaign_runs += ds.runs.size();

  // Each publish goes to a directory of its own, so none pays for
  // clearing the last; the first is the entry the cold opens read.
  constexpr int kPublishReps = 5;
  std::vector<double> publish_ms;
  for (int i = 0; i < kPublishReps; ++i) {
    t0 = Clock::now();
    DFV_CHECK(sim::save_campaign_store(result, opt.dir + "/publish-" + std::to_string(i)));
    publish_ms.push_back(secs_since(t0) * 1e3);
  }
  std::nth_element(publish_ms.begin(), publish_ms.begin() + kPublishReps / 2, publish_ms.end());

  const std::string store_dir = opt.dir + "/publish-0";
  const std::string csv_dir = opt.dir + "/campaign.csv";
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

  // Equal work to a CSV deserialize: every column verified, every
  // dataset materialized.
  constexpr int kLoadReps = 9;
  std::vector<double> load_ms;
  for (int i = 0; i < kLoadReps; ++i) {
    t0 = Clock::now();
    const sim::CampaignResult loaded = sim::CampaignStorePin::open(store_dir).load_all();
    load_ms.push_back(secs_since(t0) * 1e3);
    std::size_t rows = 0;
    for (const auto& ds : loaded.datasets) rows += ds.runs.size();
    DFV_CHECK(rows == campaign_runs);
  }
  std::nth_element(load_ms.begin(), load_ms.begin() + kLoadReps / 2, load_ms.end());
  const double load_median_ms = load_ms[kLoadReps / 2];

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
  put("publish_ms", publish_ms[kPublishReps / 2]);
  put("cold_open_store_ms", store_ms);
  put("load_ms", load_median_ms);
  put("cold_open_csv_ms", csv_ms);
  put("cold_open_speedup", csv_ms / load_median_ms);
  std::cout << "publish: " << publish_ms[kPublishReps / 2] << " ms (median of "
            << kPublishReps << ")\n";
  std::cout << "cold open: store pin " << store_ms << " ms\n";
  std::cout << "load: store pin + load_all " << load_median_ms << " ms (median of " << kLoadReps
            << ") vs CSV deserialize " << csv_ms << " ms (" << csv_ms / load_median_ms << "x, "
            << campaign_runs << " runs)\n";

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
  cli::App app("bench_store", "campaign-cache publish and cold-open benchmark");
  app.command("", "time a campaign-store publish, its pin, and its load against a CSV deserialize",
              {{"campaign-days", cli::ArgType::Int, "120", "days of the cold-open campaign"},
               {"dir", cli::ArgType::String, Options{}.dir, "scratch directory (wiped)"},
               {"json", cli::ArgType::String, "", "also write the metrics as JSON here"}},
              [](const cli::ParsedArgs& a) {
                Options opt;
                opt.campaign_days = a.get_int("campaign-days");
                opt.dir = a.get("dir");
                opt.json_path = a.get("json");
                if (opt.campaign_days < 1) {
                  std::cerr << "bench_store: need --campaign-days >= 1\n";
                  return 2;
                }
                return run_bench(opt);
              });
  try {
    return app.run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_store: " << e.what() << "\n";
    return 1;
  }
}
