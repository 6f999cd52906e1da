// dfv_perfbench — the repository benchmark. One subcommand per workload
// (campaign, analysis, serve) plus `prime`, which generates the campaign
// the analysis and serve workloads read. perfbench/run.py builds this
// binary and drives it; it can also be run by hand:
//
//   dfv_perfbench serve --seed 7 --seconds 10 --trace 1 --trace-out serve.json
//
// The last line of stdout is one JSON object with every metric, the
// digest of the results and the host context.
#include <iostream>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "exec/exec.hpp"
#include "harness.hpp"

namespace {

using namespace dfv;
using perfbench::Options;
using perfbench::Result;

int run(const cli::ParsedArgs& a, Result (*workload)(const Options&), Options opt = {}) {
  const std::string seed = a.get("seed");
  try {
    std::size_t pos = 0;
    opt.seed = std::stoull(seed, &pos);
    if (pos != seed.size()) throw std::invalid_argument(seed);
  } catch (const std::exception&) {
    std::cerr << "dfv_perfbench: --seed expects a non-negative integer, got '" << seed << "'\n";
    return 2;
  }
  opt.seconds = a.get_double("seconds");
  const int trace = a.get_int("trace");
  if (!(opt.seconds > 0.0) || (trace != 0 && trace != 1)) {
    std::cerr << "dfv_perfbench: need --seconds > 0 and --trace 0 or 1\n";
    return 2;
  }
  opt.trace = trace == 1;
  opt.work_dir = a.get("work");
  opt.cache_dir = a.get("cache");
  opt.trace_out = a.get("trace-out");
  (void)exec::configure_threads(0);  // one lane per CPU (or DFV_THREADS)

  try {
    Result r = workload(opt);
    r.metric("error_frac", r.attempted ? double(r.failed) / double(r.attempted) : 1.0,
             "ratio");
    perfbench::print_report(r);
    std::cout << perfbench::to_json(r, opt) << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "dfv_perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::Warn);
  cli::App app("dfv_perfbench", "repository benchmark: campaign, analysis and serve workloads");
  app.common_arg({"seed", cli::ArgType::String, "1", "workload seed (inputs derive from it)"});
  app.common_arg({"seconds", cli::ArgType::Double, "10", "measured time per run"});
  app.common_arg({"trace", cli::ArgType::Int, "0",
                  "1 = add a traced pass and report per-layer metrics"});
  app.common_arg({"work", cli::ArgType::String, ".bench_build/work", "scratch directory"});
  app.common_arg({"cache", cli::ArgType::String, ".bench_build/cache",
                  "primed campaign cache (analysis, serve)"});
  app.common_arg({"trace-out", cli::ArgType::String, "", "Chrome trace-event JSON output"});
  app.command("campaign", "generate and publish Cori campaigns", {},
              [](const cli::ParsedArgs& a) { return run(a, perfbench::run_campaign_workload); });
  app.command("analysis", "blame, deviation and forecast grids on the primed campaign", {},
              [](const cli::ParsedArgs& a) { return run(a, perfbench::run_analysis_workload); });
  app.command("serve", "closed-loop clients against an in-process 2-shard server",
              {{"neighborhood-share", cli::ArgType::Double, "0.04",
                "share of NeighborhoodRequest in the mix (assumed, not measured traffic; "
                "lookups absorb the difference)"}},
              [](const cli::ParsedArgs& a) {
                Options opt;
                opt.neighborhood_share = a.get_double("neighborhood-share");
                if (!(opt.neighborhood_share > 0.0 && opt.neighborhood_share < 0.84)) {
                  std::cerr << "dfv_perfbench: --neighborhood-share must be in (0, 0.84)\n";
                  return 2;
                }
                return run(a, perfbench::run_serve_workload, opt);
              });
  app.command("prime", "generate the paper-sized campaign into the cache", {},
              [](const cli::ParsedArgs& a) { return run(a, perfbench::prime_cache); });
  return app.run(argc, argv);
}
