// memtier-style load generator for `dfv serve`: start an in-process
// sharded server, hammer it with closed-loop client threads over real
// local sockets, and report aggregate QPS plus p50/p99/p999 latency for
// the two serving hot paths (run lookup and point forecast), for the
// Table III neighborhood query, then for lookups through a
// fault-injecting proxy. The direct phases connect over the server's
// AF_UNIX name, as every serve::Client does; the proxy speaks TCP, so
// the degraded phase runs over TCP loopback. Last, restart_ms times
// fresh server starts over the warm cache (a temp directory the bench
// removes): the campaign and its trained forecasters load from the
// campaign's cache entry instead of being generated and trained again.
//
//   bench_serve [--shards N] [--clients N] [--seconds S] [--json PATH]
//
// Each client owns one connection with strict request/response
// alternation (exactly the protocol contract), so QPS scales with the
// client count and the latency numbers are honest per-request round
// trips. Every request is valid for its dataset (forecast windows fit
// m + k <= steps), so any ErrorResponse in a timed phase fails the run
// with exit code 1. scripts/bench.sh serve merges the JSON into
// BENCH_serve.json.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "api/wire.hpp"
#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/log.hpp"
#include "exec/exec.hpp"
#include "serve/chaos.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace {

using namespace dfv;

struct Options {
  int shards = 8;
  int clients = 16;
  double seconds = 3.0;
  std::string json_path;

  /// Bound every count that starts a thread, and the window, before any
  /// thread or campaign starts.
  void validate() const {
    DFV_CHECK_MSG(shards >= 1 && shards <= exec::kMaxThreads,
                  "bench_serve: shard count " << shards << " is outside [1, "
                                              << exec::kMaxThreads << "]");
    DFV_CHECK_MSG(clients >= 1 && clients <= exec::kMaxThreads,
                  "bench_serve: client count " << clients << " is outside [1, "
                                               << exec::kMaxThreads << "]");
    DFV_CHECK_MSG(std::isfinite(seconds) && seconds > 0.0,
                  "bench_serve: --seconds must be finite and positive, got " << seconds);
  }
};

/// One served dataset and the forecast window its runs can fit.
struct DatasetShape {
  std::string app;
  int nodes = 0;
  std::uint32_t runs = 0;
  int steps = 0;
  analysis::WindowConfig window;
};

/// A forecast window that fits a run of `steps` steps (m + k <= steps).
analysis::WindowConfig window_for(int steps) {
  if (steps >= 30) return {10, 20, analysis::FeatureSet::App};
  if (steps >= 8) return {3, 5, analysis::FeatureSet::App};
  return {3, std::max(1, steps - 3), analysis::FeatureSet::App};
}

std::vector<DatasetShape> shapes_of(const sim::CampaignResult& c) {
  std::vector<DatasetShape> out;
  for (const sim::Dataset& ds : c.datasets) {
    const int steps = ds.steps_per_run();
    DFV_CHECK_MSG(steps >= 4, "bench_serve: dataset " << ds.spec.label()
                                                      << " is too short to forecast");
    out.push_back({ds.spec.app, ds.spec.nodes, std::uint32_t(ds.num_runs()), steps,
                   window_for(steps)});
  }
  return out;
}

struct PhaseResult {
  std::string name;
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;  ///< ErrorResponse payloads in the timed window
  std::string first_error;
  double elapsed_s = 0.0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
};

double percentile(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const auto n = sorted_us.size();
  std::size_t idx = std::size_t(q * double(n));
  if (idx >= n) idx = n - 1;
  return sorted_us[idx];
}

/// The requests each client issues on iteration `i`: a rotation over
/// datasets, runs and window positions (no RNG, per the determinism
/// conventions — the load pattern is identical run to run).
class RequestRotation {
 public:
  explicit RequestRotation(std::vector<DatasetShape> shapes) : shapes_(std::move(shapes)) {}

  [[nodiscard]] api::Request lookup(std::uint64_t i) const {
    const DatasetShape& d = shapes_[i % shapes_.size()];
    return api::RunLookupRequest{}.app(d.app).nodes(d.nodes).run(
        std::uint32_t(i % d.runs));
  }

  [[nodiscard]] api::Request forecast(std::uint64_t i) const {
    const DatasetShape& d = shapes_[i % shapes_.size()];
    const auto centers = std::uint64_t(d.steps - d.window.k - d.window.m + 1);
    return api::ForecastRequest{}
        .app(d.app)
        .nodes(d.nodes)
        .run(std::uint32_t(i % d.runs))
        .center(d.window.m + int(i % centers))
        .m(d.window.m)
        .k(d.window.k)
        .features(d.window.features);
  }

  /// A blame query at one of a few thresholds around the paper's tau = 1.
  [[nodiscard]] api::Request neighborhood(std::uint64_t i) const {
    static constexpr double kTaus[] = {0.9, 1.0, 1.1};
    const DatasetShape& d = shapes_[i % shapes_.size()];
    return api::NeighborhoodRequest{}.app(d.app).nodes(d.nodes).threshold(
        kTaus[(i / shapes_.size()) % std::size(kTaus)]);
  }

 private:
  std::vector<DatasetShape> shapes_;
};

/// One closed-loop phase: `open_client(c)` opens client c's connection (a
/// serve::Client or RetryClient), `make_req(i)` is its i-th request.
template <typename Open, typename MakeReq>
PhaseResult run_phase(const std::string& name, const Options& opt, Open open_client,
                      MakeReq make_req) {
  std::atomic<bool> go{false};
  std::atomic<bool> halt{false};
  std::vector<std::vector<double>> latencies(std::size_t(opt.clients));
  std::vector<std::uint64_t> errors(std::size_t(opt.clients), 0);
  std::vector<std::string> first_errors(std::size_t(opt.clients));
  std::vector<std::thread> threads;
  threads.reserve(std::size_t(opt.clients));

  for (int c = 0; c < opt.clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = open_client(c);
      // Warmup outside the timed window: touch every key in the rotation
      // so the shared models are trained before measurement.
      for (std::uint64_t i = 0; i < 16; ++i)
        (void)client.call_raw(make_req(i * std::uint64_t(opt.clients) + std::uint64_t(c)));
      auto& lat = latencies[std::size_t(c)];
      lat.reserve(1u << 16);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::uint64_t i = std::uint64_t(c);
      while (!halt.load(std::memory_order_relaxed)) {
        const api::Request req = make_req(i++);
        const auto t0 = std::chrono::steady_clock::now();
        const std::string raw = client.call_raw(req);
        const auto t1 = std::chrono::steady_clock::now();
        lat.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
        const api::Response resp = api::decode_response(raw);
        if (const auto* err = std::get_if<api::ErrorResponse>(&resp)) {
          if (errors[std::size_t(c)]++ == 0) first_errors[std::size_t(c)] = err->message;
        }
      }
    });
  }

  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(opt.seconds));
  halt.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  std::vector<double> all;
  for (const auto& lat : latencies) all.insert(all.end(), lat.begin(), lat.end());
  std::sort(all.begin(), all.end());

  PhaseResult r;
  r.name = name;
  r.requests = all.size();
  for (std::size_t c = 0; c < errors.size(); ++c) {
    if (r.errors == 0 && errors[c] > 0) r.first_error = first_errors[c];
    r.errors += errors[c];
  }
  r.elapsed_s = elapsed;
  r.qps = elapsed > 0.0 ? double(all.size()) / elapsed : 0.0;
  r.p50_us = percentile(all, 0.50);
  r.p99_us = percentile(all, 0.99);
  r.p999_us = percentile(all, 0.999);
  return r;
}

void print_phase(const PhaseResult& r) {
  std::cout << r.name << ": " << std::uint64_t(r.qps) << " QPS (" << r.requests
            << " requests / " << r.elapsed_s << " s)  p50 " << r.p50_us << " us  p99 "
            << r.p99_us << " us  p999 " << r.p999_us << " us\n";
}

std::string json_number(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// Starts timed for restart_ms; the median is reported.
constexpr int kRestarts = 5;

/// One restart over the warm cache: load the campaign, start a server and
/// answer one forecast per dataset (each loads its model), in ms.
double time_restart(const Options& opt, const api::SessionOptions& session,
                    const RequestRotation& rotation, std::size_t datasets) {
  const auto t0 = std::chrono::steady_clock::now();
  serve::ServerOptions sopt;
  sopt.shards = opt.shards;
  sopt.session = session;
  sopt.campaign = api::ResidentCampaign::load(session);
  serve::Server server(std::move(sopt));
  server.start();
  serve::Client client;
  DFV_CHECK_MSG(client.connect(server.port()) == std::nullopt,
                "bench_serve: handshake failed");
  for (std::size_t d = 0; d < datasets; ++d)
    DFV_CHECK_MSG(std::holds_alternative<api::ForecastResponse>(client.call(rotation.forecast(d))),
                  "bench_serve: restart forecast failed");
  const double ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  client.close();
  server.stop();
  return ms;
}

void write_json(const std::string& path, const Options& opt,
                const std::vector<PhaseResult>& phases, double restart_ms) {
  std::ofstream out(path);
  DFV_CHECK_MSG(out.good(), "bench_serve: cannot open " << path);
  out << "{\n  \"shards\": " << opt.shards << ",\n  \"clients\": " << opt.clients
      << ",\n  \"restart_ms\": " << json_number(restart_ms);
  for (const auto& r : phases) {
    out << ",\n  \"" << r.name << "_qps\": " << json_number(r.qps)          //
        << ",\n  \"" << r.name << "_p50_us\": " << json_number(r.p50_us)    //
        << ",\n  \"" << r.name << "_p99_us\": " << json_number(r.p99_us)    //
        << ",\n  \"" << r.name << "_p999_us\": " << json_number(r.p999_us)  //
        << ",\n  \"" << r.name << "_requests\": " << r.requests;
  }
  out << "\n}\n";
}

/// A cache directory of this run's own, removed when the bench ends.
class TempCache {
 public:
  TempCache()
      : path_(std::filesystem::temp_directory_path() /
              ("dfv_bench_serve_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
  }
  ~TempCache() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempCache(const TempCache&) = delete;
  TempCache& operator=(const TempCache&) = delete;
  [[nodiscard]] std::string path() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

int run_bench(const Options& opt) {
  const TempCache cache;
  api::SessionOptions session;
  session.config = sim::CampaignConfig::small(2026);
  session.config.days = 8;
  session.config.datasets = {{"MILC", 128}, {"UMT", 128}};
  session.cache_dir = cache.path();
  serve::ServerOptions sopt;
  sopt.shards = opt.shards;
  sopt.session = session;
  sopt.campaign = api::ResidentCampaign::load(session);
  const std::size_t datasets = sopt.campaign->result().datasets.size();
  const RequestRotation rotation(shapes_of(sopt.campaign->result()));

  serve::Server server(std::move(sopt));
  server.start();
  std::cout << "bench_serve: " << opt.shards << " shards, " << opt.clients
            << " closed-loop clients, " << opt.seconds << " s per phase\n";

  const auto direct = [&](int) {
    serve::Client client;
    DFV_CHECK_MSG(client.connect(server.port()) == std::nullopt,
                  "bench_serve: handshake failed");
    return client;
  };
  std::vector<PhaseResult> phases;
  phases.push_back(run_phase("run_lookup", opt, direct,
                             [&](std::uint64_t i) { return rotation.lookup(i); }));
  print_phase(phases.back());
  phases.push_back(run_phase("forecast", opt, direct,
                             [&](std::uint64_t i) { return rotation.forecast(i); }));
  print_phase(phases.back());
  phases.push_back(run_phase("neighborhood", opt, direct,
                             [&](std::uint64_t i) { return rotation.neighborhood(i); }));
  print_phase(phases.back());

  // Degraded mode: the same closed-loop lookup workload through a seeded
  // chaos proxy (5% of event points delay, 1% hard-disconnect), with the
  // retrying client absorbing the faults. The latency numbers include
  // reconnects and backoff sleeps — that is the point: this phase tracks
  // what a caller experiences when the network misbehaves.
  {
    serve::chaos::ChaosSpec spec;
    spec.seed = 20260808;  // fixed: the fault schedule is part of the benchmark
    spec.delay_prob = 0.05;
    spec.disconnect_prob = 0.01;
    spec.delay_min_ms = 1;
    spec.delay_max_ms = 3;
    serve::chaos::Proxy proxy(spec, server.port());
    proxy.start();
    const auto retrying = [&](int c) {
      serve::RetryPolicy policy;
      policy.timeout_ms = 5000;
      policy.jitter_seed = 0x9e3779b9u + std::uint32_t(c);  // distinct backoff streams
      return serve::RetryClient(proxy.port(), policy);
    };
    phases.push_back(run_phase("degraded_lookup", opt, retrying,
                               [&](std::uint64_t i) { return rotation.lookup(i); }));
    print_phase(phases.back());
    proxy.stop();
    const auto ps = proxy.stats();
    std::cout << "chaos: " << ps.connections << " connections, " << ps.delays
              << " delays, " << ps.disconnects << " disconnects\n";
  }

  server.stop();
  std::cout << "server: " << server.stats().requests << " requests\n";

  // The forecast phase trained and published every dataset's model, so
  // each restart loads the campaign and the models from the cache.
  std::vector<double> restarts;
  for (int i = 0; i < kRestarts; ++i)
    restarts.push_back(time_restart(opt, session, rotation, datasets));
  std::sort(restarts.begin(), restarts.end());
  const double restart_ms = restarts[restarts.size() / 2];
  std::cout << "restart: " << restart_ms << " ms (median of " << kRestarts
            << " starts over the warm cache, one forecast per dataset)\n";

  int rc = 0;
  for (const PhaseResult& r : phases)
    if (r.errors > 0) {
      std::cerr << "bench_serve: FAILED: " << r.errors << " error responses in phase "
                << r.name << ", first: " << r.first_error << "\n";
      rc = 1;
    }
  if (rc == 0 && !opt.json_path.empty()) write_json(opt.json_path, opt, phases, restart_ms);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::Warn);
  cli::App app("bench_serve", "closed-loop load generator for dfv serve over local sockets");
  app.command("", "run the lookup, forecast, neighborhood and degraded-lookup phases",
              {{"shards", cli::ArgType::Int, "8", "server shard threads"},
               {"clients", cli::ArgType::Int, "16", "closed-loop client connections"},
               {"seconds", cli::ArgType::Double, "3", "timed window per phase"},
               {"json", cli::ArgType::String, "", "also write the results as JSON here"}},
              [](const cli::ParsedArgs& a) {
                Options opt;
                opt.shards = a.get_int("shards");
                opt.clients = a.get_int("clients");
                opt.seconds = a.get_double("seconds");
                opt.json_path = a.get("json");
                try {
                  opt.validate();
                } catch (const ContractError& e) {
                  std::cerr << "error: " << e.what() << "\n";
                  return 2;
                }
                return run_bench(opt);
              });
  try {
    return app.run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_serve: " << e.what() << "\n";
    return 1;
  }
}
