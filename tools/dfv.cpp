// dfv — command-line driver for the dragonfly-variability library.
//
// Subcommands, arguments, defaults, and help text are declared once in
// the cli::App table in main(); run `dfv --help` or `dfv help <command>`
// for the authoritative usage. Every command accepts `--key value` and
// `--key=value`, rejects unknown flags with a non-zero exit, and takes
// `--threads N` to size the deterministic parallel execution pool
// (0 = DFV_THREADS env or hardware concurrency). Results are
// bit-identical for any thread count.
//
// Every subcommand is a thin adapter over dfv::api: it builds a request,
// hands it to an api::Session (the same session layer `dfv serve`
// shards), and formats the structured response. The CLI owns no analysis
// logic of its own; an ErrorResponse is re-raised so error wording and
// exit codes are identical to calling the library directly.
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>

#include "api/session.hpp"
#include "common/ascii_plot.hpp"
#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/log.hpp"
#include "common/table.hpp"
#include "exec/exec.hpp"
#include "faults/faults.hpp"
#include "mon/counters.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/cache_gc.hpp"

namespace {

using namespace dfv;

faults::FaultSpec parse_fault_spec(const cli::ParsedArgs& a) {
  faults::FaultSpec spec;
  spec.rate = a.get_double("fault-rate");
  spec.seed = std::uint64_t(a.get_int("fault-seed"));
  spec.kinds = faults::parse_fault_kinds(a.get("fault-kinds"));
  spec.validate();
  return spec;
}

api::SessionOptions make_session_options(const cli::ParsedArgs& a) {
  api::SessionOptions opt;
  opt.config = sim::CampaignConfig::cori()
                   .seed(20181203)
                   .days(a.get_int("days"))
                   .faults(parse_fault_spec(a))
                   .build();
  opt.cache_dir = a.get("cache");
  opt.repair = faults::parse_repair_policy(a.get("repair-policy"));
  return opt;
}

/// Unwrap one expected response type; an ErrorResponse is re-raised as
/// the exception it came from so main()'s handler prints the exact text.
template <typename R>
R unwrap(api::Response resp) {
  if (const auto* err = std::get_if<api::ErrorResponse>(&resp)) api::rethrow(*err);
  return std::get<R>(std::move(resp));
}

int cmd_topology(const cli::ParsedArgs& a) {
  api::Session session{api::SessionOptions{}};
  const auto resp = unwrap<api::TopologyResponse>(
      session.handle(api::TopologyRequest{}.group_count(a.get_int("groups"))));
  std::cout << resp.description;
  return 0;
}

int cmd_campaign(const cli::ParsedArgs& a) {
  set_log_level(LogLevel::Info);
  api::Session session(make_session_options(a));
  const auto summary =
      unwrap<api::CampaignSummaryResponse>(session.handle(api::CampaignSummaryRequest{}));
  if (!summary.faulted) {
    Table t({"dataset", "runs", "steps/run"});
    for (const auto& row : summary.rows)
      t.add_row({row.label, std::to_string(row.runs), std::to_string(row.steps_per_run)});
    std::cout << t.str();
  } else {
    Table t({"dataset", "runs", "steps/run", "dropped runs", "bad steps", "imputed",
             "wraps", "lost profiles"});
    for (const auto& row : summary.rows)
      t.add_row({row.label, std::to_string(row.runs), std::to_string(row.steps_per_run),
                 std::to_string(row.runs_dropped), std::to_string(row.bad_steps),
                 std::to_string(row.imputed_steps), std::to_string(row.wrapped_cells),
                 std::to_string(row.profiles_missing)});
    std::cout << t.str();
  }
  if (!a.get("out").empty()) {
    const auto exported = unwrap<api::ExportResponse>(
        session.handle(api::ExportRequest{}.out_dir(a.get("out"))));
    for (const auto& item : exported.items)
      std::cout << (item.ok ? "wrote " : "FAILED to write ") << item.path << "\n";
  }
  return 0;
}

int cmd_blame(const cli::ParsedArgs& a) {
  api::Session session(make_session_options(a));
  const auto resp = unwrap<api::NeighborhoodResponse>(
      session.handle(api::NeighborhoodRequest{}
                         .app(a.get("app"))
                         .nodes(a.get_int("nodes"))
                         .threshold(a.get_double("tau"))));
  Table t({"user", "MI (nats)", "present in runs", "P(optimal|present)", "P(optimal)"});
  for (const auto& s : resp.result.ranked) {
    if (s.mi < 1e-4) break;
    t.add_row({"User-" + std::to_string(s.user_id), format_double(s.mi, 4),
               format_double(100.0 * s.presence, 1) + "%",
               format_double(s.optimal_when_present, 2),
               format_double(s.optimal_overall, 2)});
  }
  std::cout << t.str();
  return 0;
}

int cmd_deviation(const cli::ParsedArgs& a) {
  api::Session session(make_session_options(a));
  const auto resp = unwrap<api::DeviationResponse>(session.handle(
      api::DeviationRequest{}.app(a.get("app")).nodes(a.get_int("nodes"))));
  const analysis::DeviationResult& res = resp.result;
  std::vector<std::string> labels;
  for (int c = 0; c < mon::kNumCounters; ++c)
    labels.emplace_back(mon::counter_name(mon::counter_from_index(c)));
  std::cout << bar_chart(labels, res.survival, 48, "RFE survival relevance");
  std::cout << "\nGBR CV MAPE: " << format_double(res.cv_mape, 2)
            << "%   linear baseline: " << format_double(res.cv_mape_linear, 2) << "%\n";
  return 0;
}

int cmd_forecast(const cli::ParsedArgs& a) {
  api::Session session(make_session_options(a));
  const analysis::FeatureSet fs = api::parse_feature_set(a.get("features"));
  if (a.flag("grid")) {
    // Fig. 8/10 ablation: sweep (m, k) x feature sets, cell-parallel.
    auto req = api::ForecastGridRequest{}.app(a.get("app")).nodes(a.get_int("nodes"));
    for (int m : {3, 10, 30})
      for (int k : {5, 20, 40})
        for (auto f : {analysis::FeatureSet::App, analysis::FeatureSet::AppPlacementIoSys})
          req.cell({m, k, f});
    const auto resp = unwrap<api::ForecastGridResponse>(session.handle(req));
    Table t({"m", "k", "features", "attention", "persistence", "mean"});
    for (const auto& cell : resp.cells)
      t.add_row({std::to_string(cell.window.m), std::to_string(cell.window.k),
                 analysis::to_string(cell.window.features),
                 format_double(cell.eval.mape_attention, 2),
                 format_double(cell.eval.mape_persistence, 2),
                 format_double(cell.eval.mape_mean, 2)});
    std::cout << t.str();
    return 0;
  }
  const auto resp = unwrap<api::ForecastEvalResponse>(
      session.handle(api::ForecastEvalRequest{}
                         .app(a.get("app"))
                         .nodes(a.get_int("nodes"))
                         .m(a.get_int("m"))
                         .k(a.get_int("k"))
                         .features(fs)));
  Table t({"model", "MAPE (%)"});
  t.add_row({"attention", format_double(resp.eval.mape_attention, 2)});
  t.add_row({"persistence", format_double(resp.eval.mape_persistence, 2)});
  t.add_row({"dataset mean", format_double(resp.eval.mape_mean, 2)});
  std::cout << t.str();
  return 0;
}

/// Resilience report: sweep fault rates and compare the analysis-quality
/// cost of repairing vs dropping degraded telemetry. The underlying
/// campaign is generated once per rate (policies share the cache entry).
int cmd_faults(const cli::ParsedArgs& a) {
  const std::string app_name = a.get("app");
  const int nodes = a.get_int("nodes");

  std::vector<double> rates;
  {
    std::istringstream is(a.get("rates"));
    std::string tok;
    while (std::getline(is, tok, ',')) {
      if (tok.empty()) continue;
      // The whole token must be one number in [0, 1]: "0.1x" and "nan"
      // are rejected here, before any campaign is generated.
      double rate = 0.0;
      const auto [end, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), rate);
      DFV_CHECK_MSG(ec == std::errc() && end == tok.data() + tok.size() && std::isfinite(rate) &&
                        rate >= 0.0 && rate <= 1.0,
                    "--rates: fault rate '" << tok << "' is not a number in [0, 1]");
      rates.push_back(rate);
    }
  }
  DFV_CHECK_MSG(!rates.empty(), "--rates needs at least one fault rate");

  faults::FaultSpec base_spec;
  base_spec.seed = std::uint64_t(a.get_int("fault-seed"));
  base_spec.kinds = faults::parse_fault_kinds(a.get("fault-kinds"));

  auto make_options = [&](double rate, faults::RepairPolicy policy) {
    auto builder = a.flag("small") ? sim::CampaignConfig::small_machine(20181203)
                                   : sim::CampaignConfig::cori().seed(20181203);
    faults::FaultSpec spec = base_spec;
    spec.rate = rate;
    api::SessionOptions opt;
    opt.config = builder.days(a.get_int("days")).faults(spec).build();
    opt.cache_dir = a.get("cache");
    opt.repair = policy;
    return opt;
  };

  struct RowEval {
    std::string runs = "—", samples = "—";
    double dev = std::numeric_limits<double>::quiet_NaN();
    double fc = std::numeric_limits<double>::quiet_NaN();
  };
  // Each metric degrades independently: a policy can leave too little
  // data for forecasting (every window touches a bad step) while the
  // per-step deviation analysis still has plenty of samples.
  auto evaluate = [&](double rate, faults::RepairPolicy policy,
                      const std::string& label) {
    RowEval r;
    try {
      api::Session session(make_options(rate, policy));
      const auto summary = unwrap<api::CampaignSummaryResponse>(
          session.handle(api::CampaignSummaryRequest{}));
      const std::string ds_label = app_name + "-" + std::to_string(nodes);
      bool found = false;
      for (const auto& row : summary.rows)
        if (row.label == ds_label) {
          r.runs = std::to_string(row.runs);
          found = true;
        }
      DFV_CHECK_MSG(found, "no dataset " << ds_label << " in the campaign");
      try {
        const auto dev = unwrap<api::DeviationResponse>(session.handle(
            api::DeviationRequest{}.app(app_name).nodes(nodes)));
        r.samples = std::to_string(dev.result.samples);
        r.dev = dev.result.cv_mape;
      } catch (const std::exception& e) {
        DFV_LOG_WARN("faults: rate " << rate << " policy " << label
                                     << " deviation failed: " << e.what());
      }
      try {
        const auto fc = unwrap<api::ForecastEvalResponse>(
            session.handle(api::ForecastEvalRequest{}
                               .app(app_name)
                               .nodes(nodes)
                               .m(a.get_int("m"))
                               .k(a.get_int("k"))
                               .features(analysis::FeatureSet::App)));
        r.fc = fc.eval.mape_attention;
      } catch (const std::exception& e) {
        DFV_LOG_WARN("faults: rate " << rate << " policy " << label
                                     << " forecast failed: " << e.what());
      }
    } catch (const std::exception& e) {
      DFV_LOG_WARN("faults: rate " << rate << " policy " << label
                                   << " failed: " << e.what());
    }
    return r;
  };
  const auto fmt_opt = [](double v) {
    return std::isfinite(v) ? format_double(v, 2) : std::string("—");
  };
  // Resilience is fidelity: how far the analysis drifts from what clean
  // telemetry would have concluded. Raw MAPE alone is misleading — drop
  // can "score" better simply by discarding the data until the task is
  // easier, while its conclusions stray further from the truth.
  const auto fmt_drift = [&](double v, double base) {
    return std::isfinite(v) && std::isfinite(base)
               ? format_double(std::fabs(v - base), 2)
               : std::string("—");
  };

  Table t({"rate", "policy", "runs", "samples", "deviation MAPE (%)", "dev drift",
           "forecast MAPE (%)", "fc drift"});
  const RowEval clean = evaluate(0.0, faults::RepairPolicy::Strict, "clean");
  t.add_row({"0.0%", "clean", clean.runs, clean.samples, fmt_opt(clean.dev),
             fmt_drift(clean.dev, clean.dev), fmt_opt(clean.fc),
             fmt_drift(clean.fc, clean.fc)});
  for (double rate : rates) {
    if (rate <= 0.0) continue;  // the clean baseline is always the first row
    for (faults::RepairPolicy policy :
         {faults::RepairPolicy::Repair, faults::RepairPolicy::Drop}) {
      const std::string label = faults::to_string(policy);
      const RowEval r = evaluate(rate, policy, label);
      t.add_row({format_double(100.0 * rate, 1) + "%", label, r.runs, r.samples,
                 fmt_opt(r.dev), fmt_drift(r.dev, clean.dev), fmt_opt(r.fc),
                 fmt_drift(r.fc, clean.fc)});
    }
  }
  std::cout << t.str();
  std::cout << "\ndrift = |MAPE - clean MAPE|: how far degraded telemetry pulls the\n"
               "analysis away from the clean-data result. repair unwinds 2^32\n"
               "wraparounds exactly and imputes dropped/corrupt steps, keeping the\n"
               "statistics anchored to the clean baseline; drop discards damaged\n"
               "steps (and every window they touch), biasing what remains.\n";
  return 0;
}

/// Inspect and garbage-collect the on-disk cache: `--ls` lists entries
/// with kind, size, and recency; `--evict-lru --max-bytes N` evicts
/// least-recently-used entries until the directory fits the budget.
int cmd_cache(const cli::ParsedArgs& a) {
  const std::string cache_dir = a.get("cache");
  DFV_CHECK_MSG(a.flag("evict-lru") || !a.given("max-bytes"),
                "--max-bytes is the budget of --evict-lru; pass both to evict");
  if (a.flag("evict-lru")) {
    const auto evicted =
        sim::evict_cache_lru(cache_dir, sim::parse_cache_budget(a.get("max-bytes")));
    for (const auto& name : evicted) std::cout << "evicted " << name << "\n";
    std::cout << evicted.size() << " entr" << (evicted.size() == 1 ? "y" : "ies")
              << " evicted\n";
    return 0;
  }
  // Default action is --ls.
  const auto entries = sim::list_cache_entries(cache_dir);
  Table t({"entry", "kind", "bytes"});
  std::uintmax_t total = 0;
  for (const auto& e : entries) {
    t.add_row({e.name, e.kind, std::to_string(e.bytes)});
    total += e.bytes;
  }
  std::cout << t.str();
  std::cout << entries.size() << " entr" << (entries.size() == 1 ? "y" : "ies") << ", "
            << total << " bytes in " << cache_dir << "\n";
  return 0;
}

int cmd_simulate(const cli::ParsedArgs& a) {
  api::Session session{api::SessionOptions{}};
  const auto resp = unwrap<api::SimulateResponse>(
      session.handle(api::SimulateRequest{}
                         .group_count(a.get_int("groups"))
                         .traffic(a.get("pattern"))
                         .routing(a.get("policy"))
                         .offered_load(a.get_double("load"))
                         .packet_count(a.get_int("packets"))));
  Table t({"engine", "mean latency (us)", "p99 (us)", "mean hops", "throughput (GB/s)"});
  for (const auto& e : resp.engines)
    t.add_row({e.name + (e.deadlocked ? " [DEADLOCK]" : ""),
               format_double(e.mean_latency_s * 1e6, 2),
               format_double(e.p99_latency_s * 1e6, 2), format_double(e.mean_hops, 2),
               format_double(e.throughput_bps / 1e9, 2)});
  std::cout << "pattern=" << resp.pattern << " policy=" << resp.policy
            << " load=" << resp.load << "\n"
            << t.str();
  return 0;
}

volatile std::sig_atomic_t g_stop_requested = 0;

void handle_stop_signal(int) { g_stop_requested = 1; }

/// Run the sharded resident query server until SIGINT/SIGTERM (or for
/// --duration seconds; handy for smoke tests). Blocks the main thread;
/// all serving happens on the shard threads.
int cmd_serve(const cli::ParsedArgs& a) {
  serve::ServerOptions opt;
  opt.shards = a.get_int("shards");
  const int port = a.get_int("port");
  DFV_CHECK_MSG(port >= 0 && port <= 65535, "--port must be in [0, 65535]");
  opt.port = std::uint16_t(port);
  opt.session = make_session_options(a);

  const int request_timeout = a.get_int("request-timeout-ms");
  DFV_CHECK_MSG(request_timeout >= 0, "--request-timeout-ms must be non-negative");
  opt.default_deadline_ms = std::uint32_t(request_timeout);
  const int drain_timeout = a.get_int("drain-timeout-ms");
  DFV_CHECK_MSG(drain_timeout >= 1, "--drain-timeout-ms must be positive");
  opt.drain_timeout_ms = std::uint32_t(drain_timeout);

  serve::Server server(std::move(opt));
  server.start();
  std::cout << "serving on 127.0.0.1:" << server.port() << " and "
            << serve::unix_label(server.port()) << " with " << server.shards()
            << " shard" << (server.shards() == 1 ? "" : "s") << " (api v"
            << api::kApiVersion << ")" << std::endl;

  g_stop_requested = 0;
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  const double duration = a.get_double("duration");
  const auto t0 = std::chrono::steady_clock::now();
  while (g_stop_requested == 0) {
    if (duration > 0.0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count() >=
            duration)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  server.stop();
  const auto s = server.stats();
  std::cout << "served " << s.requests << " request" << (s.requests == 1 ? "" : "s")
            << " on " << s.connections << " connection"
            << (s.connections == 1 ? "" : "s") << "\n";
  if (s.shed_deadline + s.evicted_stalled + s.shutdown_aborted > 0)
    std::cout << "robustness: shed " << s.shed_deadline << " past-deadline; evicted "
              << s.evicted_stalled << " stalled; aborted " << s.shutdown_aborted
              << " at shutdown\n";
  return 0;
}

/// Wrap a handler: size the pool from --threads first, and print one
/// wall-clock line per phase (command) afterwards so speedups are visible
/// without a profiler.
template <typename Fn>
std::function<int(const cli::ParsedArgs&)> timed_phase(const char* phase, Fn fn) {
  return [phase, fn](const cli::ParsedArgs& a) {
    const int threads = exec::configure_threads(a.get_int("threads"));
    const auto t0 = std::chrono::steady_clock::now();
    const int rc = fn(a);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    std::cerr << "[" << phase << "] wall-clock " << format_double(secs, 2) << " s on "
              << threads << " thread" << (threads == 1 ? "" : "s") << "\n";
    return rc;
  };
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::Warn);

  using cli::ArgSpec;
  using cli::ArgType;
  const ArgSpec app_arg{"app", ArgType::String, "MILC", "application dataset"};
  const ArgSpec nodes_arg{"nodes", ArgType::Int, "128", "job node count"};
  const ArgSpec days_arg{"days", ArgType::Int, "120", "campaign length in days"};
  const ArgSpec fault_rate_arg{"fault-rate", ArgType::Double, "0",
                               "telemetry fault probability (0 disables injection)"};
  const ArgSpec fault_seed_arg{"fault-seed", ArgType::Int, "64023",
                               "fault stream seed (mixed with the campaign seed)"};
  const ArgSpec fault_kinds_arg{
      "fault-kinds", ArgType::String, "all",
      "comma list: dropout | wraparound | corrupt | truncate | missing-profile | all"};
  const ArgSpec repair_arg{"repair-policy", ArgType::String, "repair",
                           "degraded-data policy: strict | repair | drop"};
  const std::vector<ArgSpec> fault_args{fault_rate_arg, fault_seed_arg, fault_kinds_arg,
                                        repair_arg};
  auto with_faults = [&fault_args](std::vector<ArgSpec> args) {
    args.insert(args.end(), fault_args.begin(), fault_args.end());
    return args;
  };

  cli::App app("dfv", "dragonfly performance-variability toolkit");
  app.common_arg({"threads", ArgType::Int, "0",
                  "worker threads (0 = DFV_THREADS env or hardware)"});
  app.common_arg({"cache", ArgType::String, "dfv_cache", "campaign cache directory"});

  app.command("topology", "describe the dragonfly topology",
              {{"groups", ArgType::Int, "0", "use a small machine with N groups"}},
              timed_phase("topology", cmd_topology));
  app.command(
      "campaign", "generate (or load) the run campaign",
      with_faults({days_arg,
                   {"out", ArgType::String, "", "also export dataset CSVs here"}}),
      timed_phase("campaign", cmd_campaign));
  app.command("blame", "Table III: rank neighbor users by blame for slow runs",
              with_faults({app_arg, nodes_arg, days_arg,
                           {"tau", ArgType::Double, "1.0", "slowdown threshold"}}),
              timed_phase("blame", cmd_blame));
  app.command("deviation", "Fig. 9: per-counter relevance for deviation prediction",
              with_faults({app_arg, nodes_arg, days_arg}),
              timed_phase("deviation", cmd_deviation));
  app.command(
      "forecast", "Figs. 8/10: forecasting MAPE for one cell or the whole grid",
      with_faults(
          {app_arg, nodes_arg, days_arg, {"m", ArgType::Int, "10", "history length (steps)"},
           {"k", ArgType::Int, "20", "horizon (steps)"},
           {"features", ArgType::String, "app",
            "feature set: app | app+placement | app+placement+io | app+placement+io+sys"},
           {"grid", ArgType::Flag, "", "sweep the (m, k, feature-set) ablation grid"}}),
      timed_phase("forecast", cmd_forecast));
  app.command(
      "faults", "resilience report: analysis error vs fault rate, repair vs drop",
      {app_arg, nodes_arg, days_arg, fault_seed_arg, fault_kinds_arg,
       {"rates", ArgType::String, "0,0.02,0.05,0.1", "comma list of fault rates to sweep"},
       {"m", ArgType::Int, "10", "forecast history length (steps)"},
       {"k", ArgType::Int, "20", "forecast horizon (steps)"},
       {"small", ArgType::Flag, "", "use the small test machine (fast smoke run)"}},
      timed_phase("faults", cmd_faults));
  app.command("cache", "list or LRU-evict on-disk cache entries",
              {{"ls", ArgType::Flag, "", "list cache entries (the default action)"},
               {"evict-lru", ArgType::Flag, "",
                "evict least-recently-used entries until under --max-bytes"},
               {"max-bytes", ArgType::Double, "0",
                "cache size budget in bytes for --evict-lru"}},
              timed_phase("cache", cmd_cache));
  app.command("simulate", "packet-level engines on synthetic traffic",
              {{"groups", ArgType::Int, "6", "small machine group count"},
               {"pattern", ArgType::String, "uniform", "uniform | adversarial | hotspot"},
               {"policy", ArgType::String, "ugal", "minimal | valiant | ugal"},
               {"load", ArgType::Double, "0.3", "offered load fraction"},
               {"packets", ArgType::Int, "300", "packets per node"}},
              timed_phase("simulate", cmd_simulate));
  app.command("serve", "sharded resident query server over the dfv::api wire protocol",
              with_faults({days_arg,
                           {"shards", ArgType::Int, "8", "shard threads"},
                           {"port", ArgType::Int, "0", "TCP port (0 = kernel-assigned)"},
                           {"duration", ArgType::Double, "0",
                            "stop after this many seconds (0 = run until SIGINT)"},
                           {"request-timeout-ms", ArgType::Int, "0",
                            "server-side deadline for requests that carry none (0 = off)"},
                           {"drain-timeout-ms", ArgType::Int, "10000",
                            "graceful-drain budget of shutdown before ShuttingDown errors"}}),
              timed_phase("serve", cmd_serve));

  try {
    return app.run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
