#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <thread>

#include "common/check.hpp"
#include "exec/exec.hpp"
#include "sim/campaign_store.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void Result::metric(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void Result::layer(std::string name, double value, std::string unit) {
  layers.push_back({std::move(name), value, std::move(unit)});
}

void Result::fail(const std::string& why) {
  failed += 1;
  correct = false;
  std::cerr << "perfbench " << workload << ": FAILED: " << why << "\n";
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void metrics_json(std::ostream& os, const std::vector<Metric>& ms) {
  os << "{";
  for (std::size_t i = 0; i < ms.size(); ++i)
    os << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": " << number(ms[i].value)
       << ", \"unit\": \"" << ms[i].unit << "\"}";
  os << "}";
}

}  // namespace

std::string to_json(const Result& r, const Options& opt) {
  std::ostringstream os;
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016llx", static_cast<unsigned long long>(r.digest));
  os << "{\"workload\": \"" << r.workload << "\", \"seed\": " << opt.seed
     << ", \"seconds\": " << number(opt.seconds) << ", \"trace\": " << (opt.trace ? 1 : 0)
     << ", \"correct\": " << (r.correct ? "true" : "false") << ", \"attempted\": "
     << r.attempted << ", \"failed\": " << r.failed << ", \"digest\": \"" << digest
     << "\", \"context\": {\"host_cpus\": " << std::thread::hardware_concurrency()
     << ", \"threads\": " << dfv::exec::ThreadPool::instance().size()
     << ", \"compiler\": \"" << PERFBENCH_COMPILER << "\", \"build_type\": \""
     << PERFBENCH_BUILD_TYPE << "\"}, \"metrics\": ";
  metrics_json(os, r.metrics);
  os << ", \"layers\": ";
  metrics_json(os, r.layers);
  os << "}";
  return os.str();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) { return double(tv.tv_sec) + 1e-6 * double(tv.tv_usec); };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

void Digest::bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 0x100000001b3ULL;
  }
}

std::uint64_t campaign_digest(const dfv::sim::CampaignResult& r) {
  Digest d;
  for (const auto& ds : r.datasets) {
    d.str(ds.spec.label());
    d.u64(ds.runs.size());
    for (const auto& run : ds.runs) {
      d.u64(std::uint64_t(run.job_id));
      d.f64(run.submit_time_s);
      d.f64(run.start_time_s);
      d.f64(run.end_time_s);
      d.u64(std::uint64_t(run.num_routers));
      d.u64(std::uint64_t(run.num_groups));
      d.u64(run.step_times.size());
      d.bytes(run.step_times.data(), run.step_times.size() * sizeof(double));
      for (const auto& c : run.step_counters) d.bytes(c.data(), c.size() * sizeof(double));
      for (const auto& l : run.step_ldms) {
        d.bytes(l.io.data(), l.io.size() * sizeof(double));
        d.bytes(l.sys.data(), l.sys.size() * sizeof(double));
      }
      d.f64(run.profile.compute_s);
      d.bytes(run.profile.routine_s.data(), run.profile.routine_s.size() * sizeof(double));
      d.u64(run.neighborhood_users.size());
      for (int u : run.neighborhood_users) d.u64(std::uint64_t(u));
      d.u64(run.step_quality.size());
      d.bytes(run.step_quality.data(), run.step_quality.size());
      d.u64(run.profile_missing ? 1 : 0);
    }
  }
  return d.value();
}

dfv::sim::CampaignConfig paper_sized_config() {
  dfv::sim::CampaignConfig cfg = dfv::sim::CampaignConfig::small(20190415);
  cfg.days = 120;
  cfg.validate();
  return cfg;
}

std::string store_entry(const std::string& cache_dir, const dfv::sim::CampaignConfig& cfg) {
  std::ostringstream os;
  os << cache_dir << "/campaign_" << std::hex << dfv::sim::config_fingerprint(cfg) << ".store";
  return os.str();
}

void require_primed(const Options& opt) {
  const std::string entry = store_entry(opt.cache_dir, paper_sized_config());
  DFV_CHECK_MSG(dfv::sim::campaign_store_exists(entry),
                "campaign cache " << entry << " is not primed (run `prime` first)");
}

Result prime_cache(const Options& opt) {
  Result res;
  res.workload = "prime";
  const dfv::sim::CampaignConfig cfg = paper_sized_config();
  const Stopwatch sw;
  const dfv::sim::CampaignResult c =
      dfv::sim::run_campaign_cached(cfg, opt.cache_dir, dfv::sim::CacheFormat::Store);
  res.attempted = 1;
  res.digest = campaign_digest(c);
  require_primed(opt);
  std::size_t runs = 0;
  for (const auto& ds : c.datasets) runs += ds.runs.size();
  res.metric("prime_s", sw.seconds(), "s");
  res.metric("runs", double(runs), "count");
  return res;
}

void add_layer_times(Result& r, const std::map<std::string, trace::LayerStat>& stats,
                     const std::vector<std::pair<std::string, std::string>>& spans_units) {
  for (const auto& [span, unit] : spans_units) {
    const double scale = unit == "us" ? 1e-3 : unit == "ms" ? 1e-6 : 1e-9;
    const auto it = stats.find(span);
    if (it == stats.end() || it->second.calls == 0) {
      r.fail("layer span " + span + " never ran");
      continue;
    }
    r.layer(span + "_" + unit, it->second.self_ns * scale / double(it->second.calls), unit);
  }
}

std::map<std::string, trace::LayerStat> finish_trace(const Options& opt) {
  trace::enable(false);
  const std::vector<trace::SpanRecord> spans = trace::collect();
  if (!opt.trace_out.empty() && !trace::write_chrome(opt.trace_out, spans))
    std::cerr << "perfbench: cannot write trace " << opt.trace_out << "\n";
  auto stats = trace::self_times(spans);
  std::cout << "trace: " << spans.size() << " spans";
  if (!opt.trace_out.empty()) std::cout << " -> " << opt.trace_out;
  std::cout << "\n";
  for (const auto& [name, st] : stats)
    std::cout << "  " << name << ": " << st.calls << " calls, self "
              << st.self_ns / 1e6 << " ms, total " << st.total_ns / 1e6 << " ms\n";
  return stats;
}

void print_report(const Result& r) {
  std::cout << r.workload << ": " << r.attempted << " attempted, " << r.failed
            << " failed, digest " << std::hex << r.digest << std::dec << "\n";
  for (const Metric& m : r.metrics)
    std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  for (const Metric& m : r.layers)
    std::cout << "  [layer] " << m.name << " = " << m.value << " " << m.unit << "\n";
}

}  // namespace perfbench
