// `serve` workload: an in-process serve::Server with 2 shards over the
// paper-sized campaign, driven by 2 closed-loop loopback clients (each
// sends its next request only after the previous reply). The seeded mix
// is mostly RunLookupRequest, then ForecastRequest with windows that fit
// the dataset, then a small share of uncached NeighborhoodRequest. The
// 80/16/4 split is an assumption: the repository records no request mix.
// A neighborhood costs about 600 lookups of handler time, so the
// neighborhood share moves serve's figures most; --neighborhood-share
// measures by how much (perfbench/reference.json, serve_mix).
//
// Checks: every response has the type its request expects (an
// ErrorResponse is a failure), and sampled payloads equal
// api::handle_encoded on an in-process Session over the same campaign.
// The digest covers the first kDigestRequests payloads of each client.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <iostream>
#include <thread>

#include "api/session.hpp"
#include "api/wire.hpp"
#include "analysis/neighborhood.hpp"
#include "common/check.hpp"
#include "harness.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace {

using namespace dfv;
using trace::Span;

constexpr int kShards = 2;
constexpr int kClients = 2;
constexpr std::uint64_t kDigestRequests = 256;
constexpr std::uint64_t kSampleEvery = 16;
constexpr std::size_t kMaxSamples = 2048;
/// Set-ups timed after the window, for a median of kExtraSetups + 1.
constexpr int kExtraSetups = 8;

enum Kind : int { kLookup = 0, kForecast = 1, kNeighborhood = 2 };
constexpr const char* kKindNames[] = {"lookup", "forecast", "neighborhood"};
constexpr const char* kHandleSpans[] = {"api.handle.lookup", "api.handle.forecast",
                                        "api.handle.neighborhood"};

struct DatasetShape {
  std::string app;
  int nodes = 0;
  std::uint32_t runs = 0;
  int steps = 0;
  analysis::WindowConfig window;  ///< the forecast window served for it
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
    DFV_CHECK_MSG(steps >= 4, "dataset " << ds.spec.label() << " is too short to forecast");
    out.push_back({ds.spec.app, ds.spec.nodes, std::uint32_t(ds.num_runs()), steps,
                   window_for(steps)});
  }
  return out;
}

struct Planned {
  api::Request req;
  Kind kind = kLookup;
};

/// Share of ForecastRequest in the mix (assumed, like the others).
constexpr double kForecastShare = 0.16;

/// The seeded request stream of one client: by default 80% lookups, 16%
/// forecasts, 4% neighborhoods, uniformly over datasets and runs.
class RequestStream {
 public:
  RequestStream(const std::vector<DatasetShape>& shapes, std::uint64_t seed, int client,
                double neighborhood_share)
      : shapes_(&shapes),
        rng_(hash_combine(seed, 0x5e7e0u + std::uint64_t(client))),
        lookup_share_(1.0 - kForecastShare - neighborhood_share) {}

  Planned next() {
    const double u = rng_.uniform();
    const DatasetShape& d = (*shapes_)[rng_.uniform_index(shapes_->size())];
    if (u < lookup_share_)
      return {api::RunLookupRequest{}.app(d.app).nodes(d.nodes).run(
                  std::uint32_t(rng_.uniform_index(d.runs))),
              kLookup};
    if (u < lookup_share_ + kForecastShare) {
      const int lo = d.window.m, hi = d.steps - d.window.k;
      return {api::ForecastRequest{}
                  .app(d.app)
                  .nodes(d.nodes)
                  .run(std::uint32_t(rng_.uniform_index(d.runs)))
                  .center(int(rng_.uniform_int(lo, hi)))
                  .m(d.window.m)
                  .k(d.window.k)
                  .features(d.window.features),
              kForecast};
    }
    return {api::NeighborhoodRequest{}.app(d.app).nodes(d.nodes), kNeighborhood};
  }

 private:
  const std::vector<DatasetShape>* shapes_;
  Rng rng_;
  double lookup_share_;
};

bool type_ok(const api::Response& r, Kind k) {
  switch (k) {
    case kLookup: return std::holds_alternative<api::RunLookupResponse>(r);
    case kForecast: return std::holds_alternative<api::ForecastResponse>(r);
    case kNeighborhood: return std::holds_alternative<api::NeighborhoodResponse>(r);
  }
  return false;
}

struct Sample {
  Planned planned;
  std::string payload;
  std::uint64_t request_id = 0;
};

/// QPS is counted per kSliceS slice of the window and reported as the
/// kQpsQuantile quantile of the slices: the rate the server sustains in
/// the least disturbed tenth of the window. On a shared host, CPU taken
/// from outside stalls the closed loop at every cross-thread wake-up, so
/// lost CPU costs far more qps than its share; a slice it hits is passed
/// over rather than counted.
constexpr double kSliceS = 0.5;
constexpr double kQpsQuantile = 0.9;

/// Fixed-size latency histogram: 0.1 us buckets below 1 ms, 10 us buckets
/// below 100 ms, then one overflow bucket. It is allocated before the
/// window, so the benchmark's own bookkeeping does not grow the resident
/// set with the request count.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kFine + kCoarse + 1, 0) {}

  void add(double us) {
    std::size_t b = kFine + kCoarse;
    if (us < 1000.0) b = std::size_t(std::max(0.0, us) * 10.0);
    else if (us < 100000.0) b = kFine + std::size_t((us - 1000.0) / 10.0);
    counts_[std::min(b, kFine + kCoarse)] += 1;
  }
  void merge(const LatencyHistogram& o) {
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
  }
  [[nodiscard]] std::uint64_t count() const {
    std::uint64_t n = 0;
    for (std::uint64_t c : counts_) n += c;
    return n;
  }
  /// Nearest-rank percentile, as the midpoint of its bucket (0 if empty).
  [[nodiscard]] double percentile(double q) const {
    const std::uint64_t n = count();
    if (n == 0) return 0.0;
    const auto rank = std::max<std::uint64_t>(1, std::uint64_t(std::ceil(q * double(n))));
    std::uint64_t seen = 0;
    std::size_t b = 0;
    for (; b < counts_.size(); ++b)
      if ((seen += counts_[b]) >= rank) break;
    if (b < kFine) return (double(b) + 0.5) / 10.0;
    if (b < kFine + kCoarse) return 1000.0 + (double(b - kFine) + 0.5) * 10.0;
    return 100000.0;
  }

 private:
  static constexpr std::size_t kFine = 10000, kCoarse = 9900;
  std::vector<std::uint64_t> counts_;
};

struct ClientLog {
  LatencyHistogram latency_us[3];
  std::vector<std::uint64_t> per_slice;  ///< completions per kSliceS slice
  std::uint64_t requests = 0;
  std::uint64_t failures = 0;
  std::string first_error;
  std::vector<Sample> samples;
  Digest digest;
};

/// Warm the forecast model of every dataset on one shard: a request per
/// dataset whose run that shard owns under the server's own routing.
void warm_shard(std::uint16_t port, const std::vector<DatasetShape>& shapes, int shard) {
  serve::Client client;
  DFV_CHECK_MSG(client.connect(port) == std::nullopt, "serve warm: handshake failed");
  for (const DatasetShape& d : shapes)
    for (std::uint32_t run = 0; run < d.runs; ++run) {
      const api::Request req = api::ForecastRequest{}
                                   .app(d.app)
                                   .nodes(d.nodes)
                                   .run(run)
                                   .center(d.window.m)
                                   .m(d.window.m)
                                   .k(d.window.k)
                                   .features(d.window.features);
      if (serve::shard_of(serve::request_key(req), kShards) != std::size_t(shard)) continue;
      DFV_CHECK_MSG(std::holds_alternative<api::ForecastResponse>(client.call(req)),
                    "serve warm: forecast on " << d.app << " failed");
      break;
    }
}

/// Warm every shard at once (the shards train their models in parallel).
void warm_server(std::uint16_t port, const std::vector<DatasetShape>& shapes) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(kShards);
  for (int shard = 0; shard < kShards; ++shard)
    threads.emplace_back([&, shard] {
      try {
        warm_shard(port, shapes, shard);
      } catch (...) {
        errors[std::size_t(shard)] = std::current_exception();
      }
    });
  for (auto& t : threads) t.join();
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
}

struct Rig {
  std::shared_ptr<const api::ResidentCampaign> campaign;
  std::unique_ptr<serve::Server> server;
};

api::SessionOptions session_options(const Options& opt) {
  api::SessionOptions so;
  so.config = paper_sized_config();
  so.cache_dir = opt.cache_dir;
  so.cache_format = sim::CacheFormat::Store;
  return so;
}

/// Set-up: load the campaign from the primed cache, start the server and
/// warm its models.
Rig start_rig(const Options& opt) {
  require_primed(opt);
  Rig rig;
  rig.campaign = api::ResidentCampaign::load(session_options(opt));
  serve::ServerOptions so;
  so.shards = kShards;
  so.session = session_options(opt);
  so.campaign = rig.campaign;
  rig.server = std::make_unique<serve::Server>(std::move(so));
  rig.server->start();
  warm_server(rig.server->port(), shapes_of(rig.campaign->result()));
  return rig;
}

struct Window {
  std::vector<ClientLog> logs;
  double elapsed_s = 0.0;
  serve::ServerStats before, after;
};

/// One closed-loop measurement window.
Window serve_window(const Rig& rig, const std::vector<DatasetShape>& shapes,
                    const Options& opt, double seconds) {
  Window w;
  w.logs.resize(kClients);
  for (ClientLog& log : w.logs) log.per_slice.assign(std::size_t(seconds / kSliceS) + 2, 0);
  std::atomic<bool> halt{false};
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  w.before = rig.server->stats();
  const auto start = std::chrono::steady_clock::now();
  for (int c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      ClientLog& log = w.logs[std::size_t(c)];
      try {
        serve::Client client;
        DFV_CHECK_MSG(client.connect(rig.server->port()) == std::nullopt,
                      "serve: handshake failed");
        RequestStream stream(shapes, opt.seed, c, opt.neighborhood_share);
        ready.fetch_add(1);
        for (std::uint64_t i = 0; !halt.load(std::memory_order_relaxed); ++i) {
          const Planned p = stream.next();
          const std::uint64_t id = (std::uint64_t(c + 1) << 40) | i;
          // Trace only the sampled requests: the spans stay few enough to
          // write out, and they are the ones verified below.
          const bool sampled = i % kSampleEvery == 0;
          std::string raw;
          const auto t0 = std::chrono::steady_clock::now();
          {
            Span s(sampled ? "serve.request" : nullptr, id);
            raw = client.call_raw(p.req);
          }
          const auto t1 = std::chrono::steady_clock::now();
          log.latency_us[p.kind].add(std::chrono::duration<double, std::micro>(t1 - t0).count());
          const auto slice = std::size_t(std::chrono::duration<double>(t1 - start).count() / kSliceS);
          if (slice < log.per_slice.size()) log.per_slice[slice] += 1;
          log.requests += 1;
          api::Response resp;
          {
            Span s(sampled ? "api.wire" : nullptr, id);
            resp = api::decode_response(raw);
          }
          if (!type_ok(resp, p.kind)) {
            log.failures += 1;
            if (log.first_error.empty())
              log.first_error = std::string(kKindNames[p.kind]) + " request " +
                                std::to_string(i) + " got the wrong response type" +
                                (std::holds_alternative<api::ErrorResponse>(resp)
                                     ? ": " + std::get<api::ErrorResponse>(resp).message
                                     : "");
          }
          if (i < kDigestRequests) log.digest.str(raw);
          if (sampled && log.samples.size() < kMaxSamples)
            log.samples.push_back({p, std::move(raw), id});
        }
      } catch (const std::exception& e) {
        log.failures += 1;
        if (log.first_error.empty()) log.first_error = e.what();
        ready.fetch_add(1);
      }
    });
  while (ready.load() < kClients) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  halt.store(true);
  for (auto& t : threads) t.join();
  w.elapsed_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  w.after = rig.server->stats();
  return w;
}

/// Re-answer the sampled requests on an in-process Session and compare
/// payload bytes. Traced, the path is split into its layer calls.
void verify_samples(api::Session& session, const Window& w, bool traced, Result& res) {
  for (const ClientLog& log : w.logs)
    for (const Sample& s : log.samples) {
      std::string expected;
      if (!traced) {
        expected = api::handle_encoded(session, api::encode_request(s.planned.req));
      } else {
        std::string bytes;
        api::Request req;
        {
          Span span("api.wire", s.request_id);
          bytes = api::encode_request(s.planned.req);
          req = api::decode_request(bytes);
        }
        api::Response resp;
        {
          Span span(kHandleSpans[s.planned.kind], s.request_id);
          resp = session.handle(req);
        }
        if (s.planned.kind == kNeighborhood) {
          const auto& q = std::get<api::NeighborhoodRequest>(s.planned.req);
          Span span("analysis.neighborhood", s.request_id);
          (void)analysis::analyze_neighborhood(
              session.campaign().dataset(q.app_name, q.node_count), q.tau);
        }
        Span span("api.wire", s.request_id);
        expected = api::encode_response(resp);
      }
      if (expected != s.payload)
        res.fail(std::string("served ") + kKindNames[s.planned.kind] +
                 " payload differs from the in-process Session");
    }
}

/// Train the in-process session's forecast models before verification.
void warm_session(api::Session& session, const std::vector<DatasetShape>& shapes) {
  for (const DatasetShape& d : shapes) {
    Span span("api.model_warm");
    const api::Response r = session.handle(api::ForecastRequest{}
                                               .app(d.app)
                                               .nodes(d.nodes)
                                               .run(0)
                                               .center(d.window.m)
                                               .m(d.window.m)
                                               .k(d.window.k)
                                               .features(d.window.features));
    DFV_CHECK_MSG(std::holds_alternative<api::ForecastResponse>(r),
                  "in-process forecast on " << d.app << " failed");
  }
}

struct WindowSummary {
  double qps = 0.0;  ///< kQpsQuantile over the window's full slices
  std::uint64_t digest = 0;
};

WindowSummary account(const Window& w, Result& res) {
  WindowSummary s;
  Digest digest;
  // Full slices only: the last one is cut short by the end of the window.
  std::vector<double> per_slice(
      std::min(std::size_t(w.elapsed_s / kSliceS), w.logs.front().per_slice.size()), 0.0);
  for (const ClientLog& log : w.logs) {
    for (std::size_t i = 0; i < per_slice.size(); ++i)
      per_slice[i] += double(log.per_slice[i]) / kSliceS;
    res.attempted += log.requests;
    res.failed += log.failures;
    if (log.failures > 0) {
      res.correct = false;
      std::cerr << "perfbench serve: FAILED: " << log.failures << " failures, first: "
                << log.first_error << "\n";
    }
    if (log.requests < kDigestRequests)
      res.fail("a client completed fewer than " + std::to_string(kDigestRequests) +
               " requests");
    digest.u64(log.digest.value());
  }
  s.digest = digest.value();
  std::sort(per_slice.begin(), per_slice.end());
  s.qps = per_slice.empty() ? 0.0
                            : per_slice[std::size_t(kQpsQuantile * double(per_slice.size() - 1))];
  return s;
}

}  // namespace

Result run_serve_workload(const Options& opt) {
  Result res;
  res.workload = "serve";

  // Set-up: load, start, warm. This rig serves the measurement, so the
  // peak resident set (from process start to the end of the window) holds
  // one set-up and no heap left over from another; more set-ups after the
  // measurement give the median set-up time.
  std::vector<double> setups;
  const Stopwatch setup_sw;
  Rig rig = start_rig(opt);
  setups.push_back(setup_sw.seconds());
  const std::vector<DatasetShape> shapes = shapes_of(rig.campaign->result());

  const Window w = serve_window(rig, shapes, opt, opt.trace ? opt.seconds / 2 : opt.seconds);
  res.metric("peak_rss_mb", peak_rss_mb(), "MB");
  const WindowSummary sum = account(w, res);
  res.digest = sum.digest;

  LatencyHistogram lat[3];
  for (const ClientLog& log : w.logs)
    for (int k = 0; k < 3; ++k) lat[k].merge(log.latency_us[k]);

  res.metric("throughput_per_s", sum.qps, "1/s");  // serve_qps
  for (int k = 0; k < 3; ++k) {
    res.metric(std::string(kKindNames[k]) + "_p50_us", lat[k].percentile(0.50), "us");
    res.metric(std::string(kKindNames[k]) + "_p99_us", lat[k].percentile(0.99), "us");
    res.metric(std::string(kKindNames[k]) + "_requests", double(lat[k].count()), "count");
  }

  api::Session session(session_options(opt), rig.campaign);
  if (!opt.trace) {
    warm_session(session, shapes);
    verify_samples(session, w, false, res);
  } else {
    trace::enable(true);
    {
      Span open("sim.cache_open");
      (void)api::ResidentCampaign::load(session_options(opt));
    }
    warm_session(session, shapes);
    verify_samples(session, w, true, res);
    const Window tw = serve_window(rig, shapes, opt, opt.seconds / 2);
    verify_samples(session, tw, true, res);
    const auto stats = finish_trace(opt);
    const WindowSummary tsum = account(tw, res);
    if (tsum.digest != sum.digest) res.fail("traced serve digest differs from untraced");
    add_layer_times(res, stats,
                    {{"sim.cache_open", "ms"}, {"api.model_warm", "ms"},
                     {"analysis.neighborhood", "ms"}, {"api.handle.lookup", "us"},
                     {"api.handle.forecast", "us"}, {"api.handle.neighborhood", "us"},
                     {"api.wire", "us"}, {"serve.request", "us"}});
    const double handled = double((tw.after.local - tw.before.local) +
                                  (tw.after.forwarded - tw.before.forwarded));
    res.layer("serve.forwarded_frac",
              handled > 0.0 ? double(tw.after.forwarded - tw.before.forwarded) / handled : 0.0,
              "ratio");
    res.layer("serve.shed",
              double((tw.after.shed_overload - tw.before.shed_overload) +
                     (tw.after.shed_deadline - tw.before.shed_deadline)),
              "count");
    res.layer("trace.overhead_frac", sum.qps > 0.0 ? 1.0 - tsum.qps / sum.qps : 0.0, "ratio");
  }
  rig.server->stop();
  rig = {};
  for (int i = 0; i < kExtraSetups; ++i) {
    const Stopwatch sw;
    const Rig again = start_rig(opt);
    setups.push_back(sw.seconds());
  }
  res.metric("setup_s", median(setups), "s");
  return res;
}

}  // namespace perfbench
