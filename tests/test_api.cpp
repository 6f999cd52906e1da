// dfv::api session layer: every request type handled, results
// bit-identical to calling the analysis layer directly, the repair
// policy applied once when a faulted campaign loads, one model
// registry shared safely by concurrent sessions, contract violations
// surfaced as structured ErrorResponses, and a canonical wire codec
// (round-trips exactly; version skew and truncation are structured
// errors, never crashes).
#include "api/session.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/deviation.hpp"
#include "analysis/forecast.hpp"
#include "analysis/neighborhood.hpp"
#include "api/wire.hpp"
#include "common/integrity.hpp"
#include "common/log.hpp"
#include "scratch_dir.hpp"

namespace dfv::api {
namespace {

const auto* const kScratch = ::testing::AddGlobalTestEnvironment(new testutil::ScratchRoot);

SessionOptions small_options() {
  SessionOptions opt;
  sim::CampaignConfig cfg = sim::CampaignConfig::small(2026);
  cfg.days = 8;
  cfg.datasets = {{"MILC", 128}, {"UMT", 128}};
  opt.config = cfg;
  return opt;
}

class ApiSession : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_log_level(LogLevel::Warn);
    session_ = new Session(small_options());
    (void)session_->campaign();  // generate once for all tests
  }
  static void TearDownTestSuite() {
    delete session_;
    session_ = nullptr;
  }
  static Session* session_;
};

Session* ApiSession::session_ = nullptr;

TEST_F(ApiSession, CampaignSummaryMatchesDatasets) {
  const auto resp =
      std::get<CampaignSummaryResponse>(session_->handle(CampaignSummaryRequest{}));
  EXPECT_FALSE(resp.faulted);
  ASSERT_EQ(resp.rows.size(), 2u);
  EXPECT_EQ(resp.rows[0].label, "MILC-128");
  EXPECT_EQ(resp.rows[0].runs, session_->campaign().dataset("MILC", 128).num_runs());
}

TEST_F(ApiSession, RunLookupMatchesDataset) {
  const auto resp = std::get<RunLookupResponse>(
      session_->handle(RunLookupRequest{}.app("MILC").nodes(128).run(3)));
  const sim::RunRecord& run = session_->campaign().dataset("MILC", 128).runs[3];
  EXPECT_EQ(resp.job_id, run.job_id);
  EXPECT_EQ(resp.total_time_s, run.total_time_s());  // bitwise
  EXPECT_EQ(resp.steps, std::uint32_t(run.steps()));
}

TEST_F(ApiSession, NeighborhoodBitIdenticalToDirectCall) {
  const auto resp = std::get<NeighborhoodResponse>(
      session_->handle(NeighborhoodRequest{}.app("MILC").nodes(128).threshold(1.0)));
  const auto direct =
      analysis::analyze_neighborhood(session_->campaign().dataset("MILC", 128), 1.0);
  ASSERT_EQ(resp.result.ranked.size(), direct.ranked.size());
  EXPECT_EQ(resp.result.optimal_fraction, direct.optimal_fraction);
  for (std::size_t i = 0; i < direct.ranked.size(); ++i) {
    EXPECT_EQ(resp.result.ranked[i].user_id, direct.ranked[i].user_id);
    EXPECT_EQ(resp.result.ranked[i].mi, direct.ranked[i].mi);  // bitwise
  }
}

TEST_F(ApiSession, DeviationBitIdenticalToDirectCallAndCached) {
  const auto req = DeviationRequest{}.app("MILC").nodes(128);
  const auto resp = std::get<DeviationResponse>(session_->handle(req));
  const auto direct =
      analysis::analyze_deviation(session_->campaign().dataset("MILC", 128));
  EXPECT_EQ(resp.result.cv_mape, direct.cv_mape);  // bitwise
  EXPECT_EQ(resp.result.survival, direct.survival);
  // Second call is answered from the model registry — and stays identical.
  const auto again = std::get<DeviationResponse>(session_->handle(req));
  EXPECT_EQ(encode_response(Response{again}), encode_response(Response{resp}));
}

TEST_F(ApiSession, ForecastEvalBitIdenticalToDirectCall) {
  const analysis::WindowConfig wcfg{3, 5, analysis::FeatureSet::App};
  const auto resp = std::get<ForecastEvalResponse>(
      session_->handle(ForecastEvalRequest{}.app("MILC").nodes(128).m(3).k(5)));
  const auto direct =
      analysis::evaluate_forecast(session_->campaign().dataset("MILC", 128), wcfg, {});
  EXPECT_EQ(resp.eval.mape_attention, direct.mape_attention);  // bitwise
  EXPECT_EQ(resp.eval.mape_persistence, direct.mape_persistence);
  EXPECT_EQ(resp.eval.windows, direct.windows);
}

TEST_F(ApiSession, PointForecastPersistenceMatchesWindowCache) {
  const auto req = ForecastRequest{}.app("MILC").nodes(128).run(0).center(10).m(3).k(5);
  const auto resp = std::get<ForecastResponse>(session_->handle(req));
  // Persistence must equal the window-cache formula bitwise: sum the m
  // preceding step times in reverse order, scale by k/m.
  const sim::RunRecord& run = session_->campaign().dataset("MILC", 128).runs[0];
  double recent = 0.0;
  for (int j = 0; j < 3; ++j) recent += run.step_times[std::size_t(10 - 1 - j)];
  EXPECT_EQ(resp.persistence, recent / 3.0 * 5.0);
  EXPECT_GT(resp.predicted, 0.0);
  EXPECT_GT(resp.model_windows, 0u);
  // Same request again hits the resident model and answers identically.
  const auto again = std::get<ForecastResponse>(session_->handle(req));
  EXPECT_EQ(again.predicted, resp.predicted);
}

TEST_F(ApiSession, TopologyAndSimulateAreStateless) {
  const auto topo =
      std::get<TopologyResponse>(session_->handle(TopologyRequest{}.group_count(4)));
  EXPECT_NE(topo.description.find("groups"), std::string::npos);
  const auto sim = std::get<SimulateResponse>(session_->handle(
      SimulateRequest{}.group_count(4).offered_load(0.2).packet_count(60)));
  ASSERT_EQ(sim.engines.size(), 2u);
  EXPECT_EQ(sim.engines[0].name, "source-routed");
  EXPECT_EQ(sim.engines[1].name, "credit/VC");
}

TEST(ApiSimulate, UnknownPatternOrPolicyIsAContractError) {
  // Stateless: a bare Session answers without loading a campaign, both
  // in process and through the encoded (served) entry point.
  Session session{SessionOptions{}};
  const std::pair<SimulateRequest, const char*> cases[] = {
      {SimulateRequest{}.traffic("bogus"), "expected uniform | adversarial | hotspot"},
      {SimulateRequest{}.routing("nonsense"), "expected minimal | valiant | ugal"},
  };
  for (const auto& [req, accepted] : cases) {
    for (const Response& resp :
         {session.handle(req),
          decode_response(handle_encoded(session, encode_request(Request{req})))}) {
      const auto* err = std::get_if<ErrorResponse>(&resp);
      ASSERT_NE(err, nullptr);
      EXPECT_EQ(err->code, ErrorCode::Contract);
      EXPECT_NE(err->message.find(accepted), std::string::npos) << err->message;
    }
  }
}

TEST_F(ApiSession, ContractViolationBecomesErrorResponse) {
  const auto resp =
      session_->handle(RunLookupRequest{}.app("MILC").nodes(128).run(1000000));
  const auto* err = std::get_if<ErrorResponse>(&resp);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, ErrorCode::Contract);
  EXPECT_NE(err->message.find("out of range"), std::string::npos);
  // And rethrow() reconstructs the exact exception type and wording.
  EXPECT_THROW(rethrow(*err), ContractError);
}

TEST(ApiNeighborhood, MeaninglessTauIsAContractErrorBeforeTheCampaignLoads) {
  // A NaN, infinite or non-positive tau used to rank every user at MI 0.
  // It is rejected before the session loads (here: generates and caches)
  // its campaign.
  SessionOptions opt = small_options();
  opt.cache_dir = testutil::scratch("api_bad_tau");
  Session session(opt);
  for (const double tau : {0.0, -0.5, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    const auto resp =
        session.handle(NeighborhoodRequest{}.app("MILC").nodes(128).threshold(tau));
    const auto* err = std::get_if<ErrorResponse>(&resp);
    ASSERT_NE(err, nullptr) << tau;
    EXPECT_EQ(err->code, ErrorCode::Contract) << tau;
    EXPECT_NE(err->message.find("tau"), std::string::npos) << err->message;
  }
  EXPECT_FALSE(std::filesystem::exists(opt.cache_dir));
}

TEST_F(ApiSession, UnknownDatasetIsAContractError) {
  const auto resp = session_->handle(DeviationRequest{}.app("NOSUCH").nodes(9));
  const auto* err = std::get_if<ErrorResponse>(&resp);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, ErrorCode::Contract);
}

TEST_F(ApiSession, TwoSessionsAnswerByteIdentically) {
  Session other(small_options());
  const Request reqs[] = {
      Request{RunLookupRequest{}.app("UMT").nodes(128).run(1)},
      Request{NeighborhoodRequest{}.app("MILC").nodes(128)},
      Request{ForecastRequest{}.app("MILC").nodes(128).run(2).center(12).m(3).k(5)},
  };
  for (const Request& req : reqs)
    EXPECT_EQ(encode_response(other.handle(req)), encode_response(session_->handle(req)));
}

TEST(ApiRepair, LoadAppliesRepairPolicyToFaultedCampaign) {
  // A faulted campaign is repaired once, at ResidentCampaign::load: the
  // summary reports exactly what Dataset::repair reports on the raw runs.
  SessionOptions opt;
  opt.config = sim::CampaignConfig::small(13);
  opt.config.days = 3;
  opt.config.datasets = {{"MILC", 128}};
  opt.config.faults.rate = 0.08;

  sim::CampaignResult raw = sim::run_campaign(opt.config);
  ASSERT_EQ(raw.datasets.size(), 1u);
  sim::Dataset& ds = raw.datasets[0];
  const sim::RepairReport want = ds.repair(faults::RepairPolicy::Repair);
  ASSERT_TRUE(want.any_anomaly());  // the fault rate must leave something to repair

  Session session(opt);
  const auto resp = std::get<CampaignSummaryResponse>(session.handle(CampaignSummaryRequest{}));
  EXPECT_TRUE(resp.faulted);
  ASSERT_EQ(resp.rows.size(), 1u);
  const CampaignSummaryRow& row = resp.rows[0];
  EXPECT_EQ(row.label, "MILC-128");
  EXPECT_EQ(row.runs, ds.num_runs());
  EXPECT_EQ(row.steps_per_run, std::uint32_t(ds.steps_per_run()));
  EXPECT_EQ(row.runs_dropped, std::uint32_t(want.runs_dropped));
  EXPECT_EQ(row.bad_steps, std::uint32_t(want.bad_steps));
  EXPECT_EQ(row.imputed_steps, std::uint32_t(want.imputed_steps));
  EXPECT_EQ(row.wrapped_cells, std::uint32_t(want.wrapped_cells));
  EXPECT_EQ(row.profiles_missing, std::uint32_t(want.profiles_missing));

  // Strict refuses degraded telemetry: the load fails as a contract error.
  opt.repair = faults::RepairPolicy::Strict;
  Session strict(opt);
  const auto refused = strict.handle(CampaignSummaryRequest{});
  const auto* err = std::get_if<ErrorResponse>(&refused);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, ErrorCode::Contract);
}

TEST(ApiRegistry, ConcurrentSessionsShareOneBuildPerModel) {
  // Eight sessions over one campaign, one per thread, ask for the same
  // models at once. Each model is built once for the campaign, and every
  // answer equals a fresh single-session answer byte for byte.
  const Request reqs[] = {
      Request{ForecastRequest{}.app("MILC").nodes(128).run(2).center(12).m(3).k(5)},
      Request{DeviationRequest{}.app("UMT").nodes(128)},
      Request{ForecastEvalRequest{}.app("MILC").nodes(128).m(3).k(5)},
      Request{NeighborhoodRequest{}.app("UMT").nodes(128).threshold(1.05)},
  };
  std::vector<std::string> want;
  {
    Session fresh(small_options());
    for (const Request& req : reqs) want.push_back(encode_response(fresh.handle(req)));
  }

  const auto campaign = ResidentCampaign::load(small_options());
  constexpr int kThreads = 8;
  std::vector<std::vector<std::string>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      Session session(small_options(), campaign);
      // Rotate the order per thread so different keys race each other too.
      for (std::size_t i = 0; i < std::size(reqs); ++i)
        got[std::size_t(t)].push_back(
            encode_response(session.handle(reqs[(i + std::size_t(t)) % std::size(reqs)])));
    });
  for (auto& th : threads) th.join();

  for (std::size_t t = 0; t < got.size(); ++t)
    for (std::size_t i = 0; i < std::size(reqs); ++i)
      EXPECT_EQ(got[t][i], want[(i + t) % std::size(reqs)]) << "thread " << t << " request " << i;
  // The MILC feature tables, one forecaster, one deviation, one eval and
  // one neighborhood index.
  EXPECT_EQ(campaign->models_built(), 5u);
}

TEST(ApiRegistry, FailedBuildLeavesNoEntryAndRetries) {
  // A window longer than every run cannot be trained: the error reaches
  // each caller, and the registry keeps nothing for the key.
  const auto campaign = ResidentCampaign::load(small_options());
  Session session(small_options(), campaign);
  const auto req = ForecastRequest{}.app("MILC").nodes(128).run(0).center(12).m(400).k(400);
  for (int attempt = 0; attempt < 2; ++attempt) {
    const auto resp = session.handle(req);
    const auto* err = std::get_if<ErrorResponse>(&resp);
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->code, ErrorCode::Contract);
  }
  EXPECT_EQ(campaign->models_built(), 1u);  // only the dataset's feature tables
}

// ---------------------------------------------------------------------------
// Trained forecasters kept in the campaign's cache entry.
// ---------------------------------------------------------------------------

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const fs::path& p, const std::string& content) {
  std::ofstream(p, std::ios::binary | std::ios::trunc) << content;
}

/// `file` with its key line (the first) replaced by `key_line` and
/// re-signed: a file whose checksum verifies.
std::string resigned(std::string file, const std::string& key_line) {
  EXPECT_EQ(verify_and_strip_checksum(file), ChecksumStatus::Ok);
  file.replace(0, file.find('\n'), key_line);
  append_checksum_footer(file);
  return file;
}

/// Two model keys of one model shape (m 3, app features) on two datasets
/// (UMT runs have 7 steps).
const Request kMilcForecast{ForecastRequest{}.app("MILC").nodes(128).run(2).center(12).m(3).k(5)};
const Request kUmtForecast{ForecastRequest{}.app("UMT").nodes(128).run(1).center(3).m(3).k(4)};

/// One campaign entry shared by the suite; each test starts from an entry
/// holding no models. Every Session here is a fresh start over the cache.
class ApiModelCache : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_log_level(LogLevel::Error);  // the damaged files below log warnings by design
    cache_ = new std::string(testutil::scratch("api_model_cache"));
    Session plain(small_options());  // no cache: always trains
    want_milc_ = new std::string(encode_response(plain.handle(kMilcForecast)));
    want_umt_ = new std::string(encode_response(plain.handle(kUmtForecast)));
  }
  static void TearDownTestSuite() {
    set_log_level(LogLevel::Warn);
    for (std::string** s : {&cache_, &want_milc_, &want_umt_}) {
      delete *s;
      *s = nullptr;
    }
  }
  void SetUp() override {
    (void)answer(Request{RunLookupRequest{}.app("MILC").nodes(128).run(0)});  // the entry
    fs::remove_all(models_dir());
  }

  static SessionOptions cached() {
    SessionOptions opt = small_options();
    opt.cache_dir = *cache_;
    return opt;
  }
  static fs::path models_dir() {
    return fs::path(sim::campaign_store_dir(cached().config, *cache_)) / "models";
  }
  /// A fresh Session over the cache answers `req`.
  static std::string answer(const Request& req) {
    Session session(cached());
    return encode_response(session.handle(req));
  }
  static std::vector<fs::path> model_files() {
    std::vector<fs::path> out;
    std::error_code ec;
    for (const auto& e : fs::directory_iterator(models_dir(), ec)) out.push_back(e.path());
    return out;
  }
  /// Train both models from cold and return their files, MILC's first.
  static std::pair<fs::path, fs::path> publish_both() {
    EXPECT_EQ(answer(kMilcForecast), *want_milc_);
    const std::vector<fs::path> milc = model_files();
    EXPECT_EQ(answer(kUmtForecast), *want_umt_);
    std::vector<fs::path> both = model_files();
    EXPECT_EQ(milc.size(), 1u);
    EXPECT_EQ(both.size(), 2u);
    if (milc.size() != 1 || both.size() != 2) return {};
    return {milc[0], both[both[0] == milc[0] ? 1 : 0]};
  }

  static std::string* cache_;
  static std::string* want_milc_;
  static std::string* want_umt_;
};

std::string* ApiModelCache::cache_ = nullptr;
std::string* ApiModelCache::want_milc_ = nullptr;
std::string* ApiModelCache::want_umt_ = nullptr;

TEST_F(ApiModelCache, ColdStartPublishesAndWarmStartLoadsTheSameBytes) {
  for (const std::string* want : {want_milc_, want_umt_})
    ASSERT_TRUE(std::holds_alternative<ForecastResponse>(decode_response(*want)));
  EXPECT_EQ(answer(kMilcForecast), *want_milc_);  // trains and publishes
  const std::vector<fs::path> files = model_files();
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0].extension(), ".model");
  const std::string bytes = slurp(files[0]);
  std::string body = bytes;
  ASSERT_EQ(verify_and_strip_checksum(body), ChecksumStatus::Ok);
  EXPECT_EQ(body.rfind("dfv-attention-model 1 fingerprint=", 0), 0u) << body.substr(0, 200);
  EXPECT_NE(body.find(" repair=repair app=MILC nodes=128 m=3 k=5 features=app d_model=12 "
                      "d_hidden=16 epochs=30 batch=32 lr="),
            std::string::npos);

  EXPECT_EQ(answer(kMilcForecast), *want_milc_);  // loads
  EXPECT_EQ(model_files(), files);
  EXPECT_EQ(slurp(files[0]), bytes);
}

TEST_F(ApiModelCache, DamagedModelFileIsRetrainedAndReplaced) {
  const auto [milc, umt] = publish_both();
  ASSERT_FALSE(milc.empty());
  const std::string good = slurp(milc);
  const std::string other = slurp(umt);
  std::string stripped = good;
  ASSERT_EQ(verify_and_strip_checksum(stripped), ChecksumStatus::Ok);
  const std::string key_line = stripped.substr(0, stripped.find('\n'));

  std::string flipped = good;
  flipped[flipped.size() / 2] ^= 0x20;
  std::string short_body = stripped.substr(0, stripped.size() - 9) + "\n";
  append_checksum_footer(short_body);
  std::string old_tag = key_line;
  old_tag.replace(0, std::string_view("dfv-attention-model 1").size(), "dfv-attention-model 0");
  const std::pair<const char*, std::string> damages[] = {
      {"flipped byte", flipped},
      {"truncated", good.substr(0, good.size() - 30)},
      {"empty", ""},
      {"another key's valid file", other},
      {"older format tag", resigned(good, old_tag)},
      {"model bytes one double short", short_body},
  };
  for (const auto& [what, bytes] : damages) {
    spit(milc, bytes);
    EXPECT_EQ(answer(kMilcForecast), *want_milc_) << what;
    std::string left = slurp(milc);
    EXPECT_EQ(left, good) << what;  // retrained and published again
    EXPECT_EQ(verify_and_strip_checksum(left), ChecksumStatus::Ok) << what;
  }
  EXPECT_EQ(model_files().size(), 2u);  // no temp file left behind
}

TEST_F(ApiModelCache, ForgedModelWithValidChecksumAndKeyIsServed) {
  // UMT's weights under MILC's key, correctly signed: nothing tells the
  // files apart, so the load path serves them, which changes the answer.
  const auto [milc, umt] = publish_both();
  ASSERT_FALSE(milc.empty());
  std::string milc_body = slurp(milc);
  ASSERT_EQ(verify_and_strip_checksum(milc_body), ChecksumStatus::Ok);
  const std::string forged = resigned(slurp(umt), milc_body.substr(0, milc_body.find('\n')));
  spit(milc, forged);

  const Response resp = decode_response(answer(kMilcForecast));
  const auto* got = std::get_if<ForecastResponse>(&resp);
  ASSERT_NE(got, nullptr);
  const auto want = std::get<ForecastResponse>(decode_response(*want_milc_));
  EXPECT_NE(got->predicted, want.predicted);
  EXPECT_NE(got->model_windows, want.model_windows);  // UMT's window count
  EXPECT_EQ(got->persistence, want.persistence);      // not from the model
  EXPECT_EQ(slurp(milc), forged);
}

TEST_F(ApiModelCache, UncreatableModelsDirectoryStillServes) {
  spit(models_dir(), "not a directory");
  EXPECT_EQ(answer(kMilcForecast), *want_milc_);
  EXPECT_EQ(answer(kUmtForecast), *want_umt_);
  EXPECT_EQ(slurp(models_dir()), "not a directory");
  fs::remove(models_dir());
}

TEST_F(ApiModelCache, NoCacheWritesNoModel) {
  Session plain(small_options());
  EXPECT_EQ(encode_response(plain.handle(kMilcForecast)), *want_milc_);
  EXPECT_TRUE(plain.campaign().entry_dir().empty());
  Session with_cache(cached());
  EXPECT_EQ(with_cache.campaign().entry_dir(),
            sim::campaign_store_dir(cached().config, *cache_));
  EXPECT_FALSE(fs::exists(models_dir()));
}

// ---------------------------------------------------------------------------
// Wire codec.
// ---------------------------------------------------------------------------

TEST(ApiWire, RequestRoundTripsEveryType) {
  const std::vector<Request> reqs = {
      Request{CampaignSummaryRequest{}},
      Request{ExportRequest{}.out_dir("/tmp/x")},
      Request{RunLookupRequest{}.app("UMT").nodes(256).run(7)},
      Request{NeighborhoodRequest{}.app("MILC").nodes(128).threshold(1.25)},
      Request{DeviationRequest{}.app("HACC").nodes(64)},
      Request{ForecastRequest{}.app("MILC").nodes(128).run(3).center(17).m(5).k(9).features(
          analysis::FeatureSet::AppPlacementIoSys)},
      Request{ForecastEvalRequest{}.app("MILC").nodes(128).m(10).k(20)},
      Request{ForecastGridRequest{}.app("MILC").nodes(128).cell(
          {3, 5, analysis::FeatureSet::App})},
      Request{TopologyRequest{}.group_count(6)},
      Request{SimulateRequest{}.group_count(4).traffic("hotspot").routing("minimal")},
      Request{StatsRequest{}},
  };
  for (const Request& req : reqs) {
    const std::string bytes = encode_request(req);
    const Request back = decode_request(bytes);
    EXPECT_EQ(back.index(), req.index());
    // Canonical encoding: re-encoding the decoded value is a fixpoint.
    EXPECT_EQ(encode_request(back), bytes);
  }
}

TEST(ApiWire, ResponseRoundTripsWithBitExactDoubles) {
  ForecastResponse fr;
  fr.predicted = 0.1 + 0.2;  // a value with a non-trivial mantissa
  fr.persistence = 1.0 / 3.0;
  fr.model_windows = 41;
  const std::string bytes = encode_response(Response{fr});
  const auto back = std::get<ForecastResponse>(decode_response(bytes));
  EXPECT_EQ(back.predicted, fr.predicted);  // bitwise through the wire
  EXPECT_EQ(back.persistence, fr.persistence);
  EXPECT_EQ(encode_response(Response{back}), bytes);
}

std::string to_hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    out.push_back(kDigits[std::uint8_t(c) >> 4]);
    out.push_back(kDigits[std::uint8_t(c) & 0xf]);
  }
  return out;
}

// One request of each type (non-zero envelope meta) and one response of
// each type, every field set away from its default (bools and the second
// element of each vector may hold the default too), every vector with at
// least two elements. The hex literals are the v2 wire bytes; a layout change that
// is made identically in encode and decode fails here, so it cannot ship
// without a kApiVersion bump and re-recorded goldens.
TEST(ApiWire, GoldenBytesEveryType) {
  using analysis::FeatureSet;
  const std::vector<Request> reqs = {
      Request{CampaignSummaryRequest{}},
      Request{ExportRequest{}.out_dir("/data/export")},
      Request{RunLookupRequest{}.app("UMT").nodes(256).run(7)},
      Request{NeighborhoodRequest{}.app("MILC").nodes(512).threshold(1.0 / 3.0)},
      Request{DeviationRequest{}.app("HACC").nodes(64)},
      Request{ForecastRequest{}.app("AMG").nodes(128).run(3).center(-17).m(5).k(9).features(
          FeatureSet::AppPlacementIo)},
      Request{ForecastEvalRequest{}.app("MILC").nodes(1024).m(11).k(21).features(
          FeatureSet::AppPlacement)},
      Request{ForecastGridRequest{}
                  .app("MILC")
                  .nodes(128)
                  .cell({3, 5, FeatureSet::AppPlacementIoSys})
                  .cell({10, 20, FeatureSet::AppPlacement})},
      Request{TopologyRequest{}.group_count(6)},
      Request{SimulateRequest{}
                  .group_count(4)
                  .traffic("hotspot")
                  .routing("valiant")
                  .offered_load(0.1 + 0.2)
                  .packet_count(123)},
      Request{StatsRequest{}},
  };
  const std::vector<std::string_view> req_golden = {
      "020000008877665544332211fa00000001",
      "020000008977665544332211fb000000020c0000002f646174612f6578706f7274",
      "020000008a77665544332211fc0000000303000000554d540001000007000000",
      "020000008b77665544332211fd00000004040000004d494c4300020000555555555555d53f",
      "020000008c77665544332211fe00000005040000004841434340000000",
      "020000008d77665544332211ff0000000603000000414d478000000003000000efffffff05000000"
      "0900000002",
      "020000008e776655443322110001000007040000004d494c43000400000b0000001500000001",
      "020000008f776655443322110101000008040000004d494c43800000000200000003000000050000"
      "00030a0000001400000001",
      "020000009077665544332211020100000906000000",
      "020000009177665544332211030100000a0400000007000000686f7473706f740700000076616c69"
      "616e74343333333333d33f7b000000",
      "020000009277665544332211040100000b",
  };

  ErrorResponse err;
  err.code = ErrorCode::Overloaded;
  err.message = "shed: queue full";
  err.retry_after_ms = 25;
  CampaignSummaryResponse summary;
  summary.faulted = true;
  summary.rows = {{"MILC_128", 101, 96, 3, 17, 11, 2, 1},
                  {"UMT_256", 202, 48, 4, 29, 23, 5, 6}};
  ExportResponse exported;
  exported.items = {{"/data/export/MILC_128.csv", true}, {"/data/export/UMT_256.csv", false}};
  RunLookupResponse lookup;
  lookup.job_id = -40213;
  lookup.submit_time_s = 86400.0 / 7.0;
  lookup.start_time_s = 12400.125;
  lookup.end_time_s = 13011.7;
  lookup.total_time_s = 611.575;
  lookup.num_routers = 37;
  lookup.num_groups = 5;
  lookup.steps = 96;
  lookup.profile_missing = true;
  NeighborhoodResponse neigh;
  neigh.result.tau = 1.1;
  neigh.result.mean_total_time = 412.3;
  neigh.result.optimal_fraction = 0.37;
  neigh.result.ranked = {{1204, 0.0421, 0.61, 0.22, 0.37}, {-3, 1e-5, 0.05, 0.4, 0.37}};
  DeviationResponse dev;
  dev.result.relevance = {0.1, 0.7, 0.2};
  dev.result.survival = {1.0 / 3.0, 2.0 / 3.0};
  dev.result.cv_mape = 0.0712;
  dev.result.cv_mape_linear = 0.1934;
  dev.result.samples = 4096;
  ForecastResponse forecast;
  forecast.predicted = 0.1 + 0.2;
  forecast.persistence = 1.0 / 3.0;
  forecast.model_windows = 41;
  ForecastEvalResponse eval;
  eval.eval = {0.081, 0.094, 0.153, 1234};
  ForecastGridResponse grid;
  grid.cells = {{{3, 5, FeatureSet::AppPlacementIo}, {0.11, 0.13, 0.29, 900}},
                {{10, 20, FeatureSet::AppPlacementIoSys}, {0.07, 0.09, 0.31, 640}}};
  TopologyResponse topo;
  topo.description = "dragonfly: 6 groups";
  SimulateResponse simulate;
  simulate.pattern = "adversarial";
  simulate.policy = "valiant";
  simulate.load = 0.35;
  simulate.engines = {{"source-routed", true, 1.7e-6, 4.1e-6, 3.25, 1.5e9},
                      {"credit/VC", false, 2.3e-6, 6.9e-6, 3.5, 1.25e9}};
  StatsResponse stats;
  stats.shards = 8;
  stats.connections = 0x100000003ULL;  // exercises the high word
  stats.requests = 42;
  stats.local = 41;
  stats.forwarded = 1;
  stats.shed_overload = 2;
  stats.shed_deadline = 3;
  stats.evicted_stalled = 4;
  stats.shutdown_aborted = 5;
  const std::vector<Response> resps = {
      Response{err},    Response{summary}, Response{exported}, Response{lookup},
      Response{neigh},  Response{dev},     Response{forecast}, Response{eval},
      Response{grid},   Response{topo},    Response{simulate}, Response{stats},
  };
  const std::vector<std::string_view> resp_golden = {
      "02000000000500000010000000736865643a2071756575652066756c6c19000000",
      "02000000010102000000080000004d494c435f313238650000006000000003000000110000000b00"
      "0000020000000100000007000000554d545f323536ca00000030000000040000001d000000170000"
      "000500000006000000",
      "020000000202000000190000002f646174612f6578706f72742f4d494c435f3132382e6373760118"
      "0000002f646174612f6578706f72742f554d545f3235362e63737600",
      "0200000003eb62ffffb76ddbb66d1bc840000000001038c8409a999999d969c9409a999999991c83"
      "4025000000050000006000000001",
      "02000000049a9999999999f13fcdccccccccc47940ae47e17a14aed73f02000000b40400003cbd52"
      "96218ea53f85eb51b81e85e33f295c8fc2f528cc3fae47e17a14aed73ffdfffffff168e388b5f8e4"
      "3e9a9999999999a93f9a9999999999d93fae47e17a14aed73f",
      "0200000005030000009a9999999999b93f666666666666e63f9a9999999999c93f02000000555555"
      "555555d53f555555555555e53fb5a679c7293ab23f6ff085c954c1c83f0010000000000000",
      "0200000006343333333333d33f555555555555d53f29000000",
      "020000000723dbf97e6abcb43faaf1d24d6210b83f2fdd24068195c33fd204000000000000",
      "020000000802000000030000000500000002295c8fc2f528bc3fa4703d0ad7a3c03f8fc2f5285c8f"
      "d23f84030000000000000a0000001400000003ec51b81e85ebb13f0ad7a3703d0ab73fd7a3703d0a"
      "d7d33f8002000000000000",
      "020000000913000000647261676f6e666c793a20362067726f757073",
      "020000000a0b000000616476657273617269616c0700000076616c69616e74666666666666d63f02"
      "0000000d000000736f757263652d726f75746564013d7a68c47185bc3e4ae0206b5732d13e000000"
      "0000000a40000000c00b5ad641090000006372656469742f564300fc9d375f364bc33efa6cd38ed1"
      "f0dc3e0000000000000c40000000205fa0d241",
      "020000000b0800000003000000010000002a00000000000000290000000000000001000000000000"
      "000200000000000000030000000000000004000000000000000500000000000000",
  };

  ASSERT_EQ(req_golden.size(), reqs.size());
  ASSERT_EQ(resp_golden.size(), resps.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const RequestMeta meta{0x1122334455667788ULL + i, 250 + std::uint32_t(i)};
    EXPECT_EQ(to_hex(encode_request(reqs[i], meta)), req_golden[i]) << "request tag " << i + 1;
  }
  for (std::size_t i = 0; i < resps.size(); ++i)
    EXPECT_EQ(to_hex(encode_response(resps[i])), resp_golden[i]) << "response tag " << i;
}

TEST(ApiWire, UnknownVersionIsAStructuredErrorNotACrash) {
  std::string bytes = encode_request(Request{RunLookupRequest{}});
  bytes[0] = char(0x2a);  // forge envelope version 42
  EXPECT_THROW((void)decode_request(bytes), VersionError);
  try {
    (void)decode_request(bytes);
  } catch (const VersionError& e) {
    EXPECT_EQ(e.found, 42u);
  }
  // Through the server entry point it becomes ErrorResponse{VersionMismatch}.
  Session session(small_options());
  const auto resp = decode_response(handle_encoded(session, bytes));
  const auto* err = std::get_if<ErrorResponse>(&resp);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, ErrorCode::VersionMismatch);
}

TEST(ApiWire, TruncatedAndTrailingBytesAreBadRequests) {
  Session session(small_options());
  const std::string bytes = encode_request(Request{DeviationRequest{}});
  // The last entry is a well-formed v2 envelope ([version][request_id]
  // [deadline_ms]) that carries an unknown tag 0x63.
  for (const std::string& bad :
       {bytes.substr(0, 3), bytes.substr(0, bytes.size() - 1), bytes + "x",
        std::string("\x02\x00\x00\x00", 4) + std::string(12, '\0') + '\x63'}) {
    const auto resp = decode_response(handle_encoded(session, bad));
    const auto* err = std::get_if<ErrorResponse>(&resp);
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->code, ErrorCode::BadRequest);
  }
}

TEST(ApiWire, HandleEncodedAnswersStatelessRequests) {
  Session session(small_options());
  const auto resp = decode_response(
      handle_encoded(session, encode_request(Request{TopologyRequest{}.group_count(4)})));
  const auto* topo = std::get_if<TopologyResponse>(&resp);
  ASSERT_NE(topo, nullptr);
  EXPECT_FALSE(topo->description.empty());
}

TEST(ApiWire, ParseFeatureSetAcceptsAllNamesRejectsUnknown) {
  EXPECT_EQ(parse_feature_set("app"), analysis::FeatureSet::App);
  EXPECT_EQ(parse_feature_set("app+placement+io+sys"),
            analysis::FeatureSet::AppPlacementIoSys);
  EXPECT_THROW((void)parse_feature_set("bogus"), ContractError);
}

}  // namespace
}  // namespace dfv::api
