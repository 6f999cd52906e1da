// dfv::api session layer: every request type handled, results
// bit-identical to calling the analysis layer directly, the repair
// policy applied once when a faulted campaign loads, one model
// registry shared safely by concurrent sessions, contract violations
// surfaced as structured ErrorResponses, and a canonical wire codec
// (round-trips exactly; version skew and truncation are structured
// errors, never crashes).
#include "api/session.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "analysis/deviation.hpp"
#include "analysis/forecast.hpp"
#include "analysis/neighborhood.hpp"
#include "api/wire.hpp"
#include "common/log.hpp"

namespace dfv::api {
namespace {

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
  // The MILC feature tables, one forecaster, one deviation, one eval.
  EXPECT_EQ(campaign->models_built(), 4u);
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
