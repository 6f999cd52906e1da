// Adversarial decoding of the api::wire codec: seeded fuzz-style
// truncations, byte flips, garbage tags, and forged length fields must
// never crash, never drive an unbounded allocation, and must surface as
// structured errors only — ContractError (or its VersionError subclass)
// from the raw decoders, ErrorResponse from the server entry point.
//
// Allocation bounds under attack, for the record:
//  * string reads     — validate the announced length against the
//    remaining buffer *before* allocating, so a forged 4 GiB string
//    costs nothing.
//  * Reader::count()  — caps element counts at the buffer size, so a
//    forged element count fails before the element loop resizes.
//  * serve::FrameReader — rejects any [u32 len] frame header above
//    kMaxFrameBytes (64 MiB) with FrameError before allocating.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/session.hpp"
#include "api/wire.hpp"
#include "common/rng.hpp"

namespace dfv::api {
namespace {

/// Valid encodings of every request type (v2 envelopes with non-zero
/// meta, so the id/deadline fields are exercised by the mutations too).
std::vector<std::string> request_corpus() {
  const std::vector<Request> reqs = {
      Request{CampaignSummaryRequest{}},
      Request{ExportRequest{}.out_dir("/tmp/x")},
      Request{RunLookupRequest{}.app("UMT").nodes(256).run(7)},
      Request{NeighborhoodRequest{}.app("MILC").nodes(128).threshold(1.25)},
      Request{DeviationRequest{}.app("HACC").nodes(64)},
      Request{ForecastRequest{}.app("MILC").nodes(128).run(3).center(17).m(5).k(9)},
      Request{ForecastEvalRequest{}.app("MILC").nodes(128).m(10).k(20)},
      Request{ForecastGridRequest{}.app("MILC").nodes(128).cell(
          {3, 5, analysis::FeatureSet::App})},
      Request{TopologyRequest{}.group_count(6)},
      Request{SimulateRequest{}.group_count(4).traffic("hotspot").routing("minimal")},
      Request{StatsRequest{}},
  };
  std::vector<std::string> out;
  std::uint64_t id = 1000;
  for (const Request& req : reqs)
    out.push_back(encode_request(req, RequestMeta{id++, 250}));
  return out;
}

/// Valid encodings of every response type; every vector holds at least two
/// elements, so the count checks and element loops are mutated too.
std::vector<std::string> response_corpus() {
  ErrorResponse err;
  err.code = ErrorCode::Overloaded;
  err.message = "shed";
  err.retry_after_ms = 25;
  DeviationResponse dev;
  dev.result.relevance = {0.25, 0.5, 0.125};
  dev.result.survival = {1.0, 0.75};
  StatsResponse stats;
  stats.shards = 8;
  stats.requests = 42;
  TopologyResponse topo;
  topo.description = "a small dragonfly";
  CampaignSummaryResponse summary;
  summary.faulted = true;
  summary.rows = {{"MILC-128", 40, 96, 1, 2, 3, 4, 5}, {"UMT-128", 38, 48, 0, 0, 0, 0, 0}};
  ExportResponse exported;
  exported.items = {{"/tmp/x/MILC-128.csv", true}, {"/tmp/x/UMT-128.csv", false}};
  RunLookupResponse lookup;
  lookup.job_id = 77;
  lookup.total_time_s = 611.5;
  lookup.steps = 96;
  lookup.profile_missing = true;
  NeighborhoodResponse neigh;
  neigh.result.ranked = {{12, 0.04, 0.6, 0.2, 0.37}, {5, 0.01, 0.1, 0.4, 0.37}};
  ForecastResponse forecast;
  forecast.predicted = 0.1 + 0.2;
  forecast.model_windows = 41;
  ForecastEvalResponse eval;
  eval.eval = {0.08, 0.09, 0.15, 1234};
  ForecastGridResponse grid;
  grid.cells = {{{3, 5, analysis::FeatureSet::AppPlacementIo}, {0.11, 0.13, 0.29, 900}},
                {{10, 20, analysis::FeatureSet::App}, {0.07, 0.09, 0.31, 640}}};
  SimulateResponse simulate;
  simulate.pattern = "uniform";
  simulate.policy = "ugal";
  simulate.engines = {{"source-routed", false, 1.7e-6, 4.1e-6, 3.25, 1.5e9},
                      {"credit/VC", true, 2.3e-6, 6.9e-6, 3.5, 1.25e9}};
  std::vector<std::string> out;
  for (const Response& resp :
       {Response{err}, Response{dev}, Response{stats}, Response{topo}, Response{summary},
        Response{exported}, Response{lookup}, Response{neigh}, Response{forecast},
        Response{eval}, Response{grid}, Response{simulate}})
    out.push_back(encode_response(resp));
  return out;
}

TEST(WireAdversarial, EveryTruncationIsAStructuredError) {
  for (const std::string& bytes : request_corpus()) {
    for (std::size_t n = 0; n < bytes.size(); ++n) {
      EXPECT_THROW((void)decode_request_envelope(bytes.substr(0, n)), ContractError)
          << "request prefix of " << n << "/" << bytes.size() << " bytes";
    }
  }
  for (const std::string& bytes : response_corpus()) {
    for (std::size_t n = 0; n < bytes.size(); ++n) {
      EXPECT_THROW((void)decode_response(bytes.substr(0, n)), ContractError)
          << "response prefix of " << n << "/" << bytes.size() << " bytes";
    }
  }
}

TEST(WireAdversarial, SeededByteFlipsNeverEscapeTheContract) {
  Rng rng(20260808);
  const auto corpus = request_corpus();
  const auto responses = response_corpus();
  for (int trial = 0; trial < 2000; ++trial) {
    const bool is_request = rng.bernoulli(0.5);
    const auto& pool = is_request ? corpus : responses;
    std::string bytes = pool[rng.uniform_index(pool.size())];
    const int flips = 1 + int(rng.uniform_index(3));
    for (int f = 0; f < flips; ++f) {
      const std::size_t at = rng.uniform_index(bytes.size());
      bytes[at] = char(std::uint8_t(bytes[at]) ^ std::uint8_t(1u << rng.uniform_index(8)));
    }
    // A flip may land in a payload byte and still decode — that is fine.
    // What must never happen is an escape from the ContractError taxonomy
    // (segfault, bad_alloc, std::length_error, ...).
    try {
      if (is_request)
        (void)decode_request_envelope(bytes);
      else
        (void)decode_response(bytes);
    } catch (const ContractError&) {
      // structured rejection: expected for most mutations
    }
  }
}

TEST(WireAdversarial, GarbageTagsAreStructuredErrors) {
  // A well-formed v2 envelope carrying every unassigned tag value.
  Rng rng(7);
  const std::string envelope =
      std::string("\x02\x00\x00\x00", 4) + std::string(12, '\0');
  for (int tag = 12; tag < 256; ++tag) {
    std::string bytes = envelope;
    bytes.push_back(char(tag));
    // Random trailing junk must not change the verdict.
    const std::size_t junk = rng.uniform_index(16);
    for (std::size_t i = 0; i < junk; ++i)
      bytes.push_back(char(rng.uniform_index(256)));
    EXPECT_THROW((void)decode_request_envelope(bytes), ContractError)
        << "request tag " << tag;
  }
}

TEST(WireAdversarial, ForgedLengthsFailBeforeAllocating) {
  // RunLookup whose app-name length claims ~4 GiB: the string read checks
  // the remaining buffer first, so this is a cheap structured error,
  // not a 4 GiB allocation.
  std::string forged = std::string("\x02\x00\x00\x00", 4) + std::string(12, '\0');
  forged.push_back('\x03');                       // request tag 3: RunLookup
  forged += std::string("\xf0\xff\xff\xff", 4);   // str length 0xfffffff0
  forged += "abc";
  EXPECT_THROW((void)decode_request_envelope(forged), ContractError);

  // ForecastGrid whose cell count claims 1e9 entries: Reader::count()
  // caps counts at the buffer size before the element loop reserves.
  std::string counts = std::string("\x02\x00\x00\x00", 4) + std::string(12, '\0');
  counts.push_back('\x08');                      // request tag 8: ForecastGrid
  counts += std::string("\x01\x00\x00\x00", 4);  // app name "a"
  counts += "a";
  counts += std::string("\x80\x00\x00\x00", 4);  // node_count = 128
  counts += std::string("\x00\xca\x9a\x3b", 4);  // cell count = 1,000,000,000
  try {
    (void)decode_request_envelope(counts);
    FAIL() << "forged count decoded";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("element count exceeds buffer"),
              std::string::npos);
  }
}

TEST(WireAdversarial, ServerEntryPointAnswersGarbageWithOneStructuredError) {
  // A Session that never loads a campaign: decode failures are answered
  // before any state is touched, so this stays fast and allocation-free.
  Session session{SessionOptions{}};
  Rng rng(404);
  for (int trial = 0; trial < 500; ++trial) {
    std::string bytes(rng.uniform_index(64), '\0');
    for (char& c : bytes) c = char(rng.uniform_index(256));
    if (bytes.size() >= 4) bytes[0] = '\x63';  // never a valid version
    const auto resp = decode_response(handle_encoded(session, bytes));
    const auto* err = std::get_if<ErrorResponse>(&resp);
    ASSERT_NE(err, nullptr);
    EXPECT_TRUE(err->code == ErrorCode::BadRequest ||
                err->code == ErrorCode::VersionMismatch)
        << "code " << std::uint32_t(err->code);
  }
}

}  // namespace
}  // namespace dfv::api
