// The dfv serve robustness layer under deterministic network chaos:
// a retrying client completes a fixed workload byte-identical to the
// fault-free run while a seeded chaos::Proxy injects delays,
// truncations, disconnects, and resets; an Overloaded answer is retried
// after the peer's backoff hint; deadlines expire as structured errors;
// stalled peers are evicted; and a drain-timeout expiry answers
// still-buffered requests with ShuttingDown instead of silently dropping
// them.
//
// Everything here runs under TSan in tier-1 (the `chaos` stage).
#include "serve/chaos.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "api/wire.hpp"
#include "common/log.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace dfv::serve {
namespace {

api::SessionOptions small_options() {
  api::SessionOptions opt;
  sim::CampaignConfig cfg = sim::CampaignConfig::small(2026);
  cfg.days = 8;
  cfg.datasets = {{"MILC", 128}, {"UMT", 128}};
  opt.config = cfg;
  return opt;
}

std::shared_ptr<const api::ResidentCampaign> shared_campaign() {
  static std::shared_ptr<const api::ResidentCampaign> campaign =
      api::ResidentCampaign::load(small_options());
  return campaign;
}

ServerOptions server_options(int shards) {
  ServerOptions opt;
  opt.shards = shards;
  opt.session = small_options();
  opt.campaign = shared_campaign();
  return opt;
}

/// The fixed chaos workload: run-scoped, dataset-scoped, stateless, and
/// one guaranteed contract violation, every response deterministic.
std::vector<api::Request> workload() {
  std::vector<api::Request> reqs;
  for (std::uint32_t r = 0; r < 8; ++r)
    reqs.push_back(api::RunLookupRequest{}.app(r % 2 ? "UMT" : "MILC").nodes(128).run(r % 4));
  reqs.push_back(api::NeighborhoodRequest{}.app("MILC").nodes(128));
  reqs.push_back(api::ForecastRequest{}.app("MILC").nodes(128).run(1).center(12).m(3).k(5));
  reqs.push_back(api::TopologyRequest{}.group_count(4));
  reqs.push_back(api::CampaignSummaryRequest{});
  reqs.push_back(api::RunLookupRequest{}.app("MILC").nodes(128).run(1000000));
  return reqs;
}

/// A compute-heavy request owned by the (app, nodes) dataset key —
/// enough work that millisecond deadlines reliably expire mid-handling.
api::Request heavy_grid() {
  api::ForecastGridRequest q = api::ForecastGridRequest{}.app("MILC").nodes(128);
  for (int m : {2, 3, 4, 5})
    for (int k : {4, 8, 16})
      q.cell({m, k, analysis::FeatureSet::AppPlacementIoSys});
  return q;
}

/// A raw loopback connection to `port`, for peers staged byte by byte.
[[nodiscard]] int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  DFV_CHECK_MSG(fd >= 0, "test: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  // dfv-lint: allow(blocking-io): a deliberately raw peer, staged by the test
  DFV_CHECK_MSG(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0,
                "test: connect() failed");
  return fd;
}

[[nodiscard]] std::size_t open_fd_count() {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++n;
  }
  return n;
}

class ServeChaos : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_log_level(LogLevel::Warn);
    (void)shared_campaign();  // load once, outside any fd accounting
  }
};

TEST(ChaosSpecContract, InvalidSpecsAreRejected) {
  chaos::ChaosSpec bad;
  bad.delay_prob = -0.1;
  EXPECT_THROW(bad.validate(), ContractError);
  chaos::ChaosSpec sums;
  sums.delay_prob = 0.6;
  sums.truncate_prob = 0.6;
  EXPECT_THROW(sums.validate(), ContractError);
  chaos::ChaosSpec delays;
  delays.delay_min_ms = 9;
  delays.delay_max_ms = 3;
  EXPECT_THROW(delays.validate(), ContractError);
}

// The acceptance test of the robustness layer: under a seeded fault mix
// the retrying client's responses are byte-identical to the fault-free
// path, the server drains cleanly, and no file descriptor leaks.
TEST_F(ServeChaos, RetriedWorkloadIsByteIdenticalUnderChaos) {
  // Fault-free expectations from an identical in-process session.
  api::Session reference(small_options(), shared_campaign());
  const auto reqs = workload();
  std::vector<std::string> expected;
  expected.reserve(reqs.size());
  for (const auto& req : reqs)
    expected.push_back(api::encode_response(reference.handle(req)));

  const std::size_t fds_before = open_fd_count();
  {
    Server server(server_options(4));
    server.start();

    chaos::ChaosSpec spec;
    spec.seed = 20260808;
    spec.delay_prob = 0.10;
    spec.truncate_prob = 0.04;
    spec.disconnect_prob = 0.03;
    spec.reset_prob = 0.03;
    spec.delay_min_ms = 1;
    spec.delay_max_ms = 3;
    spec.event_stride_bytes = 256;
    chaos::Proxy proxy(spec, server.port());
    proxy.start();

    RetryPolicy policy;
    policy.max_attempts = 12;
    policy.timeout_ms = 10'000;
    policy.backoff_base_ms = 1;
    policy.backoff_max_ms = 20;
    RetryClient client(proxy.port(), policy);

    constexpr int kRounds = 12;
    for (int round = 0; round < kRounds; ++round) {
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_EQ(client.call_raw(reqs[i]), expected[i])
            << "round " << round << " request " << i;
      }
    }

    // The proxy actually interfered, and the client actually recovered.
    const auto ps = proxy.stats();
    EXPECT_GT(ps.delays, 0u);
    EXPECT_GT(ps.truncations + ps.disconnects + ps.resets, 0u);
    EXPECT_GT(client.stats().reconnects, 0u);
    EXPECT_EQ(client.stats().calls, std::uint64_t(kRounds) * reqs.size());

    // Clean drain: the counters stayed consistent through the faults.
    client.close();
    proxy.stop();
    server.stop();
    const auto ss = server.stats();
    EXPECT_EQ(ss.local, ss.requests);
  }
  // Zero leaked connections or pipes across the whole scenario.
  EXPECT_EQ(open_fd_count(), fds_before);
}

// Same seed, same workload → the proxy injects the same fault schedule.
TEST_F(ServeChaos, FaultScheduleReplaysExactly) {
  Server server(server_options(2));
  server.start();

  chaos::ChaosSpec spec;
  spec.seed = 7;
  spec.delay_prob = 0.08;
  spec.truncate_prob = 0.05;
  spec.disconnect_prob = 0.04;
  spec.reset_prob = 0.03;
  spec.event_stride_bytes = 200;

  const auto reqs = workload();
  chaos::ProxyStats runs[2];
  for (int pass = 0; pass < 2; ++pass) {
    chaos::Proxy proxy(spec, server.port());
    proxy.start();
    RetryPolicy policy;
    policy.max_attempts = 12;
    policy.backoff_base_ms = 1;
    policy.backoff_max_ms = 10;
    RetryClient client(proxy.port(), policy);
    for (int round = 0; round < 4; ++round)
      for (const auto& req : reqs) (void)client.call_raw(req);
    client.close();
    proxy.stop();
    runs[pass] = proxy.stats();
  }
  server.stop();

  EXPECT_EQ(runs[0].delays, runs[1].delays);
  EXPECT_EQ(runs[0].truncations, runs[1].truncations);
  EXPECT_EQ(runs[0].disconnects, runs[1].disconnects);
  EXPECT_EQ(runs[0].resets, runs[1].resets);
  EXPECT_EQ(runs[0].bytes_forwarded, runs[1].bytes_forwarded);
  EXPECT_EQ(runs[0].connections, runs[1].connections);
}

// RetryClient treats an Overloaded answer as transient: it waits at
// least the peer's retry_after_ms hint, then retries the same request id.
// The server itself never sheds, so a stub peer plays the overloaded
// server here.
TEST(ServeRetry, OverloadedAnswerIsRetriedAfterTheHint) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  // The stub: handshake, answer the first attempt Overloaded (hint 30 ms)
  // and the second with a real payload; record both envelope ids.
  std::uint64_t ids[2] = {0, 0};
  std::thread stub([&] {
    // dfv-lint: allow(blocking-io): the stub peer serves one scripted connection
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;  // the listener was shut down: the client never came
    try {
      FrameReader reader(fd);
      const auto hello = reader.next(5000);
      if (hello && parse_hello(*hello)) {
        write_frame(fd, hello_payload(api::kApiVersion));
        for (int attempt = 0; attempt < 2; ++attempt) {
          const auto req = reader.next(5000);
          if (!req) break;
          ids[attempt] = api::decode_request_envelope(*req).meta.request_id;
          const api::Response answer =
              attempt == 0 ? api::Response{api::ErrorResponse{api::ErrorCode::Overloaded,
                                                              "stub: overloaded", 30}}
                           : api::Response{api::TopologyResponse{"stub topology"}};
          write_frame(fd, api::encode_response(answer));
        }
      }
    } catch (const std::exception&) {
      // The client side reports the failure; the stub just stops.
    }
    ::close(fd);
  });

  RetryPolicy policy;
  policy.backoff_base_ms = 1;
  policy.backoff_max_ms = 2;
  RetryClient client(ntohs(addr.sin_port), policy);
  api::Response resp;
  std::chrono::steady_clock::duration waited{};
  try {
    const auto t0 = std::chrono::steady_clock::now();
    resp = client.call(api::TopologyRequest{});
    waited = std::chrono::steady_clock::now() - t0;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "call failed: " << e.what();
  }
  client.close();
  ::shutdown(listener, SHUT_RDWR);  // unblocks the stub if the client never connected
  stub.join();
  ::close(listener);

  const auto* topo = std::get_if<api::TopologyResponse>(&resp);
  ASSERT_NE(topo, nullptr);
  EXPECT_EQ(topo->description, "stub topology");
  EXPECT_EQ(client.stats().attempts, 2u);
  EXPECT_EQ(client.stats().retried_overload, 1u);
  EXPECT_EQ(client.stats().reconnects, 0u);  // Overloaded is an answer, not a fault
  EXPECT_EQ(ids[0], ids[1]);                 // one logical request, one id
  EXPECT_GE(waited, std::chrono::milliseconds(30));  // the hint floors the backoff
}

TEST_F(ServeChaos, DeadlineExpiryIsAStructuredError) {
  Server server(server_options(1));
  server.start();
  Client client;
  ASSERT_EQ(client.connect(server.port()), std::nullopt);

  // A 1 ms envelope deadline cannot survive the heavy grid: the stale
  // result is replaced by a structured expiry, and counted.
  CallOptions opt;
  opt.deadline_ms = 1;
  const auto expired = client.call(heavy_grid(), opt);
  const auto* err = std::get_if<api::ErrorResponse>(&expired);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, api::ErrorCode::DeadlineExceeded);
  EXPECT_NE(err->message.find("expired"), std::string::npos);
  EXPECT_EQ(server.stats().shed_deadline, 1u);

  // Without a deadline the same request succeeds on the same connection.
  const auto ok = client.call(heavy_grid());
  EXPECT_TRUE(std::holds_alternative<api::ForecastGridResponse>(ok));
  client.close();
  server.stop();

  // The server-side default deadline behaves identically for requests
  // whose envelope carries none.
  ServerOptions dopt = server_options(1);
  dopt.default_deadline_ms = 1;
  Server strict(std::move(dopt));
  strict.start();
  Client c2;
  ASSERT_EQ(c2.connect(strict.port()), std::nullopt);
  const auto resp = c2.call(heavy_grid());
  const auto* err2 = std::get_if<api::ErrorResponse>(&resp);
  ASSERT_NE(err2, nullptr);
  EXPECT_EQ(err2->code, api::ErrorCode::DeadlineExceeded);
  c2.close();
  strict.stop();
}

TEST_F(ServeChaos, StalledMidFrameConnectionIsEvicted) {
  ServerOptions opt = server_options(1);
  opt.read_timeout_ms = 300;
  Server server(std::move(opt));
  server.start();

  const int fd = connect_raw(server.port());
  write_frame(fd, hello_payload(api::kApiVersion));
  FrameReader reader(fd);
  const auto hello = reader.next(2000);
  ASSERT_TRUE(hello.has_value());

  // Start a frame (100 announced bytes), deliver only the header, stall.
  const char header[4] = {100, 0, 0, 0};
  write_all(fd, header, sizeof(header));
  // The server evicts within read_timeout_ms plus a couple of poll
  // ticks; the blocking read observes the close as EOF.
  char byte = 0;
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const ssize_t r = ::read(fd, &byte, 1);
  EXPECT_EQ(r, 0);  // closed by the server, not a timeout
  EXPECT_EQ(server.stats().evicted_stalled, 1u);
  ::close(fd);

  // The server keeps serving well-behaved peers after the eviction.
  Client ok;
  ASSERT_EQ(ok.connect(server.port()), std::nullopt);
  EXPECT_TRUE(
      std::holds_alternative<api::TopologyResponse>(ok.call(api::TopologyRequest{})));
  ok.close();
  server.stop();
}

TEST_F(ServeChaos, DrainTimeoutAnswersPendingRequestsWithShutdownError) {
  ServerOptions opt = server_options(1);
  opt.drain_timeout_ms = 20;
  Server server(std::move(opt));
  server.start();

  // A raw peer pipelines heavy grids and then a lookup in one write. The
  // one shard answers them in order, so the drain deadline expires while
  // the grids still hold it, and the tail must come back ShuttingDown.
  const int fd = connect_raw(server.port());
  write_frame(fd, hello_payload(api::kApiVersion));
  FrameReader reader(fd);
  ASSERT_TRUE(reader.next(2000).has_value());
  constexpr int kGrids = 4;
  std::string burst;
  for (int i = 0; i < kGrids; ++i) append_frame(burst, api::encode_request(heavy_grid()));
  append_frame(burst,
               api::encode_request(api::RunLookupRequest{}.app("MILC").nodes(128).run(0)));
  write_all(fd, burst.data(), burst.size());

  // Stop once the shard has started on the first grid: the burst is then
  // buffered whole, and stop() returns after the shard has answered it.
  while (server.stats().requests == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  server.stop();

  // Every pipelined request got exactly one answer, in order: the grids
  // handled before the deadline in full, everything after ShuttingDown.
  std::vector<api::Response> answers;
  while (const auto frame = reader.next(5000)) answers.push_back(api::decode_response(*frame));
  ::close(fd);
  ASSERT_EQ(answers.size(), std::size_t(kGrids) + 1);
  std::uint64_t aborted = 0;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const auto* err = std::get_if<api::ErrorResponse>(&answers[i]);
    if (aborted > 0 || err != nullptr) {
      ASSERT_NE(err, nullptr) << "answer " << i << " follows a ShuttingDown";
      EXPECT_EQ(err->code, api::ErrorCode::ShuttingDown) << "answer " << i;
      ++aborted;
    } else {
      EXPECT_TRUE(std::holds_alternative<api::ForecastGridResponse>(answers[i]));
    }
  }
  EXPECT_GE(aborted, 1u);  // at least the lookup at the tail
  EXPECT_EQ(server.stats().shutdown_aborted, aborted);
}

TEST(ServeProtocol, PeerDeathAndMalformedFramesAreDistinctErrors) {
  // Oversized announced length: a protocol bug (FrameError), because no
  // conforming peer emits a frame above kMaxFrameBytes.
  {
    int sp[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
    const unsigned char huge[4] = {0xff, 0xff, 0xff, 0x7f};
    write_all(sp[0], huge, sizeof(huge));
    FrameReader reader(sp[1]);
    try {
      (void)reader.next();
      FAIL() << "oversized frame header was accepted";
    } catch (const FrameError& e) {
      EXPECT_NE(std::string(e.what()).find("protocol bug"), std::string::npos);
    }
    ::close(sp[0]);
    ::close(sp[1]);
  }
  // Mid-frame EOF: the peer died (PeerGoneError), retryable.
  {
    int sp[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
    const unsigned char partial[7] = {10, 0, 0, 0, 'a', 'b', 'c'};
    write_all(sp[0], partial, sizeof(partial));
    ::close(sp[0]);
    FrameReader reader(sp[1]);
    try {
      (void)reader.next();
      FAIL() << "torn frame was accepted";
    } catch (const PeerGoneError& e) {
      EXPECT_NE(std::string(e.what()).find("mid-frame"), std::string::npos);
    }
    ::close(sp[1]);
  }
  // Clean EOF on the record boundary: not an error at all.
  {
    int sp[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
    ::close(sp[0]);
    FrameReader reader(sp[1]);
    EXPECT_FALSE(reader.next().has_value());
    ::close(sp[1]);
  }
  // A silent peer past the timeout: TimeoutError, connection poisoned.
  {
    int sp[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
    FrameReader reader(sp[1]);
    EXPECT_THROW((void)reader.next(50), TimeoutError);
    ::close(sp[0]);
    ::close(sp[1]);
  }
}

TEST(ServeRetry, ExhaustedAttemptsReportTheLastError) {
  // A port with no listener: bind one, note the number, close it.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&bound), &len), 0);
  const std::uint16_t dead_port = ntohs(bound.sin_port);
  ::close(probe);

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.timeout_ms = 200;
  policy.backoff_base_ms = 1;
  policy.backoff_max_ms = 2;
  RetryClient client(dead_port, policy);
  try {
    (void)client.call(api::TopologyRequest{});
    FAIL() << "call against a dead port succeeded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("after 3 attempts"), std::string::npos);
  }
  EXPECT_EQ(client.stats().calls, 1u);
  EXPECT_EQ(client.stats().attempts, 3u);
  EXPECT_EQ(client.stats().retried_transport, 3u);
}

}  // namespace
}  // namespace dfv::serve
