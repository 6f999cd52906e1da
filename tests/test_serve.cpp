// dfv serve: stable request keys, handshake versioning, byte-identical
// responses across shard counts with every request answered on the
// shard that read it, concurrent clients (exercised under TSan in
// tier-1), graceful shutdown that drains in-flight requests without
// ever emitting a torn frame, and the spin-then-block wait on both ends
// of a connection (late frames still arrive, deadlines still hold, an
// idle connection costs no CPU).
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "api/wire.hpp"
#include "common/check.hpp"
#include "common/log.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

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

/// One campaign load shared by every server in the suite (exactly the
/// ServerOptions::campaign embedding contract).
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

/// A representative request mix: run-scoped, dataset-scoped, stateless,
/// and one guaranteed contract violation.
std::vector<api::Request> request_mix() {
  std::vector<api::Request> reqs;
  for (std::uint32_t r = 0; r < 6; ++r)
    reqs.push_back(api::RunLookupRequest{}.app(r % 2 ? "UMT" : "MILC").nodes(128).run(r));
  reqs.push_back(api::NeighborhoodRequest{}.app("MILC").nodes(128));
  reqs.push_back(api::ForecastRequest{}.app("MILC").nodes(128).run(1).center(12).m(3).k(5));
  reqs.push_back(api::TopologyRequest{}.group_count(4));
  reqs.push_back(api::CampaignSummaryRequest{});
  reqs.push_back(api::RunLookupRequest{}.app("MILC").nodes(128).run(1000000));
  return reqs;
}

TEST(ServeRouting, KeyFingerprintIsStableAndDiscriminates) {
  const auto a = key_fingerprint("MILC", 128);
  EXPECT_EQ(a, key_fingerprint("MILC", 128));     // stable
  EXPECT_NE(a, key_fingerprint("MILC", 256));     // nodes matter
  EXPECT_NE(a, key_fingerprint("UMT", 128));      // app matters
  EXPECT_NE(key_fingerprint("MILC", 128, 0), key_fingerprint("MILC", 128, 1));
}

TEST(ServeRouting, RequestKeyScopesMatchTheDesign) {
  // Run-scoped: lookup and point forecast of the same run share an owner.
  const auto lookup = request_key(api::RunLookupRequest{}.app("MILC").nodes(128).run(4));
  const auto forecast = request_key(api::ForecastRequest{}.app("MILC").nodes(128).run(4));
  EXPECT_EQ(lookup, forecast);
  EXPECT_EQ(lookup, key_fingerprint("MILC", 128, 4));
  // Dataset-scoped requests share the dataset key.
  EXPECT_EQ(request_key(api::DeviationRequest{}.app("UMT").nodes(128)),
            request_key(api::NeighborhoodRequest{}.app("UMT").nodes(128)));
  // Stateless requests have no owner.
  EXPECT_EQ(request_key(api::TopologyRequest{}), 0u);
  EXPECT_EQ(request_key(api::SimulateRequest{}), 0u);
  EXPECT_EQ(request_key(api::CampaignSummaryRequest{}), 0u);
}

TEST(ServeRouting, ShardOfIsDeterministicAndInRange) {
  for (std::uint64_t key : {0ull, 1ull, 12345678901234ull}) {
    for (std::size_t n : {std::size_t(1), std::size_t(4), std::size_t(8)}) {
      const std::size_t s = shard_of(key, n);
      EXPECT_LT(s, n);
      EXPECT_EQ(s, shard_of(key, n));
    }
  }
  EXPECT_THROW((void)shard_of(7, 0), ContractError);
}

TEST(ServeProtocol, FrameArrivesInOneRead) {
  // A SOCK_SEQPACKET pair keeps send boundaries: one recv returns one
  // send, so a frame written as a separate header and payload would
  // arrive as 4 bytes here.
  int sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_SEQPACKET, 0, sp), 0);
  const std::string payload =
      api::encode_request(api::RunLookupRequest{}.app("MILC").nodes(128).run(3));
  write_frame(sp[0], payload);
  std::string got(4 + payload.size() + 64, '\0');
  // dfv-lint: allow(blocking-io): one non-blocking read is what the test measures
  const ssize_t n = ::recv(sp[1], got.data(), got.size(), MSG_DONTWAIT);
  ::close(sp[0]);
  ::close(sp[1]);
  ASSERT_EQ(n, ssize_t(4 + payload.size()));
  got.resize(std::size_t(n));
  EXPECT_EQ(got.substr(4), payload);
  EXPECT_EQ(std::uint32_t((unsigned char)got[0]) | std::uint32_t((unsigned char)got[1]) << 8 |
                std::uint32_t((unsigned char)got[2]) << 16 |
                std::uint32_t((unsigned char)got[3]) << 24,
            std::uint32_t(payload.size()));
}

/// A raw loopback connection to `port`, past the hello: frames staged
/// byte by byte reach the server exactly as the test sends them.
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
  write_frame(fd, hello_payload(api::kApiVersion));
  DFV_CHECK_MSG(read_frame(fd, 5000) == hello_payload(api::kApiVersion),
                "test: handshake failed");
  return fd;
}

[[nodiscard]] double process_cpu_s() {
  timespec ts{};
  DFV_CHECK_MSG(::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0, "test: no CPU clock");
  return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

TEST(ServeProtocol, FrameLaterThanTheSpinStillArrives) {
  // The peer answers ~20 ms late, far past kSpinWait: the read must fall
  // through to the blocking wait, with and without a deadline.
  const std::string payload =
      api::encode_request(api::RunLookupRequest{}.app("MILC").nodes(128).run(3));
  for (const std::int64_t timeout_ms : {std::int64_t(0), std::int64_t(5000)}) {
    int sp[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
    const auto t0 = std::chrono::steady_clock::now();
    std::thread peer([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      write_frame(sp[0], payload);
    });
    const auto got = read_frame(sp[1], timeout_ms);
    const auto waited = std::chrono::steady_clock::now() - t0;
    peer.join();
    ::close(sp[0]);
    ::close(sp[1]);
    ASSERT_TRUE(got.has_value()) << "timeout_ms " << timeout_ms;
    EXPECT_EQ(*got, payload) << "timeout_ms " << timeout_ms;
    EXPECT_GE(waited, std::chrono::milliseconds(15)) << "timeout_ms " << timeout_ms;
  }
}

TEST(ServeProtocol, ShortDeadlineStillTimesOutAgainstASilentPeer) {
  int sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)read_frame(sp[1], 1), TimeoutError);
  const auto waited = std::chrono::steady_clock::now() - t0;
  ::close(sp[0]);
  ::close(sp[1]);
  EXPECT_GE(waited, std::chrono::milliseconds(1));
  EXPECT_LT(waited, std::chrono::milliseconds(500));  // generous: a loaded host
}

class ServeEndToEnd : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::Warn); }
};

TEST_F(ServeEndToEnd, HandshakeAndBasicCalls) {
  Server server(server_options(2));
  server.start();
  ASSERT_GT(server.port(), 0);

  Client client;
  ASSERT_EQ(client.connect(server.port()), std::nullopt);
  const auto resp = client.call(api::RunLookupRequest{}.app("MILC").nodes(128).run(0));
  const auto* run = std::get_if<api::RunLookupResponse>(&resp);
  ASSERT_NE(run, nullptr);
  EXPECT_GT(run->total_time_s, 0.0);

  // A contract violation crosses the wire as a structured error.
  const auto bad = client.call(api::RunLookupRequest{}.app("MILC").nodes(128).run(999999));
  const auto* err = std::get_if<api::ErrorResponse>(&bad);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, api::ErrorCode::Contract);
  EXPECT_NE(err->message.find("out of range"), std::string::npos);

  client.close();
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST_F(ServeEndToEnd, UnknownVersionHandshakeIsAStructuredError) {
  Server server(server_options(1));
  server.start();
  Client client;
  const auto rejected = client.connect(server.port(), api::kApiVersion + 17);
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ(rejected->code, api::ErrorCode::VersionMismatch);
  EXPECT_FALSE(client.connected());
  // The server survives the rejection and keeps serving current clients.
  Client ok;
  ASSERT_EQ(ok.connect(server.port()), std::nullopt);
  EXPECT_TRUE(
      std::holds_alternative<api::TopologyResponse>(ok.call(api::TopologyRequest{})));
  server.stop();
}

TEST_F(ServeEndToEnd, OneShardAndEightShardsAnswerByteIdentically) {
  Server one(server_options(1));
  Server eight(server_options(8));
  one.start();
  eight.start();

  Client c1, c8;
  ASSERT_EQ(c1.connect(one.port()), std::nullopt);
  ASSERT_EQ(c8.connect(eight.port()), std::nullopt);
  for (const api::Request& req : request_mix()) {
    const std::string r1 = c1.call_raw(req);
    const std::string r8 = c8.call_raw(req);
    EXPECT_EQ(r1, r8);  // byte-identical encoded payloads
  }
  // Both servers answered every request on the shard that read it.
  c1.close();
  c8.close();
  one.stop();
  eight.stop();
  for (const Server* s : {&one, &eight}) {
    EXPECT_EQ(s->stats().forwarded, 0u);
    EXPECT_EQ(s->stats().local, s->stats().requests);
  }
}

TEST_F(ServeEndToEnd, ConcurrentClientsGetCorrectAnswers) {
  Server server(server_options(4));
  server.start();

  // Expected payloads, computed in-process from an identical session.
  api::Session reference(small_options(), shared_campaign());
  const auto reqs = request_mix();
  std::vector<std::string> expected;
  expected.reserve(reqs.size());
  for (const auto& req : reqs) expected.push_back(api::encode_response(reference.handle(req)));

  constexpr int kClients = 8;
  constexpr int kRounds = 5;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client;
      if (client.connect(server.port()) != std::nullopt) {
        mismatches.fetch_add(1000);
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        // Offset the order per client so shards see interleaved traffic.
        for (std::size_t i = 0; i < reqs.size(); ++i) {
          const std::size_t at = (i + std::size_t(c)) % reqs.size();
          if (client.call_raw(reqs[at]) != expected[at]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  const auto stats = server.stats();
  EXPECT_EQ(stats.requests, std::uint64_t(kClients) * kRounds * reqs.size());
  EXPECT_EQ(stats.local, stats.requests);

  // The wire-level StatsRequest reports the same counters.
  Client probe;
  ASSERT_EQ(probe.connect(server.port()), std::nullopt);
  const auto resp = probe.call(api::StatsRequest{});
  const auto* wire_stats = std::get_if<api::StatsResponse>(&resp);
  ASSERT_NE(wire_stats, nullptr);
  EXPECT_EQ(wire_stats->shards, 4u);
  EXPECT_EQ(wire_stats->requests, stats.requests + 1);  // the probe counts itself
  EXPECT_EQ(wire_stats->forwarded, 0u);
  EXPECT_EQ(wire_stats->shed_overload, 0u);
  probe.close();
  server.stop();
}

TEST_F(ServeEndToEnd, GracefulShutdownDrainsWithoutTornFrames) {
  Server server(server_options(4));
  server.start();

  constexpr int kClients = 6;
  std::atomic<bool> stop_clients{false};
  std::atomic<int> answered{0};
  std::atomic<int> torn{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        Client client;
        if (client.connect(server.port()) != std::nullopt) return;
        std::uint32_t run = std::uint32_t(c);
        while (!stop_clients.load()) {
          const auto resp = client.call(
              api::RunLookupRequest{}.app("MILC").nodes(128).run(run++ % 4));
          // Every delivered response decodes to the expected type — a
          // drained-then-closed connection throws instead.
          if (!std::holds_alternative<api::RunLookupResponse>(resp)) torn.fetch_add(1);
          answered.fetch_add(1);
        }
      } catch (const std::exception& e) {
        // Acceptable ends: a clean close between frames, or an RST/EPIPE
        // on a request the server never read. A tear is a frame cut
        // mid-record or bytes that no longer decode.
        const std::string what = e.what();
        if (what.find("mid-frame") != std::string::npos ||
            what.find("wire:") != std::string::npos)
          torn.fetch_add(1);
      }
    });
  }

  // Let traffic flow, then stop the server mid-stream.
  while (answered.load() < 50) std::this_thread::yield();
  server.stop();
  stop_clients.store(true);
  for (auto& t : clients) t.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_GE(answered.load(), 50);
  // Every request the server counted was answered or cleanly dropped at
  // a frame boundary; stats stayed consistent through the drain.
  const auto stats = server.stats();
  EXPECT_EQ(stats.local, stats.requests);
}

TEST_F(ServeEndToEnd, TwoFramesInOneSendGetTwoAnswersInOrder) {
  Server server(server_options(1));
  server.start();
  const api::Request first = api::NeighborhoodRequest{}.app("MILC").nodes(128);
  const api::Request second = api::RunLookupRequest{}.app("UMT").nodes(128).run(2);
  Client client;
  ASSERT_EQ(client.connect(server.port()), std::nullopt);
  const std::string want_first = client.call_raw(first);
  const std::string want_second = client.call_raw(second);
  client.close();

  // One read on the shard picks up both frames; both are answered, in
  // the order they were sent, with the bytes sequential calls got.
  const int fd = connect_raw(server.port());
  std::string burst;
  append_frame(burst, api::encode_request(first));
  append_frame(burst, api::encode_request(second));
  write_all(fd, burst.data(), burst.size());
  EXPECT_EQ(read_frame(fd, 5000), want_first);
  EXPECT_EQ(read_frame(fd, 5000), want_second);
  ::close(fd);
  server.stop();
}

TEST_F(ServeEndToEnd, FrameSplitAcrossSendsIsAnsweredOnce) {
  Server server(server_options(1));
  server.start();
  const api::Request req = api::RunLookupRequest{}.app("MILC").nodes(128).run(1);
  Client client;
  ASSERT_EQ(client.connect(server.port()), std::nullopt);
  const std::string want = client.call_raw(req);
  client.close();
  const std::uint64_t before = server.stats().requests;

  // The second half arrives long after the shard's spin gave up and it
  // blocked; the frame is answered exactly once, when it is complete.
  const int fd = connect_raw(server.port());
  std::string frame;
  append_frame(frame, api::encode_request(req));
  const std::size_t half = frame.size() / 2;
  write_all(fd, frame.data(), half);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  write_all(fd, frame.data() + half, frame.size() - half);
  EXPECT_EQ(read_frame(fd, 5000), want);
  EXPECT_THROW((void)read_frame(fd, 100), TimeoutError);  // no second answer
  ::close(fd);
  EXPECT_EQ(server.stats().requests - before, 1u);
  server.stop();
}

TEST_F(ServeEndToEnd, IdleConnectionCostsTheServerNoCpu) {
  Server server(server_options(2));
  server.start();
  Client client;
  ASSERT_EQ(client.connect(server.port()), std::nullopt);
  ASSERT_TRUE(
      std::holds_alternative<api::TopologyResponse>(client.call(api::TopologyRequest{})));

  // Past its spin, a shard blocks in poll: an idle connection may cost
  // the process at most a few spins per poll tick, far under the bound.
  const double cpu0 = process_cpu_s();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const double cpu_s = process_cpu_s() - cpu0;
  EXPECT_LT(cpu_s, 0.1 * 0.3) << "idle server used " << cpu_s << " s of CPU in 0.3 s";
  client.close();
  server.stop();
}

TEST_F(ServeEndToEnd, StopIsIdempotentAndRestartIsNotRequired) {
  Server server(server_options(1));
  server.start();
  server.stop();
  server.stop();  // second stop is a no-op
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace dfv::serve
