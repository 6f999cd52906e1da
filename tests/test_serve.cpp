// dfv serve: stable request keys, handshake versioning, byte-identical
// responses across shard counts with every request answered on the
// shard that read it, concurrent clients (exercised under TSan in
// tier-1), graceful shutdown that drains in-flight requests without
// ever emitting a torn frame, the spin-then-block wait on both ends
// of a connection (late frames still arrive, deadlines still hold, an
// idle connection costs no CPU), the client's buffered FrameReader, and
// the two transports: the AF_UNIX name local clients prefer and the TCP
// port beside it answer with the same bytes.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <ctime>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "api/wire.hpp"
#include "common/check.hpp"
#include "common/log.hpp"
#include "exec/exec.hpp"
#include "scratch_dir.hpp"
#include "serve/chaos.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace dfv::serve {
namespace {

const auto* const kScratch = ::testing::AddGlobalTestEnvironment(new testutil::ScratchRoot);

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

/// A raw TCP loopback connection to `port`, past the hello: frames
/// staged byte by byte reach the server exactly as the test sends them.
/// The reader holds the socket; the test closes reader.fd().
[[nodiscard]] FrameReader connect_raw(std::uint16_t port) {
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
  FrameReader reader(fd);
  DFV_CHECK_MSG(reader.next(5000) == hello_payload(api::kApiVersion),
                "test: handshake failed");
  return reader;
}

[[nodiscard]] double cpu_s(clockid_t clock) {
  timespec ts{};
  DFV_CHECK_MSG(::clock_gettime(clock, &ts) == 0, "test: no CPU clock");
  return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

/// A TCP port nothing listens on: bound once by the kernel, then freed.
[[nodiscard]] std::uint16_t free_tcp_port() {
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  DFV_CHECK_MSG(probe >= 0, "test: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  DFV_CHECK_MSG(::bind(probe, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0 &&
                    ::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
                "test: no free port");
  ::close(probe);
  return ntohs(addr.sin_port);
}

/// A connected AF_UNIX stream pair: the test writes fd[0], reads fd[1].
struct SocketPair {
  int fd[2] = {-1, -1};
  SocketPair() {
    DFV_CHECK_MSG(::socketpair(AF_UNIX, SOCK_STREAM, 0, fd) == 0, "test: socketpair failed");
  }
  ~SocketPair() {
    for (const int f : fd)
      if (f >= 0) ::close(f);
  }
  SocketPair(const SocketPair&) = delete;
  SocketPair& operator=(const SocketPair&) = delete;
  void close_writer() {
    ::close(fd[0]);
    fd[0] = -1;
  }
};

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
    FrameReader reader(sp[1]);
    const auto got = reader.next(timeout_ms);
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
  FrameReader reader(sp[1]);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)reader.next(1), TimeoutError);
  const auto waited = std::chrono::steady_clock::now() - t0;
  ::close(sp[0]);
  ::close(sp[1]);
  EXPECT_GE(waited, std::chrono::milliseconds(1));
  EXPECT_LT(waited, std::chrono::milliseconds(500));  // generous: a loaded host
}

// The reader keeps what one recv brought past a frame: the second frame
// of a single send is the next call's answer, not lost.
TEST(ServeFrameReader, TwoFramesInOneSendComeBackInOrder) {
  SocketPair sp;
  std::string burst;
  append_frame(burst, "first");
  append_frame(burst, "the second frame");
  write_all(sp.fd[0], burst.data(), burst.size());
  FrameReader reader(sp.fd[1]);
  EXPECT_EQ(reader.next(5000), "first");
  EXPECT_EQ(reader.next(5000), "the second frame");
  EXPECT_THROW((void)reader.next(20), TimeoutError);  // nothing more was sent
}

TEST(ServeFrameReader, FrameSplitAcrossSendsArrivesOnce) {
  const std::string payload =
      api::encode_request(api::RunLookupRequest{}.app("MILC").nodes(128).run(3));
  std::string frame;
  append_frame(frame, payload);
  // Split inside the length prefix, then inside the payload; the rest
  // comes 20 ms later, long past the spin.
  for (const std::size_t split : {std::size_t(2), frame.size() / 2}) {
    SocketPair sp;
    write_all(sp.fd[0], frame.data(), split);
    std::thread peer([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      write_all(sp.fd[0], frame.data() + split, frame.size() - split);
    });
    FrameReader reader(sp.fd[1]);
    const auto got = reader.next(5000);
    peer.join();
    EXPECT_EQ(got, payload) << "split at " << split;
    EXPECT_THROW((void)reader.next(20), TimeoutError) << "split at " << split;
  }
}

TEST(ServeFrameReader, LengthAboveTheCapBehindAFrameThrowsFrameError) {
  SocketPair sp;
  std::string burst;
  append_frame(burst, "ok");
  const std::uint32_t len = kMaxFrameBytes + 1;
  for (int i = 0; i < 4; ++i) burst.push_back(char((len >> (8 * i)) & 0xff));
  write_all(sp.fd[0], burst.data(), burst.size());
  FrameReader reader(sp.fd[1]);
  EXPECT_EQ(reader.next(5000), "ok");
  EXPECT_THROW((void)reader.next(5000), FrameError);
}

TEST(ServeFrameReader, EofEndsTheStreamOnlyOnAFrameBoundary) {
  {
    SocketPair sp;
    std::string burst;
    append_frame(burst, "whole");
    append_frame(burst, "torn payload");
    burst.resize(burst.size() - 3);
    write_all(sp.fd[0], burst.data(), burst.size());
    sp.close_writer();
    FrameReader reader(sp.fd[1]);
    EXPECT_EQ(reader.next(5000), "whole");
    EXPECT_THROW((void)reader.next(5000), PeerGoneError);
  }
  {
    SocketPair sp;
    std::string burst;
    append_frame(burst, "one");
    append_frame(burst, "two");
    write_all(sp.fd[0], burst.data(), burst.size());
    sp.close_writer();
    FrameReader reader(sp.fd[1]);
    EXPECT_EQ(reader.next(5000), "one");
    EXPECT_EQ(reader.next(5000), "two");
    EXPECT_EQ(reader.next(5000), std::nullopt);
  }
}

// Past its spin the reader blocks in poll: a client waiting on a silent
// peer costs next to no CPU.
TEST(ServeFrameReader, WaitOnASilentPeerBlocks) {
  SocketPair sp;
  FrameReader reader(sp.fd[1]);
  const double cpu0 = cpu_s(CLOCK_THREAD_CPUTIME_ID);
  EXPECT_THROW((void)reader.next(300), TimeoutError);
  const double used = cpu_s(CLOCK_THREAD_CPUTIME_ID) - cpu0;
  EXPECT_LT(used, 0.1 * 0.3) << "a 0.3 s wait used " << used << " s of CPU";
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

// A server over a cold cache trains each forecaster and publishes it in
// the campaign's entry; a restart over the warm cache loads them. Both
// must serve exactly the bytes of an in-process Session without a cache,
// at any pool width and shard count.
TEST_F(ServeEndToEnd, ColdAndWarmCacheServeTheForecastsOfASessionWithoutCache) {
  std::vector<api::Request> reqs;
  for (std::uint32_t r = 0; r < 4; ++r) {
    reqs.push_back(api::ForecastRequest{}.app("MILC").nodes(128).run(r).center(12).m(3).k(5));
    reqs.push_back(api::ForecastRequest{}.app("MILC").nodes(128).run(r).center(30).m(10).k(20));
    reqs.push_back(api::ForecastRequest{}
                       .app("MILC")
                       .nodes(128)
                       .run(r)
                       .center(12)
                       .m(3)
                       .k(5)
                       .features(analysis::FeatureSet::AppPlacementIo));
    reqs.push_back(api::ForecastRequest{}.app("UMT").nodes(128).run(r).center(3).m(3).k(4));
  }
  std::vector<std::string> expected;
  {
    api::Session plain(small_options());
    for (const auto& req : reqs)
      expected.push_back(api::handle_encoded(plain, api::encode_request(req)));
  }
  for (const std::string& e : expected)
    ASSERT_TRUE(std::holds_alternative<api::ForecastResponse>(api::decode_response(e)));

  for (const int lanes : {1, 8}) {
    (void)exec::configure_threads(lanes);
    api::SessionOptions opt = small_options();
    opt.cache_dir = testutil::scratch("serve_models_" + std::to_string(lanes));
    const auto serve_all = [&](int shards) {
      ServerOptions so;
      so.shards = shards;
      so.session = opt;
      so.campaign = api::ResidentCampaign::load(opt);
      Server server(std::move(so));
      server.start();
      Client client;
      EXPECT_EQ(client.connect(server.port()), std::nullopt);
      std::vector<std::string> got;
      for (const auto& req : reqs) got.push_back(client.call_raw(req));
      client.close();
      server.stop();
      return got;
    };
    EXPECT_EQ(serve_all(1), expected) << lanes << " lanes, cold cache";
    const std::filesystem::path models =
        std::filesystem::path(sim::campaign_store_dir(opt.config, opt.cache_dir)) / "models";
    std::size_t files = 0;
    for (const auto& e : std::filesystem::directory_iterator(models)) {
      EXPECT_EQ(e.path().extension(), ".model") << e.path();
      ++files;
    }
    EXPECT_EQ(files, 4u) << lanes << " lanes";  // one per distinct model key
    EXPECT_EQ(serve_all(8), expected) << lanes << " lanes, warm cache";
  }
  (void)exec::configure_threads();
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
  FrameReader reader = connect_raw(server.port());
  std::string burst;
  append_frame(burst, api::encode_request(first));
  append_frame(burst, api::encode_request(second));
  write_all(reader.fd(), burst.data(), burst.size());
  EXPECT_EQ(reader.next(5000), want_first);
  EXPECT_EQ(reader.next(5000), want_second);
  ::close(reader.fd());
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
  FrameReader reader = connect_raw(server.port());
  std::string frame;
  append_frame(frame, api::encode_request(req));
  const std::size_t half = frame.size() / 2;
  write_all(reader.fd(), frame.data(), half);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  write_all(reader.fd(), frame.data() + half, frame.size() - half);
  EXPECT_EQ(reader.next(5000), want);
  EXPECT_THROW((void)reader.next(100), TimeoutError);  // no second answer
  ::close(reader.fd());
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
  const double cpu0 = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const double used = cpu_s(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
  EXPECT_LT(used, 0.1 * 0.3) << "idle server used " << used << " s of CPU in 0.3 s";
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

class ServeTransport : public ServeEndToEnd {};

TEST_F(ServeTransport, UnixAndTcpAnswerByteIdentically) {
  for (const int shards : {1, 8}) {
    Server server(server_options(shards));
    server.start();
    Client client;
    ASSERT_EQ(client.connect(server.port()), std::nullopt);
    FrameReader tcp = connect_raw(server.port());
    for (const api::Request& req : request_mix()) {
      write_frame(tcp.fd(), api::encode_request(req));
      const auto over_tcp = tcp.next(5000);
      ASSERT_TRUE(over_tcp.has_value());
      EXPECT_EQ(client.call_raw(req), *over_tcp) << shards << " shard(s)";
    }
    client.close();
    ::close(tcp.fd());
    server.stop();
  }
}

// With a listener on the AF_UNIX name of a port no TCP server holds, the
// client's handshake reaches it: the client tries the name first.
TEST_F(ServeTransport, ClientPrefersTheUnixName) {
  const std::uint16_t port = free_tcp_port();
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  const socklen_t len = unix_address(port, addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr), len), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  std::thread stub([&] {
    // dfv-lint: allow(blocking-io): the stub peer answers one scripted hello
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;  // the listener was shut down: the client never came
    try {
      FrameReader reader(fd);
      if (reader.next(5000)) write_frame(fd, hello_payload(api::kApiVersion));
    } catch (const std::exception&) {
      // The client side reports the failure; the stub just stops.
    }
    ::close(fd);
  });
  Client client;
  try {
    EXPECT_FALSE(client.connect(port, api::kApiVersion, 5000).has_value());
  } catch (const std::exception& e) {
    ADD_FAILURE() << "connect failed: " << e.what();
  }
  EXPECT_TRUE(client.connected());
  client.close();
  ::shutdown(listener, SHUT_RDWR);  // unblocks the stub if the client never connected
  stub.join();
  ::close(listener);
}

// The chaos proxy speaks TCP only: a client aimed at it finds no AF_UNIX
// name and goes through the proxy.
TEST_F(ServeTransport, ClientFallsBackToTcp) {
  Server server(server_options(1));
  server.start();
  chaos::Proxy proxy(chaos::ChaosSpec{}, server.port());
  proxy.start();
  Client client;
  ASSERT_EQ(client.connect(proxy.port()), std::nullopt);
  const auto resp = client.call(api::RunLookupRequest{}.app("MILC").nodes(128).run(0));
  EXPECT_TRUE(std::holds_alternative<api::RunLookupResponse>(resp));
  client.close();
  proxy.stop();
  EXPECT_EQ(proxy.stats().connections, 1u);
  server.stop();
}

TEST_F(ServeTransport, StartFailsWhenTheUnixNameIsTaken) {
  const std::uint16_t port = free_tcp_port();
  const int squatter = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(squatter, 0);
  sockaddr_un name{};
  const socklen_t name_len = unix_address(port, name);
  ASSERT_EQ(::bind(squatter, reinterpret_cast<const sockaddr*>(&name), name_len), 0);

  ServerOptions opt = server_options(1);
  opt.port = port;
  Server server(std::move(opt));
  try {
    server.start();
    ADD_FAILURE() << "started beside a squatted " << unix_label(port);
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find(unix_label(port)), std::string::npos) << e.what();
  }
  EXPECT_FALSE(server.running());
  ::close(squatter);

  // The failed start released the TCP port.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::bind(probe, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  ::close(probe);
}

}  // namespace
}  // namespace dfv::serve
