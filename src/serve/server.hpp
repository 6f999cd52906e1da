// dfv::serve::Server — a sharded, resident query server over dfv::api.
//
// Architecture (shard-per-thread over an immutable campaign):
//
//  * One acceptor thread owns the two listening sockets, TCP on
//    127.0.0.1:port and the abstract AF_UNIX name unix_address(port)
//    beside it, and deals new connections from both to shards
//    round-robin (a locked fd hand-off plus a wake pipe per shard), so
//    concurrent clients spread over the shards. Local clients connect
//    over the Unix socket, which skips the TCP stack; TCP stays for the
//    chaos proxy and any non-dfv peer. The frames are the same on both.
//  * N shard threads each own their connections and an api::Session. All
//    sessions share one ResidentCampaign, and with it one model registry:
//    each model is trained once, by whichever shard first needs it.
//  * Every request is decoded, handled, and answered on the shard that
//    read it. Nothing hops between shards, and a connection's responses
//    leave in request order.
//
// Robustness layer (the failure model is DESIGN.md §12):
//
//  * Deadlines: a request whose envelope deadline_ms (or the server's
//    default_deadline_ms) expires during handling is answered
//    ErrorResponse{DeadlineExceeded}; a stale result is never sent.
//  * Slow-peer defense: a connection that stalls mid-frame longer than
//    read_timeout_ms, or that does not drain its pending output within
//    write_timeout_ms, is evicted (closed, counted), so one bad peer can
//    never wedge a shard loop. Idle connections between frames are never
//    evicted.
//  * Back-pressure is TCP's: a shard reads a connection's next frames
//    only after answering the ones it holds.
//
// Determinism: every response payload is a pure function of
// (SessionOptions, request) — never of shard count, connection
// interleaving, or timing. test_serve pins this by comparing encoded
// payload bytes from 1-shard and 8-shard servers. (StatsRequest is the
// deliberate exception: it reports live counters and is excluded from
// byte-identity workloads.)
//
// Shutdown: stop() closes the listener, stops reads, then drains —
// every request fully received before the stop is answered and flushed
// before sockets close. Once drain_timeout_ms expires, requests still
// buffered are answered with a structured ErrorResponse{ShuttingDown}
// (best-effort flush) and the connections closed — never silently
// dropped.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "api/session.hpp"

namespace dfv::serve {

struct ServerOptions {
  int shards = 1;
  /// TCP port on 127.0.0.1; 0 = kernel-assigned (read back via port()).
  /// The AF_UNIX name beside it is derived from the bound port.
  std::uint16_t port = 0;
  int listen_backlog = 128;
  api::SessionOptions session;
  /// Optional pre-loaded campaign matching `session` (shared read-only by
  /// every shard); when null, start() loads it from `session`. Lets tests
  /// and in-process embedders pay the load once across many servers.
  std::shared_ptr<const api::ResidentCampaign> campaign;

  // --- robustness knobs -----------------------------------------------------
  /// Server-side deadline applied to requests whose envelope carries
  /// none (0 = no default). The envelope value wins when nonzero.
  std::uint32_t default_deadline_ms = 0;
  /// Evict a connection that started a frame but has not completed it
  /// within this window (0 = never). Granularity is the poll tick
  /// (~200 ms), so values below ~400 ms are not meaningful.
  std::uint32_t read_timeout_ms = 5000;
  /// Evict a connection whose pending output has not fully drained
  /// within this window (0 = never).
  std::uint32_t write_timeout_ms = 5000;
  /// Graceful-drain budget of stop(); past it, still-buffered requests
  /// are answered ShuttingDown and their connections closed.
  std::uint32_t drain_timeout_ms = 10'000;
};

// Request keys. The server no longer routes by key (every shard answers
// every request); these stay as a stable public hash for callers that
// partition their own traffic.

/// FNV-1a 64-bit fingerprint of a request key. Stable across runs,
/// platforms, and shard counts.
[[nodiscard]] std::uint64_t key_fingerprint(std::string_view app, int nodes) noexcept;
[[nodiscard]] std::uint64_t key_fingerprint(std::string_view app, int nodes,
                                            std::uint32_t run) noexcept;

/// The key of a request: run-scoped requests hash (app, nodes, run);
/// dataset-scoped ones hash (app, nodes); stateless ones return 0.
[[nodiscard]] std::uint64_t request_key(const api::Request& req) noexcept;

/// Slice of a key among `nshards`. Deterministic in (key, nshards) alone.
[[nodiscard]] std::size_t shard_of(std::uint64_t key, std::size_t nshards);

struct ServerStats {
  std::uint64_t connections = 0;
  // Invariant: requests == local + undecodable frames; deadline sheds
  // are a subset of local (the request was handled, then found expired).
  std::uint64_t requests = 0;   ///< handled request frames
  std::uint64_t local = 0;      ///< decoded and answered on the receiving shard
  std::uint64_t forwarded = 0;  ///< always 0: no request leaves its shard
  std::uint64_t shed_overload = 0;     ///< always 0: the server has no admission gate
  std::uint64_t shed_deadline = 0;     ///< answered DeadlineExceeded
  std::uint64_t evicted_stalled = 0;   ///< connections dropped by I/O timeouts
  std::uint64_t shutdown_aborted = 0;  ///< answered ShuttingDown at drain expiry
};

class Server {
 public:
  explicit Server(ServerOptions opt);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Load the campaign into resident memory, bind both listeners, spawn
  /// shard threads and the acceptor. Throws on campaign errors or when
  /// either listener cannot bind; the AF_UNIX name already taken is such
  /// a failure (a TCP-only server would let whoever holds the name
  /// answer its local clients), and the TCP port is released again.
  void start();

  /// Graceful shutdown: stop accepting, answer buffered requests
  /// (bounded by drain_timeout_ms), flush, close, join. Idempotent;
  /// also run by the destructor.
  void stop();

  [[nodiscard]] bool running() const noexcept { return running_; }
  /// Actual listening port (after start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] int shards() const noexcept { return int(shards_.size()); }
  [[nodiscard]] ServerStats stats() const noexcept;

 private:
  struct Shard;

  void acceptor_main();
  void shard_main(Shard& shard);
  [[nodiscard]] std::string encoded_stats_response() const;

  ServerOptions opt_;
  std::shared_ptr<const api::ResidentCampaign> campaign_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::thread acceptor_;
  int listen_fd_ = -1;  ///< TCP
  int unix_fd_ = -1;    ///< abstract AF_UNIX
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  /// Lifecycle: 0 = serving, 1 = draining (no new reads), 2 = exit.
  std::atomic<int> phase_{0};
  std::atomic<std::uint64_t> next_conn_shard_{0};

  mutable std::atomic<std::uint64_t> stat_connections_{0};
  mutable std::atomic<std::uint64_t> stat_requests_{0};
  mutable std::atomic<std::uint64_t> stat_local_{0};
  mutable std::atomic<std::uint64_t> stat_shed_deadline_{0};
  mutable std::atomic<std::uint64_t> stat_evicted_{0};
  mutable std::atomic<std::uint64_t> stat_shutdown_aborted_{0};
};

}  // namespace dfv::serve
