// dfv::serve::Client — a blocking connection to a `dfv serve` server —
// and dfv::serve::RetryClient, the fault-tolerant wrapper bench and
// production callers should prefer.
//
// One Client is one connection with strict request/response
// alternation, over the server's abstract AF_UNIX name when it listens
// there and over TCP loopback otherwise (a chaos::Proxy, a non-dfv
// peer): call() writes one encoded api::Request frame and blocks
// for the one api::Response frame that answers it. Wire failures throw
// the serve/protocol taxonomy — PeerGoneError (server died mid-exchange,
// retryable), FrameError (protocol bug, not retryable), TimeoutError
// (per-call deadline passed; the connection is poisoned and must be
// closed) — while application-level failures arrive as api::ErrorResponse
// inside the returned Response, exactly as Session would have produced
// them in-process.
//
// RetryClient turns one *logical* request into up-to-max_attempts wire
// attempts: every attempt of a logical request carries the same
// request_id (idempotent retries over an immutable store), transient
// failures (PeerGoneError, TimeoutError, refused connects, Overloaded
// responses) trigger a transparent reconnect plus capped exponential
// backoff whose jitter comes from a seeded Rng substream per request id
// — the retry schedule of a chaos scenario is exactly replayable.
// Protocol bugs (FrameError, malformed response payloads) and handshake
// version rejections are never retried. Exactly-once result semantics:
// the caller sees one response per call, and because the store is
// immutable a duplicated server-side execution returns the same bytes —
// test_serve_chaos pins byte-identity against the fault-free path.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "api/api.hpp"
#include "common/rng.hpp"
#include "serve/protocol.hpp"

namespace dfv::serve {

/// Per-call knobs of Client::call/call_raw.
struct CallOptions {
  std::uint64_t request_id = 0;  ///< envelope id; equal across retries of one call
  std::uint32_t deadline_ms = 0;  ///< server-side budget in the envelope; 0 = none
  std::int64_t timeout_ms = 0;    ///< client-side blocking cap per call; 0 = forever
};

/// The server structurally rejected the hello (version mismatch). Not a
/// transport fault: retrying the same client build cannot succeed.
class HandshakeRejected : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept = default;
  Client& operator=(Client&& other) noexcept;

  /// Connect to the server on `port`, through its abstract AF_UNIX name
  /// (unix_address) when something listens there and to 127.0.0.1:port
  /// only when nothing does (ECONNREFUSED), then run the hello handshake
  /// announcing `version` (defaults to the client's own api::kApiVersion;
  /// tests pass a wrong one to probe the mismatch path). Returns nullopt on
  /// success, or the server's structured rejection (the connection is
  /// closed in that case). Throws TransportError subclasses on socket
  /// failures. `timeout_ms` caps the handshake exchange (0 = forever).
  [[nodiscard]] std::optional<api::ErrorResponse> connect(
      std::uint16_t port, std::uint32_t version = api::kApiVersion,
      std::int64_t timeout_ms = 0);

  [[nodiscard]] bool connected() const noexcept { return reader_.fd() >= 0; }

  /// Send one request, block for its response.
  [[nodiscard]] api::Response call(const api::Request& req, const CallOptions& opt = {});

  /// Like call(), but returns the raw encoded response payload (the
  /// determinism tests compare these bytes across shard counts).
  [[nodiscard]] std::string call_raw(const api::Request& req,
                                     const CallOptions& opt = {});

  void close() noexcept;

 private:
  FrameReader reader_;  ///< the socket and the reply bytes received on it
};

/// Retry schedule of a RetryClient. Attempt a (0-based) that fails
/// transiently sleeps min(backoff_base_ms << a, backoff_max_ms),
/// half-jittered by the per-request substream of `jitter_seed` (an
/// Overloaded response additionally floors the sleep at the server's
/// retry_after_ms hint).
struct RetryPolicy {
  int max_attempts = 6;
  std::int64_t timeout_ms = 10'000;  ///< client-side cap per attempt; 0 = forever
  std::uint32_t deadline_ms = 0;     ///< server-side envelope deadline per attempt
  std::uint32_t backoff_base_ms = 5;
  std::uint32_t backoff_max_ms = 500;
  std::uint64_t jitter_seed = 0xd5a60f11u;
  void validate() const;
};

/// Wire-attempt accounting of a RetryClient (per client, not per call).
struct RetryStats {
  std::uint64_t calls = 0;             ///< logical requests issued
  std::uint64_t attempts = 0;          ///< wire attempts (>= calls)
  std::uint64_t reconnects = 0;        ///< handshakes after the first
  std::uint64_t retried_transport = 0; ///< attempts retried on PeerGone/connect
  std::uint64_t retried_timeout = 0;   ///< attempts retried on TimeoutError
  std::uint64_t retried_overload = 0;  ///< attempts retried on Overloaded
};

class RetryClient {
 public:
  /// Lazily connects on the first call (and re-connects as needed).
  explicit RetryClient(std::uint16_t port, RetryPolicy policy = {});

  RetryClient(const RetryClient&) = delete;
  RetryClient& operator=(const RetryClient&) = delete;
  RetryClient(RetryClient&&) noexcept = default;
  RetryClient& operator=(RetryClient&&) noexcept = default;

  /// One logical request: retries transient failures per the policy and
  /// returns the single response that settles it. Throws on protocol
  /// bugs, version rejection, or after max_attempts transient failures.
  [[nodiscard]] api::Response call(const api::Request& req);
  [[nodiscard]] std::string call_raw(const api::Request& req);

  [[nodiscard]] const RetryStats& stats() const noexcept { return stats_; }
  void close() noexcept { client_.close(); }

 private:
  [[nodiscard]] std::string attempt_once(const api::Request& req, std::uint64_t id);
  void sleep_backoff(Rng& jitter, int attempt, std::uint32_t floor_ms);

  std::uint16_t port_ = 0;
  RetryPolicy policy_;
  Client client_;
  Rng jitter_root_;
  RetryStats stats_;
  std::uint64_t next_request_id_ = 1;
  bool ever_connected_ = false;
};

}  // namespace dfv::serve
