#include "serve/client.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "api/wire.hpp"
#include "common/check.hpp"
#include "serve/protocol.hpp"

namespace dfv::serve {

namespace {

/// A blocking stream socket connected to `addr`, or -1 with errno set.
[[nodiscard]] int dial(const sockaddr* addr, socklen_t len) {
  const int fd = ::socket(addr->sa_family, SOCK_STREAM, 0);
  if (fd < 0) throw TransportError("serve: socket() failed");
  if (::connect(fd, addr, len) == 0) return fd;
  const int err = errno;
  ::close(fd);
  errno = err;
  return -1;
}

/// Connect to the server on `port`: its AF_UNIX name first, TCP loopback
/// when nothing listens there.
[[nodiscard]] int connect_local(std::uint16_t port) {
  sockaddr_un local{};
  const socklen_t local_len = unix_address(port, local);
  if (const int fd = dial(reinterpret_cast<const sockaddr*>(&local), local_len); fd >= 0)
    return fd;
  if (errno != ECONNREFUSED)
    throw TransportError("serve: connect to " + unix_label(port) +
                         " failed: " + std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int fd = dial(reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (fd < 0)
    throw TransportError("serve: connect to 127.0.0.1:" + std::to_string(port) +
                         " failed: " + std::strerror(errno));
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

Client::~Client() { close(); }

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    reader_ = std::move(other.reader_);
  }
  return *this;
}

void Client::close() noexcept {
  if (reader_.fd() >= 0) ::close(reader_.fd());
  reader_ = FrameReader();
}

std::optional<api::ErrorResponse> Client::connect(std::uint16_t port,
                                                  std::uint32_t version,
                                                  std::int64_t timeout_ms) {
  DFV_CHECK_MSG(!connected(), "serve: client already connected");
  DFV_CHECK_MSG(timeout_ms >= 0, "serve: negative connect timeout");
  reader_ = FrameReader(connect_local(port));

  try {
    write_frame(reader_.fd(), hello_payload(version), timeout_ms);
    auto reply = reader_.next(timeout_ms);
    if (!reply) {
      close();
      throw PeerGoneError("serve: server closed during handshake");
    }
    if (const auto got = parse_hello(*reply); got && *got == api::kApiVersion)
      return std::nullopt;  // handshake accepted

    // Anything else must be a structured rejection; bytes that decode as
    // neither hello nor response are a protocol bug, not a dead peer.
    api::Response resp;
    try {
      resp = api::decode_response(*reply);
    } catch (const ContractError& e) {
      close();
      throw FrameError(
          std::string("serve: malformed handshake reply (protocol bug): ") + e.what());
    }
    close();
    if (auto* err = std::get_if<api::ErrorResponse>(&resp)) return *err;
    throw FrameError("serve: unexpected handshake reply (protocol bug)");
  } catch (...) {
    close();
    throw;
  }
}

api::Response Client::call(const api::Request& req, const CallOptions& opt) {
  return api::decode_response(call_raw(req, opt));
}

std::string Client::call_raw(const api::Request& req, const CallOptions& opt) {
  DFV_CHECK_MSG(connected(), "serve: call on a disconnected client");
  write_frame(reader_.fd(), api::encode_request(req, {opt.request_id, opt.deadline_ms}),
              opt.timeout_ms);
  auto reply = reader_.next(opt.timeout_ms);
  if (!reply) {
    close();
    throw PeerGoneError("serve: server closed before answering");
  }
  return std::move(*reply);
}

// ---------------------------------------------------------------------------
// RetryClient.
// ---------------------------------------------------------------------------

void RetryPolicy::validate() const {
  DFV_CHECK_MSG(max_attempts >= 1, "serve: retry policy needs max_attempts >= 1");
  DFV_CHECK_MSG(timeout_ms >= 0, "serve: negative retry timeout");
  DFV_CHECK_MSG(backoff_base_ms >= 1, "serve: backoff base must be positive");
  DFV_CHECK_MSG(backoff_max_ms >= backoff_base_ms, "serve: backoff cap below base");
}

RetryClient::RetryClient(std::uint16_t port, RetryPolicy policy)
    : port_(port), policy_(policy), jitter_root_(policy.jitter_seed) {
  policy_.validate();
}

api::Response RetryClient::call(const api::Request& req) {
  return api::decode_response(call_raw(req));
}

// dfv-lint: allow(contract): the policy was validated at construction
std::string RetryClient::call_raw(const api::Request& req) {
  const std::uint64_t id = next_request_id_++;
  // Per-request jitter substream: the backoff schedule of request id N is
  // a pure function of (jitter_seed, N, attempt), replayable under chaos.
  Rng jitter = jitter_root_.split(id);
  ++stats_.calls;
  std::string last_error = "no attempt made";
  for (int a = 0; a < policy_.max_attempts; ++a) {
    ++stats_.attempts;
    try {
      std::string raw = attempt_once(req, id);
      // An Overloaded shed is the one *response* that is transient:
      // honor the server's retry_after hint and try again.
      if (raw.size() >= 5 && raw[4] == 0) {  // [u32 version][u8 tag]; Error = 0
        api::Response resp;
        try {
          resp = api::decode_response(raw);
        } catch (const ContractError& e) {
          throw FrameError(
              std::string("serve: malformed response payload (protocol bug): ") +
              e.what());
        }
        const auto* err = std::get_if<api::ErrorResponse>(&resp);
        if (err != nullptr && err->code == api::ErrorCode::Overloaded) {
          ++stats_.retried_overload;
          last_error = "server overloaded (retry_after_ms=" +
                       std::to_string(err->retry_after_ms) + ")";
          if (a + 1 < policy_.max_attempts)
            sleep_backoff(jitter, a, err->retry_after_ms);
          continue;
        }
      }
      return raw;
    } catch (const FrameError&) {
      throw;  // protocol bug: retrying reproduces it
    } catch (const HandshakeRejected&) {
      throw;  // version skew: no retry from this build can succeed
    } catch (const TimeoutError& e) {
      ++stats_.retried_timeout;
      last_error = e.what();
      client_.close();  // poisoned: a late reply would desynchronize the stream
    } catch (const TransportError& e) {
      ++stats_.retried_transport;
      last_error = e.what();
      client_.close();
    }
    if (a + 1 < policy_.max_attempts) sleep_backoff(jitter, a, 0);
  }
  throw std::runtime_error("serve: request " + std::to_string(id) + " failed after " +
                           std::to_string(policy_.max_attempts) +
                           " attempts; last error: " + last_error);
}

// dfv-lint: allow(contract): private helper; call_raw owns the validated policy
std::string RetryClient::attempt_once(const api::Request& req, std::uint64_t id) {
  if (!client_.connected()) {
    if (ever_connected_) ++stats_.reconnects;
    auto rejected = client_.connect(port_, api::kApiVersion, policy_.timeout_ms);
    if (rejected)
      throw HandshakeRejected("serve: handshake rejected: " + rejected->message);
    ever_connected_ = true;
  }
  CallOptions opt;
  opt.request_id = id;
  opt.deadline_ms = policy_.deadline_ms;
  opt.timeout_ms = policy_.timeout_ms;
  return client_.call_raw(req, opt);
}

// dfv-lint: allow(contract): private helper; attempt comes from call_raw's loop
void RetryClient::sleep_backoff(Rng& jitter, int attempt, std::uint32_t floor_ms) {
  const auto shift = std::uint64_t(std::min(attempt, 16));
  std::uint64_t ms = std::min<std::uint64_t>(
      std::uint64_t(policy_.backoff_base_ms) << shift, policy_.backoff_max_ms);
  // Half-jitter in [ms/2, ms]: desynchronizes a retry herd while staying
  // deterministic given the substream.
  ms = ms / 2 + jitter.uniform_index(ms / 2 + 1);
  ms = std::max<std::uint64_t>(ms, floor_ms);
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace dfv::serve
