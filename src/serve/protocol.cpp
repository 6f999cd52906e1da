#include "serve/protocol.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/check.hpp"

namespace dfv::serve {

namespace {

using Clock = std::chrono::steady_clock;

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(char((v >> (8 * i)) & 0xff));
}

[[nodiscard]] std::uint32_t get_u32(const unsigned char* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t(p[i]) << (8 * i);
  return v;
}

[[nodiscard]] Clock::time_point deadline_from(std::int64_t timeout_ms) {
  return timeout_ms > 0 ? Clock::now() + std::chrono::milliseconds(timeout_ms)
                        : Clock::time_point::max();
}

[[nodiscard]] bool peer_gone_errno(int err) noexcept {
  return err == ECONNRESET || err == EPIPE || err == ETIMEDOUT;
}

/// Wait until fd is ready for `events` or the deadline passes; a
/// deadline of time_point::max() waits forever.
void wait_ready(int fd, short events, Clock::time_point deadline, const char* verb) {
  while (true) {
    int timeout_ms = -1;
    if (deadline != Clock::time_point::max()) {
      const auto now = Clock::now();
      if (now >= deadline)
        throw TimeoutError(std::string("serve: timed out waiting to ") + verb);
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now).count();
      timeout_ms = int(std::min<long long>(left + 1, 3'600'000));
    }
    pollfd p{fd, events, 0};
    const int rc = spin_then_poll(&p, 1, timeout_ms);
    if (rc > 0) return;
    if (rc == 0) continue;  // re-check the deadline
    if (errno == EINTR) continue;
    throw TransportError(std::string("serve: poll failed: ") + std::strerror(errno));
  }
}

[[nodiscard]] bool read_exact_until(int fd, void* buf, std::size_t n,
                                    Clock::time_point deadline) {
  auto* p = static_cast<char*>(buf);
  std::size_t got = 0;
  while (got < n) {
    wait_ready(fd, POLLIN, deadline, "read");
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r > 0) {
      got += std::size_t(r);
      continue;
    }
    if (r == 0) {
      if (got == 0) return false;  // clean EOF on a record boundary
      throw PeerGoneError("serve: peer closed the connection mid-frame");
    }
    if (errno == EINTR) continue;
    if (peer_gone_errno(errno))
      throw PeerGoneError(std::string("serve: peer died: read failed: ") +
                          std::strerror(errno));
    throw TransportError(std::string("serve: read failed: ") + std::strerror(errno));
  }
  return true;
}

void write_all_until(int fd, const void* buf, std::size_t n,
                     Clock::time_point deadline) {
  const auto* p = static_cast<const char*>(buf);
  std::size_t put = 0;
  while (put < n) {
    // The fd is blocking, so without a deadline the send itself waits.
    if (deadline != Clock::time_point::max()) wait_ready(fd, POLLOUT, deadline, "write");
    // send(MSG_NOSIGNAL), not write: a peer that already closed must
    // surface as EPIPE, never as a process-killing SIGPIPE.
    const ssize_t w = ::send(fd, p + put, n - put, MSG_NOSIGNAL);
    if (w >= 0) {
      put += std::size_t(w);
      continue;
    }
    if (errno == EINTR) continue;
    if (peer_gone_errno(errno))
      throw PeerGoneError(std::string("serve: peer died: write failed: ") +
                          std::strerror(errno));
    throw TransportError(std::string("serve: write failed: ") + std::strerror(errno));
  }
}

}  // namespace

static_assert(kSpinWait < std::chrono::milliseconds(1),
              "a spin must end before the shortest poll timeout");

int spin_then_poll(pollfd* fds, nfds_t n, int timeout_ms) {
  // Whether this thread's last wait ended within kSpinWait. A fd ready
  // at the first try says nothing about how long waits take, so it
  // leaves the flag as it was.
  thread_local bool spin = true;
  const auto start = Clock::now();
  while (true) {
    const int rc = ::poll(fds, n, 0);
    if (rc != 0 || timeout_ms == 0) return rc;
    if (!spin || Clock::now() - start >= kSpinWait) break;
    // Yield between tries: a spinner that keeps its CPU starves the
    // peer thread it is waiting for when threads outnumber CPUs.
    std::this_thread::yield();
  }
  const int rc = ::poll(fds, n, timeout_ms);
  spin = Clock::now() - start < kSpinWait;
  return rc;
}

// dfv-lint: allow(contract): every u32 is a valid version to announce
std::string hello_payload(std::uint32_t version) {
  std::string out;
  put_u32(out, kMagic);
  put_u32(out, version);
  return out;
}

// dfv-lint: allow(contract): validation IS the job; bad hellos return nullopt
std::optional<std::uint32_t> parse_hello(std::string_view payload) {
  if (payload.size() != kHelloBytes) return std::nullopt;
  const auto* p = reinterpret_cast<const unsigned char*>(payload.data());
  if (get_u32(p) != kMagic) return std::nullopt;
  return get_u32(p + 4);
}

bool read_exact(int fd, void* buf, std::size_t n, std::int64_t timeout_ms) {
  DFV_CHECK_MSG(timeout_ms >= 0, "serve: negative read timeout");
  return read_exact_until(fd, buf, n, deadline_from(timeout_ms));
}

void write_all(int fd, const void* buf, std::size_t n, std::int64_t timeout_ms) {
  DFV_CHECK_MSG(timeout_ms >= 0, "serve: negative write timeout");
  write_all_until(fd, buf, n, deadline_from(timeout_ms));
}

void append_frame(std::string& out, std::string_view payload) {
  DFV_CHECK_MSG(payload.size() <= kMaxFrameBytes, "serve: frame payload too large");
  put_u32(out, std::uint32_t(payload.size()));
  out.append(payload.data(), payload.size());
}

void write_frame(int fd, std::string_view payload, std::int64_t timeout_ms) {
  DFV_CHECK_MSG(timeout_ms >= 0, "serve: negative write timeout");
  std::string frame;
  frame.reserve(4 + payload.size());
  append_frame(frame, payload);
  write_all_until(fd, frame.data(), frame.size(), deadline_from(timeout_ms));
}

std::optional<std::string> read_frame(int fd, std::int64_t timeout_ms) {
  DFV_CHECK_MSG(fd >= 0, "serve: read_frame on a closed descriptor");
  const auto deadline = deadline_from(timeout_ms);
  unsigned char header[4];
  if (!read_exact_until(fd, header, 4, deadline)) return std::nullopt;
  const std::uint32_t len = get_u32(header);
  if (len > kMaxFrameBytes)
    throw FrameError("serve: malformed frame (protocol bug): announced length " +
                     std::to_string(len) + " exceeds the " +
                     std::to_string(kMaxFrameBytes) + "-byte cap");
  std::string payload(len, '\0');
  if (len > 0 && !read_exact_until(fd, payload.data(), len, deadline))
    throw PeerGoneError("serve: peer closed the connection mid-frame");
  return payload;
}

}  // namespace dfv::serve
