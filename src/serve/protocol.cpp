#include "serve/protocol.hpp"

#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>

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
/// deadline of time_point::max() waits forever. `spin` = false blocks in
/// poll at once (the caller has spun already).
void wait_ready(int fd, short events, Clock::time_point deadline, const char* verb,
                bool spin) {
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
    const int rc = spin ? spin_then_poll(&p, 1, timeout_ms) : ::poll(&p, 1, timeout_ms);
    if (rc > 0) return;
    if (rc == 0) continue;  // re-check the deadline
    if (errno == EINTR) continue;
    throw TransportError(std::string("serve: poll failed: ") + std::strerror(errno));
  }
}

void write_all_until(int fd, const void* buf, std::size_t n,
                     Clock::time_point deadline) {
  const auto* p = static_cast<const char*>(buf);
  std::size_t put = 0;
  while (put < n) {
    // The fd is blocking, so without a deadline the send itself waits.
    if (deadline != Clock::time_point::max()) wait_ready(fd, POLLOUT, deadline, "write", true);
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

/// Whether this thread's last blocking wait ended within kSpinWait; both
/// spinning waits below read and set it. A fd ready at the first try
/// says nothing about how long waits take, so it leaves the flag as it
/// was.
thread_local bool t_spin = true;

/// One wait that has found its fd not ready at the first try: spin(),
/// then, if that gave up, block and call blocked().
class SpinWait {
 public:
  /// Retry `attempt` (true = done), yielding between tries, for up to
  /// kSpinWait unless this thread's last wait was slow. False when the
  /// caller must block.
  template <class Attempt>
  [[nodiscard]] bool spin(Attempt&& attempt) {
    while (t_spin && Clock::now() - start_ < kSpinWait) {
      // Yield between tries: a spinner that keeps its CPU starves the
      // peer thread it is waiting for when threads outnumber CPUs.
      std::this_thread::yield();
      if (attempt()) return true;
    }
    return false;
  }
  void blocked() { t_spin = Clock::now() - start_ < kSpinWait; }

 private:
  Clock::time_point start_ = Clock::now();
};

}  // namespace

static_assert(kSpinWait < std::chrono::milliseconds(1),
              "a spin must end before the shortest poll timeout");

int spin_then_poll(pollfd* fds, nfds_t n, int timeout_ms) {
  int rc = ::poll(fds, n, 0);
  if (rc != 0 || timeout_ms == 0) return rc;
  SpinWait wait;
  if (wait.spin([&] { return (rc = ::poll(fds, n, 0)) != 0; })) return rc;
  rc = ::poll(fds, n, timeout_ms);
  wait.blocked();
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

socklen_t unix_address(std::uint16_t port, sockaddr_un& out) noexcept {
  out = sockaddr_un{};
  out.sun_family = AF_UNIX;
  // sun_path[0] stays NUL: the name lives in the abstract namespace, so
  // no file is left behind and a closed listener frees it at once.
  const int n = std::snprintf(out.sun_path + 1, sizeof(out.sun_path) - 1, "dfv-serve-%u",
                              unsigned(port));
  return socklen_t(offsetof(sockaddr_un, sun_path) + 1 + std::size_t(n));
}

std::string unix_label(std::uint16_t port) { return "@dfv-serve-" + std::to_string(port); }

FrameSpan frame_at(std::string_view buf) noexcept {
  if (buf.size() < 4) return {};
  const std::uint32_t len = get_u32(reinterpret_cast<const unsigned char*>(buf.data()));
  if (len > kMaxFrameBytes) return {FrameSpan::Oversized, len};
  return {buf.size() - 4 >= len ? FrameSpan::Complete : FrameSpan::NeedMore, len};
}

FrameReader::FrameReader(FrameReader&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), buf_(std::exchange(other.buf_, {})) {}

FrameReader& FrameReader::operator=(FrameReader&& other) noexcept {
  if (this != &other) {
    fd_ = std::exchange(other.fd_, -1);
    buf_ = std::exchange(other.buf_, {});
  }
  return *this;
}

std::optional<std::string> FrameReader::next(std::int64_t timeout_ms) {
  DFV_CHECK_MSG(fd_ >= 0, "serve: FrameReader::next on a closed descriptor");
  DFV_CHECK_MSG(timeout_ms >= 0, "serve: negative read timeout");
  const auto deadline = deadline_from(timeout_ms);
  while (true) {
    const FrameSpan f = frame_at(buf_);
    if (f.status == FrameSpan::Complete) {
      std::string payload = buf_.substr(4, f.len);
      buf_.erase(0, 4 + std::size_t(f.len));
      return payload;
    }
    if (f.status == FrameSpan::Oversized)
      throw FrameError("serve: malformed frame (protocol bug): announced length " +
                       std::to_string(f.len) + " exceeds the " +
                       std::to_string(kMaxFrameBytes) + "-byte cap");
    Recv got = recv_some();
    if (got == Recv::NotYet) {
      SpinWait wait;
      if (!wait.spin([&] { return (got = recv_some()) != Recv::NotYet; })) {
        wait_ready(fd_, POLLIN, deadline, "read", false);
        wait.blocked();
        continue;
      }
    }
    if (got == Recv::Eof) {
      if (buf_.empty()) return std::nullopt;  // clean EOF on a frame boundary
      throw PeerGoneError("serve: peer closed the connection mid-frame");
    }
  }
}

FrameReader::Recv FrameReader::recv_some() {
  char chunk[16384];
  while (true) {
    const ssize_t r = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (r > 0) {
      buf_.append(chunk, std::size_t(r));
      return Recv::Got;
    }
    if (r == 0) return Recv::Eof;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Recv::NotYet;
    if (peer_gone_errno(errno))
      throw PeerGoneError(std::string("serve: peer died: read failed: ") +
                          std::strerror(errno));
    throw TransportError(std::string("serve: read failed: ") + std::strerror(errno));
  }
}

}  // namespace dfv::serve
