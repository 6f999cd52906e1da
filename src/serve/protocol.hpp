// Wire protocol of `dfv serve`: length-prefixed frames over a local
// stream socket, TCP on 127.0.0.1 or the abstract AF_UNIX name the
// server binds beside it (unix_address below). The bytes are the same.
//
// Frame layout (little-endian):
//
//   [u32 length][payload of `length` bytes]
//
// The first frame on a connection must be the client hello:
//
//   [u32 magic = kMagic][u32 version = api::kApiVersion]
//
// The server answers with the same 8-byte hello on success, or with one
// encoded api::ErrorResponse (ErrorCode::VersionMismatch) and a close
// when the version is not supported — a structured reply, never a
// protocol guess. Every later frame is one encoded api::Request from
// the client and one encoded api::Response from the server, strictly
// alternating per connection (a request is answered before the next one
// is read, so responses can never be reordered).
//
// Failure taxonomy (the retry layer keys off these types):
//
//   PeerGoneError — the peer died: EOF or ECONNRESET/EPIPE mid-exchange.
//     Transient from the caller's view; a retrying client reconnects.
//   FrameError — the peer is alive but the framing is wrong (oversized
//     length, non-decoding bytes): a protocol bug. Never retried —
//     retrying a bug reproduces it.
//   TimeoutError — the deadline passed while waiting for the fd.
//     Transient; the connection is poisoned (a late reply would
//     desynchronize the alternation) and must be closed before reuse.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>

namespace dfv::serve {

/// "DFVS" read as a little-endian u32.
inline constexpr std::uint32_t kMagic = 0x53564644;

/// Upper bound on a frame payload; a peer announcing more is treated as
/// malformed and disconnected (protects the 4-byte length from driving
/// unbounded allocation).
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Hello payload size (magic + version).
inline constexpr std::size_t kHelloBytes = 8;

/// Base of every blocking-helper failure below.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The peer vanished: EOF inside a record, ECONNRESET, EPIPE. The local
/// protocol state was fine; reconnect-and-retry is sound.
class PeerGoneError : public TransportError {
 public:
  using TransportError::TransportError;
};

/// The peer is alive but violates the framing contract (a protocol bug,
/// not a network fault). Retrying would reproduce it.
class FrameError : public TransportError {
 public:
  using TransportError::TransportError;
};

/// A read/write deadline expired. The fd may still deliver the stale
/// bytes later, so the caller must close it before retrying.
class TimeoutError : public TransportError {
 public:
  using TransportError::TransportError;
};

/// How long spin_then_poll keeps its thread on-CPU before it blocks. A
/// busy connection's next frame arrives within tens of microseconds; a
/// thread that sleeps for it pays the wake-up of an idle vCPU on every
/// request, which on a virtualized host costs more than the request
/// itself. An idle connection blocks after this long.
inline constexpr std::chrono::microseconds kSpinWait{50};

/// The wait of the server shards and of blocking writes: poll `fds`
/// with a zero timeout, yielding the CPU between tries, for up to
/// kSpinWait; then block in poll(2) for `timeout_ms` (-1 = forever, 0 =
/// one try, no spin). A thread whose last wait outlasted kSpinWait skips
/// the spin until a blocking wait ends within it again, so slow peers
/// cost no spin per request. FrameReader spins on recv instead of poll,
/// under the same rule and the same per-thread state. Returns what poll
/// returns (-1, errno set).
[[nodiscard]] int spin_then_poll(pollfd* fds, nfds_t n, int timeout_ms);

[[nodiscard]] std::string hello_payload(std::uint32_t version);

/// Parse a hello payload. Returns the announced version, or nullopt when
/// the payload is not a hello (wrong size or magic).
[[nodiscard]] std::optional<std::uint32_t> parse_hello(std::string_view payload);

/// The abstract-namespace AF_UNIX address a server on TCP `port` also
/// listens on: "\0dfv-serve-<port>". Returns the length to pass to
/// bind/connect (an abstract name has no terminating NUL).
[[nodiscard]] socklen_t unix_address(std::uint16_t port, sockaddr_un& out) noexcept;

/// The same name as messages print it, '@' standing for the leading NUL.
[[nodiscard]] std::string unix_label(std::uint16_t port);

/// Where the frame at the front of a receive buffer stands. The one
/// frame-boundary check: FrameReader and the server shards both split
/// their buffers with frame_at, as both frame through append_frame.
struct FrameSpan {
  enum Status { NeedMore, Complete, Oversized };
  Status status = NeedMore;
  std::uint32_t len = 0;  ///< announced payload length; 0 until the header is in
};
[[nodiscard]] FrameSpan frame_at(std::string_view buf) noexcept;

// ---------------------------------------------------------------------------
// Blocking fd helpers (client side and tests; the server shards use
// their own non-blocking buffers). `timeout_ms` is an overall deadline
// for the whole call measured from entry; 0 blocks forever.
// ---------------------------------------------------------------------------

/// Write all n bytes (throws PeerGoneError/TimeoutError/TransportError).
/// Waits for a full socket buffer through spin_then_poll.
void write_all(int fd, const void* buf, std::size_t n, std::int64_t timeout_ms = 0);

/// Append one length-prefixed frame to `out`. This is the one frame
/// encoder: write_frame and the server shards both frame through it.
void append_frame(std::string& out, std::string_view payload);

/// Write one length-prefixed frame, header and payload in one send, so a
/// small frame leaves as one TCP segment.
void write_frame(int fd, std::string_view payload, std::int64_t timeout_ms = 0);

/// The read side of one connection: a descriptor and the bytes received
/// on it past the last frame returned. It does not own the descriptor.
/// Every receive is one non-blocking recv of whatever has arrived, so a
/// reply that is already there costs one syscall. When nothing has, the
/// reader spins on recv with a yield between tries, under the same rule
/// and budget as spin_then_poll, then blocks in poll(2) until the
/// deadline. Bytes past a frame stay buffered for the next call.
class FrameReader {
 public:
  FrameReader() = default;
  explicit FrameReader(int fd) noexcept : fd_(fd) {}

  /// A move carries the descriptor and its buffered bytes; the source is
  /// left empty (fd -1).
  FrameReader(FrameReader&& other) noexcept;
  FrameReader& operator=(FrameReader&& other) noexcept;

  /// The next frame's payload; nullopt on clean EOF on a frame boundary.
  /// Throws FrameError when the announced length exceeds kMaxFrameBytes,
  /// PeerGoneError on EOF/reset mid-frame, TimeoutError past the
  /// deadline, TransportError on other socket errors.
  [[nodiscard]] std::optional<std::string> next(std::int64_t timeout_ms = 0);

  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  enum class Recv { Got, Eof, NotYet };
  /// One non-blocking recv, appended to buf_.
  [[nodiscard]] Recv recv_some();

  int fd_ = -1;
  std::string buf_;  ///< received, not yet returned as a frame
};

}  // namespace dfv::serve
