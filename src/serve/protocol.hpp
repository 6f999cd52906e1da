// Wire protocol of `dfv serve`: length-prefixed frames over TCP.
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

/// The one wait on a socket, for both ends of a connection: poll `fds`
/// with a zero timeout, yielding the CPU between tries, for up to
/// kSpinWait; then block in poll(2) for `timeout_ms` (-1 = forever, 0 =
/// one try, no spin). A thread whose last wait outlasted kSpinWait skips
/// the spin until a blocking wait ends within it again, so slow peers
/// cost no spin per request. Returns what poll returns (-1, errno set).
[[nodiscard]] int spin_then_poll(pollfd* fds, nfds_t n, int timeout_ms);

[[nodiscard]] std::string hello_payload(std::uint32_t version);

/// Parse a hello payload. Returns the announced version, or nullopt when
/// the payload is not a hello (wrong size or magic).
[[nodiscard]] std::optional<std::uint32_t> parse_hello(std::string_view payload);

// ---------------------------------------------------------------------------
// Blocking fd helpers (client side and tests; the server shards use
// their own non-blocking buffers). `timeout_ms` is an overall deadline
// for the whole call measured from entry; 0 blocks forever. Every read
// waits through spin_then_poll first, clamped to the deadline.
// ---------------------------------------------------------------------------

/// Read exactly n bytes. Returns false on clean EOF before the first
/// byte; throws PeerGoneError on EOF/reset mid-record, TimeoutError past
/// the deadline, TransportError on other socket errors.
[[nodiscard]] bool read_exact(int fd, void* buf, std::size_t n,
                              std::int64_t timeout_ms = 0);

/// Write all n bytes (throws PeerGoneError/TimeoutError/TransportError).
void write_all(int fd, const void* buf, std::size_t n, std::int64_t timeout_ms = 0);

/// Append one length-prefixed frame to `out`. This is the one frame
/// encoder: write_frame and the server shards both frame through it.
void append_frame(std::string& out, std::string_view payload);

/// Write one length-prefixed frame, header and payload in one send, so a
/// small frame leaves as one TCP segment.
void write_frame(int fd, std::string_view payload, std::int64_t timeout_ms = 0);

/// Read one frame; nullopt on clean EOF before the length prefix.
/// Throws FrameError when the announced length exceeds kMaxFrameBytes.
[[nodiscard]] std::optional<std::string> read_frame(int fd,
                                                    std::int64_t timeout_ms = 0);

}  // namespace dfv::serve
