// Binary wire codec for dfv::api requests and responses.
//
// Envelope layouts (all integers little-endian, doubles as IEEE-754 bit
// patterns in a u64):
//
//   request:  [u32 version = kApiVersion][u64 request_id][u32 deadline_ms]
//             [u8 tag][payload…]
//   response: [u32 version = kApiVersion][u8 tag][payload…]
//
// `request_id` names the logical request for idempotent retries: a
// retrying client resends a request under the same id after a transport
// failure, and the id makes the duplicate visible server-side (the store
// is immutable, so re-execution is harmless — the id exists for
// observability and future dedup, not correctness). `deadline_ms` is the
// server-side budget measured from the moment the frame is fully
// received; 0 means no deadline. Neither field changes the response
// bytes, so the serving determinism contract is untouched.
//
// Strings are u32 length + bytes; vectors are u32 count + elements. The
// encoding is canonical: a value encodes to exactly one byte sequence,
// so "bit-identical responses" and "byte-identical wire payloads" are
// the same statement (test_serve compares encoded bytes across shard
// counts).
//
// Each message's layout is one field list in wire.cpp that both encode
// and decode walk; the tag is the message's position in the
// Request/Response variant. ApiWire.GoldenBytesEveryType
// (tests/test_api.cpp) pins the bytes of every message type, so a layout
// change fails it until kApiVersion is bumped and the goldens re-recorded.
//
// Decoding is defensive: a truncated or malformed buffer throws
// ContractError ("wire: …"), and an envelope whose version differs from
// kApiVersion throws VersionError, which carries the offending version
// so servers can answer with a structured ErrorResponse instead of
// guessing at an incompatible layout. In particular a v1 frame (no
// request_id/deadline) decodes as a structured VersionMismatch, never as
// a misparsed v2 frame. Every length/count is bounds-checked against the
// buffer before any allocation, so a forged [u32 len] cannot drive a
// multi-gigabyte allocation (test_wire_adversarial pins this).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "api/api.hpp"

namespace dfv::api {

/// Thrown by decode_* when the envelope version is not kApiVersion.
class VersionError : public ContractError {
 public:
  VersionError(std::uint32_t found_version, const std::string& what)
      : ContractError(what), found(found_version) {}
  std::uint32_t found = 0;
};

/// Per-request envelope fields that ride beside the Request itself.
struct RequestMeta {
  std::uint64_t request_id = 0;  ///< 0 = unnamed (one-shot, no retries)
  std::uint32_t deadline_ms = 0;  ///< server-side budget; 0 = none
};

/// A decoded request frame: the envelope metadata plus the request.
struct RequestEnvelope {
  RequestMeta meta;
  Request request;
};

[[nodiscard]] std::string encode_request(const Request& req);
[[nodiscard]] std::string encode_request(const Request& req, const RequestMeta& meta);
/// Decode ignoring the envelope metadata (CLI and tests).
[[nodiscard]] Request decode_request(std::string_view bytes);
/// Decode keeping the envelope metadata (the server admission path).
[[nodiscard]] RequestEnvelope decode_request_envelope(std::string_view bytes);

[[nodiscard]] std::string encode_response(const Response& resp);
[[nodiscard]] Response decode_response(std::string_view bytes);

}  // namespace dfv::api
