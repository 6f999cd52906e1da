// File integrity for on-disk text artifacts (dataset CSV exports, the
// campaign-store META): a FNV-1a 64 checksum footer, and
// atomic publish via write-to-temp + rename so readers never observe a
// half-written file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace dfv {

/// FNV-1a 64-bit hash (dependency-free, stable across platforms).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view data) noexcept;

/// FNV-1a offset basis: the running-hash seed for an empty prefix.
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/// Incremental FNV-1a: fold `n` bytes into a running hash state. Seeding
/// with `kFnvBasis` and chaining calls over consecutive chunks yields
/// exactly `fnv1a64` of the concatenation; the campaign store hashes each
/// raw column file with it.
[[nodiscard]] std::uint64_t fnv1a64_update(std::uint64_t state, const void* data,
                                           std::size_t n) noexcept;

/// Footer line marker; the full footer is "#dfv-crc <16 hex digits>\n".
inline constexpr std::string_view kChecksumPrefix = "#dfv-crc ";

/// Append a checksum footer covering the current content.
void append_checksum_footer(std::string& content);

enum class ChecksumStatus {
  Ok,        ///< footer present and matches the content
  Missing,   ///< no footer (legacy / external file)
  Mismatch,  ///< footer present but the content hash differs: corruption
};

/// Verify the trailing checksum footer and strip it from `content`.
/// On Missing the content is left untouched; on Mismatch the footer is
/// stripped so the caller can still inspect the (untrusted) body.
[[nodiscard]] ChecksumStatus verify_and_strip_checksum(std::string& content);

/// Write `content` to `path` atomically: write to a temp file of this
/// call's own, "<path>.<pid>.<n>.tmp", then rename over the destination,
/// so concurrent writers of one path (threads or processes) each publish
/// a whole file and the last rename wins. Returns false on any I/O
/// failure (the temp file is cleaned up; the destination is never left
/// half-written). No fsync: a crash can leave a torn file, which its
/// checksum footer reveals.
[[nodiscard]] bool atomic_write_file(const std::string& path, const std::string& content);

}  // namespace dfv
