// Audited low-level file primitives for the campaign cache entry
// (sim/campaign_store.hpp): read-only memory mappings and append-only
// writes. This is the one module allowed to touch the raw mmap/pread/
// pwrite syscall family (dfv-lint `blocking-io` enforces that); everything
// above it works in terms of these RAII wrappers, so lifetime and error
// handling are centralized here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace dfv::store {

/// Read-only memory mapping of a file prefix. Movable, not copyable;
/// unmaps on destruction. An empty mapping (size 0) holds no resources.
class MappedFile {
 public:
  MappedFile() = default;
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  /// Map the first `length` bytes of `path` read-only. The file must be
  /// at least `length` bytes long (a shorter file is a truncated column:
  /// throws ContractError). length == 0 yields an empty map.
  [[nodiscard]] static MappedFile map_prefix(const std::string& path,
                                             std::size_t length);

  [[nodiscard]] const std::uint8_t* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Append-only writer for column files. Appends are buffered by the
/// kernel only (no user-space buffer), so a crash can leave a partial
/// file; the campaign entry's META, written after sync(), is what commits
/// it, and a directory without META is cleared before it is rewritten.
class AppendFile {
 public:
  AppendFile() = default;
  AppendFile(AppendFile&& other) noexcept;
  AppendFile& operator=(AppendFile&& other) noexcept;
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;
  ~AppendFile();

  /// Create `path` for writing; throws ContractError on failure, and when
  /// `path` already exists (an entry's files are written once).
  [[nodiscard]] static AppendFile open(const std::string& path);

  /// Append `n` bytes at the current end; throws ContractError on failure.
  void append(const void* data, std::size_t n);
  /// Flush file data to stable storage (fdatasync).
  void sync();

 private:
  int fd_ = -1;
};

/// Size of `path` in bytes, or 0 when it does not exist / is unreadable.
[[nodiscard]] std::uint64_t file_size_or_zero(const std::string& path) noexcept;

}  // namespace dfv::store
