// Append-only, memory-mapped column store; the campaign cache keeps each
// campaign entry in these (sim/campaign_store.hpp).
//
// Layout (one directory per store):
//   <dir>/MANIFEST        text, `#dfv-crc` footer, atomically published —
//                         the single commit point (schema, committed row
//                         count, epoch, per-segment zone maps + CRCs)
//   <dir>/<name>.col      raw little-endian column bytes (f64 or u8),
//                         append-only, chunked into fixed-size row
//                         segments; bytes beyond the committed extent
//                         are torn writes and are truncated on reopen
//
// Readers pin a published MANIFEST and mmap each column's committed
// prefix: append-only means pinned byte ranges never mutate, so any
// number of pins coexist with one live writer without locks on the data
// path. Zone maps accumulate per *fixed-size* segment — the grouping
// depends only on absolute row index, never on append batch sizes — so
// the same rows give bit-identical zone stats and CRCs no matter how
// they were chunked across appends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "store/mmap_io.hpp"

namespace dfv::store {

enum class ColumnKind : std::uint8_t { F64, U8 };

struct ColumnSpec {
  std::string name;  ///< [A-Za-z0-9_]+, unique within the store
  ColumnKind kind = ColumnKind::F64;
};

/// Per-(column, segment) summary. min/max skip NaN (fmin/fmax semantics);
/// sum is NaN-poisoning, so a segment holding missing telemetry reports
/// an honest NaN mean. `crc` is the running FNV-1a of the segment's
/// committed bytes — for sealed segments the full-segment hash, for the
/// unsealed tail the hash of the bytes committed so far.
struct ZoneMap {
  std::uint64_t count = 0;  ///< committed rows in this segment
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  std::uint64_t crc = 0;
};

struct StoreOptions {
  /// Rows per segment; fixed at create time (a store-level constant so
  /// zone-map grouping is independent of append batching).
  std::uint32_t segment_rows = 1u << 16;
};

/// One append chunk: spans ordered as the store's specs (F64 columns in
/// spec order, then U8 columns in spec order), all exactly `rows` long.
struct AppendChunk {
  std::size_t rows = 0;
  std::vector<std::span<const double>> f64;
  std::vector<std::span<const std::uint8_t>> u8;
};

/// Immutable point-in-time view of a store: a published MANIFEST plus a
/// read-only mapping of every column's committed prefix. Safe to share
/// across threads; outlives the writer it was pinned from.
class StorePin {
 public:
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] std::uint64_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::uint32_t segment_rows() const noexcept { return segment_rows_; }
  [[nodiscard]] std::span<const ColumnSpec> columns() const noexcept { return specs_; }

  /// Index of the named column; throws ContractError when absent.
  [[nodiscard]] std::size_t column_index(const std::string& name) const;
  /// The committed values of an F64 / U8 column, straight off the mapping.
  [[nodiscard]] std::span<const double> f64(const std::string& name) const;
  [[nodiscard]] std::span<const std::uint8_t> u8(const std::string& name) const;
  [[nodiscard]] std::span<const ZoneMap> zones(std::size_t col) const;

  /// Deterministic digest of the committed content (schema, row count,
  /// every segment CRC). Two pins agree iff their committed bytes agree.
  [[nodiscard]] std::uint64_t content_fingerprint() const;

  /// Recompute every segment CRC against the mapped bytes and compare
  /// with the MANIFEST; throws ContractError on any mismatch.
  void verify_integrity() const;

 private:
  friend class ColumnStore;
  [[nodiscard]] static std::shared_ptr<const StorePin> load(const std::string& dir);

  std::string dir_;
  std::uint64_t epoch_ = 0;
  std::uint64_t rows_ = 0;
  std::uint32_t segment_rows_ = 0;
  std::vector<ColumnSpec> specs_;
  std::vector<std::vector<ZoneMap>> zones_;  ///< [col][segment]
  std::vector<MappedFile> maps_;             ///< [col], committed prefix
};

/// Single-writer handle: appends rows, publishes commit points, hands out
/// pins of the last published state. Appends and publishes are mutually
/// serialized internally; pins may be taken from any thread.
class ColumnStore {
 public:
  /// Create a fresh store (directory is created) holding the rows of
  /// `first` (none by default) and publish it once, as epoch 1, so
  /// readers can pin it immediately.
  [[nodiscard]] static ColumnStore create(const std::string& dir,
                                          std::vector<ColumnSpec> specs,
                                          const StoreOptions& opts = {},
                                          const AppendChunk& first = {});
  /// Open an existing store for appending. Bytes beyond the committed
  /// extent (torn writes from a crashed writer) are truncated away;
  /// a column file *shorter* than the committed extent is corruption and
  /// throws ContractError.
  [[nodiscard]] static ColumnStore open(const std::string& dir);
  /// Pin an existing store read-only, without a writer.
  [[nodiscard]] static std::shared_ptr<const StorePin> open_pin(const std::string& dir);

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  [[nodiscard]] std::span<const ColumnSpec> specs() const noexcept { return specs_; }
  [[nodiscard]] std::uint32_t segment_rows() const noexcept { return segment_rows_; }
  /// Rows appended so far (committed + not-yet-published).
  [[nodiscard]] std::uint64_t rows() const;
  /// Rows covered by the last published MANIFEST.
  [[nodiscard]] std::uint64_t published_rows() const;

  /// Append `chunk.rows` rows across every column. Data is written to the
  /// column files immediately but only becomes visible to (new) pins
  /// after the next publish().
  void append(const AppendChunk& chunk);

  /// Publish the current appended state as a new epoch: fdatasync every
  /// column file, then atomically rewrite the MANIFEST.
  void publish();

  /// Pin the last published state (fresh mappings; immutable).
  [[nodiscard]] std::shared_ptr<const StorePin> pin() const;

 private:
  ColumnStore() = default;

  struct ColState {
    AppendFile file;
    std::vector<ZoneMap> zones;  ///< includes the unsealed tail segment
  };

  [[nodiscard]] std::string manifest_text() const;  // caller holds mu_

  std::string dir_;
  std::vector<ColumnSpec> specs_;
  std::uint32_t segment_rows_ = 0;

  /// Heap-held so the handle stays movable (factory-returned).
  mutable std::unique_ptr<std::mutex> mu_ = std::make_unique<std::mutex>();
  std::uint64_t rows_ = 0;       ///< appended rows (guarded by mu_)
  std::uint64_t epoch_ = 0;      ///< last published epoch (guarded by mu_)
  std::uint64_t pub_rows_ = 0;   ///< rows in last published MANIFEST
  std::vector<ColState> cols_;   ///< guarded by mu_
};

/// Element size in bytes for a column kind.
[[nodiscard]] constexpr std::size_t column_elem_size(ColumnKind k) noexcept {
  return k == ColumnKind::F64 ? sizeof(double) : sizeof(std::uint8_t);
}

}  // namespace dfv::store
