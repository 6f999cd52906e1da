// In-memory span recorder for the traced benchmark pass.
//
// A Span records (name, start, end, parent, request id) when tracing is
// enabled and costs one relaxed load when it is not. Spans are kept in
// per-thread buffers and only read after the traced pass has joined its
// threads; write_chrome() dumps them as Chrome trace-event JSON (open it
// in chrome://tracing or ui.perfetto.dev), and self_times() folds them
// into per-layer self time: a span's duration minus the part of its
// interval covered by its children.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::trace {

struct SpanRecord {
  const char* name = "";  ///< static string: the layer metric it feeds
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< serve request id, 0 elsewhere
  std::int64_t start_ns = 0;  ///< steady clock, relative to enable()
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
};

/// Start recording (clears earlier spans) or stop.
void enable(bool on);
[[nodiscard]] bool enabled() noexcept;

/// The innermost open span on this thread (0 = none). Pass it into work
/// that runs on pool threads so their spans keep their parent.
[[nodiscard]] std::uint64_t current() noexcept;

class Span {
 public:
  /// Child of this thread's innermost open span. A null name records
  /// nothing, so callers can sample which requests they trace.
  explicit Span(const char* name, std::uint64_t request = 0) noexcept;
  /// Child of an explicit parent (work handed to another thread).
  Span(const char* name, std::uint64_t parent, std::uint64_t request) noexcept;
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void open(const char* name, std::uint64_t parent, std::uint64_t request) noexcept;

  SpanRecord rec_;
  std::uint64_t saved_current_ = 0;
  bool live_ = false;
};

/// Every span recorded since enable(true). Call only when no thread is
/// still recording.
[[nodiscard]] std::vector<SpanRecord> collect();

struct LayerStat {
  std::uint64_t calls = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};

/// Calls, total and self time per span name.
[[nodiscard]] std::map<std::string, LayerStat> self_times(const std::vector<SpanRecord>& spans);

/// Write Chrome trace-event JSON; false on I/O failure.
[[nodiscard]] bool write_chrome(const std::string& path, const std::vector<SpanRecord>& spans);

}  // namespace perfbench::trace
