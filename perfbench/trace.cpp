#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench::trace {

namespace {

using Clock = std::chrono::steady_clock;

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<std::vector<SpanRecord>>> buffers;  // guarded by mu
  std::atomic<bool> on{false};
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<std::uint32_t> next_thread{1};
  std::atomic<std::uint64_t> generation{0};
  Clock::time_point epoch = Clock::now();
};

Registry& registry() {
  static Registry r;
  return r;
}

struct ThreadState {
  std::shared_ptr<std::vector<SpanRecord>> buffer;
  std::uint64_t generation = ~0ull;
  std::uint32_t thread = 0;
  std::uint64_t current = 0;
};

thread_local ThreadState tls;

std::vector<SpanRecord>& thread_buffer() {
  Registry& r = registry();
  const std::uint64_t gen = r.generation.load(std::memory_order_acquire);
  if (tls.generation != gen) {
    tls.buffer = std::make_shared<std::vector<SpanRecord>>();
    tls.buffer->reserve(4096);
    tls.generation = gen;
    tls.thread = r.next_thread.fetch_add(1);
    std::lock_guard<std::mutex> lock(r.mu);
    r.buffers.push_back(tls.buffer);
  }
  return *tls.buffer;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              registry().epoch)
      .count();
}

void json_escape(std::ostream& os, const char* s) {
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') os << '\\';
    os << *s;
  }
}

}  // namespace

void enable(bool on) {
  Registry& r = registry();
  if (on) {
    std::lock_guard<std::mutex> lock(r.mu);
    r.buffers.clear();
    r.epoch = Clock::now();
    r.generation.fetch_add(1, std::memory_order_release);
  }
  r.on.store(on, std::memory_order_release);
}

bool enabled() noexcept { return registry().on.load(std::memory_order_relaxed); }

std::uint64_t current() noexcept { return tls.current; }

Span::Span(const char* name, std::uint64_t request) noexcept {
  if (name != nullptr && enabled()) open(name, tls.current, request);
}

Span::Span(const char* name, std::uint64_t parent, std::uint64_t request) noexcept {
  if (name != nullptr && enabled()) open(name, parent, request);
}

void Span::open(const char* name, std::uint64_t parent, std::uint64_t request) noexcept {
  live_ = true;
  rec_.name = name;
  rec_.id = registry().next_id.fetch_add(1, std::memory_order_relaxed);
  rec_.parent = parent;
  rec_.request = request;
  saved_current_ = tls.current;
  tls.current = rec_.id;
  rec_.start_ns = now_ns();
}

Span::~Span() {
  if (!live_) return;
  rec_.end_ns = now_ns();
  tls.current = saved_current_;
  try {
    std::vector<SpanRecord>& buf = thread_buffer();
    rec_.thread = tls.thread;
    buf.push_back(rec_);
  } catch (...) {
    // Out of memory while tracing: the span is lost, the benchmark goes on.
  }
}

std::vector<SpanRecord> collect() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<SpanRecord> all;
  for (const auto& b : r.buffers) all.insert(all.end(), b->begin(), b->end());
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.start_ns < b.start_ns; });
  return all;
}

std::map<std::string, LayerStat> self_times(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans)
    if (s.parent != 0) children[s.parent].push_back(&s);

  std::map<std::string, LayerStat> out;
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (const SpanRecord& s : spans) {
    const double dur = double(s.end_ns - s.start_ns);
    // Union of the children's intervals clipped to this span: children
    // running in parallel on pool threads are not subtracted twice.
    cover.clear();
    if (const auto it = children.find(s.id); it != children.end())
      for (const SpanRecord* c : it->second) {
        const std::int64_t lo = std::max(c->start_ns, s.start_ns);
        const std::int64_t hi = std::min(c->end_ns, s.end_ns);
        if (hi > lo) cover.emplace_back(lo, hi);
      }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    std::int64_t run_lo = 0, run_hi = -1;
    for (const auto& [lo, hi] : cover) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += double(run_hi - run_lo);
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += double(run_hi - run_lo);

    LayerStat& st = out[s.name];
    st.calls += 1;
    st.total_ns += dur;
    st.self_ns += dur - covered;
  }
  return out;
}

bool write_chrome(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& s : spans) {
    os << (first ? "\n" : ",\n") << "{\"name\":\"";
    json_escape(os, s.name);
    // Complete ("X") events: ts and dur in microseconds.
    os << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
       << ",\"ts\":" << double(s.start_ns) / 1e3 << ",\"dur\":"
       << double(s.end_ns - s.start_ns) / 1e3 << ",\"args\":{\"span\":" << s.id
       << ",\"parent\":" << s.parent << ",\"end_us\":" << double(s.end_ns) / 1e3;
    if (s.request != 0) os << ",\"request\":" << s.request;
    os << "}}";
    first = false;
  }
  os << "\n]}\n";
  return bool(os);
}

}  // namespace perfbench::trace
