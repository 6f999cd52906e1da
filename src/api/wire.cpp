#include "api/wire.hpp"

#include <array>
#include <bit>
#include <concepts>
#include <type_traits>
#include <utility>

namespace dfv::api {

namespace {

// ---------------------------------------------------------------------------
// Field lists: every wire struct names its fields once, in wire order, and
// the Writer and the Reader both walk that one list. The C++ type of a
// field picks its encoding (see Writer::put). Changing a list changes the
// bytes: bump kApiVersion and re-record ApiWire.GoldenBytesEveryType.
// ---------------------------------------------------------------------------

/// `S` is `T` or `const T`, so one list serves encode (const) and decode.
template <class S, class T>
concept Is = std::same_as<std::remove_const_t<S>, T>;

void fields(Is<RequestMeta> auto& m, auto&& f) { f(m.request_id, m.deadline_ms); }

// Nested structs.
void fields(Is<analysis::WindowConfig> auto& c, auto&& f) { f(c.m, c.k, c.features); }
void fields(Is<CampaignSummaryRow> auto& r, auto&& f) {
  f(r.label, r.runs, r.steps_per_run, r.runs_dropped, r.bad_steps, r.imputed_steps,
    r.wrapped_cells, r.profiles_missing);
}
void fields(Is<ExportResponse::Item> auto& i, auto&& f) { f(i.path, i.ok); }
void fields(Is<analysis::UserScore> auto& s, auto&& f) {
  f(s.user_id, s.mi, s.presence, s.optimal_when_present, s.optimal_overall);
}
void fields(Is<analysis::NeighborhoodResult> auto& r, auto&& f) {
  f(r.tau, r.mean_total_time, r.optimal_fraction, r.ranked);
}
void fields(Is<analysis::DeviationResult> auto& r, auto&& f) {
  f(r.relevance, r.survival, r.cv_mape, r.cv_mape_linear, r.samples);
}
void fields(Is<analysis::ForecastEval> auto& e, auto&& f) {
  f(e.mape_attention, e.mape_persistence, e.mape_mean, e.windows);
}
void fields(Is<analysis::ForecastGridCell> auto& c, auto&& f) { f(c.window, c.eval); }
void fields(Is<SimulateResponse::Engine> auto& e, auto&& f) {
  f(e.name, e.deadlocked, e.mean_latency_s, e.p99_latency_s, e.mean_hops, e.throughput_bps);
}

// Requests.
void fields(Is<CampaignSummaryRequest> auto&, auto&&) {}
void fields(Is<ExportRequest> auto& q, auto&& f) { f(q.dir); }
void fields(Is<RunLookupRequest> auto& q, auto&& f) { f(q.app_name, q.node_count, q.run_index); }
void fields(Is<NeighborhoodRequest> auto& q, auto&& f) { f(q.app_name, q.node_count, q.tau); }
void fields(Is<DeviationRequest> auto& q, auto&& f) { f(q.app_name, q.node_count); }
void fields(Is<ForecastRequest> auto& q, auto&& f) {
  f(q.app_name, q.node_count, q.run_index, q.t, q.window);
}
void fields(Is<ForecastEvalRequest> auto& q, auto&& f) { f(q.app_name, q.node_count, q.window); }
void fields(Is<ForecastGridRequest> auto& q, auto&& f) { f(q.app_name, q.node_count, q.cells); }
void fields(Is<TopologyRequest> auto& q, auto&& f) { f(q.groups); }
void fields(Is<SimulateRequest> auto& q, auto&& f) {
  f(q.groups, q.pattern, q.policy, q.load, q.packets);
}
void fields(Is<StatsRequest> auto&, auto&&) {}

// Responses.
void fields(Is<ErrorResponse> auto& p, auto&& f) { f(p.code, p.message, p.retry_after_ms); }
void fields(Is<CampaignSummaryResponse> auto& p, auto&& f) { f(p.faulted, p.rows); }
void fields(Is<ExportResponse> auto& p, auto&& f) { f(p.items); }
void fields(Is<RunLookupResponse> auto& p, auto&& f) {
  f(p.job_id, p.submit_time_s, p.start_time_s, p.end_time_s, p.total_time_s, p.num_routers,
    p.num_groups, p.steps, p.profile_missing);
}
void fields(Is<NeighborhoodResponse> auto& p, auto&& f) { f(p.result); }
void fields(Is<DeviationResponse> auto& p, auto&& f) { f(p.result); }
void fields(Is<ForecastResponse> auto& p, auto&& f) {
  f(p.predicted, p.persistence, p.model_windows);
}
void fields(Is<ForecastEvalResponse> auto& p, auto&& f) { f(p.eval); }
void fields(Is<ForecastGridResponse> auto& p, auto&& f) { f(p.cells); }
void fields(Is<TopologyResponse> auto& p, auto&& f) { f(p.description); }
void fields(Is<SimulateResponse> auto& p, auto&& f) {
  f(p.pattern, p.policy, p.load, p.engines);
}
void fields(Is<StatsResponse> auto& p, auto&& f) {
  f(p.shards, p.connections, p.requests, p.local, p.forwarded, p.shed_overload,
    p.shed_deadline, p.evicted_stalled, p.shutdown_aborted);
}

/// Enums travel as a fixed-width integer and decode only inside [lo, hi].
template <class E>
struct EnumWire;
template <>
struct EnumWire<analysis::FeatureSet> {
  using Rep = std::uint8_t;
  static constexpr auto lo = analysis::FeatureSet::App;
  static constexpr auto hi = analysis::FeatureSet::AppPlacementIoSys;
  static constexpr const char* name = "feature-set code";
};
template <>
struct EnumWire<ErrorCode> {
  using Rep = std::uint32_t;
  static constexpr auto lo = ErrorCode::Contract;
  static constexpr auto hi = ErrorCode::ShuttingDown;
  static constexpr const char* name = "error code";
};

template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;

/// Variant tags: the alternative's index plus the first tag, so request
/// tags start at 1 and response tags at 0 (ErrorResponse).
constexpr std::size_t kFirstRequestTag = 1;
constexpr std::size_t kFirstResponseTag = 0;

class Writer {
 public:
  /// bool -> u8; int/uint32 -> 4 bytes; uint64/size_t -> 8 bytes; double
  /// -> its IEEE-754 bits in a u64; enums -> EnumWire::Rep; strings and
  /// vectors -> u32 length + bytes/elements; structs -> their field list.
  template <class T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      raw(std::uint8_t(v ? 1 : 0));
    } else if constexpr (std::is_same_v<T, double>) {
      raw(std::bit_cast<std::uint64_t>(v));
    } else if constexpr (std::is_integral_v<T>) {
      raw(std::make_unsigned_t<T>(v));
    } else if constexpr (std::is_enum_v<T>) {
      raw(typename EnumWire<T>::Rep(v));
    } else if constexpr (std::is_same_v<T, std::string>) {
      raw(std::uint32_t(v.size()));
      buf_.append(v);
    } else if constexpr (kIsVector<T>) {
      raw(std::uint32_t(v.size()));
      for (const auto& e : v) put(e);
    } else {
      fields(v, [this](const auto&... xs) { (put(xs), ...); });
    }
  }
  template <class V>
  void put_tagged(const V& v, std::size_t first_tag) {
    put(std::uint8_t(first_tag + v.index()));
    std::visit([this](const auto& alt) { put(alt); }, v);
  }
  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  /// Little-endian, sizeof(U) bytes.
  template <std::unsigned_integral U>
  void raw(U v) {
    for (std::size_t i = 0; i < sizeof(U); ++i) buf_.push_back(char((v >> (8 * i)) & 0xff));
  }
  std::string buf_;
};

/// Checked cursor over an encoded buffer; every read validates bounds.
class Reader {
 public:
  explicit Reader(std::string_view b) : b_(b) {}

  /// Mirrors Writer::put read for read (any non-zero u8 reads as true).
  template <class T>
  void get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = raw<std::uint8_t>() != 0;
    } else if constexpr (std::is_same_v<T, double>) {
      v = std::bit_cast<double>(raw<std::uint64_t>());
    } else if constexpr (std::is_integral_v<T>) {
      v = T(raw<std::make_unsigned_t<T>>());
    } else if constexpr (std::is_enum_v<T>) {
      using W = EnumWire<T>;
      using Rep = typename W::Rep;
      const Rep code = raw<Rep>();
      DFV_CHECK_MSG(code >= Rep(W::lo) && code <= Rep(W::hi),
                    "wire: unknown " << W::name << " " << std::uint64_t(code));
      v = T(code);
    } else if constexpr (std::is_same_v<T, std::string>) {
      const std::uint32_t n = raw<std::uint32_t>();
      need(n);
      v.assign(b_.substr(pos_, n));
      pos_ += n;
    } else if constexpr (kIsVector<T>) {
      v.resize(count());
      for (auto& e : v) get(e);
    } else {
      fields(v, [this](auto&... xs) { (get(xs), ...); });
    }
  }
  /// Read a tag and decode the alternative of V it names; unknown tags
  /// are a ContractError.
  template <class V>
  [[nodiscard]] V get_tagged(std::size_t first_tag, const char* what) {
    static constexpr auto decoders = []<std::size_t... I>(std::index_sequence<I...>) {
      return std::array<V (*)(Reader&), sizeof...(I)>{&Reader::alternative<V, I>...};
    }(std::make_index_sequence<std::variant_size_v<V>>{});
    const std::size_t tag = raw<std::uint8_t>();
    DFV_CHECK_MSG(tag >= first_tag && tag - first_tag < decoders.size(),
                  "wire: unknown " << what << " tag " << tag);
    return decoders[tag - first_tag](*this);
  }
  void done() const {
    DFV_CHECK_MSG(pos_ == b_.size(), "wire: trailing bytes after payload");
  }

 private:
  template <class V, std::size_t I>
  [[nodiscard]] static V alternative(Reader& r) {
    std::variant_alternative_t<I, V> v;
    r.get(v);
    return V(std::in_place_index<I>, std::move(v));
  }
  template <std::unsigned_integral U>
  [[nodiscard]] U raw() {
    need(sizeof(U));
    U v = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i) v |= U(U(std::uint8_t(b_[pos_++])) << (8 * i));
    return v;
  }
  /// Element count of a vector; bounded so a corrupt length cannot drive
  /// a multi-gigabyte allocation before the per-element reads fail.
  [[nodiscard]] std::uint32_t count() {
    const std::uint32_t n = raw<std::uint32_t>();
    DFV_CHECK_MSG(std::size_t(n) <= b_.size(), "wire: element count exceeds buffer");
    return n;
  }
  void need(std::size_t n) const {
    DFV_CHECK_MSG(pos_ + n <= b_.size(), "wire: truncated buffer");
  }
  std::string_view b_;
  std::size_t pos_ = 0;
};

void check_version(Reader& r) {
  std::uint32_t v = 0;
  r.get(v);
  if (v != kApiVersion)
    throw VersionError(v, "wire: protocol version " + std::to_string(v) +
                              " is not the supported version " +
                              std::to_string(kApiVersion));
}

}  // namespace

std::string encode_request(const Request& req) { return encode_request(req, {}); }

// dfv-lint: allow(contract): any in-memory Request encodes; decode validates
std::string encode_request(const Request& req, const RequestMeta& meta) {
  Writer w;
  w.put(kApiVersion);
  w.put(meta);
  w.put_tagged(req, kFirstRequestTag);
  return w.take();
}

Request decode_request(std::string_view bytes) {
  return decode_request_envelope(bytes).request;
}

// dfv-lint: allow(contract): Reader checks every read; done() rejects trailing bytes
RequestEnvelope decode_request_envelope(std::string_view bytes) {
  Reader r(bytes);
  check_version(r);
  RequestEnvelope env;
  r.get(env.meta);
  env.request = r.get_tagged<Request>(kFirstRequestTag, "request");
  r.done();
  return env;
}

// dfv-lint: allow(contract): any in-memory Response encodes; decode validates
std::string encode_response(const Response& resp) {
  Writer w;
  w.put(kApiVersion);
  w.put_tagged(resp, kFirstResponseTag);
  return w.take();
}

// dfv-lint: allow(contract): Reader checks every read; done() rejects trailing bytes
Response decode_response(std::string_view bytes) {
  Reader r(bytes);
  check_version(r);
  Response out = r.get_tagged<Response>(kFirstResponseTag, "response");
  r.done();
  return out;
}

}  // namespace dfv::api
