// The persisted layout of a RunRecord, stated once: every value the
// campaign store and the dataset CSV export keep is one entry of
// `record::fields`, in one total order. The store's runs/ (Run scope and
// row counts), steps/ (Step) and neigh/ (Neigh) columns and the CSV header
// (one row per run step; Neigh values joined with ';') are the parts of
// that order each format names. An entry's C++ type picks its encoding.
// Changing the list changes bytes on disk (see RecordFormatGolden).
#pragma once

#include <cmath>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>

#include "common/check.hpp"
#include "sim/dataset.hpp"

namespace dfv::sim::record {

enum class Scope { Dataset, Run, Step, Neigh };  // Dataset: CSV only, one value per file

/// Count: the run's row count in the entry's scope (store only, a runs
/// column). Index: the row's run or step index (CSV only).
enum class Role { Value, Count, Index };

/// A column name (`text` null: not in that format); array element
/// `index` appends `suffix(index)`, or two digits when there is none.
struct Name {
  const char* text = nullptr;
  int index = -1;
  const char* (*suffix)(std::size_t) = nullptr;

  [[nodiscard]] explicit operator bool() const noexcept { return text != nullptr; }
  [[nodiscard]] std::string str() const {
    std::string s = text;
    if (suffix != nullptr) {
      s += suffix(std::size_t(index));
    } else if (index >= 0) {
      if (index < 10) s += '0';
      s += std::to_string(index);
    }
    return s;
  }
};

/// Row `row` (Step or Neigh scope) of run `run_index`; writers use const D, R.
template <class D, class R>
struct Cursor {
  D& ds;
  R& run;
  std::size_t run_index = 0, row = 0;
};

/// One persisted value: `get(cursor)` reads it, `set(cursor, T)` stores it
/// into a record being loaded (the CSV reader checks Index entries instead).
template <Scope S, Role R, class T, class Get, class Set>
struct Field {
  static constexpr Scope scope = S;
  static constexpr Role role = R;
  static constexpr bool in_store = S != Scope::Dataset && R != Role::Index;
  using Type = T;
  Name store, csv;
  bool csv_optional;  ///< exports written before fault tracking lack the column
  Get get;
  Set set;
};

template <Scope S, class T, Role R = Role::Value>
[[nodiscard]] constexpr auto field(Name store, Name csv, auto get, auto set,
                                   bool csv_optional = false) {
  return Field<S, R, T, decltype(get), decltype(set)>{store, csv, csv_optional, get, set};
}

/// A value held in the record: `at(cursor)` is a reference to it.
template <Scope S>
[[nodiscard]] constexpr auto held(Name store, Name csv, auto at, bool csv_optional = false) {
  using T = std::remove_cvref_t<decltype(at(std::declval<Cursor<Dataset, RunRecord>&>()))>;
  return field<S, T>(
      store, csv, [at](const auto& c) -> decltype(auto) { return at(c); },
      [at](auto& c, T v) { at(c) = std::move(v); }, csv_optional);
}

[[nodiscard]] inline std::size_t rows(const RunRecord& run, Scope s) {
  return s == Scope::Step ? run.step_times.size() : run.neighborhood_users.size();
}

/// Size scope `s` to `n` rows (quality sizes itself when set).
inline void resize_rows(RunRecord& run, Scope s, std::size_t n) {
  if (s == Scope::Neigh) return run.neighborhood_users.resize(n);
  run.step_times.resize(n);
  run.step_counters.resize(n);
  run.step_ldms.resize(n);
}

/// Both writers refuse a ragged run: a Step vector without one entry
/// per step (the quality vector may also be empty).
[[nodiscard]] inline bool ragged(const RunRecord& run) {
  const std::size_t T = run.step_times.size(), Q = run.step_quality.size();
  return run.step_counters.size() != T || run.step_ldms.size() != T || (Q != 0 && Q != T);
}

/// Whether a stored number decodes as `T`: integers must be finite,
/// integral and in range (a corrupt count must not size a vector).
template <class T>
[[nodiscard]] bool representable(double v) {
  return std::is_floating_point_v<T> ||
         (std::isfinite(v) && v == std::trunc(v) &&
          v >= double(std::numeric_limits<T>::lowest()) &&
          v < double(std::numeric_limits<T>::max()) + 1.0);
}

template <Scope S>
[[nodiscard]] constexpr auto count(const char* name) {
  return field<S, std::size_t, Role::Count>(
      {name}, {}, [](const auto& c) { return rows(c.run, S); },
      [](auto& c, std::size_t n) { resize_rows(c.run, S, n); });
}

/// Call `f(entry)` for every persisted value, in the one order.
template <class F>
void fields(F&& f) {
  using enum Scope;
  f(held<Dataset>({}, {"app"}, [](auto& c) -> auto& { return c.ds.spec.app; }));
  f(held<Dataset>({}, {"nodes"}, [](auto& c) -> auto& { return c.ds.spec.nodes; }));
  f(field<Run, std::size_t, Role::Index>({}, {"run"}, [](const auto& c) { return c.run_index; },
                                         nullptr));
  f(held<Run>({"job_id"}, {"job_id"}, [](auto& c) -> auto& { return c.run.job_id; }));
  f(held<Run>({"submit_s"}, {"submit_s"}, [](auto& c) -> auto& { return c.run.submit_time_s; }));
  f(held<Run>({"start_s"}, {"start_s"}, [](auto& c) -> auto& { return c.run.start_time_s; }));
  f(held<Run>({"end_s"}, {"end_s"}, [](auto& c) -> auto& { return c.run.end_time_s; }));
  f(held<Run>({"num_routers"}, {"num_routers"},
              [](auto& c) -> auto& { return c.run.num_routers; }));
  f(held<Run>({"num_groups"}, {"num_groups"}, [](auto& c) -> auto& { return c.run.num_groups; }));
  f(count<Step>("steps"));
  f(count<Neigh>("neigh_count"));
  f(held<Neigh>({"user_id"}, {"neighborhood"},
                [](auto& c) -> auto& { return c.run.neighborhood_users[c.row]; }));
  f(held<Run>({"prof_compute"}, {"compute_s"},
              [](auto& c) -> auto& { return c.run.profile.compute_s; }));
  f(field<Step, std::size_t, Role::Index>({}, {"step"}, [](const auto& c) { return c.row; },
                                          nullptr));
  f(held<Step>({"step_time"}, {"step_time"},
               [](auto& c) -> auto& { return c.run.step_times[c.row]; }));
  for (int k = 0; k < mon::kNumCounters; ++k)
    f(held<Step>({"ctr_", k},
                 {"", k, [](std::size_t i) { return mon::counter_name(mon::Counter(i)); }},
                 [k](auto& c) -> auto& { return c.run.step_counters[c.row][std::size_t(k)]; }));
  for (int k = 0; k < mon::kNumIoFeatures; ++k)
    f(held<Step>({"io_", k}, {"", k, [](std::size_t i) { return mon::ldms_io_feature_names()[i]; }},
                 [k](auto& c) -> auto& { return c.run.step_ldms[c.row].io[std::size_t(k)]; }));
  for (int k = 0; k < mon::kNumSysFeatures; ++k)
    f(held<Step>({"sys_", k},
                 {"", k, [](std::size_t i) { return mon::ldms_sys_feature_names()[i]; }},
                 [k](auto& c) -> auto& { return c.run.step_ldms[c.row].sys[std::size_t(k)]; }));
  for (int k = 0; k < mon::kNumRoutines; ++k)
    f(held<Run>({"prof_r", k},
                {"mpi_", k, [](std::size_t i) { return mon::routine_name(mon::MpiRoutine(i)); }},
                [k](auto& c) -> auto& { return c.run.profile.routine_s[std::size_t(k)]; }));
  // A run without a quality vector reads as all-ok; setting a step's
  // quality makes the vector explicit, and has_quality may clear it.
  f(field<Step, std::uint8_t>(
      {"quality"}, {"quality"}, [](const auto& c) { return c.run.quality(int(c.row)); },
      [](auto& c, std::uint8_t q) {
        c.run.step_quality.resize(c.run.step_times.size(), faults::kQualityOk);
        c.run.step_quality[c.row] = q;
      },
      true));
  f(held<Run>({"profile_missing"}, {"profile_missing"},
              [](auto& c) -> auto& { return c.run.profile_missing; }, true));
  f(field<Run, bool>(
      {"has_quality"}, {}, [](const auto& c) { return !c.run.step_quality.empty(); },
      [](auto& c, bool has) {
        if (!has) c.run.step_quality.clear();
      }));
}

}  // namespace dfv::sim::record
