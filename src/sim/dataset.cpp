#include "sim/dataset.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>

#include "common/check.hpp"
#include "common/csv.hpp"
#include "common/integrity.hpp"
#include "exec/exec.hpp"
#include "sim/record_fields.hpp"

namespace dfv::sim {

double RunRecord::total_time_s() const {
  double total = 0.0;
  for (double v : step_times)
    if (std::isfinite(v)) total += v;
  return total;
}

int Dataset::steps_per_run() const {
  // Modal run length: robust to a minority of truncated runs. Ties go to
  // the longer length (truncation only ever shortens).
  std::vector<std::pair<int, int>> freq;  // (length, count)
  for (const auto& r : runs) {
    const int len = r.steps();
    bool found = false;
    for (auto& [l, n] : freq)
      if (l == len) {
        ++n;
        found = true;
      }
    if (!found) freq.emplace_back(len, 1);
  }
  int best_len = 0, best_n = 0;
  for (const auto& [l, n] : freq)
    if (n > best_n || (n == best_n && l > best_len)) {
      best_len = l;
      best_n = n;
    }
  return best_len;
}

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Average `value(run, t)` over runs where step t exists, is usable, and
/// the value is finite. Steps nobody observed come back NaN.
template <typename Value>
std::vector<double> tolerant_mean_curve(const Dataset& ds, int T, Value value) {
  std::vector<double> sum(std::size_t(T), 0.0);
  std::vector<int> count(std::size_t(T), 0);
  for (const auto& r : ds.runs) {
    const int steps = std::min(T, r.steps());
    for (int t = 0; t < steps; ++t) {
      if (!r.step_usable(t)) continue;
      const double v = value(r, t);
      if (!std::isfinite(v)) continue;
      sum[std::size_t(t)] += v;
      count[std::size_t(t)] += 1;
    }
  }
  for (int t = 0; t < T; ++t)
    sum[std::size_t(t)] =
        count[std::size_t(t)] > 0 ? sum[std::size_t(t)] / double(count[std::size_t(t)]) : kNaN;
  return sum;
}

}  // namespace

std::vector<double> Dataset::mean_step_curve() const {
  const int T = steps_per_run();
  if (runs.empty()) return std::vector<double>(std::size_t(T), 0.0);
  return tolerant_mean_curve(*this, T, [](const RunRecord& r, int t) {
    return r.step_times[std::size_t(t)];
  });
}

std::vector<double> Dataset::mean_counter_curve(mon::Counter c) const {
  DFV_CHECK(int(c) >= 0 && int(c) < mon::kNumCounters);
  const int T = steps_per_run();
  if (runs.empty()) return std::vector<double>(std::size_t(T), 0.0);
  return tolerant_mean_curve(*this, T, [c](const RunRecord& r, int t) {
    return r.step_counters[std::size_t(t)][std::size_t(int(c))];
  });
}

std::vector<double> Dataset::total_times() const {
  std::vector<double> out;
  out.reserve(runs.size());
  for (const auto& r : runs) out.push_back(r.total_time_s());
  return out;
}

std::string RepairReport::summary() const {
  std::ostringstream os;
  os << "policy=" << faults::to_string(policy) << " runs=" << runs_in
     << " dropped_runs=" << runs_dropped << " truncated=" << truncated_runs
     << " bad_steps=" << bad_steps << " imputed=" << imputed_steps
     << " wraps=" << wrapped_cells << " corrupt_cells=" << corrupt_cells
     << " profiles_missing=" << profiles_missing;
  return os.str();
}

RepairReport Dataset::repair(faults::RepairPolicy policy, const faults::RepairOptions& opt) {
  RepairReport rep;
  rep.policy = policy;
  rep.runs_in = int(runs.size());
  if (policy == faults::RepairPolicy::Keep || runs.empty()) return rep;

  const int expected = steps_per_run();
  std::vector<faults::RunRepairStats> stats(runs.size());
  exec::parallel_for(0, runs.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      stats[i] = faults::repair_run(runs[i].telemetry(), policy, opt, expected);
  });

  for (const auto& s : stats) {
    rep.bad_steps += s.bad_steps;
    rep.imputed_steps += s.imputed_steps;
    rep.wrapped_cells += s.wrapped_cells;
    rep.corrupt_cells += s.corrupt_cells;
    if (s.truncated) rep.truncated_runs += 1;
    if (s.dropped) rep.runs_dropped += 1;
    if (s.profile_missing) rep.profiles_missing += 1;
  }
  DFV_CHECK_MSG(policy != faults::RepairPolicy::Strict || !rep.any_anomaly(),
                "strict repair policy: dataset '" << spec.app << "/" << spec.nodes
                                                  << "' has degraded telemetry ("
                                                  << rep.summary() << ")");

  if (rep.runs_dropped > 0) {
    std::size_t w = 0;
    for (std::size_t i = 0; i < runs.size(); ++i)
      if (!stats[i].dropped) {
        if (w != i) runs[w] = std::move(runs[i]);
        ++w;
      }
    runs.resize(w);
  }
  return rep;
}

void inject_faults(Dataset& ds, const faults::FaultSpec& spec, std::uint64_t stream_seed) {
  if (!spec.enabled()) return;
  spec.validate();
  exec::parallel_for(0, ds.runs.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      (void)faults::inject_run(ds.runs[i].telemetry(), spec,
                               exec::substream_seed(stream_seed, i));
  });
}

namespace {

using record::Scope;

/// A value's CSV text; doubles take their shortest round-trip form, so an
/// export reloads as the in-memory dataset bit-exactly (NaNs included).
template <class T>
void append_cell(std::string& cell, const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    cell += v;
  } else {
    char buf[32];
    using Text = std::conditional_t<std::is_same_v<T, bool>, int, T>;
    cell.append(buf, std::to_chars(buf, buf + sizeof buf, Text(v)).ptr);
  }
}

/// One cell as `T`, consumed in full. Numbers accept nan/inf spellings
/// (degraded telemetry round-trips); integers must fit their type.
template <class T>
[[nodiscard]] T parse_cell(const std::string& cell, std::size_t row, const record::Name& name) {
  if constexpr (std::is_same_v<T, std::string>) {
    return cell;
  } else {
    char* end = nullptr;
    const double v = std::strtod(cell.c_str(), &end);
    DFV_CHECK_MSG(!cell.empty() && end == cell.c_str() + cell.size() &&
                      record::representable<T>(v),
                  "dataset CSV data row " << row << ": field '" << name.str() << "' is not "
                                          << (std::is_same_v<T, double> ? "a number"
                                                                        : "an integer in range")
                                          << ": '" << cell << "'");
    return T(v);
  }
}

}  // namespace

std::string dataset_to_csv(const Dataset& ds) {
  Csv csv;
  record::fields([&](const auto& field) {
    if (field.csv) csv.header.push_back(field.csv.str());
  });
  for (std::size_t r = 0; r < ds.runs.size(); ++r) {
    const RunRecord& run = ds.runs[r];
    DFV_CHECK_MSG(!record::ragged(run), "dataset CSV export: run " << r << " is ragged");
    record::Cursor<const Dataset, const RunRecord> c{ds, run, r};
    for (std::size_t t = 0; t < run.step_times.size(); ++t) {
      std::vector<std::string>& row = csv.rows.emplace_back();
      record::fields([&](const auto& field) {
        if (!field.csv) return;
        std::string& cell = row.emplace_back();
        if constexpr (std::remove_cvref_t<decltype(field)>::scope == Scope::Neigh) {
          for (c.row = 0; c.row < record::rows(run, Scope::Neigh); ++c.row) {
            if (c.row > 0) cell += ';';
            append_cell(cell, field.get(c));
          }
        } else {
          c.row = t;
          append_cell(cell, field.get(c));
        }
      });
    }
  }
  return csv.str();
}

Dataset dataset_from_csv(const std::string& text, faults::RepairPolicy policy) {
  const Csv csv = parse_csv(text);
  Dataset ds;
  if (csv.rows.empty()) return ds;
  // Each CSV entry's column, in list order; npos for an optional column
  // the file lacks.
  std::vector<std::size_t> columns;
  record::fields([&](const auto& field) {
    if (field.csv) columns.push_back(csv.col(field.csv.str(), field.csv_optional));
  });

  // List order puts a row's run index before its run values and its step
  // index before its step values. Run values come from the run's first row.
  RunRecord run;
  record::Cursor<Dataset, RunRecord> c{ds, run};
  for (std::size_t i = 0; i < csv.rows.size(); ++i) {
    const std::size_t rn = i + 1;
    DFV_CHECK_MSG(csv.rows[i].size() == csv.header.size(),
                  "dataset CSV data row " << rn << " has " << csv.rows[i].size()
                                          << " fields, expected " << csv.header.size()
                                          << " (truncated or malformed line?)");
    bool first_row_of_run = false;
    std::size_t j = 0;
    record::fields([&](const auto& field) {
      using F = std::remove_cvref_t<decltype(field)>;
      if (!field.csv) return;
      const std::size_t col = columns[j++];
      if (col == Csv::npos) return;
      const std::string& cell = csv.rows[i][col];
      const auto value = [&] { return parse_cell<typename F::Type>(cell, rn, field.csv); };
      if constexpr (F::role == record::Role::Index && F::scope == Scope::Run) {
        // Runs are numbered 0, 1, ... in file order, each run's rows together.
        const std::size_t v = value();
        first_row_of_run = v == (i == 0 ? 0 : c.run_index + 1);
        DFV_CHECK_MSG(first_row_of_run || (i > 0 && v == c.run_index),
                      "dataset CSV data row " << rn << ": run index " << v << " out of sequence");
        if (first_row_of_run && i > 0) ds.runs.push_back(std::exchange(run, {}));
        c.run_index = v;
      } else if constexpr (F::role == record::Role::Index) {
        const std::size_t v = value();
        DFV_CHECK_MSG(v == run.step_times.size(), "dataset CSV data row "
                                                      << rn << ": step index " << v
                                                      << " out of order (expected "
                                                      << run.step_times.size() << ")");
        record::resize_rows(run, Scope::Step, v + 1);
        c.row = v;
      } else if constexpr (F::scope == Scope::Dataset) {
        if (i == 0) field.set(c, value());
        DFV_CHECK_MSG(value() == field.get(c), "dataset CSV data row "
                                                   << rn << ": " << field.csv.str()
                                                   << " changed mid-file ('" << cell << "' vs '"
                                                   << field.get(c) << "')");
      } else if constexpr (F::scope == Scope::Step) {
        field.set(c, value());
      } else if constexpr (F::scope == Scope::Neigh) {
        std::istringstream users(cell);
        std::string user;
        while (first_row_of_run && std::getline(users, user, ';')) {
          if (user.empty()) continue;
          c.row = run.neighborhood_users.size();
          record::resize_rows(run, Scope::Neigh, c.row + 1);
          field.set(c, parse_cell<typename F::Type>(user, rn, field.csv));
        }
      } else if (first_row_of_run) {
        field.set(c, value());
      }
    });
  }
  ds.runs.push_back(std::move(run));
  if (policy != faults::RepairPolicy::Keep) (void)ds.repair(policy);
  return ds;
}

bool save_dataset(const Dataset& ds, const std::string& path) {
  DFV_CHECK_MSG(!path.empty(), "save_dataset: empty path");
  std::string text = dataset_to_csv(ds);
  append_checksum_footer(text);
  return atomic_write_file(path, text);
}

Dataset load_dataset(const std::string& path, bool require_checksum,
                     faults::RepairPolicy policy) {
  std::ifstream f(path, std::ios::binary);
  DFV_CHECK_MSG(bool(f), "cannot open dataset file '" << path << "'");
  std::ostringstream os;
  os << f.rdbuf();
  std::string text = os.str();
  const ChecksumStatus status = verify_and_strip_checksum(text);
  DFV_CHECK_MSG(status != ChecksumStatus::Mismatch,
                "dataset file '" << path << "' failed its integrity check (corrupt entry)");
  DFV_CHECK_MSG(!require_checksum || status == ChecksumStatus::Ok,
                "dataset file '" << path << "' lacks an integrity footer");
  return dataset_from_csv(text, policy);
}

}  // namespace dfv::sim
