#include "sim/dataset.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/check.hpp"
#include "common/csv.hpp"
#include "common/integrity.hpp"
#include "exec/exec.hpp"

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

std::string join_ints(const std::vector<int>& v) {
  std::ostringstream os;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) os << ';';
    os << v[i];
  }
  return os.str();
}

std::string fmt(double v) {
  // Shortest round-trip representation: an export must reload as the
  // in-memory dataset bit-exactly (including NaN placeholders).
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// Strict full-consumption numeric parse; accepts nan/inf spellings
/// (degraded telemetry round-trips through an export).
double parse_num(const std::string& cell, std::size_t row, const char* what) {
  DFV_CHECK_MSG(!cell.empty(),
                "dataset CSV data row " << row << ": empty '" << what << "' field");
  char* end = nullptr;
  const double v = std::strtod(cell.c_str(), &end);
  DFV_CHECK_MSG(end == cell.c_str() + cell.size(),
                "dataset CSV data row " << row << ": field '" << what
                                        << "' is not a number: '" << cell << "'");
  return v;
}

long parse_long(const std::string& cell, std::size_t row, const char* what) {
  DFV_CHECK_MSG(!cell.empty(),
                "dataset CSV data row " << row << ": empty '" << what << "' field");
  char* end = nullptr;
  const long v = std::strtol(cell.c_str(), &end, 10);
  DFV_CHECK_MSG(end == cell.c_str() + cell.size(),
                "dataset CSV data row " << row << ": field '" << what
                                        << "' is not an integer: '" << cell << "'");
  return v;
}

int parse_int(const std::string& cell, std::size_t row, const char* what) {
  return int(parse_long(cell, row, what));
}

std::vector<int> split_ints(const std::string& s, std::size_t row) {
  std::vector<int> out;
  std::istringstream is(s);
  std::string tok;
  while (std::getline(is, tok, ';'))
    if (!tok.empty()) out.push_back(parse_int(tok, row, "neighborhood"));
  return out;
}

}  // namespace

std::string dataset_to_csv(const Dataset& ds) {
  for (const auto& r : ds.runs) DFV_CHECK(r.step_counters.size() == r.step_times.size());
  Csv csv;
  csv.header = {"app",        "nodes",     "run",        "job_id",    "submit_s",
                "start_s",    "end_s",     "num_routers", "num_groups", "neighborhood",
                "compute_s",  "step",      "step_time"};
  for (int c = 0; c < mon::kNumCounters; ++c)
    csv.header.push_back(mon::counter_name(mon::counter_from_index(c)));
  for (const char* n : mon::ldms_io_feature_names()) csv.header.emplace_back(n);
  for (const char* n : mon::ldms_sys_feature_names()) csv.header.emplace_back(n);
  for (int r = 0; r < mon::kNumRoutines; ++r)
    csv.header.push_back(std::string("mpi_") +
                         mon::routine_name(static_cast<mon::MpiRoutine>(r)));
  csv.header.emplace_back("quality");
  csv.header.emplace_back("profile_missing");

  for (std::size_t ri = 0; ri < ds.runs.size(); ++ri) {
    const RunRecord& run = ds.runs[ri];
    for (int t = 0; t < run.steps(); ++t) {
      std::vector<std::string> row = {
          ds.spec.app,
          std::to_string(ds.spec.nodes),
          std::to_string(ri),
          std::to_string(run.job_id),
          fmt(run.submit_time_s),
          fmt(run.start_time_s),
          fmt(run.end_time_s),
          std::to_string(run.num_routers),
          std::to_string(run.num_groups),
          join_ints(run.neighborhood_users),
          fmt(run.profile.compute_s),
          std::to_string(t),
          fmt(run.step_times[std::size_t(t)]),
      };
      for (int c = 0; c < mon::kNumCounters; ++c)
        row.push_back(fmt(run.step_counters[std::size_t(t)][std::size_t(c)]));
      const auto& l = run.step_ldms[std::size_t(t)];
      for (double v : l.io) row.push_back(fmt(v));
      for (double v : l.sys) row.push_back(fmt(v));
      for (int r = 0; r < mon::kNumRoutines; ++r)
        row.push_back(fmt(run.profile.routine_s[std::size_t(r)]));
      row.push_back(std::to_string(int(run.quality(t))));
      row.push_back(run.profile_missing ? "1" : "0");
      csv.rows.push_back(std::move(row));
    }
  }
  return csv.str();
}

Dataset dataset_from_csv(const std::string& text, faults::RepairPolicy policy) {
  const Csv csv = parse_csv(text);
  Dataset ds;
  if (csv.rows.empty()) return ds;
  DFV_CHECK_MSG(!csv.header.empty(), "dataset CSV has no header row");
  for (std::size_t i = 0; i < csv.rows.size(); ++i)
    DFV_CHECK_MSG(csv.rows[i].size() == csv.header.size(),
                  "dataset CSV data row " << (i + 1) << " has " << csv.rows[i].size()
                                          << " fields, expected " << csv.header.size()
                                          << " (truncated or malformed line?)");

  const std::size_t c_app = csv.col("app"), c_nodes = csv.col("nodes"),
                    c_run = csv.col("run"), c_job = csv.col("job_id"),
                    c_submit = csv.col("submit_s"), c_start = csv.col("start_s"),
                    c_end = csv.col("end_s"), c_nr = csv.col("num_routers"),
                    c_ng = csv.col("num_groups"), c_nb = csv.col("neighborhood"),
                    c_comp = csv.col("compute_s"), c_step = csv.col("step"),
                    c_time = csv.col("step_time");
  const std::size_t c_counters0 =
      csv.col(mon::counter_name(mon::counter_from_index(0)));
  const std::size_t c_io0 = csv.col("IO_RT_FLIT_TOT");
  const std::size_t c_sys0 = csv.col("SYS_RT_FLIT_TOT");
  const std::size_t c_mpi0 = csv.col("mpi_Allreduce");
  // Quality columns are optional so pre-fault CSVs still load.
  const std::size_t c_q = csv.col_if("quality");
  const std::size_t c_pm = csv.col_if("profile_missing");

  ds.spec.app = csv.rows.front()[c_app];
  ds.spec.nodes = parse_int(csv.rows.front()[c_nodes], 1, "nodes");

  long current_run = -1;
  for (std::size_t i = 0; i < csv.rows.size(); ++i) {
    const auto& row = csv.rows[i];
    const std::size_t rn = i + 1;
    DFV_CHECK_MSG(row[c_app] == ds.spec.app,
                  "dataset CSV data row " << rn << ": app changed mid-file ('"
                                          << row[c_app] << "' vs '" << ds.spec.app << "')");
    const long run_idx = parse_long(row[c_run], rn, "run");
    if (run_idx != current_run) {
      current_run = run_idx;
      RunRecord r;
      r.job_id = parse_int(row[c_job], rn, "job_id");
      r.submit_time_s = parse_num(row[c_submit], rn, "submit_s");
      r.start_time_s = parse_num(row[c_start], rn, "start_s");
      r.end_time_s = parse_num(row[c_end], rn, "end_s");
      r.num_routers = parse_int(row[c_nr], rn, "num_routers");
      r.num_groups = parse_int(row[c_ng], rn, "num_groups");
      r.neighborhood_users = split_ints(row[c_nb], rn);
      r.profile.compute_s = parse_num(row[c_comp], rn, "compute_s");
      for (int k = 0; k < mon::kNumRoutines; ++k)
        r.profile.routine_s[std::size_t(k)] =
            parse_num(row[c_mpi0 + std::size_t(k)], rn, "mpi routine");
      if (c_pm != Csv::npos) r.profile_missing = parse_int(row[c_pm], rn, "profile_missing") != 0;
      ds.runs.push_back(std::move(r));
    }
    RunRecord& r = ds.runs.back();
    const int step = parse_int(row[c_step], rn, "step");
    DFV_CHECK_MSG(step == r.steps(),
                  "dataset CSV data row " << rn << ": step index " << step
                                          << " out of order (expected " << r.steps() << ")");
    r.step_times.push_back(parse_num(row[c_time], rn, "step_time"));
    mon::CounterVec cv{};
    for (int k = 0; k < mon::kNumCounters; ++k)
      cv[std::size_t(k)] = parse_num(row[c_counters0 + std::size_t(k)], rn, "counter");
    r.step_counters.push_back(cv);
    mon::LdmsFeatures lf;
    for (int k = 0; k < mon::kNumIoFeatures; ++k)
      lf.io[std::size_t(k)] = parse_num(row[c_io0 + std::size_t(k)], rn, "ldms io");
    for (int k = 0; k < mon::kNumSysFeatures; ++k)
      lf.sys[std::size_t(k)] = parse_num(row[c_sys0 + std::size_t(k)], rn, "ldms sys");
    r.step_ldms.push_back(lf);
    if (c_q != Csv::npos) {
      const int q = parse_int(row[c_q], rn, "quality");
      DFV_CHECK_MSG(q >= 0 && q <= 255,
                    "dataset CSV data row " << rn << ": quality " << q << " out of range");
      r.step_quality.push_back(std::uint8_t(q));
    }
  }
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
