#include "sim/campaign_store.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/check.hpp"
#include "common/integrity.hpp"
#include "exec/exec.hpp"

namespace dfv::sim {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kMetaMagic = "dfv-campaign-store";
constexpr int kMetaVersion = 1;

[[nodiscard]] std::string idx2(const char* prefix, std::size_t k) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%s%02zu", prefix, k);
  return buf;
}

/// Per-run scalar columns. Ints ride as f64 (exact for every value the
/// simulator produces); the two u8 flags keep round-trip fidelity for
/// profile_missing and the empty-vs-explicit quality distinction.
[[nodiscard]] std::vector<store::ColumnSpec> runs_schema() {
  std::vector<store::ColumnSpec> s;
  for (const char* n : {"job_id", "submit_s", "start_s", "end_s", "num_routers",
                        "num_groups", "steps", "neigh_count", "prof_compute"})
    s.push_back({n, store::ColumnKind::F64});
  for (std::size_t k = 0; k < std::size_t(mon::kNumRoutines); ++k)
    s.push_back({idx2("prof_r", k), store::ColumnKind::F64});
  s.push_back({"profile_missing", store::ColumnKind::U8});
  s.push_back({"has_quality", store::ColumnKind::U8});
  return s;
}

/// Per-step telemetry columns (one row per run-step, runs concatenated
/// in order).
[[nodiscard]] std::vector<store::ColumnSpec> steps_schema() {
  std::vector<store::ColumnSpec> s;
  s.push_back({"step_time", store::ColumnKind::F64});
  for (std::size_t k = 0; k < std::size_t(mon::kNumCounters); ++k)
    s.push_back({idx2("ctr_", k), store::ColumnKind::F64});
  for (std::size_t k = 0; k < std::size_t(mon::kNumIoFeatures); ++k)
    s.push_back({idx2("io_", k), store::ColumnKind::F64});
  for (std::size_t k = 0; k < std::size_t(mon::kNumSysFeatures); ++k)
    s.push_back({idx2("sys_", k), store::ColumnKind::F64});
  s.push_back({"quality", store::ColumnKind::U8});
  return s;
}

[[nodiscard]] std::vector<store::ColumnSpec> neigh_schema() {
  return {{"user_id", store::ColumnKind::F64}};
}

/// Column-major staging buffers for one sub-store, appended in one shot.
struct Staging {
  std::vector<std::vector<double>> f64;
  std::vector<std::vector<std::uint8_t>> u8;
  std::size_t rows = 0;

  explicit Staging(const std::vector<store::ColumnSpec>& schema) {
    for (const store::ColumnSpec& s : schema) {
      if (s.kind == store::ColumnKind::F64)
        f64.emplace_back();
      else
        u8.emplace_back();
    }
  }
  /// The staged rows as one append chunk (views into this buffer).
  [[nodiscard]] store::AppendChunk chunk() const {
    store::AppendChunk c;
    c.rows = rows;
    for (const auto& col : f64) c.f64.emplace_back(col.data(), col.size());
    for (const auto& col : u8) c.u8.emplace_back(col.data(), col.size());
    return c;
  }
};

void stage_dataset(const Dataset& ds, Staging& runs, Staging& steps, Staging& neigh) {
  for (const RunRecord& run : ds.runs) {
    std::size_t c = 0;
    runs.f64[c++].push_back(double(run.job_id));
    runs.f64[c++].push_back(run.submit_time_s);
    runs.f64[c++].push_back(run.start_time_s);
    runs.f64[c++].push_back(run.end_time_s);
    runs.f64[c++].push_back(double(run.num_routers));
    runs.f64[c++].push_back(double(run.num_groups));
    runs.f64[c++].push_back(double(run.step_times.size()));
    runs.f64[c++].push_back(double(run.neighborhood_users.size()));
    runs.f64[c++].push_back(run.profile.compute_s);
    for (std::size_t k = 0; k < std::size_t(mon::kNumRoutines); ++k)
      runs.f64[c++].push_back(run.profile.routine_s[k]);
    runs.u8[0].push_back(run.profile_missing ? 1 : 0);
    runs.u8[1].push_back(run.step_quality.empty() ? 0 : 1);
    runs.rows += 1;

    const std::size_t T = run.step_times.size();
    DFV_CHECK_MSG(run.step_counters.size() == T && run.step_ldms.size() == T &&
                      (run.step_quality.empty() || run.step_quality.size() == T),
                  "campaign store: ragged run telemetry");
    for (std::size_t t = 0; t < T; ++t) {
      std::size_t sc = 0;
      steps.f64[sc++].push_back(run.step_times[t]);
      for (std::size_t k = 0; k < std::size_t(mon::kNumCounters); ++k)
        steps.f64[sc++].push_back(run.step_counters[t][k]);
      for (std::size_t k = 0; k < std::size_t(mon::kNumIoFeatures); ++k)
        steps.f64[sc++].push_back(run.step_ldms[t].io[k]);
      for (std::size_t k = 0; k < std::size_t(mon::kNumSysFeatures); ++k)
        steps.f64[sc++].push_back(run.step_ldms[t].sys[k]);
      steps.u8[0].push_back(run.step_quality.empty() ? std::uint8_t(faults::kQualityOk)
                                                     : run.step_quality[t]);
    }
    steps.rows += T;

    for (int u : run.neighborhood_users) neigh.f64[0].push_back(double(u));
    neigh.rows += run.neighborhood_users.size();
  }
}

[[nodiscard]] std::string meta_path(const std::string& dir) { return dir + "/META"; }

struct MetaEntry {
  apps::DatasetSpec spec;
  std::uint64_t runs = 0, steps = 0, neigh = 0;
};

[[nodiscard]] std::vector<MetaEntry> parse_meta(const std::string& dir) {
  std::ifstream in(meta_path(dir), std::ios::binary);
  DFV_CHECK_MSG(bool(in), "campaign store: missing META in " + dir);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  DFV_CHECK_MSG(verify_and_strip_checksum(text) == ChecksumStatus::Ok,
                "campaign store: corrupt META in " + dir);
  std::istringstream is(text);
  std::string kw;
  int version = 0;
  std::size_t n = 0;
  is >> kw >> version;
  DFV_CHECK_MSG(kw == kMetaMagic && version == kMetaVersion,
                "campaign store: unrecognized META header in " + dir);
  is >> kw >> n;
  DFV_CHECK_MSG(kw == "datasets" && n > 0, "campaign store: bad dataset count");
  std::vector<MetaEntry> entries(n);
  for (MetaEntry& e : entries) {
    is >> kw >> e.spec.app >> e.spec.nodes >> e.runs >> e.steps >> e.neigh;
    DFV_CHECK_MSG(bool(is) && kw == "dataset" && !e.spec.app.empty() &&
                      e.spec.nodes >= 1,
                  "campaign store: bad dataset line in " + dir);
  }
  return entries;
}

}  // namespace

bool campaign_store_exists(const std::string& dir) {
  return store::file_size_or_zero(meta_path(dir)) > 0;
}

bool save_campaign_store(const CampaignResult& result, const std::string& dir) {
  DFV_CHECK_MSG(!result.datasets.empty(), "campaign store: nothing to save");
  try {
    // An entry directory without META was never committed (a writer died
    // mid-publish): clear it, or its sub-stores would refuse the rewrite
    // and the entry could never be committed again.
    std::error_code ec;
    if (!campaign_store_exists(dir)) fs::remove_all(dir, ec);
    fs::create_directories(dir);
    // Datasets publish in parallel: each writes only its own sub-store
    // directories, so no byte depends on the order, and the datasets'
    // column syncs overlap instead of queueing one behind another. META
    // is still written strictly after every sub-store is published.
    const std::size_t n = result.datasets.size();
    std::vector<std::size_t> steps_rows(n, 0), neigh_rows(n, 0);
    exec::parallel_for(0, n, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        const Dataset& ds = result.datasets[i];
        const std::string base = dir + "/" + ds.spec.label();
        Staging runs(runs_schema()), steps(steps_schema()), neigh(neigh_schema());
        stage_dataset(ds, runs, steps, neigh);
        // One append and one publish per sub-store.
        (void)store::ColumnStore::create(base + "/runs", runs_schema(), {}, runs.chunk());
        (void)store::ColumnStore::create(base + "/steps", steps_schema(), {}, steps.chunk());
        (void)store::ColumnStore::create(base + "/neigh", neigh_schema(), {}, neigh.chunk());
        steps_rows[i] = steps.rows;
        neigh_rows[i] = neigh.rows;
      }
    });
    std::ostringstream meta;
    meta << kMetaMagic << ' ' << kMetaVersion << '\n';
    meta << "datasets " << n << '\n';
    for (std::size_t i = 0; i < n; ++i) {
      const Dataset& ds = result.datasets[i];
      meta << "dataset " << ds.spec.app << ' ' << ds.spec.nodes << ' ' << ds.runs.size()
           << ' ' << steps_rows[i] << ' ' << neigh_rows[i] << '\n';
    }
    std::string text = meta.str();
    append_checksum_footer(text);
    return atomic_write_file(meta_path(dir), text);
  } catch (const ContractError&) {
    return false;
  }
}

CampaignStorePin CampaignStorePin::open(const std::string& dir) {
  CampaignStorePin pin;
  for (const MetaEntry& e : parse_meta(dir)) {
    const std::string base = dir + "/" + e.spec.label();
    DatasetPins p;
    p.runs = store::ColumnStore::open_pin(base + "/runs");
    p.steps = store::ColumnStore::open_pin(base + "/steps");
    p.neigh = store::ColumnStore::open_pin(base + "/neigh");
    DFV_CHECK_MSG(p.runs->rows() == e.runs && p.steps->rows() == e.steps &&
                      p.neigh->rows() == e.neigh,
                  "campaign store: META row counts disagree with the stores in " + dir);
    pin.specs_.push_back(e.spec);
    pin.pins_.push_back(std::move(p));
  }
  return pin;
}

Dataset CampaignStorePin::load_dataset(std::size_t i) const {
  DFV_CHECK(i < pins_.size());
  const DatasetPins& p = pins_[i];
  // Verify at materialization (already O(bytes)), not at open: cold opens
  // stay O(MANIFEST parse + mmap), and corruption is still caught before
  // a single damaged value reaches an analysis.
  p.runs->verify_integrity();
  p.steps->verify_integrity();
  p.neigh->verify_integrity();
  Dataset ds;
  ds.spec = specs_[i];

  const auto job_id = p.runs->f64("job_id");
  const auto submit_s = p.runs->f64("submit_s");
  const auto start_s = p.runs->f64("start_s");
  const auto end_s = p.runs->f64("end_s");
  const auto num_routers = p.runs->f64("num_routers");
  const auto num_groups = p.runs->f64("num_groups");
  const auto steps = p.runs->f64("steps");
  const auto neigh_count = p.runs->f64("neigh_count");
  const auto prof_compute = p.runs->f64("prof_compute");
  std::vector<std::span<const double>> prof_r;
  for (std::size_t k = 0; k < std::size_t(mon::kNumRoutines); ++k)
    prof_r.push_back(p.runs->f64(idx2("prof_r", k)));
  const auto profile_missing = p.runs->u8("profile_missing");
  const auto has_quality = p.runs->u8("has_quality");

  const auto step_time = p.steps->f64("step_time");
  std::vector<std::span<const double>> ctr, io, sys;
  for (std::size_t k = 0; k < std::size_t(mon::kNumCounters); ++k)
    ctr.push_back(p.steps->f64(idx2("ctr_", k)));
  for (std::size_t k = 0; k < std::size_t(mon::kNumIoFeatures); ++k)
    io.push_back(p.steps->f64(idx2("io_", k)));
  for (std::size_t k = 0; k < std::size_t(mon::kNumSysFeatures); ++k)
    sys.push_back(p.steps->f64(idx2("sys_", k)));
  const auto quality = p.steps->u8("quality");
  const auto user_id = p.neigh->f64("user_id");

  ds.runs.resize(job_id.size());
  std::size_t step_off = 0, neigh_off = 0;
  for (std::size_t r = 0; r < ds.runs.size(); ++r) {
    RunRecord& run = ds.runs[r];
    run.job_id = int(job_id[r]);
    run.submit_time_s = submit_s[r];
    run.start_time_s = start_s[r];
    run.end_time_s = end_s[r];
    run.num_routers = int(num_routers[r]);
    run.num_groups = int(num_groups[r]);
    run.profile.compute_s = prof_compute[r];
    for (std::size_t k = 0; k < std::size_t(mon::kNumRoutines); ++k)
      run.profile.routine_s[k] = prof_r[k][r];
    run.profile_missing = profile_missing[r] != 0;

    const std::size_t T = std::size_t(steps[r]);
    DFV_CHECK_MSG(step_off + T <= step_time.size(),
                  "campaign store: step table shorter than the run index");
    run.step_times.assign(step_time.begin() + std::ptrdiff_t(step_off),
                          step_time.begin() + std::ptrdiff_t(step_off + T));
    run.step_counters.resize(T);
    run.step_ldms.resize(T);
    for (std::size_t t = 0; t < T; ++t) {
      for (std::size_t k = 0; k < std::size_t(mon::kNumCounters); ++k)
        run.step_counters[t][k] = ctr[k][step_off + t];
      for (std::size_t k = 0; k < std::size_t(mon::kNumIoFeatures); ++k)
        run.step_ldms[t].io[k] = io[k][step_off + t];
      for (std::size_t k = 0; k < std::size_t(mon::kNumSysFeatures); ++k)
        run.step_ldms[t].sys[k] = sys[k][step_off + t];
    }
    if (has_quality[r] != 0)
      run.step_quality.assign(quality.begin() + std::ptrdiff_t(step_off),
                              quality.begin() + std::ptrdiff_t(step_off + T));
    step_off += T;

    const std::size_t N = std::size_t(neigh_count[r]);
    DFV_CHECK_MSG(neigh_off + N <= user_id.size(),
                  "campaign store: neighborhood table shorter than the run index");
    run.neighborhood_users.resize(N);
    for (std::size_t k = 0; k < N; ++k)
      run.neighborhood_users[k] = int(user_id[neigh_off + k]);
    neigh_off += N;
  }
  DFV_CHECK_MSG(step_off == step_time.size() && neigh_off == user_id.size(),
                "campaign store: trailing rows not owned by any run");
  return ds;
}

CampaignResult CampaignStorePin::load_all() const {
  CampaignResult result;
  for (std::size_t i = 0; i < pins_.size(); ++i)
    result.datasets.push_back(load_dataset(i));
  return result;
}

}  // namespace dfv::sim
