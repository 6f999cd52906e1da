#include "sim/campaign_store.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <system_error>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/integrity.hpp"
#include "exec/exec.hpp"
#include "sim/record_fields.hpp"

namespace dfv::sim {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kMetaMagic = "dfv-campaign-store";
constexpr int kMetaVersion = 3;

constexpr std::array<const char*, 3> kSubStores = {"runs", "steps", "neigh"};

/// A store entry's row space: Count entries are runs columns, the rest go
/// by scope (Run, Step, Neigh follow Dataset in the enum).
template <class F>
constexpr std::size_t kSub = F::role == record::Role::Count ? 0 : std::size_t(F::scope) - 1;

/// bool and u8 entries are U8 columns; the rest ride as f64 (exact for
/// every integer the simulator produces).
template <class F>
constexpr bool kU8 = sizeof(typename F::Type) == 1;

/// One store column, in list order, staged for a write.
struct Staged {
  std::vector<double> f64;
  std::vector<std::uint8_t> u8;
};

/// Call `f(entry, columns[j])` for the j-th store entry of the field list.
template <class Columns, class Fn>
void for_store_fields(Columns& columns, Fn&& f) {
  std::size_t j = 0;
  record::fields([&](const auto& field) {
    if constexpr (std::remove_cvref_t<decltype(field)>::in_store) f(field, columns[j++]);
  });
}

[[nodiscard]] std::size_t store_columns() {
  std::size_t n = 0;
  record::fields([&](const auto& field) {
    if constexpr (std::remove_cvref_t<decltype(field)>::in_store) ++n;
  });
  return n;
}

/// A column's name in META: "<sub>/<name>".
template <class F>
[[nodiscard]] std::string column_name(const F& field) {
  return std::string(kSubStores[kSub<F>]) + "/" + field.store.str();
}

/// The name of the j-th store column, in list order.
[[nodiscard]] std::string column_name_at(std::size_t j) {
  std::string name;
  record::fields([&](const auto& field) {
    if constexpr (std::remove_cvref_t<decltype(field)>::in_store)
      if (j-- == 0) name = column_name(field);
  });
  return name;
}

/// One dataset's store columns, one per store entry in list order.
[[nodiscard]] std::vector<Staged> stage(const Dataset& ds) {
  std::vector<Staged> columns(store_columns());
  for (std::size_t r = 0; r < ds.runs.size(); ++r) {
    const RunRecord& run = ds.runs[r];
    DFV_CHECK_MSG(!record::ragged(run), "campaign store: run " << r << " is ragged");
    record::Cursor<const Dataset, const RunRecord> c{ds, run, r};
    for_store_fields(columns, [&](const auto& field, Staged& col) {
      using F = std::remove_cvref_t<decltype(field)>;
      const std::size_t n_rows = kSub<F> == 0 ? 1 : record::rows(run, F::scope);
      for (c.row = 0; c.row < n_rows; ++c.row) {
        if constexpr (kU8<F>) col.u8.push_back(std::uint8_t(field.get(c)));
        else col.f64.push_back(double(field.get(c)));
      }
    });
  }
  return columns;
}

[[nodiscard]] std::string meta_path(const std::string& dir) { return dir + "/META"; }

/// A dataset's column file: "<dir>/<label>.col".
[[nodiscard]] std::string dataset_path(const std::string& dir, const apps::DatasetSpec& spec) {
  return dir + "/" + spec.label() + ".col";
}

[[nodiscard]] std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

[[nodiscard]] std::uint64_t parse_hex64(const std::string& tok) {
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(tok.c_str(), &end, 16);
  DFV_CHECK_MSG(tok.size() == 16 && end == tok.c_str() + tok.size(),
                "campaign store: bad CRC field '" << tok << "' in META");
  return v;
}

/// Write one dataset's columns back to back into the file `path` (one
/// sync for all of them) and return its META lines: the dataset line
/// with the runs/steps/neigh row counts, then one `column <sub>/<name>
/// <crc>` line per column.
[[nodiscard]] std::string write_dataset(const Dataset& ds, const std::string& path) {
  std::array<std::size_t, 3> rows{};
  std::ostringstream columns;
  const auto staged = stage(ds);
  store::AppendFile file = store::AppendFile::open(path);
  for_store_fields(staged, [&](const auto& field, const Staged& col) {
    using F = std::remove_cvref_t<decltype(field)>;
    const auto bytes = kU8<F> ? std::as_bytes(std::span(col.u8)) : std::as_bytes(std::span(col.f64));
    file.append(bytes.data(), bytes.size());
    rows[kSub<F>] = kU8<F> ? col.u8.size() : col.f64.size();
    columns << "column " << column_name(field) << ' '
            << hex64(fnv1a64_update(kFnvBasis, bytes.data(), bytes.size())) << '\n';
  });
  file.sync();
  std::ostringstream lines;
  lines << "dataset " << ds.spec.app << ' ' << ds.spec.nodes;
  for (std::size_t n : rows) lines << ' ' << n;
  lines << '\n' << columns.str();
  return lines.str();
}

}  // namespace

bool campaign_store_exists(const std::string& dir) {
  return store::file_size_or_zero(meta_path(dir)) > 0;
}

bool save_campaign_store(const CampaignResult& result, const std::string& dir) {
  DFV_CHECK_MSG(!result.datasets.empty(), "campaign store: nothing to save");
  if (campaign_store_exists(dir)) return false;  // a committed entry is write-once
  // An entry directory without META was never committed (a writer died
  // mid-publish): clear it, so no dataset file keeps a stale prefix.
  std::error_code ec;
  fs::remove_all(dir, ec);
  if (!ec) fs::create_directories(dir, ec);
  if (ec) return false;
  try {
    // Datasets publish in parallel: each writes only its own file, so no
    // byte depends on the order, and the datasets' syncs overlap instead
    // of queueing one behind another. META is written strictly after
    // every dataset file is synced.
    const std::size_t n = result.datasets.size();
    std::vector<std::string> lines(n);
    exec::parallel_for(0, n, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i)
        lines[i] = write_dataset(result.datasets[i], dataset_path(dir, result.datasets[i].spec));
    });
    std::string text = std::string(kMetaMagic) + ' ' + std::to_string(kMetaVersion) +
                       "\ndatasets " + std::to_string(n) + '\n';
    for (const std::string& l : lines) text += l;
    append_checksum_footer(text);
    return atomic_write_file(meta_path(dir), text);
  } catch (const ContractError&) {
    return false;
  }
}

CampaignStorePin CampaignStorePin::open(const std::string& dir) {
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
  DFV_CHECK_MSG(bool(is) && kw == "datasets" && n > 0, "campaign store: bad dataset count");

  CampaignStorePin pin;
  pin.dir_ = dir;
  for (std::size_t i = 0; i < n; ++i) {
    Entry& e = pin.datasets_.emplace_back();
    is >> kw >> e.spec.app >> e.spec.nodes >> e.rows[0] >> e.rows[1] >> e.rows[2];
    DFV_CHECK_MSG(bool(is) && kw == "dataset" && !e.spec.app.empty() && e.spec.nodes >= 1,
                  "campaign store: bad dataset line in " + dir);
    std::size_t end = 0;  // the next column's offset in the dataset file
    record::fields([&](const auto& field) {
      using F = std::remove_cvref_t<decltype(field)>;
      if constexpr (F::in_store) {
        const std::string name = column_name(field);
        std::string path, crc;
        is >> kw >> path >> crc;
        DFV_CHECK_MSG(bool(is) && kw == "column" && path == name,
                      "campaign store: META lacks column " << name << " in " << dir);
        constexpr std::size_t elem = kU8<F> ? 1 : sizeof(double);
        const std::uint64_t rows = e.rows[kSub<F>];
        DFV_CHECK_MSG(rows <= (std::numeric_limits<std::size_t>::max() - end) / elem,
                      "campaign store: row count out of range in " << dir);
        e.crc.push_back(parse_hex64(crc));
        e.offset.push_back(end);
        end += std::size_t(rows) * elem;
      }
    });
    e.offset.push_back(end);
    // A file shorter than its columns throws: a short dataset is corrupt.
    e.file = store::MappedFile::map_prefix(dataset_path(dir, e.spec), end);
  }
  DFV_CHECK_MSG(!(is >> kw), "campaign store: trailing text in META of " + dir);
  return pin;
}

void CampaignStorePin::verify(std::size_t first, std::size_t last) const {
  // One flag per (dataset, column) in that order. FNV-1a is serial within
  // a column, so a task covers whole columns: consecutive ones, closed
  // once it holds kVerifyGrain bytes. An entry smaller than that is one
  // task, which the pool runs inline on the caller.
  constexpr std::size_t kVerifyGrain = std::size_t(64) << 10;
  const std::size_t per = store_columns(), n = (last - first) * per;
  const auto column = [&](std::size_t k) -> std::pair<const Entry&, std::size_t> {
    return {datasets_[first + k / per], k % per};
  };
  std::vector<std::size_t> starts{0};  // each task's first flag, then n
  std::size_t bytes = 0;               // in the open task
  for (std::size_t k = 0; k < n; ++k) {
    const auto [e, j] = column(k);
    bytes += e.offset[j + 1] - e.offset[j];
    if (bytes >= kVerifyGrain || k + 1 == n) {
      starts.push_back(k + 1);
      bytes = 0;
    }
  }

  std::vector<std::uint8_t> ok(n);
  exec::parallel_for(0, starts.size() - 1, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t k = starts[lo]; k < starts[hi]; ++k) {
      const auto [e, j] = column(k);
      ok[k] = fnv1a64_update(kFnvBasis, e.file.data() + e.offset[j],
                             e.offset[j + 1] - e.offset[j]) == e.crc[j];
    }
  });
  // Report the first damaged column in (dataset, column) order, so the
  // error is the same at any thread count.
  const std::size_t k = std::size_t(std::ranges::find(ok, std::uint8_t{0}) - ok.begin());
  DFV_CHECK_MSG(k == n, "campaign store: CRC mismatch in "
                            << datasets_[first + k / per].spec.label() << '/'
                            << column_name_at(k % per) << " of " << dir_);
}

Dataset CampaignStorePin::load_dataset(std::size_t i) const {
  DFV_CHECK(i < datasets_.size());
  verify(i, i + 1);
  return decode(i);
}

Dataset CampaignStorePin::decode(std::size_t i) const {
  const Entry& e = datasets_[i];
  std::vector<const std::uint8_t*> columns;  // each column's first byte
  for (std::size_t j = 0; j + 1 < e.offset.size(); ++j)
    columns.push_back(e.file.data() + e.offset[j]);
  Dataset ds;
  ds.spec = e.spec;
  ds.runs.resize(e.rows[0]);
  std::array<std::size_t, 3> off{};  // the run's first row in each directory
  for (std::size_t r = 0; r < ds.runs.size(); ++r) {
    RunRecord& run = ds.runs[r];
    record::Cursor<Dataset, RunRecord> c{ds, run, r};
    // One walk in list order: the row counts come before the rows they
    // size, and has_quality after the quality rows it may clear.
    for_store_fields(columns, [&](const auto& field, const std::uint8_t* col) {
      using F = std::remove_cvref_t<decltype(field)>;
      using T = typename F::Type;
      // memcpy, not a double load: a column after a u8 one is unaligned.
      const auto value = [&](std::size_t row) {
        double v = 0.0;
        if constexpr (kU8<F>) v = col[row];
        else std::memcpy(&v, col + row * sizeof v, sizeof v);
        DFV_CHECK_MSG(record::representable<T>(v), "campaign store: '" << field.store.str()
                                                       << "' row " << row << " holds " << v);
        return T(v);
      };
      constexpr std::size_t k = kSub<F>, counted = std::size_t(F::scope) - 1;
      if constexpr (F::role == record::Role::Count)  // bounded before it sizes anything
        DFV_CHECK_MSG(value(r) <= e.rows[counted] - off[counted],
                      "campaign store: " << kSubStores[counted] << " shorter than the run index");
      const std::size_t first = k == 0 ? r : off[k];
      const std::size_t n_rows = k == 0 ? 1 : record::rows(run, F::scope);
      for (c.row = 0; c.row < n_rows; ++c.row) field.set(c, value(first + c.row));
    });
    off[1] += record::rows(run, record::Scope::Step);
    off[2] += record::rows(run, record::Scope::Neigh);
  }
  DFV_CHECK_MSG(off[1] == e.rows[1] && off[2] == e.rows[2],
                "campaign store: trailing rows not owned by any run");
  return ds;
}

CampaignResult CampaignStorePin::load_all() const {
  // Verify here, not at open, so an open stays O(META parse + mmap), yet
  // no damaged value is decoded. Every column of every dataset verifies in
  // one pool region; decoding stays on the caller, so the records come
  // from its own heap, not the workers' malloc arenas.
  verify(0, datasets_.size());
  CampaignResult result;
  for (std::size_t i = 0; i < datasets_.size(); ++i) result.datasets.push_back(decode(i));
  return result;
}

}  // namespace dfv::sim
