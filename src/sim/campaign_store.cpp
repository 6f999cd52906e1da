#include "sim/campaign_store.hpp"

#include <array>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <vector>

#include "common/check.hpp"
#include "common/integrity.hpp"
#include "exec/exec.hpp"
#include "sim/record_fields.hpp"

namespace dfv::sim {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kMetaMagic = "dfv-campaign-store";
constexpr int kMetaVersion = 1;

constexpr std::array<const char*, 3> kSubStores = {"runs", "steps", "neigh"};

/// A store entry's sub-store: Count entries are runs columns, the rest go
/// by scope (Run, Step, Neigh follow Dataset in the enum).
template <class F>
constexpr std::size_t kSub = F::role == record::Role::Count ? 0 : std::size_t(F::scope) - 1;

/// bool and u8 entries are U8 columns; the rest ride as f64 (exact for
/// every integer the simulator produces).
template <class F>
constexpr bool kU8 = sizeof(typename F::Type) == 1;

/// One store column, in list order: staged for a write, or mapped.
struct Staged {
  std::vector<double> f64;
  std::vector<std::uint8_t> u8;
};
struct Mapped {
  std::span<const double> f64;
  std::span<const std::uint8_t> u8;
};

/// Call `f(entry, columns[j])` for the j-th store entry of the field list.
template <class Columns, class Fn>
void for_store_fields(Columns& columns, Fn&& f) {
  std::size_t j = 0;
  record::fields([&](const auto& field) {
    if constexpr (std::remove_cvref_t<decltype(field)>::in_store) f(field, columns[j++]);
  });
}

/// One dataset's store columns, one per store entry in list order.
[[nodiscard]] std::vector<Staged> stage(const Dataset& ds, std::size_t n_columns) {
  std::vector<Staged> columns(n_columns);
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

struct MetaEntry {
  apps::DatasetSpec spec;
  std::array<std::uint64_t, 3> rows{};  // runs, steps, neigh
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
    is >> kw >> e.spec.app >> e.spec.nodes >> e.rows[0] >> e.rows[1] >> e.rows[2];
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
    std::array<std::vector<store::ColumnSpec>, 3> schema;
    record::fields([&](const auto& field) {
      using F = std::remove_cvref_t<decltype(field)>;
      if constexpr (F::in_store)
        schema[kSub<F>].push_back(
            {field.store.str(), kU8<F> ? store::ColumnKind::U8 : store::ColumnKind::F64});
    });
    std::vector<std::array<std::size_t, 3>> published(n);
    exec::parallel_for(0, n, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        const Dataset& ds = result.datasets[i];
        const auto columns = stage(ds, schema[0].size() + schema[1].size() + schema[2].size());
        // One append and one publish per sub-store.
        std::array<store::AppendChunk, 3> chunks;
        for_store_fields(columns, [&](const auto& field, const Staged& col) {
          using F = std::remove_cvref_t<decltype(field)>;
          store::AppendChunk& chunk = chunks[kSub<F>];
          chunk.rows = kU8<F> ? col.u8.size() : col.f64.size();
          if constexpr (kU8<F>) chunk.u8.emplace_back(col.u8);
          else chunk.f64.emplace_back(col.f64);
        });
        for (std::size_t k = 0; k < 3; ++k) {
          (void)store::ColumnStore::create(dir + "/" + ds.spec.label() + "/" + kSubStores[k],
                                           schema[k], {}, chunks[k]);
          published[i][k] = chunks[k].rows;
        }
      }
    });
    std::ostringstream meta;
    meta << kMetaMagic << ' ' << kMetaVersion << '\n';
    meta << "datasets " << n << '\n';
    for (std::size_t i = 0; i < n; ++i) {
      meta << "dataset " << result.datasets[i].spec.app << ' ' << result.datasets[i].spec.nodes;
      for (std::size_t k = 0; k < 3; ++k) meta << ' ' << published[i][k];
      meta << '\n';
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
    auto& p = pin.pins_.emplace_back();
    for (std::size_t k = 0; k < 3; ++k) {
      p[k] = store::ColumnStore::open_pin(dir + "/" + e.spec.label() + "/" + kSubStores[k]);
      DFV_CHECK_MSG(p[k]->rows() == e.rows[k],
                    "campaign store: META row counts disagree with the stores in " + dir);
    }
    pin.specs_.push_back(e.spec);
  }
  return pin;
}

Dataset CampaignStorePin::load_dataset(std::size_t i) const {
  DFV_CHECK(i < pins_.size());
  const auto& p = pins_[i];
  // Verify at materialization (already O(bytes)), not at open: cold opens
  // stay O(MANIFEST parse + mmap), and corruption is still caught before
  // a single damaged value reaches an analysis.
  for (const auto& sub : p) sub->verify_integrity();
  Dataset ds;
  ds.spec = specs_[i];
  std::vector<Mapped> columns;
  record::fields([&](const auto& field) {
    using F = std::remove_cvref_t<decltype(field)>;
    if constexpr (F::in_store && kU8<F>) columns.push_back({{}, p[kSub<F>]->u8(field.store.str())});
    else if constexpr (F::in_store) columns.push_back({p[kSub<F>]->f64(field.store.str()), {}});
  });

  ds.runs.resize(p[0]->rows());
  std::array<std::size_t, 3> off{};  // the run's first row in each sub-store
  for (std::size_t r = 0; r < ds.runs.size(); ++r) {
    RunRecord& run = ds.runs[r];
    record::Cursor<Dataset, RunRecord> c{ds, run, r};
    // One walk in list order: the row counts come before the rows they
    // size, and has_quality after the quality rows it may clear.
    for_store_fields(columns, [&](const auto& field, const Mapped& col) {
      using F = std::remove_cvref_t<decltype(field)>;
      using T = typename F::Type;
      const auto value = [&](std::size_t row) {
        const double v = kU8<F> ? col.u8[row] : col.f64[row];
        DFV_CHECK_MSG(record::representable<T>(v), "campaign store: '" << field.store.str()
                                                       << "' row " << row << " holds " << v);
        return T(v);
      };
      constexpr std::size_t k = kSub<F>, counted = std::size_t(F::scope) - 1;
      if constexpr (F::role == record::Role::Count)  // bounded before it sizes anything
        DFV_CHECK_MSG(value(r) <= p[counted]->rows() - off[counted],
                      "campaign store: " << kSubStores[counted] << " shorter than the run index");
      const std::size_t first = k == 0 ? r : off[k];
      const std::size_t n_rows = k == 0 ? 1 : record::rows(run, F::scope);
      for (c.row = 0; c.row < n_rows; ++c.row) field.set(c, value(first + c.row));
    });
    off[1] += record::rows(run, record::Scope::Step);
    off[2] += record::rows(run, record::Scope::Neigh);
  }
  DFV_CHECK_MSG(off[1] == p[1]->rows() && off[2] == p[2]->rows(),
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
