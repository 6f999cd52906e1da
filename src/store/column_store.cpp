#include "store/column_store.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/integrity.hpp"
#include "common/rng.hpp"

namespace dfv::store {

namespace {

constexpr std::string_view kMagic = "dfv-store";
constexpr int kVersion = 1;

[[nodiscard]] bool valid_column_name(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    if (!ok) return false;
  }
  return true;
}

[[nodiscard]] std::string column_path(const std::string& dir, const std::string& name) {
  return dir + "/" + name + ".col";
}

[[nodiscard]] std::string manifest_path(const std::string& dir) {
  return dir + "/MANIFEST";
}

[[nodiscard]] std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

[[nodiscard]] std::uint64_t parse_hex64(const std::string& tok) {
  DFV_CHECK_MSG(tok.size() == 16, "store: bad hex field in MANIFEST");
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(tok.c_str(), &end, 16);
  DFV_CHECK_MSG(end == tok.c_str() + tok.size(), "store: bad hex field in MANIFEST");
  return v;
}

[[nodiscard]] std::size_t segments_for(std::uint64_t rows, std::uint32_t seg_rows) {
  return std::size_t((rows + seg_rows - 1) / seg_rows);
}

/// Fold `n` values into the per-segment zone maps, walking fixed segment
/// boundaries from absolute row `start_row`. The grouping depends only on
/// absolute row index — never on how callers batched their appends — so
/// zone stats and CRCs are append-chunking invariant by construction.
template <typename T>
void fold_values(std::vector<ZoneMap>& zones, std::uint64_t start_row,
                 std::uint32_t seg_rows, const T* vals, std::size_t n) {
  std::size_t i = 0;
  while (i < n) {
    const std::uint64_t row = start_row + i;
    const std::size_t seg = std::size_t(row / seg_rows);
    if (zones.size() == seg) {
      ZoneMap z;
      z.min = z.max = std::numeric_limits<double>::quiet_NaN();
      z.crc = kFnvBasis;
      zones.push_back(z);
    }
    DFV_CHECK(zones.size() == seg + 1);
    const std::uint64_t seg_end = (std::uint64_t(seg) + 1) * seg_rows;
    const std::size_t run = std::size_t(std::min<std::uint64_t>(n - i, seg_end - row));
    ZoneMap& z = zones[seg];
    for (std::size_t k = 0; k < run; ++k) {
      const double v = double(vals[i + k]);
      z.min = std::fmin(z.min, v);
      z.max = std::fmax(z.max, v);
      z.sum += v;
    }
    z.crc = fnv1a64_update(z.crc, vals + i, run * sizeof(T));
    z.count += run;
    i += run;
  }
}

struct Manifest {
  std::uint32_t segment_rows = 0;
  std::uint64_t epoch = 0;
  std::uint64_t rows = 0;
  std::vector<ColumnSpec> specs;
  std::vector<std::vector<ZoneMap>> zones;
};

[[nodiscard]] Manifest parse_manifest(const std::string& dir) {
  std::ifstream in(manifest_path(dir), std::ios::binary);
  DFV_CHECK_MSG(bool(in), "store: missing MANIFEST in " + dir);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  DFV_CHECK_MSG(verify_and_strip_checksum(text) == ChecksumStatus::Ok,
                "store: corrupt MANIFEST (bad or missing checksum) in " + dir);

  Manifest m;
  std::istringstream is(text);
  std::string kw;
  int version = 0;
  is >> kw >> version;
  DFV_CHECK_MSG(kw == kMagic && version == kVersion,
                "store: unrecognized MANIFEST header in " + dir);
  is >> kw >> m.segment_rows;
  DFV_CHECK_MSG(kw == "segment_rows" && m.segment_rows > 0,
                "store: bad segment_rows in " + dir);
  is >> kw >> m.epoch;
  DFV_CHECK(kw == "epoch");
  is >> kw >> m.rows;
  DFV_CHECK(kw == "rows");
  std::size_t columns = 0;
  is >> kw >> columns;
  DFV_CHECK_MSG(kw == "columns" && columns > 0, "store: bad column count in " + dir);
  for (std::size_t c = 0; c < columns; ++c) {
    std::string name, kind;
    is >> kw >> name >> kind;
    DFV_CHECK_MSG(kw == "column" && valid_column_name(name) &&
                      (kind == "f64" || kind == "u8"),
                  "store: bad column line in " + dir);
    m.specs.push_back({name, kind == "f64" ? ColumnKind::F64 : ColumnKind::U8});
  }
  const std::size_t nseg = segments_for(m.rows, m.segment_rows);
  m.zones.assign(columns, {});
  for (std::size_t c = 0; c < columns; ++c) {
    m.zones[c].resize(nseg);
    for (std::size_t g = 0; g < nseg; ++g) {
      std::size_t col = 0, seg = 0;
      std::string min_h, max_h, sum_h, crc_h;
      ZoneMap z;
      is >> kw >> col >> seg >> z.count >> min_h >> max_h >> sum_h >> crc_h;
      DFV_CHECK_MSG(bool(is) && kw == "zone" && col == c && seg == g,
                    "store: bad zone table in " + dir);
      z.min = std::bit_cast<double>(parse_hex64(min_h));
      z.max = std::bit_cast<double>(parse_hex64(max_h));
      z.sum = std::bit_cast<double>(parse_hex64(sum_h));
      z.crc = parse_hex64(crc_h);
      const std::uint64_t expect =
          std::min<std::uint64_t>(m.segment_rows,
                                  m.rows - std::uint64_t(g) * m.segment_rows);
      DFV_CHECK_MSG(z.count == expect, "store: zone row count mismatch in " + dir);
      m.zones[c][g] = z;
    }
  }
  return m;
}

}  // namespace

// ---------------------------------------------------------------- StorePin

std::shared_ptr<const StorePin> StorePin::load(const std::string& dir) {
  DFV_CHECK_MSG(!dir.empty(), "store dir must not be empty");
  Manifest m = parse_manifest(dir);
  auto pin = std::make_shared<StorePin>();
  pin->dir_ = dir;
  pin->epoch_ = m.epoch;
  pin->rows_ = m.rows;
  pin->segment_rows_ = m.segment_rows;
  pin->specs_ = std::move(m.specs);
  pin->zones_ = std::move(m.zones);
  pin->maps_.reserve(pin->specs_.size());
  for (const ColumnSpec& s : pin->specs_)
    pin->maps_.push_back(MappedFile::map_prefix(
        column_path(dir, s.name), std::size_t(m.rows) * column_elem_size(s.kind)));
  return pin;
}

std::size_t StorePin::column_index(const std::string& name) const {
  for (std::size_t c = 0; c < specs_.size(); ++c)
    if (specs_[c].name == name) return c;
  DFV_CHECK_MSG(false, "store: no such column: " + name);
  return 0;  // unreachable
}

std::span<const double> StorePin::f64(const std::string& name) const {
  const std::size_t c = column_index(name);
  DFV_CHECK_MSG(specs_[c].kind == ColumnKind::F64, "store: column is not f64: " + name);
  return {reinterpret_cast<const double*>(maps_[c].data()), std::size_t(rows_)};
}

std::span<const std::uint8_t> StorePin::u8(const std::string& name) const {
  const std::size_t c = column_index(name);
  DFV_CHECK_MSG(specs_[c].kind == ColumnKind::U8, "store: column is not u8: " + name);
  return {maps_[c].data(), std::size_t(rows_)};
}

std::span<const ZoneMap> StorePin::zones(std::size_t col) const {
  DFV_CHECK(col < zones_.size());
  return zones_[col];
}

std::uint64_t StorePin::content_fingerprint() const {
  std::uint64_t h = hash_combine(rows_, segment_rows_);
  for (std::size_t c = 0; c < specs_.size(); ++c) {
    h = hash_combine(h, fnv1a64(specs_[c].name));
    h = hash_combine(h, std::uint64_t(specs_[c].kind));
    for (const ZoneMap& z : zones_[c]) h = hash_combine(h, z.crc);
  }
  return h;
}

void StorePin::verify_integrity() const {
  for (std::size_t c = 0; c < specs_.size(); ++c) {
    const std::size_t elem = column_elem_size(specs_[c].kind);
    for (std::size_t g = 0; g < zones_[c].size(); ++g) {
      const ZoneMap& z = zones_[c][g];
      const std::size_t off = g * std::size_t(segment_rows_) * elem;
      const std::uint64_t crc = fnv1a64_update(
          kFnvBasis, maps_[c].data() + off, std::size_t(z.count) * elem);
      DFV_CHECK_MSG(crc == z.crc, "store: segment CRC mismatch in column " +
                                      specs_[c].name + " of " + dir_);
    }
  }
}

// -------------------------------------------------------------- ColumnStore

ColumnStore ColumnStore::create(const std::string& dir, std::vector<ColumnSpec> specs,
                                const StoreOptions& opts, const AppendChunk& first) {
  namespace fs = std::filesystem;
  DFV_CHECK_MSG(!specs.empty(), "store: a store needs at least one column");
  DFV_CHECK_MSG(opts.segment_rows > 0, "store: segment_rows must be positive");
  for (std::size_t i = 0; i < specs.size(); ++i) {
    DFV_CHECK_MSG(valid_column_name(specs[i].name),
                  "store: bad column name: '" + specs[i].name + "'");
    for (std::size_t j = i + 1; j < specs.size(); ++j)
      DFV_CHECK_MSG(specs[i].name != specs[j].name,
                    "store: duplicate column name: " + specs[i].name);
  }
  fs::create_directories(dir);
  DFV_CHECK_MSG(file_size_or_zero(manifest_path(dir)) == 0,
                "store: directory already holds a store: " + dir);

  ColumnStore s;
  s.dir_ = dir;
  s.specs_ = std::move(specs);
  s.segment_rows_ = opts.segment_rows;
  s.cols_.resize(s.specs_.size());
  for (std::size_t c = 0; c < s.specs_.size(); ++c) {
    s.cols_[c].file = AppendFile::open(column_path(dir, s.specs_[c].name));
    s.cols_[c].file.truncate_to(0);  // drop stale bytes from a dead store
  }
  if (first.rows > 0) s.append(first);
  s.publish();  // epoch 1: readers can pin immediately
  return s;
}

ColumnStore ColumnStore::open(const std::string& dir) {
  Manifest m = parse_manifest(dir);
  ColumnStore s;
  s.dir_ = dir;
  s.specs_ = std::move(m.specs);
  s.segment_rows_ = m.segment_rows;
  s.rows_ = m.rows;
  s.epoch_ = m.epoch;
  s.pub_rows_ = m.rows;
  s.cols_.resize(s.specs_.size());
  for (std::size_t c = 0; c < s.specs_.size(); ++c) {
    ColState& col = s.cols_[c];
    col.file = AppendFile::open(column_path(dir, s.specs_[c].name));
    col.zones = std::move(m.zones[c]);
    const std::uint64_t committed = m.rows * column_elem_size(s.specs_[c].kind);
    DFV_CHECK_MSG(col.file.size() >= committed,
                  "store: column shorter than committed extent: " +
                      s.specs_[c].name + " in " + dir);
    // Anything past the committed extent is a torn write from a writer
    // that died between append and publish — recover by dropping it.
    if (col.file.size() > committed) col.file.truncate_to(committed);
  }
  return s;
}

std::shared_ptr<const StorePin> ColumnStore::open_pin(const std::string& dir) {
  return StorePin::load(dir);
}

std::uint64_t ColumnStore::rows() const {
  std::lock_guard<std::mutex> lk(*mu_);
  return rows_;
}

std::uint64_t ColumnStore::published_rows() const {
  std::lock_guard<std::mutex> lk(*mu_);
  return pub_rows_;
}

void ColumnStore::append(const AppendChunk& chunk) {
  std::lock_guard<std::mutex> lk(*mu_);
  DFV_CHECK_MSG(chunk.rows > 0, "store: empty append");
  std::size_t n_f64 = 0, n_u8 = 0;
  for (const ColumnSpec& s : specs_) (s.kind == ColumnKind::F64 ? n_f64 : n_u8) += 1;
  DFV_CHECK_MSG(chunk.f64.size() == n_f64 && chunk.u8.size() == n_u8,
                "store: append chunk does not match the store schema");
  for (const auto& sp : chunk.f64) DFV_CHECK(sp.size() == chunk.rows);
  for (const auto& sp : chunk.u8) DFV_CHECK(sp.size() == chunk.rows);

  std::size_t i_f64 = 0, i_u8 = 0;
  for (std::size_t c = 0; c < specs_.size(); ++c) {
    ColState& col = cols_[c];
    if (specs_[c].kind == ColumnKind::F64) {
      const std::span<const double> v = chunk.f64[i_f64++];
      col.file.append(v.data(), v.size_bytes());
      fold_values(col.zones, rows_, segment_rows_, v.data(), v.size());
    } else {
      const std::span<const std::uint8_t> v = chunk.u8[i_u8++];
      col.file.append(v.data(), v.size_bytes());
      fold_values(col.zones, rows_, segment_rows_, v.data(), v.size());
    }
  }
  rows_ += chunk.rows;
}

void ColumnStore::publish() {
  std::lock_guard<std::mutex> lk(*mu_);
  for (ColState& col : cols_) col.file.sync();
  epoch_ += 1;
  std::string text = manifest_text();
  append_checksum_footer(text);
  DFV_CHECK_MSG(atomic_write_file(manifest_path(dir_), text),
                "store: MANIFEST publish failed in " + dir_);
  pub_rows_ = rows_;
}

std::shared_ptr<const StorePin> ColumnStore::pin() const {
  // The on-disk MANIFEST is exactly the last published state, and its
  // publish is an atomic rename — loading it races safely with publish().
  return StorePin::load(dir_);
}

std::string ColumnStore::manifest_text() const {
  std::ostringstream os;
  os << kMagic << ' ' << kVersion << '\n';
  os << "segment_rows " << segment_rows_ << '\n';
  os << "epoch " << epoch_ << '\n';
  os << "rows " << rows_ << '\n';
  os << "columns " << specs_.size() << '\n';
  for (const ColumnSpec& s : specs_)
    os << "column " << s.name << ' ' << (s.kind == ColumnKind::F64 ? "f64" : "u8")
       << '\n';
  for (std::size_t c = 0; c < cols_.size(); ++c)
    for (std::size_t g = 0; g < cols_[c].zones.size(); ++g) {
      const ZoneMap& z = cols_[c].zones[g];
      os << "zone " << c << ' ' << g << ' ' << z.count << ' '
         << hex64(std::bit_cast<std::uint64_t>(z.min)) << ' '
         << hex64(std::bit_cast<std::uint64_t>(z.max)) << ' '
         << hex64(std::bit_cast<std::uint64_t>(z.sum)) << ' ' << hex64(z.crc)
         << '\n';
    }
  return os.str();
}

}  // namespace dfv::store
