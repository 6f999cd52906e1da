#include "common/integrity.hpp"

#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace dfv {

std::uint64_t fnv1a64(std::string_view data) noexcept {
  return fnv1a64_update(kFnvBasis, data.data(), data.size());
}

std::uint64_t fnv1a64_update(std::uint64_t state, const void* data,
                             std::size_t n) noexcept {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    state ^= p[i];
    state *= 0x100000001b3ull;
  }
  return state;
}

namespace {

constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull, kP2 = 0xC2B2AE3D27D4EB4Full,
                        kP3 = 0x165667B19E3779F9ull, kP4 = 0x85EBCA77C2B2AE63ull,
                        kP5 = 0x27D4EB2F165667C5ull;

static_assert(std::endian::native == std::endian::little,
              "xxh64 reads little-endian words, as the specification defines them");

/// memcpy loads: a column after a u8 one starts at any byte offset.
std::uint64_t load64(const unsigned char* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint32_t load32(const unsigned char* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint64_t xxh_round(std::uint64_t acc, std::uint64_t input) noexcept {
  return std::rotl(acc + input * kP2, 31) * kP1;
}

std::uint64_t xxh_merge(std::uint64_t h, std::uint64_t acc) noexcept {
  return (h ^ xxh_round(0, acc)) * kP1 + kP4;
}

}  // namespace

std::uint64_t xxh64(const void* data, std::size_t n) noexcept {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + n;
  std::uint64_t h;
  if (n >= 32) {
    std::uint64_t v1 = kP1 + kP2, v2 = kP2, v3 = 0, v4 = 0 - kP1;
    for (; end - p >= 32; p += 32) {
      v1 = xxh_round(v1, load64(p));
      v2 = xxh_round(v2, load64(p + 8));
      v3 = xxh_round(v3, load64(p + 16));
      v4 = xxh_round(v4, load64(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
    h = xxh_merge(xxh_merge(xxh_merge(xxh_merge(h, v1), v2), v3), v4);
  } else {
    h = kP5;
  }
  h += std::uint64_t(n);
  for (; end - p >= 8; p += 8) h = std::rotl(h ^ xxh_round(0, load64(p)), 27) * kP1 + kP4;
  if (end - p >= 4) {
    h = std::rotl(h ^ (std::uint64_t(load32(p)) * kP1), 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) h = std::rotl(h ^ (std::uint64_t(*p) * kP5), 11) * kP1;
  h = (h ^ (h >> 33)) * kP2;
  h = (h ^ (h >> 29)) * kP3;
  return h ^ (h >> 32);
}

void append_checksum_footer(std::string& content) {
  if (!content.empty() && content.back() != '\n') content += '\n';
  const std::uint64_t h = fnv1a64(content);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  content.append(kChecksumPrefix);
  content.append(buf);
  content += '\n';
}

ChecksumStatus verify_and_strip_checksum(std::string& content) {
  // The footer is the final line: "#dfv-crc <16 hex>\n".
  const std::size_t footer_len = kChecksumPrefix.size() + 16 + 1;
  if (content.size() < footer_len || content.back() != '\n')
    return ChecksumStatus::Missing;
  const std::size_t line_start = content.size() - footer_len;
  if (line_start != 0 && content[line_start - 1] != '\n') return ChecksumStatus::Missing;
  if (content.compare(line_start, kChecksumPrefix.size(), kChecksumPrefix) != 0)
    return ChecksumStatus::Missing;

  std::uint64_t stored = 0;
  for (std::size_t i = line_start + kChecksumPrefix.size(); i + 1 < content.size(); ++i) {
    const char c = content[i];
    int digit;
    if (c >= '0' && c <= '9')
      digit = c - '0';
    else if (c >= 'a' && c <= 'f')
      digit = c - 'a' + 10;
    else
      return ChecksumStatus::Missing;  // not a well-formed footer after all
    stored = (stored << 4) | std::uint64_t(digit);
  }

  const std::string_view body(content.data(), line_start);
  const std::uint64_t actual = fnv1a64(body);
  content.resize(line_start);
  return actual == stored ? ChecksumStatus::Ok : ChecksumStatus::Mismatch;
}

bool atomic_write_file(const std::string& path, const std::string& content) {
  // A temp name of its own per writer: writers of one path in other
  // processes (pid) or threads (counter) never share a temp inode, so no
  // rename can publish another writer's half-written file.
  static std::atomic<std::uint64_t> writes{0};
  const std::string tmp = path + "." + std::to_string(::getpid()) + "." +
                          std::to_string(writes.fetch_add(1)) + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) return false;
    f << content;
    f.flush();
    if (!f) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

}  // namespace dfv
