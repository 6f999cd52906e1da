#include "common/integrity.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
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
