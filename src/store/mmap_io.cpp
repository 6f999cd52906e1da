#include "store/mmap_io.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "common/check.hpp"

namespace dfv::store {

namespace {

/// One no-resource sentinel mapping target so empty maps need no branch
/// in data()/size() accessors.
const std::uint8_t kEmpty[1] = {0};

}  // namespace

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    this->~MappedFile();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

MappedFile::~MappedFile() {
  if (data_ != nullptr && data_ != kEmpty && size_ > 0)
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
  data_ = nullptr;
  size_ = 0;
}

MappedFile MappedFile::map_prefix(const std::string& path, std::size_t length) {
  MappedFile m;
  if (length == 0) {
    m.data_ = kEmpty;
    return m;
  }
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  DFV_CHECK_MSG(fd >= 0, "store: cannot open for mmap: " + path);
  struct ::stat st{};
  const bool stat_ok = ::fstat(fd, &st) == 0;
  if (!stat_ok || std::uint64_t(st.st_size) < length) {
    ::close(fd);
    DFV_CHECK_MSG(false, "store: truncated file (shorter than committed "
                         "extent): " + path);
  }
  void* p = ::mmap(nullptr, length, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  DFV_CHECK_MSG(p != MAP_FAILED, "store: mmap failed: " + path);
  m.data_ = static_cast<const std::uint8_t*>(p);
  m.size_ = length;
  return m;
}

AppendFile::AppendFile(AppendFile&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

AppendFile& AppendFile::operator=(AppendFile&& other) noexcept {
  if (this != &other) {
    this->~AppendFile();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

AppendFile::~AppendFile() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

AppendFile AppendFile::open(const std::string& path) {
  AppendFile f;
  f.fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_APPEND | O_CLOEXEC, 0644);
  DFV_CHECK_MSG(f.fd_ >= 0, "store: cannot create for append: " + path);
  return f;
}

void AppendFile::append(const void* data, std::size_t n) {
  DFV_CHECK(fd_ >= 0);
  const std::uint8_t* p = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    const ::ssize_t put = ::write(fd_, p, n);
    if (put < 0 && errno == EINTR) continue;
    DFV_CHECK_MSG(put > 0, "store: append write failed");
    p += put;
    n -= std::size_t(put);
  }
}

void AppendFile::sync() {
  DFV_CHECK(fd_ >= 0);
  DFV_CHECK_MSG(::fdatasync(fd_) == 0, "store: fdatasync failed");
}

std::uint64_t file_size_or_zero(const std::string& path) noexcept {
  struct ::stat st{};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return std::uint64_t(st.st_size);
}

}  // namespace dfv::store
