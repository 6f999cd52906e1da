// Per-process scratch directories for tests that write files. Each test
// process works under its own root, `<testing::TempDir()>/dfv_test_<pid>`,
// so two runs at once (two build trees, a sanitizer stage beside a manual
// run) never write into one directory, and a ScratchRoot environment
// removes the root when the process's tests are done.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace dfv::testutil {

[[nodiscard]] inline std::filesystem::path scratch_root() {
  return std::filesystem::path(::testing::TempDir()) /
         ("dfv_test_" + std::to_string(::getpid()));
}

/// `name` under this process's root: its parent exists, `name` does not.
[[nodiscard]] inline std::string scratch(const std::string& name) {
  const std::filesystem::path dir = scratch_root() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir.parent_path());
  return dir.string();
}

/// Register once per test binary:
///   const auto* const kScratch = ::testing::AddGlobalTestEnvironment(new ScratchRoot);
class ScratchRoot : public ::testing::Environment {
 public:
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(scratch_root(), ec);
  }
};

}  // namespace dfv::testutil
