// Test helper: per-process temporary file paths.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace smpst::testing_util {

/// `<gtest temp dir>/<stem>_<pid><ext>`. The pid keeps concurrent runs of
/// one test binary (ctest -j, --repeat) from writing each other's files.
inline std::string temp_file(const std::string& stem,
                             const std::string& ext = ".csr") {
  return (std::filesystem::path(::testing::TempDir()) /
          (stem + "_" + std::to_string(::getpid()) + ext))
      .string();
}

}  // namespace smpst::testing_util
