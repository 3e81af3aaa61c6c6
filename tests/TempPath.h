//===- tests/TempPath.h - Per-test scratch paths ----------------*- C++ -*-===//
//
// Part of the Autonomizer reproduction (PLDI '19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A scratch path owned by one test. Every gtest case runs as its own ctest
/// process, so under `ctest -j` two tests that share a fixed path can
/// rewrite each other's files mid-test. A TempPath lives under
/// ::testing::TempDir() and is named after the running test, a caller tag
/// and the process id, so no two tests (nor two concurrent suite runs)
/// share one. Whatever ends up at the path — a file or a directory tree —
/// is removed when the TempPath goes out of scope.
///
//===----------------------------------------------------------------------===//

#ifndef AU_TESTS_TEMPPATH_H
#define AU_TESTS_TEMPPATH_H

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <unistd.h>

namespace au {
namespace test {

class TempPath {
public:
  /// \p Tag tells apart several paths of one test and supplies the file
  /// extension. With \p MakeDir the path is created as an empty directory.
  explicit TempPath(const std::string &Tag, bool MakeDir = false) {
    const ::testing::TestInfo *T =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string Test = T ? std::string(T->test_suite_name()) + "." + T->name()
                         : std::string("no_test");
    Path = ::testing::TempDir() + "au_" + Test + "_" +
           std::to_string(::getpid()) + "_" + Tag;
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
    if (MakeDir)
      std::filesystem::create_directories(Path);
  }
  ~TempPath() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }

  TempPath(const TempPath &) = delete;
  TempPath &operator=(const TempPath &) = delete;

  const std::string &str() const { return Path; }

private:
  std::string Path;
};

} // namespace test
} // namespace au

#endif // AU_TESTS_TEMPPATH_H
