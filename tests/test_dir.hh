/**
 * @file
 * The test suite's one scratch-directory helper. A test that writes
 * files or binds sockets gets a fresh directory under the system temp
 * root whose name carries the process id, so two suite runs at once
 * (two build trees, or parallel ctest processes) never empty or
 * delete each other's directories.
 */

#ifndef MTFPU_TESTS_TEST_DIR_HH
#define MTFPU_TESTS_TEST_DIR_HH

#include <filesystem>
#include <string>
#include <unistd.h>

namespace mtfpu::test
{

/** A fresh empty directory `mtfpu_<tag>_<pid>`, removed on
 *  destruction. */
class TestDir
{
  public:
    explicit TestDir(const std::string &tag)
        : path_(std::filesystem::temp_directory_path() /
                ("mtfpu_" + tag + "_" + std::to_string(::getpid())))
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~TestDir() { std::filesystem::remove_all(path_); }

    TestDir(const TestDir &) = delete;
    TestDir &operator=(const TestDir &) = delete;

    std::string file(const std::string &name) const
    {
        return (path_ / name).string();
    }
    std::string path() const { return path_.string(); }

  private:
    std::filesystem::path path_;
};

} // namespace mtfpu::test

#endif // MTFPU_TESTS_TEST_DIR_HH
