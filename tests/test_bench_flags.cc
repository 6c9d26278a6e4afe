/**
 * @file
 * The command-line tools' one flag parser (bench/bench_util.hh): the
 * number parser takes exactly the numbers that fit their field, and a
 * malformed number is each tool's usage error (exit 2) rather than an
 * abort or a silent zero.
 */

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>

#include <gtest/gtest.h>

#include "bench/bench_util.hh"
#include "test_dir.hh"

using namespace mtfpu;

TEST(BenchFlags, NumberParserTakesOnlyNumbersThatFit)
{
    EXPECT_EQ(bench::flagNumber<unsigned>("--n", "0"), 0u);
    EXPECT_EQ(bench::flagNumber<unsigned>("--n", "4294967295"),
              4294967295u);
    EXPECT_EQ(bench::flagNumber<uint64_t>("--n", "18446744073709551615"),
              UINT64_MAX);
    EXPECT_EQ(bench::flagNumber<double>("--f", "0.9"), 0.9);
    for (const char *bad : {"", "abc", "12abc", " 12", "-1", "+1", "0x10",
                            "4294967296"}) {
        SCOPED_TRACE(bad);
        EXPECT_THROW(bench::flagNumber<unsigned>("--n", bad),
                     bench::UsageError);
    }
    EXPECT_THROW(bench::flagNumber<double>("--f", "0.9x"),
                 bench::UsageError);
    try {
        bench::flagNumber<unsigned>("--threads", "abc");
        FAIL() << "garbage accepted";
    } catch (const bench::UsageError &err) {
        EXPECT_NE(std::string(err.what()).find("--threads=abc"),
                  std::string::npos)
            << err.what();
    }
}

TEST(BenchFlags, MalformedNumbersAreUsageErrors)
{
    const test::TestDir scratch("bench_flags");
    const std::filesystem::path dir = scratch.path();
    const std::string out = (dir / "out").string();
    // Each command would run (or serve) on if the number parsed; the
    // timeout turns that into a failure instead of a hang.
    const struct
    {
        std::string command;
        const char *flag;
    } cases[] = {
        {std::string(MTFPU_CLI_PATH) + " serve --socket=" +
             (dir / "sock").string() + " --threads=abc",
         "--threads=abc"},
        {std::string(MTFPU_FAULT_CAMPAIGN_PATH) +
             " --kernels=lfk01 --faults=abc --report-dir=" +
             (dir / "campaign").string(),
         "--faults=abc"},
        {std::string(MTFPU_FAULT_CAMPAIGN_PATH) +
             " --kernels=lfk01 --faults=1 --seed=18446744073709551616",
         "--seed=18446744073709551616"},
        // A kernel named twice would share one table row.
        {std::string(MTFPU_FAULT_CAMPAIGN_PATH) +
             " --kernels=lfk01,lfk01 --faults=1 --report-dir=" +
             (dir / "campaign").string(),
         "lfk01"},
        {std::string(MTFPU_CHAOS_PROXY_PATH) +
             " --listen=127.0.0.1:0 --target=tcp:127.0.0.1:9 --seed=xyz",
         "--seed=xyz"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.command);
        const int status = std::system(
            ("timeout 60 " + c.command + " > " + out + " 2>&1").c_str());
        std::ifstream in(out);
        std::ostringstream transcript;
        transcript << in.rdbuf();
        ASSERT_TRUE(WIFEXITED(status)) << transcript.str();
        EXPECT_EQ(WEXITSTATUS(status), 2) << transcript.str();
        EXPECT_NE(transcript.str().find(c.flag), std::string::npos)
            << transcript.str();
    }
    EXPECT_FALSE(std::filesystem::exists(dir / "campaign"));
}
