/**
 * @file
 * Unit tests for the common utilities: bit fields, statistics
 * helpers, the table formatter, JSON, the NDJSON journal, and the
 * whole-file reader and atomic writer.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "common/bitfield.hh"
#include "common/file_io.hh"
#include "common/journal.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace mtfpu
{
namespace
{

TEST(Bitfield, LowMask)
{
    EXPECT_EQ(lowMask(0), 0u);
    EXPECT_EQ(lowMask(1), 1u);
    EXPECT_EQ(lowMask(4), 0xFu);
    EXPECT_EQ(lowMask(63), 0x7FFFFFFFFFFFFFFFull);
    EXPECT_EQ(lowMask(64), ~0ull);
}

TEST(Bitfield, Bits)
{
    EXPECT_EQ(bits(0xABCD, 4, 8), 0xBCu);
    EXPECT_EQ(bits(0xFFFFFFFFFFFFFFFFull, 60, 4), 0xFu);
    EXPECT_EQ(bits(0x12345678, 0, 32), 0x12345678u);
}

TEST(Bitfield, InsertBits)
{
    EXPECT_EQ(insertBits(0, 4, 8, 0xBC), 0xBC0u);
    EXPECT_EQ(insertBits(0xFFFF, 4, 8, 0), 0xF00Fu);
    // Field wider than width is truncated.
    EXPECT_EQ(insertBits(0, 0, 4, 0x1F), 0xFu);
}

TEST(Bitfield, InsertThenExtractRoundTrip)
{
    for (unsigned lo = 0; lo < 60; lo += 7) {
        for (unsigned w = 1; w <= 4; ++w) {
            const uint64_t field = 0x5A5A5A5A & lowMask(w);
            const uint64_t word = insertBits(0, lo, w, field);
            EXPECT_EQ(bits(word, lo, w), field);
        }
    }
}

TEST(Bitfield, SignExtend)
{
    EXPECT_EQ(sext(0x7F, 8), 127);
    EXPECT_EQ(sext(0x80, 8), -128);
    EXPECT_EQ(sext(0xFF, 8), -1);
    EXPECT_EQ(sext(0x1FFF, 14), 8191);
    EXPECT_EQ(sext(0x3FFF, 14), -1);
    EXPECT_EQ(sext(0x2000, 14), -8192);
}

TEST(Bitfield, CountLeadingZeros)
{
    EXPECT_EQ(clz64(0), 64u);
    EXPECT_EQ(clz64(1), 63u);
    EXPECT_EQ(clz64(1ull << 63), 0u);
    EXPECT_EQ(clz64(0x00FF000000000000ull), 8u);
}

TEST(Stats, HarmonicMean)
{
    EXPECT_DOUBLE_EQ(harmonicMean({4.0, 4.0, 4.0}), 4.0);
    // Harmonic mean of {1, 2} is 4/3.
    EXPECT_NEAR(harmonicMean({1.0, 2.0}), 4.0 / 3.0, 1e-12);
    EXPECT_EQ(harmonicMean({}), 0.0);
}

TEST(Stats, HarmonicMeanDominatedBySlowest)
{
    // One very slow kernel should drag the mean near its own rate.
    const double hm = harmonicMean({100.0, 100.0, 1.0});
    EXPECT_LT(hm, 3.1);
    EXPECT_GT(hm, 1.0);
}

TEST(Stats, HarmonicMeanRejectsNonPositive)
{
    EXPECT_THROW(harmonicMean({1.0, 0.0}), FatalError);
}

TEST(Stats, Means)
{
    EXPECT_DOUBLE_EQ(arithmeticMean({1.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(geometricMean({1.0, 4.0}), 2.0);
}

TEST(Stats, RelativeError)
{
    EXPECT_DOUBLE_EQ(relativeError(0.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(relativeError(1.0, 1.0), 0.0);
    EXPECT_NEAR(relativeError(1.0, 1.1), 0.1 / 1.1, 1e-12);
    EXPECT_DOUBLE_EQ(maxRelativeError({1.0, 2.0}, {1.0, 4.0}), 0.5);
}

TEST(Table, RendersAlignedColumns)
{
    TextTable t({"loop", "cold", "warm"});
    t.addRow({"1", "4.3", "19.0"});
    t.addRow({"22", "2.4", "2.7"});
    const std::string out = t.render();
    EXPECT_NE(out.find("loop"), std::string::npos);
    EXPECT_NE(out.find("19.0"), std::string::npos);
    // Header, separator, two rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, RejectsArityMismatch)
{
    TextTable t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), FatalError);
}

TEST(Table, NumFormatting)
{
    EXPECT_EQ(TextTable::num(4.25, 1), "4.2");
    EXPECT_EQ(TextTable::num(4.25, 2), "4.25");
}

TEST(Json, ParsesSelfProducedArtifacts)
{
    const json::Value v = json::parse(
        R"({"name":"a\"b","ok":true,"none":null,)"
        R"("nums":[1, -2, 3.5],"nested":{"x":7}})");
    EXPECT_EQ(v.at("name").asString(), "a\"b");
    EXPECT_TRUE(v.at("ok").asBool());
    EXPECT_TRUE(v.at("none").isNull());
    ASSERT_EQ(v.at("nums").asArray().size(), 3u);
    EXPECT_EQ(v.at("nums").asArray()[1].asInt(), -2);
    EXPECT_EQ(v.at("nums").asArray()[2].asNumber(), 3.5);
    EXPECT_EQ(v.at("nested").at("x").asUint(), 7u);
    EXPECT_FALSE(v.has("missing"));
}

TEST(Json, Exact64BitIntegersRoundTrip)
{
    // Campaign journal seeds are raw 64-bit values; a double-only
    // number path silently rounds anything above 2^53 and rejects
    // anything above 2^63 as negative.
    const uint64_t big = 15433680952126389759ull;
    const json::Value v = json::parse(
        R"({"seed":15433680952126389759,"neg":-9223372036854775808})");
    EXPECT_EQ(v.at("seed").asUint(), big);
    EXPECT_EQ(v.at("neg").asInt(), INT64_MIN);
    // Out-of-range integers fail loudly instead of wrapping.
    EXPECT_THROW(json::parse(R"({"x":99999999999999999999999})")
                     .at("x")
                     .asUint(),
                 SimError);
}

TEST(Json, RejectsMalformedInput)
{
    EXPECT_THROW(json::parse("{\"torn\": \"li"), SimError);
    EXPECT_THROW(json::parse("{\"a\":}"), SimError);
    EXPECT_THROW(json::parse(""), SimError);
    EXPECT_THROW(json::parse("{\"a\":1} extra"), SimError);
}

TEST(Json, WriterOutputReparsesExactly)
{
    json::Writer w;
    w.beginObject();
    w.key("cmd").value("submit");
    w.key("quoted").value("a\"b\\c\nd");
    w.key("big").value(uint64_t{15433680952126389759ull});
    w.key("neg").value(INT64_MIN);
    w.key("pi").value(3.141592653589793);
    w.key("flag").value(true);
    w.key("none").null();
    w.key("tags").beginArray().value("a").value(2).endArray();
    w.key("nested").beginObject().key("x").value(7).endObject();
    w.key("spliced").raw("[1,2,3]");
    w.endObject();

    const json::Value v = json::parse(w.str());
    EXPECT_EQ(v.at("cmd").asString(), "submit");
    EXPECT_EQ(v.at("quoted").asString(), "a\"b\\c\nd");
    EXPECT_EQ(v.at("big").asUint(), 15433680952126389759ull);
    EXPECT_EQ(v.at("neg").asInt(), INT64_MIN);
    EXPECT_EQ(v.at("pi").asNumber(), 3.141592653589793);
    EXPECT_TRUE(v.at("flag").asBool());
    EXPECT_TRUE(v.at("none").isNull());
    ASSERT_EQ(v.at("tags").asArray().size(), 2u);
    EXPECT_EQ(v.at("tags").asArray()[0].asString(), "a");
    EXPECT_EQ(v.at("nested").at("x").asInt(), 7);
    EXPECT_EQ(v.at("spliced").asArray().size(), 3u);
}

TEST(Json, WriterCommasAndEmptyContainers)
{
    json::Writer arrays;
    arrays.beginArray();
    arrays.beginObject().endObject();
    arrays.beginArray().endArray();
    arrays.value(1).value(2);
    arrays.endArray();
    EXPECT_EQ(arrays.str(), "[{},[],1,2]");

    json::Writer top;
    top.value(uint64_t{42});
    EXPECT_EQ(top.str(), "42");
}

/** A fresh directory for one file test, removed afterwards. */
class TestDir
{
  public:
    explicit TestDir(const std::string &tag)
        : path_(std::filesystem::temp_directory_path() /
                ("mtfpu_common_" + tag))
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~TestDir() { std::filesystem::remove_all(path_); }

    std::string file(const std::string &name) const
    {
        return (path_ / name).string();
    }

  private:
    std::filesystem::path path_;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(Journal, ReplaySkipsAndCountsWhatItCannotApply)
{
    const struct
    {
        const char *name;
        const char *text; // nullptr: no file at all
        std::vector<uint64_t> applied;
        size_t skipped;
    } cases[] = {
        {"absent file", nullptr, {}, 0},
        {"blank lines and interior garbage",
         "{\"n\":1}\n\n \t\r\n{garbage\n{\"n\":2}\n", {1, 2}, 1},
        {"torn tail", "{\"n\":1}\n{\"n\":2,\"x", {1}, 1},
        {"complete last record without its newline",
         "{\"n\":1}\n{\"n\":2}", {1, 2}, 0},
        {"record the callback rejects",
         "{\"n\":1}\n{\"n\":2,\"reject\":true}\n{\"n\":3}\n", {1, 3}, 1},
    };
    TestDir dir("replay");
    const std::string path = dir.file("j.ndjson");
    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        std::filesystem::remove(path);
        if (c.text)
            std::ofstream(path, std::ios::binary) << c.text;
        std::vector<uint64_t> applied;
        const size_t skipped =
            journal::replay(path, [&](const json::Value &v) {
                if (v.has("reject"))
                    fatal(ErrCode::BadOperand, "record rejected");
                applied.push_back(v.at("n").asUint());
            });
        EXPECT_EQ(applied, c.applied);
        EXPECT_EQ(skipped, c.skipped);
    }
}

TEST(Journal, AppendStartsAFreshLineOnlyAfterATornRecord)
{
    const struct
    {
        const char *name;
        const char *before; // nullptr: neither the file nor its directory
        const char *after;
    } cases[] = {
        // No leading newline on an empty journal: readers count
        // exactly one '\n' per record.
        {"absent file and directory", nullptr,
         "{\"n\":1}\n{\"n\":2}\n"},
        {"empty file", "", "{\"n\":1}\n{\"n\":2}\n"},
        {"whole last record", "{\"n\":0}\n",
         "{\"n\":0}\n{\"n\":1}\n{\"n\":2}\n"},
        {"torn tail", "{\"n\":0", "{\"n\":0\n{\"n\":1}\n{\"n\":2}\n"},
    };
    TestDir dir("append");
    const std::string path = dir.file("sub/j.ndjson");
    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        std::filesystem::remove_all(dir.file("sub"));
        if (c.before) {
            std::filesystem::create_directories(dir.file("sub"));
            std::ofstream(path, std::ios::binary) << c.before;
        }
        {
            journal::Appender out(path);
            EXPECT_TRUE(out.append("{\"n\":1}"));
            EXPECT_TRUE(out.append("{\"n\":2}"));
        }
        EXPECT_EQ(slurp(path), c.after);
    }
}

TEST(Journal, ConcurrentAppendsStayWholeLines)
{
    constexpr uint64_t kThreads = 4;
    constexpr uint64_t kRecords = 250;
    TestDir dir("threads");
    const std::string path = dir.file("j.ndjson");
    {
        journal::Appender out(path);
        std::vector<std::thread> threads;
        for (uint64_t t = 0; t < kThreads; ++t) {
            threads.emplace_back([&out, t] {
                for (uint64_t i = 0; i < kRecords; ++i) {
                    json::Writer w;
                    w.beginObject();
                    w.key("t").value(t);
                    w.key("i").value(i);
                    w.key("pad").value(std::string(300, 'x'));
                    w.endObject();
                    out.append(w.str());
                }
            });
        }
        for (std::thread &thread : threads)
            thread.join();
    }
    const std::string text = slurp(path);
    EXPECT_EQ(static_cast<uint64_t>(
                  std::count(text.begin(), text.end(), '\n')),
              kThreads * kRecords);
    std::set<std::pair<uint64_t, uint64_t>> seen;
    EXPECT_EQ(journal::replay(path,
                              [&](const json::Value &v) {
                                  seen.emplace(v.at("t").asUint(),
                                               v.at("i").asUint());
                              }),
              0u);
    EXPECT_EQ(seen.size(), kThreads * kRecords);
}

TEST(Journal, UnusablePathIsAnIoError)
{
    TestDir dir("unusable");
    const std::string plain = dir.file("plain");
    std::ofstream(plain) << "a regular file\n";
    const auto expectIo = [](const std::function<void()> &open) {
        try {
            open();
            ADD_FAILURE() << "no error";
        } catch (const SimError &err) {
            EXPECT_EQ(err.code(), ErrCode::Io) << err.what();
        }
    };
    {
        SCOPED_TRACE("append under a regular file");
        expectIo([&] { journal::Appender out(plain + "/j.ndjson"); });
    }
    {
        SCOPED_TRACE("replay of a directory");
        expectIo([&] {
            journal::replay(dir.file(""), [](const json::Value &) {});
        });
    }
}

TEST(FileIo, AtomicWriteReplacesTheFileWholeAndLeavesNoTemp)
{
    TestDir dir("file_io");
    const std::string sub = dir.file("reports");
    const std::string path = sub + "/report.json";
    writeFileAtomic(path, "first\n"); // creates the directory
    const std::string binary("second\0with a NUL\n", 19);
    writeFileAtomic(path, binary);
    EXPECT_EQ(readFile(path), binary);

    // Writers racing on one path each write their own temp file, so
    // the survivor is one whole write, never a mix.
    std::vector<std::string> writes;
    for (char c = 'a'; c < 'e'; ++c)
        writes.push_back(std::string(64 * 1024, c));
    std::vector<std::thread> threads;
    for (const std::string &bytes : writes)
        threads.emplace_back([&path, &bytes] {
            for (int i = 0; i < 20; ++i)
                writeFileAtomic(path, bytes);
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_NE(std::find(writes.begin(), writes.end(), readFile(path)),
              writes.end());

    std::vector<std::string> names;
    for (const auto &entry : std::filesystem::directory_iterator(sub))
        names.push_back(entry.path().filename().string());
    EXPECT_EQ(names, std::vector<std::string>{"report.json"});
}

TEST(FileIo, FailuresAreIoErrorsAndLeaveNoTemp)
{
    TestDir dir("file_io_fail");
    const std::string plain = dir.file("plain");
    writeFileAtomic(plain, "a regular file\n");
    const auto expectIo = [](const std::function<void()> &io) {
        try {
            io();
            ADD_FAILURE() << "no error";
        } catch (const SimError &err) {
            EXPECT_EQ(err.code(), ErrCode::Io) << err.what();
        }
    };
    {
        SCOPED_TRACE("write under a regular file");
        expectIo([&] { writeFileAtomic(plain + "/x.json", "x"); });
    }
    {
        SCOPED_TRACE("rename over a directory");
        std::filesystem::create_directories(dir.file("taken"));
        expectIo([&] { writeFileAtomic(dir.file("taken"), "x"); });
    }
    {
        SCOPED_TRACE("read of a missing file");
        expectIo([&] { readFile(dir.file("missing")); });
    }
    {
        SCOPED_TRACE("read of a directory");
        expectIo([&] { readFile(dir.file("taken")); });
    }
    std::vector<std::string> names;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir.file("")))
        names.push_back(entry.path().filename().string());
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names, (std::vector<std::string>{"plain", "taken"}));
    EXPECT_TRUE(std::filesystem::is_empty(dir.file("taken")));
}

} // anonymous namespace
} // namespace mtfpu
