/**
 * @file
 * The differential ISA fuzzer (DESIGN.md §10): generator determinism
 * and well-formedness, coverage-map bookkeeping, campaign journal
 * determinism and resume, delta-debugging minimization, the
 * mutation-validation oracle (a deliberately wrong shadow must be
 * found and minimized), the corpus text format, and lockstep replay
 * of the committed corpus on both softfp backends.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <sys/wait.h>

#include "common/json.hh"
#include "fuzz/corpus.hh"
#include "fuzz/fuzz_engine.hh"
#include "fuzz/minimizer.hh"
#include "service/job_spec.hh"

using namespace mtfpu;
using namespace mtfpu::fuzz;

namespace
{

/** A self-cleaning temp directory for journal/corpus tests. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
        : path_(std::filesystem::temp_directory_path() /
                ("mtfpu_fuzz_" + tag))
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }

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
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Journal lines (blank lines dropped — resume's newline guard). */
std::vector<std::string>
journalLines(const std::string &path)
{
    std::vector<std::string> lines;
    std::istringstream in(slurp(path));
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty())
            lines.push_back(line);
    }
    return lines;
}

FuzzConfig
smallConfig(uint64_t seed, uint64_t trials)
{
    FuzzConfig config;
    config.seed = seed;
    config.trials = trials;
    return config;
}

} // anonymous namespace

// --- Generator ---------------------------------------------------------

TEST(FuzzGen, SameSeedIsByteIdentical)
{
    ProgramGen gen;
    for (uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
        const FuzzProgram a = gen.generate(seed);
        const FuzzProgram b = gen.generate(seed);
        ASSERT_EQ(a, b);
        for (size_t i = 0; i < a.code.size(); ++i)
            EXPECT_EQ(a.code[i].encode(), b.code[i].encode());
    }
}

TEST(FuzzGen, DifferentSeedsDiffer)
{
    ProgramGen gen;
    EXPECT_NE(gen.generate(1), gen.generate(2));
}

TEST(FuzzGen, ProgramsAreWellFormed)
{
    ProgramGen gen;
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        const FuzzProgram prog = gen.generate(seed);
        ASSERT_FALSE(prog.code.empty());
        EXPECT_EQ(prog.code.back().major, isa::Major::Halt);
        for (const isa::Instr &in : prog.code) {
            // Every emitted word survives an encode/decode round trip
            // (i.e. is a valid, canonical encoding).
            EXPECT_EQ(isa::Instr::decode(in.encode()), in);
        }
        for (const auto &[addr, word] : prog.memInit) {
            EXPECT_GE(addr, kPoolBase);
            EXPECT_LT(addr, kPoolBase + 8 * kPoolWords);
            EXPECT_EQ(addr % 8, 0u);
            (void)word;
        }
    }
}

TEST(FuzzGen, LockstepCleanOnBothBackends)
{
    ProgramGen gen;
    for (uint64_t seed = 1; seed <= 25; ++seed) {
        const FuzzProgram prog = gen.generate(seed);
        for (softfp::Backend backend :
             {softfp::Backend::Soft, softfp::Backend::HostFast}) {
            const BackendOutcome out =
                runLockstep(prog, backend,
                            machine::SemanticsMutation::None,
                            2'000'000, 256 * 1024);
            EXPECT_FALSE(outcomeIsFailure(out.outcome))
                << "seed " << seed << " backend "
                << softfp::backendName(backend) << ": "
                << trialOutcomeName(out.outcome) << " ("
                << out.errorCode << ")";
        }
    }
}

TEST(FuzzGen, TrialSeedsAreDecorrelated)
{
    EXPECT_NE(trialSeed(1, 0), trialSeed(1, 1));
    EXPECT_NE(trialSeed(1, 0), trialSeed(2, 0));
    EXPECT_EQ(trialSeed(7, 3), trialSeed(7, 3));
}

// --- Coverage ----------------------------------------------------------

TEST(FuzzCoverage, CommitReportsOnlyFreshCells)
{
    CoverageMap map;
    const std::vector<unsigned> fresh = map.commit({3, 5, 3});
    EXPECT_EQ(fresh, (std::vector<unsigned>{3, 5}));
    EXPECT_TRUE(map.commit({3, 5}).empty());
    EXPECT_EQ(map.count(3), 3u);
}

TEST(FuzzCoverage, OpVlGeometry)
{
    CoverageMap map;
    EXPECT_EQ(map.opVlCoverage(), 0.0);
    std::vector<unsigned> cells;
    for (unsigned vl = 1; vl <= isa::kMaxVectorLength; ++vl)
        cells.push_back(opVlCell(isa::FpOp::Add, vl));
    map.commit(cells);
    EXPECT_NEAR(map.opVlCoverage(), 16.0 / kOpVlCells, 1e-12);
    EXPECT_EQ(map.uncoveredOpVl().size(), kOpVlCells - 16);
}

TEST(FuzzCoverage, ObserverRecordsVectorCells)
{
    machine::Machine m;
    assembler::Program prog;
    prog.code = {
        isa::Instr::fpAlu(isa::FpOp::Add, 10, 0, 1, 4, true, true),
        isa::Instr::halt(),
    };
    m.loadProgram(prog);
    CoverageObserver cov;
    m.addObserver(&cov);
    m.run();
    const std::vector<unsigned> &cells = cov.touched();
    EXPECT_NE(std::find(cells.begin(), cells.end(),
                        opVlCell(isa::FpOp::Add, 4)),
              cells.end());
    EXPECT_NE(std::find(cells.begin(), cells.end(),
                        opStrideCell(isa::FpOp::Add, true, true)),
              cells.end());
    EXPECT_NE(std::find(cells.begin(), cells.end(),
                        majorCell(isa::Major::FpAlu)),
              cells.end());
}

TEST(FuzzCoverage, CampaignSweepsOpVlPlane)
{
    // The coverage-directed bias must sweep the op x vl plane well
    // inside the acceptance budget (the 60 s CI campaign runs far
    // more than this many trials).
    FuzzEngine engine(smallConfig(2026, 200));
    const FuzzResult result = engine.run();
    EXPECT_TRUE(result.clean()) << result.table();
    EXPECT_GE(result.opVlCoverage, 0.9) << result.table();
}

// --- Journal / resume --------------------------------------------------

TEST(FuzzJournal, SameSeedSameJournal)
{
    TempDir dir("journal_det");
    FuzzConfig config = smallConfig(11, 12);
    config.journalPath = dir.file("a.jsonl");
    FuzzEngine(config).run();
    const std::string a = slurp(config.journalPath);
    config.journalPath = dir.file("b.jsonl");
    FuzzEngine(config).run();
    EXPECT_EQ(a, slurp(config.journalPath));
    EXPECT_FALSE(a.empty());
}

TEST(FuzzJournal, ResumeContinuesWhereItStopped)
{
    TempDir dir("journal_resume");
    // Straight 12-trial run.
    FuzzConfig full = smallConfig(13, 12);
    full.journalPath = dir.file("full.jsonl");
    FuzzEngine(full).run();

    // 7 trials, then resume to 12 over the same journal.
    FuzzConfig part = smallConfig(13, 7);
    part.journalPath = dir.file("part.jsonl");
    FuzzEngine(part).run();
    part.trials = 12;
    const FuzzResult resumed = FuzzEngine(part).run();

    EXPECT_EQ(journalLines(full.journalPath),
              journalLines(part.journalPath));
    // Resumed totals fold in the journal's recorded trials.
    EXPECT_EQ(resumed.trials, 12u);
}

TEST(FuzzJournal, TornTailIsTolerated)
{
    TempDir dir("journal_torn");
    FuzzConfig config = smallConfig(17, 6);
    config.journalPath = dir.file("torn.jsonl");
    FuzzEngine(config).run();
    // Tear the last line, as a SIGKILL mid-write would.
    std::string text = slurp(config.journalPath);
    std::ofstream(config.journalPath, std::ios::trunc)
        << text.substr(0, text.size() - 25);

    config.trials = 6;
    const FuzzResult resumed = FuzzEngine(config).run();
    EXPECT_EQ(resumed.trials, 6u);
    // The re-run of the torn trial matches what the straight run wrote.
    FuzzConfig fresh = smallConfig(17, 6);
    fresh.journalPath = dir.file("fresh.jsonl");
    FuzzEngine(fresh).run();
    const std::vector<std::string> a = journalLines(config.journalPath);
    const std::vector<std::string> b = journalLines(fresh.journalPath);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a.back(), b.back());
}

TEST(FuzzJournal, OutOfRangeCellIsSkipped)
{
    // Each case damages trial 2's record of a 3-trial journal. Resume
    // must reject the whole record before committing any of it, count
    // it as skipped, and re-run trial 2 exactly as a fresh run does.
    TempDir dir("journal_cells");
    FuzzConfig fresh = smallConfig(19, 3);
    fresh.journalPath = dir.file("fresh.jsonl");
    FuzzEngine(fresh).run();
    const std::vector<std::string> want = journalLines(fresh.journalPath);
    ASSERT_EQ(want.size(), 3u);
    const json::Value record = json::parse(want[2]);
    const std::vector<json::Value> &cells = record.at("new_cells").asArray();
    ASSERT_FALSE(cells.empty());

    const auto replaceField = [&](const std::string &after, char end,
                                  const std::string &text) {
        std::string line = want[2];
        const size_t from = line.find(after) + after.size();
        return line.replace(from, line.find(end, from) - from, text);
    };
    const struct
    {
        const char *name;
        std::string line;
    } cases[] = {
        {"cell one past the map",
         replaceField("\"new_cells\":[", ']', std::to_string(kNumCells))},
        {"cell that aliases a real one in 32 bits",
         replaceField("\"new_cells\":[", ']',
                      std::to_string((uint64_t{1} << 32) +
                                     cells.front().asUint()))},
        {"unknown outcome", replaceField("\"soft\":\"", '"', "bogus")},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        FuzzConfig config = smallConfig(19, 3);
        config.journalPath = dir.file("damaged.jsonl");
        std::ofstream(config.journalPath, std::ios::trunc)
            << want[0] << '\n' << want[1] << '\n' << c.line << '\n';
        std::vector<uint64_t> ran;
        const FuzzResult resumed = FuzzEngine(config).run(
            [&](const TrialResult &trial) { ran.push_back(trial.trial); });
        EXPECT_EQ(ran, std::vector<uint64_t>{2});
        EXPECT_EQ(resumed.trials, 3u);
        const std::vector<std::string> got = journalLines(config.journalPath);
        ASSERT_FALSE(got.empty());
        EXPECT_EQ(got.back(), want[2]);
    }
}

// --- Minimizer ---------------------------------------------------------

TEST(FuzzMinimizer, ShrinksToEssentialInstructions)
{
    // Synthetic oracle: "fails" iff the program still contains the
    // poison instruction. ddmin must strip everything else.
    const isa::Instr poison = isa::Instr::aluImm(isa::AluFunc::Add, 9, 0, 99);
    FuzzProgram prog;
    prog.seed = 5;
    for (int i = 0; i < 40; ++i)
        prog.code.push_back(isa::Instr::aluImm(isa::AluFunc::Add, 1, 0, i));
    prog.code.insert(prog.code.begin() + 23, poison);
    prog.code.push_back(isa::Instr::halt());
    prog.memInit = {{kPoolBase, 1}, {kPoolBase + 8, 2}};

    MinimizeStats stats;
    const FuzzProgram min = minimize(
        prog,
        [&](const FuzzProgram &p) {
            for (const isa::Instr &in : p.code)
                if (in == poison)
                    return true;
            return false;
        },
        2000, &stats);
    ASSERT_EQ(min.code.size(), 2u); // poison + pinned halt
    EXPECT_EQ(min.code[0], poison);
    EXPECT_EQ(min.code.back(), isa::Instr::halt());
    EXPECT_TRUE(min.memInit.empty());
    EXPECT_GT(stats.kept, 0u);
}

TEST(FuzzMinimizer, RespectsBudget)
{
    FuzzProgram prog;
    for (int i = 0; i < 20; ++i)
        prog.code.push_back(isa::Instr::nop());
    prog.code.push_back(isa::Instr::halt());
    MinimizeStats stats;
    minimize(prog, [](const FuzzProgram &) { return true; }, 5, &stats);
    EXPECT_LE(stats.probes, 5u);
}

// --- Mutation oracle validation ---------------------------------------

TEST(FuzzMutation, FlippedStrideIsFoundAndMinimized)
{
    // A deliberately wrong shadow (stride-A bit flipped) must be
    // caught as a divergence and auto-minimized to a tiny reproducer —
    // the acceptance bar is <= 8 instructions.
    FuzzConfig config = smallConfig(3, 60);
    config.shadowMutation = machine::SemanticsMutation::FlipSra;
    FuzzEngine engine(config);
    bool found = false;
    unsigned minimized = 0;
    engine.run([&](const TrialResult &trial) {
        if (!found && trial.worst() == TrialOutcome::Divergence) {
            found = true;
            minimized = trial.minimizedSize;
        }
    });
    ASSERT_TRUE(found) << "flip-sra mutation survived 60 trials";
    EXPECT_LE(minimized, 8u);
    EXPECT_GE(minimized, 2u);
}

TEST(FuzzMutation, SwapAddSubIsFound)
{
    FuzzConfig config = smallConfig(4, 60);
    config.shadowMutation = machine::SemanticsMutation::SwapAddSub;
    const FuzzResult result = FuzzEngine(config).run();
    EXPECT_FALSE(result.clean());
}

TEST(FuzzMutation, NameRoundTrip)
{
    using machine::SemanticsMutation;
    for (SemanticsMutation m :
         {SemanticsMutation::None, SemanticsMutation::FlipSra,
          SemanticsMutation::FlipSrb, SemanticsMutation::DropLastElement,
          SemanticsMutation::SwapAddSub})
        EXPECT_EQ(machine::mutationFromName(machine::mutationName(m)), m);
    EXPECT_THROW(machine::mutationFromName("bogus"), SimError);
}

// --- Crash bundles -----------------------------------------------------

TEST(FuzzBundle, WritesReplayableArtifacts)
{
    TempDir dir("bundle");
    FuzzConfig config = smallConfig(3, 60);
    config.shadowMutation = machine::SemanticsMutation::FlipSra;
    config.crashDir = dir.file("crashes");
    FuzzEngine engine(config);
    std::string bundle;
    engine.run([&](const TrialResult &trial) {
        if (bundle.empty() && !trial.bundlePath.empty())
            bundle = trial.bundlePath;
    });
    ASSERT_FALSE(bundle.empty());
    const json::Value report = json::parse(slurp(bundle));
    EXPECT_EQ(report.at("mutation").asString(), "flip-sra");
    EXPECT_EQ(report.at("error").at("code").asString(),
              "lockstep-divergence");
    // The report's job is a spec the daemon could run: the minimized
    // program and its memory image, with the lockstep shadow. No
    // snapshot file rides along.
    const std::string stem = bundle.substr(0, bundle.size() - 5);
    EXPECT_FALSE(std::filesystem::exists(stem + ".snap"));
    EXPECT_TRUE(std::filesystem::exists(stem + ".orig.prog"));
    const FuzzProgram min = readProgramFile(stem + ".prog");
    EXPECT_LE(min.code.size(), 8u);
    const service::JobSpec spec =
        service::JobSpec::from_json(report.at("spec"));
    EXPECT_EQ(spec.kind, service::JobKind::Code);
    EXPECT_TRUE(spec.lockstep);
    EXPECT_TRUE(spec.faultPlan.empty());
    EXPECT_EQ(spec.config.maxCycles, config.maxCycles);
    EXPECT_EQ(spec.config.memory.memBytes, config.memBytes);
    const machine::SimJob job = spec.resolve();
    EXPECT_EQ(job.program.code, min.code);
    EXPECT_EQ(job.memInit, min.memInit);
    EXPECT_TRUE(job.lockstep);

    // bench/replay re-runs the bundle with its shadow and mutation and
    // reproduces the divergence at the reported cycle (exit 0).
    const std::string out = dir.file("replay.out");
    const int status =
        std::system((std::string(MTFPU_REPLAY_PATH) + " --tail=0 " +
                     bundle + " > " + out + " 2>&1")
                        .c_str());
    const std::string transcript = slurp(out);
    ASSERT_TRUE(WIFEXITED(status)) << transcript;
    EXPECT_EQ(WEXITSTATUS(status), 0) << transcript;
    EXPECT_NE(transcript.find("REPRODUCED: lockstep-divergence"),
              std::string::npos)
        << transcript;
}

// --- Corpus format -----------------------------------------------------

TEST(FuzzCorpus, RoundTrip)
{
    ProgramGen gen;
    const FuzzProgram prog = gen.generate(99);
    const FuzzProgram back = parseProgram(formatProgram(prog));
    EXPECT_EQ(back.seed, prog.seed);
    EXPECT_EQ(back.code, prog.code);
    EXPECT_EQ(back.memInit, prog.memInit);
}

TEST(FuzzCorpus, RejectsGarbage)
{
    EXPECT_THROW(parseProgram("bogus 1 2\n"), SimError);
    EXPECT_THROW(parseProgram("seed zz\ncode 0xf0000000\n"), SimError);
    EXPECT_THROW(parseProgram("seed 1\n"), SimError); // no code
    try {
        // Major opcode 11 is an invalid encoding.
        parseProgram("seed 1\ncode 0xb0000000\n");
        FAIL() << "undecodable word accepted";
    } catch (const SimError &err) {
        EXPECT_EQ(err.code(), ErrCode::BadEncoding);
    }
}

TEST(FuzzCorpus, FileRoundTripAndListing)
{
    TempDir dir("corpus_io");
    ProgramGen gen;
    writeProgramFile(dir.file("b.prog"), gen.generate(2));
    writeProgramFile(dir.file("a.prog"), gen.generate(1));
    std::ofstream(dir.file("ignored.txt")) << "not a program\n";
    const std::vector<std::string> paths = listCorpus(dir.file(""));
    ASSERT_EQ(paths.size(), 2u);
    EXPECT_NE(paths[0].find("a.prog"), std::string::npos);
    EXPECT_NE(paths[1].find("b.prog"), std::string::npos);
    EXPECT_EQ(readProgramFile(paths[0]), gen.generate(1));
}

// --- Committed corpus replay ------------------------------------------

TEST(FuzzCorpus, CommittedCorpusReplaysCleanOnBothBackends)
{
    const std::string dir =
        std::string(MTFPU_TEST_DATA_DIR) + "/fuzz_corpus";
    const std::vector<std::string> paths = listCorpus(dir);
    ASSERT_FALSE(paths.empty()) << "no committed corpus under " << dir;
    for (const std::string &path : paths) {
        const FuzzProgram prog = readProgramFile(path);
        for (softfp::Backend backend :
             {softfp::Backend::Soft, softfp::Backend::HostFast}) {
            const BackendOutcome out =
                runLockstep(prog, backend,
                            machine::SemanticsMutation::None,
                            2'000'000, 256 * 1024);
            EXPECT_FALSE(outcomeIsFailure(out.outcome))
                << path << " [" << softfp::backendName(backend)
                << "]: " << trialOutcomeName(out.outcome) << " ("
                << out.errorCode << ")";
        }
    }
}
