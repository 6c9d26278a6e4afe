/**
 * @file
 * The differential ISA fuzzer (DESIGN.md §10): generator determinism
 * and well-formedness, coverage-map bookkeeping, campaign journal
 * determinism and resume, delta-debugging minimization, the
 * mutation-validation oracle (a deliberately wrong shadow must be
 * found and minimized), the specs written as corpus entries and crash
 * bundles, and lockstep replay of the committed corpus on both softfp
 * backends.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <sys/wait.h>

#include "assembler/assembler.hh"
#include "common/json.hh"
#include "fuzz/fuzz_engine.hh"
#include "fuzz/minimizer.hh"
#include "isa/disasm.hh"
#include "service/job_spec.hh"
#include "test_dir.hh"

using namespace mtfpu;
using namespace mtfpu::fuzz;

namespace
{

using test::TestDir;

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
                runLockstep(trialSpec(prog, backend, 2'000'000),
                            machine::SemanticsMutation::None);
            EXPECT_FALSE(outcomeIsFailure(out.outcome))
                << "seed " << seed << " backend "
                << enumName(backend) << ": "
                << enumName(out.outcome) << " ("
                << out.errorCode() << ")";
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
    TestDir dir("journal_det");
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
    TestDir dir("journal_resume");
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
    TestDir dir("journal_torn");
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
    TestDir dir("journal_cells");
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
        EXPECT_EQ(findEnum<SemanticsMutation>(enumName(m)), m);
    EXPECT_FALSE(findEnum<SemanticsMutation>("bogus"));
}

// --- Crash bundles -----------------------------------------------------

TEST(FuzzBundle, WritesReplayableArtifacts)
{
    TestDir dir("bundle");
    FuzzConfig config = smallConfig(3, 60);
    config.shadowMutation = machine::SemanticsMutation::FlipSra;
    config.crashDir = dir.file("crashes");
    FuzzEngine engine(config);
    std::string bundle;
    unsigned minimized = 0;
    engine.run([&](const TrialResult &trial) {
        if (bundle.empty() && !trial.bundlePath.empty()) {
            bundle = trial.bundlePath;
            minimized = trial.minimizedSize;
        }
    });
    ASSERT_FALSE(bundle.empty());
    // A bundle is its report alone: no snapshot or program file rides
    // along.
    for (const auto &entry :
         std::filesystem::directory_iterator(config.crashDir))
        EXPECT_EQ(entry.path().extension(), ".json") << entry.path();
    const json::Value report = json::parse(slurp(bundle));
    EXPECT_EQ(report.at("mutation").asString(), "flip-sra");
    // The error is the caught SimError's one record, the shape the
    // worker-crash report carries too.
    const json::Value &error = report.at("error");
    EXPECT_EQ(error.at("code").asString(), "lockstep-divergence");
    EXPECT_NE(error.at("message").asString().find("lockstep divergence"),
              std::string::npos);
    EXPECT_GT(error.at("cycle").asInt(), 0);
    EXPECT_TRUE(error.has("pc"));
    EXPECT_TRUE(error.has("instr"));
    // The report's job is a spec the daemon could run: the minimized
    // program and its memory image, with the lockstep shadow.
    const service::JobSpec spec =
        service::JobSpec::from_json(report.at("spec"));
    EXPECT_EQ(spec.kind, service::JobKind::Code);
    EXPECT_EQ(spec.code.size(), minimized);
    EXPECT_LE(spec.code.size(), 8u);
    EXPECT_TRUE(spec.lockstep);
    EXPECT_TRUE(spec.faultPlan.empty());
    EXPECT_EQ(spec.config.maxCycles, config.maxCycles);
    EXPECT_EQ(spec.config.memory.memBytes, kTrialMemBytes);
    EXPECT_TRUE(spec.resolve().lockstep);

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

// --- Corpus --------------------------------------------------------

TEST(FuzzCorpus, CampaignWritesEachKeptProgramAsItsSpec)
{
    TestDir dir("corpus_specs");
    FuzzConfig config = smallConfig(2026, 40);
    config.corpusDir = dir.file("corpus");
    FuzzEngine engine(config);
    ProgramGen gen;
    size_t kept = 0;
    for (uint64_t t = 0; t < config.trials; ++t) {
        // The program the trial generates: its seed against the
        // coverage reached before it.
        const FuzzProgram prog =
            gen.generate(trialSeed(config.seed, t), &engine.coverage());
        const TrialResult res = engine.runTrial(t);
        char stem[32];
        std::snprintf(stem, sizeof stem, "trial-%06llu",
                      static_cast<unsigned long long>(t));
        const std::string path =
            config.corpusDir + "/" + std::string(stem) + ".json";
        ASSERT_EQ(std::filesystem::exists(path), res.kept) << path;
        if (!res.kept)
            continue;
        ++kept;
        const service::JobSpec spec = service::JobSpec::parse(slurp(path));
        EXPECT_EQ(spec.name, "fuzz-" + std::string(stem));
        EXPECT_TRUE(spec.lockstep);
        EXPECT_EQ(spec.config.memory.memBytes, kTrialMemBytes);
        const machine::SimJob job = spec.resolve();
        EXPECT_EQ(job.program.code, prog.code) << path;
        EXPECT_EQ(job.memInit, prog.memInit) << path;
    }
    EXPECT_GT(kept, 0u);
    const std::vector<std::string> paths = listCorpus(config.corpusDir);
    ASSERT_EQ(paths.size(), kept);

    // An entry that does not ask for the shadow is refused, not run
    // without the oracle.
    service::JobSpec unchecked = service::JobSpec::parse(slurp(paths[0]));
    unchecked.lockstep = false;
    try {
        runLockstep(unchecked, machine::SemanticsMutation::None);
        ADD_FAILURE() << "spec without lockstep ran";
    } catch (const SimError &err) {
        EXPECT_EQ(err.code(), ErrCode::BadOperand);
    }
}

TEST(FuzzCorpus, CommittedCorpusReplaysCleanOnBothBackends)
{
    const std::string dir =
        std::string(MTFPU_TEST_DATA_DIR) + "/fuzz_corpus";
    const std::vector<std::string> paths = listCorpus(dir);
    ASSERT_FALSE(paths.empty()) << "no committed corpus under " << dir;
    for (const std::string &path : paths) {
        service::JobSpec spec = service::JobSpec::parse(slurp(path));
        // Its listing assembles back to the entry's words.
        std::string listing;
        for (const isa::Instr &in : spec.resolve().program.code)
            listing += isa::disassemble(in) + "\n";
        std::vector<uint32_t> words;
        for (const isa::Instr &in : assembler::assemble(listing).code)
            words.push_back(in.encode());
        EXPECT_EQ(words, spec.code) << path;
        for (softfp::Backend backend :
             {softfp::Backend::Soft, softfp::Backend::HostFast}) {
            spec.config.fpBackend = backend;
            const BackendOutcome out =
                runLockstep(spec, machine::SemanticsMutation::None);
            EXPECT_FALSE(outcomeIsFailure(out.outcome))
                << path << " [" << enumName(backend)
                << "]: " << enumName(out.outcome) << " ("
                << out.errorCode() << ")";
        }
    }
}
