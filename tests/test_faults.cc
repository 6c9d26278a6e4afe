/**
 * @file
 * Fault-injection subsystem tests: the structured-error layer
 * (SimError taxonomy, context stamping, JSON), the thread-safe log
 * sink, fault plans and the injector, §2.3.1 PSW semantics under an
 * injected overflow on both softfp backends, the SimDriver's
 * single-attempt containment, sibling isolation in a parallel batch,
 * and a small end-to-end campaign.
 */

#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/log.hh"
#include "cpu/cpu.hh"
#include "faults/campaign.hh"
#include "faults/fault_injector.hh"
#include "faults/fault_plan.hh"
#include "fpu/register_file.hh"
#include "fpu/scoreboard.hh"
#include "fpu/vector_issue.hh"
#include "kernels/livermore/livermore.hh"
#include "kernels/runner.hh"
#include "machine/lockstep.hh"
#include "machine/machine.hh"
#include "machine/sim_driver.hh"
#include "memory/main_memory.hh"

namespace mtfpu::faults
{
namespace
{

machine::MachineConfig
idealMemory()
{
    machine::MachineConfig cfg;
    cfg.memory.modelCaches = false;
    return cfg;
}

// ---------------------------------------------------------------------
// Structured errors
// ---------------------------------------------------------------------

TEST(SimErrorTest, CarriesCodeAndContext)
{
    try {
        fatal(ErrCode::HazardViolation, "race on f5",
              ErrContext{120, 3, 0x1234});
        FAIL() << "fatal did not throw";
    } catch (const SimError &err) {
        EXPECT_EQ(err.code(), ErrCode::HazardViolation);
        EXPECT_EQ(err.context().cycle, 120);
        EXPECT_EQ(err.context().pc, 3);
        EXPECT_EQ(err.context().instr, 0x1234);
        EXPECT_STREQ(enumName(err.code()), "hazard-violation");
        const std::string json = err.to_json();
        EXPECT_NE(json.find("\"code\":\"hazard-violation\""),
                  std::string::npos);
        EXPECT_NE(json.find("\"cycle\":120"), std::string::npos);
    }
}

TEST(SimErrorTest, SupplyContextFillsOnlyUnknownFields)
{
    SimError err(ErrCode::BadEncoding, "boom",
                 ErrContext{ErrContext::kUnknown, ErrContext::kUnknown, 99});
    err.supplyContext(ErrContext{10, 20, 30});
    EXPECT_EQ(err.context().cycle, 10);
    EXPECT_EQ(err.context().pc, 20);
    EXPECT_EQ(err.context().instr, 99); // already known, not overwritten
}

TEST(SimErrorTest, UnknownContextRendersAsNull)
{
    const SimError err(ErrCode::NoProgram, "no program");
    const std::string json = err.to_json();
    EXPECT_NE(json.find("\"cycle\":null"), std::string::npos);
    EXPECT_NE(json.find("\"pc\":null"), std::string::npos);
}

TEST(SimErrorTest, LegacyFatalStillCatchableAsFatalError)
{
    EXPECT_THROW(fatal("plain message"), FatalError);
    EXPECT_THROW(fatal(ErrCode::MemRange, "typed"), FatalError);
    EXPECT_THROW(panic("invariant"), InvariantError);
    EXPECT_THROW(panic("invariant"), FatalError); // base class too
}

TEST(SimErrorTest, RangeChecksKeepTheirCodeAndMessage)
{
    // The hot accessors check their ranges inline and build the
    // message out of line; every check must still throw its code and
    // text.
    fpu::RegisterFile regs;
    fpu::Scoreboard sb;
    cpu::Cpu cpu;
    memory::MainMemory mem(4096);
    fpu::AluInstructionRegister ir;
    isa::FpuAluInstr pastEnd; // f51..f52 := f0 + f0
    pastEnd.rr = 51;
    pastEnd.vlm1 = 1;
    ir.transfer(pastEnd, 1);
    fpu::ElementIssue element;
    struct Row
    {
        const char *what;
        std::function<void()> access;
        ErrCode code;
        const char *message;
    };
    const Row rows[] = {
        {"register read", [&] { regs.read(52); }, ErrCode::RegFileRange,
         "RegisterFile: read of f52"},
        {"register write", [&] { regs.write(52, 1); },
         ErrCode::RegFileRange, "RegisterFile: write of f52"},
        {"scoreboard probe", [&] { sb.reserved(52); },
         ErrCode::RegFileRange,
         "Scoreboard: probe of f52 (register file holds f0..f51)"},
        {"cpu read", [&] { cpu.readReg(32); }, ErrCode::RegFileRange,
         "Cpu: read of r32"},
        {"cpu write", [&] { cpu.writeReg(32, 1); }, ErrCode::RegFileRange,
         "Cpu: write of r32"},
        {"unaligned access", [&] { mem.read64(12); }, ErrCode::MemAlign,
         "MainMemory: unaligned 64-bit access at 12"},
        {"access past the end", [&] { mem.write64(4096, 1); },
         ErrCode::MemRange,
         "MainMemory: access past end of memory at 4096 (size 4096)"},
        {"vector past f51", [&] { ir.tryIssue(sb, element); },
         ErrCode::Unknown, "vector element specifier incremented past f51"},
    };
    for (const Row &row : rows) {
        try {
            row.access();
            ADD_FAILURE() << row.what << " did not throw";
        } catch (const SimError &err) {
            EXPECT_EQ(err.code(), row.code) << row.what;
            EXPECT_STREQ(err.what(), row.message) << row.what;
        }
    }
}

TEST(SimErrorTest, MachineStampsContextOnDecodeErrors)
{
    // A spin into a data word the decoder rejects: the throw site
    // knows only the word; Machine::run stamps cycle and pc.
    machine::Machine m(idealMemory());
    m.loadProgram(assembler::assemble(R"(
        li r1, 1
        halt
    )"));
    // Corrupt the halt into a reserved encoding... instead, drive a
    // hazard which reports through the same stamping path.
    machine::MachineConfig cfg = idealMemory();
    cfg.hazardPolicy = machine::HazardPolicy::Fatal;
    machine::Machine hazard(cfg);
    hazard.loadProgram(assembler::assemble(R"(
        fadd f2, f1, f0, vl=8, sra, srb
        stf  f5, 0(r1)
        halt
    )"));
    hazard.cpu().writeReg(1, 0x1000);
    try {
        hazard.run();
        FAIL() << "expected HazardViolation";
    } catch (const SimError &err) {
        EXPECT_EQ(err.code(), ErrCode::HazardViolation);
        EXPECT_GE(err.context().cycle, 0);
        EXPECT_GE(err.context().pc, 0);
    }
}

// ---------------------------------------------------------------------
// Thread-safe log sink
// ---------------------------------------------------------------------

TEST(LogSinkTest, SinkReceivesJobTaggedMessages)
{
    std::vector<std::string> captured;
    setLogSink([&](LogLevel level, const std::string &tag,
                   const std::string &msg) {
        captured.push_back(std::string(level == LogLevel::Warn ? "W" : "I") +
                           "|" + tag + "|" + msg);
    });
    {
        LogJobScope scope("job-42");
        warn("something odd");
        inform("progress");
    }
    warn("untagged");
    setLogSink(nullptr); // restore stderr default
    ASSERT_EQ(captured.size(), 3u);
    EXPECT_EQ(captured[0], "W|job-42|something odd");
    EXPECT_EQ(captured[1], "I|job-42|progress");
    EXPECT_EQ(captured[2], "W||untagged");
}

TEST(LogSinkTest, TagIsPerThread)
{
    std::vector<std::string> captured;
    setLogSink([&](LogLevel, const std::string &tag, const std::string &) {
        captured.push_back(tag); // sink runs under the log mutex
    });
    LogJobScope outer("main-thread");
    std::thread worker([] {
        LogJobScope scope("worker-thread");
        warn("from worker");
    });
    worker.join();
    warn("from main");
    setLogSink(nullptr);
    ASSERT_EQ(captured.size(), 2u);
    EXPECT_EQ(captured[0], "worker-thread");
    EXPECT_EQ(captured[1], "main-thread");
}

// ---------------------------------------------------------------------
// Guards: partial stats instead of lost runs
// ---------------------------------------------------------------------

TEST(GuardTest, WatchdogReturnsPartialStats)
{
    machine::MachineConfig cfg = idealMemory();
    cfg.watchdogMs = 1; // expires at the first 4M-cycle check
    machine::Machine m(cfg);
    m.loadProgram(assembler::assemble("spin: j spin\nnop\n"));
    const machine::RunStats stats = m.run();
    EXPECT_EQ(stats.status, machine::RunStatus::Watchdog);
    EXPECT_GT(stats.cycles, 0u);
    EXPECT_GT(stats.instructionsIssued, 0u);
}

TEST(GuardTest, DriverReportsGuardedRunAsFailureWithStats)
{
    machine::SimJob job;
    job.name = "guarded";
    job.program = assembler::assemble("spin: j spin\nnop\n");
    job.config = idealMemory();
    job.config.maxCycles = 1000;
    const machine::SimDriver driver(1);
    const std::vector<machine::SimJobResult> res = driver.run({job});
    ASSERT_EQ(res.size(), 1u);
    EXPECT_FALSE(res[0].ok);
    EXPECT_EQ(res[0].stats.status, machine::RunStatus::CycleGuard);
    EXPECT_EQ(res[0].errCode, ErrCode::CycleGuard);
    EXPECT_GT(res[0].stats.cycles, 0u); // partial stats preserved
    // The guard's error record names the cycle the run stopped at.
    EXPECT_EQ(res[0].errContext.cycle,
              static_cast<int64_t>(res[0].stats.cycles));
    EXPECT_NE(res[0].failure().to_json().find("\"code\":\"cycle-guard\""),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Fault plans
// ---------------------------------------------------------------------

TEST(FaultPlanTest, ParseDescribeRoundTrip)
{
    const std::string text = "10 fpu-reg 17 0x40\n"
                             "5 mem-word 100 0x1\n"
                             "# comment line\n"
                             "20 softfp-flags 0 0x1\n";
    const FaultPlan plan = FaultPlan::parse(text);
    ASSERT_EQ(plan.size(), 3u);
    // Sorted by cycle.
    EXPECT_EQ(plan.faults()[0].cycle, 5u);
    EXPECT_EQ(plan.faults()[0].site, FaultSite::MemWord);
    EXPECT_EQ(plan.faults()[1].cycle, 10u);
    EXPECT_EQ(plan.faults()[1].index, 17u);
    EXPECT_EQ(plan.faults()[1].mask, 0x40u);
    EXPECT_EQ(plan.faults()[2].site, FaultSite::SoftfpFlags);
    // describe() re-parses to the same plan.
    EXPECT_EQ(FaultPlan::parse(plan.describe()), plan);
}

TEST(FaultPlanTest, ParseRejectsMalformedInput)
{
    EXPECT_THROW(FaultPlan::parse("10 fpu-reg 17"), SimError);
    EXPECT_THROW(FaultPlan::parse("10 bogus-site 1 0x1"), SimError);
    EXPECT_THROW(FaultPlan::parse("x fpu-reg 1 0x1"), SimError);
    EXPECT_THROW(FaultPlan::parse("1 fpu-reg 1 0x1 junk"), SimError);
    // Each number is a whole token: no trailing characters, no sign.
    for (const char *bad :
         {"12abc mem-word 5 1", "-1 mem-word 5 1", "1 mem-word -3 1",
          "1 mem-word 5 1g", "+9 mem-word 5 1", "1 mem-word 5 -1",
          "1 mem-word 0x5 1"}) {
        try {
            FaultPlan::parse(bad);
            ADD_FAILURE() << "'" << bad << "' parsed";
        } catch (const SimError &err) {
            EXPECT_EQ(err.code(), ErrCode::BadOperand) << bad;
        }
    }
    // The mask is hex with or without 0x.
    EXPECT_EQ(FaultPlan::parse("7 mem-word 5 1f").faults().front().mask,
              0x1fu);
    EXPECT_EQ(FaultPlan::parse("7 mem-word 5 0x1f"),
              FaultPlan::parse("7 mem-word 5 1f"));
}

TEST(FaultPlanTest, RandomSingleIsSeedDeterministic)
{
    const FaultPlan a = FaultPlan::randomSingle(12345, 10000);
    const FaultPlan b = FaultPlan::randomSingle(12345, 10000);
    EXPECT_EQ(a, b);
    ASSERT_EQ(a.size(), 1u);
    EXPECT_LE(a.faults()[0].cycle, 10000u);
    // Different seeds should (for these two) give different faults.
    const FaultPlan c = FaultPlan::randomSingle(54321, 10000);
    EXPECT_NE(a, c);
}

TEST(FaultPlanTest, SiteNamesRoundTrip)
{
    for (unsigned s = 0; s < kNumFaultSites; ++s) {
        const FaultSite site = static_cast<FaultSite>(s);
        EXPECT_EQ(findEnum<FaultSite>(enumName(site)), site);
    }
    EXPECT_THROW(FaultPlan::parse("1 nope 1 0x1"), SimError);
}

// ---------------------------------------------------------------------
// The injector against a live machine
// ---------------------------------------------------------------------

TEST(FaultInjectorTest, CpuRegFaultLands)
{
    machine::Machine m(idealMemory());
    m.loadProgram(assembler::assemble(R"(
        li   r1, 1
        li   r1, 2
        li   r1, 3
        halt
    )"));
    m.cpu().writeReg(9, 0xff);
    // index 8 → r(1 + 8 % 31) = r9; fires at cycle 0.
    FaultInjector injector(FaultPlan({Fault{0, FaultSite::CpuReg, 8, 0x1}}));
    m.setHook(&injector);
    m.run();
    EXPECT_EQ(m.cpu().readReg(9), 0xfeu);
    EXPECT_EQ(m.cpu().readReg(8), 0u); // the neighbours are untouched
    EXPECT_EQ(m.cpu().readReg(10), 0u);
}

TEST(FaultInjectorTest, InjectionIsDeterministic)
{
    const kernels::Kernel kernel = kernels::livermore::make(1, true);
    const FaultPlan plan = FaultPlan::randomSingle(777, 2000);
    auto runOnce = [&]() {
        machine::Machine m(idealMemory());
        m.loadProgram(kernel.program);
        kernel.init(m.mem());
        FaultInjector injector(plan);
        m.setHook(&injector);
        const machine::RunStats stats = m.run();
        return std::make_pair(stats, kernel.checksum(m.mem()));
    };
    const auto [stats_a, sum_a] = runOnce();
    const auto [stats_b, sum_b] = runOnce();
    EXPECT_EQ(stats_a, stats_b);
    EXPECT_EQ(sum_a, sum_b);
}

TEST(FaultInjectorTest, MemWordFaultCorruptsChecksum)
{
    const kernels::Kernel kernel = kernels::livermore::make(1, true);
    auto checksumWith = [&](const FaultPlan &plan) {
        machine::Machine m(idealMemory());
        m.loadProgram(kernel.program);
        kernel.init(m.mem());
        FaultInjector injector(plan);
        m.setHook(&injector);
        m.run();
        return kernel.checksum(m.mem());
    };
    const double golden = checksumWith(FaultPlan{});
    // Flip a high mantissa bit of an input element before the run
    // computes: lfk01 is x[k] = q + y[k]*(r*z[k+10] + t*z[k+11]) and
    // the checksum sums x, so corrupting y[3] must change it.
    const uint64_t word_index = kernel.layout.addr("y", 3) / 8;
    const double faulty = checksumWith(
        FaultPlan({Fault{0, FaultSite::MemWord, word_index, 1ull << 51}}));
    EXPECT_NE(golden, faulty);
}

// ---------------------------------------------------------------------
// §2.3.1 PSW semantics under an injected overflow
// ---------------------------------------------------------------------

class InjectedOverflowTest
    : public ::testing::TestWithParam<softfp::Backend>
{};

TEST_P(InjectedOverflowTest, VectorSquashAndOverflowRegLatch)
{
    // A benign 8-element vector multiply — no element overflows on
    // its own. A SoftfpFlags fault forces the overflow flag onto one
    // element mid-vector; §2.3.1 then requires: the overflowing
    // destination is latched in PSW.overflowReg, elements already in
    // the 3-cycle pipe complete, and the not-yet-issued tail is
    // discarded.
    machine::MachineConfig cfg = idealMemory();
    cfg.fpBackend = GetParam();
    machine::Machine m(cfg);
    m.loadProgram(assembler::assemble(R"(
        fmul f16, f0, f8, vl=8, sra, srb
        halt
    )"));
    for (unsigned i = 0; i < 8; ++i) {
        m.fpu().regs().writeDouble(i, 2.0);
        m.fpu().regs().writeDouble(8 + i, 3.0);
    }
    // Arm the flag corruption a few cycles in: the next element to
    // issue at or after cycle 3 carries a forced overflow flag.
    FaultInjector injector(
        FaultPlan({Fault{3, FaultSite::SoftfpFlags, 0, 0x1}}));
    m.setHook(&injector);
    const machine::RunStats stats = m.run();
    EXPECT_EQ(stats.status, machine::RunStatus::Ok);

    const fpu::Psw &psw = m.fpu().psw();
    ASSERT_TRUE(psw.overflowValid);
    ASSERT_GE(psw.overflowReg, 16u);
    ASSERT_LE(psw.overflowReg, 23u);
    const unsigned k = psw.overflowReg - 16; // corrupted element
    EXPECT_TRUE(psw.flags.overflow);

    // Elements up to k, plus the two already in the 3-cycle pipe when
    // element k retired, complete with the true product; the rest of
    // the vector was never issued and the destinations stay zero.
    const unsigned last_written = std::min(k + 2, 7u);
    for (unsigned i = 0; i <= last_written; ++i) {
        EXPECT_DOUBLE_EQ(m.fpu().regs().readDouble(16 + i), 6.0)
            << "element " << i;
    }
    for (unsigned i = last_written + 1; i < 8; ++i) {
        EXPECT_EQ(m.fpu().regs().read(16 + i), 0u)
            << "element " << i << " should have been squashed";
    }
    const unsigned expected_squashed = 7 - last_written;
    EXPECT_EQ(stats.fpu.squashedElements, expected_squashed);
}

INSTANTIATE_TEST_SUITE_P(BothBackends, InjectedOverflowTest,
                         ::testing::Values(softfp::Backend::Soft,
                                           softfp::Backend::HostFast),
                         [](const auto &info) {
                             return info.param == softfp::Backend::Soft
                                        ? "Soft"
                                        : "HostFast";
                         });

// ---------------------------------------------------------------------
// Lockstep divergence reports
// ---------------------------------------------------------------------

TEST(DivergenceTest, InjectedFaultYieldsStructuredReport)
{
    const kernels::Kernel kernel = kernels::livermore::make(1, true);
    machine::Machine m(idealMemory());
    m.loadProgram(kernel.program);
    kernel.init(m.mem());
    machine::LockstepChecker checker(m);
    m.addObserver(&checker);
    // Flip a memory word the kernel never writes; the shadow
    // interpreter keeps the clean value, so the final-state
    // comparison must diverge (register flips can be masked by the
    // loop overwriting the register afterwards — a quiet memory word
    // cannot heal).
    FaultInjector injector(FaultPlan(
        {Fault{50, FaultSite::MemWord, 0x80000 / 8, 1ull << 30}}));
    m.setHook(&injector);
    try {
        m.run();
        FAIL() << "expected lockstep divergence";
    } catch (const SimError &err) {
        EXPECT_EQ(err.code(), ErrCode::LockstepDivergence);
        ASSERT_TRUE(checker.diverged());
        const machine::DivergenceReport &report = checker.report();
        EXPECT_FALSE(report.deltas.empty());
        EXPECT_EQ(report.where, "final-state");
        EXPECT_GT(report.cycle, 0u);
        const std::string json = report.to_json();
        EXPECT_NE(json.find("\"where\":\"final-state\""),
                  std::string::npos);
        EXPECT_NE(json.find("\"deltas\":["), std::string::npos);
    }
}

// ---------------------------------------------------------------------
// Driver containment: one attempt, failures stay isolated
// ---------------------------------------------------------------------

/** A job whose program deterministically trips the hazard check. */
machine::SimJob
hazardJob(const std::string &name)
{
    machine::SimJob job;
    job.name = name;
    job.program = assembler::assemble(R"(
        fadd f2, f1, f0, vl=8, sra, srb
        stf  f5, 0(r1)
        halt
    )");
    job.config = idealMemory();
    job.config.hazardPolicy = machine::HazardPolicy::Fatal;
    job.cpuRegInit = {{1, 0x1000}};
    return job;
}

TEST(ContainmentTest, FaultExpectedJobFailsWithoutRetry)
{
    // A job with a fault plan is expected to fail: one attempt, no
    // quarantine. The plan flips r5, which the program never reads,
    // so the failure is the program's own hazard.
    machine::SimJob job = hazardJob("expected");
    job.faultPlan = FaultPlan({Fault{0, FaultSite::CpuReg, 4, 1}});
    const machine::SimDriver driver(1);
    const std::vector<machine::SimJobResult> res = driver.run({job});
    EXPECT_FALSE(res[0].ok);
    EXPECT_EQ(res[0].errCode, ErrCode::HazardViolation);
    EXPECT_EQ(res[0].attempts, 1u); // no retry for planned faults
    EXPECT_FALSE(res[0].quarantined);
}

TEST(ContainmentTest, CorruptedJobFailsAloneSiblingsBitIdentical)
{
    // One batch: four clean kernel jobs and one with an injected
    // fault, across 4 worker threads. The faulted job must fail
    // (lockstep) while every sibling matches the reference run bit
    // for bit.
    const kernels::Kernel kernel = kernels::livermore::make(3, true);
    auto cleanJob = [&](const std::string &name) {
        machine::SimJob job;
        job.name = name;
        job.program = kernel.program;
        job.config = idealMemory();
        job.memInit = kernels::memImage(kernel.init);
        return job;
    };

    // Reference: one clean job, serial.
    const machine::SimDriver serial(1);
    const machine::RunStats reference = serial.run({cleanJob("ref")})[0].stats;

    std::vector<machine::SimJob> batch;
    for (int i = 0; i < 2; ++i)
        batch.push_back(cleanJob("sibling-" + std::to_string(i)));
    machine::SimJob faulted = cleanJob("faulted");
    // A quiet-memory flip guarantees a lockstep divergence (nothing
    // overwrites it before the final-state comparison).
    faulted.faultPlan = FaultPlan(
        {Fault{40, FaultSite::MemWord, 0x80000 / 8, 1ull << 40}});
    faulted.lockstep = true;
    batch.push_back(std::move(faulted));
    for (int i = 2; i < 4; ++i)
        batch.push_back(cleanJob("sibling-" + std::to_string(i)));

    const machine::SimDriver pool(4);
    const std::vector<machine::SimJobResult> res = pool.run(batch);
    ASSERT_EQ(res.size(), 5u);
    for (size_t i : {0u, 1u, 3u, 4u}) {
        EXPECT_TRUE(res[i].ok) << res[i].name << ": " << res[i].error;
        EXPECT_EQ(res[i].stats, reference) << res[i].name;
    }
    EXPECT_FALSE(res[2].ok);
    EXPECT_EQ(res[2].errCode, ErrCode::LockstepDivergence);
    EXPECT_EQ(res[2].attempts, 1u);
    EXPECT_FALSE(res[2].quarantined);
}

TEST(ContainmentTest, FaultPlanDisqualifiesMemoization)
{
    const kernels::Kernel kernel = kernels::livermore::make(1, true);
    machine::SimJob pure;
    pure.program = kernel.program;
    pure.memInit = kernels::memImage(kernel.init);
    machine::SimJob faulted = pure;
    faulted.faultPlan = FaultPlan({Fault{40, FaultSite::CpuReg, 4, 1}});
    machine::SimJob shadowed = pure;
    shadowed.lockstep = true;
    EXPECT_TRUE(machine::isPureJob(pure));
    EXPECT_FALSE(machine::isPureJob(faulted));
    EXPECT_FALSE(machine::isPureJob(shadowed));

    // startJob builds what the data asks for, and nothing else.
    machine::Machine plain(pure.config);
    const machine::JobInstruments none = machine::startJob(pure, plain);
    EXPECT_FALSE(none.injector);
    EXPECT_FALSE(none.shadow);
    EXPECT_EQ(plain.hook(), nullptr);
    machine::Machine hooked(faulted.config);
    const machine::JobInstruments injected =
        machine::startJob(faulted, hooked);
    ASSERT_TRUE(injected.injector);
    EXPECT_EQ(injected.injector->plan(), faulted.faultPlan);
    EXPECT_EQ(hooked.hook(), injected.injector.get());
    EXPECT_FALSE(injected.shadow);
}

// ---------------------------------------------------------------------
// End-to-end campaign
// ---------------------------------------------------------------------

TEST(CampaignTest, SmallSweepFullyClassifiedNoSdcUnderLockstep)
{
    CampaignConfig cfg;
    cfg.faultsPerKernel = 8;
    cfg.seed = 99;
    cfg.lockstep = true;
    cfg.threads = 2;
    cfg.machine = idealMemory();
    const std::vector<kernels::Kernel> kernels = {
        kernels::livermore::make(1, true),
        kernels::livermore::make(12, true),
    };
    const CampaignResult result = runCampaign(kernels, cfg);
    EXPECT_EQ(result.trials.size(), 16u);
    EXPECT_TRUE(result.sdcFree()); // structurally guaranteed by lockstep
    unsigned classified = 0;
    for (FaultOutcome o :
         {FaultOutcome::DetectedHardware, FaultOutcome::DetectedLockstep,
          FaultOutcome::Masked, FaultOutcome::Sdc})
        classified += result.count(o);
    EXPECT_EQ(classified, 16u); // every trial classified
    // The table renders with one row per kernel plus the total.
    const std::string table = result.table();
    EXPECT_NE(table.find("lfk01"), std::string::npos);
    EXPECT_NE(table.find("lfk12"), std::string::npos);
    EXPECT_NE(table.find("TOTAL"), std::string::npos);
}

TEST(CampaignTest, CampaignIsSeedDeterministic)
{
    CampaignConfig cfg;
    cfg.faultsPerKernel = 5;
    cfg.seed = 7;
    cfg.machine = idealMemory();
    const std::vector<kernels::Kernel> kernels = {
        kernels::livermore::make(1, true)};
    const CampaignResult a = runCampaign(kernels, cfg);
    const CampaignResult b = runCampaign(kernels, cfg);
    ASSERT_EQ(a.trials.size(), b.trials.size());
    for (size_t i = 0; i < a.trials.size(); ++i) {
        EXPECT_EQ(a.trials[i].plan, b.trials[i].plan);
        EXPECT_EQ(a.trials[i].outcome, b.trials[i].outcome);
    }
}

TEST(CampaignTest, RecordReplaysEachTrialPlan)
{
    // A trial record carries its plan as the text FaultPlan::parse
    // reads, so any trial of campaign.json replays from its record.
    CampaignConfig cfg;
    cfg.faultsPerKernel = 4;
    cfg.seed = 5;
    cfg.machine = idealMemory();
    const CampaignResult result =
        runCampaign({kernels::livermore::make(1, true)}, cfg);
    const json::Value record = json::parse(result.to_json());
    const std::vector<json::Value> &trials = record.at("trials").asArray();
    ASSERT_EQ(trials.size(), result.trials.size());
    for (size_t i = 0; i < trials.size(); ++i) {
        EXPECT_EQ(trials[i].at("seed").asUint(), result.trials[i].seed);
        EXPECT_EQ(FaultPlan::parse(trials[i].at("fault_plan").asString()),
                  result.trials[i].plan);
    }
    EXPECT_EQ(record.at("summary").at("masked").asUint(),
              result.count(FaultOutcome::Masked));
}

} // anonymous namespace
} // namespace mtfpu::faults
