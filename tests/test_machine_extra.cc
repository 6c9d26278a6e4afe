/**
 * @file
 * Extended machine-level tests: the §2.3.1 interrupt-continuation
 * claim, vector overflow PSW semantics end to end, parameterized
 * vector timing laws, the program disassembler, tracer output, and
 * statistics plumbing.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "common/log.hh"
#include "isa/disasm.hh"
#include "kernels/livermore/livermore.hh"
#include "machine/machine.hh"

namespace mtfpu::machine
{
namespace
{

MachineConfig
ideal()
{
    MachineConfig cfg;
    cfg.memory.modelCaches = false;
    return cfg;
}

// ---------------------------------------------------------------------
// §2.3.1: "vector ALU instructions may continue long after an
// interrupt. For example in the case of vector recursion ... of
// length 16, the last element would be written 48 cycles later, even
// if an interrupt occurred in the meantime."
// ---------------------------------------------------------------------

TEST(Interrupt, VectorRecursionContinuesThroughInterrupt)
{
    // r[a] := r[a-1] + r[a-2], length 16: f2..f17 from f0, f1.
    Machine m(ideal());
    m.loadProgram(assembler::assemble(R"(
        fadd f2, f1, f0, vl=16, sra, srb
        halt
    )"));
    m.fpu().regs().writeDouble(0, 1.0);
    m.fpu().regs().writeDouble(1, 1.0);
    // CPU diverted to a handler from cycle 2 for 100 cycles — well
    // past the vector's own lifetime (the halt already issued at
    // cycle 1, so the run length is set by the vector drain alone).
    m.scheduleInterrupt(2, 100);
    const RunStats stats = m.run();

    // Elements issue every 3 cycles: last issues at 45, written at 48
    // — "the last element would be written 48 cycles later" (§2.3.1).
    EXPECT_EQ(stats.cycles, 48u);
    EXPECT_EQ(stats.fpu.elementsIssued, 16u);
    double fib[18];
    fib[0] = fib[1] = 1.0;
    for (int i = 2; i < 18; ++i)
        fib[i] = fib[i - 1] + fib[i - 2];
    for (int i = 2; i < 18; ++i)
        EXPECT_DOUBLE_EQ(m.fpu().regs().readDouble(i), fib[i]) << i;
}

TEST(Interrupt, LastElementWrittenAtCycle48)
{
    // Same program with a tracer: verify the issue schedule directly
    // (issue at 0, 3, ..., 45 -> last write at cycle 48).
    Machine m(ideal());
    Tracer tracer;
    m.addObserver(&tracer);
    m.loadProgram(assembler::assemble(R"(
        fadd f2, f1, f0, vl=16, sra, srb
        halt
    )"));
    m.fpu().regs().writeDouble(0, 1.0);
    m.fpu().regs().writeDouble(1, 1.0);
    m.scheduleInterrupt(1, 10);
    m.run();

    std::vector<uint64_t> issues;
    for (const TraceEvent &e : tracer.events()) {
        if (e.kind == TraceKind::FpElement)
            issues.push_back(e.cycle);
    }
    ASSERT_EQ(issues.size(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(issues[i], static_cast<uint64_t>(3 * i));
    // Issue 45 + 3-cycle latency = written at cycle 48, as the paper
    // states.
    EXPECT_EQ(issues.back() + 3, 48u);
}

TEST(Interrupt, ClearedByReset)
{
    Machine m(ideal());
    m.loadProgram(assembler::assemble("nop\nhalt\n"));
    m.scheduleInterrupt(0, 1000);
    m.resetForRun(true);
    const RunStats stats = m.run();
    EXPECT_LE(stats.cycles, 2u); // no lingering interrupt window
}

// ---------------------------------------------------------------------
// Overflow semantics end to end
// ---------------------------------------------------------------------

TEST(Overflow, VectorDiscardsTailAndRecordsPsw)
{
    Machine m(ideal());
    m.loadProgram(assembler::assemble(R"(
        fmul f16, f0, f8, vl=8, sra, srb
        halt
    )"));
    // Element 2 overflows; the rest would not.
    for (int i = 0; i < 8; ++i) {
        m.fpu().regs().writeDouble(i, i == 2 ? 1e300 : 2.0);
        m.fpu().regs().writeDouble(8 + i, i == 2 ? 1e300 : 3.0);
    }
    m.run();

    EXPECT_TRUE(m.fpu().psw().overflowValid);
    EXPECT_EQ(m.fpu().psw().overflowReg, 18); // f16 + 2
    EXPECT_TRUE(m.fpu().psw().flags.overflow);
    // Elements 0..1 completed; 2 overflowed to inf; elements already
    // in the pipe behind it (3, 4) complete; the rest are discarded.
    EXPECT_DOUBLE_EQ(m.fpu().regs().readDouble(16), 6.0);
    EXPECT_DOUBLE_EQ(m.fpu().regs().readDouble(17), 6.0);
    EXPECT_TRUE(softfp::isInf(m.fpu().regs().read(18)));
    EXPECT_EQ(m.fpu().regs().read(21), 0u); // squashed
    EXPECT_EQ(m.fpu().regs().read(23), 0u); // squashed
}

TEST(Overflow, ScalarOpsAfterSquashStillExecute)
{
    Machine m(ideal());
    m.loadProgram(assembler::assemble(R"(
        fmul f16, f0, f0, vl=8, sra
        fadd f30, f1, f1
        halt
    )"));
    m.fpu().regs().writeDouble(0, 1e200); // every element overflows
    m.fpu().regs().writeDouble(1, 21.0);
    m.run();
    EXPECT_TRUE(m.fpu().psw().overflowValid);
    EXPECT_DOUBLE_EQ(m.fpu().regs().readDouble(30), 42.0);
}

TEST(Flags, DivisionByZeroReachesPsw)
{
    Machine m(ideal());
    m.loadProgram(assembler::assemble("frecip f10, f0\nhalt\n"));
    m.fpu().regs().writeDouble(0, 0.0);
    m.run();
    EXPECT_TRUE(m.fpu().psw().flags.divByZero);
    EXPECT_TRUE(softfp::isInf(m.fpu().regs().read(10)));
}

// ---------------------------------------------------------------------
// Parameterized vector timing laws
// ---------------------------------------------------------------------

class VectorLength : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(VectorLength, IndependentElementsTakeNPlusLatencyMinusOne)
{
    const unsigned n = GetParam();
    Machine m(ideal());
    m.loadProgram(assembler::assemble(
        "fadd f16, f0, f8, vl=" + std::to_string(n) +
        ", sra, srb\nhalt\n"));
    const RunStats stats = m.run();
    // Elements at 0..n-1; last write at n-1+3.
    EXPECT_EQ(stats.cycles, n + 2);
    EXPECT_EQ(stats.fpu.elementsIssued, n);
    EXPECT_EQ(stats.fpu.sourceStallCycles, 0u);
}

TEST_P(VectorLength, ChainedElementsTakeThreeN)
{
    const unsigned n = GetParam();
    if (n + 17 > isa::kNumFpuRegs)
        GTEST_SKIP() << "recurrence would run past f51";
    Machine m(ideal());
    m.loadProgram(assembler::assemble(
        "fadd f17, f16, f0, vl=" + std::to_string(n) +
        ", sra, srb\nhalt\n"));
    const RunStats stats = m.run();
    // Element k issues at 3k; last write at 3(n-1)+3 = 3n.
    EXPECT_EQ(stats.cycles, 3 * n);
}

INSTANTIATE_TEST_SUITE_P(AllLengths, VectorLength,
                         ::testing::Range(1u, 17u));

TEST(VectorLimits, MaxLengthSixteenUsesWholeWindow)
{
    // f36..f51 is the highest legal 16-register window.
    Machine m(ideal());
    m.loadProgram(assembler::assemble(
        "fadd f36, f0, f0, vl=16\nhalt\n"));
    m.fpu().regs().writeDouble(0, 1.5);
    const RunStats stats = m.run();
    EXPECT_EQ(stats.fpu.elementsIssued, 16u);
    for (unsigned r = 36; r < 52; ++r)
        EXPECT_DOUBLE_EQ(m.fpu().regs().readDouble(r), 3.0);
    EXPECT_EQ(stats.cycles, 18u);
}

// ---------------------------------------------------------------------
// Disassembler, tracer, stats plumbing
// ---------------------------------------------------------------------

TEST(DisasmProgram, ListingHasLabelsAndTargets)
{
    const assembler::Program p = assembler::assemble(R"(
        start:  li   r1, 3
        loop:   subi r1, r1, 1
                bne  r1, r0, loop
                nop
                halt
    )");
    const std::string listing = isa::disassembleProgram(p);
    EXPECT_NE(listing.find("start:"), std::string::npos);
    EXPECT_NE(listing.find("loop:"), std::string::npos);
    EXPECT_NE(listing.find("(loop)"), std::string::npos);
    EXPECT_NE(listing.find("halt"), std::string::npos);
}

TEST(TracerLog, RecordsEventKinds)
{
    Machine m(ideal());
    Tracer tracer;
    m.addObserver(&tracer);
    m.loadProgram(assembler::assemble(R"(
        ldf f0, 0(r1)
        fadd f8, f0, f0
        halt
    )"));
    m.cpu().writeReg(1, 0x1000);
    m.run();
    const std::string log = tracer.renderLog();
    EXPECT_NE(log.find("cpu"), std::string::npos);
    EXPECT_NE(log.find("xfer"), std::string::npos);
    EXPECT_NE(log.find("elem"), std::string::npos);
    EXPECT_NE(log.find("ldf f0"), std::string::npos);

    // The last-N form is the tail of the full listing.
    const std::string tail = tracer.renderLog(2);
    EXPECT_EQ(std::count(tail.begin(), tail.end(), '\n'), 2);
    ASSERT_LT(tail.size(), log.size());
    EXPECT_EQ(log.substr(log.size() - tail.size()), tail);
    EXPECT_EQ(tracer.renderLog(0), "");
}

/** Records every access that froze the machine. */
class FreezeLog : public exec::ExecObserver
{
  public:
    void
    onMemAccess(const exec::MemAccessEvent &event) override
    {
        if (event.penalty > 0)
            freezes.push_back(event);
    }

    std::vector<exec::MemAccessEvent> freezes;
};

TEST(Observers, NoOpObserverKeepsStatsAndPauses)
{
    // A lock-step freeze is burned in one step whether or not an
    // observer is attached. With a no-op observer, RunStats at every
    // runUntil pause, one of them inside a freeze, and at the end
    // match the unobserved run. lfk12 scalar spends about half its
    // cycles frozen.
    const kernels::Kernel k = kernels::livermore::make(12, false);
    const auto load = [&k](Machine &m) {
        m.loadProgram(k.program);
        k.init(m.mem());
    };
    FreezeLog log;
    Machine probe;
    load(probe);
    probe.addObserver(&log);
    const RunStats whole = probe.run();
    ASSERT_GT(whole.memoryStallCycles, whole.cycles / 4);
    ASSERT_GT(log.freezes.size(), 2u);
    // The access's cycle issues it; the next penalty cycles are frozen.
    const exec::MemAccessEvent &freeze = log.freezes[log.freezes.size() / 2];
    ASSERT_GT(freeze.penalty, 2u);
    const uint64_t pauses[] = {1,
                               freeze.cycle,
                               freeze.cycle + 2,
                               freeze.cycle + freeze.penalty + 1,
                               whole.cycles - 1};

    Machine plain, observed;
    load(plain);
    load(observed);
    exec::ExecObserver noop;
    observed.addObserver(&noop);
    for (uint64_t pause : pauses) {
        SCOPED_TRACE("pause at " + std::to_string(pause));
        const RunStats expected = plain.runUntil(pause);
        ASSERT_EQ(expected.status, RunStatus::Paused);
        EXPECT_TRUE(observed.runUntil(pause) == expected);
    }
    EXPECT_TRUE(plain.run() == whole);
    EXPECT_TRUE(observed.run() == whole);
}

TEST(Stats, SummaryMentionsEveryCounter)
{
    Machine m(ideal());
    m.loadProgram(assembler::assemble(R"(
        ldf f0, 0(r1)
        stf f0, 8(r1)
        fadd f8, f0, f0, vl=2
        halt
    )"));
    m.cpu().writeReg(1, 0x1000);
    const RunStats stats = m.run();
    const std::string s = stats.summary();
    EXPECT_NE(s.find("cycles"), std::string::npos);
    EXPECT_NE(s.find("fp elements"), std::string::npos);
    EXPECT_NE(s.find("dcache"), std::string::npos);
    EXPECT_EQ(stats.fpLoads, 1u);
    EXPECT_EQ(stats.fpStores, 1u);
    EXPECT_EQ(stats.fpu.vectorInstructions, 1u);
}

TEST(Stats, MflopsAccounting)
{
    RunStats stats;
    stats.cycles = 1000;
    // 1000 cycles at 40 ns = 40 us; 2000 flops -> 50 MFLOPS.
    EXPECT_NEAR(stats.mflops(2000.0, 40.0), 50.0, 1e-9);
    EXPECT_NEAR(stats.seconds(40.0), 4e-5, 1e-12);
}

// ---------------------------------------------------------------------
// Hazard-policy equivalence on hazard-free code
// ---------------------------------------------------------------------

TEST(HazardPolicies, AgreeOnHazardFreePrograms)
{
    const char *src = R"(
        fmul f16, f0, f8, vl=8, sra, srb
        ldf  f24, 0(r1)
        stf  f24, 8(r1)
        fadd f25, f16, f17
        halt
    )";
    uint64_t cycles[3];
    uint64_t check[3];
    int i = 0;
    for (HazardPolicy policy :
         {HazardPolicy::Fatal, HazardPolicy::Stall,
          HazardPolicy::Ignore}) {
        MachineConfig cfg = ideal();
        cfg.hazardPolicy = policy;
        Machine m(cfg);
        m.loadProgram(assembler::assemble(src));
        for (int r = 0; r < 16; ++r)
            m.fpu().regs().writeDouble(r, 1.0 + r);
        m.cpu().writeReg(1, 0x1000);
        m.mem().writeDouble(0x1000, 7.25);
        cycles[i] = m.run().cycles;
        check[i] = m.fpu().regs().read(25);
        ++i;
    }
    EXPECT_EQ(cycles[0], cycles[1]);
    EXPECT_EQ(cycles[0], cycles[2]);
    EXPECT_EQ(check[0], check[1]);
    EXPECT_EQ(check[0], check[2]);
}

// ---------------------------------------------------------------------
// Current-element hardware interlock (§2.3.2 hardware side)
// ---------------------------------------------------------------------

TEST(CurrentElementInterlock, LoadWaitsForStalledElementSource)
{
    // fadd f20 := f10 + f0 stalls waiting for f10 (produced by the
    // first op). A load to f0 — the *current* element's source — must
    // not overwrite it before the element issues.
    Machine m(ideal());
    m.loadProgram(assembler::assemble(R"(
        fadd f10, f1, f2
        fadd f20, f10, f0
        ldf  f0, 0(r1)
        halt
    )"));
    m.fpu().regs().writeDouble(0, 100.0); // old value: must be used
    m.fpu().regs().writeDouble(1, 1.0);
    m.fpu().regs().writeDouble(2, 2.0);
    m.cpu().writeReg(1, 0x1000);
    m.mem().writeDouble(0x1000, -999.0); // new value: must not leak in
    m.run();
    EXPECT_DOUBLE_EQ(m.fpu().regs().readDouble(20), 103.0);
    EXPECT_DOUBLE_EQ(m.fpu().regs().readDouble(0), -999.0);
}

} // anonymous namespace
} // namespace mtfpu::machine
