/**
 * @file
 * Cycle-exact reproduction of the paper's worked examples:
 *
 *   Figure 5 — summing 8 elements with a tree of scalar adds: 12 cycles
 *   Figure 6 — linear vector reduction: 24 cycles
 *   Figure 7 — tree of vector operations: 12 cycles, 3 CPU transfers
 *   Figure 8 — Fibonacci recurrence as a length-8 vector: 24 cycles
 *   Figure 9 — fixed-stride loads at 1/cycle; linked list at 2x
 *   Figure 13 — graphics transform: 35-cycle latency, 20 MFLOPS
 *
 * These run with ideal memory (the paper's figures assume no cache or
 * instruction-buffer misses).
 */

#include <vector>

#include <gtest/gtest.h>

#include "baseline/amdahl.hh"
#include "kernels/livermore/livermore.hh"
#include "kernels/runner.hh"
#include "machine/machine.hh"

namespace mtfpu::machine
{
namespace
{

MachineConfig
idealMemoryConfig()
{
    MachineConfig cfg;
    cfg.memory.modelCaches = false;
    return cfg;
}

/** Load f0..f7 with 1..8 after program load. */
void
fillVector(Machine &m)
{
    for (unsigned i = 0; i < 8; ++i)
        m.fpu().regs().writeDouble(i, static_cast<double>(i + 1));
}

TEST(Figure5, ScalarTreeSumTakesTwelveCycles)
{
    Machine m(idealMemoryConfig());
    m.loadProgram(assembler::assemble(R"(
        fadd f8, f0, f1
        fadd f9, f2, f3
        fadd f10, f4, f5
        fadd f11, f6, f7
        fadd f12, f8, f9
        fadd f13, f10, f11
        fadd f14, f12, f13
        halt
    )"));
    fillVector(m);
    const RunStats stats = m.run();
    EXPECT_EQ(stats.cycles, 12u);
    EXPECT_DOUBLE_EQ(m.fpu().regs().readDouble(14), 36.0);
    EXPECT_EQ(stats.fpAluTransfers, 7u);
    EXPECT_EQ(stats.fpu.elementsIssued, 7u);
}

TEST(Figure6, LinearVectorSumTakesTwentyFourCycles)
{
    // The paper's fixed-accumulator drawing is encoded as the moving
    // accumulator f9 := f8 + f0 (VL=8, SRa, SRb); see DESIGN.md. Each
    // element depends on the previous result, so elements issue every
    // 3 cycles: 8 elements * 3 = 24.
    Machine m(idealMemoryConfig());
    m.loadProgram(assembler::assemble(R"(
        fadd f9, f8, f0, vl=8, sra, srb
        halt
    )"));
    fillVector(m);
    m.fpu().regs().writeDouble(8, 0.0); // the accumulator
    const RunStats stats = m.run();
    EXPECT_EQ(stats.cycles, 24u);
    EXPECT_DOUBLE_EQ(m.fpu().regs().readDouble(16), 36.0);
    EXPECT_EQ(stats.fpAluTransfers, 1u);
    EXPECT_EQ(stats.fpu.elementsIssued, 8u);
}

TEST(Figure7, VectorTreeSumTakesTwelveCyclesWithThreeTransfers)
{
    // Pairs must be (f0,f4), (f1,f5), (f2,f6), (f3,f7) because
    // specifiers increment by at most 1 between elements (§2.1.1).
    Machine m(idealMemoryConfig());
    m.loadProgram(assembler::assemble(R"(
        fadd f8, f0, f4, vl=4, sra, srb
        fadd f12, f8, f10, vl=2, sra, srb
        fadd f14, f12, f13
        halt
    )"));
    fillVector(m);
    const RunStats stats = m.run();
    EXPECT_EQ(stats.cycles, 12u);
    EXPECT_DOUBLE_EQ(m.fpu().regs().readDouble(14), 36.0);
    EXPECT_EQ(stats.fpAluTransfers, 3u);
    EXPECT_EQ(stats.fpu.elementsIssued, 7u);
}

TEST(Figure7, TracerShowsPaperTimeline)
{
    Machine m(idealMemoryConfig());
    Tracer tracer;
    m.addObserver(&tracer);
    m.loadProgram(assembler::assemble(R"(
        fadd f8, f0, f4, vl=4, sra, srb
        fadd f12, f8, f10, vl=2, sra, srb
        fadd f14, f12, f13
        halt
    )"));
    fillVector(m);
    m.run();

    // First vector's elements at cycles 0..3; second vector's at 5
    // and 6 (element 0 waits for f10 at cycle 5); final add at 9.
    std::vector<uint64_t> element_cycles;
    for (const TraceEvent &e : tracer.events()) {
        if (e.kind == TraceKind::FpElement)
            element_cycles.push_back(e.cycle);
    }
    const std::vector<uint64_t> expected{0, 1, 2, 3, 5, 6, 9};
    EXPECT_EQ(element_cycles, expected);

    const std::string timeline = tracer.renderTimeline();
    EXPECT_NE(timeline.find("f14 := f12 + f13"), std::string::npos);
}

TEST(Figure8, FibonacciRecurrenceAsVector)
{
    Machine m(idealMemoryConfig());
    m.loadProgram(assembler::assemble(R"(
        fadd f2, f1, f0, vl=8, sra, srb
        halt
    )"));
    m.fpu().regs().writeDouble(0, 1.0); // Fib_0
    m.fpu().regs().writeDouble(1, 1.0); // Fib_1
    const RunStats stats = m.run();
    EXPECT_EQ(stats.cycles, 24u);
    const double fib[] = {2, 3, 5, 8, 13, 21, 34, 55};
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_DOUBLE_EQ(m.fpu().regs().readDouble(2 + i), fib[i]);
}

TEST(Figure9, FixedStrideLoadsOnePerCycle)
{
    // With the stride folded into the load offset, eight loads issue
    // in eight consecutive cycles.
    Machine m(idealMemoryConfig());
    m.loadProgram(assembler::assemble(R"(
        ldf f0, 0(r1)
        ldf f1, 16(r1)
        ldf f2, 32(r1)
        ldf f3, 48(r1)
        ldf f4, 64(r1)
        ldf f5, 80(r1)
        ldf f6, 96(r1)
        ldf f7, 112(r1)
        halt
    )"));
    m.cpu().writeReg(1, 0x1000);
    for (unsigned i = 0; i < 8; ++i)
        m.mem().writeDouble(0x1000 + 16 * i, 1.0 + i);
    const RunStats stats = m.run();
    // Loads at cycles 0..7, halt at 8, last data lands at cycle 8.
    EXPECT_EQ(stats.cycles, 8u);
    EXPECT_EQ(stats.fpLoads, 8u);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_DOUBLE_EQ(m.fpu().regs().readDouble(i), 1.0 + i);
}

TEST(Figure9, LinkedListGatherAtTwiceTheCost)
{
    // Nodes: {next_ptr, fp_value}. Loads alternate between an even
    // and an odd pointer register so the value load overlaps the next
    // pointer load; the chain costs ~2 cycles per element instead
    // of 1.
    Machine m(idealMemoryConfig());
    m.loadProgram(assembler::assemble(R"(
        ld  r3, 0(r2)
        ldf f0, 8(r2)
        ld  r2, 0(r3)
        ldf f1, 8(r3)
        ld  r3, 0(r2)
        ldf f2, 8(r2)
        ld  r2, 0(r3)
        ldf f3, 8(r3)
        halt
    )"));
    // Build a 5-node list at 0x2000, 0x2100, ...
    for (unsigned i = 0; i < 5; ++i) {
        m.mem().write64(0x2000 + 0x100 * i, 0x2000 + 0x100 * (i + 1));
        m.mem().writeDouble(0x2000 + 0x100 * i + 8, 10.0 + i);
    }
    m.cpu().writeReg(2, 0x2000);
    const RunStats stats = m.run();
    // Pattern: ld@0, ldf@1, ld@2 (pointer ready), ldf@3, ... — two
    // cycles per element, i.e. double the fixed-stride rate.
    EXPECT_EQ(stats.fpLoads, 4u);
    EXPECT_EQ(stats.cycles, 8u); // last ldf at 7, data lands at 8
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_DOUBLE_EQ(m.fpu().regs().readDouble(i), 10.0 + i);
}

TEST(Figure13, GraphicsTransformThirtyFiveCyclesAt20Mflops)
{
    Machine m(idealMemoryConfig());
    m.loadProgram(assembler::assemble(R"(
        ldf f32, 0(r1)
        fmul f16, f32, f0, vl=4, srb
        ldf f33, 8(r1)
        fmul f20, f33, f4, vl=4, srb
        ldf f34, 16(r1)
        fmul f24, f34, f8, vl=4, srb
        ldf f35, 24(r1)
        fmul f28, f35, f12, vl=4, srb
        fadd f16, f16, f20, vl=4, sra, srb
        fadd f24, f24, f28, vl=4, sra, srb
        fadd f36, f16, f24, vl=4, sra, srb
        stf f36, 32(r1)
        stf f37, 40(r1)
        stf f38, 48(r1)
        stf f39, 56(r1)
        halt
    )"));

    // Transformation matrix in f0..f15: register group c*4..c*4+3
    // holds matrix column c, exactly the Figure 12 allocation.
    double a[4][4];
    for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < 4; ++c) {
            a[r][c] = 0.25 * (r + 1) + 0.5 * c;
            m.fpu().regs().writeDouble(c * 4 + r, a[r][c]);
        }
    }
    const double p[4] = {1.0, 2.0, 3.0, 4.0};
    m.cpu().writeReg(1, 0x4000);
    for (int i = 0; i < 4; ++i)
        m.mem().writeDouble(0x4000 + 8 * i, p[i]);

    const RunStats stats = m.run();

    // Paper: "Total latency: 35" and "achieves 20 MFLOPS".
    EXPECT_EQ(stats.cycles, 35u);
    const double mflops = stats.mflops(28.0, m.config().cycleNs);
    EXPECT_NEAR(mflops, 20.0, 0.1);

    // Numerical check: with column c of the matrix in register group
    // c, the routine computes result[k] = sum_c a[k][c] * p[c], i.e.
    // the transformed point A * p.
    for (int k = 0; k < 4; ++k) {
        double want = 0.0;
        for (int c = 0; c < 4; ++c)
            want += a[k][c] * p[c];
        EXPECT_DOUBLE_EQ(m.mem().readDouble(0x4000 + 32 + 8 * k), want)
            << "component " << k;
    }
}

TEST(Figure13, OnlyOneScoreboardStall)
{
    // "There is only one scoreboard stall for data dependencies in the
    // routine" — the store of f36 waiting for the final add.
    Machine m(idealMemoryConfig());
    m.loadProgram(assembler::assemble(R"(
        ldf f32, 0(r1)
        fmul f16, f32, f0, vl=4, srb
        ldf f33, 8(r1)
        fmul f20, f33, f4, vl=4, srb
        ldf f34, 16(r1)
        fmul f24, f34, f8, vl=4, srb
        ldf f35, 24(r1)
        fmul f28, f35, f12, vl=4, srb
        fadd f16, f16, f20, vl=4, sra, srb
        fadd f24, f24, f28, vl=4, sra, srb
        fadd f36, f16, f24, vl=4, sra, srb
        stf f36, 32(r1)
        stf f37, 40(r1)
        stf f38, 48(r1)
        stf f39, 56(r1)
        halt
    )"));
    m.cpu().writeReg(1, 0x4000);
    const RunStats stats = m.run();
    // No element ever waits on a source or destination reservation.
    EXPECT_EQ(stats.fpu.sourceStallCycles, 0u);
    EXPECT_EQ(stats.fpu.destStallCycles, 0u);
    EXPECT_EQ(stats.fpu.elementsIssued, 28u);
}

TEST(DualIssue, PeakTwoOperationsPerCycle)
{
    // While a vector issues, the CPU streams loads: both pipes issue
    // in the same cycle (paper §2.1.2 / §2.4).
    Machine m(idealMemoryConfig());
    m.loadProgram(assembler::assemble(R"(
        fadd f16, f0, f8, vl=8, sra, srb
        ldf f24, 0(r1)
        ldf f25, 8(r1)
        ldf f26, 16(r1)
        ldf f27, 24(r1)
        halt
    )"));
    m.cpu().writeReg(1, 0x1000);
    const RunStats stats = m.run();
    // Vector elements at cycles 0..7; loads at 1..4 and the halt at 5
    // all overlap element issue — 5 dual-issue cycles.
    EXPECT_EQ(stats.dualIssueCycles, 5u);
    EXPECT_EQ(stats.cycles, 10u); // element 7 at cycle 7 completes 10
}

TEST(Division, SixOperationSequenceIs18Cycles)
{
    // §2.2.3: division is six dependent 3-cycle operations = 720 ns.
    Machine m(idealMemoryConfig());
    m.loadProgram(assembler::assemble(R"(
        frecip f10, f1
        fmul   f11, f1, f10
        fiter  f12, f10, f11
        fmul   f13, f1, f12
        fiter  f14, f12, f13
        fmul   f15, f0, f14
        halt
    )"));
    m.fpu().regs().writeDouble(0, 1.0); // numerator
    m.fpu().regs().writeDouble(1, 3.0); // denominator
    const RunStats stats = m.run();
    EXPECT_EQ(stats.cycles, 18u); // 6 dependent ops x 3 cycles
    EXPECT_NEAR(m.fpu().regs().readDouble(15), 1.0 / 3.0, 1e-15);
    // 18 cycles x 40 ns = 720 ns, matching Figure 10.
    EXPECT_DOUBLE_EQ(stats.cycles * m.config().cycleNs, 720.0);
}

// ---------------------------------------------------------------------
// Figure 14 / Figure 11 regression pins. The simulator is
// deterministic, so the measured MFLOPS only move when timing or
// kernel code changes; the tolerances absorb deliberate small timing
// adjustments while still catching structural regressions.
// ---------------------------------------------------------------------

struct LivermoreRates
{
    std::vector<double> cold, warm, warmScalar;
};

const LivermoreRates &
livermoreRates()
{
    static const LivermoreRates rates = [] {
        const MachineConfig cfg; // full cache model, as in Figure 14
        std::vector<kernels::Kernel> batch;
        for (int id = 1; id <= kernels::livermore::kNumLoops; ++id)
            batch.push_back(kernels::livermore::make(
                id, kernels::livermore::hasVectorVariant(id)));
        for (int id = 1; id <= kernels::livermore::kNumLoops; ++id)
            batch.push_back(kernels::livermore::make(id, false));
        const std::vector<kernels::KernelResult> results =
            kernels::runKernelBatch(batch, cfg);
        LivermoreRates r;
        for (int id = 1; id <= kernels::livermore::kNumLoops; ++id) {
            const kernels::KernelResult &pref = results[id - 1];
            const kernels::KernelResult &scal =
                results[kernels::livermore::kNumLoops + id - 1];
            EXPECT_TRUE(pref.valid) << "loop " << id << " invalid";
            EXPECT_TRUE(scal.valid) << "loop " << id << " invalid";
            r.cold.push_back(pref.mflopsCold);
            r.warm.push_back(pref.mflopsWarm);
            r.warmScalar.push_back(scal.mflopsWarm);
        }
        return r;
    }();
    return rates;
}

double
harmonicMean(const std::vector<double> &v, size_t lo, size_t hi)
{
    double inv = 0;
    for (size_t i = lo; i < hi; ++i)
        inv += 1.0 / v[i];
    return static_cast<double>(hi - lo) / inv;
}

TEST(Figure14, WarmHarmonicMeansMatchPinnedValues)
{
    const LivermoreRates &r = livermoreRates();
    // Pinned from this reproduction (paper: 10.8 / 3.2 / 4.9). A 3%
    // relative band flags any structural timing regression.
    const double hm1to12 = harmonicMean(r.warm, 0, 12);
    const double hm13to24 = harmonicMean(r.warm, 12, 24);
    const double hm1to24 = harmonicMean(r.warm, 0, 24);
    EXPECT_NEAR(hm1to12, 7.8, 0.03 * 7.8);
    EXPECT_NEAR(hm13to24, 2.7, 0.03 * 2.7);
    EXPECT_NEAR(hm1to24, 4.1, 0.03 * 4.1);
    // The paper's qualitative shape: the vectorizable first half
    // sustains well above the scalar-bound second half.
    EXPECT_GT(hm1to12, 2.0 * hm13to24);
}

TEST(Figure14, WarmBeatsColdOnEveryLoop)
{
    const LivermoreRates &r = livermoreRates();
    for (int id = 1; id <= kernels::livermore::kNumLoops; ++id) {
        EXPECT_GE(r.warm[id - 1], r.cold[id - 1]) << "loop " << id;
        EXPECT_GT(r.cold[id - 1], 0.0) << "loop " << id;
    }
}

TEST(Figure14, VectorizationRoughlyDoublesVectorizableLoops)
{
    // §4: "vectorization roughly doubles sustained performance" on
    // the loops it applies to. Pinned at 1.92x with a 5% band.
    const LivermoreRates &r = livermoreRates();
    std::vector<double> vec, sca;
    for (int id = 1; id <= kernels::livermore::kNumLoops; ++id) {
        if (kernels::livermore::hasVectorVariant(id)) {
            vec.push_back(r.warm[id - 1]);
            sca.push_back(r.warmScalar[id - 1]);
        }
    }
    ASSERT_FALSE(vec.empty());
    const double speedup = harmonicMean(vec, 0, vec.size()) /
                           harmonicMean(sca, 0, sca.size());
    EXPECT_NEAR(speedup, 1.92, 0.05 * 1.92);
}

TEST(Figure11, AnalyticCurveMatchesClosedForm)
{
    // speedup(f, R) = 1 / ((1-f) + f/R); the paper's §2.4 argument in
    // numbers: at 40% vectorized, R=2 yields 1.25x of the 1.667x
    // available at R=inf, and R=10 adds only 25% over R=2.
    EXPECT_NEAR(baseline::overallSpeedup(0.4, 2.0), 1.25, 1e-12);
    EXPECT_NEAR(baseline::overallSpeedup(0.4, 1e9), 1.0 / 0.6, 1e-6);
    EXPECT_NEAR(baseline::overallSpeedup(0.4, 10.0), 1.5625, 1e-12);
    // Round-trip through the inverse.
    EXPECT_NEAR(baseline::impliedVectorFraction(1.25, 2.0), 0.4, 1e-9);
}

TEST(Figure11, MeasuredLivermorePointSitsInThePaperBand)
{
    // The paper plots the Livermore ranges between the 20% and 60%
    // vectorized curves at the MultiTitan's R ~ 2. Check the overall
    // 1-24 point lands in that band, pinned at 1.21x over scalar.
    const LivermoreRates &r = livermoreRates();
    const double speedup = harmonicMean(r.warm, 0, 24) /
                           harmonicMean(r.warmScalar, 0, 24);
    EXPECT_NEAR(speedup, 1.21, 0.05 * 1.21);
    const double f = baseline::impliedVectorFraction(speedup, 2.0);
    EXPECT_GT(f, 0.2);
    EXPECT_LT(f, 0.6);
}

} // anonymous namespace
} // namespace mtfpu::machine
