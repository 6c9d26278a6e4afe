/**
 * @file
 * Unit tests of the FPU subcomponents: register file, scoreboard,
 * functional-unit pipelines, the ALU instruction register's vector
 * element sequencing, and overflow/PSW semantics.
 */

#include <gtest/gtest.h>

#include <span>

#include "common/log.hh"
#include "fpu/fpu.hh"
#include "isa/cpu_instr.hh"
#include "softfp/fp64.hh"

namespace mtfpu::fpu
{
namespace
{

using isa::FpOp;
using isa::FpuAluInstr;

isa::FpuAluInstr
makeInstr(FpOp op, unsigned rr, unsigned ra, unsigned rb, unsigned vl,
          bool sra, bool srb)
{
    return isa::Instr::fpAlu(op, rr, ra, rb, vl, sra, srb).fp;
}

TEST(RegisterFile, ReadWriteAndBounds)
{
    RegisterFile rf;
    rf.writeDouble(0, 1.5);
    rf.writeDouble(51, -2.0);
    EXPECT_DOUBLE_EQ(rf.readDouble(0), 1.5);
    EXPECT_DOUBLE_EQ(rf.readDouble(51), -2.0);
    EXPECT_THROW(rf.read(52), FatalError);
    EXPECT_THROW(rf.write(52, 0), FatalError);
    rf.clear();
    EXPECT_EQ(rf.read(0), 0u);
}

TEST(Scoreboard, ReserveReleaseProbe)
{
    Scoreboard sb;
    EXPECT_FALSE(sb.reserved(7));
    sb.reserve(7, 2); // written back two active cycles from now
    EXPECT_TRUE(sb.reserved(7));
    EXPECT_EQ(sb.readyAt(7), sb.now() + 2);
    EXPECT_EQ(sb.reservedWord(), uint64_t{1} << 7);
    sb.beginCycle();
    EXPECT_TRUE(sb.reserved(7));
    sb.beginCycle(); // the writeback cycle: the reservation lapses
    EXPECT_FALSE(sb.reserved(7));
    EXPECT_EQ(sb.reservedWord(), 0u);
    EXPECT_THROW(sb.reserved(52), FatalError);
}

/** One active cycle of a bare pipeline, as Fpu::beginCycle runs it. */
std::span<const PendingOp>
activeCycle(Scoreboard &sb, FunctionalUnits &fu, RegisterFile &rf)
{
    sb.beginCycle();
    return fu.advance(rf);
}

TEST(FunctionalUnits, ThreeCycleLatency)
{
    RegisterFile rf;
    Scoreboard sb;
    FunctionalUnits fu(3);
    sb.reserve(5, fu.latency());
    softfp::Flags flags;
    fu.issue(FpOp::Add, 5, softfp::fromDouble(9.0), flags, 1);

    EXPECT_TRUE(fu.busy());
    EXPECT_TRUE(activeCycle(sb, fu, rf).empty()); // cycle +1
    EXPECT_TRUE(activeCycle(sb, fu, rf).empty()); // cycle +2
    EXPECT_TRUE(sb.reserved(5));
    const auto retired = activeCycle(sb, fu, rf); // cycle +3
    ASSERT_EQ(retired.size(), 1u);
    EXPECT_EQ(retired[0].reg, 5);
    EXPECT_FALSE(sb.reserved(5));
    EXPECT_DOUBLE_EQ(rf.readDouble(5), 9.0);
    EXPECT_FALSE(fu.busy());
}

TEST(FunctionalUnits, FullyPipelined)
{
    RegisterFile rf;
    Scoreboard sb;
    FunctionalUnits fu(3);
    softfp::Flags flags;
    // One issue per cycle into the same pipeline: issues at cycles
    // 0, 1, 2; retirements at cycles 3, 4, 5 — one per cycle.
    sb.reserve(0, fu.latency());
    fu.issue(FpOp::Mul, 0, softfp::fromDouble(0), flags, 1);
    activeCycle(sb, fu, rf); // cycle 1
    sb.reserve(1, fu.latency());
    fu.issue(FpOp::Mul, 1, softfp::fromDouble(1), flags, 1);
    activeCycle(sb, fu, rf); // cycle 2
    sb.reserve(2, fu.latency());
    fu.issue(FpOp::Mul, 2, softfp::fromDouble(2), flags, 1);

    EXPECT_EQ(activeCycle(sb, fu, rf).size(), 1u); // cycle 3: op 0 retires
    EXPECT_FALSE(sb.reserved(0));
    EXPECT_TRUE(sb.reserved(1));
    EXPECT_TRUE(sb.reserved(2));
    EXPECT_EQ(activeCycle(sb, fu, rf).size(), 1u); // cycle 4: op 1
    EXPECT_TRUE(sb.reserved(2));
    EXPECT_EQ(activeCycle(sb, fu, rf).size(), 1u); // cycle 5: op 2
    EXPECT_FALSE(fu.busy());
}

TEST(FunctionalUnits, RejectsZeroLatency)
{
    EXPECT_THROW(FunctionalUnits(0), FatalError);
}

TEST(AluIr, ScalarIsVectorOfLengthOne)
{
    AluInstructionRegister ir;
    Scoreboard sb;
    ir.transfer(makeInstr(FpOp::Add, 8, 0, 1, 1, false, false), 1);
    EXPECT_TRUE(ir.busy());
    ElementIssue e;
    EXPECT_EQ(ir.tryIssue(sb, e), IssueStall::None);
    EXPECT_EQ(e.rr, 8);
    EXPECT_TRUE(e.last);
    EXPECT_FALSE(ir.busy()); // cleared after the single element
}

TEST(AluIr, SpecifierIncrementRules)
{
    // Rr always increments; Ra/Rb iff their stride bits are set.
    AluInstructionRegister ir;
    Scoreboard sb;
    ir.transfer(makeInstr(FpOp::Mul, 16, 32, 0, 4, false, true), 1);
    ElementIssue e;
    const uint8_t want_rr[] = {16, 17, 18, 19};
    const uint8_t want_rb[] = {0, 1, 2, 3};
    for (int i = 0; i < 4; ++i) {
        ASSERT_EQ(ir.tryIssue(sb, e), IssueStall::None);
        EXPECT_EQ(e.rr, want_rr[i]);
        EXPECT_EQ(e.ra, 32); // scalar source stays put
        EXPECT_EQ(e.rb, want_rb[i]);
        EXPECT_EQ(e.last, i == 3);
    }
    EXPECT_FALSE(ir.busy());
}

TEST(AluIr, VectorScalarScalarForm)
{
    // SRa = SRb = 0: "vector := scalar op scalar" (paper §2.1.1).
    AluInstructionRegister ir;
    Scoreboard sb;
    ir.transfer(makeInstr(FpOp::Add, 4, 0, 1, 3, false, false), 1);
    ElementIssue e;
    for (int i = 0; i < 3; ++i) {
        ASSERT_EQ(ir.tryIssue(sb, e), IssueStall::None);
        EXPECT_EQ(e.rr, 4 + i);
        EXPECT_EQ(e.ra, 0);
        EXPECT_EQ(e.rb, 1);
    }
}

TEST(AluIr, SourceReservationStallsElement)
{
    AluInstructionRegister ir;
    Scoreboard sb;
    sb.reserve(1, 2);
    ir.transfer(makeInstr(FpOp::Add, 8, 0, 1, 1, false, false), 1);
    ElementIssue e;
    EXPECT_EQ(ir.tryIssue(sb, e), IssueStall::SourceBusy);
    EXPECT_TRUE(ir.busy()); // still occupied
    sb.beginCycle();
    EXPECT_EQ(ir.tryIssue(sb, e), IssueStall::SourceBusy);
    sb.beginCycle(); // f1's writeback cycle
    EXPECT_EQ(ir.tryIssue(sb, e), IssueStall::None);
}

TEST(AluIr, DestReservationStallsElement)
{
    AluInstructionRegister ir;
    Scoreboard sb;
    sb.reserve(8, 3);
    ir.transfer(makeInstr(FpOp::Add, 8, 0, 1, 1, false, false), 1);
    ElementIssue e;
    EXPECT_EQ(ir.tryIssue(sb, e), IssueStall::DestBusy);
}

TEST(AluIr, UnaryOpsIgnoreRbReservation)
{
    AluInstructionRegister ir;
    Scoreboard sb;
    sb.reserve(0, 3); // rb field = 0 is reserved, but frecip reads only ra
    ir.transfer(makeInstr(FpOp::Recip, 8, 2, 0, 1, false, false), 1);
    ElementIssue e;
    EXPECT_EQ(ir.tryIssue(sb, e), IssueStall::None);
}

TEST(AluIr, CurrentAndBeyondHazardRanges)
{
    AluInstructionRegister ir;
    Scoreboard sb;
    ir.transfer(makeInstr(FpOp::Add, 16, 32, 0, 4, false, true), 1);
    ElementIssue e;
    ASSERT_EQ(ir.tryIssue(sb, e), IssueStall::None); // element 0 issued
    EXPECT_EQ(ir.remainingElements(), 3u);

    // Current element: f17 := f32 + f1 (hardware interlock range).
    EXPECT_TRUE(ir.currentTouches(17, false));
    EXPECT_FALSE(ir.currentTouches(18, false));
    EXPECT_TRUE(ir.currentTouches(32, true)); // scalar source
    EXPECT_TRUE(ir.currentTouches(1, true));
    EXPECT_FALSE(ir.currentTouches(1, false)); // sources excluded

    // Beyond the current element: f18..f19 results, f2..f3 sources
    // (compiler-responsibility range).
    EXPECT_TRUE(ir.touchesBeyondCurrent(18, false));
    EXPECT_TRUE(ir.touchesBeyondCurrent(19, false));
    EXPECT_FALSE(ir.touchesBeyondCurrent(17, false)); // current, not beyond
    EXPECT_FALSE(ir.touchesBeyondCurrent(20, false));
    EXPECT_FALSE(ir.touchesBeyondCurrent(32, true)); // scalar src static
    EXPECT_TRUE(ir.touchesBeyondCurrent(2, true));
    EXPECT_TRUE(ir.touchesBeyondCurrent(3, true));
    EXPECT_FALSE(ir.touchesBeyondCurrent(3, false));
}

TEST(AluIr, SquashDiscardsRemaining)
{
    AluInstructionRegister ir;
    Scoreboard sb;
    ir.transfer(makeInstr(FpOp::Add, 8, 0, 0, 8, false, false), 1);
    ElementIssue e;
    ir.tryIssue(sb, e);
    EXPECT_EQ(ir.remainingElements(), 7u);
    ir.squash();
    EXPECT_FALSE(ir.busy());
    EXPECT_EQ(ir.tryIssue(sb, e), IssueStall::Empty);
}

// ---------------------------------------------------------------------
// Fpu facade behavior
// ---------------------------------------------------------------------

TEST(Fpu, ScalarOperationEndToEnd)
{
    Fpu fpu;
    fpu.regs().writeDouble(0, 2.0);
    fpu.regs().writeDouble(1, 3.0);
    fpu.transferAlu(makeInstr(FpOp::Add, 8, 0, 1, 1, false, false));

    fpu.beginCycle(); // cycle 0
    EXPECT_TRUE(fpu.tryIssueElement().issued);
    fpu.beginCycle(); // 1
    fpu.beginCycle(); // 2
    EXPECT_TRUE(fpu.transferStall(8));
    fpu.beginCycle(); // 3: writeback
    EXPECT_FALSE(fpu.transferStall(8));
    EXPECT_DOUBLE_EQ(fpu.regs().readDouble(8), 5.0);
}

TEST(Fpu, OnlyOneElementPerCycle)
{
    Fpu fpu;
    fpu.beginCycle();
    fpu.transferAlu(makeInstr(FpOp::Add, 8, 0, 1, 2, false, false));
    EXPECT_TRUE(fpu.tryIssueElement().issued);
    EXPECT_FALSE(fpu.tryIssueElement().issued); // same cycle: no
    fpu.beginCycle();
    EXPECT_TRUE(fpu.tryIssueElement().issued);
}

TEST(Fpu, SourceThenDestWaitCountsEachCycleOnce)
{
    // With a 6-cycle latency: f1 := f0 + f0 issues at active cycle 1
    // (ready at 7); f8..f10 := f0 + f0 issues at 2, 3, 4 (f10 ready
    // at 10). f10 := f1 + f2 transfers at 5, waits on its source f1
    // through cycles 5 and 6, then on its destination f10 through 7,
    // 8 and 9, and issues at 10.
    Fpu fpu(6);
    const auto cycle = [&](const isa::FpuAluInstr *transfer) {
        fpu.beginCycle();
        if (transfer) {
            EXPECT_TRUE(fpu.canTransferAlu());
            fpu.transferAlu(*transfer);
        }
        return fpu.tryIssueElement().issued;
    };
    const FpuAluInstr a = makeInstr(FpOp::Add, 1, 0, 0, 1, false, false);
    const FpuAluInstr b = makeInstr(FpOp::Add, 8, 0, 0, 3, false, false);
    const FpuAluInstr c = makeInstr(FpOp::Add, 10, 1, 2, 1, false, false);
    EXPECT_TRUE(cycle(&a)); // 1
    EXPECT_TRUE(cycle(&b)); // 2
    EXPECT_TRUE(cycle(nullptr));
    EXPECT_TRUE(cycle(nullptr)); // 4: f10 reserved until 10
    EXPECT_FALSE(cycle(&c));     // 5
    for (int t = 6; t <= 9; ++t)
        EXPECT_FALSE(cycle(nullptr)) << "cycle " << t;
    EXPECT_TRUE(cycle(nullptr)); // 10
    EXPECT_EQ(fpu.stats().sourceStallCycles, 2u);
    EXPECT_EQ(fpu.stats().destStallCycles, 3u);
}

TEST(Fpu, TransferBlockedWhileIrBusyOrElementIssued)
{
    Fpu fpu;
    fpu.beginCycle();
    EXPECT_TRUE(fpu.canTransferAlu());
    fpu.transferAlu(makeInstr(FpOp::Add, 8, 0, 1, 4, false, false));
    fpu.tryIssueElement();
    EXPECT_FALSE(fpu.canTransferAlu()); // IR busy

    // Drain the remaining elements.
    for (int i = 0; i < 3; ++i) {
        fpu.beginCycle();
        EXPECT_TRUE(fpu.tryIssueElement().issued);
    }
    // The IR emptied this cycle but an element issued: still blocked.
    EXPECT_FALSE(fpu.canTransferAlu());
    fpu.beginCycle();
    EXPECT_TRUE(fpu.canTransferAlu());
}

TEST(Fpu, LoadDataVisibleNextCycle)
{
    Fpu fpu;
    fpu.beginCycle();
    fpu.issueLoad(3, softfp::fromDouble(7.5));
    EXPECT_EQ(fpu.regs().read(3), 0u); // not yet
    fpu.beginCycle();
    EXPECT_DOUBLE_EQ(fpu.regs().readDouble(3), 7.5);
}

TEST(Fpu, LoadAgainstReservedRegisterPanics)
{
    Fpu fpu;
    fpu.beginCycle();
    fpu.transferAlu(makeInstr(FpOp::Add, 8, 0, 1, 1, false, false));
    fpu.tryIssueElement();
    // The Machine must check transferStall first; issuing anyway is a
    // model bug.
    EXPECT_TRUE(fpu.transferStall(8));
    EXPECT_THROW(fpu.issueLoad(8, 0), InvariantError);
}

TEST(Fpu, OverflowSquashesRemainingElementsAtRetire)
{
    Fpu fpu;
    // f0 holds a huge value; f1 = max double; f0+f1 overflows.
    fpu.regs().writeDouble(0, 1.7e308);
    fpu.regs().writeDouble(1, 1.7e308);
    // Vector: f8..f15 := f0 + f1 (8 elements, all overflow).
    fpu.beginCycle();
    fpu.transferAlu(makeInstr(FpOp::Add, 8, 0, 1, 8, false, false));
    fpu.tryIssueElement(); // element 0 at cycle 0
    for (int c = 1; c <= 2; ++c) {
        fpu.beginCycle();
        fpu.tryIssueElement(); // elements 1, 2 enter the pipe
    }
    fpu.beginCycle(); // cycle 3: element 0 retires, overflow detected
    EXPECT_FALSE(fpu.aluIrBusy()); // remaining elements discarded
    EXPECT_TRUE(fpu.psw().overflowValid);
    EXPECT_EQ(fpu.psw().overflowReg, 8);
    // Elements already in the pipeline (1, 2) complete normally.
    fpu.beginCycle();
    fpu.beginCycle();
    EXPECT_TRUE(softfp::isInf(fpu.regs().read(9)));
    EXPECT_TRUE(softfp::isInf(fpu.regs().read(10)));
    EXPECT_EQ(fpu.regs().read(11), 0u); // squashed, never written
    EXPECT_EQ(fpu.stats().squashedElements, 5u);
}

TEST(Fpu, PswAccumulatesFlags)
{
    Fpu fpu;
    fpu.regs().writeDouble(0, 1.0);
    fpu.regs().writeDouble(1, 3.0);
    fpu.beginCycle();
    fpu.transferAlu(makeInstr(FpOp::Recip, 8, 1, 0, 1, false, false));
    fpu.tryIssueElement();
    for (int c = 0; c < 3; ++c)
        fpu.beginCycle();
    EXPECT_TRUE(fpu.psw().flags.inexact);
    EXPECT_FALSE(fpu.psw().flags.overflow);
}

TEST(Fpu, StatsCountOpsAndKinds)
{
    Fpu fpu;
    fpu.beginCycle();
    fpu.transferAlu(makeInstr(FpOp::Mul, 8, 0, 1, 4, false, false));
    fpu.tryIssueElement();
    for (int c = 0; c < 8; ++c) {
        fpu.beginCycle();
        fpu.tryIssueElement();
    }
    fpu.transferAlu(makeInstr(FpOp::Add, 20, 0, 1, 1, false, false));
    fpu.tryIssueElement();
    for (int c = 0; c < 4; ++c)
        fpu.beginCycle();

    EXPECT_EQ(fpu.stats().vectorInstructions, 1u);
    EXPECT_EQ(fpu.stats().scalarInstructions, 1u);
    EXPECT_EQ(fpu.stats().elementsIssued, 5u);
    EXPECT_EQ(
        fpu.stats().opCounts[static_cast<unsigned>(FpOp::Mul)], 4u);
    EXPECT_EQ(
        fpu.stats().opCounts[static_cast<unsigned>(FpOp::Add)], 1u);
}

TEST(Fpu, RecurrenceInterlocksElementByElement)
{
    // Fibonacci: f2 := f1 + f0, length 4, both strides set; each
    // element depends on the previous one, so issues are 3 cycles
    // apart (validated at machine level in test_figures).
    Fpu fpu;
    fpu.regs().writeDouble(0, 1.0);
    fpu.regs().writeDouble(1, 1.0);
    fpu.beginCycle();
    fpu.transferAlu(makeInstr(FpOp::Add, 2, 1, 0, 4, true, true));
    unsigned issued = 0;
    for (int c = 0; c < 16; ++c) {
        if (fpu.tryIssueElement().issued)
            ++issued;
        fpu.beginCycle();
    }
    EXPECT_EQ(issued, 4u);
    EXPECT_DOUBLE_EQ(fpu.regs().readDouble(2), 2.0);
    EXPECT_DOUBLE_EQ(fpu.regs().readDouble(3), 3.0);
    EXPECT_DOUBLE_EQ(fpu.regs().readDouble(4), 5.0);
    EXPECT_DOUBLE_EQ(fpu.regs().readDouble(5), 8.0);
}

TEST(Fpu, ResetClearsEverything)
{
    Fpu fpu;
    fpu.regs().writeDouble(0, 1.0);
    fpu.beginCycle();
    fpu.transferAlu(makeInstr(FpOp::Add, 8, 0, 0, 8, false, false));
    fpu.tryIssueElement();
    fpu.reset();
    EXPECT_FALSE(fpu.aluIrBusy());
    EXPECT_FALSE(fpu.busy());
    EXPECT_EQ(fpu.regs().read(0), 0u);
    EXPECT_EQ(fpu.stats().elementsIssued, 0u);
}

} // anonymous namespace
} // namespace mtfpu::fpu
