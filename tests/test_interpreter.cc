/**
 * @file
 * Dedicated tests for the untimed reference interpreter (the
 * semantics oracle), a dictionary-model property test of the
 * direct-mapped cache, and assembler robustness sweeps.
 */

#include <bit>
#include <map>
#include <random>

#include <gtest/gtest.h>

#include "assembler/assembler.hh"
#include "common/log.hh"
#include "machine/interpreter.hh"
#include "softfp/fp64.hh"
#include "memory/direct_mapped_cache.hh"

namespace mtfpu
{
namespace
{

using machine::Interpreter;

// ---------------------------------------------------------------------
// Interpreter semantics
// ---------------------------------------------------------------------

TEST(InterpreterSemantics, DelaySlotAlwaysExecutes)
{
    Interpreter it;
    it.loadProgram(assembler::assemble(R"(
                beq  r0, r0, target
                addi r2, r0, 99
                addi r2, r0, 1
        target: halt
    )"));
    it.run();
    EXPECT_EQ(it.intReg(2), 99u);
}

TEST(InterpreterSemantics, JalLinksPastDelaySlot)
{
    Interpreter it;
    it.loadProgram(assembler::assemble(R"(
                jal  r31, sub
                addi r2, r0, 5      ; delay slot
                addi r3, r0, 7      ; return lands here
                halt
        sub:    jr   r31
                addi r4, r0, 9      ; callee delay slot
    )"));
    it.run();
    EXPECT_EQ(it.intReg(2), 5u);
    EXPECT_EQ(it.intReg(3), 7u);
    EXPECT_EQ(it.intReg(4), 9u);
}

TEST(InterpreterSemantics, VectorExpansionInOrder)
{
    Interpreter it;
    // Registers are internal to the interpreter; seed the recurrence
    // through memory with a small load prologue.
    it.loadProgram(assembler::assemble(R"(
        ldf f0, 0(r0)
        ldf f1, 8(r0)
        fadd f2, f1, f0, vl=4, sra, srb
        halt
    )"));
    it.mem().writeDouble(0, 1.0);
    it.mem().writeDouble(8, 1.0);
    it.run();
    EXPECT_DOUBLE_EQ(std::bit_cast<double>(it.fpReg(2)), 2.0);
    EXPECT_DOUBLE_EQ(std::bit_cast<double>(it.fpReg(5)), 8.0);
    EXPECT_EQ(it.fpElements(), 4u);
}

TEST(InterpreterSemantics, MemoryAndMvfc)
{
    Interpreter it;
    it.loadProgram(assembler::assemble(R"(
        li   r1, 4096
        ldf  f0, 0(r1)
        fadd f1, f0, f0
        mvfc r2, f1
        stf  f1, 8(r1)
        st   r2, 16(r1)
        halt
    )"));
    it.mem().writeDouble(4096, 2.5);
    it.run();
    EXPECT_DOUBLE_EQ(it.mem().readDouble(4096 + 8), 5.0);
    EXPECT_EQ(it.mem().read64(4096 + 16), softfp::fromDouble(5.0));
}

TEST(InterpreterSemantics, MaxStepsGuard)
{
    Interpreter it;
    it.loadProgram(assembler::assemble("spin: j spin\nnop\n"));
    EXPECT_THROW(it.run(1000), FatalError);
}

TEST(InterpreterSemantics, MulKeepsTheLowProductBits)
{
    // The product wraps modulo 2^64, signed overflow included.
    Interpreter interp;
    interp.loadProgram(assembler::assemble(R"(
            mul  r3, r1, r2
            mul  r6, r4, r5
            halt
    )"));
    interp.setIntReg(1, (1ULL << 33) + 1);
    interp.setIntReg(2, 1ULL << 33);
    interp.setIntReg(4, 1ULL << 63); // INT64_MIN
    interp.setIntReg(5, ~0ULL);      // -1
    interp.run();
    EXPECT_EQ(interp.intReg(3), 1ULL << 33);
    EXPECT_EQ(interp.intReg(6), 1ULL << 63);
}

TEST(InterpreterSemantics, R0StaysZero)
{
    Interpreter it;
    it.loadProgram(assembler::assemble(R"(
        addi r0, r0, 55
        addi r1, r0, 1
        halt
    )"));
    it.run();
    EXPECT_EQ(it.intReg(0), 0u);
    EXPECT_EQ(it.intReg(1), 1u);
}

// ---------------------------------------------------------------------
// Cache vs a dictionary reference model
// ---------------------------------------------------------------------

TEST(CacheProperty, MatchesDictionaryModel)
{
    // Reference model: map from line index to tag.
    std::mt19937_64 rng(0x51ca);
    for (const auto &[size, line] :
         {std::pair<uint64_t, uint64_t>{1024, 16},
          {4096, 32},
          {64 * 1024, 16}}) {
        memory::CacheConfig cfg{size, line, 10, true};
        memory::DirectMappedCache cache(cfg);
        const uint64_t nlines = size / line;
        std::map<uint64_t, uint64_t> model; // index -> tag

        for (int i = 0; i < 20000; ++i) {
            const uint64_t addr = (rng() % (1 << 22)) & ~7ull;
            const bool is_write = rng() & 1;
            const uint64_t index = (addr / line) % nlines;
            const uint64_t tag = addr / line / nlines;

            auto it = model.find(index);
            const bool want_hit = it != model.end() && it->second == tag;
            const unsigned penalty = cache.access(addr, is_write);
            ASSERT_EQ(penalty == 0, want_hit)
                << "addr " << addr << " size " << size;
            if (!want_hit)
                model[index] = tag; // write-allocate
        }
    }
}

TEST(CacheProperty, ProbeNeverMutates)
{
    memory::DirectMappedCache cache({1024, 16, 5, true});
    cache.access(0x100, false);
    const auto before = cache.stats().accesses();
    EXPECT_TRUE(cache.probe(0x100));
    EXPECT_FALSE(cache.probe(0x500));
    EXPECT_FALSE(cache.probe(0x500)); // still cold: probe didn't fill
    EXPECT_EQ(cache.stats().accesses(), before);
}

// ---------------------------------------------------------------------
// Assembler robustness sweeps
// ---------------------------------------------------------------------

TEST(AssemblerRobust, RejectsGarbageWithoutCrashing)
{
    const char *bad[] = {
        "fadd",
        "fadd f1",
        "fadd f1, f2, f3, vl=",
        "fadd f1, f2, f3, bogus",
        "ld r1, (r2)",
        "ld r1, 8(f2)",
        "beq r1, r2",
        "lui r1",
        "mvfc f1, r2",
        "ldf f5, 99999999999(r1)",
        "addi r1, r0, 999999",
        "j",
        ": nop",
        "fadd f50, f0, f0, vl=16",
        "42",
    };
    for (const char *src : bad)
        EXPECT_THROW(assembler::assemble(src), FatalError) << src;
}

TEST(AssemblerRobust, EncodeDecodeStableOverRandomPrograms)
{
    // Round-trip every instruction of a randomized (valid) program
    // through raw words.
    std::mt19937_64 rng(0x600d);
    std::string src;
    for (int i = 0; i < 500; ++i) {
        switch (rng() % 6) {
          case 0:
            src += "addi r" + std::to_string(1 + rng() % 30) + ", r" +
                   std::to_string(rng() % 31) + ", " +
                   std::to_string(static_cast<int>(rng() % 1000) - 500) +
                   "\n";
            break;
          case 1:
            src += "ldf f" + std::to_string(rng() % 52) + ", " +
                   std::to_string((rng() % 100) * 8) + "(r1)\n";
            break;
          case 2: {
            const unsigned vl = 1 + rng() % 8;
            src += "fmul f" + std::to_string(rng() % (52 - vl)) +
                   ", f0, f8, vl=" + std::to_string(vl) + ", srb\n";
            break;
          }
          case 3:
            src += "slli r5, r6, " + std::to_string(rng() % 64) + "\n";
            break;
          case 4:
            src += "stf f" + std::to_string(rng() % 52) + ", " +
                   std::to_string((rng() % 100) * 8) + "(r2)\n";
            break;
          case 5:
            src += "nop\n";
            break;
        }
    }
    src += "halt\n";
    const assembler::Program p = assembler::assemble(src);
    for (const isa::Instr &in : p.code)
        ASSERT_EQ(isa::Instr::decode(in.encode()), in);
}

} // anonymous namespace
} // namespace mtfpu
