/**
 * @file
 * Tests of the instruction encodings: the Figure-3 FPU ALU word and
 * the CPU instruction formats, including an exhaustive-ish round-trip
 * property sweep.
 */

#include <random>

#include <gtest/gtest.h>

#include "common/log.hh"
#include "isa/cpu_instr.hh"
#include "isa/disasm.hh"
#include "isa/fpu_instr.hh"

namespace mtfpu::isa
{
namespace
{

TEST(FpuInstr, Figure3FieldLayout)
{
    // |op4|Rr6|Ra6|Rb6|unit2|func2|VL4|SRa|SRb| with op = 6.
    FpuAluInstr i;
    i.op = FpOp::Add; // unit 1, func 0
    i.rr = 0x2A;      // 101010
    i.ra = 0x15;      // 010101
    i.rb = 0x33;      // 110011
    i.vlm1 = 0x9;
    i.sra = true;
    i.srb = false;
    const uint32_t w = i.encode();
    EXPECT_EQ(w >> 28, 6u);             // major opcode
    EXPECT_EQ((w >> 22) & 0x3F, 0x2Au); // Rr
    EXPECT_EQ((w >> 16) & 0x3F, 0x15u); // Ra
    EXPECT_EQ((w >> 10) & 0x3F, 0x33u); // Rb
    EXPECT_EQ((w >> 8) & 0x3, 1u);      // unit
    EXPECT_EQ((w >> 6) & 0x3, 0u);      // func
    EXPECT_EQ((w >> 2) & 0xF, 0x9u);    // VL-1
    EXPECT_EQ((w >> 1) & 1, 1u);        // SRa
    EXPECT_EQ(w & 1, 0u);               // SRb
}

TEST(FpuInstr, RoundTripAllOps)
{
    for (unsigned op = 0; op < 8; ++op) {
        FpuAluInstr i;
        i.op = static_cast<FpOp>(op);
        // f36 + vl 16 ends exactly at the 52-entry file boundary —
        // the largest legal striding vector (decode rejects overruns).
        i.rr = 36;
        i.ra = 1;
        i.rb = 2;
        i.vlm1 = 15;
        i.sra = true;
        i.srb = true;
        EXPECT_EQ(FpuAluInstr::decode(i.encode()), i);
    }
}

TEST(FpuInstr, DecodeRejectsRegisterFileOverrun)
{
    // A hand-built word whose striding result vector runs past f51:
    // no builder can produce it, and decode must refuse it rather
    // than hand the register file an out-of-range index mid-run.
    FpuAluInstr i;
    i.op = FpOp::Add;
    i.rr = 51;
    i.vlm1 = 15;
    i.sra = i.srb = true;
    try {
        FpuAluInstr::decode(i.encode());
        FAIL() << "decode accepted an overrunning vector";
    } catch (const SimError &err) {
        EXPECT_EQ(err.code(), ErrCode::BadProgram);
    }
}

TEST(FpuInstr, UnitFuncTableMatchesFigure4)
{
    EXPECT_EQ(fpOpUnit(FpOp::Add), 1u);
    EXPECT_EQ(fpOpFunc(FpOp::Add), 0u);
    EXPECT_EQ(fpOpUnit(FpOp::Sub), 1u);
    EXPECT_EQ(fpOpFunc(FpOp::Sub), 1u);
    EXPECT_EQ(fpOpUnit(FpOp::Float), 1u);
    EXPECT_EQ(fpOpFunc(FpOp::Float), 2u);
    EXPECT_EQ(fpOpUnit(FpOp::Truncate), 1u);
    EXPECT_EQ(fpOpFunc(FpOp::Truncate), 3u);
    EXPECT_EQ(fpOpUnit(FpOp::Mul), 2u);
    EXPECT_EQ(fpOpFunc(FpOp::Mul), 0u);
    EXPECT_EQ(fpOpUnit(FpOp::IntMul), 2u);
    EXPECT_EQ(fpOpFunc(FpOp::IntMul), 1u);
    EXPECT_EQ(fpOpUnit(FpOp::IterStep), 2u);
    EXPECT_EQ(fpOpFunc(FpOp::IterStep), 2u);
    EXPECT_EQ(fpOpUnit(FpOp::Recip), 3u);
    EXPECT_EQ(fpOpFunc(FpOp::Recip), 0u);
}

TEST(FpuInstr, ReservedEncodings)
{
    EXPECT_TRUE(fpOpReserved(0, 0));
    EXPECT_TRUE(fpOpReserved(0, 3));
    EXPECT_TRUE(fpOpReserved(2, 3));
    EXPECT_TRUE(fpOpReserved(3, 1));
    EXPECT_TRUE(fpOpReserved(3, 3));
    EXPECT_FALSE(fpOpReserved(1, 0));
    EXPECT_FALSE(fpOpReserved(3, 0));
}

TEST(FpuInstr, VectorLengthRange)
{
    // VL-1 encodes 1..16; the builder enforces register-file bounds.
    EXPECT_THROW(Instr::fpAlu(FpOp::Add, 0, 0, 0, 0), FatalError);
    EXPECT_THROW(Instr::fpAlu(FpOp::Add, 0, 0, 0, 17), FatalError);
    EXPECT_NO_THROW(Instr::fpAlu(FpOp::Add, 36, 0, 0, 16));
    // 48 + 16 > 52: the result vector would run past f51.
    EXPECT_THROW(Instr::fpAlu(FpOp::Add, 48, 0, 0, 16), FatalError);
    // Source vector bound with the stride bit set.
    EXPECT_THROW(Instr::fpAlu(FpOp::Add, 0, 48, 0, 8, true, false),
                 FatalError);
    EXPECT_NO_THROW(Instr::fpAlu(FpOp::Add, 0, 48, 0, 8, false, false));
}

TEST(FpuInstr, ReservedWordsRaiseStructuredBadEncoding)
{
    // Every reserved unit/func pair, embedded in an otherwise valid
    // Figure-3 word, must raise SimError(BadEncoding) carrying the
    // faulting word — the fuzzer triages crash bundles by that
    // context, so an unstructured throw here breaks the pipeline.
    const uint32_t base =
        Instr::fpAlu(FpOp::Add, 0, 1, 2, 1).encode() & ~(0xFu << 6);
    const struct { unsigned unit, func; } reserved[] = {
        {0, 0}, {0, 1}, {0, 2}, {0, 3}, {2, 3}, {3, 1}, {3, 2}, {3, 3},
    };
    for (const auto &r : reserved) {
        const uint32_t word = base | (r.unit << 8) | (r.func << 6);
        SCOPED_TRACE("unit=" + std::to_string(r.unit) +
                     " func=" + std::to_string(r.func));
        try {
            Instr::decode(word);
            FAIL() << "decode accepted a reserved encoding";
        } catch (const SimError &err) {
            EXPECT_EQ(err.code(), ErrCode::BadEncoding);
            EXPECT_EQ(err.context().instr,
                      static_cast<int64_t>(word));
        }
    }
}

TEST(FpuInstr, OverrunningWordRaisesStructuredBadProgram)
{
    // A striding source vector running past f51 is malformed input,
    // not an internal fault: SimError(BadProgram), word attached.
    const uint32_t good =
        Instr::fpAlu(FpOp::Add, 0, 45, 2, 8, false, false).encode();
    try {
        Instr::decode(good | 0x2); // set SRa: f45+8 overruns f51
        FAIL() << "decode accepted an overrunning vector";
    } catch (const SimError &err) {
        EXPECT_EQ(err.code(), ErrCode::BadProgram);
        EXPECT_EQ(err.context().instr,
                  static_cast<int64_t>(good | 0x2));
    }
}

TEST(CpuInstr, RoundTripDirected)
{
    const Instr cases[] = {
        Instr::alu(AluFunc::Add, 1, 2, 3),
        Instr::alu(AluFunc::Mul, 31, 30, 29),
        Instr::aluImm(AluFunc::Sll, 5, 6, 13),
        Instr::aluImm(AluFunc::Add, 1, 0, -8192),
        Instr::ld(7, 8, -100),
        Instr::st(9, 10, 131071),
        Instr::ldf(51, 3, -65536),
        Instr::stf(0, 31, 65535),
        Instr::branch(BranchCond::Ne, 1, 2, -16384),
        Instr::branch(BranchCond::Geu, 3, 4, 16383),
        Instr::jump(-32768),
        Instr::jal(31, 32767),
        Instr::jr(15),
        Instr::jalr(31, 16),
        Instr::lui(12, (1 << 23) - 1),
        Instr::mvfc(4, 51),
        Instr::halt(),
        Instr::nop(),
        Instr::fpAlu(FpOp::Mul, 16, 32, 0, 4, false, true),
    };
    for (const Instr &i : cases)
        EXPECT_EQ(Instr::decode(i.encode()), i) << disassemble(i);
}

TEST(CpuInstr, RoundTripRandomProperty)
{
    std::mt19937_64 rng(0xfeed);
    for (int n = 0; n < 20000; ++n) {
        Instr i;
        switch (rng() % 8) {
          case 0:
            i = Instr::alu(static_cast<AluFunc>(rng() % 11), rng() % 32,
                           rng() % 32, rng() % 32);
            break;
          case 1:
            i = Instr::aluImm(static_cast<AluFunc>(rng() % 11),
                              rng() % 32, rng() % 32,
                              static_cast<int>(rng() % 16384) - 8192);
            break;
          case 2:
            i = Instr::ld(rng() % 32, rng() % 32,
                          static_cast<int>(rng() % (1 << 18)) -
                              (1 << 17));
            break;
          case 3:
            i = Instr::stf(rng() % 52, rng() % 32,
                           static_cast<int>(rng() % (1 << 17)) -
                               (1 << 16));
            break;
          case 4:
            i = Instr::branch(static_cast<BranchCond>(rng() % 6),
                              rng() % 32, rng() % 32,
                              static_cast<int>(rng() % (1 << 15)) -
                                  (1 << 14));
            break;
          case 5: {
            const unsigned vl = 1 + rng() % 16;
            const bool sra = rng() & 1, srb = rng() & 1;
            const unsigned rr = rng() % (52 - vl + 1);
            const unsigned ra = rng() % (52 - (sra ? vl : 1) + 1);
            const unsigned rb = rng() % (52 - (srb ? vl : 1) + 1);
            i = Instr::fpAlu(static_cast<FpOp>(rng() % 8), rr, ra, rb,
                             vl, sra, srb);
            break;
          }
          case 6:
            i = Instr::mvfc(rng() % 32, rng() % 52);
            break;
          case 7:
            i = Instr::lui(rng() % 32,
                           static_cast<int>(rng() % (1 << 23)));
            break;
        }
        ASSERT_EQ(Instr::decode(i.encode()), i) << disassemble(i);
    }
}

TEST(CpuInstr, GarbageBytesDecodeRoundTrip)
{
    // Fuzz the decoder with raw words. Every word must either decode
    // or raise a structured SimError — never panic or index out of
    // range (the sanitizer CI job watches for UB here). Whatever does
    // decode must be canonical: re-encoding and re-decoding it is a
    // fixed point, so don't-care bits can't smuggle state through.
    std::mt19937_64 rng(0xdec0de);
    unsigned accepted = 0, rejected = 0;
    for (int n = 0; n < 50000; ++n) {
        const uint32_t word = static_cast<uint32_t>(rng());
        try {
            const Instr i = Instr::decode(word);
            ASSERT_EQ(Instr::decode(i.encode()), i) << disassemble(i);
            ++accepted;
        } catch (const SimError &err) {
            const ErrCode code = err.code();
            ASSERT_TRUE(code == ErrCode::BadEncoding ||
                        code == ErrCode::BadProgram)
                << enumName(code) << " for word " << word;
            ++rejected;
        }
    }
    // The sweep must exercise both paths to mean anything.
    EXPECT_GT(accepted, 1000u);
    EXPECT_GT(rejected, 1000u);
}

TEST(CpuInstr, RangeChecks)
{
    EXPECT_THROW(Instr::aluImm(AluFunc::Add, 1, 0, 8192), FatalError);
    EXPECT_THROW(Instr::aluImm(AluFunc::Add, 1, 0, -8193), FatalError);
    EXPECT_THROW(Instr::ldf(52, 0, 0), FatalError);
    EXPECT_THROW(Instr::alu(AluFunc::Add, 32, 0, 0), FatalError);
    EXPECT_THROW(Instr::branch(BranchCond::Eq, 0, 0, 1 << 14),
                 FatalError);
    EXPECT_THROW(Instr::lui(0, 1 << 23), FatalError);
    EXPECT_THROW(Instr::lui(0, -1), FatalError);
}

TEST(Disasm, Readable)
{
    EXPECT_EQ(disassemble(Instr::alu(AluFunc::Add, 1, 2, 3)),
              "add r1, r2, r3");
    EXPECT_EQ(disassemble(Instr::ldf(4, 2, 16)), "ldf f4, 16(r2)");
    EXPECT_EQ(disassemble(Instr::halt()), "halt");
    EXPECT_EQ(
        disassemble(Instr::fpAlu(FpOp::Mul, 16, 32, 0, 4, false, true)),
        "fmul f16, f32, f0, vl=4, srb");
    EXPECT_EQ(disassemble(Instr::fpAlu(FpOp::Add, 8, 0, 1)),
              "fadd f8, f0, f1");
}

TEST(Disasm, RawWordDecode)
{
    const uint32_t w = Instr::branch(BranchCond::Lt, 3, 4, -5).encode();
    EXPECT_EQ(disassemble(w), "blt r3, r4, -5");
}

} // anonymous namespace
} // namespace mtfpu::isa
