/**
 * @file
 * Tests for the lexer, parser, and two-pass assembler.
 */

#include <gtest/gtest.h>

#include "assembler/assembler.hh"
#include "assembler/lexer.hh"
#include "common/log.hh"
#include "isa/disasm.hh"

namespace mtfpu::assembler
{
namespace
{

using isa::AluFunc;
using isa::BranchCond;
using isa::FpOp;
using isa::Instr;
using isa::Major;

TEST(Lexer, TokensAndComments)
{
    const auto toks = tokenize("addi r1, r0, 5 ; comment\nldf f3, 8(r2)");
    // addi r1 , r0 , 5 NL ldf f3 , 8 ( r2 ) NL EOF
    ASSERT_EQ(toks.size(), 16u);
    EXPECT_EQ(toks[0].kind, TokKind::Ident);
    EXPECT_EQ(toks[0].text, "addi");
    EXPECT_EQ(toks[1].kind, TokKind::IntReg);
    EXPECT_EQ(toks[1].value, 1);
    EXPECT_EQ(toks[5].kind, TokKind::Number);
    EXPECT_EQ(toks[5].value, 5);
    EXPECT_EQ(toks[6].kind, TokKind::Newline);
    EXPECT_EQ(toks[8].kind, TokKind::FpReg);
    EXPECT_EQ(toks[8].value, 3);
    EXPECT_EQ(toks.back().kind, TokKind::Eof);
}

TEST(Lexer, NumbersHexAndNegative)
{
    // li(0) r1(1) ,(2) 0x1F(3) NL(4) li(5) r1(6) ,(7) -42(8)
    const auto toks = tokenize("li r1, 0x1F\nli r1, -42");
    EXPECT_EQ(toks[3].value, 31);
    EXPECT_EQ(toks[8].value, -42);
}

TEST(Lexer, HashComments)
{
    const auto toks = tokenize("# full line\nnop # trailing");
    ASSERT_GE(toks.size(), 2u);
    EXPECT_EQ(toks[0].text, "nop");
}

TEST(Lexer, RejectsBadCharacter)
{
    EXPECT_THROW(tokenize("add r1, r2, @"), FatalError);
}

TEST(Assembler, BasicProgram)
{
    const Program p = assemble(R"(
        start:  addi r1, r0, 3
        loop:   subi r1, r1, 1
                bne  r1, r0, loop
                nop
                halt
    )");
    ASSERT_EQ(p.code.size(), 5u);
    EXPECT_EQ(p.labels.at("start"), 0u);
    EXPECT_EQ(p.labels.at("loop"), 1u);
    EXPECT_EQ(p.code[0], Instr::aluImm(AluFunc::Add, 1, 0, 3));
    EXPECT_EQ(p.code[2], Instr::branch(BranchCond::Ne, 1, 0, -1));
    EXPECT_EQ(p.code[4].major, Major::Halt);
}

TEST(Assembler, FpAluOptions)
{
    const Program p = assemble(
        "fmul f16, f32, f0, vl=4, srb\n"
        "fadd f8, f0, f4, vl=8, sra, srb\n"
        "frecip f1, f2\n"
        "ffloat f3, f4\n"
        "halt\n");
    EXPECT_EQ(p.code[0],
              Instr::fpAlu(FpOp::Mul, 16, 32, 0, 4, false, true));
    EXPECT_EQ(p.code[1],
              Instr::fpAlu(FpOp::Add, 8, 0, 4, 8, true, true));
    EXPECT_EQ(p.code[2], Instr::fpAlu(FpOp::Recip, 1, 2, 0, 1));
    EXPECT_EQ(p.code[3], Instr::fpAlu(FpOp::Float, 3, 4, 0, 1));
}

TEST(Assembler, LoadsAndStores)
{
    const Program p = assemble(
        "ld r1, 8(r2)\nst r3, -16(r4)\nldf f5, 0(r6)\nstf f7, 24(r8)\n"
        "halt\n");
    EXPECT_EQ(p.code[0], Instr::ld(1, 2, 8));
    EXPECT_EQ(p.code[1], Instr::st(3, 4, -16));
    EXPECT_EQ(p.code[2], Instr::ldf(5, 6, 0));
    EXPECT_EQ(p.code[3], Instr::stf(7, 8, 24));
}

TEST(Assembler, LiPseudoSmall)
{
    const Program p = assemble("li r1, 100\nhalt\n");
    ASSERT_EQ(p.code.size(), 2u);
    EXPECT_EQ(p.code[0], Instr::aluImm(AluFunc::Add, 1, 0, 100));
}

TEST(Assembler, LiPseudoLargeExpandsToLuiOr)
{
    const Program p = assemble("li r1, 0x123456\nhalt\n");
    ASSERT_EQ(p.code.size(), 3u);
    EXPECT_EQ(p.code[0].major, Major::Lui);
    EXPECT_EQ(p.code[1],
              Instr::aluImm(AluFunc::Or, 1, 1,
                            0x123456 & ((1 << isa::kLuiShift) - 1)));
}

TEST(Assembler, LiLargeValueSemantics)
{
    // lui then or must reconstruct the constant.
    const Program p = assemble("li r9, 1000000\nhalt\n");
    uint64_t v = 0;
    for (const auto &in : p.code) {
        if (in.major == Major::Lui)
            v = static_cast<uint64_t>(in.imm) << isa::kLuiShift;
        else if (in.major == Major::AluImm)
            v |= static_cast<uint64_t>(in.imm);
    }
    EXPECT_EQ(v, 1000000u);
}

TEST(Assembler, ForwardAndBackwardLabels)
{
    const Program p = assemble(R"(
                j done
                nop
        here:   nop
                halt
        done:   beq r0, r0, here
                nop
                halt
    )");
    // j at 0 -> done at 4: displacement +4.
    EXPECT_EQ(p.code[0].imm, 4);
    // beq at 4 -> here at 2: displacement -2.
    EXPECT_EQ(p.code[4].imm, -2);
}

TEST(Assembler, JumpRegisterForms)
{
    const Program p = assemble("jal r31, sub\nnop\nhalt\nsub: jr r31\n"
                               "nop\n");
    EXPECT_EQ(p.code[0], Instr::jal(31, 3));
    EXPECT_EQ(p.code[3], Instr::jr(31));
}

TEST(Assembler, Mvfc)
{
    const Program p = assemble("mvfc r4, f20\nhalt\n");
    EXPECT_EQ(p.code[0], Instr::mvfc(4, 20));
}

TEST(Assembler, Errors)
{
    EXPECT_THROW(assemble("bogus r1, r2\n"), FatalError);
    EXPECT_THROW(assemble("beq r1, r2, nowhere\nnop\nhalt\n"),
                 FatalError);
    EXPECT_THROW(assemble("dup: nop\ndup: nop\n"), FatalError);
    EXPECT_THROW(assemble("add r1, r2\n"), FatalError); // missing operand
    EXPECT_THROW(assemble("fadd f8, f0, f1, vl=17\n"), FatalError);
    EXPECT_THROW(assemble("ldf f60, 0(r1)\n"), FatalError);
    EXPECT_THROW(assemble("add r1, r2, r3 extra\n"), FatalError);
}

TEST(Assembler, RoundTripThroughDisassembler)
{
    const char *src =
        "add r1, r2, r3\n"
        "ldf f4, 16(r2)\n"
        "fmul f16, f32, f0, vl=4, srb\n"
        "blt r3, r4, -5\n"
        "halt\n";
    const Program p = assemble(src);
    std::string round;
    for (const auto &in : p.code)
        round += isa::disassemble(in) + "\n";
    const Program p2 = assemble(round);
    EXPECT_EQ(p.code, p2.code);
}

TEST(Assembler, EveryTableMnemonicRoundTripsThroughDisassembler)
{
    // The assembler and the disassembler read one name table per
    // instruction family, so each mnemonic comes back as written, and
    // each listing assembles to the word it lists.
    struct Case
    {
        std::string source, listing;
    };
    std::vector<Case> cases;
    for (const auto &[func, name] : kEnumNames<AluFunc>) {
        const std::string reg = std::string(name) + " r1, r2, r3";
        const std::string imm = std::string(name) + "i r1, r2, -7";
        cases.push_back({reg, reg});
        cases.push_back({imm, imm});
    }
    for (const auto &[cond, name] : kEnumNames<BranchCond>) {
        const std::string branch = std::string(name) + " r1, r2, 3";
        cases.push_back({branch, branch});
    }
    for (const auto &[op, name] : kEnumNames<FpOp>) {
        // A unary op ignores rb: a source may leave it out, and its
        // zero field lists as f0, or name it, as a listing does.
        const bool unary =
            op == FpOp::Float || op == FpOp::Truncate || op == FpOp::Recip;
        const std::string full = std::string(name) + " f8, f1, f5";
        if (unary)
            cases.push_back({std::string(name) + " f8, f1",
                             std::string(name) + " f8, f1, f0"});
        cases.push_back({full, full});
        cases.push_back({full + ", vl=4, sra, srb", full + ", vl=4, sra, srb"});
        // Stride bits list at VL=1 too.
        cases.push_back({full + ", sra, srb", full + ", sra, srb"});
    }
    ASSERT_EQ(cases.size(), 2 * 11 + 6 + 3 * 8 + 3u);
    for (const Case &c : cases) {
        const Program p = assemble(c.source);
        ASSERT_EQ(p.code.size(), 1u) << c.source;
        EXPECT_EQ(isa::disassemble(p.code[0]), c.listing) << c.source;
        const Program back = assemble(c.listing);
        ASSERT_EQ(back.code.size(), 1u) << c.listing;
        EXPECT_EQ(back.code[0].encode(), p.code[0].encode()) << c.listing;
    }
}

} // anonymous namespace
} // namespace mtfpu::assembler
