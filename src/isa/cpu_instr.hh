/**
 * @file
 * The CPU (integer + coprocessor transfer) instruction set.
 *
 * The paper describes the MultiTitan CPU only as far as the FPU
 * interface needs: a 4-bit major opcode space (Figure 3 shows the FPU
 * ALU word claiming opcode 6), one instruction issued per cycle,
 * loads/stores with a one-cycle delay slot, and a 10-bit coprocessor
 * bus carrying FPU load/store opcodes + a 6-bit register specifier.
 * This module defines a minimal MultiTitan-flavored RISC around those
 * constraints: 32 64-bit integer registers (r0 = 0), 4-bit major
 * opcodes, single-issue, delayed loads and branches.
 */

#ifndef MTFPU_ISA_CPU_INSTR_HH
#define MTFPU_ISA_CPU_INSTR_HH

#include <cstdint>
#include <string>

#include "isa/fpu_instr.hh"

namespace mtfpu::isa
{

/** Number of CPU integer registers; r0 is hardwired to zero. */
constexpr unsigned kNumIntRegs = 32;

/** Major (4-bit) opcodes. Opcode 6 is the FPU ALU word of Figure 3. */
enum class Major : uint8_t
{
    Alu = 0,    // rd := rs1 op rs2
    AluImm = 1, // rd := rs1 op imm14
    Ld = 2,     // rd := mem64[rs1 + imm18]          (1 delay slot)
    St = 3,     // mem64[rs1 + imm18] := rd          (2-cycle store)
    Ldf = 4,    // f[fr] := mem64[rs1 + imm17]       (1 delay slot)
    Stf = 5,    // mem64[rs1 + imm17] := f[fr]       (2-cycle store)
    FpAlu = 6,  // transferred to the FPU ALU IR
    Branch = 7, // conditional, 1 delay slot
    Jump = 8,   // j/jal/jr/jalr, 1 delay slot
    Lui = 9,    // rd := imm23 << 14
    Mvfc = 10,  // rd := f[fr] raw bits (over the shared 64-bit bus)
    Halt = 15,
};

/** Integer ALU functions (shared by Alu and AluImm). */
enum class AluFunc : uint8_t
{
    Add, Sub, And, Or, Xor, Sll, Srl, Sra, Slt, Sltu, Mul,
};

/** Mnemonics of the register forms, "add", ...; an immediate form
 *  adds "i", "addi" (common/text.hh). */
constexpr auto
enumNames(AluFunc)
{
    return nameTable<AluFunc>({
        {AluFunc::Add, "add"}, {AluFunc::Sub, "sub"}, {AluFunc::And, "and"},
        {AluFunc::Or, "or"}, {AluFunc::Xor, "xor"}, {AluFunc::Sll, "sll"},
        {AluFunc::Srl, "srl"}, {AluFunc::Sra, "sra"}, {AluFunc::Slt, "slt"},
        {AluFunc::Sltu, "sltu"}, {AluFunc::Mul, "mul"},
    });
}

/** Branch conditions. */
enum class BranchCond : uint8_t { Eq, Ne, Lt, Ge, Ltu, Geu };

/** Branch mnemonics, "beq", ... (common/text.hh). */
constexpr auto
enumNames(BranchCond)
{
    return nameTable<BranchCond>({
        {BranchCond::Eq, "beq"}, {BranchCond::Ne, "bne"},
        {BranchCond::Lt, "blt"}, {BranchCond::Ge, "bge"},
        {BranchCond::Ltu, "bltu"}, {BranchCond::Geu, "bgeu"},
    });
}

/** Jump sub-kinds. */
enum class JumpKind : uint8_t { J, Jal, Jr, Jalr };

/**
 * A decoded CPU instruction. FPU ALU instructions carry their decoded
 * Figure-3 fields in @ref fp.
 */
struct Instr
{
    Major major = Major::Halt;
    AluFunc func = AluFunc::Add;
    BranchCond cond = BranchCond::Eq;
    JumpKind jkind = JumpKind::J;
    uint8_t rd = 0;  // destination / store-source CPU register (5 bits)
    uint8_t rs1 = 0; // source 1 / base register (5 bits)
    uint8_t rs2 = 0; // source 2 register (5 bits)
    uint8_t fr = 0;  // FPU register for Ldf/Stf/Mvfc (6 bits)
    int32_t imm = 0; // immediate / branch or jump displacement (words)
    FpuAluInstr fp;  // valid when major == Major::FpAlu

    /** Encode to a 32-bit instruction word. */
    uint32_t encode() const;

    /** Decode a 32-bit instruction word. */
    static Instr decode(uint32_t word);

    bool operator==(const Instr &) const = default;

    // --- Convenience constructors -------------------------------------

    static Instr alu(AluFunc f, unsigned rd, unsigned rs1, unsigned rs2);
    static Instr aluImm(AluFunc f, unsigned rd, unsigned rs1, int imm);
    static Instr ld(unsigned rd, unsigned base, int imm);
    static Instr st(unsigned rs, unsigned base, int imm);
    static Instr ldf(unsigned fr, unsigned base, int imm);
    static Instr stf(unsigned fr, unsigned base, int imm);
    static Instr fpAlu(FpOp op, unsigned rr, unsigned ra, unsigned rb,
                       unsigned vl = 1, bool sra = false, bool srb = false);
    static Instr branch(BranchCond c, unsigned rs1, unsigned rs2, int disp);
    static Instr jump(int disp);
    static Instr jal(unsigned rd, int disp);
    static Instr jr(unsigned rs);
    static Instr jalr(unsigned rd, unsigned rs);
    static Instr lui(unsigned rd, int imm);
    static Instr mvfc(unsigned rd, unsigned fr);
    static Instr halt();
    static Instr nop();
};

/** Immediate-field widths (for assembler range checks). */
constexpr int kAluImmBits = 14;
constexpr int kLdStImmBits = 18;
constexpr int kLdfStfImmBits = 17;
constexpr int kBranchDispBits = 15;
constexpr int kJumpDispBits = 16;
constexpr int kLuiImmBits = 23;
/**
 * Lui shifts its immediate left by this many bits. 13 (not 14) so
 * that the low part of a split constant always fits the signed
 * 14-bit ALU immediate used by the `li` pseudo-expansion.
 */
constexpr int kLuiShift = 13;

/** True if @p value fits in a signed field of @p width bits. */
bool fitsSigned(int64_t value, int width);

} // namespace mtfpu::isa

#endif // MTFPU_ISA_CPU_INSTR_HH
