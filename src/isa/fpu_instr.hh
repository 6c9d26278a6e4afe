/**
 * @file
 * The 32-bit FPU ALU instruction word (paper Figure 3):
 *
 *   |< 4 >|<  6  >|<  6  >|<  6  >|<2>|<2>|< 4 >|1|1|
 *   |  op |  Rr   |  Ra   |  Rb   |unit|fnc|VL-1 |SRa|SRb|
 *
 * The op field is the CPU major opcode (value 6 = FPALU); the rest is
 * interpreted by the FPU. The vector length field encodes 1..16
 * elements as VL-1; SRa/SRb select whether the Ra/Rb source specifiers
 * increment between elements (the result specifier Rr always
 * increments; see DESIGN.md on Figure 6).
 */

#ifndef MTFPU_ISA_FPU_INSTR_HH
#define MTFPU_ISA_FPU_INSTR_HH

#include <cstdint>
#include <string>

#include "common/text.hh"

namespace mtfpu::isa
{

/** The CPU major opcode value that marks an FPU ALU instruction. */
constexpr unsigned kFpAluMajor = 6;

/** Number of directly addressable FPU registers (paper §2.2.1). */
constexpr unsigned kNumFpuRegs = 52;

/** Maximum vector length expressible in the 4-bit VL-1 field. */
constexpr unsigned kMaxVectorLength = 16;

/** FPU ALU operations (Figure 4 func/unit table). */
enum class FpOp : uint8_t
{
    Add,        // unit 1, func 0
    Sub,        // unit 1, func 1
    Float,      // unit 1, func 2 (int -> fp)
    Truncate,   // unit 1, func 3 (fp -> int, toward zero)
    Mul,        // unit 2, func 0
    IntMul,     // unit 2, func 1
    IterStep,   // unit 2, func 2 (Newton-Raphson step)
    Recip,      // unit 3, func 0 (reciprocal approximation)
};

/** Map an FpOp to its unit field. */
unsigned fpOpUnit(FpOp op);
/** Map an FpOp to its func field. */
unsigned fpOpFunc(FpOp op);
/** Map unit/func fields to an FpOp; fatal() on reserved encodings. */
FpOp fpOpFromFields(unsigned unit, unsigned func);
/** True if the unit/func combination is a reserved encoding. */
bool fpOpReserved(unsigned unit, unsigned func);
/** Mnemonics of the FpOps, "fadd", "fmul", ... (common/text.hh). */
constexpr auto
enumNames(FpOp)
{
    return nameTable<FpOp>({
        {FpOp::Add, "fadd"}, {FpOp::Sub, "fsub"}, {FpOp::Float, "ffloat"},
        {FpOp::Truncate, "ftrunc"}, {FpOp::Mul, "fmul"},
        {FpOp::IntMul, "fimul"}, {FpOp::IterStep, "fiter"},
        {FpOp::Recip, "frecip"},
    });
}

/** A decoded FPU ALU instruction. */
struct FpuAluInstr
{
    FpOp op = FpOp::Add;
    uint8_t rr = 0;   // result register specifier (6 bits)
    uint8_t ra = 0;   // source A specifier (6 bits)
    uint8_t rb = 0;   // source B specifier (6 bits)
    uint8_t vlm1 = 0; // vector length - 1 (4 bits)
    bool sra = false; // Ra increments between elements
    bool srb = false; // Rb increments between elements

    /** Number of vector elements (1..16). */
    unsigned length() const { return vlm1 + 1u; }

    /** Encode to the 32-bit Figure-3 layout. */
    uint32_t encode() const;

    /** Decode from the 32-bit Figure-3 layout. */
    static FpuAluInstr decode(uint32_t word);

    /** Render as assembly text. */
    std::string toString() const;

    bool operator==(const FpuAluInstr &) const = default;
};

} // namespace mtfpu::isa

#endif // MTFPU_ISA_FPU_INSTR_HH
