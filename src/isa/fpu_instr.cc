#include "isa/fpu_instr.hh"

#include <cstdio>

#include "common/bitfield.hh"
#include "common/log.hh"

namespace mtfpu::isa
{

namespace
{

struct OpFields { unsigned unit, func; };

constexpr OpFields kOpFields[] = {
    {1, 0}, // Add
    {1, 1}, // Sub
    {1, 2}, // Float
    {1, 3}, // Truncate
    {2, 0}, // Mul
    {2, 1}, // IntMul
    {2, 2}, // IterStep
    {3, 0}, // Recip
};

} // anonymous namespace

unsigned
fpOpUnit(FpOp op)
{
    return kOpFields[static_cast<unsigned>(op)].unit;
}

unsigned
fpOpFunc(FpOp op)
{
    return kOpFields[static_cast<unsigned>(op)].func;
}

bool
fpOpReserved(unsigned unit, unsigned func)
{
    if (unit == 0)
        return true;
    if (unit == 2 && func == 3)
        return true;
    if (unit == 3 && func != 0)
        return true;
    return false;
}

FpOp
fpOpFromFields(unsigned unit, unsigned func)
{
    for (unsigned i = 0; i < 8; ++i) {
        if (kOpFields[i].unit == unit && kOpFields[i].func == func)
            return static_cast<FpOp>(i);
    }
    fatal(ErrCode::BadEncoding,
          "fpOpFromFields: reserved unit/func encoding (unit=" +
              std::to_string(unit) + ", func=" + std::to_string(func) +
              ")");
}

uint32_t
FpuAluInstr::encode() const
{
    uint64_t w = 0;
    w = insertBits(w, 28, 4, kFpAluMajor);
    w = insertBits(w, 22, 6, rr);
    w = insertBits(w, 16, 6, ra);
    w = insertBits(w, 10, 6, rb);
    w = insertBits(w, 8, 2, fpOpUnit(op));
    w = insertBits(w, 6, 2, fpOpFunc(op));
    w = insertBits(w, 2, 4, vlm1);
    w = insertBits(w, 1, 1, sra);
    w = insertBits(w, 0, 1, srb);
    return static_cast<uint32_t>(w);
}

FpuAluInstr
FpuAluInstr::decode(uint32_t word)
{
    if (bits(word, 28, 4) != kFpAluMajor)
        fatal(ErrCode::BadEncoding,
              "FpuAluInstr::decode: not an FPU ALU word (major=" +
                  std::to_string(bits(word, 28, 4)) + ")",
              ErrContext{ErrContext::kUnknown, ErrContext::kUnknown,
                         static_cast<int64_t>(word)});
    FpuAluInstr instr;
    instr.rr = static_cast<uint8_t>(bits(word, 22, 6));
    instr.ra = static_cast<uint8_t>(bits(word, 16, 6));
    instr.rb = static_cast<uint8_t>(bits(word, 10, 6));
    const unsigned unit = static_cast<unsigned>(bits(word, 8, 2));
    const unsigned func = static_cast<unsigned>(bits(word, 6, 2));
    // Reject reserved unit/func combinations here, where the faulting
    // word is known — fpOpFromFields() cannot attach it to the error
    // context, and a fuzzed image must triage by instruction word.
    if (fpOpReserved(unit, func))
        fatal(ErrCode::BadEncoding,
              "FpuAluInstr::decode: reserved unit/func encoding (unit=" +
                  std::to_string(unit) + ", func=" + std::to_string(func) +
                  ")",
              ErrContext{ErrContext::kUnknown, ErrContext::kUnknown,
                         static_cast<int64_t>(word)});
    instr.op = fpOpFromFields(unit, func);
    instr.vlm1 = static_cast<uint8_t>(bits(word, 2, 4));
    instr.sra = bits(word, 1, 1) != 0;
    instr.srb = bits(word, 0, 1) != 0;

    // Mirror the Instr::fpAlu builder's range rules: the 6-bit
    // register fields can name f52..f63, and a striding vector can
    // run past the 52-entry file — either is a malformed word, not
    // a register-file index to fault on mid-run.
    const unsigned vl = instr.vlm1 + 1u;
    auto check = [&](const char *what, unsigned base, unsigned span) {
        if (base + span > kNumFpuRegs)
            fatal(ErrCode::BadProgram,
                  std::string("FpuAluInstr::decode: ") + what +
                      " vector f" + std::to_string(base) + "+" +
                      std::to_string(span) +
                      " exceeds the register file",
                  ErrContext{ErrContext::kUnknown, ErrContext::kUnknown,
                             static_cast<int64_t>(word)});
    };
    check("result", instr.rr, vl);
    check("source A", instr.ra, instr.sra ? vl : 1);
    check("source B", instr.rb, instr.srb ? vl : 1);
    return instr;
}

std::string
FpuAluInstr::toString() const
{
    // Every field is listed, a unary op's unused rb and the stride
    // bits of a VL=1 op too, so the listing reassembles to this word.
    char vl[16] = "";
    if (vlm1 != 0)
        std::snprintf(vl, sizeof(vl), ", vl=%u", vlm1 + 1u);
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s f%u, f%u, f%u%s%s%s", enumName(op),
                  rr, ra, rb, vl, sra ? ", sra" : "", srb ? ", srb" : "");
    return buf;
}

} // namespace mtfpu::isa
