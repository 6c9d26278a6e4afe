/**
 * @file
 * Disassembler for CPU and FPU instruction words, used by the tracer
 * and by error reporting.
 */

#ifndef MTFPU_ISA_DISASM_HH
#define MTFPU_ISA_DISASM_HH

#include <string>

#include "isa/cpu_instr.hh"

namespace mtfpu::isa
{

/** Render a decoded instruction as assembly text. */
std::string disassemble(const Instr &instr);

/** Decode and render a raw instruction word. */
std::string disassemble(uint32_t word);

} // namespace mtfpu::isa

namespace mtfpu::assembler
{
struct Program;
}

namespace mtfpu::isa
{

/**
 * Render a whole program as an assembly listing: addresses, encoded
 * words, label back-annotation, and symbolic branch targets.
 */
std::string disassembleProgram(const assembler::Program &program);

/** Infix/prefix symbol of an FP operation ("+", "*", "recip", ...). */
const char *fpOpSymbol(FpOp op);

/**
 * Paper-style text of one vector element, e.g. "f9 := f8 + f0" or
 * "f10 := recip f1". Single formatter for the tracer and the Figure
 * 5-8 timing diagrams.
 */
std::string fpElementText(FpOp op, unsigned rr, unsigned ra, unsigned rb);

} // namespace mtfpu::isa

#endif // MTFPU_ISA_DISASM_HH
