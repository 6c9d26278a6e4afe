/**
 * @file
 * Two-pass assembler producing a program image for the simulator.
 *
 * Syntax overview (one instruction per line, ';' or '#' comments):
 *
 *     start:  li    r1, 100
 *             ldf   f0, 0(r2)
 *             fmul  f16, f0, f4, vl=4, sra, srb
 *             addi  r2, r2, 8
 *             bne   r1, r0, start
 *             nop                      ; branch delay slot
 *             halt
 *
 * FPU ALU instructions accept an optional vl=N (1..16) and the sra/srb
 * stride flags of Figure 3. `li` is a pseudo-instruction that expands
 * to addi or lui+ori depending on the constant.
 */

#ifndef MTFPU_ASSEMBLER_ASSEMBLER_HH
#define MTFPU_ASSEMBLER_ASSEMBLER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/bytestream.hh"
#include "isa/cpu_instr.hh"

namespace mtfpu::assembler
{

/** An assembled program: decoded instructions plus the label map. */
struct Program
{
    std::vector<isa::Instr> code;
    std::map<std::string, uint32_t> labels;

    /** Visit the code as encoded instruction words (the label map is
     *  not part of the encoding). */
    void visit(Archive &ar);
};

/** Assemble source text; fatal() with a line number on errors. */
Program assemble(const std::string &source);

} // namespace mtfpu::assembler

#endif // MTFPU_ASSEMBLER_ASSEMBLER_HH
