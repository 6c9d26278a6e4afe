/**
 * @file
 * The functional execution core: the single source of truth for
 * instruction semantics, shared by the cycle-accurate Machine and the
 * untimed Interpreter. Everything architectural — integer ALU
 * evaluation, branch conditions, jump targets and link values, LUI
 * materialization, load/store effective addresses, FPU element
 * operations, and the vector specifier-increment rule (§2.1.1) —
 * lives here exactly once, so the two engines cannot silently drift.
 *
 * Timing policy (issue rules, stalls, delay-slot scheduling, the
 * scoreboard) deliberately stays out of this layer: the Machine owns
 * *when* an effect happens, this module owns *what* the effect is.
 */

#ifndef MTFPU_EXEC_SEMANTICS_HH
#define MTFPU_EXEC_SEMANTICS_HH

#include <cstdint>

#include "isa/cpu_instr.hh"
#include "softfp/backend.hh"
#include "softfp/fp64.hh"

namespace mtfpu::exec
{

/** Evaluate an integer ALU function. */
uint64_t evalAlu(isa::AluFunc func, uint64_t a, uint64_t b);

/** Evaluate a branch condition. */
bool evalBranch(isa::BranchCond cond, uint64_t a, uint64_t b);

/** Materialize a LUI immediate. */
uint64_t evalLui(int32_t imm);

/** Load/store effective address: base + sign-extended displacement. */
uint64_t effectiveAddress(uint64_t base, int32_t imm);

/**
 * The link value a jal/jalr writes: the address past the delay slot,
 * where the matching jr lands on return.
 */
uint32_t linkAddress(uint32_t pc);

/** The architectural effect of a jump instruction. */
struct JumpEffect
{
    uint32_t target = 0;     // redirect target (applies after the slot)
    bool writesLink = false; // jal/jalr write a link register
    uint8_t linkReg = 0;
    uint64_t linkValue = 0;
};

/**
 * Resolve a jump. @p rs1 is the value of the instruction's rs1
 * register (ignored for j/jal).
 */
JumpEffect evalJump(const isa::Instr &in, uint32_t pc, uint64_t rs1);

/** True for the single-operand FPU operations (float/trunc/recip). */
bool fpOpIsUnary(isa::FpOp op);

/**
 * Execute one FPU ALU element: dispatch @p op through the Figure-4
 * unit/func table onto the bit-exact softfp implementations.
 */
uint64_t evalFpOp(isa::FpOp op, uint64_t a, uint64_t b,
                  softfp::Flags &flags);

/**
 * Backend-selectable element execution. `Backend::Soft` is the
 * bit-level reference; `Backend::HostFast` computes the IEEE-exact
 * units with native host doubles (identical bits and flags — see
 * softfp/backend.hh). Dispatches directly on @p op, skipping the
 * unit/func re-mapping on the hot path.
 */
uint64_t evalFpOp(isa::FpOp op, uint64_t a, uint64_t b,
                  softfp::Flags &flags, softfp::Backend backend);

/** The live Rr/Ra/Rb specifiers of a vector instruction. */
struct ElementSpecs
{
    uint8_t rr, ra, rb;
};

/**
 * Advance the specifiers between vector elements (paper §2.1.1): the
 * result specifier Rr always increments; Ra/Rb increment iff their
 * stride bits are set.
 */
void advanceSpecifiers(ElementSpecs &specs, bool sra, bool srb);

/**
 * Expand a vector instruction functionally, invoking
 * fn(rr, ra, rb) once per element in issue order.
 */
template <typename Fn>
void
forEachElement(const isa::FpuAluInstr &in, Fn &&fn)
{
    ElementSpecs specs{in.rr, in.ra, in.rb};
    for (unsigned e = 0; e < in.length(); ++e) {
        fn(specs.rr, specs.ra, specs.rb);
        advanceSpecifiers(specs, in.sra, in.srb);
    }
}

} // namespace mtfpu::exec

#endif // MTFPU_EXEC_SEMANTICS_HH
