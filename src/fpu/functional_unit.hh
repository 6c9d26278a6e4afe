/**
 * @file
 * The three fully pipelined functional units (add, multiply,
 * reciprocal; paper §2). Every operation has the same three-cycle
 * latency including bypass and at most one element issues per cycle,
 * so at most one result is written back per cycle and the
 * register-file write port never conflicts (paper §2.3.1). One ring
 * of `latency` slots therefore models all three units: an op issued
 * in active cycle t sits in the slot that comes due at t + latency,
 * when it is written back. The scoreboard reservation it made at
 * issue lapses in the same cycle (scoreboard.hh).
 */

#ifndef MTFPU_FPU_FUNCTIONAL_UNIT_HH
#define MTFPU_FPU_FUNCTIONAL_UNIT_HH

#include <cstdint>
#include <span>

#include "common/bytestream.hh"
#include "common/delay_ring.hh"
#include "fpu/register_file.hh"
#include "isa/fpu_instr.hh"
#include "softfp/fp64.hh"

namespace mtfpu::fpu
{

/** Latency in cycles of every FPU ALU operation, including bypass. */
constexpr unsigned kFpuLatency = 3;

/** One operation in flight through a functional-unit pipeline. */
struct PendingOp
{
    uint8_t reg;         // destination register
    uint64_t value;      // computed result (execute-at-issue model)
    softfp::Flags flags; // exception flags of this operation
    isa::FpOp op;        // for statistics and tracing
    uint64_t seq;        // vector-instruction sequence tag (for squash)
};

/**
 * The shared in-flight pipeline model. advance() must be called once
 * per non-stalled machine cycle *before* issue; on a lock-step global
 * stall the pipelines freeze and advance() is not called.
 */
class FunctionalUnits
{
  public:
    /** Configure the (uniform) operation latency; default 3. */
    explicit FunctionalUnits(unsigned latency = kFpuLatency);

    /**
     * Enter a newly issued element. Its result becomes architecturally
     * visible @p latency active cycles later.
     */
    void
    issue(isa::FpOp op, unsigned reg, uint64_t value,
          const softfp::Flags &flags, uint64_t seq)
    {
        ring_.push(PendingOp{static_cast<uint8_t>(reg), value, flags, op,
                             seq});
    }

    /**
     * Advance one active cycle: write back the operation whose latency
     * has elapsed, if any, and return it (zero or one op). The span
     * stays valid until the next issue() or clear().
     */
    std::span<const PendingOp>
    advance(RegisterFile &regs)
    {
        const PendingOp *op = ring_.advance();
        if (!op)
            return {};
        regs.write(op->reg, op->value);
        return {op, 1};
    }

    /** True if any operation is still in flight. */
    bool busy() const { return ring_.busy(); }

    /** Configured latency. */
    unsigned latency() const { return ring_.delay(); }

    /** Call fn(op, left) for every op in flight, oldest first, with
     *  @p left (1..latency) the cycles until its writeback. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        ring_.forEach(fn);
    }

    /** Drop all in-flight state (reset). */
    void clear() { ring_.clear(); }

    /** Visit the in-flight ops, oldest first, each with the stages it
     *  has left (latency is configuration). */
    void visit(Archive &ar);

  private:
    DelayRing<PendingOp> ring_;
};

} // namespace mtfpu::fpu

#endif // MTFPU_FPU_FUNCTIONAL_UNIT_HH
