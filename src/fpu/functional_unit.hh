/**
 * @file
 * The three fully pipelined functional units (add, multiply,
 * reciprocal; paper §2). Every operation has the same three-cycle
 * latency including bypass, so a single in-flight queue models all
 * three: each entry counts down the remaining pipeline stages and the
 * result is written back (and its reservation released) when the
 * count reaches zero. Because all units share one latency and at most
 * one element issues per cycle, the register-file write port never
 * conflicts (paper §2.3.1).
 */

#ifndef MTFPU_FPU_FUNCTIONAL_UNIT_HH
#define MTFPU_FPU_FUNCTIONAL_UNIT_HH

#include <cstdint>
#include <vector>

#include "common/bytestream.hh"
#include "isa/fpu_instr.hh"
#include "softfp/fp64.hh"

namespace mtfpu::fpu
{

class RegisterFile;
class Scoreboard;

/** Latency in cycles of every FPU ALU operation, including bypass. */
constexpr unsigned kFpuLatency = 3;

/** One operation in flight through a functional-unit pipeline. */
struct PendingOp
{
    unsigned remaining;  // active cycles until writeback
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
    void issue(isa::FpOp op, unsigned reg, uint64_t value,
               const softfp::Flags &flags, uint64_t seq);

    /**
     * Advance one active cycle: write back every operation whose
     * latency has elapsed, releasing its reservation and merging its
     * flags. Returns the operations retired this cycle; the reference
     * points into a reused internal buffer (no per-cycle allocation)
     * and is valid until the next advance() or clear().
     * Inline empty fast path: idle pipelines cost one branch.
     */
    const std::vector<PendingOp> &
    advance(RegisterFile &regs, Scoreboard &sb)
    {
        if (inflight_.empty()) {
            retired_.clear();
            return retired_;
        }
        return advanceSlow(regs, sb);
    }

    /** True if any operation is still in flight. */
    bool busy() const { return !inflight_.empty(); }

    /** Configured latency. */
    unsigned latency() const { return latency_; }

    /** Drop all in-flight state (reset). */
    void
    clear()
    {
        inflight_.clear();
        retired_.clear();
    }

    /** Visit the in-flight queue (latency is configuration and
     *  retired_ is transient). */
    void visit(Archive &ar);

  private:
    /** Out-of-line tail of advance(): retire elapsed operations. */
    const std::vector<PendingOp> &advanceSlow(RegisterFile &regs,
                                              Scoreboard &sb);

    unsigned latency_;
    std::vector<PendingOp> inflight_;
    std::vector<PendingOp> retired_; // reused advance() result buffer
};

} // namespace mtfpu::fpu

#endif // MTFPU_FPU_FUNCTIONAL_UNIT_HH
