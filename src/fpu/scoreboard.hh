/**
 * @file
 * The register write reservation table (paper §2.3.1). In hardware a
 * bit is set when an ALU element issues and cleared when its result
 * is written back. Every unit has the same latency, so the clearing
 * cycle is known at issue: the table keeps, per register, the active
 * cycle at which its reservation lapses, and a register is reserved
 * while that cycle lies ahead. Active cycles are the ones in which
 * the pipelines advance; beginCycle() is the only thing that moves
 * the count, so a lock-step memory stall, which skips it, freezes
 * every reservation with the pipelines. Loads and stores read the
 * table through their own port but never reserve.
 *
 * The accessors are inline and compile to a bounds check plus a
 * compare; the out-of-range message is built out of line.
 */

#ifndef MTFPU_FPU_SCOREBOARD_HH
#define MTFPU_FPU_SCOREBOARD_HH

#include <array>
#include <cstdint>

#include "isa/fpu_instr.hh"

namespace mtfpu::fpu
{

/** The ready-at-cycle reservation table. */
class Scoreboard
{
  public:
    /** Start an active cycle; reservations due now lapse. */
    void beginCycle() { ++now_; }

    /** The active-cycle count. Its owner may pause it while nothing
     *  is reserved: reservations are relative to it. */
    uint64_t now() const { return now_; }

    /** Reserve @p reg at ALU element issue, until the writeback
     *  @p latency active cycles from now. */
    void
    reserve(unsigned reg, unsigned latency)
    {
        if (reg >= isa::kNumFpuRegs)
            rangeError("reserve", reg);
        if (readyAt_[reg] > now_)
            doubleReservation(reg);
        readyAt_[reg] = now_ + latency;
    }

    /** First active cycle in which @p reg is not reserved. */
    uint64_t
    readyAt(unsigned reg) const
    {
        if (reg >= isa::kNumFpuRegs)
            rangeError("probe", reg);
        return readyAt_[reg];
    }

    /** True if an outstanding ALU write targets @p reg. */
    bool reserved(unsigned reg) const { return readyAt(reg) > now_; }

    /** The reserved registers as one word, f0 in bit 0. */
    uint64_t reservedWord() const;

    /** Drop every reservation and restart the cycle count. */
    void
    clear()
    {
        readyAt_.fill(0);
        now_ = 0;
    }

  private:
    [[noreturn]] static void rangeError(const char *access, unsigned reg);
    [[noreturn]] static void doubleReservation(unsigned reg);

    std::array<uint64_t, isa::kNumFpuRegs> readyAt_{};
    uint64_t now_ = 0;
};

} // namespace mtfpu::fpu

#endif // MTFPU_FPU_SCOREBOARD_HH
