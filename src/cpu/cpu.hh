/**
 * @file
 * CPU architectural state: the integer register file with load-delay
 * interlock tracking, the program counter, and branch-delay-slot
 * redirect state. Issue policy lives in the Machine, which drives
 * this state cycle by cycle.
 *
 * Loads and mvfc write their register kWriteDelay active cycles after
 * they issue, and the CPU issues at most one instruction per cycle, so
 * the delayed writes form a fixed-delay pipeline: a kWriteDelay-slot
 * ring (common/delay_ring.hh), with the active cycle at which each
 * register's write lands kept beside it so the interlock is one
 * compare rather than a scan. Like the FPU's scoreboard, the count
 * advances only in active cycles, and only while a write is in flight.
 *
 * Note on the load interlock: the real MultiTitan exposes the load
 * delay slot architecturally (the compiler schedules around it). This
 * model instead stalls a reader — or a writer, for WAW ordering — of
 * an in-flight load result, which is timing-identical for correctly
 * scheduled code and avoids silent corruption for unscheduled code
 * (see DESIGN.md).
 */

#ifndef MTFPU_CPU_CPU_HH
#define MTFPU_CPU_CPU_HH

#include <array>
#include <cstdint>
#include <optional>

#include "common/bytestream.hh"
#include "common/delay_ring.hh"
#include "isa/cpu_instr.hh"

namespace mtfpu::cpu
{

/** Active cycles until a CPU load or mvfc result is visible. */
constexpr unsigned kWriteDelay = 2;

/** CPU state container. */
class Cpu
{
  public:
    // The accessors below are inline: every one of them runs at least
    // once per issued instruction on the Machine's hot path. They
    // compile to a bounds check plus the access; the out-of-range
    // message is built out of line.

    /** Read a register (r0 reads as zero). */
    uint64_t
    readReg(unsigned reg) const
    {
        if (reg >= isa::kNumIntRegs)
            rangeError("read", reg);
        return reg == 0 ? 0 : regs_[reg];
    }

    /** Write a register immediately (ALU results; r0 discarded). */
    void
    writeReg(unsigned reg, uint64_t value)
    {
        if (reg >= isa::kNumIntRegs)
            rangeError("write", reg);
        if (reg != 0)
            regs_[reg] = value;
    }

    /**
     * Schedule a delayed write (loads, mvfc): visible to instructions
     * issuing kWriteDelay active cycles after this one.
     */
    void
    scheduleWrite(unsigned reg, uint64_t value)
    {
        if (reg >= isa::kNumIntRegs)
            rangeError("write", reg);
        if (reg == 0)
            return;
        readyAt_[reg] = now_ + kWriteDelay;
        writes_.push(Write{static_cast<uint8_t>(reg), value});
    }

    /** True if no in-flight delayed write targets @p reg. */
    bool
    regReady(unsigned reg) const
    {
        return reg >= isa::kNumIntRegs || readyAt_[reg] <= now_;
    }

    /** Advance one active cycle: complete the due delayed write. With
     *  none in flight every register is ready and the count pauses. */
    void
    advance()
    {
        if (!writes_.busy())
            return;
        ++now_;
        if (const Write *w = writes_.advance())
            regs_[w->reg] = w->value;
    }

    /** True while any delayed write is in flight. */
    bool pendingWrites() const { return writes_.busy(); }

    /** Current program counter (instruction index). */
    uint32_t pc = 0;

    /** Pending taken-branch redirect: target applied after the delay
     *  slot instruction issues. */
    std::optional<uint32_t> redirect;

    /** True once a halt instruction has issued. */
    bool halted = false;

    /** Full reset. */
    void reset();

    /** Visit all state (registers, pending writes, PC, redirect). */
    void visit(Archive &ar);

  private:
    /** A delayed write; its register is 1..31. */
    struct Write
    {
        uint8_t reg;
        uint64_t value;
    };

    [[noreturn]] static void rangeError(const char *access, unsigned reg);

    std::array<uint64_t, isa::kNumIntRegs> regs_{};
    DelayRing<Write> writes_{kWriteDelay};
    // Count value from which each register's delayed write is
    // visible; at most now_ when none is in flight.
    std::array<uint64_t, isa::kNumIntRegs> readyAt_{};
    uint64_t now_ = 0; // active cycles with a write in flight
};

} // namespace mtfpu::cpu

#endif // MTFPU_CPU_CPU_HH
