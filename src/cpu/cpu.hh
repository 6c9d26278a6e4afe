/**
 * @file
 * CPU architectural state: the integer register file with load-delay
 * interlock tracking, the program counter, and branch-delay-slot
 * redirect state. Issue policy lives in the Machine, which drives
 * this state cycle by cycle.
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
#include <string>
#include <vector>

#include "common/bytestream.hh"
#include "common/log.hh"
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
    // once per issued instruction on the Machine's hot path.

    /** Read a register (r0 reads as zero). */
    uint64_t
    readReg(unsigned reg) const
    {
        if (reg >= isa::kNumIntRegs)
            fatal(ErrCode::RegFileRange,
                  "Cpu: read of r" + std::to_string(reg));
        return reg == 0 ? 0 : regs_[reg];
    }

    /** Write a register immediately (ALU results; r0 discarded). */
    void
    writeReg(unsigned reg, uint64_t value)
    {
        if (reg >= isa::kNumIntRegs)
            fatal(ErrCode::RegFileRange,
                  "Cpu: write of r" + std::to_string(reg));
        if (reg != 0)
            regs_[reg] = value;
    }

    /**
     * Schedule a delayed write (loads, mvfc): visible to instructions
     * issuing @p delay active cycles after this one.
     */
    void
    scheduleWrite(unsigned reg, uint64_t value, unsigned delay)
    {
        if (reg == 0)
            return;
        if (delay == 0) {
            writeReg(reg, value);
            return;
        }
        pending_.push_back(
            Pending{delay, static_cast<uint8_t>(reg), value});
    }

    /** True if no in-flight delayed write targets @p reg. */
    bool
    regReady(unsigned reg) const
    {
        for (const Pending &p : pending_) {
            if (p.reg == reg)
                return false;
        }
        return true;
    }

    /** Advance one active cycle: complete due delayed writes. */
    void
    advance()
    {
        if (pending_.empty())
            return;
        advanceSlow();
    }

    /** True while any delayed write is in flight. */
    bool pendingWrites() const { return !pending_.empty(); }

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
    struct Pending
    {
        unsigned remaining;
        uint8_t reg;
        uint64_t value;
    };

    /** Out-of-line tail of advance(): retire due delayed writes. */
    void advanceSlow();

    std::array<uint64_t, isa::kNumIntRegs> regs_{};
    std::vector<Pending> pending_;
};

} // namespace mtfpu::cpu

#endif // MTFPU_CPU_CPU_HH
