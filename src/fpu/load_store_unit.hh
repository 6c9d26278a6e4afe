/**
 * @file
 * The FPU load/store instruction register path (paper §2). FPU loads
 * and stores arrive over the 10-bit coprocessor bus and move 64-bit
 * words between the shared data cache and the register file's M port,
 * in parallel with ALU element issue. A load's data is written at the
 * end of the issue cycle and is visible to FPU operations issuing the
 * following cycle.
 */

#ifndef MTFPU_FPU_LOAD_STORE_UNIT_HH
#define MTFPU_FPU_LOAD_STORE_UNIT_HH

#include <cstdint>
#include <vector>

#include "common/bytestream.hh"

namespace mtfpu::fpu
{

class RegisterFile;

/** In-flight FPU load writes. */
class LoadStoreUnit
{
  public:
    /**
     * Enter a load issued this cycle; its data reaches the register
     * file at the start of the next active cycle.
     */
    void issueLoad(unsigned reg, uint64_t value);

    /** Apply writes that have completed; call once per active cycle.
     *  Inline empty fast path: most cycles carry no in-flight load. */
    void
    advance(RegisterFile &regs)
    {
        if (pending_.empty())
            return;
        advanceSlow(regs);
    }

    /** True if a load is still in flight to @p reg. */
    bool pendingTo(unsigned reg) const;

    /** True if any load is in flight. */
    bool busy() const { return !pending_.empty(); }

    /** Drop all in-flight state (reset). */
    void clear() { pending_.clear(); }

    /** Serialize the in-flight load writes. */
    void saveState(ByteWriter &out) const;

    /** Restore state saved by saveState(). */
    void restoreState(ByteReader &in);

  private:
    /** Active cycles from a load's issue to its register write. */
    static constexpr unsigned kLoadLatency = 1;

    struct PendingLoad
    {
        unsigned remaining;
        uint8_t reg;
        uint64_t value;
    };

    /** Out-of-line tail of advance(): retire due load writes. */
    void advanceSlow(RegisterFile &regs);

    std::vector<PendingLoad> pending_;
};

} // namespace mtfpu::fpu

#endif // MTFPU_FPU_LOAD_STORE_UNIT_HH
