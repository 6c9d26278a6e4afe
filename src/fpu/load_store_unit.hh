/**
 * @file
 * The FPU load/store instruction register path (paper §2). FPU loads
 * and stores arrive over the 10-bit coprocessor bus and move 64-bit
 * words between the shared data cache and the register file's M port,
 * in parallel with ALU element issue. A load's data is written at the
 * end of the issue cycle and is visible to FPU operations issuing the
 * following cycle. The one memory port issues at most one load per
 * cycle, so at most one load write is ever in flight: the unit is a
 * one-slot ring.
 */

#ifndef MTFPU_FPU_LOAD_STORE_UNIT_HH
#define MTFPU_FPU_LOAD_STORE_UNIT_HH

#include <cstdint>

#include "common/bytestream.hh"
#include "common/delay_ring.hh"
#include "fpu/register_file.hh"

namespace mtfpu::fpu
{

/** The in-flight FPU load write. */
class LoadStoreUnit
{
  public:
    /**
     * Enter a load issued this cycle; its data reaches the register
     * file at the start of the next active cycle.
     */
    void
    issueLoad(unsigned reg, uint64_t value)
    {
        ring_.push(Load{static_cast<uint8_t>(reg), value});
    }

    /** Apply the load write that has completed, if any; call once per
     *  active cycle. */
    void
    advance(RegisterFile &regs)
    {
        if (const Load *load = ring_.advance())
            regs.write(load->reg, load->value);
    }

    /** True if a load is in flight. */
    bool busy() const { return ring_.busy(); }

    /** Drop all in-flight state (reset). */
    void clear() { ring_.clear(); }

    /** Visit the in-flight load write. */
    void visit(Archive &ar);

  private:
    /** Active cycles from a load's issue to its register write. */
    static constexpr unsigned kLoadLatency = 1;

    struct Load
    {
        uint8_t reg;
        uint64_t value;
    };

    DelayRing<Load> ring_{kLoadLatency};
};

} // namespace mtfpu::fpu

#endif // MTFPU_FPU_LOAD_STORE_UNIT_HH
