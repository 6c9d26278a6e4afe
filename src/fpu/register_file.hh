/**
 * @file
 * The unified vector/scalar register file: 52 general-purpose 64-bit
 * registers (paper §2.1). Vectors are simply runs of consecutive
 * registers; there is no separate vector register bank. The file has
 * four ports (A, B, R, M) in hardware; port arbitration is modeled by
 * the issue logic, not here.
 *
 * read() and write() are inline — they run several times per
 * simulated cycle on the element issue and retire paths — and compile
 * to a bounds check plus the access; the out-of-range message is built
 * out of line.
 */

#ifndef MTFPU_FPU_REGISTER_FILE_HH
#define MTFPU_FPU_REGISTER_FILE_HH

#include <array>
#include <cstdint>

#include "common/bytestream.hh"
#include "isa/fpu_instr.hh"

namespace mtfpu::fpu
{

/** 52 x 64-bit storage with bounds-checked access. */
class RegisterFile
{
  public:
    /** Read register @p reg. */
    uint64_t
    read(unsigned reg) const
    {
        if (reg >= isa::kNumFpuRegs)
            rangeError("read", reg);
        return regs_[reg];
    }

    /** Write register @p reg. */
    void
    write(unsigned reg, uint64_t value)
    {
        if (reg >= isa::kNumFpuRegs)
            rangeError("write", reg);
        regs_[reg] = value;
    }

    /** Read as a host double (same bit layout). */
    double readDouble(unsigned reg) const;

    /** Write from a host double. */
    void writeDouble(unsigned reg, double value);

    /** Zero every register. */
    void clear() { regs_.fill(0); }

    void
    visit(Archive &ar)
    {
        for (uint64_t &r : regs_)
            ar.u64(r);
    }

  private:
    [[noreturn]] static void rangeError(const char *access, unsigned reg);

    std::array<uint64_t, isa::kNumFpuRegs> regs_{};
};

} // namespace mtfpu::fpu

#endif // MTFPU_FPU_REGISTER_FILE_HH
