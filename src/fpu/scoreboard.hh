/**
 * @file
 * The register write reservation table (paper §2.3.1): one bit per
 * register, set when an outstanding ALU operation will write that
 * register, cleared when the operation retires. Loads and stores read
 * the table through their own port but never set bits.
 *
 * Everything is defined inline: reserved() sits on the per-element
 * issue path (several probes per simulated cycle), so it must compile
 * down to a bit test.
 */

#ifndef MTFPU_FPU_SCOREBOARD_HH
#define MTFPU_FPU_SCOREBOARD_HH

#include <bitset>
#include <string>

#include "common/bytestream.hh"
#include "common/log.hh"
#include "isa/fpu_instr.hh"

namespace mtfpu::fpu
{

/** The one-bit-per-register reservation table. */
class Scoreboard
{
  public:
    /** Set the reservation bit at ALU element issue. */
    void
    reserve(unsigned reg)
    {
        if (reg >= isa::kNumFpuRegs)
            fatal(ErrCode::RegFileRange,
                  "Scoreboard: reserve of f" + std::to_string(reg) +
                      " (register file holds f0..f" +
                      std::to_string(isa::kNumFpuRegs - 1) + ")");
        if (bits_[reg])
            panic("Scoreboard: double reservation of f" +
                  std::to_string(reg));
        bits_[reg] = true;
    }

    /** Clear the reservation bit at ALU operation retire. */
    void
    release(unsigned reg)
    {
        if (reg >= isa::kNumFpuRegs)
            fatal(ErrCode::RegFileRange,
                  "Scoreboard: release of f" + std::to_string(reg) +
                      " (register file holds f0..f" +
                      std::to_string(isa::kNumFpuRegs - 1) + ")");
        if (!bits_[reg])
            panic("Scoreboard: release of unreserved f" +
                  std::to_string(reg));
        bits_[reg] = false;
    }

    /** True if an outstanding ALU write targets @p reg. */
    bool
    reserved(unsigned reg) const
    {
        if (reg >= isa::kNumFpuRegs)
            fatal(ErrCode::RegFileRange,
                  "Scoreboard: probe of f" + std::to_string(reg) +
                      " (register file holds f0..f" +
                      std::to_string(isa::kNumFpuRegs - 1) + ")");
        return bits_[reg];
    }

    /** Clear every bit. */
    void clear() { bits_.reset(); }

    /** Number of set bits (for invariants in tests). */
    size_t count() const { return bits_.count(); }

    /** Visit the bits as one u64, f0 in bit 0; loading drops bits
     *  past f51. */
    void
    visit(Archive &ar)
    {
        uint64_t bits = bits_.to_ullong();
        ar.u64(bits);
        if (ar.loading())
            bits_ = std::bitset<isa::kNumFpuRegs>(bits);
    }

  private:
    std::bitset<isa::kNumFpuRegs> bits_;
};

} // namespace mtfpu::fpu

#endif // MTFPU_FPU_SCOREBOARD_HH
