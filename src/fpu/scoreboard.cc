#include "fpu/scoreboard.hh"

#include <string>

#include "common/log.hh"

namespace mtfpu::fpu
{

uint64_t
Scoreboard::reservedWord() const
{
    uint64_t word = 0;
    for (unsigned r = 0; r < isa::kNumFpuRegs; ++r) {
        if (readyAt_[r] > now_)
            word |= uint64_t{1} << r;
    }
    return word;
}

void
Scoreboard::rangeError(const char *access, unsigned reg)
{
    fatal(ErrCode::RegFileRange,
          std::string("Scoreboard: ") + access + " of f" +
              std::to_string(reg) + " (register file holds f0..f" +
              std::to_string(isa::kNumFpuRegs - 1) + ")");
}

void
Scoreboard::doubleReservation(unsigned reg)
{
    panic("Scoreboard: double reservation of f" + std::to_string(reg));
}

} // namespace mtfpu::fpu
