#include "cpu/cpu.hh"

#include <algorithm>

namespace mtfpu::cpu
{

void
Cpu::advanceSlow()
{
    for (auto &p : pending_) {
        if (--p.remaining == 0)
            writeReg(p.reg, p.value);
    }
    std::erase_if(pending_,
                  [](const Pending &p) { return p.remaining == 0; });
}

void
Cpu::reset()
{
    regs_.fill(0);
    pending_.clear();
    pc = 0;
    redirect.reset();
    halted = false;
}

void
Cpu::visit(Archive &ar)
{
    for (uint64_t &r : regs_)
        ar.u64(r);
    ar.count(pending_, 13); // bytes per saved write
    for (Pending &p : pending_) {
        ar.u32(p.remaining);
        ar.u8(p.reg);
        ar.u64(p.value);
        if (ar.loading() && (p.remaining == 0 || p.remaining > kWriteDelay ||
                             p.reg == 0 || p.reg >= isa::kNumIntRegs))
            fatal(ErrCode::BadSnapshot,
                  "Cpu: delayed write with " + std::to_string(p.remaining) +
                      " cycles left to r" + std::to_string(p.reg));
    }
    ar.u32(pc);
    bool hasRedirect = redirect.has_value();
    uint32_t target = redirect.value_or(0);
    ar.b(hasRedirect);
    ar.u32(target);
    if (ar.loading())
        redirect = hasRedirect ? std::optional<uint32_t>(target)
                               : std::nullopt;
    ar.b(halted);
}

} // namespace mtfpu::cpu
