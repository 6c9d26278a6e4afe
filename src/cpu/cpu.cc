#include "cpu/cpu.hh"

#include <string>

#include "common/log.hh"

namespace mtfpu::cpu
{

void
Cpu::rangeError(const char *access, unsigned reg)
{
    fatal(ErrCode::RegFileRange,
          std::string("Cpu: ") + access + " of r" + std::to_string(reg));
}

void
Cpu::reset()
{
    regs_.fill(0);
    writes_.clear();
    readyAt_.fill(0);
    now_ = 0;
    pc = 0;
    redirect.reset();
    halted = false;
}

void
Cpu::visit(Archive &ar)
{
    for (uint64_t &r : regs_)
        ar.u64(r);
    // 13 bytes per saved write: cycles left, register, value.
    writes_.visit(ar, 13, "Cpu: two delayed writes",
                  [&](Write &w, uint32_t left) {
        ar.u8(w.reg);
        ar.u64(w.value);
        if (ar.loading() && (left == 0 || left > kWriteDelay ||
                             w.reg == 0 || w.reg >= isa::kNumIntRegs))
            fatal(ErrCode::BadSnapshot,
                  "Cpu: delayed write with " + std::to_string(left) +
                      " cycles left to r" + std::to_string(w.reg));
    });
    if (ar.loading()) {
        // One write per register at a time: the interlock stalls a
        // second load or mvfc to a register until the first lands.
        readyAt_.fill(0);
        now_ = 0;
        writes_.forEach([this](const Write &w, unsigned left) {
            if (readyAt_[w.reg] != 0)
                fatal(ErrCode::BadSnapshot,
                      "Cpu: two delayed writes to r" +
                          std::to_string(w.reg));
            readyAt_[w.reg] = left;
        });
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
