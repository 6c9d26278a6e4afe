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
Cpu::saveState(ByteWriter &out) const
{
    for (const uint64_t r : regs_)
        out.u64(r);
    out.u32(static_cast<uint32_t>(pending_.size()));
    for (const Pending &p : pending_) {
        out.u32(p.remaining);
        out.u8(p.reg);
        out.u64(p.value);
    }
    out.u32(pc);
    out.b(redirect.has_value());
    out.u32(redirect.value_or(0));
    out.b(halted);
}

void
Cpu::restoreState(ByteReader &in)
{
    for (uint64_t &r : regs_)
        r = in.u64();
    pending_.clear();
    const uint32_t n = in.count(13); // bytes per saved write
    pending_.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
        Pending p;
        p.remaining = in.u32();
        p.reg = in.u8();
        p.value = in.u64();
        if (p.remaining == 0 || p.remaining > kWriteDelay ||
            p.reg == 0 || p.reg >= isa::kNumIntRegs)
            fatal(ErrCode::BadSnapshot,
                  "Cpu: delayed write with " + std::to_string(p.remaining) +
                      " cycles left to r" + std::to_string(p.reg));
        pending_.push_back(p);
    }
    pc = in.u32();
    const bool hasRedirect = in.b();
    const uint32_t target = in.u32();
    redirect = hasRedirect ? std::optional<uint32_t>(target)
                           : std::nullopt;
    halted = in.b();
}

} // namespace mtfpu::cpu
