#include "fpu/load_store_unit.hh"

#include <algorithm>

#include "common/log.hh"
#include "fpu/register_file.hh"
#include "isa/fpu_instr.hh"

namespace mtfpu::fpu
{

void
LoadStoreUnit::issueLoad(unsigned reg, uint64_t value)
{
    pending_.push_back(
        PendingLoad{kLoadLatency, static_cast<uint8_t>(reg), value});
}

void
LoadStoreUnit::advanceSlow(RegisterFile &regs)
{
    for (auto &load : pending_) {
        if (--load.remaining == 0)
            regs.write(load.reg, load.value);
    }
    std::erase_if(pending_,
                  [](const PendingLoad &l) { return l.remaining == 0; });
}

void
LoadStoreUnit::saveState(ByteWriter &out) const
{
    out.u32(static_cast<uint32_t>(pending_.size()));
    for (const PendingLoad &l : pending_) {
        out.u32(l.remaining);
        out.u8(l.reg);
        out.u64(l.value);
    }
}

void
LoadStoreUnit::restoreState(ByteReader &in)
{
    pending_.clear();
    const uint32_t n = in.count(13); // bytes per saved load
    pending_.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
        PendingLoad l;
        l.remaining = in.u32();
        l.reg = in.u8();
        l.value = in.u64();
        if (l.remaining == 0 || l.remaining > kLoadLatency ||
            l.reg >= isa::kNumFpuRegs)
            fatal(ErrCode::BadSnapshot,
                  "LoadStoreUnit: in-flight load with " +
                      std::to_string(l.remaining) + " cycles left to f" +
                      std::to_string(l.reg));
        pending_.push_back(l);
    }
}

bool
LoadStoreUnit::pendingTo(unsigned reg) const
{
    return std::any_of(pending_.begin(), pending_.end(),
                       [reg](const PendingLoad &l) {
                           return l.reg == reg;
                       });
}

} // namespace mtfpu::fpu
