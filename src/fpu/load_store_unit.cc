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
LoadStoreUnit::visit(Archive &ar)
{
    ar.count(pending_, 13); // bytes per saved load
    for (PendingLoad &l : pending_) {
        ar.u32(l.remaining);
        ar.u8(l.reg);
        ar.u64(l.value);
        if (ar.loading() && (l.remaining == 0 || l.remaining > kLoadLatency ||
                             l.reg >= isa::kNumFpuRegs))
            fatal(ErrCode::BadSnapshot,
                  "LoadStoreUnit: in-flight load with " +
                      std::to_string(l.remaining) + " cycles left to f" +
                      std::to_string(l.reg));
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
