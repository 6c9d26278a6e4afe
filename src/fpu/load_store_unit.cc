#include "fpu/load_store_unit.hh"

#include <string>

#include "common/log.hh"
#include "isa/fpu_instr.hh"

namespace mtfpu::fpu
{

void
LoadStoreUnit::visit(Archive &ar)
{
    // 13 bytes per saved load: cycles left, register, value.
    ring_.visit(ar, 13, "LoadStoreUnit: two loads",
                [&](Load &load, uint32_t left) {
        ar.u8(load.reg);
        ar.u64(load.value);
        if (ar.loading() && (left == 0 || left > kLoadLatency ||
                             load.reg >= isa::kNumFpuRegs))
            fatal(ErrCode::BadSnapshot,
                  "LoadStoreUnit: in-flight load with " +
                      std::to_string(left) + " cycles left to f" +
                      std::to_string(load.reg));
    });
}

} // namespace mtfpu::fpu
