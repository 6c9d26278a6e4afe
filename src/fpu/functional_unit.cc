#include "fpu/functional_unit.hh"

#include <string>

#include "common/log.hh"

namespace mtfpu::fpu
{

FunctionalUnits::FunctionalUnits(unsigned latency)
    : ring_(latency)
{
    if (latency == 0)
        fatal("FunctionalUnits: latency must be at least 1");
}

void
FunctionalUnits::visit(Archive &ar)
{
    // 23 bytes per saved op: stages left, then the fields below.
    ring_.visit(ar, 23, "FunctionalUnits: two ops",
                [&](PendingOp &op, uint32_t left) {
        ar.u8(op.reg);
        ar.u64(op.value);
        op.flags.visit(ar);
        ar.enumU8(op.op, isa::FpOp::Recip, "FunctionalUnits: op");
        ar.u64(op.seq);
        // An op is saved between 1 and latency stages from writeback.
        if (ar.loading() && (left == 0 || left > latency() ||
                             op.reg >= isa::kNumFpuRegs))
            fatal(ErrCode::BadSnapshot,
                  "FunctionalUnits: in-flight op with " +
                      std::to_string(left) + " stages left to f" +
                      std::to_string(op.reg) + " (latency " +
                      std::to_string(latency()) + ")");
    });
}

} // namespace mtfpu::fpu
