#include "fpu/functional_unit.hh"

#include <algorithm>

#include "common/log.hh"
#include "fpu/register_file.hh"
#include "fpu/scoreboard.hh"

namespace mtfpu::fpu
{

FunctionalUnits::FunctionalUnits(unsigned latency)
    : latency_(latency)
{
    if (latency == 0)
        fatal("FunctionalUnits: latency must be at least 1");
}

void
FunctionalUnits::issue(isa::FpOp op, unsigned reg, uint64_t value,
                       const softfp::Flags &flags, uint64_t seq)
{
    inflight_.push_back(PendingOp{latency_, static_cast<uint8_t>(reg),
                                  value, flags, op, seq});
}

const std::vector<PendingOp> &
FunctionalUnits::advanceSlow(RegisterFile &regs, Scoreboard &sb)
{
    retired_.clear();
    for (auto &op : inflight_) {
        if (--op.remaining == 0) {
            regs.write(op.reg, op.value);
            sb.release(op.reg);
            retired_.push_back(op);
        }
    }
    std::erase_if(inflight_,
                  [](const PendingOp &op) { return op.remaining == 0; });
    return retired_;
}

void
FunctionalUnits::visit(Archive &ar)
{
    if (ar.loading())
        retired_.clear();
    ar.count(inflight_, 23); // bytes per saved op
    for (PendingOp &op : inflight_) {
        ar.u32(op.remaining);
        ar.u8(op.reg);
        ar.u64(op.value);
        op.flags.visit(ar);
        ar.enumU8(op.op, isa::FpOp::Recip, "FunctionalUnits: op");
        ar.u64(op.seq);
        // An op is saved between 1 and latency_ stages from writeback;
        // remaining == 0 would wrap in advance() and never retire.
        if (ar.loading() && (op.remaining == 0 || op.remaining > latency_ ||
                             op.reg >= isa::kNumFpuRegs))
            fatal(ErrCode::BadSnapshot,
                  "FunctionalUnits: in-flight op with " +
                      std::to_string(op.remaining) + " stages left to f" +
                      std::to_string(op.reg) + " (latency " +
                      std::to_string(latency_) + ")");
    }
}

} // namespace mtfpu::fpu
