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
FunctionalUnits::saveState(ByteWriter &out) const
{
    out.u32(static_cast<uint32_t>(inflight_.size()));
    for (const PendingOp &op : inflight_) {
        out.u32(op.remaining);
        out.u8(op.reg);
        out.u64(op.value);
        out.u8(op.flags.toBits());
        out.u8(static_cast<uint8_t>(op.op));
        out.u64(op.seq);
    }
}

void
FunctionalUnits::restoreState(ByteReader &in)
{
    inflight_.clear();
    retired_.clear();
    const uint32_t n = in.count(23); // bytes per saved op
    inflight_.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
        PendingOp op;
        op.remaining = in.u32();
        op.reg = in.u8();
        op.value = in.u64();
        op.flags = softfp::Flags::fromBits(in.u8());
        op.op = static_cast<isa::FpOp>(in.u8());
        op.seq = in.u64();
        // An op is saved between 1 and latency_ stages from writeback;
        // remaining == 0 would wrap in advance() and never retire.
        if (op.remaining == 0 || op.remaining > latency_ ||
            op.reg >= isa::kNumFpuRegs)
            fatal(ErrCode::BadSnapshot,
                  "FunctionalUnits: in-flight op with " +
                      std::to_string(op.remaining) + " stages left to f" +
                      std::to_string(op.reg) + " (latency " +
                      std::to_string(latency_) + ")");
        inflight_.push_back(op);
    }
}

} // namespace mtfpu::fpu
