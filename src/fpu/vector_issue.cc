#include "fpu/vector_issue.hh"

#include "common/log.hh"
#include "exec/semantics.hh"
#include "fpu/scoreboard.hh"

namespace mtfpu::fpu
{

void
AluInstructionRegister::transfer(const isa::FpuAluInstr &instr,
                                 uint64_t seq)
{
    if (busy())
        panic("AluInstructionRegister: transfer while busy");
    current_ = Live{instr.op, instr.rr, instr.ra, instr.rb, instr.vlm1,
                    instr.sra, instr.srb, seq};
    restartProbe();
}

void
AluInstructionRegister::squash()
{
    clear();
}

void
AluInstructionRegister::specifierOverflow()
{
    fatal("vector element specifier incremented past f51");
}

bool
AluInstructionRegister::currentTouches(unsigned reg,
                                       bool include_sources) const
{
    if (!current_)
        return false;
    const Live &live = *current_;
    if (reg == live.rr)
        return true;
    if (!include_sources)
        return false;
    if (reg == live.ra)
        return true;
    return !exec::fpOpIsUnary(live.op) && reg == live.rb;
}

bool
AluInstructionRegister::touchesBeyondCurrent(unsigned reg,
                                             bool include_sources) const
{
    if (!current_ || current_->vl == 0)
        return false;
    const Live &live = *current_;
    const unsigned n = live.vl; // elements beyond the current one
    // The element after the current one starts at rr+1 (and ra+1/rb+1
    // when strided).
    if (reg >= live.rr + 1u && reg <= live.rr + n)
        return true;
    if (!include_sources)
        return false;
    if (live.sra && reg >= live.ra + 1u && reg <= live.ra + n)
        return true;
    if (!exec::fpOpIsUnary(live.op) && live.srb &&
        reg >= live.rb + 1u && reg <= live.rb + n) {
        return true;
    }
    return false;
}

unsigned
AluInstructionRegister::remainingElements() const
{
    return current_ ? current_->vl + 1u : 0u;
}

void
AluInstructionRegister::visit(Archive &ar)
{
    bool occupied = current_.has_value();
    ar.b(occupied);
    if (ar.loading()) {
        current_ = occupied ? std::optional<Live>(Live{}) : std::nullopt;
        restartProbe();
    }
    if (!occupied)
        return;
    Live &live = *current_;
    ar.enumU8(live.op, isa::FpOp::Recip, "AluInstructionRegister: op");
    ar.u8(live.rr);
    ar.u8(live.ra);
    ar.u8(live.rb);
    ar.u8(live.vl);
    ar.b(live.sra);
    ar.b(live.srb);
    ar.u64(live.seq);
    if (ar.loading() &&
        (live.rr >= isa::kNumFpuRegs || live.ra >= isa::kNumFpuRegs ||
         live.rb >= isa::kNumFpuRegs || live.vl >= isa::kMaxVectorLength))
        fatal(ErrCode::BadSnapshot,
              "AluInstructionRegister: f" + std::to_string(live.rr) +
                  " := f" + std::to_string(live.ra) + ", f" +
                  std::to_string(live.rb) + " with VL field " +
                  std::to_string(live.vl));
}

} // namespace mtfpu::fpu
