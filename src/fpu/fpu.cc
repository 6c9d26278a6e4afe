#include "fpu/fpu.hh"

#include <cstdio>
#include <string>

#include "common/log.hh"
#include "exec/semantics.hh"

namespace mtfpu::fpu
{

Fpu::Fpu(unsigned latency, softfp::Backend backend)
    : units_(latency), backend_(backend)
{
}

void
Fpu::retirePswState(const PendingOp &op)
{
    // Accumulate PSW state of the retiring ALU operation. An element
    // that overflowed discards all remaining elements of its own
    // vector instruction when it retires (paper §2.3.1); elements
    // already in the pipeline behind it complete normally.
    psw_.flags.merge(op.flags);
    if (op.flags.overflow) {
        psw_.recordOverflow(op.reg);
        if (ir_.busy() && ir_.currentSeq() == op.seq) {
            stats_.squashedElements += ir_.remainingElements();
            ir_.squash();
        }
    }
}

ElementEvent
Fpu::tryIssueElementSlow()
{
    ElementEvent event;

    const uint64_t seq = ir_.currentSeq();
    ElementIssue element{};
    switch (ir_.tryIssue(sb_, element)) {
      case IssueStall::SourceBusy:
        ++stats_.sourceStallCycles;
        return event;
      case IssueStall::DestBusy:
        ++stats_.destStallCycles;
        return event;
      case IssueStall::Empty:
        return event;
      case IssueStall::None:
        break;
    }

    // Execute at issue: read the A/B ports, run the (functionally
    // instantaneous) unit, and enter the 3-cycle pipeline. The result
    // becomes architecturally visible at retirement.
    const uint64_t a = regs_.read(element.ra);
    const uint64_t b = regs_.read(element.rb);
    softfp::Flags flags;
    uint64_t value = exec::evalFpOp(element.op, a, b, flags, backend_);

    if (corruptArmed_) {
        value ^= corruptResultXor_;
        flags.overflow ^= (corruptFlagXor_ & 0x01) != 0;
        flags.underflow ^= (corruptFlagXor_ & 0x02) != 0;
        flags.inexact ^= (corruptFlagXor_ & 0x04) != 0;
        flags.invalid ^= (corruptFlagXor_ & 0x08) != 0;
        flags.divByZero ^= (corruptFlagXor_ & 0x10) != 0;
        corruptArmed_ = false;
    }

    sb_.reserve(element.rr, units_.latency());
    units_.issue(element.op, element.rr, value, flags, seq);

    ++stats_.elementsIssued;
    ++stats_.opCounts[static_cast<unsigned>(element.op)];
    elementIssuedThisCycle_ = true;

    event.issued = true;
    event.element = element;
    return event;
}

bool
Fpu::canTransferAlu() const
{
    return !ir_.busy() && !elementIssuedThisCycle_;
}

void
Fpu::transferAlu(const isa::FpuAluInstr &instr)
{
    if (!canTransferAlu())
        panic("Fpu::transferAlu: ALU IR not ready");
    ir_.transfer(instr, nextSeq_++);
    if (instr.length() > 1)
        ++stats_.vectorInstructions;
    else
        ++stats_.scalarInstructions;
}

bool
Fpu::transferStall(unsigned reg) const
{
    return sb_.reserved(reg);
}

void
Fpu::issueLoad(unsigned reg, uint64_t value)
{
    if (transferStall(reg))
        panic("Fpu::issueLoad: load issued against a reserved register");
    lsu_.issueLoad(reg, value);
}

uint64_t
Fpu::readForTransfer(unsigned reg) const
{
    return regs_.read(reg);
}

bool
Fpu::currentElementInterlock(unsigned reg, bool include_sources) const
{
    return ir_.currentTouches(reg, include_sources);
}

bool
Fpu::hazardWithUnissued(unsigned reg, bool include_sources) const
{
    return ir_.touchesBeyondCurrent(reg, include_sources);
}

bool
Fpu::busy() const
{
    return ir_.busy() || units_.busy() || lsu_.busy();
}

void
Fpu::reset()
{
    regs_.clear();
    sb_.clear();
    units_.clear();
    ir_.clear();
    lsu_.clear();
    psw_.clear();
    stats_ = FpuStats{};
    nextSeq_ = 1;
    elementIssuedThisCycle_ = false;
    corruptArmed_ = false;
    corruptResultXor_ = 0;
    corruptFlagXor_ = 0;
}

void
Fpu::restoreScoreboard(uint64_t reserved)
{
    // Each reservation belongs to the one op in flight to its
    // register and lapses at that op's writeback.
    sb_.clear();
    units_.forEach([this](const PendingOp &op, unsigned left) {
        if (sb_.reserved(op.reg))
            fatal(ErrCode::BadSnapshot,
                  "FunctionalUnits: two in-flight ops to f" +
                      std::to_string(op.reg));
        sb_.reserve(op.reg, left);
    });
    if (sb_.reservedWord() != reserved) {
        char msg[112];
        std::snprintf(msg, sizeof(msg),
                      "Scoreboard: reservation word 0x%llx, but the ops in "
                      "flight write 0x%llx",
                      static_cast<unsigned long long>(reserved),
                      static_cast<unsigned long long>(sb_.reservedWord()));
        fatal(ErrCode::BadSnapshot, msg);
    }
}

void
Fpu::visit(Archive &ar)
{
    regs_.visit(ar);
    // The scoreboard travels as its reservation word (f0 in bit 0)
    // ahead of the ops that made the reservations; loading rebuilds
    // the ready-at times from the ops.
    uint64_t reserved = sb_.reservedWord();
    ar.u64(reserved);
    units_.visit(ar);
    if (ar.loading())
        restoreScoreboard(reserved);
    ir_.visit(ar);
    lsu_.visit(ar);
    psw_.flags.visit(ar);
    ar.b(psw_.overflowValid);
    ar.u8(psw_.overflowReg);
    stats_.visit(ar);
    ar.u64(nextSeq_);
    ar.b(elementIssuedThisCycle_);
    ar.b(corruptArmed_);
    ar.u64(corruptResultXor_);
    ar.u8(corruptFlagXor_);
}

} // namespace mtfpu::fpu
