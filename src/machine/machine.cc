#include "machine/machine.hh"

#include <algorithm>
#include <chrono>

#include "common/log.hh"
#include "exec/semantics.hh"
#include "faults/fault_injector.hh"

namespace mtfpu::machine
{

using isa::Instr;
using isa::Major;

Machine::Machine(const MachineConfig &config)
    : config_(config), memsys_(config.memory),
      fpu_(config.fpuLatency, config.fpBackend)
{
}

void
Machine::loadProgram(assembler::Program program)
{
    program_ = std::move(program);
    predecode();
    resetForRun(true);
}

void
Machine::predecode()
{
    code_.clear();
    code_.reserve(program_.code.size());
    for (uint32_t pc = 0; pc < program_.code.size(); ++pc) {
        const Instr &in = program_.code[pc];

        // Static control-flow validation: a pc-relative target outside
        // the program can only ever fault (PC runaway), so reject the
        // image at load time with a structured error instead.
        if (in.major == Major::Branch ||
            (in.major == Major::Jump && (in.jkind == isa::JumpKind::J ||
                                         in.jkind == isa::JumpKind::Jal))) {
            const int64_t target = static_cast<int64_t>(pc) + in.imm;
            if (target < 0 ||
                target >= static_cast<int64_t>(program_.code.size())) {
                fatal(ErrCode::BadProgram,
                      "Machine: control transfer at pc=" +
                          std::to_string(pc) + " targets " +
                          std::to_string(target) +
                          ", outside the program (size " +
                          std::to_string(program_.code.size()) + ")");
            }
        }

        IssueSlot slot;
        slot.major = in.major;
        slot.func = in.func;
        slot.cond = in.cond;
        slot.jkind = in.jkind;
        slot.rd = in.rd;
        slot.rs1 = in.rs1;
        slot.rs2 = in.rs2;
        slot.fr = in.fr;
        slot.imm64 = in.major == Major::Lui
                         ? exec::evalLui(in.imm)
                         : static_cast<uint64_t>(
                               static_cast<int64_t>(in.imm));
        slot.target = pc + in.imm;
        slot.link = exec::linkAddress(pc);
        slot.fetchAddr = static_cast<uint64_t>(pc) * 4;
        slot.fp = in.fp;
        slot.raw = &program_.code[pc];
        code_.push_back(slot);
    }
}

void
Machine::resetForRun(bool flush_caches)
{
    cpu_.reset();
    fpu_.reset();
    memPortFreeAt_ = 0;
    fetchedPc_ = -1;
    globalStall_ = 0;
    interruptAt_ = UINT64_MAX;
    interruptLen_ = 0;
    nextCycle_ = 0;
    stats_ = RunStats{};
    collector_.reset();
    memsys_.resetStats();
    if (flush_caches)
        memsys_.flushAll();
}

void
Machine::addObserver(exec::ExecObserver *observer)
{
    if (observer)
        observers_.push_back(observer);
    hasObservers_ = !observers_.empty();
}

void
Machine::removeObserver(exec::ExecObserver *observer)
{
    observers_.erase(
        std::remove(observers_.begin(), observers_.end(), observer),
        observers_.end());
    hasObservers_ = !observers_.empty();
}

// Event fan-out. The built-in StatsCollector is a direct (devirtualized)
// call; the registered-observer loops are skipped outright through the
// cached hasObservers_ flag, so an unobserved simulation pays nothing
// per event beyond the collector's counter updates.

void
Machine::notifyCycle(uint64_t cycle)
{
    collector_.onCycle(cycle);
    if (hasObservers_) {
        for (exec::ExecObserver *o : observers_)
            o->onCycle(cycle);
    }
}

void
Machine::notifyIssue(const exec::IssueEvent &event)
{
    collector_.onIssue(event);
    if (hasObservers_) {
        for (exec::ExecObserver *o : observers_)
            o->onIssue(event);
    }
}

void
Machine::notifyElement(const exec::ElementEvent &event)
{
    collector_.onElement(event);
    if (hasObservers_) {
        for (exec::ExecObserver *o : observers_)
            o->onElement(event);
    }
}

void
Machine::notifyMemAccess(const exec::MemAccessEvent &event)
{
    collector_.onMemAccess(event);
    if (hasObservers_) {
        for (exec::ExecObserver *o : observers_)
            o->onMemAccess(event);
    }
}

void
Machine::notifyRetire(const exec::RetireEvent &event)
{
    collector_.onRetire(event);
    if (hasObservers_) {
        for (exec::ExecObserver *o : observers_)
            o->onRetire(event);
    }
}

void
Machine::notifyStall(const exec::StallEvent &event)
{
    collector_.onStall(event);
    if (hasObservers_) {
        for (exec::ExecObserver *o : observers_)
            o->onStall(event);
    }
}

void
Machine::notifyRunEnd(uint64_t cycles)
{
    collector_.onRunEnd(cycles);
    if (hasObservers_) {
        for (exec::ExecObserver *o : observers_)
            o->onRunEnd(cycles);
    }
}

void
Machine::emitElement(uint64_t cycle, const fpu::ElementIssue &element)
{
    exec::ElementEvent event;
    event.cycle = cycle;
    event.op = element.op;
    event.rr = element.rr;
    event.ra = element.ra;
    event.rb = element.rb;
    event.last = element.last;
    event.latency = fpu_.latency();
    notifyElement(event);
}

RunStats
Machine::run()
{
    if (code_.empty())
        fatal(ErrCode::NoProgram, "Machine::run: no program loaded");
    return runLoop(UINT64_MAX);
}

RunStats
Machine::runUntil(uint64_t stop_cycle)
{
    if (code_.empty())
        fatal(ErrCode::NoProgram, "Machine::runUntil: no program loaded");
    return runLoop(stop_cycle);
}

void
Machine::stampErrContext(SimError &err, uint64_t cycle) const
{
    // Stamp the context an inner throw site (register file,
    // scoreboard, memory, decode) couldn't know: the cycle and PC of
    // death plus the faulting instruction word. Only fields the site
    // left unknown are filled.
    ErrContext context;
    context.cycle = static_cast<int64_t>(cycle);
    if (cpu_.pc < code_.size()) {
        context.pc = static_cast<int64_t>(cpu_.pc);
        context.instr = static_cast<int64_t>(code_[cpu_.pc].raw->encode());
    }
    err.supplyContext(context);
}

RunStats
Machine::finishRun(uint64_t cycle, RunStatus status)
{
    nextCycle_ = cycle;
    stats_.cycles = cycle > 0 ? cycle - 1 : 0;
    collector_.fill(stats_);
    stats_.fpu = fpu_.stats();
    stats_.dataCache = memsys_.dataStats();
    stats_.instrBuffer = memsys_.instrBufferStats();
    stats_.instrCache = memsys_.instrCacheStats();
    stats_.status = status;
    // onRunEnd's contract is "halted and drained"; a guarded partial
    // run never reached that state, so observers (in particular the
    // lockstep final-state comparison) must not fire on it.
    if (status == RunStatus::Ok)
        notifyRunEnd(stats_.cycles);
    return stats_;
}

RunStats
Machine::runLoop(uint64_t stop_cycle)
{
    // The cycle counter stays a plain local (not a by-reference out
    // parameter) so the optimizer can keep it in a register across
    // the loop; the catch below still sees the current value for
    // context stamping because it is in the same frame. Resumes where
    // the previous run()/runUntil() on this program left off.
    uint64_t cycle = nextCycle_;

    // Loop-invariant limits, hoisted out of the per-cycle path. The
    // maxCycles guard takes priority over a runUntil() pause.
    const uint64_t max_cycles = config_.maxCycles;
    const uint64_t limit = std::min(max_cycles, stop_cycle);

    // Wall-clock watchdog: sample the clock every kWatchdogStride
    // cycles. Disabled, it degrades to one always-false compare
    // against UINT64_MAX per cycle.
    constexpr uint64_t kWatchdogStride = 1ull << 22;
    using Clock = std::chrono::steady_clock;
    Clock::time_point watchdog_deadline{};
    uint64_t watchdog_check_at = UINT64_MAX;
    if (config_.watchdogMs > 0) {
        watchdog_deadline =
            Clock::now() + std::chrono::milliseconds(config_.watchdogMs);
        watchdog_check_at = cycle + kWatchdogStride;
    }

    try {
    for (;;) {
        if (cycle >= max_cycles)
            return finishRun(cycle, RunStatus::CycleGuard);
        if (cycle >= stop_cycle)
            return finishRun(cycle, RunStatus::Paused);
        if (cycle >= watchdog_check_at) {
            watchdog_check_at = cycle + kWatchdogStride;
            if (Clock::now() >= watchdog_deadline)
                return finishRun(cycle, RunStatus::Watchdog);
        }

        // Lock-step global stall: every pipeline is frozen and no
        // event fires (the access that caused it carried its length
        // as MemAccessEvent::penalty), so the whole stall is burned in
        // one step — capped at the guard/pause limit, preserving the
        // remainder so a paused machine resumes mid-stall
        // bit-identically.
        if (globalStall_ > 0) {
            const uint64_t burn = std::min(globalStall_, limit - cycle);
            collector_.addMemoryStalls(burn);
            cycle += burn;
            globalStall_ -= burn;
            continue;
        }

        // Done when the CPU has halted and all pipelines drained.
        if (cpu_.halted && !fpu_.busy() && !cpu_.pendingWrites())
            break;

        notifyCycle(cycle);

        // The mutating hook (fault injection) runs after observers
        // have seen the cycle boundary — a lockstep checker snapshots
        // its shadow state at the first cycle event, so even a cycle-0
        // fault strikes *after* the clean-state snapshot and stays
        // detectable — but before any issue or retirement, so the
        // corruption is architecturally visible within this cycle.
        if (hook_)
            hook_->onCycleStart(cycle, *this);

        // Retirements first: results written back this cycle are
        // architecturally visible to everything issued below.
        for (const fpu::PendingOp &op : fpu_.beginCycle()) {
            exec::RetireEvent retire;
            retire.cycle = cycle;
            retire.op = op.op;
            retire.reg = op.reg;
            retire.value = op.value;
            retire.overflowed = op.flags.overflow;
            notifyRetire(retire);
        }
        cpu_.advance();

        // The occupied ALU IR issues one element per cycle...
        const fpu::ElementEvent ev = fpu_.tryIssueElement();
        if (ev.issued)
            emitElement(cycle, ev.element);

        // ...while the CPU issues in parallel (unless a modeled
        // interrupt has diverted it to a handler, §2.3.1 — the FPU's
        // element re-issue above is unaffected).
        const bool interrupted =
            cycle >= interruptAt_ && cycle < interruptAt_ + interruptLen_;
        if (!cpu_.halted && !interrupted)
            tryCpuIssue(cycle);

        ++cycle;
    }
    } catch (SimError &err) {
        stampErrContext(err, cycle);
        throw;
    }

    return finishRun(cycle, RunStatus::Ok);
}

void
Machine::finishIssue(bool redirect_pending)
{
    // The issued instruction leaves the fetch stage; the next PC must
    // access the instruction buffer afresh (even if it is the same
    // address, as in a one-instruction loop).
    fetchedPc_ = -1;
    if (redirect_pending) {
        // This instruction was the delay slot of a taken branch.
        cpu_.pc = *cpu_.redirect;
        cpu_.redirect.reset();
    } else {
        ++cpu_.pc;
    }
}

bool
Machine::stallCpu(uint64_t cycle)
{
    notifyStall(exec::StallEvent{cycle});
    return false;
}

bool
Machine::handleHazard(uint64_t cycle, unsigned reg, bool include_sources)
{
    if (!fpu_.hazardWithUnissued(reg, include_sources))
        return true;
    switch (config_.hazardPolicy) {
      case HazardPolicy::Fatal:
        fatal(ErrCode::HazardViolation,
              "load/store of f" + std::to_string(reg) +
                  " races with an unissued vector element (pc=" +
                  std::to_string(cpu_.pc) + ", cycle=" +
                  std::to_string(cycle) + "); the compiler must break "
                  "the vector (paper §2.3.2)",
              ErrContext{static_cast<int64_t>(cycle),
                         static_cast<int64_t>(cpu_.pc),
                         ErrContext::kUnknown});
      case HazardPolicy::Stall:
        stallCpu(cycle);
        return false;
      case HazardPolicy::Ignore:
        return true;
    }
    return true;
}

bool
Machine::tryCpuIssue(uint64_t cycle)
{
    if (cpu_.pc >= code_.size())
        fatal(ErrCode::PcRunaway,
              "Machine: PC " + std::to_string(cpu_.pc) +
                  " ran past the end of the program (missing halt?)",
              ErrContext{static_cast<int64_t>(cycle),
                         static_cast<int64_t>(cpu_.pc),
                         ErrContext::kUnknown});

    // Single-issue ablation: nothing issues while the IR is busy.
    if (!config_.overlapWithVector && fpu_.aluIrBusy())
        return stallCpu(cycle);

    const IssueSlot &in = code_[cpu_.pc];

    // Instruction fetch through the instruction buffer (charged once
    // per PC value).
    if (fetchedPc_ != static_cast<int64_t>(cpu_.pc)) {
        fetchedPc_ = static_cast<int64_t>(cpu_.pc);
        const unsigned penalty = memsys_.instrFetch(in.fetchAddr);
        notifyMemAccess(exec::MemAccessEvent{
            cycle, in.fetchAddr, exec::MemAccessKind::InstrFetch,
            penalty});
        if (penalty > 0) {
            globalStall_ = penalty;
            return stallCpu(cycle);
        }
    }

    // If a taken branch is outstanding, this instruction is its delay
    // slot; the redirect fires when it completes issue.
    const bool redirect_pending = cpu_.redirect.has_value();

    // Control-flow outcome for the issue event (branches/jumps only).
    bool branch_taken = false;

    switch (in.major) {
      case Major::Alu: {
        // regReady on the destination is the WAW interlock: a delayed
        // load/mvfc writeback still in flight would otherwise land
        // after this result and silently clobber it.
        if (!cpu_.regReady(in.rs1) || !cpu_.regReady(in.rs2) ||
            !cpu_.regReady(in.rd))
            return stallCpu(cycle);
        cpu_.writeReg(in.rd, exec::evalAlu(in.func, cpu_.readReg(in.rs1),
                                           cpu_.readReg(in.rs2)));
        break;
      }
      case Major::AluImm: {
        if (!cpu_.regReady(in.rs1) || !cpu_.regReady(in.rd))
            return stallCpu(cycle);
        cpu_.writeReg(in.rd, exec::evalAlu(in.func, cpu_.readReg(in.rs1),
                                           in.imm64));
        break;
      }
      case Major::Lui:
        if (!cpu_.regReady(in.rd))
            return stallCpu(cycle);
        cpu_.writeReg(in.rd, in.imm64);
        break;
      case Major::Ld: {
        if (!cpu_.regReady(in.rs1) || !cpu_.regReady(in.rd) ||
            memPortFreeAt_ > cycle)
            return stallCpu(cycle);
        const uint64_t addr = cpu_.readReg(in.rs1) + in.imm64;
        const unsigned penalty = memsys_.dataAccess(addr, false);
        cpu_.scheduleWrite(in.rd, memsys_.mem().read64(addr));
        memPortFreeAt_ = cycle + 1;
        if (penalty > 0)
            globalStall_ = penalty;
        notifyMemAccess(exec::MemAccessEvent{
            cycle, addr, exec::MemAccessKind::Load, penalty});
        break;
      }
      case Major::St: {
        if (!cpu_.regReady(in.rs1) || !cpu_.regReady(in.rd) ||
            memPortFreeAt_ > cycle) {
            return stallCpu(cycle);
        }
        const uint64_t addr = cpu_.readReg(in.rs1) + in.imm64;
        memsys_.mem().write64(addr, cpu_.readReg(in.rd));
        const unsigned penalty = memsys_.dataAccess(addr, true);
        memPortFreeAt_ = cycle + config_.storeCycles;
        if (penalty > 0)
            globalStall_ = penalty;
        notifyMemAccess(exec::MemAccessEvent{
            cycle, addr, exec::MemAccessKind::Store, penalty});
        break;
      }
      case Major::Ldf: {
        if (!cpu_.regReady(in.rs1) || memPortFreeAt_ > cycle)
            return stallCpu(cycle);
        if (fpu_.transferStall(in.fr))
            return stallCpu(cycle);
        if (fpu_.currentElementInterlock(in.fr, true))
            return stallCpu(cycle);
        if (!handleHazard(cycle, in.fr, true))
            return false;
        const uint64_t addr = cpu_.readReg(in.rs1) + in.imm64;
        const unsigned penalty = memsys_.dataAccess(addr, false);
        fpu_.issueLoad(in.fr, memsys_.mem().read64(addr));
        memPortFreeAt_ = cycle + 1;
        if (penalty > 0)
            globalStall_ = penalty;
        notifyMemAccess(exec::MemAccessEvent{
            cycle, addr, exec::MemAccessKind::FpLoad, penalty});
        break;
      }
      case Major::Stf: {
        if (!cpu_.regReady(in.rs1) || memPortFreeAt_ > cycle)
            return stallCpu(cycle);
        if (fpu_.transferStall(in.fr))
            return stallCpu(cycle);
        if (fpu_.currentElementInterlock(in.fr, false))
            return stallCpu(cycle);
        if (!handleHazard(cycle, in.fr, false))
            return false;
        const uint64_t addr = cpu_.readReg(in.rs1) + in.imm64;
        memsys_.mem().write64(addr, fpu_.readForTransfer(in.fr));
        const unsigned penalty = memsys_.dataAccess(addr, true);
        memPortFreeAt_ = cycle + config_.storeCycles;
        if (penalty > 0)
            globalStall_ = penalty;
        notifyMemAccess(exec::MemAccessEvent{
            cycle, addr, exec::MemAccessKind::FpStore, penalty});
        break;
      }
      case Major::FpAlu: {
        if (!fpu_.canTransferAlu())
            return stallCpu(cycle);
        fpu_.transferAlu(in.fp);
        notifyIssue(exec::IssueEvent{cycle, cpu_.pc, in.raw, false});
        const fpu::ElementEvent ev = fpu_.tryIssueElement();
        if (ev.issued)
            emitElement(cycle, ev.element);
        finishIssue(redirect_pending);
        return true;
      }
      case Major::Branch: {
        if (!cpu_.regReady(in.rs1) || !cpu_.regReady(in.rs2))
            return stallCpu(cycle);
        if (cpu_.redirect)
            fatal(ErrCode::BranchDelay,
                  "branch in a branch delay slot (pc=" +
                      std::to_string(cpu_.pc) + ")");
        if (exec::evalBranch(in.cond, cpu_.readReg(in.rs1),
                             cpu_.readReg(in.rs2))) {
            branch_taken = true;
            cpu_.redirect = in.target;
        }
        break;
      }
      case Major::Jump: {
        if (cpu_.redirect)
            fatal(ErrCode::BranchDelay,
                  "jump in a branch delay slot (pc=" +
                      std::to_string(cpu_.pc) + ")");
        // Same effect as exec::evalJump, from predecoded fields.
        switch (in.jkind) {
          case isa::JumpKind::J:
            cpu_.redirect = in.target;
            break;
          case isa::JumpKind::Jal:
            if (!cpu_.regReady(in.rd))
                return stallCpu(cycle);
            cpu_.writeReg(in.rd, in.link);
            cpu_.redirect = in.target;
            break;
          case isa::JumpKind::Jr:
            if (!cpu_.regReady(in.rs1))
                return stallCpu(cycle);
            cpu_.redirect =
                static_cast<uint32_t>(cpu_.readReg(in.rs1));
            break;
          case isa::JumpKind::Jalr:
            if (!cpu_.regReady(in.rs1) || !cpu_.regReady(in.rd))
                return stallCpu(cycle);
            cpu_.redirect =
                static_cast<uint32_t>(cpu_.readReg(in.rs1));
            cpu_.writeReg(in.rd, in.link);
            break;
        }
        branch_taken = true;
        break;
      }
      case Major::Mvfc: {
        if (!cpu_.regReady(in.rd))
            return stallCpu(cycle);
        if (fpu_.transferStall(in.fr))
            return stallCpu(cycle);
        if (fpu_.currentElementInterlock(in.fr, false))
            return stallCpu(cycle);
        if (!handleHazard(cycle, in.fr, false))
            return false;
        cpu_.scheduleWrite(in.rd, fpu_.readForTransfer(in.fr));
        break;
      }
      case Major::Halt:
        cpu_.halted = true;
        notifyIssue(exec::IssueEvent{cycle, cpu_.pc, in.raw, false});
        return true;
      default:
        fatal(ErrCode::BadEncoding,
              "Machine: unknown opcode at pc=" + std::to_string(cpu_.pc));
    }

    notifyIssue(exec::IssueEvent{cycle, cpu_.pc, in.raw, branch_taken});
    finishIssue(redirect_pending);
    return true;
}

void
Machine::visit(Archive &ar)
{
    cpu_.visit(ar);
    fpu_.visit(ar);
    memsys_.visit(ar);
    collector_.visit(ar);
    ar.u64(memPortFreeAt_);
    ar.i64(fetchedPc_);
    ar.u64(globalStall_);
    ar.u64(interruptAt_);
    ar.u64(interruptLen_);
    ar.u64(nextCycle_);
    // stats_ is not serialized: finishRun() recomputes every field
    // from the collector and subsystem counters loaded above.
    if (ar.loading())
        stats_ = RunStats{};
}

} // namespace mtfpu::machine
