#include "machine/sim_job.hh"

#include "common/sim_error.hh"

namespace mtfpu::machine
{

uint64_t
jobContentHash(const SimJob &job)
{
    uint64_t h = 0xcbf29ce484222325ull; // FNV offset basis
    for (const uint8_t byte : jobContentBlob(job)) {
        h ^= byte;
        h *= 0x100000001b3ull;
    }
    return h;
}

bool
sameJobContent(const SimJob &a, const SimJob &b)
{
    return a.config == b.config && a.memInit == b.memInit &&
           a.cpuRegInit == b.cpuRegInit && a.fpuRegInit == b.fpuRegInit &&
           a.program.code == b.program.code;
}

std::vector<uint8_t>
jobContentBlob(const SimJob &job)
{
    ByteWriter out;
    Archive::save(out, job.program);
    out.u32(static_cast<uint32_t>(job.memInit.size()));
    for (const auto &[addr, word] : job.memInit) {
        out.u64(addr);
        out.u64(word);
    }
    out.u32(static_cast<uint32_t>(job.cpuRegInit.size()));
    for (const auto &[reg, value] : job.cpuRegInit) {
        out.u32(reg);
        out.u64(value);
    }
    out.u32(static_cast<uint32_t>(job.fpuRegInit.size()));
    for (const auto &[reg, value] : job.fpuRegInit) {
        out.u32(reg);
        out.u64(value);
    }
    Archive::save(out, job.config);
    return out.take();
}

JobInstruments
startJob(const SimJob &job, Machine &machine)
{
    if (job.start) {
        snapshot::restore(machine, job.start->machine);
    } else {
        machine.loadProgram(job.program);
        for (const auto &[addr, word] : job.memInit)
            machine.mem().write64(addr, word);
        for (const auto &[reg, value] : job.cpuRegInit)
            machine.cpu().writeReg(reg, value);
        for (const auto &[reg, value] : job.fpuRegInit)
            machine.fpu().regs().write(reg, value);
    }
    JobInstruments instruments;
    if (!job.faultPlan.empty()) {
        instruments.injector =
            std::make_unique<faults::FaultInjector>(job.faultPlan);
        machine.setHook(instruments.injector.get());
    }
    if (job.lockstep) {
        // The shadow's state reloads the program from the machine, so
        // it is restored after the machine's.
        instruments.shadow = std::make_unique<LockstepChecker>(machine);
        if (job.start) {
            ByteReader in(job.start->shadow);
            instruments.shadow->restoreState(in);
        }
        machine.addObserver(instruments.shadow.get());
    }
    return instruments;
}

void
fillGuardError(SimJobResult &result)
{
    result.errorCode = runStatusName(result.stats.status);
    result.error = std::string("run ended by ") + result.errorCode +
                   " guard after " + std::to_string(result.stats.cycles) +
                   " cycles";
    SimError guard(result.stats.status == RunStatus::CycleGuard
                       ? ErrCode::CycleGuard
                       : ErrCode::Watchdog,
                   result.error,
                   ErrContext{static_cast<int64_t>(result.stats.cycles),
                              ErrContext::kUnknown, ErrContext::kUnknown});
    result.errorJson = guard.to_json();
}

} // namespace mtfpu::machine
