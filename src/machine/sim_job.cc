#include "machine/sim_job.hh"

#include <cstring>

#include "common/sim_error.hh"
#include "snapshot/snapshot.hh"

namespace mtfpu::machine
{

namespace
{

/** FNV-1a over the eight bytes of @p v folded into hash @p h. */
uint64_t
fnv1a(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // anonymous namespace

uint64_t
jobContentHash(const SimJob &job)
{
    uint64_t h = 0xcbf29ce484222325ull; // FNV offset basis
    for (const isa::Instr &in : job.program.code)
        h = fnv1a(h, in.encode());
    for (const auto &[addr, word] : job.memInit) {
        h = fnv1a(h, addr);
        h = fnv1a(h, word);
    }
    // Register images are domain-tagged so a CPU init and an FPU init
    // of the same (reg, value) pair hash differently.
    for (const auto &[reg, value] : job.cpuRegInit) {
        h = fnv1a(h, 0x1000000000000000ull | reg);
        h = fnv1a(h, value);
    }
    for (const auto &[reg, value] : job.fpuRegInit) {
        h = fnv1a(h, 0x2000000000000000ull | reg);
        h = fnv1a(h, value);
    }
    const MachineConfig &c = job.config;
    h = fnv1a(h, c.fpuLatency);
    uint64_t cycle_bits;
    std::memcpy(&cycle_bits, &c.cycleNs, sizeof(cycle_bits));
    h = fnv1a(h, cycle_bits);
    h = fnv1a(h, c.storeCycles);
    h = fnv1a(h, (static_cast<uint64_t>(c.overlapWithVector) << 16) |
                     (static_cast<uint64_t>(c.hazardPolicy) << 8) |
                     static_cast<uint64_t>(c.fpBackend));
    const memory::MemoryConfig &m = c.memory;
    for (const memory::CacheConfig &cc :
         {m.dataCache, m.instrBuffer, m.instrCache}) {
        h = fnv1a(h, cc.sizeBytes);
        h = fnv1a(h, cc.lineBytes);
        h = fnv1a(h, (static_cast<uint64_t>(cc.missPenalty) << 1) |
                         static_cast<uint64_t>(cc.writeAllocate));
    }
    h = fnv1a(h, m.memBytes);
    h = fnv1a(h, static_cast<uint64_t>(m.modelCaches));
    h = fnv1a(h, c.maxCycles);
    h = fnv1a(h, c.watchdogMs);
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

std::shared_ptr<MachineHook>
startJob(const SimJob &job, Machine &machine)
{
    if (job.start) {
        snapshot::restore(machine, *job.start);
    } else {
        machine.loadProgram(job.program);
        for (const auto &[addr, word] : job.memInit)
            machine.mem().write64(addr, word);
        for (const auto &[reg, value] : job.cpuRegInit)
            machine.cpu().writeReg(reg, value);
        for (const auto &[reg, value] : job.fpuRegInit)
            machine.fpu().regs().write(reg, value);
    }
    std::shared_ptr<MachineHook> hook;
    if (job.hookFactory) {
        hook = job.hookFactory(machine);
        machine.setHook(hook.get());
    }
    return hook;
}

void
fillGuardError(SimJobResult &result)
{
    result.errorCode = runStatusName(result.status);
    result.error = std::string("run ended by ") + result.errorCode +
                   " guard after " + std::to_string(result.stats.cycles) +
                   " cycles";
    SimError guard(result.status == RunStatus::CycleGuard
                       ? ErrCode::CycleGuard
                       : ErrCode::Watchdog,
                   result.error,
                   ErrContext{static_cast<int64_t>(result.stats.cycles),
                              ErrContext::kUnknown, ErrContext::kUnknown});
    result.errorJson = guard.to_json();
}

} // namespace mtfpu::machine
