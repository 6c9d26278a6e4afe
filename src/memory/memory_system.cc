#include "memory/memory_system.hh"

namespace mtfpu::memory
{

MemorySystem::MemorySystem(const MemoryConfig &config)
    : config_(config),
      mem_(config.memBytes),
      dcache_(config.dataCache),
      ibuf_(config.instrBuffer),
      icache_(config.instrCache)
{
}

unsigned
MemorySystem::dataAccess(uint64_t addr, bool is_write)
{
    if (!config_.modelCaches)
        return 0;
    return dcache_.access(addr, is_write);
}

unsigned
MemorySystem::instrFetch(uint64_t addr)
{
    if (!config_.modelCaches)
        return 0;
    unsigned penalty = ibuf_.access(addr, false);
    if (penalty != 0) {
        // The buffer refills from the external instruction cache; an
        // external miss adds its own penalty on top.
        penalty += icache_.access(addr, false);
    }
    return penalty;
}

void
MemorySystem::flushAll()
{
    dcache_.flush();
    ibuf_.flush();
    icache_.flush();
}

void
MemorySystem::resetStats()
{
    dcache_.resetStats();
    ibuf_.resetStats();
    icache_.resetStats();
}

void
MemorySystem::visit(Archive &ar)
{
    mem_.visit(ar);
    dcache_.visit(ar);
    ibuf_.visit(ar);
    icache_.visit(ar);
}

} // namespace mtfpu::memory
