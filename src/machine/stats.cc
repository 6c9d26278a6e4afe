#include "machine/stats.hh"

#include <cstdio>

namespace mtfpu::machine
{

const char *
runStatusName(RunStatus status)
{
    switch (status) {
      case RunStatus::Ok: return "ok";
      case RunStatus::CycleGuard: return "cycle-guard";
      case RunStatus::Watchdog: return "watchdog";
      case RunStatus::Paused: return "paused";
    }
    return "unknown";
}

std::string
RunStats::summary() const
{
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "status:            %s\n"
        "cycles:            %llu\n"
        "instructions:      %llu\n"
        "  loads/stores:    %llu / %llu (fp: %llu / %llu)\n"
        "  fp alu transfers:%llu (vector %llu, scalar %llu)\n"
        "  branches:        %llu (taken %llu)\n"
        "fp elements:       %llu (squashed %llu)\n"
        "stalls:            memory %llu, cpu %llu\n"
        "dual-issue cycles: %llu\n"
        "dcache:            %llu hits / %llu misses\n"
        "ibuffer:           %llu hits / %llu misses\n",
        runStatusName(status),
        static_cast<unsigned long long>(cycles),
        static_cast<unsigned long long>(instructionsIssued),
        static_cast<unsigned long long>(loads),
        static_cast<unsigned long long>(stores),
        static_cast<unsigned long long>(fpLoads),
        static_cast<unsigned long long>(fpStores),
        static_cast<unsigned long long>(fpAluTransfers),
        static_cast<unsigned long long>(fpu.vectorInstructions),
        static_cast<unsigned long long>(fpu.scalarInstructions),
        static_cast<unsigned long long>(branches),
        static_cast<unsigned long long>(takenBranches),
        static_cast<unsigned long long>(fpu.elementsIssued),
        static_cast<unsigned long long>(fpu.squashedElements),
        static_cast<unsigned long long>(memoryStallCycles),
        static_cast<unsigned long long>(cpuStallCycles),
        static_cast<unsigned long long>(dualIssueCycles),
        static_cast<unsigned long long>(dataCache.hits),
        static_cast<unsigned long long>(dataCache.misses),
        static_cast<unsigned long long>(instrBuffer.hits),
        static_cast<unsigned long long>(instrBuffer.misses));
    return buf;
}

void
RunStats::visit(Archive &ar)
{
    ar.enumU8(status, RunStatus::Paused, "RunStats: status");
    ar.u64(cycles);
    ar.u64(instructionsIssued);
    ar.u64(loads);
    ar.u64(stores);
    ar.u64(fpLoads);
    ar.u64(fpStores);
    ar.u64(fpAluTransfers);
    ar.u64(branches);
    ar.u64(takenBranches);
    ar.u64(memoryStallCycles);
    ar.u64(cpuStallCycles);
    ar.u64(dualIssueCycles);
    fpu.visit(ar);
    dataCache.visit(ar);
    instrBuffer.visit(ar);
    instrCache.visit(ar);
}

} // namespace mtfpu::machine
