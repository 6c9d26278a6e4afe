/**
 * @file
 * Run statistics collected by the Machine, plus the MFLOPS accounting
 * used to regenerate the paper's tables (Livermore convention: the
 * kernel declares its useful FLOP count; the machine supplies time).
 */

#ifndef MTFPU_MACHINE_STATS_HH
#define MTFPU_MACHINE_STATS_HH

#include <cstdint>
#include <string>

#include "common/bytestream.hh"
#include "fpu/fpu.hh"
#include "memory/direct_mapped_cache.hh"

namespace mtfpu::machine
{

/** How a run ended. */
enum class RunStatus : uint8_t
{
    Ok,         // halted and drained normally
    CycleGuard, // maxCycles exceeded; stats are the partial run
    Watchdog,   // wall-clock watchdog expired; stats are partial
    Paused,     // runUntil() stop cycle reached; run() resumes it
};

/**
 * Short stable name of a status
 * ("ok" / "cycle-guard" / "watchdog" / "paused").
 */
const char *runStatusName(RunStatus status);

/** Everything a run produces besides architectural state. */
struct RunStats
{
    /**
     * Outcome tag. A guarded run (CycleGuard/Watchdog) still returns
     * with every counter reflecting the cycles actually simulated, so
     * a triage pass can see how far it got instead of losing the run.
     */
    RunStatus status = RunStatus::Ok;

    /** Index of the last active cycle (paper-figure convention). */
    uint64_t cycles = 0;

    uint64_t instructionsIssued = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t fpLoads = 0;
    uint64_t fpStores = 0;
    uint64_t fpAluTransfers = 0;
    uint64_t branches = 0;
    uint64_t takenBranches = 0;

    /** Cycles lost to lock-step global stalls (cache misses). */
    uint64_t memoryStallCycles = 0;
    /** Cycles the CPU could not issue (structural/data stalls). */
    uint64_t cpuStallCycles = 0;
    /** Cycles in which both a CPU op and an FPU element issued. */
    uint64_t dualIssueCycles = 0;

    fpu::FpuStats fpu{};
    memory::CacheStats dataCache{};
    memory::CacheStats instrBuffer{};
    memory::CacheStats instrCache{};

    /** Counter-exact equality, used by the batch-driver determinism
     *  tests (serial vs. threaded runs must agree bit for bit). */
    bool operator==(const RunStats &) const = default;

    /** Elapsed simulated time for @p cycle_ns per cycle. */
    double
    seconds(double cycle_ns) const
    {
        return static_cast<double>(cycles) * cycle_ns * 1e-9;
    }

    /** MFLOPS given a kernel-declared useful FLOP count. */
    double
    mflops(double flops, double cycle_ns) const
    {
        const double s = seconds(cycle_ns);
        return s > 0.0 ? flops / s * 1e-6 : 0.0;
    }

    /** Multi-line human-readable summary. */
    std::string summary() const;

    /** Visit every counter (snapshots, ResultCache, stats_hex). */
    void visit(Archive &ar);

    /** visit() as bytes, for callers outside the state code. */
    void saveState(ByteWriter &out) const { Archive::save(out, *this); }
    void restoreState(ByteReader &in) { Archive::load(in, *this); }
};

} // namespace mtfpu::machine

#endif // MTFPU_MACHINE_STATS_HH
