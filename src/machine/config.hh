/**
 * @file
 * Whole-machine configuration. Defaults reproduce the paper's
 * MultiTitan: 40 ns cycle, 3-cycle FPU latency, 2-cycle stores,
 * load/store issue overlapped with vector element issue, and the
 * Figure-1 memory hierarchy. The non-default values exist for the
 * ablation benches called out in DESIGN.md.
 */

#ifndef MTFPU_MACHINE_CONFIG_HH
#define MTFPU_MACHINE_CONFIG_HH

#include <cstdint>

#include "common/bytestream.hh"
#include "common/text.hh"
#include "memory/memory_system.hh"
#include "softfp/backend.hh"

namespace mtfpu::machine
{

/**
 * What to do when a load/store/mvfc races with a not-yet-issued
 * element of the occupying vector instruction (paper §2.3.2 — the
 * MultiTitan leaves this to the compiler).
 */
enum class HazardPolicy
{
    Fatal,  // flag it as a code-generation bug (default; catches errors)
    Stall,  // interlock conservatively (Ardent-Titan-style ablation)
    Ignore, // true MultiTitan hardware behavior (races corrupt data)
};

/** Stable policy names, as JobSpecs write them (common/text.hh). */
constexpr auto
enumNames(HazardPolicy)
{
    return nameTable<HazardPolicy>({
        {HazardPolicy::Fatal, "fatal"}, {HazardPolicy::Stall, "stall"},
        {HazardPolicy::Ignore, "ignore"},
    });
}

/** Machine configuration. */
struct MachineConfig
{
    /** FPU functional-unit latency in cycles (3 in the paper). */
    unsigned fpuLatency = 3;

    /** Cycle time in nanoseconds (40 ns = 25 MHz). */
    double cycleNs = 40.0;

    /** Cycles a store occupies the memory port (2 in the paper). */
    unsigned storeCycles = 2;

    /**
     * Allow FPU loads/stores (and CPU instructions generally) to
     * issue while the ALU IR is re-issuing vector elements. Turning
     * this off is the "no dual issue" ablation.
     */
    bool overlapWithVector = true;

    /** Race handling for unissued vector elements. */
    HazardPolicy hazardPolicy = HazardPolicy::Fatal;

    /**
     * Which softfp backend executes FPU ALU elements. Both produce
     * bit-identical results and flags (asserted by the backend
     * cross-check tests); `HostFast` is several times faster on the
     * IEEE-exact units and is the default.
     */
    softfp::Backend fpBackend = softfp::Backend::HostFast;

    /** Memory hierarchy configuration. */
    memory::MemoryConfig memory{};

    /**
     * Runaway-simulation guard: the run returns partial RunStats
     * tagged RunStatus::CycleGuard once this many cycles elapse.
     */
    uint64_t maxCycles = 2'000'000'000;

    /**
     * Wall-clock watchdog in milliseconds (0 = disabled). Checked
     * every ~4M simulated cycles; an expired budget ends the run with
     * partial RunStats tagged RunStatus::Watchdog. Catches jobs that
     * stop making progress in ways maxCycles is too coarse for.
     */
    uint64_t watchdogMs = 0;

    /** Field-exact equality (snapshot restore checks the machine's
     *  config against the snapshot's). */
    bool operator==(const MachineConfig &) const = default;

    /** Visit every field (snapshot container, job content blob). */
    void
    visit(Archive &ar)
    {
        ar.u32(fpuLatency);
        ar.f64(cycleNs);
        ar.u32(storeCycles);
        ar.b(overlapWithVector);
        ar.enumU8(hazardPolicy, HazardPolicy::Ignore,
                  "MachineConfig: hazard policy");
        ar.enumU8(fpBackend, softfp::Backend::HostFast,
                  "MachineConfig: softfp backend");
        memory.visit(ar);
        ar.u64(maxCycles);
        ar.u64(watchdogMs);
    }
};

} // namespace mtfpu::machine

#endif // MTFPU_MACHINE_CONFIG_HH
