/**
 * @file
 * Fault plans: *what* to break, *where*, and *when*. A FaultPlan is a
 * pure-data schedule of state corruptions — it knows nothing about the
 * Machine; the FaultInjector (fault_injector.hh) interprets it against
 * live machine state.
 *
 * Plans come from three places:
 *   - programmatic construction (tests pinning an exact fault);
 *   - seeded random generation (campaign sweeps — one plan per seed,
 *     reproducible by construction);
 *   - a tiny text format (one fault per line: `cycle site index mask`)
 *    for replaying a fault from a crash report or the command line.
 */

#ifndef MTFPU_FAULTS_FAULT_PLAN_HH
#define MTFPU_FAULTS_FAULT_PLAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/text.hh"

namespace mtfpu::faults
{

/** Architectural or microarchitectural state a fault can strike. */
enum class FaultSite : uint8_t
{
    FpuReg,       // flip bits in an FPU register (index = f0..f51)
    CpuReg,       // flip bits in a CPU register (index = r1..r31)
    CacheLine,    // corrupt a data-cache tag / valid bit (timing only)
    MemWord,      // flip bits in a 64-bit main-memory word
    SoftfpResult, // XOR the next FPU element result (datapath fault)
    SoftfpFlags,  // XOR the next FPU element's IEEE flags
};

/** Stable site names, e.g. "fpu-reg" (common/text.hh). */
constexpr auto
enumNames(FaultSite)
{
    return nameTable<FaultSite>({
        {FaultSite::FpuReg, "fpu-reg"}, {FaultSite::CpuReg, "cpu-reg"},
        {FaultSite::CacheLine, "cache-line"}, {FaultSite::MemWord, "mem-word"},
        {FaultSite::SoftfpResult, "softfp-result"},
        {FaultSite::SoftfpFlags, "softfp-flags"},
    });
}

/** Number of distinct fault sites (for site enumeration/rng). */
constexpr unsigned kNumFaultSites = kEnumNames<FaultSite>.size();

/** One scheduled state corruption. */
struct Fault
{
    /** Cycle at (or after) which the fault fires. */
    uint64_t cycle = 0;

    FaultSite site = FaultSite::MemWord;

    /**
     * Which instance of the site: register number, cache-line index,
     * or memory word index. The injector reduces it modulo the actual
     * resource count, so any 64-bit value is valid.
     */
    uint64_t index = 0;

    /**
     * XOR mask applied to the victim state. For CacheLine, bit 0
     * requests a valid-bit flip and the rest XOR the tag. For
     * SoftfpFlags only the low 5 bits are used (overflow, underflow,
     * inexact, invalid, div-by-zero).
     */
    uint64_t mask = 0;

    bool operator==(const Fault &) const = default;

    /** Human-readable one-liner, e.g. "@120 fpu-reg[17] ^0x40". */
    std::string describe() const;
};

/** An ordered schedule of faults. */
class FaultPlan
{
  public:
    FaultPlan() = default;

    /** Plan with the given faults (sorted by cycle on construction). */
    explicit FaultPlan(std::vector<Fault> faults);

    /** Append one fault (keeps the schedule sorted). */
    void add(const Fault &fault);

    /**
     * Generate a single-fault plan from a seed: site, index, mask,
     * and cycle (uniform in [0, max_cycle]) are all derived from the
     * seed via a private mt19937_64 stream, so a (seed, max_cycle)
     * pair names a reproducible fault forever. Bit-flip masks are
     * single-bit for register/memory sites — the classic SEU model.
     */
    static FaultPlan randomSingle(uint64_t seed, uint64_t max_cycle);

    /**
     * Parse the text format: one fault per line,
     * `<cycle> <site-name> <index> <mask>` (mask in hex with or
     * without 0x; '#' starts a comment). Throws SimError with code
     * BadOperand on malformed input.
     */
    static FaultPlan parse(const std::string &text);

    const std::vector<Fault> &faults() const { return faults_; }
    bool empty() const { return faults_.empty(); }
    size_t size() const { return faults_.size(); }

    bool operator==(const FaultPlan &) const = default;

    /** The text format round-trip of parse() (campaign records and
     *  job specs carry plans in this form). */
    std::string describe() const;

  private:
    std::vector<Fault> faults_; // sorted by cycle
};

} // namespace mtfpu::faults

#endif // MTFPU_FAULTS_FAULT_PLAN_HH
