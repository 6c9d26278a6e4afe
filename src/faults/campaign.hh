/**
 * @file
 * Fault-injection campaigns: sweep N seeded single-fault plans over a
 * set of benchmark kernels and classify every outcome the way the
 * architecture-reliability literature tabulates soft errors:
 *
 *   - detected-hardware: a model check fired first — scoreboard
 *     hazard, register/memory range guard, cycle/watchdog guard;
 *   - detected-lockstep: the differential checker against the untimed
 *     interpreter caught an architectural-state divergence;
 *   - masked: the run completed and the output checksum is bit-equal
 *     to the fault-free golden run (the flip landed in dead state);
 *   - sdc: silent data corruption — the run completed "successfully"
 *     with a wrong checksum. With the lockstep checker attached this
 *     class is structurally impossible (any architectural corruption
 *     that reaches the output also diverges from the shadow), which
 *     is exactly what the CI smoke job asserts.
 *
 * Every trial is a machine::SimJob of one shape: its fault plan and
 * lockstep flag are data (SimJob::faultPlan, SimJob::lockstep), which
 * machine::startJob turns into the injector and the shadow, so the
 * SimDriver itself stays fault-agnostic; and it starts from a
 * machine::JobStart (SimJob::start) that one reference run per kernel
 * captured, so it carries no program or memory image. The campaign
 * runs one kernel at a time, in windows of at most kForkWindow
 * distinct start cycles, and releases a window's starts before it
 * captures the next: its memory follows the trials in flight, not
 * the trial count.
 *
 * A lockstep campaign simulates only the trials whose fault can
 * change what the fault-free run does. The golden run records that
 * footprint (Footprint, below): the data words its loads and stores
 * touch, every register the program names, whether any FPALU
 * instruction is a vector, and when each data-cache set missed and
 * hit. A trial whose fault cannot matter repeats the golden run cycle
 * for cycle, so its record is known without simulation (DESIGN.md
 * §9.3): a struck register or memory word no instruction uses is
 * detected-lockstep by the final-state compare; a struck cache tag
 * whose set next misses in both runs, or any struck tag when the data
 * cache is not modelled or has no miss penalty, and a struck PSW flag
 * that cannot squash a vector, are masked at the golden cycle count.
 * Every trial runs under trialCycleGuard().
 */

#ifndef MTFPU_FAULTS_CAMPAIGN_HH
#define MTFPU_FAULTS_CAMPAIGN_HH

#include <bitset>
#include <cstdint>
#include <string>
#include <vector>

#include "exec/observer.hh"
#include "faults/fault_plan.hh"
#include "kernels/kernel.hh"
#include "machine/sim_driver.hh"

namespace mtfpu::faults
{

/**
 * Most start states (machine snapshot + shadow bytes) a campaign holds
 * at once: the distinct start cycles of one trial batch. One lfk07
 * start costs about 117 KB.
 */
inline constexpr unsigned kForkWindow = 64;

/** Outcome class of one fault-injection trial. */
enum class FaultOutcome : uint8_t
{
    DetectedHardware,
    DetectedLockstep,
    Masked,
    Sdc,
};

/** Stable outcome names, e.g. "detected-hardware" (common/text.hh). */
constexpr auto
enumNames(FaultOutcome)
{
    return nameTable<FaultOutcome>({
        {FaultOutcome::DetectedHardware, "detected-hardware"},
        {FaultOutcome::DetectedLockstep, "detected-lockstep"},
        {FaultOutcome::Masked, "masked"}, {FaultOutcome::Sdc, "sdc"},
    });
}

/** Stable name of @p outcome. */
inline const char *
faultOutcomeName(FaultOutcome outcome)
{
    return enumName(outcome);
}

/**
 * The maxCycles of a trial of a kernel whose golden run took
 * @p golden_cycles: headroom for a corrupted run, so that a fault that
 * destroys a loop bound ends in CycleGuard instead of running to the
 * global 2G-cycle default.
 */
constexpr uint64_t
trialCycleGuard(uint64_t golden_cycles)
{
    return golden_cycles * 16 + 10000;
}

/**
 * Deterministic per-trial seed, the exact derivation runCampaign uses
 * internally. Exposed so tooling (fault_campaign --export-specs) can
 * regenerate the precise fault plans a campaign with @p base would
 * run, without running it.
 */
uint64_t campaignTrialSeed(uint64_t base, size_t kernel_index,
                           unsigned trial);

/** One classified trial. */
struct FaultTrial
{
    std::string kernel;
    uint64_t seed = 0;
    FaultPlan plan;
    FaultOutcome outcome = FaultOutcome::Masked;
    std::string errorCode; // taxonomy name when a check fired
    /** Run length of a completed or guard-stopped trial; 0 when a
     *  check threw, as a thrown error leaves the run's stats empty
     *  (ROADMAP item 8 would record the cycle it fired instead). */
    uint64_t cycles = 0;
    /** Classified from the golden run's footprint, not simulated.
     *  Not journaled: a resumed trial reads false. */
    bool pruned = false;

    /** One JSON object for the campaign journal and campaign.json;
     *  its fault_plan is the text FaultPlan::parse reads back. */
    std::string to_json() const;
};

/** Campaign parameters. */
struct CampaignConfig
{
    /** Single-fault trials per kernel. */
    unsigned faultsPerKernel = 25;

    /** Base seed; trial seeds derive deterministically from it. */
    uint64_t seed = 1;

    /** Attach the lockstep checker to every trial, and classify the
     *  trials whose fault the golden footprint shows cannot matter
     *  without simulating them (a struck register or word needs the
     *  final-state compare to be detected). Without it every trial
     *  simulates. */
    bool lockstep = true;

    /** Worker threads (0 = hardware concurrency). */
    unsigned threads = 0;

    /** Machine configuration shared by golden and trial runs. */
    machine::MachineConfig machine{};

    /** Directory for campaign.json (empty = don't write). */
    std::string reportDir;

    /**
     * Trial journal for resumable campaigns (common/journal). When
     * non-empty, every finished trial is appended to this file as one
     * JSON line the moment its worker classifies it (a trial
     * classified from the footprint before its kernel's first batch),
     * and a campaign started over an existing journal skips every
     * (kernel, seed) trial already recorded — rerunning a killed
     * campaign with the same parameters and journal completes the
     * remaining trials and reports the same classification counts as
     * an uninterrupted run.
     * A file that cannot be opened throws SimError(Io). The journal
     * assumes the campaign parameters (kernels, seed, machine config)
     * are unchanged between runs; it records outcomes, not
     * configuration.
     */
    std::string journalPath;

    /**
     * Pick each trial's start cycle. Every trial starts from a paired
     * machine + shadow state (machine::JobStart) that its kernel's
     * reference run, under the trial configuration with the shadow
     * attached, captured on its way: at cycle 0 by default, or with
     * fork set at the trial's injection cycle, so the trial simulates
     * only from there on. Classification is bit-identical either way
     * — the injector is stateless before its fault fires, so the
     * shared prefix and the trial's own agree exactly.
     */
    bool fork = false;
};

/** Everything a campaign produces. */
struct CampaignResult
{
    std::vector<FaultTrial> trials;

    /** Per-kernel golden checksums/cycle counts, in kernel order. */
    std::vector<std::string> kernels;
    std::vector<double> goldenChecksums;
    std::vector<uint64_t> goldenCycles;

    unsigned count(FaultOutcome outcome) const;
    bool sdcFree() const { return count(FaultOutcome::Sdc) == 0; }

    /** Paper-style classification table. */
    std::string table() const;

    /** Full campaign record (config echo + every trial). */
    std::string to_json() const;
};

/**
 * What a kernel's fault-free run does with the state a fault strikes.
 * A scan of the program gives every CPU and FPU register an
 * instruction names and whether any FPALU instruction has VL > 1. The
 * golden run this observer watches gives every data word its loads
 * and stores reach and, per data-cache set, each miss: its cycle, the
 * tag it installed and the cycle of the set's last access before the
 * next miss. runCampaign builds one per kernel; touches() is the rule
 * it prunes by (DESIGN.md §9.3).
 */
class Footprint : public exec::ExecObserver
{
  public:
    explicit Footprint(const assembler::Program &program);

    Footprint(const Footprint &) = delete;
    Footprint &operator=(const Footprint &) = delete;

    /** Record @p m's data accesses, in maps as large as the memory and
     *  the data cache the injector reduces its indices by. @p m must
     *  start cold, as a machine that loads a program does. */
    void watch(machine::Machine &m);

    void onMemAccess(const exec::MemAccessEvent &event) override;

    /**
     * Whether a lockstep trial of @p fault can end other than as the
     * watched run did, its victim picked as FaultInjector::apply picks
     * it: the run uses the struck register or word, or it next
     * accesses the struck cache set at or after the fault's cycle in a
     * way the flip can change, or the fault flips the overflow flag of
     * an element whose vector it can squash. A softfp result fault
     * strikes the next element, so it always counts.
     */
    bool touches(const Fault &fault) const;

  private:
    /** One golden miss of a data-cache set. */
    struct Miss
    {
        uint64_t cycle;
        uint64_t tag;        // the tag it installed
        uint64_t lastAccess; // the set's last access before its next miss
        uint32_t prev;       // the set's previous miss, or kNone
    };
    static constexpr uint32_t kNone = UINT32_MAX;

    bool cacheTagMatters(const Fault &fault) const;

    std::bitset<256> cpuRegs_, fpuRegs_; // by 8-bit specifier
    bool vectors_ = false;               // some FPALU has VL > 1
    std::vector<bool> words_, sets_;
    uint64_t lineBytes_ = 1;
    /** No data-cache tag can change the run (see watch()). */
    bool cacheInert_ = false;
    /** Per set, its latest miss; empty when the cache is inert or the
     *  configuration falls back to sets_ (see watch()). */
    std::vector<uint32_t> lastMiss_;
    std::vector<Miss> misses_;
};

/**
 * Run the campaign: one golden (fault-free) run per kernel to fix the
 * reference checksum, cycle count and footprint, then faultsPerKernel
 * seeded single-fault trials per kernel across the SimDriver pool,
 * each classified per the scheme above; inform() reports per kernel
 * how many were classified from the footprint. Throws only on setup
 * errors — trial failures are outcomes, not errors.
 */
CampaignResult runCampaign(const std::vector<kernels::Kernel> &kernel_list,
                           const CampaignConfig &config = CampaignConfig{});

} // namespace mtfpu::faults

#endif // MTFPU_FAULTS_CAMPAIGN_HH
