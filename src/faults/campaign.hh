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
 * attachPlan() is the bridge into the batch driver: it wires a
 * FaultPlan into a machine::SimJob via the hookFactory surface, so
 * the SimDriver itself stays fault-agnostic.
 */

#ifndef MTFPU_FAULTS_CAMPAIGN_HH
#define MTFPU_FAULTS_CAMPAIGN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "faults/fault_plan.hh"
#include "kernels/kernel.hh"
#include "machine/sim_driver.hh"

namespace mtfpu::faults
{

/**
 * Wire @p plan into @p job: installs a hookFactory building a
 * FaultInjector (plus, when @p lockstep, a LockstepChecker observer
 * sharing its lifetime) and flags the job faultExpected so the driver
 * treats failure as a normal outcome. An empty plan still attaches
 * (useful for golden runs under identical instrumentation) but leaves
 * faultExpected false.
 */
void attachPlan(machine::SimJob &job, FaultPlan plan, bool lockstep);

/** Outcome class of one fault-injection trial. */
enum class FaultOutcome : uint8_t
{
    DetectedHardware,
    DetectedLockstep,
    Masked,
    Sdc,
};

/** Short stable name, e.g. "detected-hardware". */
const char *faultOutcomeName(FaultOutcome outcome);

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
    uint64_t cycles = 0;   // cycles simulated (partial on failure)

    /** One JSON object for campaign logs. */
    std::string to_json() const;
};

/** Campaign parameters. */
struct CampaignConfig
{
    /** Single-fault trials per kernel. */
    unsigned faultsPerKernel = 25;

    /** Base seed; trial seeds derive deterministically from it. */
    uint64_t seed = 1;

    /** Attach the lockstep checker to every trial. */
    bool lockstep = true;

    /** Worker threads (0 = hardware concurrency). */
    unsigned threads = 0;

    /** Machine configuration shared by golden and trial runs. */
    machine::MachineConfig machine{};

    /**
     * Cycle-guard headroom for corrupted runs: a trial's maxCycles is
     * golden_cycles * this factor (+ a fixed floor), so a fault that
     * destroys a loop bound ends in CycleGuard instead of running to
     * the global 2G-cycle default.
     */
    uint64_t guardFactor = 16;

    /** Directory for campaign.json (empty = don't write). */
    std::string reportDir;

    /**
     * Trial journal for resumable campaigns (common/journal). When
     * non-empty, every finished trial is appended to this file as one
     * JSON line the moment its worker classifies it, and a campaign
     * started over an existing journal skips every (kernel, seed)
     * trial already recorded — rerunning a killed campaign with the
     * same parameters and journal completes the remaining trials and
     * reports the same classification counts as an uninterrupted run.
     * A file that cannot be opened throws SimError(Io). The journal
     * assumes the campaign parameters (kernels, seed, machine config)
     * are unchanged between runs; it records outcomes, not
     * configuration.
     */
    std::string journalPath;

    /**
     * Snapshot-fork the shared golden prefix: one reference machine
     * per kernel runs under the trial configuration (lockstep shadow
     * attached), pausing at each distinct injection cycle to capture
     * a paired machine + checker snapshot; each trial then restores
     * its fork point and simulates only from its injection cycle
     * onward. Classification is bit-identical to the from-scratch
     * sweep — the injector is stateless before its fault fires, so
     * the forked prefix and the full run agree exactly.
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
 * Run the campaign: one golden (fault-free) run per kernel to fix the
 * reference checksum and cycle count, then faultsPerKernel seeded
 * single-fault trials per kernel across the SimDriver pool, each
 * classified per the scheme above. Throws only on setup errors —
 * trial failures are outcomes, not errors.
 */
CampaignResult runCampaign(const std::vector<kernels::Kernel> &kernel_list,
                           const CampaignConfig &config = CampaignConfig{});

} // namespace mtfpu::faults

#endif // MTFPU_FAULTS_CAMPAIGN_HH
