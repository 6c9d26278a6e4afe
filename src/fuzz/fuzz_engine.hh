/**
 * @file
 * The differential fuzzing engine (DESIGN.md §10). Each trial:
 *
 *   1. generates a seeded program (coverage-biased, see ProgramGen);
 *   2. runs it through the cycle Machine with the LockstepChecker
 *      shadow attached, once per softfp backend (Soft and HostFast);
 *   3. classifies the outcome — pass, overflow-squash (§2.3.1 makes
 *      the Machine squash overflowing vectors while the shadow
 *      executes every element, a *documented* divergence), detected
 *      hazard, cycle-guard, unexpected structured fault, or an
 *      unexplained lockstep divergence;
 *   4. commits the trial's coverage cells and keeps the program in
 *      the corpus when it lit a new cell;
 *   5. on divergence/fault, delta-debugs the program to a minimal
 *      reproducer and writes a crash bundle: the reproducer's spec,
 *      its error and its DivergenceReport. bench/replay re-runs the
 *      spec, as it does a daemon crash report's.
 *
 * A program is stored in one form, the service JobSpec a trial runs
 * (trialSpec: code words, memory image, trial config, lockstep on).
 * Corpus entries, crash bundles and the committed regression corpus
 * are all such specs, so any of them can also go to the daemon.
 *
 * Everything is deterministic in the campaign seed: identical seeds
 * produce identical journals, and a campaign resumed over a torn
 * journal reconstructs its coverage state from the recorded lines and
 * continues exactly where the dead process stopped.
 */

#ifndef MTFPU_FUZZ_FUZZ_ENGINE_HH
#define MTFPU_FUZZ_FUZZ_ENGINE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/sim_error.hh"
#include "fuzz/coverage.hh"
#include "fuzz/program_gen.hh"
#include "machine/interpreter.hh"
#include "machine/lockstep.hh"
#include "service/job_spec.hh"

namespace mtfpu::fuzz
{

/** Outcome class of one lockstep run, ordered by severity. */
enum class TrialOutcome : uint8_t
{
    Pass,           // ran to halt, machine == shadow
    OverflowSquash, // diverged, explained by §2.3.1 overflow squash
    HazardDetected, // the scoreboard hazard check fired (expected)
    CycleGuard,     // the maxCycles guard ended the run
    Fault,          // an unexpected structured SimError
    Divergence,     // unexplained lockstep divergence — a real finding
};

/** Stable outcome names, e.g. "overflow-squash" (common/text.hh). */
constexpr auto
enumNames(TrialOutcome)
{
    return nameTable<TrialOutcome>({
        {TrialOutcome::Pass, "pass"},
        {TrialOutcome::OverflowSquash, "overflow-squash"},
        {TrialOutcome::HazardDetected, "hazard-detected"},
        {TrialOutcome::CycleGuard, "cycle-guard"},
        {TrialOutcome::Fault, "fault"},
        {TrialOutcome::Divergence, "divergence"},
    });
}

constexpr unsigned kNumOutcomes = kEnumNames<TrialOutcome>.size();

/** True for the outcome classes that mean "a bug was found". */
inline bool
outcomeIsFailure(TrialOutcome outcome)
{
    return outcome == TrialOutcome::Fault ||
           outcome == TrialOutcome::Divergence;
}

/** One backend's lockstep result for a program. */
struct BackendOutcome
{
    TrialOutcome outcome = TrialOutcome::Pass;

    /** The SimError the run raised, or the guard's error for a
     *  guarded run; unset for a pass. */
    std::optional<SimError> error;

    uint64_t cycles = 0; // faulting cycle, or run length on success
    machine::DivergenceReport divergence; // valid for Divergence only

    /** The error's taxonomy name; empty for a pass. */
    std::string errorCode() const
    {
        return error ? enumName(error->code()) : "";
    }
};

/** Machine/shadow memory of a trial (small = fast lockstep compares). */
constexpr size_t kTrialMemBytes = 256 * 1024;

/** Fuzzing campaign parameters. */
struct FuzzConfig
{
    uint64_t seed = 1;

    /** Trials to run (ignored when durationSec > 0). */
    uint64_t trials = 100;

    /** Wall-clock budget in seconds; 0 = use the trial count. */
    double durationSec = 0;

    /** Cycle guard for generated programs (they are all short). */
    uint64_t maxCycles = 2'000'000;

    /**
     * Deliberate shadow bug for oracle validation: the campaign must
     * find and minimize it (DESIGN.md §10). None for real campaigns.
     */
    machine::SemanticsMutation shadowMutation =
        machine::SemanticsMutation::None;

    /** Where crash bundles go (empty = don't write). */
    std::string crashDir;

    /** Where coverage-novel programs go as trial-NNNNNN.json specs
     *  (empty = don't write). */
    std::string corpusDir;

    /**
     * Trial journal (common/journal; empty = none). A campaign always
     * continues the journal it is given: it replays the recorded
     * trials and runs on from the first one missing.
     */
    std::string journalPath;
};

/** One classified trial. */
struct TrialResult
{
    uint64_t trial = 0;
    uint64_t seed = 0;
    BackendOutcome soft;
    BackendOutcome host;
    std::vector<unsigned> newCells; // coverage cells this trial lit
    bool kept = false;              // retained in the corpus
    std::string bundlePath;         // crash bundle (failures only)
    unsigned minimizedSize = 0;     // instructions after minimization

    /** Worst of the two backend outcomes. */
    TrialOutcome worst() const;

    /** One JSON object (journal line). */
    std::string to_json() const;
};

/** Campaign totals. */
struct FuzzResult
{
    uint64_t trials = 0;
    uint64_t counts[kNumOutcomes] = {};
    double opVlCoverage = 0;
    std::vector<TrialResult> failures; // full records, failures only

    /** True when no trial produced an unexplained failure. */
    bool clean() const;

    /** Human-readable classification table. */
    std::string table() const;
};

/**
 * The job a trial runs on @p backend: @p prog as code words and its
 * memory image, on a kTrialMemBytes machine guarded at @p max_cycles,
 * with the lockstep shadow.
 */
service::JobSpec trialSpec(const FuzzProgram &prog,
                           softfp::Backend backend, uint64_t max_cycles);

/**
 * Run @p spec through the Machine-vs-Interpreter lockstep diff, with
 * @p shadow_mutation installed in the shadow, and classify the
 * outcome. @p cov, when non-null, records the run's coverage cells.
 * Throws SimError(BadOperand) for a spec without the lockstep flag.
 */
BackendOutcome runLockstep(const service::JobSpec &spec,
                           machine::SemanticsMutation shadow_mutation,
                           CoverageObserver *cov = nullptr);

/** Sorted paths of the `*.json` specs directly under @p dir. */
std::vector<std::string> listCorpus(const std::string &dir);

/** The campaign driver. */
class FuzzEngine
{
  public:
    explicit FuzzEngine(FuzzConfig config);

    /**
     * Run the campaign (trial count or wall-clock budget), continuing
     * the configured journal. @p on_trial, when set, observes every
     * trial this call runs, in order.
     */
    FuzzResult run(
        const std::function<void(const TrialResult &)> &on_trial = {});

    /** Generate + run + classify + minimize one trial. */
    TrialResult runTrial(uint64_t trial);

    /** The campaign-wide coverage map (for tests and reporting). */
    const CoverageMap &coverage() const { return coverage_; }

    const FuzzConfig &config() const { return config_; }

  private:
    /** Replay journal lines into coverage state and @p result's
     *  counters; returns the next trial index. */
    uint64_t resumeFromJournal(FuzzResult &result);

    /** Minimize + write the crash bundle for a failed trial. */
    void bundleFailure(const FuzzProgram &prog, TrialResult &result);

    FuzzConfig config_;
    ProgramGen gen_;
    CoverageMap coverage_;
};

/** Deterministic per-trial seed derivation. */
uint64_t trialSeed(uint64_t campaign_seed, uint64_t trial);

} // namespace mtfpu::fuzz

#endif // MTFPU_FUZZ_FUZZ_ENGINE_HH
