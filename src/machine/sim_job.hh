/**
 * @file
 * The batch/service job description layer, split out of the SimDriver
 * (which keeps only scheduling policy). A SimJob names everything one
 * independent simulation needs; the driver, the checkpointing path,
 * the on-disk result cache, and the simulation service's workers all
 * consume this one description.
 *
 * Purity: a job whose behavior is fully captured by declarative data
 * (program code, memInit, regInit, config) is *pure* — two pure jobs
 * with identical content must produce identical RunStats, which is
 * what memoization, checkpoint resume, and the persistent result
 * cache all rely on. The setup/body/hookFactory closures are the
 * explicit escape hatch for in-process-only jobs: a std::function is
 * not content-hashable, so a closure-carrying job never memoizes,
 * never checkpoints, and never hits the result cache. Prefer the
 * declarative memInit/regInit fields whenever a closure would only
 * write memory words or registers.
 *
 * Content identity: jobContentHash() folds every behavior-affecting
 * field into a 64-bit FNV-1a hash (collisions are harmless — callers
 * confirm with sameJobContent() or the serialized jobContentBlob()
 * before sharing results).
 */

#ifndef MTFPU_MACHINE_SIM_JOB_HH
#define MTFPU_MACHINE_SIM_JOB_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "assembler/assembler.hh"
#include "common/bytestream.hh"
#include "machine/config.hh"
#include "machine/hook.hh"
#include "machine/machine.hh"
#include "machine/stats.hh"

namespace mtfpu::machine
{

/** One independent simulation. */
struct SimJob
{
    /** Identifier carried through to the result (table row, test name). */
    std::string name;

    /** Program image to load. */
    assembler::Program program;

    /** Machine configuration for this job. */
    MachineConfig config{};

    /**
     * Declarative initial memory image: (byte address, 64-bit word)
     * pairs written after loadProgram and before setup. Prefer this
     * over a setup closure for plain data initialization — it keeps
     * the job pure, and therefore memoizable.
     */
    std::vector<std::pair<uint64_t, uint64_t>> memInit;

    /**
     * Declarative CPU register initialization: (register, value)
     * pairs written after memInit and before setup. Absorbs the most
     * common setup-closure use (seeding pointer/count registers), so
     * jobs that only need register values stay pure.
     */
    std::vector<std::pair<unsigned, uint64_t>> cpuRegInit;

    /** Declarative FPU register initialization (raw 64-bit images). */
    std::vector<std::pair<unsigned, uint64_t>> fpuRegInit;

    /**
     * Optional pre-run hook, called after loadProgram, memInit, and
     * regInit (observer attachment, exotic state). Must only touch
     * the given Machine — it runs on a worker thread. Disqualifies
     * the job from memoization.
     */
    std::function<void(Machine &)> setup;

    /**
     * Optional run body replacing the default `return m.run()` —
     * e.g. cold+warm double runs or interrupt scheduling. Same
     * threading rules as setup; also disqualifies memoization.
     */
    std::function<RunStats(Machine &)> body;

    /**
     * Optional per-cycle mutating hook factory (fault injection).
     * Called on the worker thread after setup and before the run; the
     * returned hook is installed with Machine::setHook and kept alive
     * for the duration of the job. Disqualifies memoization. Use
     * faults::attachPlan() to populate this from a FaultPlan.
     */
    std::function<std::shared_ptr<MachineHook>(Machine &)> hookFactory;

    /**
     * This job deliberately injects faults and is *expected* to fail:
     * a failure is a normal campaign outcome. The daemon's worker pool
     * gives such a job a single attempt, no quarantine and no crash
     * report (service/worker_pool.hh).
     */
    bool faultExpected = false;
};

/** Outcome of one job. */
struct SimJobResult
{
    std::string name;
    RunStats stats{};
    bool ok = false;

    /**
     * Run outcome tag. Mirrors stats.status; a guarded run
     * (CycleGuard/Watchdog) reports ok == false with its partial
     * stats preserved here.
     */
    RunStatus status = RunStatus::Ok;

    /** Simulation attempts consumed: 1 for a SimDriver run; the
     *  daemon's pool reports 2 for a failed-then-retried job and 0 for
     *  a result-cache hit. */
    unsigned attempts = 0;

    /**
     * Set by the daemon's worker pool: a deterministic
     * (non-faultExpected) job failed twice in a row, or exhausted its
     * cycle or wall-clock budget, and needs human triage. A crash
     * report was written if a report directory is configured.
     */
    bool quarantined = false;

    /** Served from the persistent result cache without simulating. */
    bool fromCache = false;

    std::string error;     // error message when !ok
    std::string errorCode; // taxonomy name, e.g. "hazard-violation"
    std::string errorJson; // SimError::to_json() when !ok
};

/** Memoizable: carries no setup/body/hook closure. */
inline bool
isPureJob(const SimJob &job)
{
    return !job.setup && !job.body && !job.hookFactory;
}

/**
 * Content hash of everything that can influence a pure job's
 * RunStats: the encoded instruction stream, the declarative memory
 * and register images, and every MachineConfig field. Names are
 * excluded — they do not affect stats.
 */
uint64_t jobContentHash(const SimJob &job);

/** Exact content equality (the collision guard behind the hash). */
bool sameJobContent(const SimJob &a, const SimJob &b);

/**
 * Canonical serialization of a pure job's content (program code,
 * memInit, regInit, config) — the byte-exact identity the on-disk
 * result cache stores next to each entry so a hash collision can
 * never return another job's stats.
 */
std::vector<uint8_t> jobContentBlob(const SimJob &job);

/**
 * Apply the declarative initial image to a freshly loaded machine:
 * memInit words, then CPU registers, then FPU registers. Shared by
 * the driver's attempt path, its checkpoint fallback, and crash
 * replay.
 */
void applyJobInit(const SimJob &job, Machine &machine);

/**
 * Fill the error fields of a result whose run ended on a guard
 * (CycleGuard/Watchdog). Shared by the driver's attempt path and the
 * daemon's result-cache hit path, so a cached guard outcome carries
 * the same structured error a fresh simulation would.
 */
void fillGuardError(SimJobResult &result);

} // namespace mtfpu::machine

#endif // MTFPU_MACHINE_SIM_JOB_HH
