/**
 * @file
 * The batch/service job description layer, split out of the SimDriver
 * (which keeps only scheduling policy). A SimJob names everything one
 * independent simulation needs; the driver, the on-disk result cache,
 * the simulation service's workers, crash replay, the fuzzer and the
 * fault campaign all consume this one description, and all of them
 * build a job's first machine state through startJob().
 *
 * A job starts one of two ways, both data: from its program plus the
 * declarative memInit/cpuRegInit/fpuRegInit image, or from a start
 * state (a fork trial resumes the campaign's paused reference run,
 * shadow included). Its instruments are data too: a fault plan
 * becomes a FaultInjector hook and the lockstep flag a LockstepChecker
 * shadow, both built by startJob(). A failed job is replayed from the
 * same data: the JobSpec a crash report or a fuzz bundle carries.
 *
 * Purity: a job whose behavior is fully captured by its program,
 * image and config is *pure* — two pure jobs with identical content
 * must produce identical RunStats, which is what memoization and the
 * persistent result cache rely on. A start state, a body closure, a
 * fault plan or the lockstep shadow makes a job impure: none of them
 * is part of the content identity, so such a job never memoizes and
 * never hits the result cache.
 *
 * Content identity: jobContentBlob() serializes every
 * behavior-affecting field, and jobContentHash() is its 64-bit FNV-1a
 * hash (collisions are harmless — callers confirm with
 * sameJobContent() or the blob before sharing results).
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
#include "faults/fault_injector.hh"
#include "faults/fault_plan.hh"
#include "machine/config.hh"
#include "machine/lockstep.hh"
#include "machine/machine.hh"
#include "machine/stats.hh"
#include "snapshot/snapshot.hh"

namespace mtfpu::machine
{

/**
 * A job's start state: a machine snapshot and, from the same cycle,
 * the lockstep shadow's saved bytes, which a lockstep job resumes.
 */
struct JobStart
{
    snapshot::MachineSnapshot machine;
    std::vector<uint8_t> shadow;
};

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
     * pairs written after loadProgram.
     */
    std::vector<std::pair<uint64_t, uint64_t>> memInit;

    /** Declarative CPU register image: (register, value) pairs
     *  written after memInit. */
    std::vector<std::pair<unsigned, uint64_t>> cpuRegInit;

    /** Declarative FPU register image (raw 64-bit values). */
    std::vector<std::pair<unsigned, uint64_t>> fpuRegInit;

    /**
     * Optional start state: the job resumes this machine state
     * instead of loading program and applying the image above, which
     * it then ignores. config must equal the snapshot's. Shared, not
     * copied — a fork trial's start aliases the campaign's fork
     * point. Makes the job impure.
     */
    std::shared_ptr<const JobStart> start;

    /**
     * Optional run body replacing the default `return m.run()` —
     * e.g. cold+warm double runs, observer attachment or register
     * readback. It runs on a worker thread and must only touch the
     * given Machine and its own output slot. Makes the job impure.
     */
    std::function<RunStats(Machine &)> body;

    /**
     * Faults to inject (empty = none). startJob installs a
     * FaultInjector hook for a non-empty plan. A job with a plan is
     * *expected* to fail: the daemon's worker pool gives it a single
     * attempt, no quarantine and no crash report
     * (service/worker_pool.hh). Makes the job impure.
     */
    faults::FaultPlan faultPlan;

    /**
     * Run the LockstepChecker shadow beside the machine; startJob
     * attaches it as an observer. Makes the job impure.
     */
    bool lockstep = false;
};

/** Outcome of one job. */
struct SimJobResult
{
    std::string name;

    /**
     * The run's counters and outcome tag (stats.status). A guarded
     * run (CycleGuard/Watchdog) reports ok == false with its partial
     * stats preserved here.
     */
    RunStats stats{};
    bool ok = false;

    /** Simulation attempts consumed: 1 for a SimDriver run; the
     *  daemon's pool reports 2 for a failed-then-retried job and 0 for
     *  a result-cache hit. */
    unsigned attempts = 0;

    /**
     * Set by the daemon's worker pool: a deterministic job (one
     * without a fault plan) failed twice in a row, or exhausted its
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

/** Memoizable: no start state, body closure, fault plan or shadow. */
inline bool
isPureJob(const SimJob &job)
{
    return !job.start && !job.body && job.faultPlan.empty() &&
           !job.lockstep;
}

/** FNV-1a hash of jobContentBlob(@p job). */
uint64_t jobContentHash(const SimJob &job);

/** Exact content equality (the collision guard behind the hash). */
bool sameJobContent(const SimJob &a, const SimJob &b);

/**
 * Canonical serialization of everything that can influence a pure
 * job's RunStats: program code, memInit, the register images and
 * every MachineConfig field (names are excluded — they do not affect
 * stats). It is the byte-exact identity the on-disk result cache
 * stores next to each entry so a hash collision can never return
 * another job's stats.
 */
std::vector<uint8_t> jobContentBlob(const SimJob &job);

/** What startJob attaches to a machine. */
struct JobInstruments
{
    /** The fault plan's hook; null without a fault plan. */
    std::unique_ptr<faults::FaultInjector> injector;

    /** The lockstep shadow observer; null unless job.lockstep. */
    std::unique_ptr<LockstepChecker> shadow;
};

/**
 * Build the state @p job starts from in @p machine, which must have
 * been constructed with job.config: restore the start state, or else
 * load the program and write memInit, then the CPU registers, then
 * the FPU registers. Then install the FaultInjector hook for a fault
 * plan, and attach the lockstep shadow: armed at the first cycle, or
 * resumed from the start state's shadow bytes. The caller keeps the
 * returned instruments alive for as long as the machine runs.
 */
JobInstruments startJob(const SimJob &job, Machine &machine);

/**
 * Fill the error fields of a result whose run ended on a guard
 * (CycleGuard/Watchdog). Shared by the driver's attempt path and the
 * daemon's result-cache hit path, so a cached guard outcome carries
 * the same structured error a fresh simulation would.
 */
void fillGuardError(SimJobResult &result);

} // namespace mtfpu::machine

#endif // MTFPU_MACHINE_SIM_JOB_HH
