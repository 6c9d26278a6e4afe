/**
 * @file
 * The simulation daemon's execution tier (DESIGN.md §12): every
 * daemon job runs here. Each pool slot supervises one long-lived
 * mtfpu-workerd child connected over a socketpair; jobs cross the
 * boundary as JobSpec JSON and come back as the same result fields the
 * wire protocol uses (stats as a saveState hex blob), so pool results
 * are bit-identical to in-process SimDriver runs.
 *
 * The process boundary is what makes the daemon robust: a job that
 * SIGSEGVs the simulator, leaks until the OOM killer fires, or spins
 * past its CPU rlimit kills only its disposable worker. The pool
 * classifies the death (supervisor.hh), applies the service's one
 * retry-once-then-quarantine policy — a crash is just another
 * first-attempt failure — and respawns the slot with exponential
 * backoff. A quarantined job leaves a crash report that bench/replay
 * re-runs from its spec.
 *
 * Worker protocol (NDJSON over the socketpair, worker side on fd 0):
 *   worker → pool  {"ev":"ready"}                     after exec
 *   pool → worker  {"job": <JobSpec object>}          one at a time
 *   worker → pool  {"ev":"hb"}                        ~100ms while busy
 *   worker → pool  {"ev":"result", ...result fields}  job finished
 *
 * The heartbeat separates "the job is slow" (heartbeats flow; only the
 * job deadline applies) from "the worker is wedged" (no heartbeat
 * within the heartbeat window → treated as a crash). Deadline and
 * cancellation are enforced by the pool with SIGKILL — a worker stuck
 * in a runaway simulation cannot be trusted to honor a polite request.
 */

#ifndef MTFPU_SERVICE_WORKER_POOL_HH
#define MTFPU_SERVICE_WORKER_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "machine/sim_job.hh"
#include "service/supervisor.hh"
#include "service/wire.hh"

namespace mtfpu::service
{

struct WorkerPoolConfig
{
    /** Path to the mtfpu-workerd binary. */
    std::string workerPath;

    /** Number of worker processes (one job each at a time); 0 =
     *  hardware_concurrency (min 1). */
    unsigned workers = 0;

    /** Per-job wall-clock deadline; 0 disables. Exceeding it kills
     *  the worker and quarantines the job (no retry — a deterministic
     *  job would burn the same budget again). */
    uint64_t jobTimeoutMs = 30000;

    /** Max silence between worker lines before the worker is treated
     *  as wedged and killed. Must exceed the worker's ~100ms beat. */
    uint64_t heartbeatTimeoutMs = 5000;

    /** RLIMIT_CPU seconds for each worker; 0 = unlimited. This is the
     *  soft limit, where the worker dies by SIGXCPU; the hard limit
     *  (SIGKILL) sits one second above it. */
    unsigned rlimitCpuS = 0;

    /** RLIMIT_AS megabytes for each worker; 0 = unlimited. */
    unsigned rlimitAsMb = 0;

    /** Crash-report directory for worker deaths; empty disables. */
    std::string crashDir;

    /** Pass --test-crash-hooks to workers (tests only): job names
     *  like "crash:segv" make the worker kill itself on purpose. */
    bool testCrashHooks = false;
};

/** What the pool was asked to run: spec JSON plus policy inputs. */
struct PoolJob
{
    std::string name;
    std::string specJson;

    /** The job injects faults (SimJob::faultPlan), so failing is a
     *  normal outcome: single attempt, never quarantined. */
    bool faultExpected = false;

    /** Cooperative cancel; the pool polls it and kills the worker. */
    std::atomic<bool> *cancel = nullptr;
};

/** A pool execution outcome: the result plus how it ended. */
struct PoolOutcome
{
    machine::SimJobResult result;

    /** The job was cancelled (worker killed); result is a stub. */
    bool cancelled = false;

    /** The pool was stopped mid-job: the worker was killed by
     *  shutdown, not by the job. The result is a stub and the job
     *  must NOT be journaled done — the next daemon re-runs it. */
    bool aborted = false;
};

/** One supervised worker process (used by the pool; exposed for
 *  directed tests). Not thread-safe — one driving thread per slot. */
class WorkerProcess
{
  public:
    explicit WorkerProcess(const WorkerPoolConfig &config);
    ~WorkerProcess();

    WorkerProcess(const WorkerProcess &) = delete;
    WorkerProcess &operator=(const WorkerProcess &) = delete;

    /**
     * fork/exec the worker and wait for its ready line. Returns false
     * (with the child reaped) when the worker fails to come up.
     */
    bool spawn();

    /** True between a successful spawn() and a detected death. */
    bool alive() const { return pid_ > 0; }

    /** How one dispatched job ended. */
    enum class Outcome : uint8_t
    {
        Result,    // worker returned a result line (ok or not)
        Crash,     // worker died, or went silent and was killed;
                   // crash has the classification
        Timeout,   // job deadline exceeded; worker killed
        Cancelled, // cancel flag seen; worker killed
    };

    /** Dispatch one job and supervise it to an outcome. On any
     *  non-Result outcome the worker is dead afterwards. */
    Outcome runJob(const PoolJob &job, machine::SimJobResult &result,
                   CrashInfo &crash);

    /** SIGKILL + reap; safe to call on a dead worker. */
    void kill();

    /**
     * Signal the worker dead WITHOUT reaping or touching the channel.
     * The one method safe to call from another thread while runJob is
     * blocked reading: the reader observes EOF and reaps normally.
     * Used by WorkerPool::stop() to interrupt in-flight jobs.
     */
    void interrupt();

  private:
    /** Reap the child and classify; marks the worker dead. */
    CrashInfo reap();

    /** Claim the pid for reaping (sets pid_ to -1); returns the old
     *  pid. Serialized against interrupt() so a signal can never be
     *  sent to an already-collected (and possibly recycled) pid. */
    pid_t claimPid();

    const WorkerPoolConfig &config_;
    std::mutex pidMutex_; // guards pid_ transitions vs interrupt()
    pid_t pid_ = -1;
    std::unique_ptr<LineChannel> channel_;
};

/**
 * The supervised pool. execute() blocks until a slot is free and runs
 * the job under the containment policy, one loop over at most two
 * attempts: a structured error or a worker death is retried once in a
 * fresh worker and quarantined if it fails again; a guard stop or
 * deadline timeout is quarantined without a retry (a deterministic
 * budget would be burned again); a faultExpected job gets one attempt
 * and is never quarantined; a worker lost while the pool stops aborts
 * the job at either attempt, with no report.
 */
class WorkerPool
{
  public:
    explicit WorkerPool(WorkerPoolConfig config);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Run one job under retry/quarantine policy on some worker. */
    PoolOutcome execute(const PoolJob &job);

    /** Kill every worker and refuse further execute() calls. */
    void stop();

    const WorkerPoolConfig &config() const { return config_; }

    /** Lifetime counters (tests and the health census). */
    uint64_t crashes() const { return crashes_.load(); }
    uint64_t respawns() const { return respawns_.load(); }

    /** Slot census for health probes (DESIGN.md §13.5). */
    unsigned slots() const { return static_cast<unsigned>(slots_.size()); }
    unsigned busySlots();

  private:
    struct Slot
    {
        std::unique_ptr<WorkerProcess> worker;
        RespawnBackoff backoff;
        bool busy = false;
        /** The last worker death was the supervisor's own SIGKILL
         *  (job timeout or cancel), not worker ill health: the next
         *  respawn skips the crash streak and its backoff sleep. */
        bool deliberateKill = false;
    };

    /** Acquire a free slot index (blocking); -1 when stopping. */
    int acquireSlot();
    void releaseSlot(int index);

    /** stop() has been called. */
    bool stopping();

    /** One attempt on @p slot; ensures a live worker first. */
    WorkerProcess::Outcome attempt(Slot &slot, const PoolJob &job,
                                   machine::SimJobResult &result,
                                   CrashInfo &crash);

    WorkerPoolConfig config_;
    std::mutex mutex_;
    std::condition_variable slotCv_;
    std::vector<Slot> slots_;
    bool stopping_ = false;
    std::atomic<uint64_t> crashes_{0};
    std::atomic<uint64_t> respawns_{0};
};

} // namespace mtfpu::service

#endif // MTFPU_SERVICE_WORKER_POOL_HH
