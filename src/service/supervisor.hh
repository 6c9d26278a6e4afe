/**
 * @file
 * Supervision primitives for the process-isolated worker tier
 * (DESIGN.md §12): crash classification, respawn backoff, and the
 * crash-safe in-flight job journal. Everything here is policy with no
 * process management — the WorkerPool owns fork/exec and waitpid and
 * feeds raw wait statuses through classifyExit(); the job journal
 * keeps the daemon's accepted-but-unfinished job set in a
 * common/journal file.
 *
 * Supervision model: each pool slot is a one-for-one supervisor of
 * its worker process. A worker that exits (signal, OOM kill, rlimit
 * kill, plain exit) is classified into the SimError taxonomy so the
 * job it was running gets a structured WorkerCrash result, and the
 * slot respawns with per-slot exponential backoff — a worker that
 * crashes on startup in a tight loop must not busy-spin the daemon,
 * while a worker that crashed once on a poison job respawns almost
 * immediately. A completed job resets its slot's streak.
 */

#ifndef MTFPU_SERVICE_SUPERVISOR_HH
#define MTFPU_SERVICE_SUPERVISOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/journal.hh"
#include "common/sim_error.hh"

namespace mtfpu::service
{

/** Short stable name of a signal number, e.g. "SIGSEGV". */
std::string signalName(int sig);

/** What a worker's wait status means for the job it was running. */
struct CrashInfo
{
    /** Taxonomy entry (WorkerCrash; callers override for timeouts). */
    ErrCode code = ErrCode::WorkerCrash;

    /** Human summary, e.g. "worker killed by signal 11 (SIGSEGV)". */
    std::string summary;

    /** Signal name when signalled, empty for a plain exit. */
    std::string signal;

    /** Exit code for a plain exit, -1 when signalled. */
    int exitCode = -1;

    /**
     * The kill pattern matches an out-of-memory kill: SIGKILL that
     * the supervisor did not send itself. The kernel OOM killer and
     * an operator's kill -9 are indistinguishable from wait status
     * alone, so this is a hint, not a verdict.
     */
    bool maybeOom = false;
};

/**
 * Classify a waitpid() status from a dead worker. Recognizes rlimit
 * kills (SIGXCPU → CPU budget) and flags unsolicited SIGKILL as a
 * possible OOM kill.
 */
CrashInfo classifyExit(int wstatus);

/**
 * Per-slot exponential respawn backoff. Crash streaks grow the delay
 * base * 2^(streak-1), capped; a healthy job completion resets it.
 * Not thread-safe — each pool slot owns one and touches it from the
 * thread driving that slot.
 */
class RespawnBackoff
{
  public:
    RespawnBackoff(unsigned base_ms = 50, unsigned max_ms = 5000)
        : baseMs_(base_ms), maxMs_(max_ms)
    {}

    /** Record a worker death; returns the delay before the respawn. */
    unsigned recordCrash();

    /** Record a completed job: the worker is healthy, streak ends. */
    void recordHealthy() { streak_ = 0; }

    unsigned streak() const { return streak_; }

  private:
    unsigned baseMs_;
    unsigned maxMs_;
    unsigned streak_ = 0;
};

/**
 * Crash-safe journal of accepted-but-unfinished jobs: one NDJSON line
 * per event in a common/journal file, so a SIGKILLed daemon loses at
 * most the line being written. On restart, recover() replays the
 * file — accepted ids minus done ids are the jobs that were queued or
 * running when the daemon died, and the server re-submits them under
 * their original ids. Torn lines follow common/journal's rules: a
 * torn tail is skipped on replay, and the next append starts on a
 * fresh line.
 *
 * Events:
 *   {"op":"accept","id":N,"spec":{...}[,"idem":K]}  job admitted
 *   {"op":"done","id":N}                            finished/cancelled
 *
 * The optional "idem" field is the client-supplied idempotency key
 * (DESIGN.md §13.4): recovery hands it back so a restarted daemon can
 * rebuild its dedupe index and a retried submit maps onto the
 * recovered job instead of double-executing it.
 *
 * Thread-safe: submit and worker threads append concurrently.
 */
class JobJournal
{
  public:
    /** One recovered in-flight job. */
    struct Recovered
    {
        uint64_t id = 0;
        std::string specJson; // verbatim accept-line spec object
        std::string idemKey;  // client idempotency key; may be empty
    };

    /** What a journal replay found. */
    struct Recovery
    {
        std::vector<Recovered> unfinished; // ascending id order
        uint64_t maxId = 0;                // highest id ever accepted
    };

    /**
     * Open (creating if missing) the journal at @p path for append.
     * Throws SimError(Io) when the file cannot be opened.
     */
    explicit JobJournal(std::string path);

    /** Append an accept event; @p spec_json is the spec object and
     *  @p idem_key the client idempotency key (empty = none). */
    void accept(uint64_t id, const std::string &spec_json,
                const std::string &idem_key = "");

    /** Append a done event (completion, failure, or cancellation). */
    void done(uint64_t id);

    const std::string &path() const { return out_.path(); }

    /**
     * Replay a journal file without opening it for append. A missing
     * file is an empty recovery; lines that are not valid events (an
     * accept whose spec is not a valid JobSpec included) are skipped
     * with one warning.
     */
    static Recovery recover(const std::string &path);

    /**
     * Rewrite @p path to contain only accept lines for @p unfinished
     * (atomic rename), so the journal does not grow without bound
     * across restarts. Call before constructing the append journal.
     */
    static void compact(const std::string &path,
                        const std::vector<Recovered> &unfinished);

  private:
    journal::Appender out_;
};

/**
 * Write the crash-report artifact <job>.worker-crash.json for a
 * quarantined job. A death names its signal, so triage can separate a
 * simulator bug (SIGSEGV) from resource kills (SIGXCPU, OOM). The
 * report carries the job's spec and @p error, the result's error
 * record (code, message and context), so bench/replay can re-run the
 * job and check that the same error fires at the same cycle.
 * Best-effort: failures warn and return.
 */
void writeWorkerCrashReport(const std::string &dir,
                            const std::string &job_name,
                            const std::string &spec_json,
                            const CrashInfo &crash, unsigned attempts,
                            const SimError &error);

} // namespace mtfpu::service

#endif // MTFPU_SERVICE_SUPERVISOR_HH
