#include "service/worker_pool.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <optional>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "common/json.hh"
#include "common/log.hh"

namespace mtfpu::service
{

namespace
{

using clock_t_ = std::chrono::steady_clock;

/** Startup window for a fresh worker's ready line. */
constexpr int kSpawnTimeoutMs = 10000;

uint64_t
msSince(clock_t_::time_point t)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            clock_t_::now() - t)
            .count());
}

/** Build the structured result for a job whose worker died. */
machine::SimJobResult
crashResult(const PoolJob &job, const CrashInfo &crash)
{
    machine::SimJobResult result;
    result.name = job.name;
    result.fail(SimError(crash.code, crash.summary));
    return result;
}

/** The report fields of a failure the worker survived to report. */
CrashInfo
structuredFailure(const machine::SimJobResult &result)
{
    CrashInfo info;
    info.code = result.errCode;
    info.summary = result.error;
    return info;
}

} // anonymous namespace

WorkerProcess::WorkerProcess(const WorkerPoolConfig &config)
    : config_(config)
{}

WorkerProcess::~WorkerProcess()
{
    kill();
}

bool
WorkerProcess::spawn()
{
    ignoreSigpipe();
    int sv[2];
    // CLOEXEC on both ends at creation: the daemon forks workers from
    // several threads, and a racing fork must not inherit another
    // slot's channel. The child's dup2 onto fd 0 clears the flag for
    // the one fd the worker is meant to keep.
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
        warn(std::string("worker pool: socketpair failed: ") +
             std::strerror(errno));
        return false;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(sv[0]);
        ::close(sv[1]);
        warn(std::string("worker pool: fork failed: ") +
             std::strerror(errno));
        return false;
    }
    if (pid == 0) {
        // Child: the channel becomes fd 0 (read and write — it is a
        // socket); stderr stays inherited so worker warnings land in
        // the daemon's log.
        ::dup2(sv[1], 0);
        std::vector<std::string> args;
        args.push_back(config_.workerPath);
        if (config_.rlimitCpuS > 0)
            args.push_back("--rlimit-cpu=" +
                           std::to_string(config_.rlimitCpuS));
        if (config_.rlimitAsMb > 0)
            args.push_back("--rlimit-as-mb=" +
                           std::to_string(config_.rlimitAsMb));
        if (config_.testCrashHooks)
            args.push_back("--test-crash-hooks");
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        ::execv(argv[0], argv.data());
        // exec failed; 127 mirrors the shell's convention.
        ::_exit(127);
    }
    ::close(sv[1]);
    pid_ = pid;
    channel_ = std::make_unique<LineChannel>(sv[0]);

    // The ready line proves the worker survived exec and rlimit setup.
    std::string line;
    const LineChannel::ReadStatus status =
        channel_->readLineTimed(line, kSpawnTimeoutMs);
    if (status != LineChannel::ReadStatus::Line) {
        // On Timeout (and possibly Error) the child is still alive,
        // wedged before its ready line — the exact case this window
        // guards against. Kill before reaping: a bare reap() would
        // block in waitpid forever and wedge this slot's driving
        // thread. On a zombie the extra SIGKILL is a harmless no-op.
        interrupt();
        const CrashInfo crash = reap();
        const std::string why =
            status == LineChannel::ReadStatus::Timeout
                ? " (no ready line within " +
                      std::to_string(kSpawnTimeoutMs) +
                      "ms; killed)"
                : "";
        warn("worker pool: worker " + std::to_string(pid) +
             " failed to start" + why + ": " + crash.summary);
        return false;
    }
    return true;
}

pid_t
WorkerProcess::claimPid()
{
    std::lock_guard<std::mutex> lock(pidMutex_);
    const pid_t pid = pid_;
    pid_ = -1;
    return pid;
}

void
WorkerProcess::interrupt()
{
    std::lock_guard<std::mutex> lock(pidMutex_);
    if (pid_ > 0)
        ::kill(pid_, SIGKILL);
}

void
WorkerProcess::kill()
{
    const pid_t pid = claimPid();
    if (pid <= 0)
        return;
    ::kill(pid, SIGKILL);
    int st = 0;
    ::waitpid(pid, &st, 0);
    channel_.reset();
}

CrashInfo
WorkerProcess::reap()
{
    CrashInfo crash;
    const pid_t pid = claimPid();
    if (pid <= 0) {
        crash.summary = "worker was not running";
        return crash;
    }
    int st = 0;
    if (::waitpid(pid, &st, 0) == pid)
        crash = classifyExit(st);
    else
        crash.summary = "worker " + std::to_string(pid) +
                        " could not be reaped: " + std::strerror(errno);
    channel_.reset();
    return crash;
}

WorkerProcess::Outcome
WorkerProcess::runJob(const PoolJob &job, machine::SimJobResult &result,
                      CrashInfo &crash)
{
    const clock_t_::time_point start = clock_t_::now();
    clock_t_::time_point lastLine = start;

    {
        json::Writer w;
        w.beginObject();
        w.key("job").raw(job.specJson);
        w.endObject();
        if (!channel_->writeLine(w.str())) {
            crash = reap();
            result = crashResult(job, crash);
            return Outcome::Crash;
        }
    }

    std::string line;
    for (;;) {
        // A short poll tick bounds how stale the cancel flag and the
        // deadline check can get; heartbeats normally arrive well
        // within it, so the loop is read-dominated, not spin-dominated.
        const LineChannel::ReadStatus status =
            channel_->readLineTimed(line, 50);
        switch (status) {
          case LineChannel::ReadStatus::Line: {
            lastLine = clock_t_::now();
            try {
                const json::Value v = json::parse(line);
                const std::string ev =
                    v.has("ev") ? v.at("ev").asString() : "";
                if (ev == "hb" || ev == "ready")
                    continue;
                if (ev == "result") {
                    result = readJobResult(v);
                    return Outcome::Result;
                }
                warn("worker pool: unexpected worker line: " + line);
            } catch (const FatalError &err) {
                warn(std::string("worker pool: bad worker line (") +
                     err.what() + "): " + line);
            }
            continue;
          }
          case LineChannel::ReadStatus::Timeout: {
            if (job.cancel &&
                job.cancel->load(std::memory_order_relaxed)) {
                kill();
                result = machine::SimJobResult{};
                result.name = job.name;
                return Outcome::Cancelled;
            }
            if (config_.jobTimeoutMs > 0 &&
                msSince(start) >= config_.jobTimeoutMs) {
                kill();
                crash.code = ErrCode::WorkerTimeout;
                crash.summary =
                    "job exceeded its " +
                    std::to_string(config_.jobTimeoutMs) +
                    "ms wall-clock deadline; worker killed";
                result = crashResult(job, crash);
                return Outcome::Timeout;
            }
            if (config_.heartbeatTimeoutMs > 0 &&
                msSince(lastLine) >= config_.heartbeatTimeoutMs) {
                kill();
                crash.code = ErrCode::WorkerCrash;
                crash.summary =
                    "worker stopped heartbeating for " +
                    std::to_string(config_.heartbeatTimeoutMs) +
                    "ms and was killed";
                result = crashResult(job, crash);
                return Outcome::Crash;
            }
            continue;
          }
          case LineChannel::ReadStatus::Overflow:
            // Unreachable in practice (the pool channel is unbounded)
            // but a worker spewing an absurd line would be wedged
            // anyway: kill it so the reap below cannot block.
            kill();
            [[fallthrough]];
          case LineChannel::ReadStatus::Eof:
          case LineChannel::ReadStatus::Error: {
            crash = reap();
            result = crashResult(job, crash);
            return Outcome::Crash;
          }
        }
    }
}

WorkerPool::WorkerPool(WorkerPoolConfig config) : config_(std::move(config))
{
    if (config_.workers == 0)
        config_.workers = std::max(1u, std::thread::hardware_concurrency());
    slots_.resize(config_.workers);
}

WorkerPool::~WorkerPool()
{
    stop();
}

void
WorkerPool::stop()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_)
        return;
    stopping_ = true;
    // interrupt(), not kill(): a busy slot's driving thread is inside
    // runJob using the channel; killing the process makes that read
    // return EOF and the driving thread reaps. Tearing the channel
    // down from this thread would be a use-after-free under its feet.
    for (Slot &slot : slots_) {
        if (slot.worker)
            slot.worker->interrupt();
    }
    slotCv_.notify_all();
}

unsigned
WorkerPool::busySlots()
{
    std::lock_guard<std::mutex> lock(mutex_);
    unsigned busy = 0;
    for (const Slot &slot : slots_)
        if (slot.busy)
            ++busy;
    return busy;
}

int
WorkerPool::acquireSlot()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        if (stopping_)
            return -1;
        for (size_t i = 0; i < slots_.size(); ++i) {
            if (!slots_[i].busy) {
                slots_[i].busy = true;
                return static_cast<int>(i);
            }
        }
        slotCv_.wait(lock);
    }
}

bool
WorkerPool::stopping()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stopping_;
}

void
WorkerPool::releaseSlot(int index)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        slots_[static_cast<size_t>(index)].busy = false;
    }
    slotCv_.notify_one();
}

WorkerProcess::Outcome
WorkerPool::attempt(Slot &slot, const PoolJob &job,
                    machine::SimJobResult &result, CrashInfo &crash)
{
    // Ensure a live worker, respawning through the slot's backoff. A
    // worker that cannot even reach its ready line three times in a
    // row fails the attempt rather than wedging the slot forever.
    for (int tries = 0; tries < 3; ++tries) {
        if (stopping())
            break;
        if (slot.worker && slot.worker->alive())
            break;
        if (slot.worker) {
            if (slot.deliberateKill) {
                // The previous death was our own SIGKILL (timeout or
                // cancel), not worker ill health: no crash streak,
                // the respawn is immediate.
                slot.deliberateKill = false;
            } else {
                const unsigned delay = slot.backoff.recordCrash();
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(delay));
            }
        }
        // Spawn outside mutex_ (it can block up to kSpawnTimeoutMs),
        // then install under it: stop() dereferences slot.worker under
        // mutex_, so the unique_ptr swap must not race its interrupt
        // sweep. The displaced worker is already dead, so destroying
        // it under the lock is cheap.
        auto fresh = std::make_unique<WorkerProcess>(config_);
        const bool up = fresh->spawn();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            slot.worker = std::move(fresh);
            if (up) {
                respawns_.fetch_add(1, std::memory_order_relaxed);
                // A worker spawned after stop()'s sweep must not
                // escape it: interrupt now so shutdown abandons the
                // job instead of waiting it out.
                if (stopping_)
                    slot.worker->interrupt();
            }
        }
        if (up)
            break;
    }
    if (!slot.worker || !slot.worker->alive()) {
        crash.code = ErrCode::WorkerCrash;
        crash.summary = "worker process failed to start";
        result = crashResult(job, crash);
        return WorkerProcess::Outcome::Crash;
    }

    const WorkerProcess::Outcome outcome =
        slot.worker->runJob(job, result, crash);
    switch (outcome) {
      case WorkerProcess::Outcome::Result:
        slot.backoff.recordHealthy();
        break;
      case WorkerProcess::Outcome::Crash:
        crashes_.fetch_add(1, std::memory_order_relaxed);
        break;
      case WorkerProcess::Outcome::Timeout:
      case WorkerProcess::Outcome::Cancelled:
        // Deliberate kills by the supervisor, not worker ill health:
        // no crash streak, the next spawn is immediate.
        slot.deliberateKill = true;
        break;
    }
    return outcome;
}

PoolOutcome
WorkerPool::execute(const PoolJob &job)
{
    PoolOutcome out;
    const int index = acquireSlot();
    if (index < 0) {
        out.result.name = job.name;
        out.result.fail(SimError(ErrCode::Io, "worker pool is stopping"));
        out.aborted = true;
        return out;
    }
    Slot &slot = slots_[static_cast<size_t>(index)];

    // At most two attempts. A failure is retried once in a fresh
    // worker: a Machine is a closed system, so a genuine simulator
    // failure reproduces, and a crash that does not was the host's
    // problem (OOM kill, operator signal) that the retry absorbs.
    std::optional<CrashInfo> death; // the latest worker death
    for (unsigned attempts = 1; attempts <= 2; ++attempts) {
        CrashInfo crash;
        const WorkerProcess::Outcome outcome =
            attempt(slot, job, out.result, crash);
        out.result.attempts = attempts;
        const bool completed = outcome == WorkerProcess::Outcome::Result;
        // A worker lost while the pool is stopping was our own
        // shutdown kill, not the job's doing: no retry, no quarantine
        // artifact, and the caller leaves the job un-journaled so a
        // restart re-runs it.
        if (!completed && stopping()) {
            out.aborted = true;
            break;
        }
        if (outcome == WorkerProcess::Outcome::Cancelled) {
            out.cancelled = true;
            break;
        }
        if (completed && out.result.ok) {
            if (attempts > 1)
                warn("job '" + job.name +
                     "' succeeded on retry — nondeterministic failure?");
            break;
        }
        // An expected fault-campaign failure: single attempt, never
        // quarantined, no artifact.
        if (job.faultExpected)
            break;
        if (!completed)
            death = crash;
        // Timeouts and guard stops are deterministic budget
        // exhaustion: a retry would burn the same wall-clock or cycle
        // budget to learn nothing, so they quarantine at once.
        const bool budget =
            outcome == WorkerProcess::Outcome::Timeout ||
            (completed &&
             out.result.stats.status != machine::RunStatus::Ok);
        if (budget || attempts == 2) {
            // The report names a worker death when there was one, so
            // triage can tell a simulator SIGSEGV from a resource kill.
            out.result.quarantined = true;
            writeWorkerCrashReport(
                config_.crashDir, job.name, job.specJson,
                death ? *death : structuredFailure(out.result), attempts,
                out.result.failure());
            break;
        }
        warn("job '" + job.name + "' failed (" +
             enumName(out.result.errCode) +
             "), retrying once in an isolated worker: " +
             out.result.error);
    }
    releaseSlot(index);
    return out;
}

} // namespace mtfpu::service
