#include "machine/sim_driver.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <thread>
#include <unordered_map>

#include "common/log.hh"
#include "snapshot/snapshot.hh"

namespace mtfpu::machine
{

namespace
{

/** Checkpoint file name for a job: its content hash in hex. */
std::string
checkpointName(const SimJob &job)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "ck-%016llx.snap",
                  static_cast<unsigned long long>(jobContentHash(job)));
    return buf;
}

} // anonymous namespace

SimDriver::SimDriver(unsigned threads, bool memoize)
    : threads_(threads), memoize_(memoize)
{
    if (threads_ == 0) {
        threads_ = std::thread::hardware_concurrency();
        if (threads_ == 0)
            threads_ = 1;
    }
}

unsigned
SimDriver::threadsFor(size_t jobs) const
{
    if (jobs == 0)
        return 0;
    return static_cast<unsigned>(
        std::min<size_t>(threads_, jobs));
}

std::vector<size_t>
SimDriver::uniqueJobs(const std::vector<SimJob> &jobs)
{
    std::vector<size_t> leader(jobs.size());
    // Hash buckets hold representative indices only; a bucket scan
    // plus sameJobContent() guards against hash collisions.
    std::unordered_map<uint64_t, std::vector<size_t>> buckets;
    for (size_t i = 0; i < jobs.size(); ++i) {
        leader[i] = i;
        if (!isPureJob(jobs[i]))
            continue;
        std::vector<size_t> &bucket = buckets[jobContentHash(jobs[i])];
        bool found = false;
        for (size_t rep : bucket) {
            if (sameJobContent(jobs[rep], jobs[i])) {
                leader[i] = rep;
                found = true;
                break;
            }
        }
        if (!found)
            bucket.push_back(i);
    }
    return leader;
}

std::string
SimDriver::checkpointFileName(const SimJob &job)
{
    return checkpointName(job);
}

RunStats
SimDriver::runCheckpointed(const SimJob &job, Machine &machine) const
{
    std::filesystem::create_directories(checkpointDir_);
    const std::string path = checkpointDir_ + "/" + checkpointName(job);

    // Resume from an existing checkpoint when one decodes cleanly and
    // matches this job exactly; anything else (torn write, stale hash
    // collision, format drift) falls back to a fresh start.
    if (std::filesystem::exists(path)) {
        try {
            const snapshot::MachineSnapshot snap = snapshot::readFile(path);
            if (snap.kind == snapshot::SnapshotKind::Machine &&
                snap.config == job.config &&
                snap.program.code == job.program.code) {
                snapshot::restore(machine, snap);
                inform("resuming from checkpoint " + path + " at cycle " +
                       std::to_string(machine.nextCycle()));
            } else {
                warn("checkpoint " + path + " does not match job, ignoring");
            }
        } catch (const SimError &err) {
            // A failed restore may leave partial state; rebuild the
            // initial image (the job is pure, so this is complete).
            warn(std::string("checkpoint unusable, starting fresh: ") +
                 err.what());
            machine.loadProgram(job.program);
            applyJobInit(job, machine);
        }
    }

    RunStats stats;
    for (;;) {
        stats = machine.runUntil(machine.nextCycle() + checkpointInterval_);
        if (stats.status != RunStatus::Paused)
            break;
        try {
            snapshot::writeFile(path, snapshot::capture(machine));
        } catch (const SimError &err) {
            // A checkpoint that cannot be written only costs resume
            // coverage — the run itself must not fail.
            warn(std::string("checkpoint write failed: ") + err.what());
        }
    }
    std::remove(path.c_str());
    return stats;
}

SimJobResult
SimDriver::runAttempt(const SimJob &job) const
{
    LogJobScope scope(job.name);
    SimJobResult result;
    result.name = job.name;
    result.attempts = 1;
    try {
        Machine machine(job.config);
        machine.loadProgram(job.program);
        applyJobInit(job, machine);
        if (job.setup)
            job.setup(machine);
        std::shared_ptr<MachineHook> hook;
        if (job.hookFactory) {
            hook = job.hookFactory(machine);
            machine.setHook(hook.get());
        }
        const bool checkpoint = !checkpointDir_.empty() &&
                                checkpointInterval_ > 0 && isPureJob(job);
        result.stats = job.body     ? job.body(machine)
                       : checkpoint ? runCheckpointed(job, machine)
                                    : machine.run();
        result.status = result.stats.status;
        // A guarded partial run keeps its stats but does not count as
        // a successful simulation of the program.
        result.ok = result.status == RunStatus::Ok;
        if (!result.ok)
            fillGuardError(result);
    } catch (const SimError &err) {
        result.ok = false;
        result.error = err.what();
        result.errorCode = errCodeName(err.code());
        result.errorJson = err.to_json();
    } catch (const std::exception &err) {
        result.ok = false;
        result.error = err.what();
        result.errorCode = errCodeName(ErrCode::Unknown);
        result.errorJson =
            SimError(ErrCode::Unknown, err.what()).to_json();
    }
    return result;
}

std::vector<SimJobResult>
SimDriver::run(const std::vector<SimJob> &jobs) const
{
    std::vector<SimJobResult> results(jobs.size());

    // Memoization partition: only representatives simulate.
    std::vector<size_t> work; // indices of jobs that actually run
    std::vector<size_t> leader;
    if (memoize_) {
        leader = uniqueJobs(jobs);
        work.reserve(jobs.size());
        for (size_t i = 0; i < jobs.size(); ++i) {
            if (leader[i] == i)
                work.push_back(i);
        }
        // Discoverability: closures silently opt a job out of every
        // reuse layer (memo, checkpoint, result cache). One line per
        // batch tells the sweep author how much purity would buy.
        size_t closured = 0;
        for (const SimJob &job : jobs)
            closured += !isPureJob(job);
        if (closured > 0) {
            inform(std::to_string(closured) + " of " +
                   std::to_string(jobs.size()) +
                   " jobs carry setup/body/hook closures and were "
                   "disqualified from memoization; declarative "
                   "memInit/regInit would make them cacheable");
        }
    } else {
        work.resize(jobs.size());
        for (size_t i = 0; i < jobs.size(); ++i)
            work[i] = i;
    }

    const unsigned workers = threadsFor(work.size());
    if (workers <= 1) {
        for (size_t i : work) {
            results[i] = runAttempt(jobs[i]);
            if (resultCallback_)
                resultCallback_(i, results[i]);
        }
    } else {
        // Work stealing through an atomic cursor: each worker claims
        // the next unstarted job. Every result slot is written by
        // exactly one worker, so the results vector needs no locking.
        std::atomic<size_t> next{0};
        auto worker = [&]() {
            for (;;) {
                const size_t w =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (w >= work.size())
                    return;
                results[work[w]] = runAttempt(jobs[work[w]]);
                if (resultCallback_)
                    resultCallback_(work[w], results[work[w]]);
            }
        };
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned t = 0; t < workers; ++t)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }

    // Duplicates inherit their representative's outcome, renamed.
    if (memoize_) {
        for (size_t i = 0; i < jobs.size(); ++i) {
            if (leader[i] != i) {
                results[i] = results[leader[i]];
                results[i].name = jobs[i].name;
            }
        }
    }
    return results;
}

} // namespace mtfpu::machine
