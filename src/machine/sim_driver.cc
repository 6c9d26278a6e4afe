#include "machine/sim_driver.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <unordered_map>

#include "common/log.hh"

namespace mtfpu::machine
{

SimDriver::SimDriver(unsigned threads) : threads_(threads)
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

SimJobResult
SimDriver::runAttempt(const SimJob &job) const
{
    LogJobScope scope(job.name);
    SimJobResult result;
    result.name = job.name;
    result.attempts = 1;
    try {
        Machine machine(job.config);
        const JobInstruments instruments = startJob(job, machine);
        result.stats = job.body ? job.body(machine) : machine.run();
        // A guarded partial run keeps its stats but does not count as
        // a successful simulation of the program.
        result.ok = result.stats.status == RunStatus::Ok;
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
    const std::vector<size_t> leader = uniqueJobs(jobs);
    std::vector<size_t> work; // indices of jobs that actually run
    work.reserve(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        if (leader[i] == i)
            work.push_back(i);
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
    for (size_t i = 0; i < jobs.size(); ++i) {
        if (leader[i] != i) {
            results[i] = results[leader[i]];
            results[i].name = jobs[i].name;
        }
    }
    return results;
}

} // namespace mtfpu::machine
