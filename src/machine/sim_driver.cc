#include "machine/sim_driver.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

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
            result.fail(guardError(result.stats));
    } catch (const std::exception &err) {
        result.fail(err);
    }
    return result;
}

std::vector<SimJobResult>
SimDriver::run(const std::vector<SimJob> &jobs) const
{
    std::vector<SimJobResult> results(jobs.size());

    // Work stealing through an atomic cursor: each worker claims the
    // next unstarted job. Every result slot is written by exactly one
    // worker, so the results vector needs no locking.
    std::atomic<size_t> next{0};
    auto worker = [&]() {
        for (;;) {
            const size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= jobs.size())
                return;
            results[i] = runAttempt(jobs[i]);
            if (resultCallback_)
                resultCallback_(i, results[i]);
        }
    };
    const unsigned workers = threadsFor(jobs.size());
    if (workers <= 1) {
        worker();
        return results;
    }
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
    return results;
}

} // namespace mtfpu::machine
