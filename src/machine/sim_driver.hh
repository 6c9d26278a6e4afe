/**
 * @file
 * Parallel batch-simulation scheduler. The *description* of a job —
 * SimJob, its purity rules, its content identity and its start state
 * — lives in sim_job.hh; this class owns only scheduling policy: the
 * thread pool and the per-result callback. It simulates every job it
 * is given. The simulation daemon does not schedule through it: each
 * of its jobs runs as one runAttempt() in an isolated worker process,
 * under the worker pool's retry-once-then-quarantine policy
 * (service/worker_pool.hh).
 *
 * Determinism: a Machine is a closed system — no shared mutable state
 * exists between jobs (each worker builds its own Machine, memory, and
 * observers), so per-job results are bit-identical regardless of the
 * thread count or scheduling order. The driver test suite asserts
 * RunStats equality between a 1-thread and an N-thread pass.
 *
 * Error containment: a job that fatal()s (bad program, hazard-policy
 * violation, runaway cycle guard) fails alone after one attempt; its
 * SimJobResult carries the structured SimError and the remaining jobs
 * still run. There is no in-process retry: a Machine is a closed
 * system, so a second attempt would only reproduce the same error.
 */

#ifndef MTFPU_MACHINE_SIM_DRIVER_HH
#define MTFPU_MACHINE_SIM_DRIVER_HH

#include <functional>
#include <utility>
#include <vector>

#include "machine/sim_job.hh"

namespace mtfpu::machine
{

/** The batch runner. */
class SimDriver
{
  public:
    /**
     * @param threads Worker count; 0 means hardware_concurrency()
     * (min 1). The pool is capped at the job count per batch.
     */
    explicit SimDriver(unsigned threads = 0);

    /** Effective worker count for a batch of @p jobs jobs. */
    unsigned threadsFor(size_t jobs) const;

    /** Configured worker count (after the 0 → hardware resolution). */
    unsigned threads() const { return threads_; }

    /**
     * Per-result callback, fired on the worker thread right after each
     * job finishes. Receives the job's index in the batch and its
     * result; used for incremental journaling (campaign resume). Must
     * be thread-safe: workers invoke it concurrently.
     */
    using ResultCallback = std::function<void(size_t, const SimJobResult &)>;
    void setResultCallback(ResultCallback cb)
    {
        resultCallback_ = std::move(cb);
    }

    /**
     * Run every job; returns results in job order. Jobs are handed to
     * workers through an atomic cursor, so completion order is
     * arbitrary but the result vector is not.
     */
    std::vector<SimJobResult> run(const std::vector<SimJob> &jobs) const;

    /**
     * Run exactly one simulation attempt on the calling thread: the
     * start state (startJob), the run, and a structured result. run()
     * invokes it once per job, and it is the execution
     * primitive an isolated worker process exposes;
     * the supervising pool founds its retry-once-then-quarantine
     * policy on top of the process boundary, where it also covers
     * attempts that die by signal.
     */
    SimJobResult runAttempt(const SimJob &job) const;

  private:
    unsigned threads_;
    ResultCallback resultCallback_;
};

} // namespace mtfpu::machine

#endif // MTFPU_MACHINE_SIM_DRIVER_HH
