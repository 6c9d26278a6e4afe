/**
 * @file
 * mtfpu-workerd — the disposable simulation worker (DESIGN.md §12).
 * One long-lived process per pool slot: it receives JobSpec JSON over
 * the socketpair the daemon dup2'ed onto fd 0, runs each job as a
 * single containment-free attempt (SimDriver::runAttempt — retry and
 * quarantine policy live in the supervising pool, where they also
 * cover deaths by signal), and writes the result back with the wire's
 * job-result codec (service::writeJobResult), stats as a saveState
 * hex blob.
 *
 * The job runs on a separate thread while the main thread emits a
 * heartbeat line every ~100ms: the supervisor can then distinguish a
 * slow simulation (heartbeats flow, only the job deadline applies)
 * from a wedged worker (silence). Rlimits are applied here, on
 * ourselves, before the ready line — RLIMIT_CPU turns a runaway
 * simulation into a SIGXCPU kill the supervisor classifies, and
 * RLIMIT_AS turns a leak into a failed allocation or an OOM kill that
 * takes down only this process.
 *
 * Usage: mtfpu-workerd [--rlimit-cpu=SECONDS] [--rlimit-as-mb=MB]
 *                      [--test-crash-hooks]
 *
 * --test-crash-hooks (tests and chaos drills only) makes job *names*
 * of the form "crash:<mode>" deliberately misbehave:
 *   crash:segv   raise SIGSEGV before simulating
 *   crash:abort  abort() before simulating
 *   crash:exit   _exit(3) before simulating
 *   crash:hang   the job thread sleeps forever (heartbeats continue,
 *                so only the job deadline can end it)
 *   crash:mute   stop heartbeating (the supervisor's silence window
 *                ends it)
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>

#include "bench/bench_util.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "machine/sim_driver.hh"
#include "service/job_spec.hh"
#include "service/wire.hh"

using namespace mtfpu;

namespace
{

void
applyRlimit(int resource, rlim_t soft, rlim_t hard, const char *what)
{
    rlimit lim{soft, hard};
    if (::setrlimit(resource, &lim) != 0)
        warn(std::string("workerd: setrlimit(") + what +
             ") failed: " + std::strerror(errno));
}

/** Serialize one finished attempt as the result event line. */
std::string
resultLine(const machine::SimJobResult &r)
{
    json::Writer w;
    w.beginObject();
    w.key("ev").value("result");
    service::writeJobResult(w, r);
    w.endObject();
    return w.str();
}

int
workerMain(bool crash_hooks)
{
    service::ignoreSigpipe();
    service::LineChannel channel(0);
    const machine::SimDriver driver(1);

    channel.writeLineOrThrow("{\"ev\":\"ready\"}", "workerd");

    std::string line;
    while (channel.readLine(line)) {
        service::JobSpec spec;
        machine::SimJobResult result;
        bool parsed = false;
        try {
            const json::Value req = json::parse(line);
            spec = service::JobSpec::from_json(req.at("job"));
            parsed = true;
        } catch (const FatalError &err) {
            result.fail(SimError(ErrCode::BadOperand,
                                 std::string("workerd: bad job line: ") +
                                     err.what()));
        }

        if (parsed && crash_hooks &&
            spec.name.rfind("crash:", 0) == 0) {
            const std::string mode = spec.name.substr(6);
            if (mode == "segv") {
                // The default action: a sanitizer's SEGV handler
                // would turn the raise into an ordinary exit.
                std::signal(SIGSEGV, SIG_DFL);
                std::raise(SIGSEGV);
            } else if (mode == "abort")
                std::abort();
            else if (mode == "exit")
                ::_exit(3);
            else if (mode == "mute")
                // Silence: no heartbeat, no result. The supervisor's
                // heartbeat window expires and it kills us.
                std::this_thread::sleep_for(std::chrono::hours(1));
            // "hang" falls through: the job thread below sleeps while
            // heartbeats keep flowing, so only the deadline fires.
        }

        if (parsed) {
            std::mutex doneMutex;
            std::condition_variable doneCv;
            bool done = false;
            std::thread job([&] {
                machine::SimJobResult r;
                if (crash_hooks && spec.name == "crash:hang") {
                    std::this_thread::sleep_for(std::chrono::hours(1));
                } else {
                    try {
                        r = driver.runAttempt(spec.resolve());
                    } catch (const std::exception &err) {
                        // resolve() failed: the spec names no runnable
                        // job (bad assembly, unknown kernel).
                        r.name = spec.name;
                        r.fail(err);
                    }
                }
                std::lock_guard<std::mutex> lock(doneMutex);
                result = std::move(r);
                done = true;
                doneCv.notify_all();
            });

            // Heartbeat until the job thread finishes. A failed write
            // means the daemon is gone; there is nobody to report to,
            // so exit (the detached job thread dies with the process).
            std::unique_lock<std::mutex> lock(doneMutex);
            while (!doneCv.wait_for(lock, std::chrono::milliseconds(100),
                                    [&] { return done; })) {
                lock.unlock();
                if (!channel.writeLine("{\"ev\":\"hb\"}")) {
                    job.detach();
                    ::_exit(0);
                }
                lock.lock();
            }
            lock.unlock();
            job.join();
        }

        if (!channel.writeLine(resultLine(result)))
            return 0; // supervisor gone
    }
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    rlim_t rlimitCpuS = 0;
    rlim_t rlimitAsMb = 0;
    bool crashHooks = false;
    try {
        std::string value;
        for (int i = 1; i < argc; ++i) {
            if (bench::flagValue(argv[i], "--rlimit-cpu", value))
                rlimitCpuS = bench::flagNumber<unsigned>("--rlimit-cpu",
                                                         value);
            else if (bench::flagValue(argv[i], "--rlimit-as-mb", value))
                rlimitAsMb = bench::flagNumber<unsigned>("--rlimit-as-mb",
                                                         value);
            else if (std::strcmp(argv[i], "--test-crash-hooks") == 0)
                crashHooks = true;
            else
                throw bench::UsageError(std::string("unknown argument ") +
                                        argv[i]);
        }
    } catch (const bench::UsageError &err) {
        warn(std::string("workerd: ") + err.what());
        return 2;
    }
    // The kernel sends SIGXCPU at the soft CPU limit and SIGKILL at the
    // hard one. A hard limit one second above the soft one lets the
    // SIGXCPU land first, so the supervisor reports an exhausted CPU
    // budget instead of a bare SIGKILL.
    if (rlimitCpuS > 0)
        applyRlimit(RLIMIT_CPU, rlimitCpuS, rlimitCpuS + 1, "RLIMIT_CPU");
    if (rlimitAsMb > 0)
        applyRlimit(RLIMIT_AS, rlimitAsMb << 20, rlimitAsMb << 20,
                    "RLIMIT_AS");
    try {
        return workerMain(crashHooks);
    } catch (const FatalError &err) {
        warn(std::string("workerd: fatal: ") + err.what());
        return 1;
    }
}
