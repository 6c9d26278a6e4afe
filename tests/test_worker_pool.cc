/**
 * @file
 * Process-isolation tier tests (DESIGN.md §12): the supervision
 * primitives (crash classification, respawn backoff, the in-flight
 * job journal, the cache DirLock) and the daemon running with real
 * mtfpu-workerd processes — a job that SIGSEGVs its worker is retried
 * then quarantined with a signal-named crash report while the sweep
 * around it completes, a failing fault-plan job gets one attempt and
 * no quarantine, a 20+ spec sweep through the pool is bit-identical
 * to in-process execution, cancel kills the worker without
 * quarantine, a CPU-rlimit kill is reported as SIGXCPU, admission
 * control answers Busy with a retry-after hint, and a daemon
 * restarted over its journal re-runs every job that was in flight
 * when the previous daemon died — also one a shutdown caught in its
 * retry, which is aborted without a crash report.
 *
 * The worker binary path comes in as MTFPU_WORKERD_PATH (tests run
 * from build/tests/, the worker lives in build/bench/, so sibling
 * auto-detection cannot find it here).
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "common/log.hh"
#include "faults/fault_plan.hh"
#include "machine/result_cache.hh"
#include "machine/sim_driver.hh"
#include "service/client.hh"
#include "service/job_spec.hh"
#include "service/server.hh"
#include "service/supervisor.hh"
#include "test_dir.hh"

namespace
{

using namespace mtfpu;

using test::TestDir;

std::string
countdownAsm(int n)
{
    return "        addi r1, r0, " + std::to_string(n) +
           "\n"
           "loop:   subi r1, r1, 1\n"
           "        bne  r1, r0, loop\n"
           "        nop\n"
           "        halt\n";
}

service::JobSpec
countdownSpec(int n)
{
    service::JobSpec spec;
    spec.name = "count-" + std::to_string(n);
    spec.kind = service::JobKind::Assembly;
    spec.assembly = countdownAsm(n);
    return spec;
}

/** A trivially-ok spec whose *name* triggers a workerd crash hook. */
service::JobSpec
crashSpec(const std::string &mode)
{
    service::JobSpec spec;
    spec.name = "crash:" + mode;
    spec.kind = service::JobKind::Assembly;
    spec.assembly = "        halt\n";
    return spec;
}

/** Pool-mode server config pointing at the real worker binary. */
service::ServerConfig
poolConfig(const TestDir &dir, unsigned threads)
{
    service::ServerConfig config;
    config.socketPath = dir.file("sim.sock");
    config.pool.workers = threads;
    config.pool.workerPath = MTFPU_WORKERD_PATH;
    return config;
}

std::string
readWholeFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void
spinUntilNotQueued(service::SimClient &client, uint64_t id)
{
    while (client.status(id) == "queued")
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
}

// ------------------------------------------- supervision primitives

TEST(Supervisor, ClassifiesRealChildExits)
{
    const auto waitFor = [](pid_t pid) {
        int st = 0;
        EXPECT_EQ(::waitpid(pid, &st, 0), pid);
        return st;
    };

    pid_t pid = ::fork();
    if (pid == 0) {
        // The default action: a sanitizer's SEGV handler would turn
        // the raise into an ordinary exit.
        std::signal(SIGSEGV, SIG_DFL);
        std::raise(SIGSEGV);
    }
    service::CrashInfo segv = service::classifyExit(waitFor(pid));
    EXPECT_EQ(segv.code, ErrCode::WorkerCrash);
    EXPECT_EQ(segv.signal, "SIGSEGV");
    EXPECT_NE(segv.summary.find("SIGSEGV"), std::string::npos);
    EXPECT_FALSE(segv.maybeOom);

    pid = ::fork();
    if (pid == 0)
        ::_exit(3);
    service::CrashInfo exit3 = service::classifyExit(waitFor(pid));
    EXPECT_EQ(exit3.exitCode, 3);
    EXPECT_TRUE(exit3.signal.empty());

    pid = ::fork();
    if (pid == 0) {
        ::pause();
        ::_exit(0);
    }
    ::kill(pid, SIGKILL);
    service::CrashInfo oom = service::classifyExit(waitFor(pid));
    EXPECT_EQ(oom.signal, "SIGKILL");
    EXPECT_TRUE(oom.maybeOom); // unsolicited SIGKILL: possible OOM
}

TEST(Supervisor, RespawnBackoffGrowsCapsAndResets)
{
    service::RespawnBackoff backoff(50, 200);
    EXPECT_EQ(backoff.recordCrash(), 50u);
    EXPECT_EQ(backoff.recordCrash(), 100u);
    EXPECT_EQ(backoff.recordCrash(), 200u);
    EXPECT_EQ(backoff.recordCrash(), 200u); // capped
    EXPECT_EQ(backoff.streak(), 4u);
    backoff.recordHealthy();
    EXPECT_EQ(backoff.streak(), 0u);
    EXPECT_EQ(backoff.recordCrash(), 50u); // streak restarted
}

TEST(Supervisor, JournalRecoversUnfinishedAndToleratesTornTail)
{
    TestDir dir("journal");
    const std::string path = dir.file("jobs.ndjson");
    const std::string spec1 = countdownSpec(5).to_json();
    const std::string spec3 = countdownSpec(7).to_json();
    {
        service::JobJournal journal(path);
        journal.accept(1, spec1);
        journal.accept(2, countdownSpec(6).to_json());
        journal.accept(3, spec3);
        journal.done(2);
    }
    {
        // Interior corruption (skipped with a warning) and a torn
        // final line — the write a SIGKILL cut short.
        std::FILE *f = std::fopen(path.c_str(), "a");
        ASSERT_NE(f, nullptr);
        std::fputs("{not json}\n", f);
        std::fputs("{\"op\":\"accept\",\"id\":99,\"spe", f);
        std::fclose(f);
    }

    service::JobJournal::Recovery recovery =
        service::JobJournal::recover(path);
    ASSERT_EQ(recovery.unfinished.size(), 2u);
    EXPECT_EQ(recovery.unfinished[0].id, 1u);
    EXPECT_EQ(recovery.unfinished[1].id, 3u);
    EXPECT_EQ(recovery.maxId, 3u);

    // Round trip: compacting and re-recovering yields the same set.
    service::JobJournal::compact(path, recovery.unfinished);
    service::JobJournal::Recovery again =
        service::JobJournal::recover(path);
    ASSERT_EQ(again.unfinished.size(), 2u);
    EXPECT_EQ(again.unfinished[0].id, 1u);
    EXPECT_EQ(again.unfinished[1].id, 3u);

    // A missing journal is an empty recovery, not an error.
    service::JobJournal::Recovery none =
        service::JobJournal::recover(dir.file("absent.ndjson"));
    EXPECT_TRUE(none.unfinished.empty());
    EXPECT_EQ(none.maxId, 0u);
}

TEST(Supervisor, AppendAfterTornTailIsRecovered)
{
    // A daemon killed mid-append leaves a torn accept line. The next
    // daemon's first event must start a line of its own, or it is lost
    // with the torn one and its id is handed out again.
    TestDir dir("journal_torn_append");
    const std::string path = dir.file("jobs.ndjson");
    {
        service::JobJournal journal(path);
        journal.accept(1, countdownSpec(5).to_json());
    }
    {
        std::FILE *f = std::fopen(path.c_str(), "a");
        ASSERT_NE(f, nullptr);
        std::fputs("{\"op\":\"accept\",\"id\":2,\"spe", f);
        std::fclose(f);
    }
    {
        service::JobJournal journal(path);
        journal.accept(3, countdownSpec(7).to_json());
    }

    const service::JobJournal::Recovery recovery =
        service::JobJournal::recover(path);
    ASSERT_EQ(recovery.unfinished.size(), 2u);
    EXPECT_EQ(recovery.unfinished[0].id, 1u);
    EXPECT_EQ(recovery.unfinished[1].id, 3u);
    EXPECT_EQ(recovery.maxId, 3u);
}

TEST(DirLock, RefusesLiveHolderAndTakesOverStaleLock)
{
    TestDir dir("dirlock");

    // Second acquisition while held (same pid is still "live").
    {
        machine::DirLock held(dir.path());
        EXPECT_THROW(machine::DirLock(dir.path()), SimError);
    }
    // Released on destruction: re-acquirable.
    { machine::DirLock again(dir.path()); }

    // A lock held by a live foreign process (pid 1 always exists).
    {
        std::ofstream(dir.file("owner.lock")) << 1 << "\n";
        EXPECT_THROW(machine::DirLock(dir.path()), SimError);
        std::filesystem::remove(dir.file("owner.lock"));
    }

    // A lock left by a dead process is taken over.
    const pid_t dead = ::fork();
    if (dead == 0)
        ::_exit(0);
    int st = 0;
    ASSERT_EQ(::waitpid(dead, &st, 0), dead);
    std::ofstream(dir.file("owner.lock")) << dead << "\n";
    machine::DirLock takeover(dir.path());
    // And the takeover wrote our own pid into the file.
    EXPECT_EQ(std::stoi(readWholeFile(dir.file("owner.lock"))),
              static_cast<int>(::getpid()));
}

// -------------------------------------------------- pool end to end

TEST(WorkerPool, CrashingJobRetriedThenQuarantinedWithSignalReport)
{
    TestDir dir("crash_e2e");
    service::ServerConfig config = poolConfig(dir, 1);
    config.pool.crashDir = dir.file("crash");
    config.pool.testCrashHooks = true;
    service::SimServer server(config);
    ASSERT_NE(server.pool(), nullptr);
    server.start();

    service::SimClient client(config.socketPath, 5000);
    const uint64_t before = client.submit(countdownSpec(10));
    const uint64_t crasher = client.submit(crashSpec("segv"));
    const uint64_t after = client.submit(countdownSpec(20));

    const machine::SimJobResult good1 = client.result(before, true);
    const machine::SimJobResult bad = client.result(crasher, true);
    const machine::SimJobResult good2 = client.result(after, true);

    // The SIGSEGV killed only its disposable worker: jobs on either
    // side of the poison job completed normally.
    EXPECT_TRUE(good1.ok) << good1.error;
    EXPECT_TRUE(good2.ok) << good2.error;

    // The crash reproduced on the retry, so the job is quarantined
    // with a structured worker-crash result naming the signal.
    EXPECT_FALSE(bad.ok);
    EXPECT_TRUE(bad.quarantined);
    EXPECT_EQ(bad.attempts, 2u);
    EXPECT_EQ(bad.errCode, ErrCode::WorkerCrash);
    EXPECT_NE(bad.error.find("SIGSEGV"), std::string::npos)
        << bad.error;

    // The crash-report artifact names the signal and the attempts.
    const std::string report =
        readWholeFile(config.pool.crashDir +
                      "/crash_segv.worker-crash.json");
    EXPECT_NE(report.find("\"signal\":\"SIGSEGV\""), std::string::npos)
        << report;
    EXPECT_NE(report.find("\"attempts\":2"), std::string::npos);

    EXPECT_GE(server.pool()->crashes(), 2u);
    // The retry ran on a worker spawned to replace the dead one.
    EXPECT_GE(server.pool()->respawns(), 1u);
    client.shutdown();
}

TEST(WorkerPool, FaultPlanJobFailsOnceWithoutQuarantine)
{
    TestDir dir("fault_plan");
    service::ServerConfig config = poolConfig(dir, 1);
    config.pool.crashDir = dir.file("crash");
    service::SimServer server(config);
    server.start();

    // A quiet-memory flip nothing overwrites: the lockstep shadow's
    // final-state comparison always catches it.
    service::JobSpec faulted;
    faulted.name = "faulted";
    faulted.kind = service::JobKind::Kernel;
    faulted.kernel = "lfk03:vector";
    faulted.faultPlan =
        faults::FaultPlan({faults::Fault{40, faults::FaultSite::MemWord,
                                         0x80000 / 8, 1ull << 40}})
            .describe();
    faulted.lockstep = true;

    service::SimClient client(config.socketPath, 5000);
    const uint64_t before = client.submit(countdownSpec(10));
    const uint64_t planned = client.submit(faulted);
    const uint64_t after = client.submit(countdownSpec(20));

    const machine::SimJobResult good1 = client.result(before, true);
    const machine::SimJobResult bad = client.result(planned, true);
    const machine::SimJobResult good2 = client.result(after, true);
    EXPECT_TRUE(good1.ok) << good1.error;
    EXPECT_TRUE(good2.ok) << good2.error;

    // An expected failure is a normal campaign outcome: one attempt,
    // no quarantine, no crash report.
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.errCode, ErrCode::LockstepDivergence);
    EXPECT_EQ(bad.attempts, 1u);
    EXPECT_FALSE(bad.quarantined);
    EXPECT_FALSE(std::filesystem::exists(config.pool.crashDir +
                                         "/faulted.worker-crash.json"));
    EXPECT_EQ(server.pool()->crashes(), 0u);
    client.shutdown();
}

TEST(WorkerPool, SweepThroughPoolBitIdenticalToInprocess)
{
    // The acceptance sweep: >= 20 mixed specs (assembly, kernels,
    // fuzz), once in-process for reference, once through the daemon's
    // isolated workers. Stats must match bit for bit.
    std::vector<service::JobSpec> specs;
    for (int n = 1; n <= 12; ++n)
        specs.push_back(countdownSpec(n * 7));
    for (const char *ref :
         {"lfk01:vector", "lfk01:scalar", "lfk03:vector",
          "lfk03:scalar", "lfk12:vector", "lfk12:scalar"}) {
        service::JobSpec spec;
        spec.name = std::string("kernel-") + ref;
        spec.kind = service::JobKind::Kernel;
        spec.kernel = ref;
        specs.push_back(spec);
    }
    for (uint64_t seed : {21ull, 22ull}) {
        service::JobSpec spec;
        spec.kind = service::JobKind::Fuzz;
        spec.fuzzSeed = seed;
        spec.config.maxCycles = 2'000'000;
        spec.config.memory.memBytes = 256 * 1024;
        specs.push_back(spec);
    }
    ASSERT_GE(specs.size(), 20u);

    const machine::SimDriver local(1);
    std::vector<machine::SimJobResult> reference;
    reference.reserve(specs.size());
    for (const service::JobSpec &spec : specs)
        reference.push_back(local.runAttempt(spec.resolve()));

    TestDir dir("sweep_e2e");
    service::SimServer server(poolConfig(dir, 2));
    ASSERT_NE(server.pool(), nullptr);
    server.start();

    service::SimClient client(server.config().socketPath, 5000);
    std::vector<uint64_t> ids;
    for (const service::JobSpec &spec : specs)
        ids.push_back(client.submit(spec));
    for (size_t i = 0; i < ids.size(); ++i) {
        SCOPED_TRACE(specs[i].name.empty() ? "spec " + std::to_string(i)
                                           : specs[i].name);
        const machine::SimJobResult r = client.result(ids[i], true);
        EXPECT_EQ(r.ok, reference[i].ok);
        EXPECT_TRUE(r.stats == reference[i].stats);
        EXPECT_EQ(r.errCode, reference[i].errCode);
        EXPECT_EQ(r.error, reference[i].error);
        EXPECT_EQ(r.errContext, reference[i].errContext);
    }
    // Healthy sweep: nothing crashed, the initial spawns were all.
    EXPECT_EQ(server.pool()->crashes(), 0u);
    client.shutdown();
}

TEST(WorkerPool, DeadlineKillsHungWorkerWithoutRetry)
{
    TestDir dir("timeout");
    service::ServerConfig config = poolConfig(dir, 1);
    config.pool.crashDir = dir.file("crash");
    config.pool.testCrashHooks = true;
    config.pool.jobTimeoutMs = 400; // the hang job heartbeats but never ends
    service::SimServer server(config);
    server.start();

    service::SimClient client(config.socketPath, 5000);
    const uint64_t hung = client.submit(crashSpec("hang"));
    const machine::SimJobResult r = client.result(hung, true);
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.quarantined);
    EXPECT_EQ(r.attempts, 1u); // budget exhaustion: no retry
    EXPECT_EQ(r.errCode, ErrCode::WorkerTimeout);
    EXPECT_NE(r.error.find("deadline"), std::string::npos) << r.error;

    // The slot respawned; the pool still serves.
    const machine::SimJobResult ok =
        client.result(client.submit(countdownSpec(30)), true);
    EXPECT_TRUE(ok.ok) << ok.error;
    client.shutdown();
}

TEST(WorkerPool, SilentWorkerClassifiedAsCrashByHeartbeatWindow)
{
    TestDir dir("mute");
    service::ServerConfig config = poolConfig(dir, 1);
    config.pool.testCrashHooks = true;
    config.pool.heartbeatTimeoutMs = 300;
    service::SimServer server(config);
    server.start();

    service::SimClient client(config.socketPath, 5000);
    const uint64_t mute = client.submit(crashSpec("mute"));
    const machine::SimJobResult r = client.result(mute, true);
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.quarantined);
    EXPECT_EQ(r.attempts, 2u); // wedge is retried like a crash
    EXPECT_EQ(r.errCode, ErrCode::WorkerCrash);
    EXPECT_NE(r.error.find("heartbeat"), std::string::npos) << r.error;
    client.shutdown();
}

TEST(WorkerPool, StoppedPoolFailsJobsWithTheErrorRecord)
{
    // No worker starts: a stopped pool refuses the job at once, with
    // the same kind of error record every other failure carries.
    service::WorkerPoolConfig config;
    config.workerPath = MTFPU_WORKERD_PATH;
    service::WorkerPool pool(config);
    pool.stop();
    service::PoolJob job;
    job.name = "late";
    job.specJson = countdownSpec(5).to_json();
    const service::PoolOutcome out = pool.execute(job);
    EXPECT_TRUE(out.aborted);
    EXPECT_FALSE(out.result.ok);
    EXPECT_EQ(out.result.name, "late");
    EXPECT_EQ(out.result.errCode, ErrCode::Io);
    EXPECT_EQ(out.result.error, "worker pool is stopping");
    EXPECT_EQ(pool.respawns(), 0u);
}

TEST(WorkerPool, StopDuringRetryAbortsWithoutReport)
{
    // A worker lost while the pool stops was the pool's own kill, at
    // either attempt: the job is aborted (the daemon keeps it in its
    // journal), not quarantined, and no crash report blames it.
    TestDir dir("stop_retry");
    service::WorkerPoolConfig config;
    config.workerPath = MTFPU_WORKERD_PATH;
    config.workers = 1;
    config.heartbeatTimeoutMs = 300;
    config.crashDir = dir.file("crash");
    config.testCrashHooks = true;
    service::WorkerPool pool(config);
    service::PoolJob job;
    job.name = "crash:mute";
    job.specJson = crashSpec("mute").to_json();

    service::PoolOutcome out;
    std::thread runner([&] { out = pool.execute(job); });
    // The first attempt's worker went silent and was killed; stop the
    // pool while the retry runs.
    while (pool.crashes() < 1)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    pool.stop();
    runner.join();
    EXPECT_TRUE(out.aborted);
    EXPECT_FALSE(out.result.quarantined);
    EXPECT_FALSE(std::filesystem::exists(config.crashDir +
                                         "/crash_mute.worker-crash.json"));
}

TEST(WorkerPool, CpuRlimitKillIsReportedAsSigxcpu)
{
    // A CPU-bound job under a 1 s CPU rlimit: the worker dies by
    // SIGXCPU at the soft limit on both attempts, and the error and
    // the report name the CPU budget, not a bare SIGKILL.
    TestDir dir("rlimit_cpu");
    service::WorkerPoolConfig config;
    config.workerPath = MTFPU_WORKERD_PATH;
    config.workers = 1;
    config.rlimitCpuS = 1;
    config.crashDir = dir.file("crash");
    service::WorkerPool pool(config);
    service::JobSpec spec;
    spec.name = "cpu-bound";
    spec.kind = service::JobKind::Assembly;
    spec.assembly = "        lui  r1, 2048\n"
                    "loop:   subi r1, r1, 1\n"
                    "        bne  r1, r0, loop\n"
                    "        nop\n"
                    "        halt\n";
    service::PoolJob job;
    job.name = spec.name;
    job.specJson = spec.to_json();

    const service::PoolOutcome out = pool.execute(job);
    EXPECT_FALSE(out.result.ok);
    EXPECT_TRUE(out.result.quarantined);
    EXPECT_EQ(out.result.attempts, 2u);
    EXPECT_EQ(out.result.errCode, ErrCode::WorkerCrash);
    EXPECT_NE(out.result.error.find("SIGXCPU"), std::string::npos)
        << out.result.error;
    const std::string report =
        readWholeFile(config.crashDir + "/cpu-bound.worker-crash.json");
    EXPECT_NE(report.find("\"signal\":\"SIGXCPU\""), std::string::npos)
        << report;
    pool.stop();
}

TEST(WorkerPool, CancelSemanticsAcrossTheProcessBoundary)
{
    TestDir dir("cancel");
    service::ServerConfig config = poolConfig(dir, 1);
    config.pool.crashDir = dir.file("crash");
    config.pool.testCrashHooks = true;
    service::SimServer server(config);
    server.start();

    service::SimClient client(config.socketPath, 5000);

    // Queued cancel: a job stuck behind the running hang job is
    // removed before any worker sees it.
    const uint64_t running = client.submit(crashSpec("hang"));
    spinUntilNotQueued(client, running);
    const uint64_t queued = client.submit(countdownSpec(40));
    EXPECT_TRUE(client.cancel(queued));
    EXPECT_EQ(client.status(queued), "cancelled");

    // Running cancel: the pool kills the worker. Not instant — the
    // flag is polled — so wait for the state to land.
    EXPECT_TRUE(client.cancel(running));
    const machine::SimJobResult stub = client.resultWait(running, 10000);
    EXPECT_FALSE(stub.ok);
    EXPECT_EQ(client.status(running), "cancelled");

    // A cancel is a deliberate kill, not worker ill health: nothing
    // was quarantined, no crash report, no crash counted, and the
    // respawned slot keeps serving.
    EXPECT_FALSE(stub.quarantined);
    EXPECT_EQ(server.pool()->crashes(), 0u);
    EXPECT_FALSE(std::filesystem::exists(config.pool.crashDir + "/"
                                         "crash_hang.worker-crash.json"));
    const machine::SimJobResult ok =
        client.result(client.submit(countdownSpec(25)), true);
    EXPECT_TRUE(ok.ok) << ok.error;
    client.shutdown();
}

TEST(WorkerPool, AdmissionControlAnswersBusyWithRetryHint)
{
    TestDir dir("busy");
    service::ServerConfig config = poolConfig(dir, 1);
    config.pool.testCrashHooks = true;
    config.maxQueue = 1;
    service::SimServer server(config);
    server.start();

    service::SimClient client(config.socketPath, 5000);
    const uint64_t running = client.submit(crashSpec("hang"));
    spinUntilNotQueued(client, running);
    const uint64_t queued = client.submit(countdownSpec(40));

    // Queue full: structured Busy with a retry-after hint.
    try {
        client.submit(countdownSpec(41));
        FAIL() << "expected a Busy rejection";
    } catch (const SimError &err) {
        EXPECT_EQ(err.code(), ErrCode::Busy);
        EXPECT_GT(client.retryAfterMs(), 0u);
    }

    // Drain mode rejects even with room in the queue.
    EXPECT_TRUE(client.drain(true));
    try {
        client.cancel(queued); // make room first
        client.submit(countdownSpec(42));
        FAIL() << "expected a draining rejection";
    } catch (const SimError &err) {
        EXPECT_EQ(err.code(), ErrCode::Busy);
    }
    EXPECT_FALSE(client.drain(false));

    // submitRetry rides out the backlog: free the slot from another
    // thread shortly after the retry loop starts spinning.
    std::thread unblocker([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        service::SimClient side(config.socketPath, 5000);
        side.cancel(running);
    });
    const uint64_t landed =
        client.submitRetry(countdownSpec(43), 15000);
    unblocker.join();
    const machine::SimJobResult r = client.resultWait(landed, 15000);
    EXPECT_TRUE(r.ok) << r.error;
    client.shutdown();
}

TEST(WorkerPool, PerClientInflightCapIsPerConnection)
{
    TestDir dir("cap");
    service::ServerConfig config = poolConfig(dir, 1);
    config.pool.testCrashHooks = true;
    config.maxInflightPerClient = 1;
    service::SimServer server(config);
    server.start();

    service::SimClient first(config.socketPath, 5000);
    const uint64_t running = first.submit(crashSpec("hang"));
    spinUntilNotQueued(first, running);
    try {
        first.submit(countdownSpec(40));
        FAIL() << "expected a client-cap rejection";
    } catch (const SimError &err) {
        EXPECT_EQ(err.code(), ErrCode::Busy);
    }

    // The cap is per connection: a second client still gets in.
    service::SimClient second(config.socketPath, 5000);
    const uint64_t other = second.submit(countdownSpec(45));
    second.cancel(running);
    const machine::SimJobResult r = second.resultWait(other, 15000);
    EXPECT_TRUE(r.ok) << r.error;
    first.shutdown();
}

TEST(WorkerPool, JournalRecoversInFlightJobsAcrossRestart)
{
    TestDir dir("recover");
    service::ServerConfig config = poolConfig(dir, 1);
    config.journalPath = dir.file("journal.ndjson");
    config.pool.testCrashHooks = true;

    std::vector<uint64_t> ids;
    {
        service::SimServer server(config);
        server.start();
        service::SimClient client(config.socketPath, 5000);
        // One job occupying the worker forever plus three queued: all
        // four are accepted in the journal and none finishes before
        // the daemon dies.
        ids.push_back(client.submit(crashSpec("hang")));
        spinUntilNotQueued(client, ids[0]);
        for (int n : {31, 32, 33})
            ids.push_back(client.submit(countdownSpec(n)));
    } // destructor = abrupt stop: running + queued jobs abandoned

    // Simulate the torn write of a SIGKILLed daemon on top.
    {
        std::FILE *f = std::fopen(config.journalPath.c_str(), "a");
        ASSERT_NE(f, nullptr);
        std::fputs("{\"op\":\"accept\",\"id\":9", f);
        std::fclose(f);
    }

    // The restarted daemon re-runs everything under the original ids.
    // Without crash hooks, "crash:hang" is just a tiny halt program.
    config.pool.testCrashHooks = false;
    service::SimServer server(config);
    server.start();
    service::SimClient client(config.socketPath, 5000);
    for (size_t i = 0; i < ids.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(ids[i]));
        const machine::SimJobResult r = client.resultWait(ids[i], 30000);
        EXPECT_TRUE(r.ok) << r.error;
    }
    // Recovery preserved id allocation: new ids continue past maxId.
    EXPECT_GT(client.submit(countdownSpec(44)), ids.back());
    client.shutdown();
}

TEST(WorkerPool, ShutdownDuringRetryKeepsTheJobJournaled)
{
    // A daemon shut down while it retries a lost worker must not
    // count the job done: a daemon restarted on the same journal
    // re-runs it under its id.
    TestDir dir("shutdown_retry");
    service::ServerConfig config = poolConfig(dir, 1);
    config.journalPath = dir.file("journal.ndjson");
    config.pool.crashDir = dir.file("crash");
    config.pool.testCrashHooks = true;
    config.pool.heartbeatTimeoutMs = 300;

    uint64_t id = 0;
    {
        service::SimServer server(config);
        server.start();
        service::SimClient client(config.socketPath, 5000);
        id = client.submit(crashSpec("mute"));
        while (server.pool()->crashes() < 1)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        client.shutdown();
    }
    EXPECT_FALSE(std::filesystem::exists(config.pool.crashDir +
                                         "/crash_mute.worker-crash.json"));

    // Without crash hooks, "crash:mute" is just a tiny halt program.
    config.pool.testCrashHooks = false;
    service::SimServer server(config);
    server.start();
    service::SimClient client(config.socketPath, 5000);
    const machine::SimJobResult r = client.resultWait(id, 30000);
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.attempts, 1u);
    client.shutdown();
}

} // anonymous namespace
