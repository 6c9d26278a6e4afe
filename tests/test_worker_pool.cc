/**
 * @file
 * Process-isolation tier tests (DESIGN.md §12): the supervision
 * primitives (crash classification, respawn backoff, the in-flight
 * job journal, the cache DirLock) and the daemon running with real
 * mtfpu-workerd processes — a job that SIGSEGVs its worker is retried
 * then quarantined with a signal-named crash report while the sweep
 * around it completes, a 20+ spec sweep through the pool is
 * bit-identical to in-process execution, cancel kills the worker
 * without quarantine, admission control answers Busy with a
 * retry-after hint, and a daemon restarted over its journal re-runs
 * every job that was in flight when the previous daemon died.
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
#include "machine/result_cache.hh"
#include "machine/sim_driver.hh"
#include "service/client.hh"
#include "service/job_spec.hh"
#include "service/server.hh"
#include "service/supervisor.hh"

namespace
{

using namespace mtfpu;

class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
        : path_(std::filesystem::temp_directory_path() /
                ("mtfpu_pool_" + tag))
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }

    std::string file(const std::string &name) const
    {
        return (path_ / name).string();
    }
    std::string path() const { return path_.string(); }

  private:
    std::filesystem::path path_;
};

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
poolConfig(const TempDir &dir, unsigned threads)
{
    service::ServerConfig config;
    config.socketPath = dir.file("sim.sock");
    config.threads = threads;
    config.workerPath = MTFPU_WORKERD_PATH;
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
    TempDir dir("journal");
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
    TempDir dir("journal_torn_append");
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
    TempDir dir("dirlock");

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
    TempDir dir("crash_e2e");
    service::ServerConfig config = poolConfig(dir, 1);
    config.crashDir = dir.file("crash");
    config.workerTestCrash = true;
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
    EXPECT_EQ(bad.errorCode, "worker-crash");
    EXPECT_NE(bad.error.find("SIGSEGV"), std::string::npos)
        << bad.error;

    // The crash-report artifact names the signal and the attempts.
    const std::string report =
        readWholeFile(config.crashDir + "/crash_segv.worker-crash.json");
    EXPECT_NE(report.find("\"signal\":\"SIGSEGV\""), std::string::npos)
        << report;
    EXPECT_NE(report.find("\"attempts\":2"), std::string::npos);

    EXPECT_GE(server.pool()->crashes(), 2u);
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
        reference.push_back(local.runJob(spec.resolve()));

    TempDir dir("sweep_e2e");
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
    }
    // Healthy sweep: nothing crashed, the initial spawns were all.
    EXPECT_EQ(server.pool()->crashes(), 0u);
    client.shutdown();
}

TEST(WorkerPool, DeadlineKillsHungWorkerWithoutRetry)
{
    TempDir dir("timeout");
    service::ServerConfig config = poolConfig(dir, 1);
    config.crashDir = dir.file("crash");
    config.workerTestCrash = true;
    config.jobTimeoutMs = 400; // the hang job heartbeats but never ends
    service::SimServer server(config);
    server.start();

    service::SimClient client(config.socketPath, 5000);
    const uint64_t hung = client.submit(crashSpec("hang"));
    const machine::SimJobResult r = client.result(hung, true);
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.quarantined);
    EXPECT_EQ(r.attempts, 1u); // budget exhaustion: no retry
    EXPECT_EQ(r.errorCode, "worker-timeout");
    EXPECT_NE(r.error.find("deadline"), std::string::npos) << r.error;

    // The slot respawned; the pool still serves.
    const machine::SimJobResult ok =
        client.result(client.submit(countdownSpec(30)), true);
    EXPECT_TRUE(ok.ok) << ok.error;
    client.shutdown();
}

TEST(WorkerPool, SilentWorkerClassifiedAsCrashByHeartbeatWindow)
{
    TempDir dir("mute");
    service::ServerConfig config = poolConfig(dir, 1);
    config.workerTestCrash = true;
    config.heartbeatTimeoutMs = 300;
    service::SimServer server(config);
    server.start();

    service::SimClient client(config.socketPath, 5000);
    const uint64_t mute = client.submit(crashSpec("mute"));
    const machine::SimJobResult r = client.result(mute, true);
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.quarantined);
    EXPECT_EQ(r.attempts, 2u); // wedge is retried like a crash
    EXPECT_EQ(r.errorCode, "worker-crash");
    EXPECT_NE(r.error.find("heartbeat"), std::string::npos) << r.error;
    client.shutdown();
}

TEST(WorkerPool, CancelSemanticsAcrossTheProcessBoundary)
{
    TempDir dir("cancel");
    service::ServerConfig config = poolConfig(dir, 1);
    config.crashDir = dir.file("crash");
    config.workerTestCrash = true;
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
    EXPECT_FALSE(std::filesystem::exists(config.crashDir + "/"
                                         "crash_hang.worker-crash.json"));
    const machine::SimJobResult ok =
        client.result(client.submit(countdownSpec(25)), true);
    EXPECT_TRUE(ok.ok) << ok.error;
    client.shutdown();
}

TEST(WorkerPool, AdmissionControlAnswersBusyWithRetryHint)
{
    TempDir dir("busy");
    service::ServerConfig config = poolConfig(dir, 1);
    config.workerTestCrash = true;
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
    TempDir dir("cap");
    service::ServerConfig config = poolConfig(dir, 1);
    config.workerTestCrash = true;
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
    TempDir dir("recover");
    service::ServerConfig config = poolConfig(dir, 1);
    config.journalPath = dir.file("journal.ndjson");
    config.workerTestCrash = true;

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
    config.workerTestCrash = false;
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

} // anonymous namespace
