/**
 * @file
 * Simulation-service tests (DESIGN.md §11): JobSpec JSON round-trips
 * and resolution, the on-disk ResultCache (corruption fallback,
 * cross-restart hits, concurrent writers, closure and start-snapshot
 * jobs never cached), the NDJSON wire framing, and
 * the daemon end-to-end — a client thread drives a sweep over the
 * Unix socket, results come back bit-identical to in-process
 * SimDriver runs, a repeated pure job and a cycle-guard stop are
 * served from cache while a thrown error never is, a restarted daemon
 * serves the same sweep warm from disk, and a quarantined job's crash
 * report replays to the same error at the same cycle.
 *
 * Every daemon runs its jobs in the real mtfpu-workerd binary, whose
 * path comes in as MTFPU_WORKERD_PATH; the replay binary comes in as
 * MTFPU_REPLAY_PATH.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <pthread.h>
#include <sstream>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "assembler/assembler.hh"
#include "common/bytestream.hh"
#include "common/log.hh"
#include "faults/fault_plan.hh"
#include "kernels/runner.hh"
#include "machine/result_cache.hh"
#include "machine/sim_driver.hh"
#include "snapshot/snapshot.hh"
#include "service/client.hh"
#include "service/job_spec.hh"
#include "service/server.hh"
#include "service/wire.hh"
#include "test_dir.hh"

namespace
{

using namespace mtfpu;

using test::TestDir;

/** Count-down loop: cycles scale with @p n, result lands in r1 (0). */
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

/** A pure SimJob with real work, for cache tests. */
machine::SimJob
countdownJob(int n)
{
    machine::SimJob job;
    job.name = "count-" + std::to_string(n);
    job.program = assembler::assemble(countdownAsm(n));
    return job;
}

/** A daemon on a Unix socket in @p dir, running the real worker. */
service::ServerConfig
daemonConfig(const TestDir &dir, unsigned threads)
{
    service::ServerConfig config;
    config.socketPath = dir.file("sim.sock");
    config.pool.workers = threads;
    config.pool.workerPath = MTFPU_WORKERD_PATH;
    return config;
}

/** A program with no halt runs off its end: a deterministic
 *  pc-runaway error, thrown rather than returned. */
service::JobSpec
runawaySpec()
{
    service::JobSpec spec;
    spec.name = "runaway";
    spec.kind = service::JobKind::Assembly;
    spec.assembly = "        nop\n";
    return spec;
}

// ---------------------------------------------------------------- JSON

TEST(JobSpec, JsonRoundTripAllKinds)
{
    service::JobSpec assembly;
    assembly.name = "asm";
    assembly.kind = service::JobKind::Assembly;
    assembly.assembly = "  halt\n";
    assembly.memInit = {{0x100, 0xdeadbeefull}, {0x108, 42}};
    assembly.cpuRegInit = {{1, 7}, {2, 0xffffffffffffffffull}};
    assembly.fpuRegInit = {{3, 0x3ff0000000000000ull}};
    assembly.config.fpuLatency = 5;
    assembly.config.maxCycles = 123456789;

    service::JobSpec code;
    code.name = "code";
    code.kind = service::JobKind::Code;
    code.code = {0u, 0xffffffffu, 0x12345678u};

    service::JobSpec kernel;
    kernel.name = "k";
    kernel.kind = service::JobKind::Kernel;
    kernel.kernel = "lfk01:vector";
    kernel.faultPlan = "";

    service::JobSpec fuzzSpec;
    fuzzSpec.kind = service::JobKind::Fuzz;
    fuzzSpec.fuzzSeed = 0xdeadbeefcafef00dull;

    for (const service::JobSpec &spec :
         {assembly, code, kernel, fuzzSpec}) {
        const service::JobSpec back =
            service::JobSpec::parse(spec.to_json());
        EXPECT_TRUE(back == spec) << spec.to_json();
    }
}

TEST(JobSpec, ConfigJsonRoundTrip)
{
    machine::MachineConfig config;
    config.fpuLatency = 7;
    config.cycleNs = 25.5;
    config.storeCycles = 3;
    config.overlapWithVector = false;
    config.hazardPolicy = machine::HazardPolicy::Stall;
    config.maxCycles = 0xfedcba9876543210ull;
    config.watchdogMs = 1234;
    config.memory.memBytes = 1 << 20;
    config.memory.modelCaches = true;
    config.memory.dataCache.sizeBytes = 4096;
    config.memory.dataCache.lineBytes = 16;
    config.memory.dataCache.missPenalty = 9;
    config.memory.dataCache.writeAllocate = true;
    config.memory.instrCache.sizeBytes = 2048;

    const machine::MachineConfig back = service::configFromJson(
        json::parse(service::configToJson(config)));
    EXPECT_TRUE(back == config);
}

/** A kernel spec asking for an exabyte of simulated memory. */
constexpr const char *kHugeMemSpec =
    "{\"kind\":\"kernel\",\"kernel\":\"lfk01\",\"config\":"
    "{\"memory\":{\"mem_bytes\":1152921504606846976}}}";

TEST(JobSpec, FromJsonRejectsMalformedSpecs)
{
    EXPECT_THROW(service::JobSpec::parse("[1,2]"), SimError);
    EXPECT_THROW(service::JobSpec::parse("{\"kind\":\"nope\"}"),
                 SimError);
    // kind present but its program field missing
    EXPECT_THROW(service::JobSpec::parse("{\"kind\":\"kernel\"}"),
                 SimError);
    EXPECT_THROW(service::JobSpec::parse(
                     "{\"kind\":\"assembly\",\"assembly\":\"halt\","
                     "\"mem_init\":[[1]]}"),
                 SimError);
    // Numbers past their field's width are refused, not truncated:
    // register indices onto r1 and f2, a code word onto 0xf (halt),
    // the latency, store and miss-penalty counts onto 3, 2 and 14.
    for (const char *field :
         {"\"kind\":\"assembly\",\"assembly\":\"halt\","
          "\"cpu_reg_init\":[[4294967297,5]]",
          "\"kind\":\"assembly\",\"assembly\":\"halt\","
          "\"fpu_reg_init\":[[4294967298,5]]",
          "\"kind\":\"code\",\"code\":[4294967311]",
          "\"kind\":\"code\",\"code\":[15],"
          "\"config\":{\"fpu_latency\":4294967299}",
          "\"kind\":\"code\",\"code\":[15],"
          "\"config\":{\"store_cycles\":4294967298}",
          "\"kind\":\"code\",\"code\":[15],\"config\":{\"memory\":"
          "{\"data_cache\":{\"miss_penalty\":4294967310}}}"}) {
        SCOPED_TRACE(field);
        try {
            service::JobSpec::parse(std::string("{") + field + "}");
            ADD_FAILURE() << "out-of-range number accepted";
        } catch (const SimError &err) {
            EXPECT_EQ(err.code(), ErrCode::BadOperand);
        }
    }
    // A word that fits but decodes to no instruction (major opcode 11)
    // parses, and resolving it is refused.
    try {
        service::JobSpec::parse("{\"kind\":\"code\",\"code\":[2952790016]}")
            .resolve();
        ADD_FAILURE() << "undecodable code word resolved";
    } catch (const SimError &err) {
        EXPECT_EQ(err.code(), ErrCode::BadEncoding);
    }
    // A memory past kMaxMemBytes is refused before anything is built
    // in it.
    try {
        service::JobSpec::parse(kHugeMemSpec);
        ADD_FAILURE() << "mem_bytes above the maximum accepted";
    } catch (const SimError &err) {
        EXPECT_EQ(err.code(), ErrCode::BadOperand);
    }
}

// ----------------------------------------------------------- resolution

TEST(JobSpec, ResolveAssemblyRuns)
{
    const service::JobSpec spec = countdownSpec(3);
    const machine::SimJob job = spec.resolve();
    EXPECT_TRUE(machine::isPureJob(job));
    const machine::SimJobResult result =
        machine::SimDriver(1).runAttempt(job);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_GT(result.stats.cycles, 0u);
}

TEST(JobSpec, ResolveKernelMatchesPureKernelJob)
{
    service::JobSpec spec;
    spec.kind = service::JobKind::Kernel;
    spec.kernel = "lfk01:vector";

    const machine::SimJob resolved = spec.resolve();
    EXPECT_EQ(resolved.name, "lfk01/vector");
    EXPECT_TRUE(machine::isPureJob(resolved));

    const kernels::Kernel k = kernels::findKernel("lfk01:vector");
    const machine::SimJob direct =
        kernels::pureKernelJob(k, spec.config);
    EXPECT_EQ(machine::jobContentHash(resolved),
              machine::jobContentHash(direct));
    EXPECT_EQ(machine::jobContentBlob(resolved),
              machine::jobContentBlob(direct));
}

TEST(JobSpec, ResolveFuzzIsDeterministic)
{
    service::JobSpec spec;
    spec.kind = service::JobKind::Fuzz;
    spec.fuzzSeed = 17;
    const machine::SimJob a = spec.resolve();
    const machine::SimJob b = spec.resolve();
    EXPECT_EQ(machine::jobContentBlob(a), machine::jobContentBlob(b));
    EXPECT_EQ(a.name, "fuzz-17");

    spec.fuzzSeed = 18;
    const machine::SimJob c = spec.resolve();
    EXPECT_NE(machine::jobContentBlob(a), machine::jobContentBlob(c));
}

TEST(JobSpec, ResolveFaultPlanAttachesHook)
{
    service::JobSpec spec = countdownSpec(100);
    spec.faultPlan = "";
    EXPECT_TRUE(machine::isPureJob(spec.resolve()));

    // The lockstep flag resolves with or without a plan (a fuzz crash
    // bundle's spec has none), and either way the job is impure.
    spec.lockstep = true;
    const machine::SimJob shadowed = spec.resolve();
    EXPECT_FALSE(machine::isPureJob(shadowed));
    EXPECT_TRUE(shadowed.lockstep);
    EXPECT_TRUE(shadowed.faultPlan.empty());

    // A plan resolves into job data, which startJob turns into the
    // injector hook and the lockstep shadow.
    const faults::FaultPlan plan = faults::FaultPlan::randomSingle(5, 200);
    spec.faultPlan = plan.describe();
    const machine::SimJob faulting = spec.resolve();
    EXPECT_FALSE(machine::isPureJob(faulting));
    EXPECT_TRUE(faulting.faultPlan == plan);
    EXPECT_TRUE(faulting.lockstep);
    machine::Machine m(faulting.config);
    const machine::JobInstruments instruments =
        machine::startJob(faulting, m);
    ASSERT_TRUE(instruments.injector);
    EXPECT_EQ(m.hook(), instruments.injector.get());
    EXPECT_TRUE(instruments.shadow);
}

TEST(KernelRegistry, FindKernelReferences)
{
    EXPECT_EQ(kernels::findKernel("lfk01").variant, "vector");
    EXPECT_EQ(kernels::findKernel("lfk01:scalar").variant, "scalar");
    EXPECT_EQ(kernels::findKernel("linpack").variant, "vector");
    EXPECT_EQ(kernels::findKernel("linpack:scalar").variant, "scalar");
    EXPECT_THROW(kernels::findKernel("lfk99"), SimError);
    EXPECT_THROW(kernels::findKernel("nosuch"), SimError);
    EXPECT_THROW(kernels::findKernel("lfk01:turbo"), SimError);
    // The loop number is the whole rest of the name.
    for (const char *bad : {"lfk1/", "lfk1;", "lfk2/:scalar", "lfk0A"}) {
        try {
            kernels::findKernel(bad);
            ADD_FAILURE() << "'" << bad << "' resolved";
        } catch (const SimError &err) {
            EXPECT_EQ(err.code(), ErrCode::BadOperand) << bad;
        }
    }
    EXPECT_EQ(kernels::findKernel("lfk24:scalar").name, "lfk24");
}

// -------------------------------------------------------------- regInit

TEST(SimJob, RegInitKeepsJobPureAndChangesContent)
{
    machine::SimJob job;
    job.program = assembler::assemble(R"(
        loop:   subi r1, r1, 1
                bne  r1, r0, loop
                nop
                halt
    )");
    job.cpuRegInit = {{1, 5}};
    EXPECT_TRUE(machine::isPureJob(job));

    machine::SimJob longer = job;
    longer.cpuRegInit = {{1, 50}};
    EXPECT_NE(machine::jobContentHash(job),
              machine::jobContentHash(longer));
    EXPECT_NE(machine::jobContentBlob(job),
              machine::jobContentBlob(longer));

    // The register image really reaches the machine: more iterations,
    // more cycles.
    const machine::SimDriver driver(1);
    const machine::SimJobResult five = driver.runAttempt(job);
    const machine::SimJobResult fifty = driver.runAttempt(longer);
    ASSERT_TRUE(five.ok) << five.error;
    ASSERT_TRUE(fifty.ok) << fifty.error;
    EXPECT_GT(fifty.stats.cycles, five.stats.cycles);
}

// --------------------------------------------------------- result cache

TEST(ResultCache, HitReturnsBitIdenticalStatsAcrossRestart)
{
    TestDir dir("cache_hit");
    const machine::SimJob job = countdownJob(64);
    const machine::SimJobResult run =
        machine::SimDriver(1).runAttempt(job);
    ASSERT_TRUE(run.ok) << run.error;

    {
        machine::ResultCache cache(dir.path());
        EXPECT_FALSE(cache.lookup(job).has_value());
        cache.store(job, run.stats);
        const std::optional<machine::RunStats> hit = cache.lookup(job);
        ASSERT_TRUE(hit.has_value());
        EXPECT_TRUE(*hit == run.stats);
        EXPECT_EQ(cache.hits(), 1u);
        EXPECT_EQ(cache.misses(), 1u);
        EXPECT_EQ(cache.stores(), 1u);
    }

    // A fresh instance on the same directory — the "daemon restart"
    // case — serves the entry from disk, bit-identical.
    machine::ResultCache reopened(dir.path());
    const std::optional<machine::RunStats> warm = reopened.lookup(job);
    ASSERT_TRUE(warm.has_value());
    EXPECT_TRUE(*warm == run.stats);
    EXPECT_EQ(reopened.scan().entries, 1u);
}

TEST(ResultCache, ClosureJobsNeverStoreOrHit)
{
    TestDir dir("cache_closure");
    machine::ResultCache cache(dir.path());

    // Neither a body closure nor a start snapshot is content the cache
    // can hash, so neither job is ever stored or served.
    machine::SimJob closured = countdownJob(8);
    closured.body = [](machine::Machine &m) { return m.run(); };
    machine::SimJob started = countdownJob(8);
    machine::Machine paused(started.config);
    machine::startJob(started, paused);
    ASSERT_EQ(paused.runUntil(5).status, machine::RunStatus::Paused);
    started.start = std::make_shared<const machine::JobStart>(
        machine::JobStart{snapshot::capture(paused), {}});

    for (const machine::SimJob &job : {closured, started}) {
        SCOPED_TRACE(job.start ? "start snapshot" : "body closure");
        const machine::SimJobResult run =
            machine::SimDriver(1).runAttempt(job);
        ASSERT_TRUE(run.ok) << run.error;
        cache.store(job, run.stats);
        EXPECT_FALSE(cache.lookup(job).has_value());
    }
    EXPECT_EQ(cache.stores(), 0u);
    EXPECT_EQ(cache.scan().entries, 0u);
}

TEST(ResultCache, CorruptEntriesFallBackToRecompute)
{
    const machine::SimJob job = countdownJob(32);
    const machine::SimJobResult run =
        machine::SimDriver(1).runAttempt(job);
    ASSERT_TRUE(run.ok);

    struct Corruption
    {
        const char *name;
        std::function<void(const std::string &)> mangle;
    };
    const std::vector<Corruption> corruptions = {
        {"bit-flip", [](const std::string &path) {
             std::FILE *f = std::fopen(path.c_str(), "r+b");
             ASSERT_NE(f, nullptr);
             std::fseek(f, 24, SEEK_SET); // inside the content blob
             const int c = std::fgetc(f);
             std::fseek(f, 24, SEEK_SET);
             std::fputc(c ^ 0x40, f);
             std::fclose(f);
         }},
        {"truncation", [](const std::string &path) {
             std::filesystem::resize_file(
                 path, std::filesystem::file_size(path) / 2);
         }},
        {"wrong-version", [&](const std::string &path) {
             // Version drift with a *valid* CRC: rewrite the header
             // version and restamp the trailer, the way a future
             // format revision would look to this build.
             std::optional<std::vector<uint8_t>> data;
             {
                 std::FILE *f = std::fopen(path.c_str(), "rb");
                 ASSERT_NE(f, nullptr);
                 std::vector<uint8_t> bytes(
                     std::filesystem::file_size(path));
                 ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f),
                           bytes.size());
                 std::fclose(f);
                 data = std::move(bytes);
             }
             std::vector<uint8_t> &bytes = *data;
             bytes[4] = static_cast<uint8_t>(
                 machine::ResultCache::kFormatVersion + 1);
             const uint32_t crc =
                 crc32(bytes.data(), bytes.size() - 4);
             for (int i = 0; i < 4; ++i)
                 bytes[bytes.size() - 4 + i] =
                     static_cast<uint8_t>(crc >> (8 * i));
             std::FILE *f = std::fopen(path.c_str(), "wb");
             ASSERT_NE(f, nullptr);
             ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                       bytes.size());
             std::fclose(f);
         }},
    };

    for (const Corruption &corruption : corruptions) {
        SCOPED_TRACE(corruption.name);
        TestDir dir(std::string("cache_corrupt_") + corruption.name);
        machine::ResultCache cache(dir.path());
        cache.store(job, run.stats);
        const std::string path =
            dir.path() + "/" + machine::ResultCache::fileName(job);
        ASSERT_TRUE(std::filesystem::exists(path));
        corruption.mangle(path);

        // The defective entry is a miss, removed for a clean rewrite.
        EXPECT_FALSE(cache.lookup(job).has_value());
        EXPECT_FALSE(std::filesystem::exists(path));

        // Recompute-and-store round-trips back to a hit.
        cache.store(job, run.stats);
        const std::optional<machine::RunStats> again = cache.lookup(job);
        ASSERT_TRUE(again.has_value());
        EXPECT_TRUE(*again == run.stats);
    }
}

TEST(ResultCache, HashCollisionMissesWithoutDeleting)
{
    // Forge the collision: an entry under job B's file name whose
    // content blob belongs to job A. Lookup must refuse to serve it —
    // and must NOT delete it, because in a real collision the entry
    // legitimately belongs to the other job.
    TestDir dir("cache_collision");
    machine::ResultCache cache(dir.path());
    const machine::SimJob jobA = countdownJob(16);
    const machine::SimJob jobB = countdownJob(24);
    const machine::SimJobResult runA =
        machine::SimDriver(1).runAttempt(jobA);
    ASSERT_TRUE(runA.ok);

    ByteWriter out;
    for (char c : {'M', 'T', 'R', 'C'})
        out.u8(static_cast<uint8_t>(c));
    out.u32(machine::ResultCache::kFormatVersion);
    out.u64(machine::jobContentHash(jobB)); // B's hash...
    const std::vector<uint8_t> content =
        machine::jobContentBlob(jobA); // ...but A's content
    out.bytes(content.data(), content.size());
    ByteWriter statsOut;
    runA.stats.saveState(statsOut);
    out.bytes(statsOut.data().data(), statsOut.size());
    out.u32(crc32(out.data().data(), out.size()));

    const std::string path =
        dir.path() + "/" + machine::ResultCache::fileName(jobB);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(out.data().data(), 1, out.size(), f),
              out.size());
    std::fclose(f);

    EXPECT_FALSE(cache.lookup(jobB).has_value());
    EXPECT_TRUE(std::filesystem::exists(path));
}

TEST(ResultCache, ConcurrentWritersOfOneHashRaceBenignly)
{
    TestDir dir("cache_race");
    machine::ResultCache cache(dir.path());
    const machine::SimJob job = countdownJob(48);
    const machine::SimJobResult run =
        machine::SimDriver(1).runAttempt(job);
    ASSERT_TRUE(run.ok);

    std::vector<std::thread> writers;
    for (int i = 0; i < 8; ++i)
        writers.emplace_back([&] { cache.store(job, run.stats); });
    for (std::thread &t : writers)
        t.join();

    const std::optional<machine::RunStats> hit = cache.lookup(job);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(*hit == run.stats);
    EXPECT_EQ(cache.scan().entries, 1u);
    // No stray temp files survive the rename discipline.
    size_t files = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir.path()))
        ++files, (void)entry;
    EXPECT_EQ(files, 1u);

    EXPECT_EQ(cache.clear(), 1u);
    EXPECT_EQ(cache.scan().entries, 0u);
    EXPECT_FALSE(cache.lookup(job).has_value());
}

// ----------------------------------------------------------------- wire

TEST(Wire, LineChannelFramesAndDiscardsTornTail)
{
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    service::LineChannel a(fds[0]);
    {
        service::LineChannel b(fds[1]);
        EXPECT_TRUE(b.writeLine("first"));
        EXPECT_TRUE(b.writeLine("{\"second\": 2}"));
        // Torn trailing fragment: bytes with no newline before close.
        ASSERT_GT(::write(fds[1], "torn", 4), 0);
    } // b closes its end

    std::string line;
    ASSERT_TRUE(a.readLine(line));
    EXPECT_EQ(line, "first");
    ASSERT_TRUE(a.readLine(line));
    EXPECT_EQ(line, "{\"second\": 2}");
    EXPECT_FALSE(a.readLine(line)); // torn fragment never surfaces
}

TEST(Wire, StatsHexRoundTripsBitIdentically)
{
    const machine::SimJobResult run =
        machine::SimDriver(1).runAttempt(countdownJob(20));
    ASSERT_TRUE(run.ok);
    const machine::RunStats back =
        service::statsFromHex(service::statsToHex(run.stats));
    EXPECT_TRUE(back == run.stats);
}

// --------------------------------------------------------------- daemon

/** The sweep the acceptance test runs: >= 20 specs, one repeated. */
std::vector<service::JobSpec>
acceptanceSweep()
{
    std::vector<service::JobSpec> specs;
    for (int n = 1; n <= 12; ++n)
        specs.push_back(countdownSpec(n * 7));
    specs.push_back(countdownSpec(5 * 7)); // deliberate repeat
    for (const char *ref :
         {"lfk01:vector", "lfk01:scalar", "lfk03:vector",
          "lfk03:scalar", "lfk12:vector", "lfk12:scalar"}) {
        service::JobSpec spec;
        spec.name = std::string("kernel-") + ref;
        spec.kind = service::JobKind::Kernel;
        spec.kernel = ref;
        specs.push_back(spec);
    }
    for (uint64_t seed : {11ull, 12ull, 13ull}) {
        service::JobSpec spec;
        spec.kind = service::JobKind::Fuzz;
        spec.fuzzSeed = seed;
        spec.config.maxCycles = 2'000'000;
        spec.config.memory.memBytes = 256 * 1024;
        specs.push_back(spec);
    }
    return specs;
}

/** A daemon result matches its in-process reference: the same
 *  verdict, bit-identical stats and the same error record. */
void
expectSameOutcome(const machine::SimJobResult &got,
                  const machine::SimJobResult &want)
{
    EXPECT_EQ(got.ok, want.ok);
    EXPECT_TRUE(got.stats == want.stats);
    EXPECT_EQ(got.errCode, want.errCode);
    EXPECT_EQ(got.error, want.error);
    EXPECT_EQ(got.errContext, want.errContext);
}

TEST(SimServer, EndToEndSweepBitIdenticalCachedAndWarmAfterRestart)
{
    TestDir dir("daemon_e2e");
    service::ServerConfig config = daemonConfig(dir, 2);
    config.cacheDir = dir.file("cache");
    config.pool.crashDir = dir.file("crash");

    const std::vector<service::JobSpec> specs = acceptanceSweep();
    ASSERT_GE(specs.size(), 20u);

    // Reference results: the same jobs run in-process, no cache.
    const machine::SimDriver local(1);
    std::vector<machine::SimJobResult> reference;
    reference.reserve(specs.size());
    for (const service::JobSpec &spec : specs)
        reference.push_back(local.runAttempt(spec.resolve()));

    std::vector<machine::SimJobResult> coldResults(specs.size());
    {
        service::SimServer server(config);
        server.start();

        // The client drives the daemon from its own thread, over the
        // socket — nothing in-process is shared with the server.
        std::thread clientThread([&] {
            service::SimClient client(config.socketPath);
            ASSERT_TRUE(client.ping());
            std::vector<uint64_t> ids;
            for (const service::JobSpec &spec : specs)
                ids.push_back(client.submit(spec));
            for (size_t i = 0; i < ids.size(); ++i)
                coldResults[i] = client.result(ids[i], true);
        });
        clientThread.join();

        // (a) Wire results are bit-identical to the in-process runs.
        for (size_t i = 0; i < specs.size(); ++i) {
            SCOPED_TRACE(specs[i].name.empty()
                             ? "spec " + std::to_string(i)
                             : specs[i].name);
            expectSameOutcome(coldResults[i], reference[i]);
        }

        // (b) Resubmitting the repeated pure job is served from the
        // cache without simulating.
        service::SimClient client(config.socketPath);
        const uint64_t again = client.submit(specs[4]);
        const machine::SimJobResult cached =
            client.result(again, true);
        EXPECT_TRUE(cached.fromCache);
        EXPECT_EQ(cached.attempts, 0u);
        EXPECT_TRUE(cached.stats == reference[4].stats);

        // (c) Only outcomes that are a pure function of the job are
        // stored. A thrown error carries default stats, so it is never
        // cached: the resubmitted runaway is simulated again.
        const machine::SimJobResult fail =
            client.result(client.submit(runawaySpec()), true);
        EXPECT_FALSE(fail.ok);
        const machine::SimJobResult fail2 =
            client.result(client.submit(runawaySpec()), true);
        EXPECT_FALSE(fail2.fromCache);
        EXPECT_EQ(fail2.errCode, ErrCode::PcRunaway);
        // Its error record crossed both hops intact.
        expectSameOutcome(fail2, local.runAttempt(runawaySpec().resolve()));

        // A CycleGuard stop is one (the bound is part of the job's
        // content): the resubmit is served warm, with the same guard
        // error a fresh simulation reports.
        service::JobSpec guarded;
        guarded.name = "guarded";
        guarded.kind = service::JobKind::Assembly;
        guarded.assembly = "spin:   j spin\n        nop\n";
        guarded.config.maxCycles = 1000;
        const machine::SimJobResult stop =
            client.result(client.submit(guarded), true);
        ASSERT_EQ(stop.stats.status, machine::RunStatus::CycleGuard);
        EXPECT_FALSE(stop.fromCache);
        const machine::SimJobResult stop2 =
            client.result(client.submit(guarded), true);
        EXPECT_TRUE(stop2.fromCache);
        EXPECT_EQ(stop2.attempts, 0u);
        EXPECT_FALSE(stop2.ok);
        EXPECT_EQ(stop2.stats.status, machine::RunStatus::CycleGuard);
        EXPECT_EQ(stop2.errCode, ErrCode::CycleGuard);
        EXPECT_EQ(stop2.errCode, stop.errCode);
        EXPECT_EQ(stop2.error, stop.error);
        EXPECT_EQ(stop2.errContext, stop.errContext);
        EXPECT_TRUE(stop2.stats == stop.stats);
        client.shutdown();
    } // daemon fully stopped (SIGKILL equivalent: no flush hooks run)

    // (d) A restarted daemon serves the same sweep >= 90% warm from
    // the on-disk cache.
    {
        service::SimServer server(config);
        server.start();
        service::SimClient client(config.socketPath);
        std::vector<uint64_t> ids;
        for (const service::JobSpec &spec : specs)
            ids.push_back(client.submit(spec));
        size_t warm = 0;
        for (size_t i = 0; i < ids.size(); ++i) {
            const machine::SimJobResult result =
                client.result(ids[i], true);
            EXPECT_TRUE(result.stats == reference[i].stats);
            if (result.fromCache)
                ++warm;
        }
        EXPECT_GE(warm * 10, specs.size() * 9)
            << warm << " of " << specs.size() << " served warm";
        const service::SimClient::CacheStats stats =
            client.cacheStats();
        EXPECT_TRUE(stats.enabled);
        EXPECT_GE(stats.hits, warm);
        client.shutdown();
        server.serve();
    }
}

TEST(SimServer, QuarantinesFaultingJobWhileSweepCompletes)
{
    TestDir dir("daemon_quarantine");
    service::ServerConfig config = daemonConfig(dir, 2);
    config.pool.crashDir = dir.file("crash");
    service::SimServer server(config);
    server.start();

    service::SimClient client(config.socketPath);
    // The runaway is a deterministic failure: retried once, then
    // quarantined.
    std::vector<uint64_t> ids;
    ids.push_back(client.submit(countdownSpec(10)));
    ids.push_back(client.submit(runawaySpec()));
    ids.push_back(client.submit(countdownSpec(20)));

    const machine::SimJobResult good1 = client.result(ids[0], true);
    const machine::SimJobResult bad = client.result(ids[1], true);
    const machine::SimJobResult good2 = client.result(ids[2], true);

    EXPECT_TRUE(good1.ok) << good1.error;
    EXPECT_TRUE(good2.ok) << good2.error;
    EXPECT_FALSE(bad.ok);
    EXPECT_TRUE(bad.quarantined);
    EXPECT_EQ(bad.attempts, 2u);
    EXPECT_EQ(bad.errCode, ErrCode::PcRunaway);

    // The quarantined job left a crash-report artifact behind.
    bool sawReport = false;
    for (const auto &entry :
         std::filesystem::directory_iterator(config.pool.crashDir))
        sawReport |= entry.path().extension() == ".json";
    EXPECT_TRUE(sawReport);

    // It carries the spec and the structured error, so bench/replay
    // re-runs the job and reproduces the error code at the reported
    // cycle (exit 0).
    const std::string report =
        config.pool.crashDir + "/runaway.worker-crash.json";
    std::ifstream in(report);
    std::stringstream text;
    text << in.rdbuf();
    const json::Value parsed = json::parse(text.str());
    EXPECT_TRUE(parsed.has("spec"));
    EXPECT_EQ(parsed.at("error").at("code").asString(), "pc-runaway");
    EXPECT_FALSE(parsed.at("error").at("cycle").isNull());

    // The client's result carries the same error record.
    const json::Value &reported = parsed.at("error");
    EXPECT_EQ(reported.at("code").asString(), enumName(bad.errCode));
    EXPECT_EQ(reported.at("message").asString(), bad.error);
    EXPECT_EQ(reported.at("cycle").asInt(), bad.errContext.cycle);
    EXPECT_EQ(reported.at("pc").asInt(), bad.errContext.pc);
    const std::string replayOut = dir.file("replay.out");
    const int status =
        std::system((std::string(MTFPU_REPLAY_PATH) + " --tail=0 " +
                     report + " > " + replayOut + " 2>&1")
                        .c_str());
    std::ifstream replayed(replayOut);
    std::stringstream transcript;
    transcript << replayed.rdbuf();
    ASSERT_TRUE(WIFEXITED(status)) << transcript.str();
    EXPECT_EQ(WEXITSTATUS(status), 0) << transcript.str();
    client.shutdown();
}

TEST(SimServer, CancelsQueuedJobBehindLongRun)
{
    TestDir dir("daemon_cancel");
    // One worker: the second job must queue.
    service::SimServer server(daemonConfig(dir, 1));
    const service::ServerConfig &config = server.config();
    server.start();

    service::SimClient client(config.socketPath);
    // An infinite loop bounded only by the cycle guard occupies the
    // single worker long enough for the cancel to land.
    service::JobSpec longJob;
    longJob.name = "long";
    longJob.kind = service::JobKind::Assembly;
    longJob.assembly = "        addi r1, r0, 1\n"
                       "loop:   bne  r1, r0, loop\n"
                       "        nop\n"
                       "        halt\n";
    longJob.config.maxCycles = 20'000'000;

    const uint64_t longId = client.submit(longJob);
    // Let the single worker actually pick the long job up, so the
    // victim is deterministically stuck behind it in the queue.
    while (client.status(longId) == "queued")
        std::this_thread::yield();

    const uint64_t victimId = client.submit(countdownSpec(50));
    EXPECT_TRUE(client.cancel(victimId));
    EXPECT_EQ(client.status(victimId), "cancelled");

    const machine::SimJobResult victim =
        client.result(victimId, true);
    EXPECT_FALSE(victim.ok); // cancelled: no result payload

    // A running job is cancellable too: the pool kills its worker.
    EXPECT_TRUE(client.cancel(longId));
    const machine::SimJobResult killed = client.result(longId, true);
    EXPECT_FALSE(killed.ok);
    EXPECT_EQ(client.status(longId), "cancelled");
    client.shutdown();
}

/**
 * Thread stacks this process maps: anonymous read-write mappings of
 * the default thread-stack size that start right above a guard page.
 * Malloc arenas do not match: their guard region lies above them.
 */
size_t
threadStackMappings()
{
    pthread_attr_t attr;
    size_t stackBytes = 0;
    pthread_getattr_default_np(&attr);
    pthread_attr_getstacksize(&attr, &stackBytes);
    pthread_attr_destroy(&attr);
    std::ifstream maps("/proc/self/maps");
    std::string line;
    uint64_t guardEnd = 0; // end of the previous mapping if a guard
    size_t stacks = 0;
    while (std::getline(maps, line)) {
        // "start-end perms offset dev inode [path]"
        std::istringstream in(line);
        uint64_t start = 0, end = 0;
        char dash = 0;
        std::string perms, offset, dev, inode, path;
        in >> std::hex >> start >> dash >> end >> perms >> offset >> dev >>
            inode >> path;
        if (perms == "rw-p" && inode == "0" && path.empty() &&
            start == guardEnd && end - start == stackBytes)
            ++stacks;
        guardEnd = perms == "---p" ? end : 0;
    }
    return stacks;
}

TEST(SimServer, ReapsFinishedConnectionThreads)
{
    TestDir dir("daemon_reap");
    const service::ServerConfig config = daemonConfig(dir, 1);
    service::SimServer server(config);
    server.start();
    const auto connectPingClose = [&] {
        service::SimClient client(config.socketPath);
        EXPECT_TRUE(client.ping());
    };

    // A finished connection whose thread is never joined has left
    // /proc/self/task, but its stack stays mapped, so 100 of them
    // would add 100 stacks. Joined threads hand their stacks on.
    for (int i = 0; i < 5; ++i)
        connectPingClose();
    const size_t before = threadStackMappings();
    ASSERT_GT(before, 0u); // the server's own threads
    for (int i = 0; i < 100; ++i)
        connectPingClose();
    const size_t after = threadStackMappings();
    EXPECT_LT(after, before + 10) << before << " thread stacks before, "
                                  << after << " after 100 connections";

    service::SimClient(config.socketPath).shutdown();
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
extern "C" size_t __sanitizer_get_current_allocated_bytes();
#endif

/** Memory this process holds in kB: VmRSS, or under a sanitizer,
 *  whose allocator holds freed blocks back, its live heap. */
uint64_t
heldKb()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return __sanitizer_get_current_allocated_bytes() / 1024;
#else
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmRSS:", 0) == 0)
            return std::stoull(line.substr(6));
    }
    return 0;
#endif
}

TEST(SimServer, FinishedJobsKeepTheirResultNotTheirJob)
{
    TestDir dir("daemon_rss");
    const service::ServerConfig config = daemonConfig(dir, 2);
    service::SimServer server(config);
    server.start();
    service::SimClient client(config.socketPath);
    service::JobSpec spec;
    spec.kind = service::JobKind::Kernel;
    spec.kernel = "lfk18:vector";
    const auto runJobs = [&](int jobs) {
        for (int i = 0; i < jobs; ++i) {
            const machine::SimJobResult r =
                client.result(client.submit(spec), true);
            ASSERT_TRUE(r.ok) << r.error;
        }
    };

    // A resolved lfk18 job holds its program and a memory image of
    // about 145 KB. A daemon that kept each finished job's SimJob
    // would grow by some 40 MB over 300 jobs; one that keeps only
    // the results grows by their few hundred bytes each.
    runJobs(20);
    const uint64_t before = heldKb();
    ASSERT_GT(before, 0u);
    runJobs(300);
    const uint64_t after = heldKb();
    const uint64_t grewKb = after > before ? after - before : 0;
    EXPECT_LT(grewKb, 12u * 1024) << "memory grew by " << grewKb << " kB";
    client.shutdown();
}

TEST(SimServer, ProtocolErrorsKeepConnectionAlive)
{
    TestDir dir("daemon_proto");
    const service::ServerConfig config = daemonConfig(dir, 1);
    service::SimServer server(config);
    server.start();

    service::SimClient client(config.socketPath);
    EXPECT_THROW(client.request("this is not json"), SimError);
    EXPECT_THROW(client.request("{\"cmd\":\"frobnicate\"}"), SimError);
    EXPECT_THROW(client.request("{\"no_cmd\":1}"), SimError);
    EXPECT_THROW(client.request("{\"cmd\":\"result\",\"id\":999}"),
                 SimError);
    // status reports one job (the census is health's), a spec that
    // would make the daemon allocate an exabyte is refused, and so is
    // a line nested deeper than the parser's bound, which would
    // otherwise overflow the connection thread's stack.
    for (const std::string &request :
         {std::string("{\"cmd\":\"status\"}"),
          std::string("{\"cmd\":\"submit\",\"spec\":") + kHugeMemSpec +
              "}",
          std::string(200000, '[')}) {
        SCOPED_TRACE(request.substr(0, 80));
        try {
            client.request(request);
            ADD_FAILURE() << "request answered ok";
        } catch (const SimError &err) {
            EXPECT_EQ(err.code(), ErrCode::BadOperand);
        }
    }
    // The same connection still serves real commands afterwards.
    EXPECT_TRUE(client.ping());
    client.shutdown();
}

} // anonymous namespace
