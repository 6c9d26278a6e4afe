/**
 * @file
 * SimDriver batch-runner tests: results come back in job order with
 * byte-identical RunStats regardless of the worker-thread count, a
 * failing job is contained to its own result slot, and the kernel
 * batch wrapper matches runKernel exactly.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "assembler/assembler.hh"
#include "common/log.hh"
#include "faults/fault_plan.hh"
#include "kernels/livermore/livermore.hh"
#include "kernels/runner.hh"
#include "machine/sim_driver.hh"

namespace
{

using namespace mtfpu;

/** A job batch with real work: Livermore loops 1..N, both variants. */
std::vector<machine::SimJob>
livermoreJobs(int loops)
{
    std::vector<machine::SimJob> jobs;
    for (int id = 1; id <= loops; ++id) {
        for (const bool vec : {false, true}) {
            if (vec && !kernels::livermore::hasVectorVariant(id))
                continue;
            const kernels::Kernel k = kernels::livermore::make(id, vec);
            machine::SimJob job;
            job.name = k.name + "/" + k.variant;
            job.program = k.program;
            job.memInit = kernels::memImage(k.init);
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

TEST(SimDriver, ThreadCountResolution)
{
    const machine::SimDriver serial(1);
    EXPECT_EQ(serial.threads(), 1u);
    EXPECT_EQ(serial.threadsFor(100), 1u);

    const machine::SimDriver pool(8);
    EXPECT_EQ(pool.threads(), 8u);
    EXPECT_EQ(pool.threadsFor(3), 3u); // capped at the job count
    EXPECT_EQ(pool.threadsFor(100), 8u);

    const machine::SimDriver def(0);
    EXPECT_GE(def.threads(), 1u); // hardware concurrency, min 1
}

TEST(SimDriver, ResultsInJobOrder)
{
    const std::vector<machine::SimJob> jobs = livermoreJobs(6);
    const auto results = machine::SimDriver(4).run(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(results[i].name, jobs[i].name);
        EXPECT_TRUE(results[i].ok) << results[i].error;
        EXPECT_GT(results[i].stats.cycles, 0u);
    }
}

TEST(SimDriver, DeterministicAcrossThreadCounts)
{
    // The acceptance property: N jobs on one thread and on a full
    // worker pool produce byte-identical per-job RunStats.
    const std::vector<machine::SimJob> jobs = livermoreJobs(12);
    const unsigned wide =
        std::max(4u, std::thread::hardware_concurrency());

    const auto serial = machine::SimDriver(1).run(jobs);
    const auto parallel = machine::SimDriver(wide).run(jobs);

    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(jobs[i].name);
        ASSERT_TRUE(serial[i].ok) << serial[i].error;
        ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
        EXPECT_TRUE(serial[i].stats == parallel[i].stats);
    }
}

TEST(SimDriver, FailingJobIsContained)
{
    std::vector<machine::SimJob> jobs(3);
    jobs[0].name = "ok-before";
    jobs[0].program = assembler::assemble("add r1, r0, r0\nhalt\n");
    jobs[1].name = "fails";
    jobs[1].program = assembler::assemble("halt\n");
    jobs[1].body = [](machine::Machine &) -> machine::RunStats {
        fatal("injected failure");
    };
    jobs[2].name = "ok-after";
    jobs[2].program = assembler::assemble("add r2, r0, r0\nhalt\n");

    const auto results = machine::SimDriver(2).run(jobs);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok);
    EXPECT_FALSE(results[1].ok);
    EXPECT_NE(results[1].error.find("injected failure"),
              std::string::npos);
    EXPECT_TRUE(results[2].ok);
}

TEST(SimDriver, SetupAndBodyHooksRun)
{
    machine::SimJob job;
    job.name = "hooks";
    job.program = assembler::assemble("add r3, r1, r2\nhalt\n");
    job.cpuRegInit = {{1, 40}, {2, 2}};
    uint64_t r3 = 0;
    job.body = [&r3](machine::Machine &m) {
        const machine::RunStats stats = m.run();
        r3 = m.cpu().readReg(3);
        return stats;
    };
    const auto results =
        machine::SimDriver(1).run(std::vector<machine::SimJob>{job});
    ASSERT_TRUE(results[0].ok) << results[0].error;
    EXPECT_EQ(r3, 42u);
}

TEST(SimDriver, HookedJobsAllSimulate)
{
    // Jobs with a fault plan (an injector hook) or the lockstep shadow
    // must never share a result, even when their programs are
    // identical: every one simulates, so the result callback sees
    // each of them.
    std::vector<machine::SimJob> jobs(4);
    for (size_t i = 0; i < jobs.size(); ++i) {
        jobs[i].name = "hooked-" + std::to_string(i);
        jobs[i].program = assembler::assemble("add r1, r0, r0\nhalt\n");
        if (i % 2 == 0) {
            // Flips r5, which the program never reads.
            jobs[i].faultPlan = faults::FaultPlan(
                {faults::Fault{0, faults::FaultSite::CpuReg, 4, 1}});
        } else {
            jobs[i].lockstep = true;
        }
    }
    std::atomic<int> runs{0};
    machine::SimDriver driver(2);
    driver.setResultCallback(
        [&runs](size_t, const machine::SimJobResult &) { ++runs; });
    const auto results = driver.run(jobs);
    EXPECT_EQ(runs.load(), 4);
    for (const auto &r : results)
        EXPECT_TRUE(r.ok) << r.error;
}

TEST(SimDriver, MemInitAppliedBeforeRun)
{
    machine::SimJob job;
    job.name = "meminit";
    job.program = assembler::assemble("ld r1, 256(r0)\nhalt\n");
    job.memInit = {{256, 0xdeadbeefcafef00dull}};
    uint64_t r1 = 0;
    job.body = [&r1](machine::Machine &m) {
        const machine::RunStats stats = m.run();
        r1 = m.cpu().readReg(1);
        return stats;
    };
    const auto results =
        machine::SimDriver(1).run(std::vector<machine::SimJob>{job});
    ASSERT_TRUE(results[0].ok) << results[0].error;
    EXPECT_EQ(r1, 0xdeadbeefcafef00dull);
}

TEST(SimDriver, DuplicateFailingJobsFailAlike)
{
    // A missing halt makes the PC run off the program: a pure failing
    // job. An identical copy fails with the same contained error,
    // under its own name.
    std::vector<machine::SimJob> jobs(2);
    jobs[0].name = "runs-off-a";
    jobs[0].program = assembler::assemble("add r1, r0, r0\n");
    jobs[1] = jobs[0];
    jobs[1].name = "runs-off-b";

    const auto results = machine::SimDriver(1).run(jobs);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_FALSE(results[1].ok);
    EXPECT_EQ(results[0].error, results[1].error);
    EXPECT_EQ(results[1].name, "runs-off-b");
}

TEST(KernelBatch, MatchesSerialRunKernel)
{
    const kernels::Kernel k1 = kernels::livermore::make(1, true);
    const kernels::Kernel k7 = kernels::livermore::make(7, true);
    const machine::MachineConfig cfg;

    const auto batch = kernels::runKernelBatch({k1, k7}, cfg, 0);
    const kernels::KernelResult solo1 = kernels::runKernel(k1, cfg);
    const kernels::KernelResult solo7 = kernels::runKernel(k7, cfg);

    ASSERT_EQ(batch.size(), 2u);
    ASSERT_TRUE(batch[0].error.empty()) << batch[0].error;
    ASSERT_TRUE(batch[1].error.empty()) << batch[1].error;
    EXPECT_TRUE(batch[0].cold == solo1.cold);
    EXPECT_TRUE(batch[0].warm == solo1.warm);
    EXPECT_TRUE(batch[1].cold == solo7.cold);
    EXPECT_TRUE(batch[1].warm == solo7.warm);
    EXPECT_TRUE(batch[0].valid);
    EXPECT_TRUE(batch[1].valid);
}

} // anonymous namespace
