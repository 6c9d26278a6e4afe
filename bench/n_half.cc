/**
 * @file
 * Reproduces §2.2.1: the vector half-performance length n1/2. A
 * memory-to-memory vector add (2 loads + 1 element + 1 store per
 * result) is timed for every legal vector length 1..16; a Hockney
 * (n1/2, r_inf) model is fit to the measurements. The paper: "The
 * vector half-performance length achieved by the MultiTitan is
 * approximately 4", vs Cray-1 (15), CDC Cyber 205 (100), ICL DAP
 * (2048) — and n1/2 must stay below 8 because the register file is
 * typically partitioned into length-8 vectors.
 */

#include <cstdio>
#include <vector>

#include "baseline/hockney.hh"
#include "bench/bench_util.hh"
#include "kernels/builder.hh"
#include "kernels/runner.hh"
#include "machine/sim_driver.hh"

using namespace mtfpu;
using namespace mtfpu::bench;

namespace
{

/**
 * Job measuring one memory-to-memory vector add of length n. With
 * @p strip_overhead the measurement includes the pointer bumps and
 * the strip-mining branch a real loop body carries — the context the
 * paper's n1/2 ~ 4 describes.
 */
machine::SimJob
vectorAddJob(unsigned n, bool strip_overhead)
{
    kernels::KernelBuilder b;
    b.array("x", 16);
    b.array("y", 16);
    b.array("z", 16);
    const unsigned rx = b.ireg("rx"), ry = b.ireg("ry"),
                   rz = b.ireg("rz"), rc = b.ireg("rc");
    const unsigned A = b.fgroup("A", 16);
    const unsigned B = b.fgroup("B", 16);
    b.loadBase(rx, "x");
    b.loadBase(ry, "y");
    b.loadBase(rz, "z");
    auto body = [&] {
        b.vload(A, rx, 0, 8, n);
        b.vload(B, ry, 0, 8, n);
        b.vop("fadd", A, A, B, n, true, true);
        b.vstore(A, rz, 0, 8, n);
        if (strip_overhead) {
            b.emitf("addi r%u, r%u, %u", rx, rx, 8 * n);
            b.emitf("addi r%u, r%u, %u", ry, ry, 8 * n);
            b.emitf("addi r%u, r%u, %u", rz, rz, 8 * n);
        }
    };
    if (strip_overhead)
        b.loop(rc, 1, body);
    else
        body();

    machine::SimJob job;
    job.name = "vadd n=" + std::to_string(n) +
               (strip_overhead ? " strip" : " bare");
    job.config = idealMemoryConfig();
    job.program = b.build();
    job.memInit = kernels::memImage(
        [&b](memory::MainMemory &mem) {
            b.initConstants(mem);
            for (unsigned i = 0; i < 16; ++i) {
                mem.writeDouble(b.layout().base("x") + 8 * i, 1.0 + i);
                mem.writeDouble(b.layout().base("y") + 8 * i, 2.0 * i);
            }
        },
        job.config.memory.memBytes);
    return job;
}

} // anonymous namespace

int
main()
{
    banner("Section 2.2.1: vector half-performance length n1/2");

    // All 32 measurements (16 lengths x {bare, strip}) as one batch.
    std::vector<machine::SimJob> jobs;
    for (unsigned n = 1; n <= 16; ++n) {
        for (const bool strip_overhead : {false, true})
            jobs.push_back(vectorAddJob(n, strip_overhead));
    }
    const auto results = machine::SimDriver().run(jobs);
    for (const auto &r : results) {
        if (!r.ok) {
            std::fprintf(stderr, "%s failed: %s\n", r.name.c_str(),
                         r.error.c_str());
            return 1;
        }
    }

    std::printf("\nmemory-to-memory vector add, cycles per length:\n");
    std::printf("  %4s %10s %12s %14s\n", "n", "bare op",
                "strip loop", "strip/result");
    std::vector<std::pair<double, double>> bare, strip;
    for (unsigned n = 1; n <= 16; ++n) {
        const uint64_t cb = results[(n - 1) * 2].stats.cycles;
        const uint64_t cs = results[(n - 1) * 2 + 1].stats.cycles;
        bare.emplace_back(n, static_cast<double>(cb));
        strip.emplace_back(n, static_cast<double>(cs));
        std::printf("  %4u %10llu %12llu %14.2f\n", n,
                    static_cast<unsigned long long>(cb),
                    static_cast<unsigned long long>(cs),
                    static_cast<double>(cs) / n);
    }

    const baseline::HockneyFit fit_bare = baseline::fitHockney(bare);
    const baseline::HockneyFit fit = baseline::fitHockney(strip);
    std::printf("\nHockney fits:\n");
    std::printf("  bare vector op:        n1/2 = %.2f, %.2f "
                "results/cycle asymptotic\n",
                fit_bare.nHalf, fit_bare.resultsPerCycle);
    std::printf("  strip-mined iteration: n1/2 = %.2f, %.2f "
                "results/cycle (%.1f MFLOPS at 40 ns)\n",
                fit.nHalf, fit.resultsPerCycle,
                fit.resultsPerCycle * 25.0);
    std::printf("paper: n1/2 ~ 4, and it must stay below 8 for "
                "length-8 register vectors to reach most of peak\n");
    std::printf("  strip n1/2 <= 8: %s;  within [2, 8]: %s\n",
                fit.nHalf <= 8.0 ? "yes" : "NO",
                fit.nHalf >= 2.0 && fit.nHalf <= 8.0 ? "yes" : "NO");

    std::printf("\nclassical machines for context (paper §2.2.1):\n");
    for (const auto &mch : baseline::classicalMachines()) {
        std::printf("  %-14s n1/2 = %6.0f  rate at n=8: %5.1f%% of "
                    "peak\n",
                    mch.name, mch.nHalf,
                    100.0 * baseline::hockneyRate(mch, 8.0) /
                        mch.rInfMflops);
    }
    return 0;
}
