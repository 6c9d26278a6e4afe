/**
 * @file
 * Reproduces Figure 10: functional-unit latencies of the MultiTitan
 * FPU vs the Cray X-MP. The FPU numbers are measured by running the
 * actual operation sequences on the simulator: one dependent add or
 * multiply (3 cycles x 40 ns = 120 ns), and the full six-operation
 * division macro (18 cycles x 40 ns = 720 ns).
 */

#include <cstdio>
#include <vector>

#include "assembler/assembler.hh"
#include "baseline/published.hh"
#include "bench/bench_util.hh"
#include "common/table.hh"
#include "machine/sim_driver.hh"
#include "softfp/fp64.hh"

using namespace mtfpu;
using namespace mtfpu::bench;

namespace
{

/** Latency measurement job for @p source text. */
machine::SimJob
measureJob(const char *name, const char *source, double num, double den)
{
    machine::SimJob job;
    job.name = name;
    job.config = idealMemoryConfig();
    job.program = assembler::assemble(source);
    job.fpuRegInit = {{0, softfp::fromDouble(num)},
                      {1, softfp::fromDouble(den)}};
    return job;
}

} // anonymous namespace

int
main()
{
    banner("Figure 10: MultiTitan FPU and Cray X-MP latencies");

    const double ns = machine::MachineConfig{}.cycleNs;

    // The three operation sequences simulate as one batch.
    std::vector<machine::SimJob> jobs;
    jobs.push_back(measureJob("add", "fadd f2, f0, f1\nhalt\n", 2.0, 3.0));
    jobs.push_back(measureJob("mul", "fmul f2, f0, f1\nhalt\n", 2.0, 3.0));
    jobs.push_back(measureJob("div", R"(
        frecip f10, f1
        fmul   f11, f1, f10
        fiter  f12, f10, f11
        fmul   f13, f1, f12
        fiter  f14, f12, f13
        fmul   f15, f0, f14
        halt
    )",
                              1.0, 3.0));
    const auto measured_jobs = machine::SimDriver().run(jobs);
    for (const auto &r : measured_jobs) {
        if (!r.ok) {
            std::fprintf(stderr, "%s failed: %s\n", r.name.c_str(),
                         r.error.c_str());
            return 1;
        }
    }
    const uint64_t add_cycles = measured_jobs[0].stats.cycles;
    const uint64_t mul_cycles = measured_jobs[1].stats.cycles;
    const uint64_t div_cycles = measured_jobs[2].stats.cycles;

    TextTable t({"Operation", "FPU (measured)", "FPU (paper)",
                 "X-MP (paper)"});
    const auto &rows = baseline::figure10();
    const double measured[3] = {
        static_cast<double>(add_cycles) * ns,
        static_cast<double>(mul_cycles) * ns,
        static_cast<double>(div_cycles) * ns,
    };
    for (int i = 0; i < 3; ++i) {
        t.addRow({rows[i].operation,
                  TextTable::num(measured[i], 0) + " ns",
                  TextTable::num(rows[i].fpuNs, 0) + " ns",
                  TextTable::num(rows[i].xmpNs, 1) + " ns"});
    }
    std::printf("%s", t.render().c_str());
    std::printf("\n(40 ns cycle; division is six dependent 3-cycle "
                "operations: recip, mul, iter, mul, iter, mul)\n");
    return 0;
}
