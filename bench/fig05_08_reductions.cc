/**
 * @file
 * Reproduces Figures 5-8: the three ways to sum eight vector elements
 * (tree of scalars, linear vector, tree of vectors) and the Fibonacci
 * recurrence, with cycle-by-cycle timing diagrams in the style of the
 * paper's figures.
 *
 * Paper numbers: Fig. 5 = 12 cycles, Fig. 6 = 24 cycles,
 * Fig. 7 = 12 cycles with only 3 CPU instruction transfers,
 * Fig. 8 = last Fibonacci element written at cycle 24.
 *
 * Exit status: 0 when every figure matches the paper's cycle count,
 * 1 on any [MISMATCH] or failed simulation.
 */

#include <cstdio>
#include <vector>

#include "assembler/assembler.hh"
#include "bench/bench_util.hh"
#include "machine/sim_driver.hh"
#include "machine/tracer.hh"
#include "softfp/fp64.hh"

namespace
{

using namespace mtfpu;
using namespace mtfpu::bench;

struct Case
{
    const char *title;
    const char *source;
    uint64_t paper_cycles;
    bool fibonacci;
};

const Case kCases[] = {
    {"Figure 5: summing with a tree of scalar operations",
     R"(
        fadd f8, f0, f1
        fadd f9, f2, f3
        fadd f10, f4, f5
        fadd f11, f6, f7
        fadd f12, f8, f9
        fadd f13, f10, f11
        fadd f14, f12, f13
        halt
     )",
     12, false},
    {"Figure 6: summing with a linear vector (moving accumulator)",
     R"(
        fadd f9, f8, f0, vl=8, sra, srb
        halt
     )",
     24, false},
    {"Figure 7: summing with a tree of vector operations",
     R"(
        fadd f8, f0, f4, vl=4, sra, srb
        fadd f12, f8, f10, vl=2, sra, srb
        fadd f14, f12, f13
        halt
     )",
     12, false},
    {"Figure 8: vectorization of recurrences (Fibonacci, VL=8)",
     R"(
        fadd f2, f1, f0, vl=8, sra, srb
        halt
     )",
     24, true},
};

} // anonymous namespace

int
main()
{
    banner("Figures 5-8: reductions and recurrences on the unified "
           "vector/scalar file");

    // All four figures simulate concurrently on the batch driver;
    // each job captures its timeline and register results into its
    // own slot (one Tracer and one Machine per worker, no sharing).
    struct CaseOutput
    {
        std::string timeline;
        uint64_t transfers = 0;
        std::vector<double> fpRegs;
    };
    const size_t n = std::size(kCases);
    std::vector<CaseOutput> outputs(n);
    std::vector<machine::SimJob> jobs(n);
    for (size_t i = 0; i < n; ++i) {
        const Case &c = kCases[i];
        CaseOutput &out = outputs[i];
        jobs[i].name = c.title;
        jobs[i].program = assembler::assemble(c.source);
        jobs[i].config = idealMemoryConfig();
        // Figure 8 seeds f0 = f1 = 1; the reductions sum 1..8 in f0..f7.
        const unsigned seeded = c.fibonacci ? 2 : 8;
        for (unsigned r = 0; r < seeded; ++r)
            jobs[i].fpuRegInit.emplace_back(
                r, softfp::fromDouble(c.fibonacci ? 1.0 : 1.0 + r));
        jobs[i].body = [&out](machine::Machine &m) {
            machine::Tracer tracer;
            m.addObserver(&tracer);
            const machine::RunStats stats = m.run();
            out.timeline = tracer.renderTimeline();
            out.transfers = stats.fpAluTransfers;
            for (unsigned r = 0; r < 17; ++r)
                out.fpRegs.push_back(m.fpu().regs().readDouble(r));
            m.removeObserver(&tracer);
            return stats;
        };
    }
    const std::vector<machine::SimJobResult> results =
        machine::SimDriver().run(jobs);

    bool allMatch = true;
    for (size_t i = 0; i < n; ++i) {
        const Case &c = kCases[i];
        const CaseOutput &out = outputs[i];
        if (!results[i].ok) {
            std::fprintf(stderr, "%s failed: %s\n", c.title,
                         results[i].error.c_str());
            return 1;
        }
        const machine::RunStats &stats = results[i].stats;
        allMatch &= stats.cycles == c.paper_cycles;

        std::printf("\n%s\n", c.title);
        std::printf("%s", out.timeline.c_str());
        std::printf("  total cycles: %llu (paper: %llu)%s\n",
                    static_cast<unsigned long long>(stats.cycles),
                    static_cast<unsigned long long>(c.paper_cycles),
                    stats.cycles == c.paper_cycles ? "  [match]"
                                                   : "  [MISMATCH]");
        std::printf("  CPU instruction transfers for the sum: %llu\n",
                    static_cast<unsigned long long>(out.transfers));
        if (c.fibonacci) {
            std::printf("  Fibonacci results f2..f9:");
            for (unsigned r = 2; r <= 9; ++r)
                std::printf(" %.0f", out.fpRegs[r]);
            std::printf("\n");
        } else {
            std::printf("  sum of 1..8 = %.0f (expect 36)\n",
                        out.fpRegs[c.paper_cycles == 24 ? 16 : 14]);
        }
    }
    std::printf("\nKey: I = element issue, = = in the pipeline, "
                "W = writeback (3-cycle latency incl. bypass)\n");
    return allMatch ? 0 : 1;
}
