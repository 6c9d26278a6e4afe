/**
 * @file
 * Reproduces Figure 9: loading vectors with scalar loads. Fixed-
 * stride loads issue one per cycle with the stride folded into the
 * load offset; gathering through a linked list costs about twice as
 * much, alternating even/odd pointer registers so the data load
 * overlaps the next pointer load despite the one-cycle delay slot.
 */

#include <cstdio>
#include <vector>

#include "assembler/assembler.hh"
#include "bench/bench_util.hh"
#include "machine/sim_driver.hh"
#include "softfp/fp64.hh"

using namespace mtfpu;
using namespace mtfpu::bench;

int
main()
{
    banner("Figure 9: loading of vectors with scalar loads");

    std::vector<machine::SimJob> jobs(2);

    // Fixed stride: 8 elements, stride c = 16 bytes.
    jobs[0].name = "fixed stride";
    jobs[0].config = idealMemoryConfig();
    jobs[0].program = assembler::assemble(R"(
        ldf f0, 0(r1)
        ldf f1, 16(r1)
        ldf f2, 32(r1)
        ldf f3, 48(r1)
        ldf f4, 64(r1)
        ldf f5, 80(r1)
        ldf f6, 96(r1)
        ldf f7, 112(r1)
        halt
    )");
    jobs[0].cpuRegInit = {{1, 0x1000}};
    for (int i = 0; i < 8; ++i)
        jobs[0].memInit.emplace_back(0x1000 + 16 * i,
                                     softfp::fromDouble(1.0 + i));

    // Linked list: 8 elements through next pointers.
    std::string src;
    for (int i = 0; i < 4; ++i) {
        src += "ld  r3, 0(r2)\n";
        src += "ldf f" + std::to_string(2 * i) + ", 8(r2)\n";
        src += "ld  r2, 0(r3)\n";
        src += "ldf f" + std::to_string(2 * i + 1) + ", 8(r3)\n";
    }
    src += "halt\n";
    jobs[1].name = "linked list";
    jobs[1].config = idealMemoryConfig();
    jobs[1].program = assembler::assemble(src);
    for (int i = 0; i < 10; ++i) {
        jobs[1].memInit.emplace_back(0x2000 + 0x100 * i,
                                     0x2000 + 0x100 * (i + 1));
        jobs[1].memInit.emplace_back(0x2000 + 0x100 * i + 8,
                                     softfp::fromDouble(10.0 + i));
    }
    jobs[1].cpuRegInit = {{2, 0x2000}};

    const auto results = machine::SimDriver().run(jobs);
    for (const auto &r : results) {
        if (!r.ok) {
            std::fprintf(stderr, "%s failed: %s\n", r.name.c_str(),
                         r.error.c_str());
            return 1;
        }
    }

    std::printf("\nfixed stride (folded into offsets):\n");
    std::printf("  8 loads in %llu cycles -> %.2f cycles/element "
                "(paper: 1 load issued per cycle)\n",
                static_cast<unsigned long long>(results[0].stats.cycles),
                static_cast<double>(results[0].stats.cycles) / 8.0);
    std::printf("\nlinked list (even/odd pointer alternation):\n");
    std::printf("  8 loads in %llu cycles -> %.2f cycles/element "
                "(paper: ~2x the fixed-stride cost)\n",
                static_cast<unsigned long long>(results[1].stats.cycles),
                static_cast<double>(results[1].stats.cycles) / 8.0);
    return 0;
}
