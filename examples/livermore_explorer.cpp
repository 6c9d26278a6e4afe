/**
 * @file
 * Livermore loop explorer: run any of the 24 kernels in its scalar or
 * vector variant, with any cache configuration, and print the full
 * statistics — a workbench for exploring the design space the paper
 * discusses.
 *
 * Usage: livermore_explorer [loop] [scalar|vector] [ideal]
 */

#include <cstdio>
#include <cstring>

#include "common/text.hh"
#include "kernels/livermore/livermore.hh"
#include "kernels/runner.hh"

int
main(int argc, char **argv)
{
    using namespace mtfpu;
    namespace lfk = kernels::livermore;

    int id = 1;
    bool vector = false;
    bool ideal = false;
    bool badWord = argc > 4;
    if (argc > 1)
        id = parseNumber<int>(argv[1]).value_or(0);
    if (argc > 2) {
        vector = std::strcmp(argv[2], "vector") == 0;
        badWord |= !vector && std::strcmp(argv[2], "scalar") != 0;
    }
    if (argc > 3) {
        ideal = std::strcmp(argv[3], "ideal") == 0;
        badWord |= !ideal;
    }

    if (badWord || id < 1 || id > lfk::kNumLoops) {
        std::fprintf(stderr,
                     "usage: %s [1..24] [scalar|vector] [ideal]\n",
                     argv[0]);
        return 2;
    }
    if (vector && !lfk::hasVectorVariant(id)) {
        std::fprintf(stderr,
                     "loop %d has no vector variant; running "
                     "scalar\n",
                     id);
        vector = false;
    }

    machine::MachineConfig cfg;
    cfg.memory.modelCaches = !ideal;

    const kernels::Kernel k = lfk::make(id, vector);
    std::printf("LFK %d — %s (%s variant, span %d, %.0f flops)\n", id,
                k.title.c_str(), k.variant.c_str(), lfk::span(id),
                k.flops);

    const kernels::KernelResult r = kernels::runKernel(k, cfg);
    std::printf("\ncold cache: %8llu cycles  %6.2f MFLOPS\n",
                static_cast<unsigned long long>(r.cold.cycles),
                r.mflopsCold);
    std::printf("warm cache: %8llu cycles  %6.2f MFLOPS\n",
                static_cast<unsigned long long>(r.warm.cycles),
                r.mflopsWarm);
    std::printf("validation: %s (relative error %.3g)\n",
                r.valid ? "passed" : "FAILED", r.relError);
    std::printf("\nwarm-run statistics:\n%s",
                r.warm.summary().c_str());
    return r.valid ? 0 : 1;
}
