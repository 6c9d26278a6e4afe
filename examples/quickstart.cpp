/**
 * @file
 * Quickstart: assemble a small program for the MultiTitan, run it on
 * the cycle simulator, and read back registers, memory, and
 * statistics. Demonstrates the three-step API: assemble -> load ->
 * run.
 */

#include <cstdio>

#include "assembler/assembler.hh"
#include "machine/machine.hh"

int
main()
{
    using namespace mtfpu;

    // A vector multiply-accumulate: f16..f23 = f0..f7 * f8..f15, then
    // a halving-tree reduction, all while the CPU streams the next
    // block's loads in parallel.
    const char *source = R"(
        ; multiply two 8-element register vectors
        fmul f16, f0, f8, vl=8, sra, srb
        ; start loading the next block while the vector issues
        ldf f40, 0(r1)
        ldf f41, 8(r1)
        ldf f42, 16(r1)
        ; reduce the products with the paper's vector-sum trees
        fadd f24, f16, f20, vl=4, sra, srb
        fadd f28, f24, f26, vl=2, sra, srb
        fadd f30, f28, f29
        ; store the dot product
        stf f30, 64(r1)
        halt
    )";

    machine::Machine m;               // the paper's configuration
    machine::Tracer tracer;           // optional: cycle-level trace
    m.addObserver(&tracer);
    m.loadProgram(assembler::assemble(source));

    // Architectural state is directly accessible.
    for (unsigned i = 0; i < 8; ++i) {
        m.fpu().regs().writeDouble(i, 1.0 + i);     // 1..8
        m.fpu().regs().writeDouble(8 + i, 0.5);     // x 0.5
    }
    m.cpu().writeReg(1, 0x1000);
    for (int i = 0; i < 3; ++i)
        m.mem().writeDouble(0x1000 + 8 * i, 9.0 + i);

    const machine::RunStats stats = m.run();

    std::printf("dot product = %.2f (expect 18.00)\n",
                m.mem().readDouble(0x1000 + 64));
    std::printf("\npipeline timing (I=issue, W=writeback):\n%s\n",
                tracer.renderTimeline().c_str());
    std::printf("%s", stats.summary().c_str());
    std::printf("\nsimulated time: %.0f ns at the 40 ns cycle\n",
                stats.seconds(m.config().cycleNs) * 1e9);
    return 0;
}
