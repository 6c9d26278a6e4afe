/**
 * @file
 * The three ways to reduce a vector on the unified vector/scalar
 * register file (paper §2.1.1, Figures 5-7), plus the Fibonacci
 * recurrence (Figure 8) — run side by side with timing diagrams.
 * Classical vector machines can express none of the last three,
 * because their vector registers do not allow inter-element
 * dependencies.
 */

#include <cstdio>

#include "assembler/assembler.hh"
#include "machine/machine.hh"

namespace
{

using namespace mtfpu;

void
demo(const char *title, const char *source,
     void (*setup)(machine::Machine &), unsigned result_reg)
{
    machine::MachineConfig cfg;
    cfg.memory.modelCaches = false;
    machine::Machine m(cfg);
    machine::Tracer tracer;
    m.addObserver(&tracer);
    m.loadProgram(assembler::assemble(source));
    setup(m);
    const machine::RunStats stats = m.run();
    std::printf("\n--- %s ---\n%s", title,
                tracer.renderTimeline().c_str());
    std::printf("result f%u = %g in %llu cycles "
                "(%llu CPU instruction transfers)\n",
                result_reg, m.fpu().regs().readDouble(result_reg),
                static_cast<unsigned long long>(stats.cycles),
                static_cast<unsigned long long>(stats.fpAluTransfers));
}

void
ones_to_eight(machine::Machine &m)
{
    for (unsigned i = 0; i < 8; ++i)
        m.fpu().regs().writeDouble(i, 1.0 + i);
}

void
fib_seed(machine::Machine &m)
{
    m.fpu().regs().writeDouble(0, 1.0);
    m.fpu().regs().writeDouble(1, 1.0);
}

} // anonymous namespace

int
main()
{
    std::printf("Summing f0..f7 (values 1..8; expect 36):\n");

    demo("tree of scalar operations (Figure 5, 12 cycles)",
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
         ones_to_eight, 14);

    demo("linear vector, one instruction (Figure 6, 24 cycles)",
         "fadd f9, f8, f0, vl=8, sra, srb\nhalt\n", ones_to_eight,
         16);

    demo("tree of vector operations (Figure 7, 12 cycles, 3 "
         "transfers)",
         R"(
            fadd f8, f0, f4, vl=4, sra, srb
            fadd f12, f8, f10, vl=2, sra, srb
            fadd f14, f12, f13
            halt
         )",
         ones_to_eight, 14);

    demo("Fibonacci recurrence as one vector (Figure 8)",
         "fadd f2, f1, f0, vl=8, sra, srb\nhalt\n", fib_seed, 9);

    std::printf("\nNote how the vector tree frees the CPU: only 3 "
                "instruction transfers for the 12-cycle sum, leaving "
                "9 issue slots for loads of the next row (§2.1.1).\n");
    return 0;
}
