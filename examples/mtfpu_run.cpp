/**
 * @file
 * Standalone runner: assemble a .s file and execute it on the
 * MultiTitan simulator. Makes the simulator usable as a tool without
 * writing any C++.
 *
 * Usage: mtfpu_run <file.s> [--ideal] [--trace] [--list]
 *                  [--fpreg N=VALUE]... [--intreg N=VALUE]...
 *                  [--max-cycles N]
 *
 * Exit code is 0 on a clean halt. After the run the tool prints the
 * statistics and the nonzero architectural state.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/log.hh"
#include "isa/disasm.hh"
#include "machine/machine.hh"

int
main(int argc, char **argv)
{
    using namespace mtfpu;

    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: %s <file.s> [--ideal] [--trace] [--list] "
                     "[--fpreg N=V]... [--intreg N=V]... "
                     "[--max-cycles N]\n",
                     argv[0]);
        return 2;
    }

    std::ifstream in(argv[1]);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", argv[1]);
        return 2;
    }
    std::stringstream ss;
    ss << in.rdbuf();

    machine::MachineConfig cfg;
    bool trace = false, list = false;
    struct RegInit { bool fp; unsigned reg; double val; };
    std::vector<RegInit> inits;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--ideal") {
            cfg.memory.modelCaches = false;
        } else if (arg == "--trace") {
            trace = true;
        } else if (arg == "--list") {
            list = true;
        } else if (arg == "--max-cycles" && i + 1 < argc) {
            cfg.maxCycles = std::strtoull(argv[++i], nullptr, 10);
        } else if ((arg == "--fpreg" || arg == "--intreg") &&
                   i + 1 < argc) {
            const char *spec = argv[++i];
            const char *eq = std::strchr(spec, '=');
            if (!eq) {
                std::fprintf(stderr, "bad register spec '%s'\n", spec);
                return 2;
            }
            inits.push_back(RegInit{arg == "--fpreg",
                                    static_cast<unsigned>(
                                        std::atoi(spec)),
                                    std::atof(eq + 1)});
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            return 2;
        }
    }

    try {
        const assembler::Program prog = assembler::assemble(ss.str());
        if (list)
            std::printf("%s\n", isa::disassembleProgram(prog).c_str());

        machine::Machine m(cfg);
        machine::Tracer tracer;
        if (trace)
            m.addObserver(&tracer);
        m.loadProgram(prog);
        for (const RegInit &r : inits) {
            if (r.fp)
                m.fpu().regs().writeDouble(r.reg, r.val);
            else
                m.cpu().writeReg(r.reg, static_cast<uint64_t>(
                                            static_cast<int64_t>(r.val)));
        }

        const machine::RunStats stats = m.run();

        if (trace)
            std::printf("%s\n", tracer.renderTimeline().c_str());
        std::printf("%s", stats.summary().c_str());

        std::printf("\nnonzero FPU registers:\n");
        for (unsigned r = 0; r < isa::kNumFpuRegs; ++r) {
            if (m.fpu().regs().read(r) != 0) {
                std::printf("  f%-2u = %.17g\n", r,
                            m.fpu().regs().readDouble(r));
            }
        }
        std::printf("nonzero integer registers:\n");
        for (unsigned r = 1; r < isa::kNumIntRegs; ++r) {
            if (m.cpu().readReg(r) != 0) {
                std::printf("  r%-2u = %lld\n", r,
                            static_cast<long long>(m.cpu().readReg(r)));
            }
        }
        if (m.fpu().psw().flags.any()) {
            const auto &f = m.fpu().psw().flags;
            std::printf("PSW flags:%s%s%s%s%s\n",
                        f.overflow ? " overflow" : "",
                        f.underflow ? " underflow" : "",
                        f.inexact ? " inexact" : "",
                        f.invalid ? " invalid" : "",
                        f.divByZero ? " div-by-zero" : "");
        }
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
