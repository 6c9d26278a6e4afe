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
 * After the run the tool prints the statistics and the nonzero
 * architectural state. Exit code is 0 on a clean halt, 1 when the
 * cycle guard or a simulator error stops the run, and 2 on a bad
 * command line (numbers are whole tokens: --max-cycles N and a
 * register number take decimal digits, an --fpreg value a decimal
 * number, and an --intreg value a signed decimal integer).
 */

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "common/log.hh"
#include "common/text.hh"
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
    struct RegInit { bool fp; unsigned reg; double fval; int64_t ival; };
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
            const std::optional<uint64_t> n = parseNumber<uint64_t>(argv[++i]);
            if (!n) {
                std::fprintf(stderr, "bad --max-cycles '%s'\n", argv[i]);
                return 2;
            }
            cfg.maxCycles = *n;
        } else if ((arg == "--fpreg" || arg == "--intreg") &&
                   i + 1 < argc) {
            const std::string spec = argv[++i];
            const size_t eq = spec.find('=');
            const std::string value =
                eq == std::string::npos ? "" : spec.substr(eq + 1);
            const bool fp = arg == "--fpreg";
            const std::optional<unsigned> reg =
                parseNumber<unsigned>(spec.substr(0, eq));
            const std::optional<double> fval = parseNumber<double>(value);
            const std::optional<int64_t> ival = parseNumber<int64_t>(value);
            if (!reg || !(fp ? fval.has_value() : ival.has_value())) {
                std::fprintf(stderr, "bad register spec '%s'\n",
                             spec.c_str());
                return 2;
            }
            inits.push_back(
                RegInit{fp, *reg, fval.value_or(0), ival.value_or(0)});
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
                m.fpu().regs().writeDouble(r.reg, r.fval);
            else
                m.cpu().writeReg(r.reg, static_cast<uint64_t>(r.ival));
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
        // A guard stop is not a halt: the state above is a partial run.
        return stats.status == machine::RunStatus::Ok ? 0 : 1;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
