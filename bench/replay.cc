/**
 * @file
 * Deterministic crash replay: consume a crash report, rebuild the
 * failed job from the JobSpec it carries, re-execute it under a
 * Tracer, and verify that the same structured error fires at the same
 * cycle. A report has one shape, the job's `spec` plus its `error`,
 * and two writers:
 *
 *   - the daemon's <job>.worker-crash.json for a quarantined job;
 *   - a fuzzer crash bundle, whose spec runs the minimized program
 *     with the lockstep shadow, and whose `mutation` names any
 *     deliberate shadow bug the campaign installed.
 *
 * The replay resolves the spec and starts the job through
 * machine::startJob, the path every other run takes, so a fault plan
 * and the lockstep shadow re-attach because they are data; it then
 * sets the report's mutation on the shadow startJob returns. It
 * prints the program's listing (isa::disassembleProgram) before the
 * trace.
 *
 * Because a Machine is a closed deterministic system, a genuine
 * simulator failure reproduces exactly — and the trace tail around
 * the faulting cycle is the debugging view the original run could not
 * afford to collect.
 *
 * Usage:
 *   replay <crash-report.json> [--tail=N] [--timeline]
 *
 * --tail=N     print the last N trace events before the failure
 *              (default 40; 0 disables)
 * --timeline   render the Figure 5-8 style pipeline timeline instead
 *              of the flat event tail
 *
 * Exit status: 0 when the replay reproduces the reported error code
 * (and cycle, when the report recorded one), 1 on mismatch, 2 on
 * usage/artifact errors.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_util.hh"
#include "common/file_io.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "isa/disasm.hh"
#include "machine/machine.hh"
#include "machine/sim_job.hh"
#include "machine/stats.hh"
#include "machine/tracer.hh"
#include "service/job_spec.hh"

using namespace mtfpu;
using bench::flagNumber;
using bench::flagValue;

namespace
{

int
usage()
{
    std::fprintf(stderr, "usage: replay <crash-report.json> [--tail=N] "
                         "[--timeline]\n");
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string reportPath;
    size_t tail = 40;
    bool timeline = false;
    for (int i = 1; i < argc; ++i) {
        std::string value;
        if (flagValue(argv[i], "--tail", value)) {
            try {
                tail = flagNumber<size_t>("--tail", value);
            } catch (const bench::UsageError &err) {
                std::fprintf(stderr, "replay: %s\n", err.what());
                return usage();
            }
        } else if (std::strcmp(argv[i], "--timeline") == 0) {
            timeline = true;
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
            return 2;
        } else if (reportPath.empty()) {
            reportPath = argv[i];
        } else {
            std::fprintf(stderr, "extra argument: %s\n", argv[i]);
            return 2;
        }
    }
    if (reportPath.empty())
        return usage();

    std::string wantCode;
    int64_t wantCycle = -1;
    service::JobSpec spec;
    machine::SemanticsMutation mutation =
        machine::SemanticsMutation::None;
    std::string jobName;
    try {
        const json::Value report = json::parse(readFile(reportPath));
        jobName = report.at("job").asString();
        spec = service::JobSpec::from_json(report.at("spec"));
        // A fuzzer bundle's failure is the lockstep diff against a
        // deliberately broken shadow; without the mutation it cannot
        // reproduce.
        if (report.has("mutation"))
            mutation = parseEnum<machine::SemanticsMutation>(
                report.at("mutation").asString(), "semantics mutation",
                ErrCode::BadOperand);
        const json::Value &error = report.at("error");
        if (!error.isNull()) {
            wantCode = error.at("code").asString();
            if (!error.at("cycle").isNull())
                wantCycle = error.at("cycle").asInt();
        }
    } catch (const FatalError &err) {
        std::fprintf(stderr, "bad crash report %s: %s\n",
                     reportPath.c_str(), err.what());
        return 2;
    }

    std::printf("replaying job '%s'\n", jobName.c_str());
    std::printf("  reported error: %s at cycle %s\n",
                wantCode.empty() ? "(none)" : wantCode.c_str(),
                wantCycle >= 0 ? std::to_string(wantCycle).c_str()
                               : "(unknown)");
    if (!spec.faultPlan.empty())
        std::printf("  fault plan re-attached from the spec\n");

    std::string haveCode;
    int64_t haveCycle = -1;
    try {
        const machine::SimJob job = spec.resolve();
        machine::Machine m(job.config);
        const machine::JobInstruments instruments =
            machine::startJob(job, m);
        if (instruments.shadow) {
            instruments.shadow->interpreter().setMutation(mutation);
            std::printf("  lockstep shadow attached%s%s\n",
                        mutation == machine::SemanticsMutation::None
                            ? ""
                            : ", shadow mutation: ",
                        mutation == machine::SemanticsMutation::None
                            ? ""
                            : enumName(mutation));
        }
        std::printf("  program (%zu instructions):\n%s",
                    job.program.code.size(),
                    isa::disassembleProgram(job.program).c_str());
        machine::Tracer tracer;
        m.addObserver(&tracer);
        try {
            const machine::RunStats stats = m.run();
            if (stats.status == machine::RunStatus::Ok) {
                std::printf("  replay completed cleanly after %llu "
                            "cycles — failure did NOT reproduce\n",
                            static_cast<unsigned long long>(stats.cycles));
            } else {
                haveCode = machine::runStatusName(stats.status);
                haveCycle = static_cast<int64_t>(stats.cycles);
            }
        } catch (const SimError &err) {
            haveCode = enumName(err.code());
            haveCycle = err.context().cycle;
        }

        if (!haveCode.empty()) {
            std::printf("  replay failed with: %s at cycle %s\n",
                        haveCode.c_str(),
                        haveCycle >= 0
                            ? std::to_string(haveCycle).c_str()
                            : "(unknown)");
        }

        const size_t events = tracer.events().size();
        if (timeline) {
            std::printf("%s\n", tracer.renderTimeline().c_str());
        } else if (tail > 0 && events > 0) {
            std::printf("  trace tail (%zu of %zu events):\n%s",
                        std::min(tail, events), events,
                        tracer.renderLog(tail).c_str());
        }
    } catch (const FatalError &err) {
        std::fprintf(stderr, "replay setup failed: %s\n", err.what());
        return 2;
    }

    const bool codeMatch = !wantCode.empty() && haveCode == wantCode;
    const bool cycleMatch = wantCycle < 0 || haveCycle == wantCycle;
    if (codeMatch && cycleMatch) {
        std::printf("REPRODUCED: %s at the reported cycle\n",
                    haveCode.c_str());
        return 0;
    }
    std::printf("NOT REPRODUCED: wanted %s@%lld, got %s@%lld\n",
                wantCode.empty() ? "(none)" : wantCode.c_str(),
                static_cast<long long>(wantCycle),
                haveCode.empty() ? "(clean run)" : haveCode.c_str(),
                static_cast<long long>(haveCycle));
    return 1;
}
