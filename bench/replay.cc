/**
 * @file
 * Deterministic crash replay: consume a crash report, rebuild the
 * failed job's initial machine state, re-execute it under a Tracer,
 * and verify that the same structured error fires at the same cycle.
 * Two report shapes carry that state:
 *
 *   - the daemon's <job>.worker-crash.json for a quarantined job
 *     carries the job's JobSpec: the replay resolves it, so a fault
 *     plan re-attaches, because it is data;
 *   - a fuzzer crash bundle names a sibling .snap snapshot of the
 *     pre-run state, which becomes the replayed job's start state; its
 *     shadow bytes are empty, so the lockstep shadow arms fresh.
 *
 * Either way the replay builds a SimJob and starts it through
 * machine::startJob, the path every other run takes, which also
 * attaches the lockstep shadow the report asks for.
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

#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/log.hh"
#include "machine/machine.hh"
#include "machine/sim_job.hh"
#include "machine/stats.hh"
#include "machine/tracer.hh"
#include "service/job_spec.hh"
#include "snapshot/snapshot.hh"

using namespace mtfpu;

namespace
{

std::string
readTextFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        fatal("cannot open " + path);
    std::string text;
    char buf[65536];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return text;
}

std::string
dirOf(const std::string &path)
{
    const size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? std::string(".")
                                      : path.substr(0, slash);
}

const char *
traceKindName(machine::TraceKind kind)
{
    switch (kind) {
      case machine::TraceKind::CpuIssue: return "issue";
      case machine::TraceKind::FpTransfer: return "fp-transfer";
      case machine::TraceKind::FpElement: return "fp-element";
      case machine::TraceKind::FpWriteback: return "fp-writeback";
      case machine::TraceKind::FpLoadData: return "fp-load-data";
      case machine::TraceKind::GlobalStall: return "global-stall";
    }
    return "?";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string reportPath;
    size_t tail = 40;
    bool timeline = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--tail=", 7) == 0) {
            tail = std::strtoul(argv[i] + 7, nullptr, 10);
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
    if (reportPath.empty()) {
        std::fprintf(stderr,
                     "usage: replay <crash-report.json> [--tail=N] "
                     "[--timeline]\n");
        return 2;
    }

    std::string wantCode;
    int64_t wantCycle = -1;
    std::optional<service::JobSpec> spec;
    std::string snapPath;
    bool lockstep = false;
    machine::SemanticsMutation mutation =
        machine::SemanticsMutation::None;
    std::string jobName;
    try {
        const json::Value report = json::parse(readTextFile(reportPath));
        jobName = report.at("job").asString();
        // Fuzzer crash bundles fail inside the lockstep diff; the
        // replay must re-attach the shadow (and any deliberate
        // shadow mutation) or the error cannot reproduce.
        lockstep = report.has("lockstep") &&
                   report.at("lockstep").asBool();
        if (report.has("mutation"))
            mutation = machine::mutationFromName(
                report.at("mutation").asString());
        if (report.has("spec")) {
            spec = service::JobSpec::from_json(report.at("spec"));
        } else if (report.has("snapshot") &&
                   !report.at("snapshot").isNull()) {
            snapPath = dirOf(reportPath) + "/" +
                       report.at("snapshot").asString();
        } else {
            std::fprintf(stderr,
                         "%s records neither a spec nor a snapshot — "
                         "written by an older build; re-run the job to "
                         "regenerate it\n",
                         reportPath.c_str());
            return 2;
        }
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
    if (spec && !spec->faultPlan.empty())
        std::printf("  fault plan re-attached from the spec\n");

    std::string haveCode;
    int64_t haveCycle = -1;
    try {
        // Both report shapes become a job, and the job starts the one
        // way every job does.
        machine::SimJob job;
        if (spec) {
            job = spec->resolve();
        } else {
            auto start = std::make_shared<machine::JobStart>();
            start->machine = snapshot::readFile(snapPath);
            job.config = start->machine.config;
            job.start = std::move(start);
        }
        job.lockstep = job.lockstep || lockstep;
        machine::Machine m(job.config);
        const machine::JobInstruments instruments =
            machine::startJob(job, m);
        if (lockstep) {
            instruments.shadow->interpreter().setMutation(mutation);
            std::printf("  lockstep shadow attached%s%s\n",
                        mutation == machine::SemanticsMutation::None
                            ? ""
                            : ", shadow mutation: ",
                        mutation == machine::SemanticsMutation::None
                            ? ""
                            : machine::mutationName(mutation));
        }
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
            haveCode = errCodeName(err.code());
            haveCycle = err.context().cycle;
        }

        if (!haveCode.empty()) {
            std::printf("  replay failed with: %s at cycle %s\n",
                        haveCode.c_str(),
                        haveCycle >= 0
                            ? std::to_string(haveCycle).c_str()
                            : "(unknown)");
        }

        const std::vector<machine::TraceEvent> &events = tracer.events();
        if (timeline) {
            std::printf("%s\n", tracer.renderTimeline().c_str());
        } else if (tail > 0 && !events.empty()) {
            const size_t first =
                events.size() > tail ? events.size() - tail : 0;
            std::printf("  trace tail (%zu of %zu events):\n",
                        events.size() - first, events.size());
            for (size_t i = first; i < events.size(); ++i) {
                const machine::TraceEvent &e = events[i];
                std::printf("    @%-8llu %-12s %s\n",
                            static_cast<unsigned long long>(e.cycle),
                            traceKindName(e.kind), e.text.c_str());
            }
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
