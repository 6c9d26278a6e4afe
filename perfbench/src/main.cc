/**
 * @file
 * perfbench: the mtfpu benchmark driver. Runs one workload for a
 * given seed and duration, checks every output, and prints the result
 * as one JSON object on the last line of standard output, preceded by
 * an environment stamp line. See perfbench/README.md.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --bin-dir DIR --work-dir DIR --anchor FILE
 *             [--commit SHA] [--source-digest HEX] [--write-anchor]
 *             [--setup-only]
 *
 * --setup-only runs only the workload's set-up, then prints
 * "ready <steady_clock ticks>"; untraced runs launch fresh copies of
 * the driver that way to measure setup_s.
 */

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <spawn.h>
#include <stdexcept>
#include <string>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "workloads.hh"

extern char **environ;

using namespace perfbench;

namespace
{

/** Fresh driver processes whose set-up time setup_s is the median of. */
constexpr unsigned kSetupLaunches = 15;

int
usage(const char *why)
{
    std::fprintf(stderr, "perfbench: %s\n", why);
    return 2;
}

/** The environment guard: only an optimized, unsanitized build may
 *  report numbers (the same rule as summarize_sim_speed.py --strict). */
std::string
buildProblem()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "sanitized build";
#endif
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0)
        return std::string("build type is '") + PERFBENCH_BUILD_TYPE +
               "', not Release";
    if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize"))
        return "sanitizer flags in CXX flags";
    return "";
}

std::string
stampLine(const Options &opt)
{
    mtfpu::json::Writer w;
    w.beginObject().key("perfbench_env").beginObject();
    w.key("nproc").value(
        static_cast<uint64_t>(std::thread::hardware_concurrency()));
    w.key("compiler").value(PERFBENCH_COMPILER);
    w.key("build_type").value(PERFBENCH_BUILD_TYPE);
    w.key("commit").value(opt.commit);
    w.key("source_digest").value(opt.sourceDigest);
    w.key("workload").value(opt.workload);
    w.key("seed").value(opt.seed);
    w.key("seconds").value(opt.seconds);
    w.key("trace").value(opt.trace);
    w.endObject().endObject();
    return w.str();
}

std::string
resultLine(const Report &report)
{
    mtfpu::json::Writer w;
    w.beginObject();
    w.key("correct").value(report.tally.failed == 0);
    w.key("attempted").value(report.tally.attempted);
    w.key("failed").value(report.tally.failed);
    w.key("metrics").beginObject();
    for (const auto &[name, metric] : report.metrics) {
        w.key(name).beginObject();
        // A non-finite value already failed the run; keep the line JSON.
        w.key("value").value(std::isfinite(metric.value) ? metric.value
                                                         : 0.0);
        w.key("unit").value(metric.unit);
        w.endObject();
    }
    w.endObject().endObject();
    return w.str();
}

bool
knownWorkload(const std::string &name)
{
    return name == "figure-suite" || name == "fault-campaign" ||
           name == "service-mixed";
}

void
runWorkload(const Options &opt, Report &report)
{
    if (opt.workload == "figure-suite")
        runFigureSuite(opt, report);
    else if (opt.workload == "fault-campaign")
        runFaultCampaign(opt, report);
    else
        runServiceMixed(opt, report);
}

/**
 * The launch-to-set-up part of setup_s: the median, over
 * kSetupLaunches fresh copies of this driver started with the same
 * flags plus --setup-only, of the time from launch until the copy has
 * finished the workload's set-up. Each copy pays, cold, everything a
 * run pays before its first timed operation: exec, dynamic linking,
 * static initialisation, first-touch page faults and the set-up work.
 * The copy reports the end of its set-up as a steady_clock reading,
 * which is CLOCK_MONOTONIC and so one clock for every process.
 */
double
processSetupSeconds(int argc, char **argv)
{
    std::vector<std::string> args(argv, argv + argc);
    args.emplace_back("--setup-only");
    std::vector<char *> cargs;
    for (std::string &a : args)
        cargs.push_back(a.data());
    cargs.push_back(nullptr);

    std::vector<double> samples;
    for (unsigned i = 0; i < kSetupLaunches; ++i) {
        int out[2];
        if (::pipe2(out, O_CLOEXEC) != 0)
            throw std::runtime_error("pipe failed");
        posix_spawn_file_actions_t actions;
        ::posix_spawn_file_actions_init(&actions);
        ::posix_spawn_file_actions_adddup2(&actions, out[1], 1);
        pid_t pid = -1;
        const Clock::time_point launched = Clock::now();
        const int rc = ::posix_spawn(&pid, "/proc/self/exe", &actions,
                                     nullptr, cargs.data(), environ);
        ::posix_spawn_file_actions_destroy(&actions);
        ::close(out[1]);
        std::string text;
        char buf[256];
        for (ssize_t n; (n = ::read(out[0], buf, sizeof(buf))) > 0;)
            text.append(buf, static_cast<size_t>(n));
        ::close(out[0]);
        int status = 0;
        const bool ok = rc == 0 && ::waitpid(pid, &status, 0) == pid &&
                        WIFEXITED(status) && WEXITSTATUS(status) == 0;
        const size_t at = text.rfind("ready ");
        if (!ok || at == std::string::npos)
            throw std::runtime_error("set-up launch " + std::to_string(i) +
                                     " failed");
        const Clock::time_point ready{
            Clock::duration{std::stoll(text.substr(at + 6))}};
        samples.push_back(
            std::chrono::duration<double>(ready - launched).count());
    }
    return median(samples);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--write-anchor") {
            opt.writeAnchor = true;
            continue;
        }
        if (arg == "--setup-only") {
            opt.setupOnly = true;
            continue;
        }
        if (!has_value)
            return usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        if (arg == "--workload")
            opt.workload = value;
        else if (arg == "--seed")
            opt.seed = std::stoull(value);
        else if (arg == "--seconds")
            opt.seconds = std::stod(value);
        else if (arg == "--trace")
            opt.trace = value == "1";
        else if (arg == "--bin-dir")
            opt.binDir = value;
        else if (arg == "--work-dir")
            opt.workDir = value;
        else if (arg == "--anchor")
            opt.anchorPath = value;
        else if (arg == "--commit")
            opt.commit = value;
        else if (arg == "--source-digest")
            opt.sourceDigest = value;
        else
            return usage(("unknown flag " + arg).c_str());
    }
    if (opt.binDir.empty() || opt.workDir.empty() || opt.anchorPath.empty())
        return usage("--bin-dir, --work-dir and --anchor are required");
    if (!(opt.seconds > 0))
        return usage("--seconds must be positive");
    if (!knownWorkload(opt.workload))
        return usage(("unknown workload " + opt.workload).c_str());

    const std::string problem = buildProblem();
    if (!problem.empty())
        return usage(("refusing to report: " + problem).c_str());

    // Orphaned daemon workers re-parent to us, so every process the
    // run starts can be reaped before exit.
    ::prctl(PR_SET_CHILD_SUBREAPER, 1);
    std::signal(SIGPIPE, SIG_IGN);
    // Library status lines would flood stderr (one per batch); keep
    // warnings only.
    mtfpu::setLogSink([](mtfpu::LogLevel level, const std::string &tag,
                         const std::string &msg) {
        if (level == mtfpu::LogLevel::Warn)
            std::fprintf(stderr, "warn: %s%s%s\n", tag.c_str(),
                         tag.empty() ? "" : ": ", msg.c_str());
    });

    try {
        if (opt.writeAnchor) {
            writeAnchor(opt);
            return 0;
        }
        Report report;
        if (opt.setupOnly) {
            runWorkload(opt, report);
            std::printf("ready %lld\n",
                        static_cast<long long>(
                            Clock::now().time_since_epoch().count()));
            return 0;
        }
        if (!opt.trace)
            opt.processSetup = processSetupSeconds(argc, argv);
        runWorkload(opt, report);

        for (const auto &[name, metric] : report.metrics)
            report.tally.check(std::isfinite(metric.value),
                               "metric " + name + " is not finite");
        for (const std::string &p : report.tally.problems)
            std::fprintf(stderr, "perfbench: FAILED: %s\n", p.c_str());
        std::printf("%s\n%s\n", stampLine(opt).c_str(),
                    resultLine(report).c_str());
        std::fflush(stdout);
        return report.tally.failed == 0 ? 0 : 1;
    } catch (const std::exception &err) {
        std::fprintf(stderr, "perfbench: %s\n", err.what());
        return 3;
    }
}
