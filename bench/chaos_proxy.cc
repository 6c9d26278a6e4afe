/**
 * @file
 * Standalone TCP fault-injection proxy (DESIGN.md §13.6) — the
 * command-line front end for service::ChaosProxy. Put it between
 * mtfpu-cli and a daemon to rehearse what a real network does to the
 * wire: latency, torn writes, truncation, garbage, disconnects.
 *
 * Usage:
 *   chaos_proxy --listen=HOST:PORT --target=ADDR [--seed=N]
 *               [--delay-pm=N] [--delay-max-ms=N] [--split-pm=N]
 *               [--drop-pm=N] [--truncate-pm=N] [--garbage-pm=N]
 *
 * --target is "tcp:HOST:PORT" or a Unix socket path (the proxy can
 * front a Unix-only daemon over TCP). Probabilities are per-mille per
 * relayed chunk. --listen with port 0 binds an ephemeral port; the
 * bound port is printed either way ("listening on tcp port N") so
 * scripts can scrape it. Runs until killed; SIGINT/SIGTERM exit
 * cleanly after printing the fault census.
 */

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include <unistd.h>

#include "common/log.hh"
#include "bench/chaos.hh"

using namespace mtfpu;

namespace
{

volatile sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

bool
flagValue(const char *arg, const char *name, std::string &value)
{
    const size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) != 0 || arg[n] != '=')
        return false;
    value = arg + n + 1;
    return true;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: chaos_proxy --listen=HOST:PORT --target=ADDR [--seed=N]\n"
        "                   [--delay-pm=N] [--delay-max-ms=N]\n"
        "                   [--split-pm=N] [--drop-pm=N]\n"
        "                   [--truncate-pm=N] [--garbage-pm=N]\n");
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string listen, target, value;
    service::ChaosPlan plan;
    for (int i = 1; i < argc; ++i) {
        if (flagValue(argv[i], "--listen", value))
            listen = value;
        else if (flagValue(argv[i], "--target", value))
            target = value;
        else if (flagValue(argv[i], "--seed", value))
            plan.seed = std::stoull(value);
        else if (flagValue(argv[i], "--delay-pm", value))
            plan.delayPerMille =
                static_cast<unsigned>(std::stoul(value));
        else if (flagValue(argv[i], "--delay-max-ms", value))
            plan.delayMaxMs = static_cast<unsigned>(std::stoul(value));
        else if (flagValue(argv[i], "--split-pm", value))
            plan.splitPerMille =
                static_cast<unsigned>(std::stoul(value));
        else if (flagValue(argv[i], "--drop-pm", value))
            plan.dropPerMille = static_cast<unsigned>(std::stoul(value));
        else if (flagValue(argv[i], "--truncate-pm", value))
            plan.truncatePerMille =
                static_cast<unsigned>(std::stoul(value));
        else if (flagValue(argv[i], "--garbage-pm", value))
            plan.garbagePerMille =
                static_cast<unsigned>(std::stoul(value));
        else
            return usage();
    }
    if (listen.empty() || target.empty())
        return usage();

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    try {
        service::ChaosProxy proxy(listen, target, plan);
        proxy.start();
        std::printf("listening on tcp port %u (target %s, seed %llu)\n",
                    static_cast<unsigned>(proxy.port()), target.c_str(),
                    static_cast<unsigned long long>(plan.seed));
        std::fflush(stdout);
        while (!g_stop)
            ::pause();
        const service::ChaosCounters c = proxy.counters();
        proxy.stop();
        std::printf("connections=%llu faults=%llu delays=%llu "
                    "splits=%llu drops=%llu truncates=%llu "
                    "garbage=%llu\n",
                    static_cast<unsigned long long>(c.connections),
                    static_cast<unsigned long long>(c.faults()),
                    static_cast<unsigned long long>(c.delays),
                    static_cast<unsigned long long>(c.splits),
                    static_cast<unsigned long long>(c.drops),
                    static_cast<unsigned long long>(c.truncates),
                    static_cast<unsigned long long>(c.garbage));
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "chaos_proxy: %s\n", e.what());
        return 2;
    }
}
