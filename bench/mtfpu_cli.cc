/**
 * @file
 * Command-line front end for the simulation service (DESIGN.md §11):
 * runs the daemon and submits JobSpecs to it — the out-of-process
 * counterpart of calling SimDriver directly.
 *
 * Usage:
 *   mtfpu-cli serve [--socket=PATH] [--listen=HOST:PORT] [--threads=N]
 *                   [--cache-dir=DIR] [--crash-dir=DIR]
 *                   [--worker=PATH] [--journal=PATH]
 *                   [--job-timeout-ms=N] [--hb-timeout-ms=N]
 *                   [--rlimit-cpu=SECONDS] [--rlimit-as-mb=MB]
 *                   [--max-queue=N] [--max-inflight=N]
 *                   [--max-line-bytes=N] [--idle-timeout-ms=N]
 *                   [--write-timeout-ms=N] [--max-conns=N]
 *                   [--test-crash-hooks]
 *   mtfpu-cli ping <addr>
 *   mtfpu-cli health <addr>
 *   mtfpu-cli submit <addr> --spec=FILE [--no-wait] [--deadline=SECS]
 *   mtfpu-cli sweep <addr> --specs=FILE [--wait-timeout=SECS]
 *                   [--deadline=SECS]
 *   mtfpu-cli status <addr> --id=N
 *   mtfpu-cli result <addr> --id=N [--no-wait]
 *   mtfpu-cli cancel <addr> --id=N
 *   mtfpu-cli drain <addr> [--resume]
 *   mtfpu-cli shutdown <addr>
 *   mtfpu-cli cache-stats <addr>
 *   mtfpu-cli cache-clear <addr>
 *
 * <addr> is --socket=PATH (Unix socket) or --connect=HOST:PORT (TCP;
 * DESIGN.md §13). serve can open either listener or both; --listen
 * with port 0 binds an ephemeral port and prints it. The daemon runs
 * every job in a supervised mtfpu-workerd process: --worker names the
 * binary, else it must sit next to mtfpu-cli, or serve exits with an
 * Io error. --crash-dir receives a <job>.worker-crash.json report per
 * quarantined job, which `replay` re-runs.
 *
 * --spec takes one JSON JobSpec ("-" reads stdin); --specs takes a
 * file with one spec per line (the format `fault_campaign
 * --export-specs` and `fuzz --export-specs` emit). sweep submits
 * every spec, waits for all results, and prints one line per job:
 * name, state, run status, cycles, and whether the result came from
 * the daemon's persistent cache.
 *
 * Robustness (DESIGN.md §12): client commands retry the connect with
 * capped exponential backoff (--connect-timeout=SECS, default 5) so
 * racing a daemon that is still binding — or riding out a restart —
 * just works; submits that hit admission control (a Busy response)
 * back off with the daemon's retry_after_ms hint and resubmit; and
 * --wait-timeout bounds how long a sweep waits on any one result.
 *
 * Exit status: 0 on success; 1 when any swept/submitted job failed
 * unexpectedly (quarantined, or failed without being a fault-plan
 * job); 2 on usage or transport errors.
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "common/file_io.hh"
#include "common/log.hh"
#include "service/client.hh"
#include "service/server.hh"

using namespace mtfpu;
using bench::flagNumber;
using bench::flagValue;

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: mtfpu-cli <serve|ping|health|submit|sweep|status|"
                 "result|cancel|drain|shutdown|cache-stats|cache-clear> "
                 "--socket=PATH|--connect=HOST:PORT [options]\n");
    return 2;
}

// "Wait forever" still goes through SimClient::resultWait rather
// than a single blocking request, so a torn connection redials and
// replays instead of killing the command; a day bounds the
// pathological daemon that never answers at all.
constexpr uint64_t kDefaultWaitMs = 24ull * 3600 * 1000;

std::string
readWholeFile(const std::string &path)
{
    if (path != "-")
        return readFile(path);
    std::ostringstream text;
    text << std::cin.rdbuf();
    return text.str();
}

/** One spec per non-empty line (NDJSON). */
std::vector<service::JobSpec>
readSpecLines(const std::string &path)
{
    std::vector<service::JobSpec> specs;
    std::istringstream lines(readWholeFile(path));
    std::string line;
    while (std::getline(lines, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        specs.push_back(service::JobSpec::parse(line));
    }
    return specs;
}

void
printResult(uint64_t id, const machine::SimJobResult &r)
{
    const std::string error = r.ok ? "" : "  error: " + r.error;
    // A job that threw has no run status; show its error code instead.
    const std::string status =
        r.ok || r.stats.status != machine::RunStatus::Ok
            ? machine::runStatusName(r.stats.status)
            : (r.errorCode.empty() ? "failed" : r.errorCode);
    std::printf("job %llu  %-24s %-9s %12llu cycles%s%s%s\n",
                static_cast<unsigned long long>(id), r.name.c_str(),
                status.c_str(),
                static_cast<unsigned long long>(r.stats.cycles),
                r.fromCache ? "  [cache]" : "",
                r.quarantined ? "  [quarantined]" : "", error.c_str());
}

/** A failure is "expected" when the spec carried a fault plan. */
bool
unexpectedFailure(const service::JobSpec &spec,
                  const machine::SimJobResult &r)
{
    return (!r.ok && spec.faultPlan.empty()) || r.quarantined;
}

int
cmdServe(const std::string &socket, const std::string &listen, int argc,
         char **argv)
{
    service::ServerConfig config;
    config.socketPath = socket;
    config.listenAddr = listen;
    std::string value;
    for (int i = 0; i < argc; ++i) {
        if (flagValue(argv[i], "--threads", value))
            config.threads = flagNumber<unsigned>("--threads", value);
        else if (flagValue(argv[i], "--cache-dir", value))
            config.cacheDir = value;
        else if (flagValue(argv[i], "--crash-dir", value))
            config.crashDir = value;
        else if (flagValue(argv[i], "--worker", value))
            config.workerPath = value;
        else if (flagValue(argv[i], "--journal", value))
            config.journalPath = value;
        else if (flagValue(argv[i], "--job-timeout-ms", value))
            config.jobTimeoutMs =
                flagNumber<uint64_t>("--job-timeout-ms", value);
        else if (flagValue(argv[i], "--hb-timeout-ms", value))
            config.heartbeatTimeoutMs =
                flagNumber<uint64_t>("--hb-timeout-ms", value);
        else if (flagValue(argv[i], "--rlimit-cpu", value))
            config.workerRlimitCpuS =
                flagNumber<unsigned>("--rlimit-cpu", value);
        else if (flagValue(argv[i], "--rlimit-as-mb", value))
            config.workerRlimitAsMb =
                flagNumber<unsigned>("--rlimit-as-mb", value);
        else if (flagValue(argv[i], "--max-queue", value))
            config.maxQueue = flagNumber<size_t>("--max-queue", value);
        else if (flagValue(argv[i], "--max-inflight", value))
            config.maxInflightPerClient =
                flagNumber<size_t>("--max-inflight", value);
        else if (flagValue(argv[i], "--max-line-bytes", value))
            config.maxLineBytes = flagNumber<size_t>("--max-line-bytes", value);
        else if (flagValue(argv[i], "--idle-timeout-ms", value))
            config.idleTimeoutMs =
                flagNumber<uint64_t>("--idle-timeout-ms", value);
        else if (flagValue(argv[i], "--write-timeout-ms", value))
            config.writeTimeoutMs =
                flagNumber<uint64_t>("--write-timeout-ms", value);
        else if (flagValue(argv[i], "--max-conns", value))
            config.maxConns = flagNumber<size_t>("--max-conns", value);
        else if (std::strcmp(argv[i], "--test-crash-hooks") == 0)
            config.workerTestCrash = true;
        else if (std::strncmp(argv[i], "--socket", 8) != 0 &&
                 std::strncmp(argv[i], "--listen", 8) != 0)
            return usage();
    }
    service::SimServer server(std::move(config));
    server.start();
    // Announce the TCP endpoint: with --listen=HOST:0 the kernel
    // picked the port, and scripts need it to point clients at us.
    if (server.tcpPort() != 0)
        std::printf("listening on tcp port %u\n",
                    static_cast<unsigned>(server.tcpPort()));
    std::fflush(stdout);
    server.serve();
    return 0;
}

int
cmdSweep(service::SimClient &client, const std::string &specs_path,
         uint64_t wait_timeout_ms, uint64_t deadline_ms)
{
    const std::vector<service::JobSpec> specs =
        readSpecLines(specs_path);
    if (specs.empty()) {
        std::fprintf(stderr, "no specs in %s\n", specs_path.c_str());
        return 2;
    }
    std::vector<uint64_t> ids;
    ids.reserve(specs.size());
    // Busy responses (bounded queue, per-client cap) are expected
    // under load — ride them out for the whole wait budget rather
    // than failing the sweep at the first rejection.
    const uint64_t submit_window =
        wait_timeout_ms > 0 ? wait_timeout_ms : 60000;
    for (const service::JobSpec &spec : specs)
        ids.push_back(
            client.submitRetry(spec, submit_window, deadline_ms));
    int failures = 0;
    for (size_t i = 0; i < ids.size(); ++i) {
        const machine::SimJobResult r = client.resultWait(
            ids[i],
            wait_timeout_ms > 0 ? wait_timeout_ms : kDefaultWaitMs);
        printResult(ids[i], r);
        if (unexpectedFailure(specs[i], r))
            ++failures;
    }
    std::printf("%zu jobs, %d unexpected failures\n", ids.size(),
                failures);
    return failures == 0 ? 0 : 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];

    try {
        std::string socket, listen, connect, spec, specs;
        std::optional<uint64_t> id;
        uint64_t connect_timeout_ms = 5000;
        uint64_t wait_timeout_ms = 0;
        uint64_t deadline_ms = 0;
        bool wait = true;
        bool resume = false;
        std::string value;
        for (int i = 2; i < argc; ++i) {
            if (flagValue(argv[i], "--socket", value))
                socket = value;
            else if (flagValue(argv[i], "--listen", value))
                listen = value;
            else if (flagValue(argv[i], "--connect", value))
                connect = value;
            else if (flagValue(argv[i], "--spec", value))
                spec = value;
            else if (flagValue(argv[i], "--specs", value))
                specs = value;
            else if (flagValue(argv[i], "--id", value))
                id = flagNumber<uint64_t>("--id", value);
            else if (flagValue(argv[i], "--connect-timeout", value))
                connect_timeout_ms =
                    flagNumber<uint64_t>("--connect-timeout", value) * 1000;
            else if (flagValue(argv[i], "--wait-timeout", value))
                wait_timeout_ms =
                    flagNumber<uint64_t>("--wait-timeout", value) * 1000;
            else if (flagValue(argv[i], "--deadline", value))
                deadline_ms = flagNumber<uint64_t>("--deadline", value) * 1000;
            else if (std::strcmp(argv[i], "--no-wait") == 0)
                wait = false;
            else if (std::strcmp(argv[i], "--resume") == 0)
                resume = true;
        }
        // The client address: TCP when --connect is given, else the
        // daemon's Unix socket path.
        const std::string address =
            !connect.empty() ? "tcp:" + connect : socket;
        if (cmd == "serve" ? (socket.empty() && listen.empty())
                           : address.empty())
            return usage();

        if (cmd == "serve")
            return cmdServe(socket, listen, argc - 2, argv + 2);

        service::SimClient client(address, connect_timeout_ms);
        if (cmd == "ping") {
            std::printf("%s\n", client.ping() ? "ok" : "no answer");
            return 0;
        }
        if (cmd == "health") {
            const service::SimClient::Health h = client.health();
            std::printf("uptime_ms=%llu draining=%s connections=%llu\n"
                        "queued=%llu running=%llu done=%llu "
                        "cancelled=%llu deadline_shed=%llu\n",
                        static_cast<unsigned long long>(h.uptimeMs),
                        h.draining ? "yes" : "no",
                        static_cast<unsigned long long>(h.connections),
                        static_cast<unsigned long long>(h.queued),
                        static_cast<unsigned long long>(h.running),
                        static_cast<unsigned long long>(h.done),
                        static_cast<unsigned long long>(h.cancelled),
                        static_cast<unsigned long long>(h.deadlineShed));
            std::printf("pool_slots=%llu pool_busy=%llu "
                        "worker_crashes=%llu worker_respawns=%llu\n",
                        static_cast<unsigned long long>(h.poolSlots),
                        static_cast<unsigned long long>(h.poolBusy),
                        static_cast<unsigned long long>(h.workerCrashes),
                        static_cast<unsigned long long>(h.workerRespawns));
            if (h.cacheEnabled)
                std::printf("cache_hits=%llu cache_misses=%llu "
                            "cache_hit_rate=%.3f\n",
                            static_cast<unsigned long long>(h.cacheHits),
                            static_cast<unsigned long long>(
                                h.cacheMisses),
                            h.cacheHitRate);
            return 0;
        }
        if (cmd == "submit") {
            if (spec.empty())
                return usage();
            const service::JobSpec job_spec =
                service::JobSpec::parse(readWholeFile(spec));
            const uint64_t id = client.submit(
                job_spec, service::SimClient::makeIdemKey(),
                deadline_ms);
            std::printf("job %llu submitted\n",
                        static_cast<unsigned long long>(id));
            if (!wait)
                return 0;
            const machine::SimJobResult r =
                client.resultWait(id, kDefaultWaitMs);
            printResult(id, r);
            return unexpectedFailure(job_spec, r) ? 1 : 0;
        }
        if (cmd == "sweep") {
            if (specs.empty())
                return usage();
            return cmdSweep(client, specs, wait_timeout_ms, deadline_ms);
        }
        if (cmd == "status") {
            if (!id)
                return usage();
            std::printf("%s\n", client.status(*id).c_str());
            return 0;
        }
        if (cmd == "result") {
            if (!id)
                return usage();
            const machine::SimJobResult r =
                wait ? client.resultWait(*id, kDefaultWaitMs)
                     : client.result(*id, false);
            if (r.name.empty() && !r.ok) {
                std::printf("job %llu pending\n",
                            static_cast<unsigned long long>(*id));
                return 0;
            }
            printResult(*id, r);
            return 0;
        }
        if (cmd == "cancel") {
            if (!id)
                return usage();
            const bool cancelled = client.cancel(*id);
            std::printf("%s\n", cancelled ? "cancelled" : "already finished");
            return 0;
        }
        if (cmd == "drain") {
            const bool draining = client.drain(!resume);
            std::printf("%s\n", draining ? "draining" : "accepting");
            return 0;
        }
        if (cmd == "shutdown") {
            client.shutdown();
            std::printf("daemon stopping\n");
            return 0;
        }
        if (cmd == "cache-stats") {
            const service::SimClient::CacheStats stats =
                client.cacheStats();
            if (!stats.enabled) {
                std::printf("cache disabled\n");
                return 0;
            }
            std::printf("hits=%llu misses=%llu stores=%llu "
                        "disk_entries=%llu disk_bytes=%llu\n",
                        static_cast<unsigned long long>(stats.hits),
                        static_cast<unsigned long long>(stats.misses),
                        static_cast<unsigned long long>(stats.stores),
                        static_cast<unsigned long long>(
                            stats.diskEntries),
                        static_cast<unsigned long long>(stats.diskBytes));
            return 0;
        }
        if (cmd == "cache-clear") {
            std::printf("removed %llu entries\n",
                        static_cast<unsigned long long>(
                            client.cacheClear()));
            return 0;
        }
        return usage();
    } catch (const bench::UsageError &e) {
        std::fprintf(stderr, "mtfpu-cli: %s\n", e.what());
        return usage();
    } catch (const FatalError &e) {
        std::fprintf(stderr, "mtfpu-cli: %s\n", e.what());
        return 2;
    }
}
