/**
 * @file
 * service-mixed: the daemon clients' workload. A real `mtfpu-cli
 * serve` daemon in worker-pool mode (two mtfpu-workerd processes) on a
 * fresh cache directory, journal, Unix socket and ephemeral TCP port,
 * driven through service::SimClient by one client process: two
 * connections, one per transport, each a closed loop with one job in
 * flight (submit, then wait for the result, then the next), the way
 * `mtfpu-cli submit`/`sweep` callers wait for their replies.
 *
 * Each connection draws its own seeded stream of three kinds of spec:
 *  - cold kernel specs: every suite kernel under every ablation-grid
 *    config, in a seeded order; each carries a run guard no other spec
 *    uses, so it is new to the cache and simulates in a worker;
 *  - cold fuzz specs: short generated programs, where per-job overhead
 *    dominates;
 *  - repeats of a spec this connection already got a result for, so
 *    every repeat is a cache hit by construction.
 * The wire, SimServer admission and journal, the WorkerPool, JobSpec
 * parse/resolve and ResultCache lookup/store do the work here and none
 * in the other workloads; hits (cache reads) run beside misses (cache
 * writes).
 */

#include <algorithm>
#include <memory>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <mutex>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "common/log.hh"
#include "kernels/runner.hh"
#include "machine/sim_driver.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace mtfpu;

namespace
{

/**
 * Stream mix: half the steps repeat a returned spec (70% of repeats a
 * kernel spec, 30% a fuzz spec) and half are cold (half kernel, half
 * fuzz). Sorted by latency that is fuzz hits (15%), fuzz misses (25%),
 * kernel hits (35%), kernel misses (25%), so the median falls inside
 * the kernel-hit mode rather than in the gap between two modes.
 */
constexpr double kKernelRepeatShare = 0.7;
/** Run guards of cold kernel specs start here: far above any suite
 *  kernel's cycle count, so the guard never fires. */
constexpr uint64_t kGuardBase = 1'000'000'000;
/** Jobs per connection whose results make up the exact counts. */
constexpr size_t kCountedJobs = 60;

enum Kind
{
    ColdKernel,
    ColdFuzz,
    HitKernel,
    HitFuzz,
};

bool
isHit(Kind k)
{
    return k == HitKernel || k == HitFuzz;
}

/** Wait for @p pid up to @p timeout_ms; true when it was reaped. */
bool
waitFor(pid_t pid, int timeout_ms)
{
    for (int waited = 0;; waited += 5) {
        const pid_t r = ::waitpid(pid, nullptr, WNOHANG);
        if (r == pid || (r < 0 && errno == ECHILD))
            return true;
        if (waited >= timeout_ms)
            return false;
        ::usleep(5000);
    }
}

/** A daemon process with its own scratch directory. */
class Daemon
{
  public:
    Daemon(const Options &opt, const std::string &tag)
    {
        const std::string dir = opt.workDir + "/" + tag;
        std::filesystem::create_directories(dir);
        socket_ = dir + "/d.sock";
        const std::string cli = opt.binDir + "/mtfpu-cli";
        std::vector<std::string> args = {
            cli,
            "serve",
            "--socket=" + socket_,
            "--listen=127.0.0.1:0",
            "--threads=2",
            "--cache-dir=" + dir + "/cache",
            "--journal=" + dir + "/daemon.journal",
        };
        int out[2];
        if (::pipe2(out, O_CLOEXEC) != 0)
            fatal(ErrCode::Io, "pipe failed");
        const std::string log = dir + "/daemon.log";
        pid_ = ::fork();
        if (pid_ == 0) {
            ::setpgid(0, 0);
            // If perfbench itself is killed, the daemon goes too (and
            // its workers, which exit when their daemon's socket closes).
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            ::dup2(out[1], 1);
            const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                                  0644);
            if (fd >= 0)
                ::dup2(fd, 2);
            std::vector<char *> argv;
            for (std::string &a : args)
                argv.push_back(a.data());
            argv.push_back(nullptr);
            ::execv(cli.c_str(), argv.data());
            ::_exit(127);
        }
        ::close(out[1]);
        if (pid_ < 0) {
            ::close(out[0]);
            fatal(ErrCode::Io, "fork failed");
        }
        ::setpgid(pid_, pid_);
        out_ = out[0];
        port_ = readPort();
        if (port_ == 0) {
            kill();
            fatal(ErrCode::Io, "daemon did not announce its TCP port; see " +
                                   log);
        }
    }

    ~Daemon() { kill(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    std::string unixAddr() const { return socket_; }
    std::string tcpAddr() const
    {
        return "tcp:127.0.0.1:" + std::to_string(port_);
    }
    pid_t pid() const { return pid_; }

    /** Graceful stop: shutdown command, then reap daemon and workers. */
    void
    shutdown()
    {
        if (pid_ <= 0)
            return;
        try {
            service::SimClient(socket_, 2000).shutdown();
        } catch (const FatalError &) {
        }
        if (!waitFor(pid_, 30000))
            warn("daemon ignored shutdown; killing it");
        kill();
    }

  private:
    /** Scrape "listening on tcp port N" from the daemon's stdout. */
    uint16_t
    readPort()
    {
        std::string text;
        const Clock::time_point start = Clock::now();
        while (since(start) < 30) {
            pollfd p{out_, POLLIN, 0};
            if (::poll(&p, 1, 100) <= 0)
                continue;
            char buf[256];
            const ssize_t n = ::read(out_, buf, sizeof(buf));
            if (n <= 0)
                return 0;
            text.append(buf, static_cast<size_t>(n));
            const size_t at = text.find("listening on tcp port ");
            const size_t nl =
                at == std::string::npos ? at : text.find('\n', at);
            if (nl != std::string::npos)
                return static_cast<uint16_t>(
                    std::stoul(text.substr(at + 22, nl - at - 22)));
        }
        return 0;
    }

    /** SIGKILL whatever is left of the process group and reap it. */
    void
    kill()
    {
        if (pid_ > 0) {
            ::kill(-pid_, SIGKILL);
            waitFor(pid_, 30000);
            // Workers are in the daemon's group; as a subreaper we
            // inherit and reap them once the daemon is gone.
            for (int i = 0; i < 6000 && ::kill(-pid_, 0) == 0; ++i) {
                ::kill(-pid_, SIGKILL);
                while (::waitpid(-1, nullptr, WNOHANG) > 0) {
                }
                ::usleep(5000);
            }
            pid_ = -1;
        }
        if (out_ >= 0) {
            ::close(out_);
            out_ = -1;
        }
    }

    pid_t pid_ = -1;
    int out_ = -1;
    uint16_t port_ = 0;
    std::string socket_;
};

/** One submitted job, as the generator and the client saw it. */
struct Sample
{
    Kind kind;
    size_t spec;         // index into the connection's spec table
    double start = 0;    // trace-epoch seconds
    double submitted = 0;
    double done = 0;
    machine::SimJobResult result;
};

/** One step of a connection's stream: what to submit. */
struct Step
{
    Kind kind;
    size_t spec; // index into the stream's spec table
};

/**
 * One connection's seeded stream, generated up front. The kinds are
 * drawn without replacement from fixed counts, so every stream holds
 * the same mix: each kernel × config grid point once as a cold kernel
 * spec, as many cold fuzz specs, and as many repeats as cold specs.
 * The seed decides the order, the fuzz programs and which returned
 * spec each repeat names. Each connection keeps one job in flight, so
 * by the time a repeat is submitted its spec has returned and the
 * repeat is a cache hit.
 */
struct Stream
{
    Stream(uint64_t seed, unsigned index, size_t grid_share,
           const std::vector<std::string> &kernel_refs)
        : id(index)
    {
        std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + index + 1);
        std::vector<std::pair<std::string, machine::MachineConfig>> order;
        const auto grid = ablationGrid();
        for (const std::string &ref : kernel_refs)
            for (const auto &point : grid)
                order.emplace_back(ref, point.second);
        std::shuffle(order.begin(), order.end(), rng);
        order.resize(std::min(order.size(), grid_share));

        const size_t cold = order.size();
        const size_t hits = 2 * cold;
        const size_t kernel_hits =
            static_cast<size_t>(kKernelRepeatShare * static_cast<double>(hits));
        size_t left[4] = {cold, cold, kernel_hits, hits - kernel_hits};
        std::vector<size_t> kernels, fuzz; // cold specs so far, by kind
        while (left[0] + left[1] + left[2] + left[3] > 0) {
            // A repeat kind is only eligible once a spec of its kind
            // has returned.
            size_t weight[4] = {left[0], left[1],
                                kernels.empty() ? 0 : left[2],
                                fuzz.empty() ? 0 : left[3]};
            const Kind kind = static_cast<Kind>(std::discrete_distribution<int>(
                std::begin(weight), std::end(weight))(rng));
            --left[kind];
            if (isHit(kind)) {
                const std::vector<size_t> &from =
                    kind == HitKernel ? kernels : fuzz;
                const size_t pick = std::uniform_int_distribution<size_t>(
                    0, from.size() - 1)(rng);
                steps.push_back({kind, from[pick]});
                ++repeats;
                continue;
            }
            service::JobSpec spec;
            if (kind == ColdKernel) {
                const auto &[ref, cfg] = order[kernels.size()];
                spec.kind = service::JobKind::Kernel;
                spec.kernel = ref;
                spec.config = cfg;
                spec.config.maxCycles = kGuardBase + 2 * kernels.size() + id;
                kernels.push_back(specs.size());
            } else {
                spec = fuzzSpec(rng());
                fuzz.push_back(specs.size());
            }
            steps.push_back({kind, specs.size()});
            specs.push_back(std::move(spec));
        }
        stats.resize(specs.size());
    }

    unsigned id;
    std::vector<service::JobSpec> specs;
    std::vector<Step> steps;
    uint64_t repeats = 0;
    std::vector<std::string> stats; // first round's stats_hex per spec
};

/** What one round observed on one connection. */
struct Observed
{
    std::vector<Sample> samples;
    uint64_t busy = 0;
};

/** Closed loop over one connection's stream. */
void
drive(service::SimClient &client, Stream &stream, Observed &seen,
      const Trace &clock, bool first_round, Tally &tally,
      std::mutex &tally_mutex)
{
    for (size_t n = 0; n < stream.steps.size(); ++n) {
        const Step step = stream.steps[n];
        Sample s{step.kind, step.spec, clock.now(), 0, 0, {}};
        uint64_t id = 0;
        for (;;) {
            try {
                id = client.submit(stream.specs[step.spec]);
                break;
            } catch (const SimError &err) {
                if (err.code() != ErrCode::Busy)
                    throw;
                ++seen.busy;
                ::usleep(1000 * static_cast<useconds_t>(
                                    std::max<uint64_t>(1, client.retryAfterMs())));
            }
        }
        s.submitted = clock.now();
        const machine::SimJobResult r = client.resultWait(id, 120000);
        s.done = clock.now();
        s.result = r;
        seen.samples.push_back(s);

        const std::string what = "conn " + std::to_string(stream.id) +
                                 " step " + std::to_string(n) + " (" +
                                 r.name + ")";
        const std::string hex = service::statsToHex(r.stats);
        std::string &want = stream.stats[step.spec];
        std::lock_guard<std::mutex> lock(tally_mutex);
        tally.check(r.ok, what + ": not ok: " + r.error);
        if (isHit(step.kind))
            tally.check(r.fromCache, what + ": repeat not served from cache");
        if (first_round && !isHit(step.kind))
            want = hex;
        else
            tally.check(hex == want, what + ": stats differ from first result");
    }
}

/** Spawn both pool workers before anything is timed: two concurrent
 *  cold jobs, one per connection, until the pool reports two spawns. */
void
warmPool(service::SimClient &a, service::SimClient &b, std::mt19937_64 &rng)
{
    for (int attempt = 0; attempt < 8; ++attempt) {
        const uint64_t ida = a.submit(fuzzSpec(rng()));
        const uint64_t idb = b.submit(fuzzSpec(rng()));
        a.resultWait(ida, 60000);
        b.resultWait(idb, 60000);
        if (a.health().workerRespawns >= 2)
            return;
    }
    fatal(ErrCode::Io, "worker pool did not start two workers");
}

/** Check every cold spec against an in-process SimDriver::runAttempt
 *  of the same spec (after the timed window, three threads). */
void
verifyAgainstInProcess(const std::vector<Stream *> &streams, Tally &tally)
{
    std::vector<std::pair<Stream *, size_t>> work;
    for (Stream *s : streams)
        for (size_t i = 0; i < s->specs.size(); ++i)
            work.emplace_back(s, i);
    std::atomic<size_t> next{0};
    std::mutex mutex;
    auto worker = [&] {
        const machine::SimDriver driver(1);
        for (size_t w; (w = next.fetch_add(1)) < work.size();) {
            const auto [stream, i] = work[w];
            bool same = false;
            std::string error;
            try {
                const machine::SimJobResult r =
                    driver.runAttempt(stream->specs[i].resolve());
                same = r.ok && service::statsToHex(r.stats) == stream->stats[i];
                error = r.ok ? "stats_hex differs from in-process run"
                             : r.error;
            } catch (const std::exception &err) {
                error = err.what();
            }
            std::lock_guard<std::mutex> lock(mutex);
            tally.check(same, "spec " + std::to_string(i) + " of conn " +
                                  std::to_string(stream->id) + ": " + error);
        }
    };
    std::vector<std::thread> pool;
    for (int t = 0; t < 3; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
}

/** Median round trip of @p n pings, in microseconds. */
double
pingUs(service::SimClient &client, int n)
{
    std::vector<double> times;
    for (int i = 0; i < n; ++i) {
        const Clock::time_point t0 = Clock::now();
        client.ping();
        times.push_back(since(t0));
    }
    return 1e6 * median(times);
}

std::vector<std::string>
suiteRefs()
{
    std::vector<std::string> refs;
    for (const kernels::Kernel &k : suiteKernels())
        refs.push_back(kernelRef(k));
    return refs;
}

/** A started daemon with one client per transport, pool warmed. */
struct Session
{
    std::unique_ptr<Daemon> daemon;
    std::unique_ptr<service::SimClient> unixClient, tcpClient;

    void
    start(const Options &opt, const std::string &tag, std::mt19937_64 &rng)
    {
        daemon = std::make_unique<Daemon>(opt, tag);
        unixClient =
            std::make_unique<service::SimClient>(daemon->unixAddr(), 10000);
        tcpClient =
            std::make_unique<service::SimClient>(daemon->tcpAddr(), 10000);
        warmPool(*unixClient, *tcpClient, rng);
    }

    void
    stop()
    {
        unixClient.reset();
        tcpClient.reset();
        if (daemon)
            daemon->shutdown();
        daemon.reset();
    }
};

/** Per-job best latencies and per-round costs of a set of rounds. */
struct Rounds
{
    Rounds(const Stream &a, const Stream &b)
        : best{BestOf(a.steps.size()), BestOf(b.steps.size())}
    {
    }
    BestOf best[2];
    std::vector<double> setups; // daemon + clients + pool start, per round
    std::vector<double> rss;    // daemon peak RSS per round, MB
    unsigned rounds = 0;
    Observed last[2]; // the last round's samples
};

/**
 * One round: a fresh daemon on fresh scratch paths, both streams
 * driven to the end, the health census checked (no worker crashes,
 * one cache hit per generated repeat), and the daemon stopped. With
 * @p layers set, the wire/client layer metrics are taken before the
 * daemon stops.
 */
void
runRound(const Options &opt, Stream &a, Stream &b, Rounds &rounds,
         const Trace &clock, Report &report, Report *layers)
{
    std::mt19937_64 rng(opt.seed ^ (0x5eedull + rounds.rounds));
    Session session;
    const Clock::time_point t0 = Clock::now();
    session.start(opt, "round" + std::to_string(rounds.rounds), rng);
    rounds.setups.push_back(since(t0));

    std::mutex tally_mutex;
    std::exception_ptr failure;
    Observed seen[2];
    const bool first = rounds.rounds == 0;
    auto body = [&](service::SimClient &client, Stream &stream, Observed &o) {
        try {
            drive(client, stream, o, clock, first, report.tally, tally_mutex);
        } catch (...) {
            std::lock_guard<std::mutex> lock(tally_mutex);
            failure = std::current_exception();
        }
    };
    // Each stream reads and writes only its own stats table, so the two
    // connections share nothing but the tally.
    std::thread other(body, std::ref(*session.tcpClient), std::ref(b),
                      std::ref(seen[1]));
    body(*session.unixClient, a, seen[0]);
    other.join();
    if (failure)
        std::rethrow_exception(failure);

    const service::SimClient::Health h = session.unixClient->health();
    report.tally.check(h.workerCrashes == 0,
                       std::to_string(h.workerCrashes) + " worker crashes");
    report.tally.check(h.cacheHits == a.repeats + b.repeats,
                       "daemon counted " + std::to_string(h.cacheHits) +
                           " cache hits for " +
                           std::to_string(a.repeats + b.repeats) + " repeats");
    rounds.rss.push_back(peakRssMb(session.daemon->pid()));
    if (layers) {
        layers->set("wire.unix.ping_us", pingUs(*session.unixClient, 200), "us");
        layers->set("wire.tcp.ping_us", pingUs(*session.tcpClient, 200), "us");
        layers->set("service.worker_crashes",
                    static_cast<double>(h.workerCrashes), "count");
    }
    session.stop();

    for (int c = 0; c < 2; ++c) {
        for (size_t i = 0; i < seen[c].samples.size(); ++i) {
            const Sample &s = seen[c].samples[i];
            rounds.best[c].record(i, s.done - s.start);
        }
        rounds.last[c] = std::move(seen[c]);
    }
    ++rounds.rounds;
}

/** @p count rounds. */
void
runRounds(const Options &opt, Stream &a, Stream &b, Rounds &rounds,
          unsigned count, const Trace &clock, Report &report, Report *layers)
{
    for (unsigned r = 0; r < count; ++r)
        runRound(opt, a, b, rounds, clock, report, layers);
}

/** Wire/client-layer metrics and exact counts from a round's samples. */
void
reportServiceLayers(const Rounds &rounds, Report &report)
{
    std::vector<double> submit, hit_kernel, hit_fuzz, miss;
    CountSums counts;
    uint64_t hits = 0, counted = 0, busy = 0;
    for (int c = 0; c < 2; ++c) {
        const Observed &o = rounds.last[c];
        for (size_t i = 0; i < o.samples.size(); ++i) {
            const Sample &s = o.samples[i];
            submit.push_back(s.submitted - s.start);
            const double lat = s.done - s.start;
            (s.kind == HitKernel  ? hit_kernel
             : s.kind == HitFuzz ? hit_fuzz
                                  : miss)
                .push_back(lat);
            if (i < kCountedJobs) {
                counts.add(s.result.stats);
                hits += isHit(s.kind);
                ++counted;
            }
        }
        busy += o.busy;
    }
    report.set("service.submit_us", 1e6 * median(submit), "us");
    report.set("service.hit.kernel.latency_p50_us", 1e6 * median(hit_kernel),
               "us");
    report.set("service.hit.fuzz.latency_p50_us", 1e6 * median(hit_fuzz),
               "us");
    report.set("service.miss.latency_p50_ms", 1e3 * median(miss), "ms");
    report.set("service.cache_hit_frac",
               counted ? static_cast<double>(hits) / static_cast<double>(counted)
                       : 0.0,
               "ratio");
    report.set("service.busy_rejects", static_cast<double>(busy), "count");
    counts.report(report);
}

/** Closed-loop time of a round at each job's best latency: the
 *  connections run side by side, so the slower one sets it. */
double
bestRoundSeconds(const Rounds &rounds)
{
    return std::max(rounds.best[0].total(), rounds.best[1].total());
}

/** Simulated cycles of the jobs a worker ran (hits excluded). */
uint64_t
coldCycles(const Rounds &rounds)
{
    uint64_t cycles = 0;
    for (const Observed &o : rounds.last)
        for (const Sample &x : o.samples)
            cycles += isHit(x.kind) ? 0 : x.result.stats.cycles;
    return cycles;
}

} // anonymous namespace

service::JobSpec
fuzzSpec(uint64_t fuzz_seed)
{
    service::JobSpec spec;
    spec.kind = service::JobKind::Fuzz;
    spec.fuzzSeed = fuzz_seed;
    // Generated programs may race an unissued vector element; the
    // interlocking policy keeps every one of them a successful run.
    spec.config.hazardPolicy = machine::HazardPolicy::Stall;
    return spec;
}

void
probeDaemon(const Options &opt, Report &report)
{
    const std::vector<std::string> refs = suiteRefs();
    Stream a(opt.seed, 0, kCountedJobs / 4, refs);
    Stream b(opt.seed, 1, kCountedJobs / 4, refs);
    Rounds rounds(a, b);
    const Trace clock(false);
    runRound(opt, a, b, rounds, clock, report, &report);
    reportServiceLayers(rounds, report);
    verifyAgainstInProcess({&a, &b}, report.tally);
}

void
runServiceMixed(const Options &opt, Report &report)
{
    const std::vector<std::string> refs = suiteRefs();
    Stream a(opt.seed, 0, SIZE_MAX, refs);
    Stream b(opt.seed, 1, SIZE_MAX, refs);
    if (opt.setupOnly)
        return;
    Rounds rounds(a, b);
    Trace trace(opt.trace);

    if (!opt.trace) {
        runRounds(opt, a, b, rounds, roundsFor(opt.seconds, kMinRounds), trace,
                  report, nullptr);
        const double round = bestRoundSeconds(rounds);
        // Launch to streams generated, then a round's daemon start-up.
        report.set("setup_s", opt.processSetup + median(rounds.setups), "s");
        report.set("sim_cycles_per_s",
                   static_cast<double>(coldCycles(rounds)) / round,
                   "cycles/s");
        report.set("jobs_per_s",
                   static_cast<double>(a.steps.size() + b.steps.size()) / round,
                   "jobs/s");
        std::vector<double> lat = rounds.best[0].times();
        const std::vector<double> lat_b = rounds.best[1].times();
        lat.insert(lat.end(), lat_b.begin(), lat_b.end());
        reportLatency(report, lat);
        report.set("peak_rss_mb", median(rounds.rss), "MB");
        verifyAgainstInProcess({&a, &b}, report.tally);
        return;
    }

    const unsigned half = roundsFor(opt.seconds / 2, 1);
    runRounds(opt, a, b, rounds, half, trace, report, nullptr);
    const double plain_round = bestRoundSeconds(rounds);
    std::vector<double> plain_lat = rounds.best[0].times();
    const std::vector<double> plain_b = rounds.best[1].times();
    plain_lat.insert(plain_lat.end(), plain_b.begin(), plain_b.end());

    Rounds traced(a, b);
    traced.rounds = rounds.rounds; // fresh scratch paths per round
    const int root = trace.begin("phase");
    runRounds(opt, a, b, traced, half, trace, report, &report);
    trace.end(root);
    for (int c = 0; c < 2; ++c) {
        const std::vector<Sample> &samples = traced.last[c].samples;
        for (size_t i = 0; i < samples.size(); ++i) {
            const Sample &s = samples[i];
            trace.add("service.job", s.start, s.done, root, i);
            const int job = static_cast<int>(trace.spans().size()) - 1;
            trace.add("service.submit", s.start, s.submitted, job, i);
            trace.add("service.result", s.submitted, s.done, job, i);
        }
    }
    report.set("trace.overhead_frac",
               1.0 - plain_round / bestRoundSeconds(traced), "ratio");
    report.set("trace.unattributed_frac", trace.unattributedFrac(root),
               "ratio");
    reportLatency(report, plain_lat);
    reportServiceLayers(traced, report);
    verifyAgainstInProcess({&a, &b}, report.tally);

    // Replay inputs for the in-daemon layers: this stream's first specs
    // and the kernels they name.
    ProbeInputs inputs;
    std::vector<kernels::Kernel> named;
    for (const service::JobSpec &spec : a.specs) {
        if (inputs.specs.size() >= 32)
            break;
        inputs.specs.push_back(spec);
        if (spec.kind == service::JobKind::Kernel && named.size() < 8)
            named.push_back(kernels::findKernel(spec.kernel));
    }
    for (const kernels::Kernel &k : named)
        inputs.runs.emplace_back(&k, machine::MachineConfig{});
    for (const char *ref : {"lfk01:scalar", "lfk07:scalar", "lfk12:scalar"})
        inputs.campaignKernels.push_back(kernels::findKernel(ref));
    reportNoFaults(report);
    probeSimulatorLayers(inputs, report);
    probeServiceLayers(opt, inputs, report);
}

} // namespace perfbench
