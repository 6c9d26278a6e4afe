/**
 * @file
 * fault-campaign: the robustness users' workload. faults::runCampaign
 * over lfk01, lfk07, lfk12 and lfk21 (scalar) with the lockstep
 * checker on, snapshot-forking on, a trial journal, and one thread.
 * Their golden runs span ~25k to ~1M simulated cycles, so the set sits
 * on both sides of the fork-vs-restore crossover. Snapshot capture and
 * restore, the LockstepChecker/Interpreter shadow, the FaultInjector
 * hook and runUntil pauses do most of the work here and none in
 * figure-suite.
 *
 * A round is a fixed set of campaign calls (see runRounds). A "job" is
 * one classified trial. In traced runs trial latency is read from the
 * journal the campaign writes: the campaign flushes one line the
 * moment each trial is classified, and an inotify watch timestamps
 * each line as it lands.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <poll.h>
#include <sstream>
#include <sys/inotify.h>
#include <thread>
#include <unistd.h>

#include "common/json.hh"
#include "common/log.hh"
#include "faults/campaign.hh"
#include "kernels/livermore/livermore.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace mtfpu;

namespace
{

/** Trials per kernel per campaign call (and in the anchor campaign). */
constexpr unsigned kFaultsPerKernel = 10;
/** Base seed of the anchored campaign (CampaignConfig's default). */
constexpr uint64_t kAnchorSeed = 1;

std::vector<kernels::Kernel>
campaignKernels()
{
    std::vector<kernels::Kernel> list;
    for (int id : {1, 7, 12, 21})
        list.push_back(kernels::livermore::make(id, false));
    return list;
}

faults::CampaignConfig
campaignConfig(uint64_t seed, const std::string &journal)
{
    faults::CampaignConfig cfg;
    cfg.faultsPerKernel = kFaultsPerKernel;
    cfg.seed = seed;
    cfg.lockstep = true;
    cfg.fork = true;
    cfg.threads = 1;
    cfg.journalPath = journal;
    return cfg;
}

/**
 * Timestamps each line appended to a journal file, from a thread
 * blocked on an inotify watch. Lines that land between two wake-ups
 * share the later timestamp.
 */
class JournalWatch
{
  public:
    explicit JournalWatch(std::string path) : path_(std::move(path))
    {
        std::ofstream(path_, std::ios::trunc).flush();
        fd_ = ::inotify_init1(IN_CLOEXEC | IN_NONBLOCK);
        if (fd_ < 0 || ::inotify_add_watch(fd_, path_.c_str(), IN_MODIFY) < 0)
            fatal(ErrCode::Io, "inotify watch on " + path_ + " failed");
        thread_ = std::thread([this] { loop(); });
    }

    ~JournalWatch()
    {
        stop();
        ::close(fd_);
    }

    JournalWatch(const JournalWatch &) = delete;
    JournalWatch &operator=(const JournalWatch &) = delete;

    /** Stop watching; returns one timestamp per journal line. */
    std::vector<Clock::time_point>
    stop()
    {
        if (thread_.joinable()) {
            stopping_ = true;
            thread_.join();
            drain(); // lines flushed just before the campaign returned
        }
        return stamps_;
    }

  private:
    void
    loop()
    {
        char buf[4096];
        while (!stopping_) {
            pollfd p{fd_, POLLIN, 0};
            if (::poll(&p, 1, 20) > 0) {
                while (::read(fd_, buf, sizeof(buf)) > 0) {
                }
                drain();
            }
        }
    }

    /** Read bytes appended since the last call; stamp new lines. */
    void
    drain()
    {
        const Clock::time_point now = Clock::now();
        std::ifstream in(path_, std::ios::binary);
        in.seekg(static_cast<std::streamoff>(offset_));
        std::string chunk((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
        offset_ += chunk.size();
        for (char c : chunk)
            if (c == '\n')
                stamps_.push_back(now);
    }

    std::string path_;
    int fd_ = -1;
    size_t offset_ = 0;
    std::vector<Clock::time_point> stamps_;
    std::atomic<bool> stopping_{false};
    std::thread thread_; // declared last: uses every member above
};

/** Campaign calls per round; a round takes ~5 s on one core. */
constexpr unsigned kCallsPerRound = 8;

/** Times over rounds of the same kCallsPerRound campaign calls. */
struct Rounds
{
    explicit Rounds(size_t trials_per_call)
        : calls(kCallsPerRound, 1),
          trials(kCallsPerRound * (trials_per_call - 1)),
          outcomes(kCallsPerRound)
    {
    }
    ScaledTimes calls; // wall time per call, a reference pass after each
    BestOf trials;     // journal gap per trial (from each call's second line)
    uint64_t trialsPerRound = 0;
    uint64_t cyclesPerRound = 0;
    std::vector<std::string> outcomes; // per call, from round 1
    std::map<faults::FaultOutcome, uint64_t> firstCall;
};

/** Simulated cycles of one campaign: golden runs, each kernel's fork
 *  reference run (to its last injection cycle), and every trial from
 *  its fork point on. */
uint64_t
simulatedCycles(const faults::CampaignResult &r)
{
    uint64_t cycles = 0;
    std::map<std::string, uint64_t> lastFork;
    for (uint64_t c : r.goldenCycles)
        cycles += c;
    for (const faults::FaultTrial &t : r.trials) {
        const uint64_t at =
            t.plan.empty() ? 0 : t.plan.faults().front().cycle;
        lastFork[t.kernel] = std::max(lastFork[t.kernel], at);
        cycles += t.cycles > at ? t.cycles - at : 0;
    }
    for (const auto &[kernel, at] : lastFork)
        cycles += at;
    return cycles;
}

void
checkTrials(const faults::CampaignResult &r, size_t kernels, Report &report)
{
    report.tally.check(r.trials.size() == kernels * kFaultsPerKernel,
                       "campaign dropped trials");
    for (const faults::FaultTrial &t : r.trials) {
        const std::string what = t.kernel + " seed " + std::to_string(t.seed);
        report.tally.check(t.outcome != faults::FaultOutcome::Sdc,
                           what + ": silent data corruption escaped");
        report.tally.check(t.outcome != faults::FaultOutcome::DetectedHardware ||
                               !t.errorCode.empty(),
                           what + ": unclassified abort");
    }
}

/** Every trial's outcome and cycle count, in order. */
std::string
outcomeList(const faults::CampaignResult &r)
{
    std::string s;
    for (const faults::FaultTrial &t : r.trials)
        s += std::string(faults::faultOutcomeName(t.outcome)) + ":" +
             std::to_string(t.cycles) + ",";
    return s;
}

/** Lines in the file at @p path (0 when it does not exist). */
size_t
journalLines(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return static_cast<size_t>(std::count(std::istreambuf_iterator<char>(in),
                                          std::istreambuf_iterator<char>(),
                                          '\n'));
}

/**
 * Run @p count rounds. A round is the campaigns with base seeds
 * 1..kCallsPerRound in an order the run seed shuffles. The base seeds
 * are fixed because they decide where each fault lands and so how long
 * its trial runs: drawn per run, they alone would move trials/s by
 * several percent. Every repeat of a campaign must classify
 * identically. Only traced runs watch the journal (trial latency is a
 * per-layer metric); untraced runs count its lines after the timed
 * window, so their times hold the campaign's one thread alone.
 */
Rounds
runRounds(const Options &opt, const std::vector<kernels::Kernel> &list,
          unsigned count, Report &report, Trace *trace)
{
    const size_t per_call = list.size() * kFaultsPerKernel;
    Rounds rounds(per_call);
    std::vector<uint64_t> bases(kCallsPerRound);
    for (unsigned k = 0; k < kCallsPerRound; ++k)
        bases[k] = k + 1;
    std::mt19937_64 rng(opt.seed);
    std::shuffle(bases.begin(), bases.end(), rng);
    for (unsigned round = 0; round < count; ++round) {
        for (unsigned k = 0; k < kCallsPerRound; ++k) {
            const std::string journal =
                opt.workDir + "/campaign-" + std::to_string(k) + ".journal";
            const uint64_t seed = bases[k];
            faults::CampaignResult r;
            std::vector<Clock::time_point> stamps;
            const Clock::time_point t0 = Clock::now();
            const double span_start = trace ? trace->now() : 0;
            if (opt.trace) {
                JournalWatch watch(journal);
                r = faults::runCampaign(list, campaignConfig(seed, journal));
                stamps = watch.stop();
            } else {
                r = faults::runCampaign(list, campaignConfig(seed, journal));
            }
            const double wall = since(t0);
            const size_t lines =
                opt.trace ? stamps.size() : journalLines(journal);
            std::filesystem::remove(journal);
            rounds.calls.add(k, wall);
            checkTrials(r, list.size(), report);
            report.tally.check(lines == per_call,
                               "journal holds " + std::to_string(lines) +
                                   " lines for " + std::to_string(per_call) +
                                   " trials");
            // The first line's gap includes the golden and fork-capture
            // phases, so trial latency starts at the second line.
            for (size_t i = 1; i < stamps.size() && i < per_call; ++i) {
                const double gap =
                    std::chrono::duration<double>(stamps[i] - stamps[i - 1])
                        .count();
                rounds.trials.record(k * (per_call - 1) + i - 1, gap);
                if (trace) {
                    const double end =
                        span_start +
                        std::chrono::duration<double>(stamps[i] - t0).count();
                    trace->add("faults.trial", end - gap, end, 0);
                }
            }
            if (trace)
                trace->add("faults.campaign", span_start, span_start + wall,
                           0);
            if (round == 0) {
                rounds.trialsPerRound += r.trials.size();
                rounds.cyclesPerRound += simulatedCycles(r);
                rounds.outcomes[k] = outcomeList(r);
                if (k == 0)
                    for (const faults::FaultTrial &t : r.trials)
                        ++rounds.firstCall[t.outcome];
            } else {
                report.tally.check(rounds.outcomes[k] == outcomeList(r),
                                   "campaign call " + std::to_string(k) +
                                       " classified differently on repeat");
            }
        }
    }
    return rounds;
}

void
reportFaultCounts(const std::map<faults::FaultOutcome, uint64_t> &counts,
                  Report &report)
{
    const auto get = [&](faults::FaultOutcome o) {
        const auto it = counts.find(o);
        return static_cast<double>(it == counts.end() ? 0 : it->second);
    };
    report.set("faults.masked", get(faults::FaultOutcome::Masked), "count");
    report.set("faults.detected_hw",
               get(faults::FaultOutcome::DetectedHardware), "count");
    report.set("faults.detected_lockstep",
               get(faults::FaultOutcome::DetectedLockstep), "count");
    report.set("faults.sdc", get(faults::FaultOutcome::Sdc), "count");
}

/** "<hw>,<lockstep>,<masked>,<sdc>;<golden cycles...>" of a campaign. */
std::string
campaignDigest(const faults::CampaignResult &r)
{
    std::string s;
    for (faults::FaultOutcome o :
         {faults::FaultOutcome::DetectedHardware,
          faults::FaultOutcome::DetectedLockstep, faults::FaultOutcome::Masked,
          faults::FaultOutcome::Sdc})
        s += std::to_string(r.count(o)) + ",";
    s.back() = ';';
    for (uint64_t c : r.goldenCycles)
        s += std::to_string(c) + ",";
    s.pop_back();
    return s;
}

/** Run the anchored default-seed campaign and compare its
 *  classification counts and golden cycles with anchor.json. */
void
checkAnchor(const Options &opt, const std::vector<kernels::Kernel> &list,
            Report &report)
{
    const faults::CampaignResult r =
        faults::runCampaign(list, campaignConfig(kAnchorSeed, ""));
    std::ifstream in(opt.anchorPath);
    std::stringstream text;
    text << in.rdbuf();
    const json::Value anchor = json::parse(text.str());
    report.tally.check(anchor.at("fault_campaign").asString() ==
                           campaignDigest(r),
                       "anchor: default-seed campaign gives " +
                           campaignDigest(r) + ", anchor.json has " +
                           anchor.at("fault_campaign").asString());
}

} // anonymous namespace

void
reportNoFaults(Report &report)
{
    reportFaultCounts({}, report);
}

void
runFaultCampaign(const Options &opt, Report &report)
{
    const std::vector<kernels::Kernel> list = campaignKernels();
    if (opt.setupOnly)
        return;
    if (!opt.trace) {
        const Rounds r = runRounds(opt, list, roundsFor(opt.seconds, kMinRounds),
                                   report, nullptr);
        report.set("setup_s", opt.processSetup, "s");
        report.set("sim_cycles_per_s",
                   static_cast<double>(r.cyclesPerRound) / r.calls.total(),
                   "cycles/s");
        report.set("jobs_per_s",
                   static_cast<double>(r.trialsPerRound) / r.calls.total(),
                   "jobs/s");
        report.set("peak_rss_mb", peakRssMb(), "MB");
        checkAnchor(opt, list, report);
        return;
    }

    const unsigned half = roundsFor(opt.seconds / 2, 1);
    const Rounds plain = runRounds(opt, list, half, report, nullptr);
    Trace trace(true);
    const int root = trace.begin("phase");
    const Rounds traced = runRounds(opt, list, half, report, &trace);
    trace.end(root);
    checkAnchor(opt, list, report);

    report.set("faults.trial_ms", 1e3 * median(trace.durations("faults.trial")),
               "ms");
    report.set("trace.overhead_frac",
               1.0 - plain.calls.total() / traced.calls.total(), "ratio");
    report.set("trace.unattributed_frac", trace.unattributedFrac(root),
               "ratio");
    reportLatency(report, plain.trials.times());
    reportFaultCounts(plain.firstCall, report);

    ProbeInputs inputs;
    const machine::MachineConfig paper{};
    for (const kernels::Kernel &k : list) {
        inputs.runs.emplace_back(&k, paper);
        service::JobSpec spec;
        spec.kind = service::JobKind::Kernel;
        spec.kernel = kernelRef(k);
        inputs.specs.push_back(spec);
    }
    std::mt19937_64 rng(opt.seed);
    for (int i = 0; i < 16; ++i)
        inputs.specs.push_back(fuzzSpec(rng()));
    inputs.campaignKernels = list;
    probeSimulatorLayers(inputs, report);
    probeServiceLayers(opt, inputs, report);
    probeDaemon(opt, report);
}

void
writeAnchor(const Options &opt)
{
    json::Writer w;
    w.beginObject();
    writeFigureAnchor(w);
    w.key("fault_campaign")
        .value(campaignDigest(faults::runCampaign(
            campaignKernels(), campaignConfig(kAnchorSeed, ""))));
    w.endObject();
    std::ofstream out(opt.anchorPath, std::ios::trunc);
    out << w.str() << "\n";
    if (!out)
        fatal(ErrCode::Io, "cannot write " + opt.anchorPath);
}

} // namespace perfbench
