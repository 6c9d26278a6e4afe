/**
 * @file
 * figure-suite: the architects' workload. Every Livermore loop in its
 * scalar form and, where one exists, its vector form, Linpack scalar
 * and vector, and the Figure 13 graphics transform, each crossed with
 * the paper's ablation grid, run in process on one SimDriver thread.
 * Each kernel job runs cold and then warm (the paper's §3.2 method)
 * through kernels::runKernelBatch; the transform goes through
 * SimDriver::run. Every job is its own batch call so its host latency
 * is visible.
 *
 * A round runs the whole (job x config) grid once, in an order the
 * seed shuffles, so the work in a round does not depend on the seed.
 * Machine::runLoop, FPU element issue, the functional units and the
 * memory system do almost all the work; the service and snapshot
 * layers do none.
 */

#include <algorithm>
#include <array>
#include <fstream>
#include <sstream>

#include "common/json.hh"
#include "kernels/graphics/transform.hh"
#include "kernels/linpack/linpack.hh"
#include "kernels/livermore/livermore.hh"
#include "kernels/runner.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace mtfpu;

namespace
{

/** Figure 13 inputs; the grid, not the data, is what varies. */
const std::array<double, 16> kMatrix = [] {
    std::array<double, 16> m{};
    for (int i = 0; i < 16; ++i)
        m[i] = 0.0625 * (i + 3);
    return m;
}();
const std::array<double, 4> kPoint = {0.5, -1.25, 2.0, 3.5};

/** One grid point: a kernel (or the transform, index == kernels.size())
 *  under one ablation config. */
struct GridJob
{
    size_t item;
    size_t config;
};

struct Suite
{
    std::vector<kernels::Kernel> kernels;
    std::vector<std::pair<std::string, machine::MachineConfig>> grid;
    std::vector<GridJob> order; // one round, seeded order

    bool isTransform(const GridJob &j) const { return j.item == kernels.size(); }

    std::string key(const GridJob &j) const
    {
        const std::string item =
            isTransform(j) ? "transform" : kernelKey(kernels[j.item]);
        return item + "@" + grid[j.config].first;
    }

    size_t index(const GridJob &j) const
    {
        return j.item * grid.size() + j.config;
    }
};

Suite
makeSuite(uint64_t seed)
{
    Suite s;
    s.kernels = suiteKernels();
    s.grid = ablationGrid();
    for (size_t item = 0; item <= s.kernels.size(); ++item)
        for (size_t c = 0; c < s.grid.size(); ++c)
            s.order.push_back(GridJob{item, c});
    std::mt19937_64 rng(seed);
    std::shuffle(s.order.begin(), s.order.end(), rng);
    return s;
}

/** @p s with its round in canonical (item, config) order. */
Suite
canonical(Suite s)
{
    std::sort(s.order.begin(), s.order.end(),
              [](const GridJob &a, const GridJob &b) {
                  return a.item != b.item ? a.item < b.item
                                          : a.config < b.config;
              });
    return s;
}

/** Outcome of one grid job. */
struct JobOutcome
{
    bool ok = false;
    std::string error;
    uint64_t digest = 0;
    uint64_t cycles = 0;
    machine::RunStats cold, warm; // warm only for kernels
};

/** The untraced path: the library's public batch entry points. */
JobOutcome
runJob(const Suite &s, const GridJob &j)
{
    JobOutcome out;
    const machine::MachineConfig &cfg = s.grid[j.config].second;
    if (s.isTransform(j)) {
        kernels::graphics::TransformResult tr;
        const std::vector<machine::SimJobResult> r =
            machine::SimDriver(1).run({kernels::graphics::makeTransformJob(
                cfg, true, kMatrix, kPoint, tr)});
        out.ok = r[0].ok &&
                 tr.out == kernels::graphics::referenceTransform(kMatrix, kPoint);
        out.error = r[0].ok ? "transform result differs from host reference"
                            : r[0].error;
        out.cold = r[0].stats;
        out.digest = statsDigest(r[0].stats);
        out.cycles = r[0].stats.cycles;
        return out;
    }
    const kernels::KernelResult r = kernels::runKernelBatch(
        {kernels::KernelJob{s.kernels[j.item], cfg}}, 1)[0];
    out.ok = r.valid && r.error.empty();
    out.error = r.error.empty() ? "checksum outside tolerance" : r.error;
    out.cold = r.cold;
    out.warm = r.warm;
    out.digest = statsDigest(r.warm, statsDigest(r.cold));
    out.cycles = r.cold.cycles + r.warm.cycles;
    return out;
}

/** Jobs timed between two host-speed reference passes (~0.25 s). */
constexpr size_t kJobsPerReference = 12;

/** Timed rounds: each job's scaled times, and the work of one round. */
struct PhaseResult
{
    explicit PhaseResult(size_t jobs) : times(jobs, kJobsPerReference) {}
    ScaledTimes times;
    uint64_t cyclesPerRound = 0;
};

/**
 * Run @p rounds whole rounds. Round 1 fills @p digests; later rounds
 * must reproduce them. With @p trace set, each job's batch call is one
 * "sim_driver" span; the layers inside it are measured by the replay
 * probes, which call their public functions directly.
 */
PhaseResult
runRounds(const Suite &s, unsigned rounds, Report &report,
          std::vector<uint64_t> &digests, CountSums *first_round,
          Trace *trace)
{
    PhaseResult p(s.order.size());
    for (unsigned round = 0; round < rounds; ++round) {
        for (const GridJob &j : s.order) {
            const Clock::time_point t0 = Clock::now();
            const int span =
                trace ? trace->begin("sim_driver", s.index(j) + 1) : -1;
            const JobOutcome o = runJob(s, j);
            if (trace)
                trace->end(span);
            p.times.add(s.index(j), since(t0));
            if (round == 0)
                p.cyclesPerRound += o.cycles;
            report.tally.check(o.ok, s.key(j) + ": " + o.error);
            uint64_t &d = digests[s.index(j)];
            if (d == 0) {
                d = o.digest;
                if (first_round) {
                    first_round->add(o.cold);
                    if (!s.isTransform(j))
                        first_round->add(o.warm);
                }
            } else {
                report.tally.check(d == o.digest,
                                   s.key(j) + ": RunStats differ between rounds");
            }
        }
        p.times.flush();
    }
    return p;
}

/** Compare round digests with the committed anchor. */
void
checkAnchor(const Options &opt, const Suite &s,
            const std::vector<uint64_t> &digests, Report &report)
{
    std::ifstream in(opt.anchorPath);
    std::stringstream text;
    text << in.rdbuf();
    const json::Value anchor = json::parse(text.str());
    const json::Value &fs = anchor.at("figure_suite");
    report.tally.check(anchor.at("figure_suite_jobs").asUint() ==
                           s.order.size(),
                       "anchor: grid size differs");
    for (const GridJob &j : s.order) {
        const std::string key = s.key(j);
        report.tally.check(fs.has(key) &&
                               fs.at(key).asString() ==
                                   hex64(digests[s.index(j)]),
                           "anchor: RunStats digest of " + key +
                               " differs from anchor.json");
    }
}

} // anonymous namespace

std::vector<kernels::Kernel>
suiteKernels()
{
    std::vector<kernels::Kernel> list;
    for (int id = 1; id <= kernels::livermore::kNumLoops; ++id) {
        list.push_back(kernels::livermore::make(id, false));
        if (kernels::livermore::hasVectorVariant(id))
            list.push_back(kernels::livermore::make(id, true));
    }
    list.push_back(kernels::linpack::make(false));
    list.push_back(kernels::linpack::make(true));
    return list;
}

std::string
kernelKey(const kernels::Kernel &kernel)
{
    return kernel.name + "/" + kernel.variant;
}

std::string
kernelRef(const kernels::Kernel &kernel)
{
    // Linpack kernels are named "linpack-<variant>" but referenced as
    // "linpack:<variant>".
    const bool linpack = kernel.name.rfind("linpack", 0) == 0;
    return (linpack ? std::string("linpack") : kernel.name) + ":" +
           kernel.variant;
}

void
runFigureSuite(const Options &opt, Report &report)
{
    const Suite suite = makeSuite(opt.seed);
    if (opt.setupOnly)
        return;
    std::vector<uint64_t> digests(suite.order.size(), 0);

    if (!opt.trace) {
        // peak_rss_mb is read after an untimed first round in canonical
        // order. Read after the seeded rounds, it depends on the order:
        // the allocator reuses freed blocks differently, and some
        // orders peak 3 MB higher than others.
        runRounds(canonical(suite), 1, report, digests, nullptr, nullptr);
        const double rss = peakRssMb();
        const PhaseResult p =
            runRounds(suite, roundsFor(opt.seconds, kMinRounds), report,
                      digests, nullptr, nullptr);
        const double round = p.times.total();
        report.set("setup_s", opt.processSetup, "s");
        report.set("sim_cycles_per_s",
                   static_cast<double>(p.cyclesPerRound) / round, "cycles/s");
        report.set("jobs_per_s",
                   static_cast<double>(suite.order.size()) / round, "jobs/s");
        report.set("peak_rss_mb", rss, "MB");
        checkAnchor(opt, suite, digests, report);
        return;
    }

    // Traced run: untraced rounds, then as many rounds with spans.
    const unsigned half = roundsFor(opt.seconds / 2, 1);
    CountSums counts;
    const PhaseResult plain =
        runRounds(suite, half, report, digests, &counts, nullptr);
    Trace trace(true);
    const int root = trace.begin("phase");
    const PhaseResult traced =
        runRounds(suite, half, report, digests, nullptr, &trace);
    trace.end(root);
    checkAnchor(opt, suite, digests, report);

    report.set("trace.overhead_frac",
               1.0 - plain.times.total() / traced.times.total(), "ratio");
    report.set("trace.unattributed_frac", trace.unattributedFrac(root),
               "ratio");
    reportLatency(report, plain.times.medians());
    counts.report(report);
    reportNoFaults(report);

    ProbeInputs inputs;
    const machine::MachineConfig paper{};
    for (const kernels::Kernel &k : suite.kernels) {
        inputs.runs.emplace_back(&k, paper);
        service::JobSpec spec;
        spec.kind = service::JobKind::Kernel;
        spec.kernel = kernelRef(k);
        inputs.specs.push_back(spec);
    }
    std::mt19937_64 rng(opt.seed);
    for (int i = 0; i < 16; ++i)
        inputs.specs.push_back(fuzzSpec(rng()));
    for (int id : {1, 7, 12})
        inputs.campaignKernels.push_back(kernels::livermore::make(id, false));
    probeSimulatorLayers(inputs, report);
    probeServiceLayers(opt, inputs, report);
    probeDaemon(opt, report);
}

/** The figure-suite half of the golden anchor: every grid job's
 *  RunStats digest, from one round in canonical order. */
void
writeFigureAnchor(json::Writer &w)
{
    const Suite suite = canonical(makeSuite(0));
    w.key("figure_suite_jobs").value(static_cast<uint64_t>(suite.order.size()));
    w.key("figure_suite").beginObject();
    for (const GridJob &j : suite.order) {
        const JobOutcome o = runJob(suite, j);
        if (!o.ok)
            fatal("anchor: " + suite.key(j) + " failed: " + o.error);
        w.key(suite.key(j)).value(hex64(o.digest));
    }
    w.endObject();
}

} // namespace perfbench
