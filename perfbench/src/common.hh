/**
 * @file
 * Shared pieces of the perfbench driver: options, the result record
 * (end-to-end and per-layer metrics plus the correctness tally), the
 * in-memory span recorder used by traced runs, and small statistics
 * and digest helpers.
 *
 * Every time here is host time from std::chrono::steady_clock.
 * Simulated quantities appear only as exact counts.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <sys/types.h>
#include <utility>
#include <vector>

#include "machine/config.hh"
#include "machine/stats.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Rounds an untraced run repeats its seeded work at least. */
constexpr unsigned kMinRounds = 3;
/** Nominal length of one round of every workload, in seconds. */
constexpr double kRoundSeconds = 5.0;

/**
 * Rounds a phase of @p seconds runs: one per kRoundSeconds, at least
 * @p at_least. The count depends on the duration alone, so two commits
 * compared at the same duration take their per-job best times over the
 * same number of rounds, however fast each one is.
 */
unsigned roundsFor(double seconds, unsigned at_least);

/** Seconds elapsed since @p start. */
inline double
since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Command-line options (see run.py for the user-facing form). */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string binDir;  // holds mtfpu-cli and mtfpu-workerd
    std::string workDir; // per-run scratch directory (relative path)
    std::string anchorPath;
    std::string commit = "none";
    std::string sourceDigest = "none";
    bool writeAnchor = false;
    /** Run only the workload's set-up (see main.cc). */
    bool setupOnly = false;
    /** Untraced runs: median seconds from launching a fresh driver
     *  process to the end of its set-up (see main.cc). */
    double processSetup = 0;
};

/** Correctness tally: every checked operation counts once. */
struct Tally
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> problems; // first few failure messages

    /** Count one operation; @p ok false records @p what as a failure. */
    void check(bool ok, const std::string &what);
};

/** One named metric with its unit. */
struct Metric
{
    double value = 0;
    std::string unit;
};

/** Everything one run reports. */
struct Report
{
    Tally tally;
    std::map<std::string, Metric> metrics;

    void set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }

    /** set() unless a measurement of @p name is already recorded. */
    void setIfAbsent(const std::string &name, double value,
                     const std::string &unit)
    {
        metrics.emplace(name, Metric{value, unit});
    }
};

/**
 * In-memory span recorder for traced runs. A span has a name, start,
 * end, parent span, and the id of the job it belongs to; spans are
 * only appended, and summarised once the run ends. When disabled
 * (untraced runs) begin/end are two branches and record nothing.
 */
class Trace
{
  public:
    struct Span
    {
        std::string name;
        double start = 0;
        double end = 0;
        int parent = -1;
        uint64_t job = 0;
    };

    explicit Trace(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span under the innermost open span; returns its index. */
    int begin(const std::string &name, uint64_t job = 0);

    /** Close span @p index (a no-op for -1). */
    void end(int index);

    /** Record an already-measured interval as a child of @p parent. */
    void add(const std::string &name, double start, double end, int parent,
             uint64_t job = 0);

    /** Seconds since the trace epoch. */
    double now() const { return since(epoch_); }

    const std::vector<Span> &spans() const { return spans_; }

    /** Summed duration of every span called @p name. */
    double total(const std::string &name) const;

    /** Durations of every span called @p name. */
    std::vector<double> durations(const std::string &name) const;

    /**
     * Share of span @p root's duration that no direct child of it
     * covers — the time no layer accounts for.
     */
    double unattributedFrac(int root) const;

  private:
    bool enabled_;
    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/**
 * Each job's best time over repeated rounds of the same seeded work.
 * On a shared host one job's time moves by tens of percent from one
 * second to the next; service-mixed, whose jobs run in other
 * processes, builds its timing metrics from these minima.
 */
class BestOf
{
  public:
    explicit BestOf(size_t jobs) : best_(jobs, 1e300) {}

    void record(size_t job, double seconds)
    {
        if (seconds < best_[job])
            best_[job] = seconds;
    }

    /** Best time of every job recorded at least once. */
    std::vector<double> times() const;

    /** Sum of the best times: one round at the best observed speed. */
    double total() const;

  private:
    std::vector<double> best_;
};

/**
 * Seconds one pass of the host-speed reference takes: a fixed loop of
 * ALU work, unpredictable branches and L2-resident loads that is the
 * benchmark's own code and never calls the simulator.
 */
double referenceSeconds();

/** What one referenceSeconds() pass takes on a quiet 4-vCPU x86-64 VM
 *  (GCC 12, Release): the host speed scaled times are reported at. */
constexpr double kNominalRefSeconds = 7.2e-3;

/**
 * Job times scaled to nominal host speed. On a shared host the core's
 * speed drifts by tens of percent over minutes, so a whole run can sit
 * inside a slow phase that no statistic of its own job times can see.
 * The batch workloads therefore time blocks of jobs between two
 * reference passes and scale each job's time by kNominalRefSeconds
 * over the mean of the passes around it. A change to the simulator
 * moves the job times but not the reference.
 */
class ScaledTimes
{
  public:
    /** @p jobs job slots; a reference pass every @p block jobs. */
    ScaledTimes(size_t jobs, size_t block)
        : samples_(jobs), block_(block), before_(referenceSeconds())
    {
    }

    /** Record @p seconds for @p job; closes the block once it is full. */
    void
    add(size_t job, double seconds)
    {
        pending_.emplace_back(job, seconds);
        if (pending_.size() >= block_)
            flush();
    }

    /** Close the open block: one reference pass, then scale its jobs. */
    void flush();

    /** Median scaled time of every job recorded at least once. */
    std::vector<double> medians() const;

    /** Sum of the medians: one round at nominal host speed. */
    double total() const;

  private:
    std::vector<std::vector<double>> samples_;
    size_t block_;
    double before_; // reference pass that opened the current block
    std::vector<std::pair<size_t, double>> pending_;
};

/** Publish @p value to a volatile sink so the work producing it
 *  cannot be optimised away. */
void keep(uint64_t value);

/** Median (the mean of the two middle values for even counts). */
double median(std::vector<double> values);

/** Quantile @p q in [0,1], linear between closest ranks. */
double quantile(std::vector<double> values, double q);

/** Samples strictly above quantile @p q (for the p99 sample rule). */
size_t samplesAbove(const std::vector<double> &values, double q);

/**
 * Set job_latency_p50_ms, job_latency_p99_ms and the sample counts
 * (job_latency.samples, .samples_above_p99) from per-job best times in
 * seconds.
 */
void reportLatency(Report &report, const std::vector<double> &best);

/** 64-bit FNV-1a over @p bytes, continuing from @p hash. */
uint64_t fnv1a(const std::vector<uint8_t> &bytes,
               uint64_t hash = 0xcbf29ce484222325ull);

/** Digest of a RunStats' serialized counters. */
uint64_t statsDigest(const mtfpu::machine::RunStats &stats,
                     uint64_t hash = 0xcbf29ce484222325ull);

/** 16-digit lowercase hex. */
std::string hex64(uint64_t value);

/** Peak resident set (VmHWM) of process @p pid (0 = self), in MB. */
double peakRssMb(pid_t pid = 0);

/**
 * The paper's ablation grid: the default MultiTitan, data/instruction
 * miss penalty 7 and 28, store cycles 1 and 3, and overlap off.
 */
std::vector<std::pair<std::string, mtfpu::machine::MachineConfig>>
ablationGrid();

/** Exact counts summed over a set of RunStats. */
struct CountSums
{
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t elements = 0;
    uint64_t cpuStalls = 0;
    uint64_t memoryStalls = 0;
    uint64_t dualIssue = 0;
    uint64_t dcacheAccesses = 0;
    uint64_t dcacheMisses = 0;

    void add(const mtfpu::machine::RunStats &stats);
    void merge(const CountSums &other);

    /** Write the machine.* / fpu.* / dcache.* exact-count metrics. */
    void report(Report &report) const;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
