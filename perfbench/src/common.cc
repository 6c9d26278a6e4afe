#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/bytestream.hh"

namespace perfbench
{

void
Tally::check(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (problems.size() < 8)
        problems.push_back(what);
}

int
Trace::begin(const std::string &name, uint64_t job)
{
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, now(), 0.0, parent, job});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
}

void
Trace::end(int index)
{
    if (index < 0)
        return;
    spans_[index].end = now();
    // Spans close innermost first; tolerate a skipped level.
    while (!open_.empty()) {
        const int top = open_.back();
        open_.pop_back();
        if (top == index)
            break;
    }
}

void
Trace::add(const std::string &name, double start, double end, int parent,
           uint64_t job)
{
    spans_.push_back(Span{name, start, end, parent, job});
}

double
Trace::total(const std::string &name) const
{
    double sum = 0;
    for (const Span &s : spans_)
        if (s.name == name)
            sum += s.end - s.start;
    return sum;
}

std::vector<double>
Trace::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.name == name)
            out.push_back(s.end - s.start);
    return out;
}

namespace
{

/** Length of the union of intervals (sorted in place). */
double
covered(std::vector<std::pair<double, double>> &intervals)
{
    std::sort(intervals.begin(), intervals.end());
    double sum = 0, lo = 0, hi = -1;
    for (const auto &[a, b] : intervals) {
        if (a > hi) {
            if (hi > lo)
                sum += hi - lo;
            lo = a;
            hi = b;
        } else {
            hi = std::max(hi, b);
        }
    }
    if (hi > lo)
        sum += hi - lo;
    return sum;
}

} // anonymous namespace

double
Trace::unattributedFrac(int root) const
{
    if (root < 0)
        return 0;
    std::vector<std::pair<double, double>> kids;
    for (const Span &s : spans_)
        if (s.parent == root)
            kids.emplace_back(s.start, s.end);
    const double wall = spans_[root].end - spans_[root].start;
    return wall > 0 ? (wall - covered(kids)) / wall : 0;
}

std::vector<double>
BestOf::times() const
{
    std::vector<double> out;
    for (double t : best_)
        if (t < 1e300)
            out.push_back(t);
    return out;
}

double
BestOf::total() const
{
    double sum = 0;
    for (double t : times())
        sum += t;
    return sum;
}

namespace
{
volatile uint64_t g_sink;
} // anonymous namespace

void
keep(uint64_t value)
{
    g_sink = value;
}

double
referenceSeconds()
{
    static std::vector<uint64_t> table(1 << 15); // 256 KB
    uint64_t x = 0x9e3779b97f4a7c15ull, sum = 0;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < 1000000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        uint64_t &entry = table[x & (table.size() - 1)];
        if (x & 1)
            entry += x;
        else
            sum += entry;
    }
    const double t = since(t0);
    keep(sum);
    return t;
}

void
ScaledTimes::flush()
{
    if (pending_.empty())
        return;
    const double after = referenceSeconds();
    const double scale = kNominalRefSeconds / (0.5 * (before_ + after));
    for (const auto &[job, seconds] : pending_)
        samples_[job].push_back(seconds * scale);
    pending_.clear();
    before_ = after;
}

std::vector<double>
ScaledTimes::medians() const
{
    std::vector<double> out;
    for (const std::vector<double> &s : samples_)
        if (!s.empty())
            out.push_back(median(s));
    return out;
}

double
ScaledTimes::total() const
{
    double sum = 0;
    for (double t : medians())
        sum += t;
    return sum;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

size_t
samplesAbove(const std::vector<double> &values, double q)
{
    const double cut = quantile(values, q);
    return static_cast<size_t>(
        std::count_if(values.begin(), values.end(),
                      [cut](double v) { return v > cut; }));
}

void
reportLatency(Report &report, const std::vector<double> &best)
{
    report.set("job_latency_p50_ms", 1e3 * median(best), "ms");
    report.set("job_latency_p99_ms", 1e3 * quantile(best, 0.99), "ms");
    report.set("job_latency.samples", static_cast<double>(best.size()),
               "count");
    report.set("job_latency.samples_above_p99",
               static_cast<double>(samplesAbove(best, 0.99)), "count");
}

uint64_t
fnv1a(const std::vector<uint8_t> &bytes, uint64_t hash)
{
    for (uint8_t b : bytes) {
        hash ^= b;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

uint64_t
statsDigest(const mtfpu::machine::RunStats &stats, uint64_t hash)
{
    mtfpu::ByteWriter out;
    stats.saveState(out);
    return fnv1a(out.take(), hash);
}

std::string
hex64(uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

double
peakRssMb(pid_t pid)
{
    const std::string path =
        pid == 0 ? "/proc/self/status"
                 : "/proc/" + std::to_string(pid) + "/status";
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    return 0;
}

std::vector<std::pair<std::string, mtfpu::machine::MachineConfig>>
ablationGrid()
{
    using mtfpu::machine::MachineConfig;
    std::vector<std::pair<std::string, MachineConfig>> grid;
    grid.emplace_back("default", MachineConfig{});
    for (unsigned penalty : {7u, 28u}) {
        MachineConfig cfg;
        cfg.memory.dataCache.missPenalty = penalty;
        cfg.memory.instrCache.missPenalty = penalty;
        grid.emplace_back("miss" + std::to_string(penalty), cfg);
    }
    for (unsigned store : {1u, 3u}) {
        MachineConfig cfg;
        cfg.storeCycles = store;
        grid.emplace_back("store" + std::to_string(store), cfg);
    }
    MachineConfig no_overlap;
    no_overlap.overlapWithVector = false;
    grid.emplace_back("no-overlap", no_overlap);
    return grid;
}

unsigned
roundsFor(double seconds, unsigned at_least)
{
    return std::max(at_least, static_cast<unsigned>(
                                  std::lround(seconds / kRoundSeconds)));
}

void
CountSums::add(const mtfpu::machine::RunStats &s)
{
    cycles += s.cycles;
    instructions += s.instructionsIssued;
    elements += s.fpu.elementsIssued;
    cpuStalls += s.cpuStallCycles;
    memoryStalls += s.memoryStallCycles;
    dualIssue += s.dualIssueCycles;
    dcacheAccesses += s.dataCache.accesses();
    dcacheMisses += s.dataCache.misses;
}

void
CountSums::merge(const CountSums &o)
{
    cycles += o.cycles;
    instructions += o.instructions;
    elements += o.elements;
    cpuStalls += o.cpuStalls;
    memoryStalls += o.memoryStalls;
    dualIssue += o.dualIssue;
    dcacheAccesses += o.dcacheAccesses;
    dcacheMisses += o.dcacheMisses;
}

void
CountSums::report(Report &report) const
{
    const auto frac = [](uint64_t part, uint64_t whole) {
        return whole ? static_cast<double>(part) / static_cast<double>(whole)
                     : 0.0;
    };
    report.setIfAbsent("machine.sim_cycles", static_cast<double>(cycles), "count");
    report.setIfAbsent("machine.instructions", static_cast<double>(instructions),
               "count");
    report.setIfAbsent("fpu.elements", static_cast<double>(elements), "count");
    report.setIfAbsent("machine.cpu_stall_frac", frac(cpuStalls, cycles), "ratio");
    report.setIfAbsent("machine.memory_stall_frac", frac(memoryStalls, cycles),
               "ratio");
    report.setIfAbsent("machine.dual_issue_frac", frac(dualIssue, cycles), "ratio");
    report.setIfAbsent("dcache.miss_frac", frac(dcacheMisses, dcacheAccesses),
               "ratio");
}

} // namespace perfbench
