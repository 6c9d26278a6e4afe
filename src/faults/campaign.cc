#include "faults/campaign.hh"

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

#include "common/file_io.hh"
#include "common/journal.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/table.hh"
#include "exec/semantics.hh"
#include "kernels/runner.hh"
#include "machine/lockstep.hh"
#include "snapshot/snapshot.hh"

namespace mtfpu::faults
{

namespace
{

/** Journal/resume identity of a trial. */
std::string
trialKey(const std::string &kernel, uint64_t seed)
{
    return kernel + "\x1f" + std::to_string(seed);
}

/** Classify one finished trial against its golden checksum. */
void
classifyTrial(FaultTrial &trial, const machine::SimJobResult &r,
              double sum, double golden_sum)
{
    trial.cycles = r.stats.cycles;
    trial.errorCode = r.ok ? "" : enumName(r.errCode);
    if (r.ok) {
        // Bit-exact, so a NaN checksum equals itself.
        const bool same = std::bit_cast<uint64_t>(sum) ==
                          std::bit_cast<uint64_t>(golden_sum);
        trial.outcome = same ? FaultOutcome::Masked : FaultOutcome::Sdc;
    } else if (r.errCode == ErrCode::LockstepDivergence) {
        trial.outcome = FaultOutcome::DetectedLockstep;
    } else {
        trial.outcome = FaultOutcome::DetectedHardware;
    }
}

/**
 * The result a lockstep trial simulates to when its single-bit fault
 * cannot matter (Footprint::touches). The trial repeats the golden run
 * cycle for cycle. A struck cache tag or PSW flag is state that no
 * check compares and that no later access reads in a way the flip
 * changes, so the run completes as the golden run did. A struck
 * register or memory word differs only at the final-state compare,
 * which fires at the golden run's last cycle and, by throwing, leaves
 * the stats empty.
 */
machine::SimJobResult
untouchedResult(const Fault &fault, uint64_t golden_cycles)
{
    machine::SimJobResult r;
    if (fault.site == FaultSite::CacheLine ||
        fault.site == FaultSite::SoftfpFlags) {
        r.ok = true;
        r.stats.cycles = golden_cycles;
    } else {
        r.fail(SimError(ErrCode::LockstepDivergence,
                        "final-state divergence in untouched state",
                        ErrContext{.cycle =
                                       static_cast<int64_t>(golden_cycles)}));
    }
    return r;
}

/**
 * Advance the kernel's reference run to @p cycle and capture the
 * paired machine + shadow state a trial starting there resumes. The
 * reference started like a trial (the kernel under the trial
 * configuration, which snapshot restore requires, with the trials'
 * lockstep setting), so a trial started from the capture is
 * indistinguishable from one that simulated the prefix itself.
 */
std::shared_ptr<const machine::JobStart>
captureStart(machine::Machine &ref,
             const machine::JobInstruments &instruments,
             const std::string &kernel, uint64_t cycle)
{
    const machine::RunStats st = ref.runUntil(cycle);
    if (st.status != machine::RunStatus::Paused) {
        fatal("fault campaign: reference run of " + kernel + " ended (" +
              machine::runStatusName(st.status) + ") before cycle " +
              std::to_string(cycle));
    }
    auto start = std::make_shared<machine::JobStart>();
    start->machine = snapshot::capture(ref);
    if (instruments.shadow) {
        ByteWriter out;
        instruments.shadow->saveState(out);
        start->shadow = out.take();
    }
    return start;
}

} // anonymous namespace

Footprint::Footprint(const assembler::Program &program)
{
    for (const isa::Instr &in : program.code) {
        cpuRegs_.set(in.rd).set(in.rs1).set(in.rs2);
        if (in.major == isa::Major::Ldf || in.major == isa::Major::Stf ||
            in.major == isa::Major::Mvfc)
            fpuRegs_.set(in.fr);
        if (in.major == isa::Major::FpAlu) {
            vectors_ |= in.fp.length() > 1;
            exec::forEachElement(
                in.fp, [this](unsigned rr, unsigned ra, unsigned rb) {
                    fpuRegs_.set(rr).set(ra).set(rb);
                });
        }
    }
}

void
Footprint::watch(machine::Machine &m)
{
    const memory::DirectMappedCache &cache = m.memorySystem().dataCache();
    const memory::CacheConfig &geometry = cache.config();
    words_.assign(m.mem().size() / 8, false);
    sets_.assign(cache.numLines(), false);
    lineBytes_ = geometry.lineBytes;
    // Without modelled caches no access reads a tag, and without a
    // miss penalty a hit and a miss take the same time: a struck tag
    // changes nothing. Otherwise the misses tell a line's tag only
    // when every miss installs its tag; without write-allocate a
    // struck set counts if any access indexes it.
    cacheInert_ =
        !m.config().memory.modelCaches || geometry.missPenalty == 0;
    lastMiss_.clear();
    if (!cacheInert_ && geometry.writeAllocate)
        lastMiss_.assign(cache.numLines(), kNone);
    m.addObserver(this);
}

void
Footprint::onMemAccess(const exec::MemAccessEvent &event)
{
    // Every data access touches memory and the cache in the cycle it
    // publishes its event.
    if (event.kind == exec::MemAccessKind::InstrFetch)
        return;
    words_[event.addr / 8] = true;
    const uint64_t line = event.addr / lineBytes_;
    const uint64_t set = line % sets_.size();
    sets_[set] = true;
    if (lastMiss_.empty())
        return;
    if (event.penalty == 0) {
        // A hit: the run started cold, so the set has missed before.
        misses_[lastMiss_[set]].lastAccess = event.cycle;
    } else {
        misses_.push_back(Miss{event.cycle, line / sets_.size(),
                               event.cycle, lastMiss_[set]});
        lastMiss_[set] = static_cast<uint32_t>(misses_.size() - 1);
    }
}

bool
Footprint::touches(const Fault &fault) const
{
    switch (fault.site) {
      case FaultSite::CpuReg:
        return cpuRegs_[1 + fault.index % (isa::kNumIntRegs - 1)];
      case FaultSite::FpuReg:
        return fpuRegs_[fault.index % isa::kNumFpuRegs];
      case FaultSite::MemWord:
        return words_[fault.index % words_.size()];
      case FaultSite::CacheLine:
        if (cacheInert_)
            return false;
        return lastMiss_.empty() ? sets_[fault.index % sets_.size()]
                                 : cacheTagMatters(fault);
      case FaultSite::SoftfpFlags:
        // No instruction reads the PSW. Only an overflow squashes the
        // rest of its vector, and with VL = 1 the IR has moved on by
        // the time the element retires.
        return (fault.mask & 1) != 0 && vectors_;
      case FaultSite::SoftfpResult:
        break;
    }
    return true;
}

/**
 * Whether the first golden access to the struck set at or after the
 * fault's cycle (the injector fires before that cycle's issue) can
 * tell the struck line from the golden one: it hit, or it missed but
 * hits the struck line. Any other miss installs its tag in both runs,
 * and with no access left nothing reads the line again.
 */
bool
Footprint::cacheTagMatters(const Fault &fault) const
{
    // Walk the set's misses back to the last one before the fault;
    // next ends as the first one at or after it.
    uint32_t before = lastMiss_[fault.index % lastMiss_.size()];
    uint32_t next = kNone;
    while (before != kNone && misses_[before].cycle >= fault.cycle) {
        next = before;
        before = misses_[before].prev;
    }
    if (before != kNone && misses_[before].lastAccess >= fault.cycle)
        return true; // a hit comes first
    if (next == kNone)
        return false;
    // Before that miss the golden line holds the tag of the set's last
    // miss, or is invalid with tag 0 as on a fresh or restored machine.
    const bool valid = (before != kNone) != ((fault.mask & 1) != 0);
    const uint64_t tag =
        (before != kNone ? misses_[before].tag : 0) ^ (fault.mask >> 1);
    return valid && tag == misses_[next].tag;
}

uint64_t
campaignTrialSeed(uint64_t base, size_t kernel_index, unsigned trial)
{
    uint64_t s = base;
    s ^= (kernel_index + 1) * 0x9e3779b97f4a7c15ull;
    s ^= (static_cast<uint64_t>(trial) + 1) * 0xc2b2ae3d27d4eb4full;
    return s;
}

std::string
FaultTrial::to_json() const
{
    json::Writer w;
    w.beginObject();
    w.key("kernel").value(kernel);
    w.key("seed").value(seed);
    w.key("fault_plan").value(plan.describe());
    w.key("outcome").value(enumName(outcome));
    w.key("error_code").value(errorCode);
    w.key("cycles").value(cycles);
    w.endObject();
    return w.str();
}

unsigned
CampaignResult::count(FaultOutcome outcome) const
{
    unsigned n = 0;
    for (const FaultTrial &trial : trials)
        n += trial.outcome == outcome;
    return n;
}

std::string
CampaignResult::table() const
{
    TextTable table({"kernel", "trials", "hw-detect", "lockstep", "masked",
                     "sdc", "coverage%"});
    auto addRow = [&](const std::string &name) {
        unsigned n = 0, hw = 0, ls = 0, masked = 0, sdc = 0;
        for (const FaultTrial &t : trials) {
            if (!name.empty() && t.kernel != name)
                continue;
            ++n;
            switch (t.outcome) {
              case FaultOutcome::DetectedHardware: ++hw; break;
              case FaultOutcome::DetectedLockstep: ++ls; break;
              case FaultOutcome::Masked: ++masked; break;
              case FaultOutcome::Sdc: ++sdc; break;
            }
        }
        // Coverage = detected / not-masked (masked flips are benign).
        const unsigned exposed = hw + ls + sdc;
        const double coverage =
            exposed ? 100.0 * (hw + ls) / exposed : 100.0;
        table.addRow({name.empty() ? "TOTAL" : name, std::to_string(n),
                      std::to_string(hw), std::to_string(ls),
                      std::to_string(masked), std::to_string(sdc),
                      TextTable::num(coverage, 1)});
    };
    for (const std::string &name : kernels)
        addRow(name);
    table.addSeparator();
    addRow("");
    return table.render();
}

std::string
CampaignResult::to_json() const
{
    json::Writer w;
    w.beginObject();
    w.key("kernels").beginArray();
    for (size_t i = 0; i < kernels.size(); ++i) {
        w.beginObject();
        w.key("name").value(kernels[i]);
        w.key("golden_cycles").value(goldenCycles[i]);
        w.endObject();
    }
    w.endArray();
    w.key("summary").beginObject();
    for (const auto &[outcome, name] : kEnumNames<FaultOutcome>)
        w.key(name).value(static_cast<uint64_t>(count(outcome)));
    w.endObject();
    w.key("trials").beginArray();
    for (const FaultTrial &trial : trials)
        w.raw(trial.to_json());
    w.endArray();
    w.endObject();
    return w.str() + "\n";
}

CampaignResult
runCampaign(const std::vector<kernels::Kernel> &kernel_list,
            const CampaignConfig &config)
{
    CampaignResult result;
    machine::SimDriver driver(config.threads);

    // Phase 1: one golden run per kernel pins the fault-free checksum
    // and cycle count (the latter bounds trial fault cycles and sizes
    // the runaway guard) and, under lockstep, records the footprint.
    // Each golden job's memory image is built once and moves on to
    // the kernel's reference run.
    const size_t nk = kernel_list.size();
    std::vector<double> goldenSums(nk, 0.0);
    std::vector<machine::SimJob> golden(nk);
    // Under lockstep, one footprint per kernel until its trials are
    // decided; the golden jobs hold their addresses.
    std::vector<std::unique_ptr<Footprint>> footprints(nk);
    for (size_t k = 0; k < nk; ++k) {
        const kernels::Kernel &kernel = kernel_list[k];
        golden[k].name = kernel.name + "-golden";
        golden[k].program = kernel.program;
        golden[k].config = config.machine;
        golden[k].memInit =
            kernels::memImage(kernel.init, config.machine.memory.memBytes);
        double *slot = &goldenSums[k];
        Footprint *footprint = nullptr;
        if (config.lockstep) {
            footprints[k] = std::make_unique<Footprint>(kernel.program);
            footprint = footprints[k].get();
        }
        golden[k].body = [checksum = kernel.checksum, slot,
                          footprint](machine::Machine &m) {
            if (footprint)
                footprint->watch(m);
            machine::RunStats stats = m.run();
            *slot = checksum(m.mem());
            return stats;
        };
    }
    {
        std::vector<machine::SimJobResult> res = driver.run(golden);
        for (size_t k = 0; k < nk; ++k) {
            if (!res[k].ok) {
                fatal("fault campaign: golden run of " +
                      kernel_list[k].name + " failed: " + res[k].error);
            }
            result.kernels.push_back(kernel_list[k].name);
            result.goldenChecksums.push_back(goldenSums[k]);
            result.goldenCycles.push_back(res[k].stats.cycles);
        }
    }

    // Optional journal: trials recorded by a previous (killed) run
    // are loaded up front and skipped; new results append as workers
    // finish them.
    std::unordered_map<std::string, FaultTrial> already;
    std::optional<journal::Appender> appender;
    if (!config.journalPath.empty()) {
        journal::replay(config.journalPath, [&](const json::Value &v) {
            FaultTrial trial;
            trial.kernel = v.at("kernel").asString();
            trial.seed = v.at("seed").asUint();
            trial.outcome = parseEnum<FaultOutcome>(
                v.at("outcome").asString(), "fault outcome",
                ErrCode::BadOperand);
            trial.errorCode = v.at("error_code").asString();
            trial.cycles = v.at("cycles").asUint();
            already[trialKey(trial.kernel, trial.seed)] = std::move(trial);
        });
        if (!already.empty())
            inform("journal holds " + std::to_string(already.size()) +
                   " completed trial(s); resuming");
        appender.emplace(config.journalPath);
    }

    // Phase 2: the seeded trial sweep, one single-fault plan per
    // (kernel, trial) pair, one kernel at a time. Trials found in the
    // journal keep their recorded outcome and do not simulate, nor do
    // trials whose fault the kernel's footprint shows cannot matter;
    // every other trial starts from a capture of its kernel's
    // reference run, at its injection cycle when forking and at cycle
    // 0 if not.
    std::vector<machine::SimJob> jobs;
    std::vector<size_t> jobTrial; // batch index -> trial index
    std::vector<double> sums;     // batch index -> output checksum
    const auto goldenSum = [&](size_t t) {
        return result.goldenChecksums[t / config.faultsPerKernel];
    };
    if (appender) {
        // Journal lines are written from worker threads the moment a
        // trial finishes.
        driver.setResultCallback(
            [&](size_t j, const machine::SimJobResult &r) {
                FaultTrial trial = result.trials[jobTrial[j]];
                classifyTrial(trial, r, sums[j], goldenSum(jobTrial[j]));
                appender->append(trial.to_json());
            });
    }
    for (size_t k = 0; k < nk; ++k) {
        const kernels::Kernel &kernel = kernel_list[k];
        std::vector<size_t> pending; // trial indices, by start cycle
        std::map<FaultSite, unsigned> pruned;
        for (unsigned i = 0; i < config.faultsPerKernel; ++i) {
            FaultTrial trial;
            trial.kernel = kernel.name;
            trial.seed = campaignTrialSeed(config.seed, k, i);
            trial.plan =
                FaultPlan::randomSingle(trial.seed, result.goldenCycles[k]);
            const Fault &fault = trial.plan.faults().front();
            const auto it = already.find(trialKey(kernel.name, trial.seed));
            if (it != already.end()) {
                trial.outcome = it->second.outcome;
                trial.errorCode = it->second.errorCode;
                trial.cycles = it->second.cycles;
            } else if (config.lockstep && !footprints[k]->touches(fault)) {
                classifyTrial(trial,
                              untouchedResult(fault, result.goldenCycles[k]),
                              result.goldenChecksums[k],
                              result.goldenChecksums[k]);
                trial.pruned = true;
                ++pruned[fault.site];
                if (appender)
                    appender->append(trial.to_json());
            } else {
                pending.push_back(result.trials.size());
            }
            result.trials.push_back(std::move(trial));
        }
        if (config.lockstep) {
            footprints[k].reset();
            unsigned decided = 0;
            std::string bySite;
            for (const auto &[site, n] : pruned) {
                decided += n;
                bySite += std::string(bySite.empty() ? "" : ", ") +
                          enumName(site) + " " + std::to_string(n);
            }
            inform(kernel.name + ": " + std::to_string(decided) + " of " +
                   std::to_string(decided + pending.size()) +
                   " trial(s) classified from the fault-free footprint" +
                   (bySite.empty() ? "" : " (" + bySite + ")"));
        }
        if (pending.empty())
            continue;
        const auto startCycle = [&](size_t t) {
            return config.fork ? result.trials[t].plan.faults().front().cycle
                               : 0;
        };
        std::stable_sort(pending.begin(), pending.end(),
                         [&](size_t a, size_t b) {
                             return startCycle(a) < startCycle(b);
                         });

        // The reference is the golden job under the trial
        // configuration; the kernel's memory image dies with it.
        machine::SimJob base = std::move(golden[k]);
        base.body = nullptr;
        base.config.maxCycles = trialCycleGuard(result.goldenCycles[k]);
        base.lockstep = config.lockstep;
        machine::Machine ref(base.config);
        const machine::JobInstruments instruments =
            machine::startJob(base, ref);

        // Windows of at most kForkWindow distinct start cycles, one
        // batch each: capture the starts, run and classify the
        // trials, then release the starts with the batch.
        for (size_t next = 0; next < pending.size();) {
            std::shared_ptr<const machine::JobStart> start;
            uint64_t startAt = 0;
            for (unsigned starts = 0; next < pending.size(); ++next) {
                const size_t t = pending[next];
                const uint64_t cycle = startCycle(t);
                if (!start || cycle != startAt) {
                    if (starts++ == kForkWindow)
                        break;
                    start = captureStart(ref, instruments, kernel.name,
                                         cycle);
                    startAt = cycle;
                }
                machine::SimJob job;
                job.name = kernel.name + "-fault-" +
                           std::to_string(result.trials[t].seed);
                job.config = base.config;
                job.start = start;
                job.body = [checksum = kernel.checksum, &sums,
                            j = jobs.size()](machine::Machine &m) {
                    machine::RunStats stats = m.run();
                    sums[j] = checksum(m.mem());
                    return stats;
                };
                job.faultPlan = result.trials[t].plan;
                job.lockstep = config.lockstep;
                jobTrial.push_back(t);
                jobs.push_back(std::move(job));
            }
            sums.assign(jobs.size(), 0.0);
            const std::vector<machine::SimJobResult> res = driver.run(jobs);
            for (size_t j = 0; j < res.size(); ++j)
                classifyTrial(result.trials[jobTrial[j]], res[j], sums[j],
                              goldenSum(jobTrial[j]));
            jobs.clear();
            jobTrial.clear();
        }
    }

    if (!config.reportDir.empty()) {
        const std::string path = config.reportDir + "/campaign.json";
        try {
            writeFileAtomic(path, result.to_json());
            inform("campaign record written to " + path);
        } catch (const std::exception &err) {
            warn(std::string("campaign record failed: ") + err.what());
        }
    }
    return result;
}

} // namespace mtfpu::faults
