#include "faults/campaign.hh"

#include <algorithm>
#include <bit>
#include <memory>
#include <optional>
#include <unordered_map>

#include "common/file_io.hh"
#include "common/journal.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/table.hh"
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

/** Inverse of faultOutcomeName(); throws SimError on unknown names. */
FaultOutcome
faultOutcomeFromName(const std::string &name)
{
    for (FaultOutcome o :
         {FaultOutcome::DetectedHardware, FaultOutcome::DetectedLockstep,
          FaultOutcome::Masked, FaultOutcome::Sdc}) {
        if (name == faultOutcomeName(o))
            return o;
    }
    fatal(ErrCode::BadOperand, "unknown fault outcome: " + name);
}

/** Classify one finished trial against its golden checksum. */
void
classifyTrial(FaultTrial &trial, const machine::SimJobResult &r,
              double sum, double golden_sum)
{
    trial.cycles = r.stats.cycles;
    trial.errorCode = r.errorCode;
    if (r.ok) {
        // Bit-exact, so a NaN checksum equals itself.
        const bool same = std::bit_cast<uint64_t>(sum) ==
                          std::bit_cast<uint64_t>(golden_sum);
        trial.outcome = same ? FaultOutcome::Masked : FaultOutcome::Sdc;
    } else if (r.errorCode == errCodeName(ErrCode::LockstepDivergence)) {
        trial.outcome = FaultOutcome::DetectedLockstep;
    } else {
        trial.outcome = FaultOutcome::DetectedHardware;
    }
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

uint64_t
campaignTrialSeed(uint64_t base, size_t kernel_index, unsigned trial)
{
    uint64_t s = base;
    s ^= (kernel_index + 1) * 0x9e3779b97f4a7c15ull;
    s ^= (static_cast<uint64_t>(trial) + 1) * 0xc2b2ae3d27d4eb4full;
    return s;
}

const char *
faultOutcomeName(FaultOutcome outcome)
{
    switch (outcome) {
      case FaultOutcome::DetectedHardware: return "detected-hardware";
      case FaultOutcome::DetectedLockstep: return "detected-lockstep";
      case FaultOutcome::Masked: return "masked";
      case FaultOutcome::Sdc: return "sdc";
    }
    return "unknown";
}

std::string
FaultTrial::to_json() const
{
    return "{\"kernel\":\"" + jsonEscape(kernel) +
           "\",\"seed\":" + std::to_string(seed) +
           ",\"faults\":" + plan.to_json() + ",\"outcome\":\"" +
           faultOutcomeName(outcome) + "\",\"error_code\":\"" +
           jsonEscape(errorCode) +
           "\",\"cycles\":" + std::to_string(cycles) + "}";
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
    std::string json = "{\n  \"kernels\": [";
    for (size_t i = 0; i < kernels.size(); ++i) {
        if (i)
            json += ",";
        json += "{\"name\":\"" + jsonEscape(kernels[i]) +
                "\",\"golden_cycles\":" + std::to_string(goldenCycles[i]) +
                "}";
    }
    json += "],\n  \"summary\": {";
    bool first = true;
    for (FaultOutcome o :
         {FaultOutcome::DetectedHardware, FaultOutcome::DetectedLockstep,
          FaultOutcome::Masked, FaultOutcome::Sdc}) {
        if (!first)
            json += ",";
        first = false;
        json += std::string("\"") + faultOutcomeName(o) +
                "\":" + std::to_string(count(o));
    }
    json += "},\n  \"trials\": [\n";
    for (size_t i = 0; i < trials.size(); ++i) {
        json += "    " + trials[i].to_json();
        if (i + 1 < trials.size())
            json += ",";
        json += "\n";
    }
    json += "  ]\n}\n";
    return json;
}

CampaignResult
runCampaign(const std::vector<kernels::Kernel> &kernel_list,
            const CampaignConfig &config)
{
    CampaignResult result;
    machine::SimDriver driver(config.threads);

    // Phase 1: one golden run per kernel pins the fault-free checksum
    // and cycle count (the latter bounds trial fault cycles and sizes
    // the runaway guard). Each golden job's memory image is built
    // once and moves on to the kernel's reference run.
    const size_t nk = kernel_list.size();
    std::vector<double> goldenSums(nk, 0.0);
    std::vector<machine::SimJob> golden(nk);
    for (size_t k = 0; k < nk; ++k) {
        const kernels::Kernel &kernel = kernel_list[k];
        golden[k].name = kernel.name + "-golden";
        golden[k].program = kernel.program;
        golden[k].config = config.machine;
        golden[k].memInit =
            kernels::memImage(kernel.init, config.machine.memory.memBytes);
        double *slot = &goldenSums[k];
        golden[k].body = [checksum = kernel.checksum,
                          slot](machine::Machine &m) {
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
            trial.outcome = faultOutcomeFromName(v.at("outcome").asString());
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
    // journal keep their recorded outcome and do not simulate; every
    // other trial starts from a capture of its kernel's reference
    // run, at its injection cycle when forking and at cycle 0 if not.
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
        for (unsigned i = 0; i < config.faultsPerKernel; ++i) {
            FaultTrial trial;
            trial.kernel = kernel.name;
            trial.seed = campaignTrialSeed(config.seed, k, i);
            trial.plan =
                FaultPlan::randomSingle(trial.seed, result.goldenCycles[k]);
            const auto it = already.find(trialKey(kernel.name, trial.seed));
            if (it != already.end()) {
                trial.outcome = it->second.outcome;
                trial.errorCode = it->second.errorCode;
                trial.cycles = it->second.cycles;
            } else {
                pending.push_back(result.trials.size());
            }
            result.trials.push_back(std::move(trial));
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
        base.config.maxCycles =
            result.goldenCycles[k] * config.guardFactor + 10000;
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
