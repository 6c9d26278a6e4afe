#include "faults/campaign.hh"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>

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

/** Bit-exact double comparison (NaN-safe, unlike operator==). */
bool
bitEqual(double a, double b)
{
    uint64_t ab, bb;
    std::memcpy(&ab, &a, sizeof(ab));
    std::memcpy(&bb, &b, sizeof(bb));
    return ab == bb;
}

/** Deterministic per-trial seed from (base, kernel, trial). */
uint64_t
trialSeed(uint64_t base, size_t kernel, unsigned trial)
{
    uint64_t s = base;
    s ^= (kernel + 1) * 0x9e3779b97f4a7c15ull;
    s ^= (static_cast<uint64_t>(trial) + 1) * 0xc2b2ae3d27d4eb4full;
    return s;
}

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
        trial.outcome = bitEqual(sum, golden_sum) ? FaultOutcome::Masked
                                                  : FaultOutcome::Sdc;
    } else if (r.errorCode == errCodeName(ErrCode::LockstepDivergence)) {
        trial.outcome = FaultOutcome::DetectedLockstep;
    } else {
        trial.outcome = FaultOutcome::DetectedHardware;
    }
}

/**
 * Run one reference machine to each distinct injection cycle of a
 * kernel's trial sweep and capture a start state at each pause. The
 * reference starts like a from-scratch trial (@p base: the kernel
 * under the *trial* configuration, which snapshot restore requires,
 * with the trials' lockstep setting), so a trial started from a fork
 * point is indistinguishable from one that simulated the prefix
 * itself.
 */
std::shared_ptr<std::map<uint64_t, machine::JobStart>>
captureForkPoints(const machine::SimJob &base,
                  const std::set<uint64_t> &cycles)
{
    auto forks = std::make_shared<std::map<uint64_t, machine::JobStart>>();
    machine::Machine ref(base.config);
    const machine::JobInstruments instruments = machine::startJob(base, ref);
    for (const uint64_t c : cycles) { // std::set iterates ascending
        const machine::RunStats st = ref.runUntil(c);
        if (st.status != machine::RunStatus::Paused) {
            fatal("fault campaign: reference run of " + base.name +
                  " ended (" + machine::runStatusName(st.status) +
                  ") before injection cycle " + std::to_string(c));
        }
        machine::JobStart &fork = (*forks)[c];
        fork.machine = snapshot::capture(ref);
        if (instruments.shadow) {
            ByteWriter out;
            instruments.shadow->saveState(out);
            fork.shadow = out.take();
        }
    }
    return forks;
}

} // anonymous namespace

uint64_t
campaignTrialSeed(uint64_t base, size_t kernel_index, unsigned trial)
{
    return trialSeed(base, kernel_index, trial);
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
    // once and moves on to the kernel's trials.
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
    // (kernel, trial) pair, all across the driver pool. Trials found
    // in the journal keep their recorded outcome and do not simulate.
    std::vector<machine::SimJob> jobs;
    std::vector<FaultTrial> trials;
    std::vector<size_t> jobTrial; // batch index -> trial index
    const size_t total = nk * config.faultsPerKernel;
    jobs.reserve(total);
    trials.reserve(total);
    jobTrial.reserve(total);
    std::vector<double> sums(total, 0.0);
    for (size_t k = 0; k < nk; ++k) {
        const kernels::Kernel &kernel = kernel_list[k];
        // A from-scratch trial starts from the golden job under the
        // trial configuration.
        machine::SimJob base = std::move(golden[k]);
        base.name = kernel.name;
        base.body = nullptr;
        base.config.maxCycles =
            result.goldenCycles[k] * config.guardFactor + 10000;
        base.lockstep = config.lockstep;

        // Gather this kernel's pending trials first: fork mode needs
        // the set of injection cycles before any job can be built.
        std::vector<size_t> pending; // indices of trials to simulate
        std::set<uint64_t> forkCycles;
        for (unsigned i = 0; i < config.faultsPerKernel; ++i) {
            FaultTrial trial;
            trial.kernel = kernel.name;
            trial.seed = trialSeed(config.seed, k, i);
            trial.plan =
                FaultPlan::randomSingle(trial.seed, result.goldenCycles[k]);

            const auto it = already.find(trialKey(kernel.name, trial.seed));
            if (it != already.end()) {
                trial.outcome = it->second.outcome;
                trial.errorCode = it->second.errorCode;
                trial.cycles = it->second.cycles;
                trials.push_back(std::move(trial));
                continue;
            }
            if (config.fork && !trial.plan.empty())
                forkCycles.insert(trial.plan.faults().front().cycle);
            trials.push_back(std::move(trial));
            pending.push_back(trials.size() - 1);
        }

        std::shared_ptr<std::map<uint64_t, machine::JobStart>> forks;
        if (config.fork && !forkCycles.empty())
            forks = captureForkPoints(base, forkCycles);

        for (const size_t t : pending) {
            const FaultTrial &trial = trials[t];
            machine::SimJob job;
            job.name = kernel.name + "-fault-" + std::to_string(trial.seed);
            job.config = base.config;
            double *slot = &sums[jobs.size()];
            job.body = [checksum = kernel.checksum,
                        slot](machine::Machine &m) {
                machine::RunStats stats = m.run();
                *slot = checksum(m.mem());
                return stats;
            };
            if (forks && !trial.plan.empty()) {
                // Fork mode: start from the paired machine + shadow
                // state instead of simulating the prefix. The alias
                // shares ownership of the fork map.
                job.start = std::shared_ptr<const machine::JobStart>(
                    forks, &forks->at(trial.plan.faults().front().cycle));
            } else {
                job.program = base.program;
                job.memInit = base.memInit;
            }
            job.faultPlan = trial.plan;
            job.lockstep = base.lockstep;
            jobTrial.push_back(t);
            jobs.push_back(std::move(job));
        }
    }

    // Journal lines are written from worker threads the moment a
    // trial finishes.
    if (appender) {
        driver.setResultCallback(
            [&](size_t j, const machine::SimJobResult &r) {
                FaultTrial trial = trials[jobTrial[j]];
                const size_t k = jobTrial[j] / config.faultsPerKernel;
                classifyTrial(trial, r, sums[j], result.goldenChecksums[k]);
                appender->append(trial.to_json());
            });
    }

    const std::vector<machine::SimJobResult> res = driver.run(jobs);
    for (size_t j = 0; j < res.size(); ++j) {
        const size_t k = jobTrial[j] / config.faultsPerKernel;
        classifyTrial(trials[jobTrial[j]], res[j], sums[j],
                      result.goldenChecksums[k]);
    }
    result.trials = std::move(trials);

    if (!config.reportDir.empty()) {
        try {
            std::filesystem::create_directories(config.reportDir);
            const std::string path = config.reportDir + "/campaign.json";
            std::FILE *f = std::fopen(path.c_str(), "w");
            if (f) {
                const std::string json = result.to_json();
                std::fwrite(json.data(), 1, json.size(), f);
                std::fclose(f);
                inform("campaign record written to " + path);
            } else {
                warn("cannot write campaign record " + path);
            }
        } catch (const std::exception &err) {
            warn(std::string("campaign record failed: ") + err.what());
        }
    }
    return result;
}

} // namespace mtfpu::faults
