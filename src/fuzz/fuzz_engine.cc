#include "fuzz/fuzz_engine.hh"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>

#include "common/file_io.hh"
#include "common/journal.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "fuzz/corpus.hh"
#include "fuzz/minimizer.hh"
#include "machine/machine.hh"
#include "machine/sim_job.hh"
#include "service/job_spec.hh"

namespace mtfpu::fuzz
{

namespace
{

constexpr const char *kOutcomeNames[kNumOutcomes] = {
    "pass",           "overflow-squash", "hazard-detected",
    "cycle-guard",    "fault",           "divergence",
};

TrialOutcome
outcomeFromName(const std::string &name)
{
    for (unsigned i = 0; i < kNumOutcomes; ++i) {
        if (name == kOutcomeNames[i])
            return static_cast<TrialOutcome>(i);
    }
    fatal(ErrCode::BadOperand, "unknown trial outcome '" + name + "'");
}

/**
 * The job one trial runs on @p backend: @p prog on the trial's
 * machine, with the lockstep shadow. A crash bundle carries the same
 * spec, so its replay runs what the trial ran.
 */
service::JobSpec
trialSpec(const FuzzProgram &prog, softfp::Backend backend,
          uint64_t max_cycles, size_t mem_bytes)
{
    service::JobSpec spec;
    spec.kind = service::JobKind::Code;
    for (const isa::Instr &in : prog.code)
        spec.code.push_back(in.encode());
    spec.config.fpBackend = backend;
    spec.config.maxCycles = max_cycles;
    spec.config.memory.memBytes = mem_bytes;
    spec.memInit = prog.memInit;
    spec.lockstep = true;
    return spec;
}

} // anonymous namespace

const char *
trialOutcomeName(TrialOutcome outcome)
{
    return kOutcomeNames[static_cast<unsigned>(outcome)];
}

TrialOutcome
TrialResult::worst() const
{
    return soft.outcome > host.outcome ? soft.outcome : host.outcome;
}

std::string
TrialResult::to_json() const
{
    const BackendOutcome &w =
        soft.outcome >= host.outcome ? soft : host;
    std::string json = "{\"trial\":" + std::to_string(trial) +
                       ",\"seed\":" + std::to_string(seed) +
                       ",\"soft\":\"" + trialOutcomeName(soft.outcome) +
                       "\",\"host\":\"" + trialOutcomeName(host.outcome) +
                       "\",\"error\":\"" + jsonEscape(w.errorCode) +
                       "\",\"cycles\":" + std::to_string(w.cycles) +
                       ",\"new_cells\":[";
    for (size_t i = 0; i < newCells.size(); ++i) {
        if (i)
            json += ",";
        json += std::to_string(newCells[i]);
    }
    json += "],\"kept\":";
    json += kept ? "true" : "false";
    json += ",\"minimized\":" + std::to_string(minimizedSize) +
            ",\"bundle\":\"" + jsonEscape(bundlePath) + "\"}";
    return json;
}

bool
FuzzResult::clean() const
{
    return counts[static_cast<unsigned>(TrialOutcome::Fault)] == 0 &&
           counts[static_cast<unsigned>(TrialOutcome::Divergence)] == 0;
}

std::string
FuzzResult::table() const
{
    std::string text = "trials: " + std::to_string(trials) + "\n";
    for (unsigned i = 0; i < kNumOutcomes; ++i) {
        text += "  ";
        text += kOutcomeNames[i];
        text.append(18 - std::strlen(kOutcomeNames[i]), ' ');
        text += std::to_string(counts[i]) + "\n";
    }
    char cov[64];
    std::snprintf(cov, sizeof cov, "  op x vl coverage  %.1f%%\n",
                  opVlCoverage * 100.0);
    text += cov;
    return text;
}

BackendOutcome
runLockstep(const FuzzProgram &prog, softfp::Backend backend,
            machine::SemanticsMutation shadow_mutation,
            uint64_t max_cycles, size_t mem_bytes, CoverageObserver *cov)
{
    const machine::SimJob job =
        trialSpec(prog, backend, max_cycles, mem_bytes).resolve();
    machine::Machine m(job.config);
    const machine::JobInstruments instruments = machine::startJob(job, m);
    machine::LockstepChecker &checker = *instruments.shadow;
    checker.interpreter().setMutation(shadow_mutation);
    if (cov)
        m.addObserver(cov);

    BackendOutcome out;
    try {
        const machine::RunStats stats = m.run();
        out.cycles = stats.cycles;
        if (stats.status == machine::RunStatus::Ok) {
            out.outcome = TrialOutcome::Pass;
        } else {
            // Guarded runs never reach the final-state compare
            // (notifyRunEnd fires only for Ok), so they are neither
            // verified nor diverged — just out of budget.
            out.outcome = TrialOutcome::CycleGuard;
            out.errorCode = machine::runStatusName(stats.status);
        }
    } catch (const SimError &err) {
        out.errorCode = errCodeName(err.code());
        if (err.context().cycle >= 0)
            out.cycles = static_cast<uint64_t>(err.context().cycle);
        switch (err.code()) {
          case ErrCode::LockstepDivergence:
            // §2.3.1: the Machine squashes the rest of an overflowing
            // vector while the shadow executes every element — a
            // documented, explained divergence class.
            if (m.fpu().psw().overflowValid ||
                m.fpu().stats().squashedElements > 0) {
                out.outcome = TrialOutcome::OverflowSquash;
            } else {
                out.outcome = TrialOutcome::Divergence;
                out.divergence = checker.report();
            }
            break;
          case ErrCode::HazardViolation:
            out.outcome = TrialOutcome::HazardDetected;
            break;
          default:
            out.outcome = TrialOutcome::Fault;
            break;
        }
    }
    return out;
}

uint64_t
trialSeed(uint64_t campaign_seed, uint64_t trial)
{
    // One splitmix64 step at stream offset `trial`: decorrelates the
    // per-trial seeds even for adjacent campaign seeds.
    Rng rng(campaign_seed + trial);
    return rng.next();
}

FuzzEngine::FuzzEngine(FuzzConfig config) : config_(std::move(config)) {}

TrialResult
FuzzEngine::runTrial(uint64_t trial)
{
    TrialResult res;
    res.trial = trial;
    res.seed = trialSeed(config_.seed, trial);
    const FuzzProgram prog = gen_.generate(res.seed, &coverage_);

    CoverageObserver cov;
    res.soft = runLockstep(prog, softfp::Backend::Soft,
                           config_.shadowMutation, config_.maxCycles,
                           config_.memBytes, &cov);
    res.host = runLockstep(prog, softfp::Backend::HostFast,
                           config_.shadowMutation, config_.maxCycles,
                           config_.memBytes);
    cov.add(outcomeCell(static_cast<unsigned>(res.worst())));
    res.newCells = coverage_.commit(cov.touched());
    res.kept = !res.newCells.empty();

    if (res.kept && !config_.corpusDir.empty()) {
        char name[64];
        std::snprintf(name, sizeof name, "/trial-%06llu.prog",
                      static_cast<unsigned long long>(trial));
        writeProgramFile(config_.corpusDir + name, prog);
    }
    if (outcomeIsFailure(res.worst()))
        bundleFailure(prog, res);
    return res;
}

void
FuzzEngine::bundleFailure(const FuzzProgram &prog, TrialResult &result)
{
    // Signature oracle: the failing backend must fail the same way
    // (outcome class + error code) for a reduction to be accepted.
    const bool softFails = outcomeIsFailure(result.soft.outcome);
    const softfp::Backend backend =
        softFails ? softfp::Backend::Soft : softfp::Backend::HostFast;
    const BackendOutcome &want = softFails ? result.soft : result.host;

    const auto sameSignature = [&](const FuzzProgram &candidate) {
        try {
            const BackendOutcome got =
                runLockstep(candidate, backend, config_.shadowMutation,
                            config_.maxCycles, config_.memBytes);
            return got.outcome == want.outcome &&
                   got.errorCode == want.errorCode;
        } catch (const FatalError &) {
            // Generator invariants don't hold for arbitrary subsets
            // (e.g. a load drifted out of memory during setup); such
            // candidates simply aren't reductions.
            return false;
        }
    };

    FuzzProgram minimized = prog;
    if (config_.minimize)
        minimized = minimize(prog, sameSignature);
    result.minimizedSize = static_cast<unsigned>(minimized.code.size());

    if (config_.crashDir.empty())
        return;
    char stem[64];
    std::snprintf(stem, sizeof stem, "trial-%06llu",
                  static_cast<unsigned long long>(result.trial));
    const std::string base = config_.crashDir + "/" + stem;

    // Re-run the minimized program for its own faulting cycle, the one
    // the replay contract checks.
    const BackendOutcome minOut =
        runLockstep(minimized, backend, config_.shadowMutation,
                    config_.maxCycles, config_.memBytes);
    service::JobSpec spec = trialSpec(minimized, backend,
                                      config_.maxCycles, config_.memBytes);
    spec.name = "fuzz-" + std::string(stem);

    json::Writer w;
    w.beginObject();
    w.key("job").value(spec.name);
    w.key("spec").raw(spec.to_json());
    if (config_.shadowMutation != machine::SemanticsMutation::None)
        w.key("mutation").value(
            machine::mutationName(config_.shadowMutation));
    w.key("seed").value(result.seed);
    w.key("error").beginObject();
    w.key("code").value(minOut.errorCode);
    w.key("cycle").value(minOut.cycles);
    w.endObject();
    if (minOut.outcome == TrialOutcome::Divergence)
        w.key("divergence").raw(minOut.divergence.to_json());
    w.endObject();

    writeProgramFile(base + ".prog", minimized);
    writeProgramFile(base + ".orig.prog", prog);
    writeFileAtomic(base + ".json", w.str() + "\n");
    result.bundlePath = base + ".json";
}

uint64_t
FuzzEngine::resumeFromJournal(FuzzResult &result)
{
    uint64_t next = 0;
    journal::replay(config_.journalPath, [&](const json::Value &rec) {
        // Records replay in trial order; a duplicate index is the
        // re-run of a trial whose original line was torn. The whole
        // record is checked before any of it is committed.
        const uint64_t trial = rec.at("trial").asUint();
        if (trial != next)
            fatal(ErrCode::BadOperand,
                  "trial " + std::to_string(trial) + " out of order");
        const TrialOutcome soft = outcomeFromName(rec.at("soft").asString());
        const TrialOutcome host = outcomeFromName(rec.at("host").asString());
        std::vector<unsigned> cells;
        for (const json::Value &cell : rec.at("new_cells").asArray()) {
            const uint64_t index = cell.asUint();
            if (index >= kNumCells)
                fatal(ErrCode::BadOperand, "coverage cell " +
                                               std::to_string(index) +
                                               " out of range");
            cells.push_back(static_cast<unsigned>(index));
        }
        coverage_.commit(cells);
        const TrialOutcome worst = soft > host ? soft : host;
        ++result.trials;
        ++result.counts[static_cast<unsigned>(worst)];
        ++next;
    });
    return next;
}

FuzzResult
FuzzEngine::run(const std::function<void(const TrialResult &)> &on_trial)
{
    FuzzResult result;
    uint64_t first = 0;
    std::optional<journal::Appender> appender;
    if (!config_.journalPath.empty()) {
        first = resumeFromJournal(result);
        appender.emplace(config_.journalPath);
    }

    const auto t0 = std::chrono::steady_clock::now();
    for (uint64_t trial = first;; ++trial) {
        if (config_.durationSec > 0) {
            const double elapsed =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            if (elapsed >= config_.durationSec)
                break;
        } else if (trial >= config_.trials) {
            break;
        }
        const TrialResult res = runTrial(trial);
        ++result.trials;
        ++result.counts[static_cast<unsigned>(res.worst())];
        if (outcomeIsFailure(res.worst()))
            result.failures.push_back(res);
        if (appender)
            appender->append(res.to_json());
        if (on_trial)
            on_trial(res);
    }
    result.opVlCoverage = coverage_.opVlCoverage();
    return result;
}

} // namespace mtfpu::fuzz
