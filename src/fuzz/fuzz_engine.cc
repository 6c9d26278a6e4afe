#include "fuzz/fuzz_engine.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>

#include "common/file_io.hh"
#include "common/journal.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "fuzz/minimizer.hh"
#include "machine/machine.hh"
#include "machine/sim_job.hh"

namespace mtfpu::fuzz
{

namespace
{

/** "trial-NNNNNN", the stem of a trial's corpus entry and bundle. */
std::string
trialStem(uint64_t trial)
{
    char stem[32];
    std::snprintf(stem, sizeof stem, "trial-%06llu",
                  static_cast<unsigned long long>(trial));
    return stem;
}

} // anonymous namespace

service::JobSpec
trialSpec(const FuzzProgram &prog, softfp::Backend backend,
          uint64_t max_cycles)
{
    service::JobSpec spec;
    spec.kind = service::JobKind::Code;
    for (const isa::Instr &in : prog.code)
        spec.code.push_back(in.encode());
    spec.config.fpBackend = backend;
    spec.config.maxCycles = max_cycles;
    spec.config.memory.memBytes = kTrialMemBytes;
    spec.memInit = prog.memInit;
    spec.lockstep = true;
    return spec;
}

TrialOutcome
TrialResult::worst() const
{
    return soft.outcome > host.outcome ? soft.outcome : host.outcome;
}

std::string
TrialResult::to_json() const
{
    const BackendOutcome &worstOut =
        soft.outcome >= host.outcome ? soft : host;
    json::Writer w;
    w.beginObject();
    w.key("trial").value(trial);
    w.key("seed").value(seed);
    w.key("soft").value(enumName(soft.outcome));
    w.key("host").value(enumName(host.outcome));
    w.key("error").value(worstOut.errorCode());
    w.key("cycles").value(worstOut.cycles);
    w.key("new_cells").beginArray();
    for (const unsigned cell : newCells)
        w.value(static_cast<uint64_t>(cell));
    w.endArray();
    w.key("kept").value(kept);
    w.key("minimized").value(static_cast<uint64_t>(minimizedSize));
    w.key("bundle").value(bundlePath);
    w.endObject();
    return w.str();
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
    for (const auto &[outcome, name] : kEnumNames<TrialOutcome>) {
        text += "  ";
        text += name;
        text.append(18 - std::strlen(name), ' ');
        text += std::to_string(counts[static_cast<unsigned>(outcome)]) +
                "\n";
    }
    char cov[64];
    std::snprintf(cov, sizeof cov, "  op x vl coverage  %.1f%%\n",
                  opVlCoverage * 100.0);
    text += cov;
    return text;
}

BackendOutcome
runLockstep(const service::JobSpec &spec,
            machine::SemanticsMutation shadow_mutation, CoverageObserver *cov)
{
    if (!spec.lockstep)
        fatal(ErrCode::BadOperand,
              "fuzz: spec '" + spec.name + "' runs without the lockstep shadow");
    const machine::SimJob job = spec.resolve();
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
            out.error = machine::guardError(stats);
        }
    } catch (const SimError &err) {
        out.error = err;
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

std::vector<std::string>
listCorpus(const std::string &dir)
{
    std::vector<std::string> paths;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".json")
            paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());
    return paths;
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
    res.soft = runLockstep(
        trialSpec(prog, softfp::Backend::Soft, config_.maxCycles),
        config_.shadowMutation, &cov);
    res.host = runLockstep(
        trialSpec(prog, softfp::Backend::HostFast, config_.maxCycles),
        config_.shadowMutation);
    cov.add(outcomeCell(static_cast<unsigned>(res.worst())));
    res.newCells = coverage_.commit(cov.touched());
    res.kept = !res.newCells.empty();

    if (res.kept && !config_.corpusDir.empty()) {
        const std::string stem = trialStem(trial);
        service::JobSpec entry =
            trialSpec(prog, softfp::Backend::Soft, config_.maxCycles);
        entry.name = "fuzz-" + stem;
        writeFileAtomic(config_.corpusDir + "/" + stem + ".json",
                        entry.to_json() + "\n");
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
            const BackendOutcome got = runLockstep(
                trialSpec(candidate, backend, config_.maxCycles),
                config_.shadowMutation);
            return got.outcome == want.outcome &&
                   got.errorCode() == want.errorCode();
        } catch (const FatalError &) {
            // Generator invariants don't hold for arbitrary subsets
            // (e.g. a load drifted out of memory during setup); such
            // candidates simply aren't reductions.
            return false;
        }
    };

    const FuzzProgram minimized = minimize(prog, sameSignature);
    result.minimizedSize = static_cast<unsigned>(minimized.code.size());

    if (config_.crashDir.empty())
        return;
    const std::string stem = trialStem(result.trial);

    // Re-run the minimized program for its own faulting cycle, the one
    // the replay contract checks.
    service::JobSpec spec = trialSpec(minimized, backend, config_.maxCycles);
    const BackendOutcome minOut = runLockstep(spec, config_.shadowMutation);
    spec.name = "fuzz-" + stem;

    json::Writer w;
    w.beginObject();
    w.key("job").value(spec.name);
    w.key("spec").raw(spec.to_json());
    if (config_.shadowMutation != machine::SemanticsMutation::None)
        w.key("mutation").value(enumName(config_.shadowMutation));
    w.key("seed").value(result.seed);
    w.key("error").raw(minOut.error ? minOut.error->to_json() : "null");
    if (minOut.outcome == TrialOutcome::Divergence)
        w.key("divergence").raw(minOut.divergence.to_json());
    w.endObject();

    result.bundlePath = config_.crashDir + "/" + stem + ".json";
    writeFileAtomic(result.bundlePath, w.str() + "\n");
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
        const TrialOutcome soft = parseEnum<TrialOutcome>(
            rec.at("soft").asString(), "trial outcome", ErrCode::BadOperand);
        const TrialOutcome host = parseEnum<TrialOutcome>(
            rec.at("host").asString(), "trial outcome", ErrCode::BadOperand);
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
