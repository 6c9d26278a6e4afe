/**
 * @file
 * Coverage-guided differential ISA fuzzing campaign (DESIGN.md §10).
 * Generates seeded random programs, runs each through the cycle
 * Machine with the lockstep Interpreter shadow on both softfp
 * backends, classifies every trial, minimizes failures to crash
 * bundles, and reports the coverage reached. A bundle's report carries
 * the minimized program as a JobSpec, which `replay` re-runs as it
 * does a daemon crash report.
 *
 * Usage:
 *   fuzz [--seed=S] [--trials=N | --duration-s=T]
 *        [--journal=FILE [--resume]] [--crash-dir=DIR]
 *        [--corpus-dir=DIR] [--mutate=NAME] [--max-cycles=N]
 *        [--assert-no-divergence] [--min-opvl-coverage=F]
 *        [--replay-corpus=DIR] [--quiet] [--export-specs=FILE]
 *
 * --export-specs=FILE writes the campaign's trials as service
 * JobSpecs (one JSON object per line, fuzz-shard seeds derived from
 * --seed exactly as the engine would) and exits without fuzzing. The
 * file feeds `mtfpu-cli sweep`, sharding a fuzz campaign's program
 * simulations across the simulation daemon. The exported jobs run
 * the generated programs on the cycle machine only — the lockstep
 * differential oracle stays an in-process concern.
 *
 * --seed=S            campaign seed (default 1); identical seeds give
 *                     identical journals
 * --trials=N          trial count (default 200)
 * --duration-s=T      wall-clock budget instead of a trial count
 * --journal=FILE      one JSON line per trial; deleted and rewritten
 *                     unless --resume continues over it
 * --resume            reconstruct coverage from the journal and
 *                     continue after the last complete trial
 * --crash-dir=DIR     write minimized crash bundles (.json/.prog)
 * --corpus-dir=DIR    write coverage-novel programs (.prog)
 * --mutate=NAME       install a deliberate shadow-semantics bug
 *                     (flip-sra, flip-srb, drop-last-element,
 *                     swap-add-sub) — oracle validation mode
 * --assert-no-divergence  exit 1 if any trial faulted or diverged
 * --min-opvl-coverage=F   exit 1 if op x vl coverage ends below F
 * --replay-corpus=DIR     instead of fuzzing, re-run every .prog in
 *                         DIR through the lockstep diff (both
 *                         backends) and report
 *
 * Exit status: 0 clean, 1 assertion failed (divergence found or
 * coverage short), 2 usage errors (a malformed number among them).
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_util.hh"
#include "common/file_io.hh"
#include "common/log.hh"
#include "fuzz/corpus.hh"
#include "fuzz/fuzz_engine.hh"
#include "service/job_spec.hh"

using namespace mtfpu;
using bench::flagNumber;
using bench::flagValue;

namespace
{

int
replayCorpus(const std::string &dir, const fuzz::FuzzConfig &config,
             bool quiet)
{
    const std::vector<std::string> paths = fuzz::listCorpus(dir);
    if (paths.empty()) {
        std::fprintf(stderr, "no .prog files under %s\n", dir.c_str());
        return 2;
    }
    unsigned failures = 0;
    for (const std::string &path : paths) {
        const fuzz::FuzzProgram prog = fuzz::readProgramFile(path);
        bool failed = false;
        for (const softfp::Backend backend :
             {softfp::Backend::Soft, softfp::Backend::HostFast}) {
            const fuzz::BackendOutcome out = fuzz::runLockstep(
                prog, backend, config.shadowMutation, config.maxCycles,
                config.memBytes);
            if (fuzz::outcomeIsFailure(out.outcome)) {
                failed = true;
                std::printf("%s [%s]: %s (%s)\n", path.c_str(),
                            softfp::backendName(backend),
                            fuzz::trialOutcomeName(out.outcome),
                            out.errorCode.c_str());
            } else if (!quiet) {
                std::printf("%s [%s]: %s\n", path.c_str(),
                            softfp::backendName(backend),
                            fuzz::trialOutcomeName(out.outcome));
            }
        }
        failures += failed;
    }
    std::printf("replayed %zu program(s), %u failure(s)\n",
                paths.size(), failures);
    return failures ? 1 : 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    fuzz::FuzzConfig config;
    config.trials = 200;
    bool assertNoDivergence = false;
    double minOpVlCoverage = -1;
    std::string replayDir;
    std::string exportSpecs;
    bool quiet = false;
    bool resume = false;

    try {
        for (int i = 1; i < argc; ++i) {
            std::string value;
            if (flagValue(argv[i], "--seed", value)) {
                config.seed = flagNumber<uint64_t>("--seed", value);
            } else if (flagValue(argv[i], "--trials", value)) {
                config.trials = flagNumber<uint64_t>("--trials", value);
            } else if (flagValue(argv[i], "--duration-s", value)) {
                config.durationSec = flagNumber<double>("--duration-s", value);
            } else if (flagValue(argv[i], "--journal", value)) {
                config.journalPath = value;
            } else if (std::strcmp(argv[i], "--resume") == 0) {
                resume = true;
            } else if (flagValue(argv[i], "--crash-dir", value)) {
                config.crashDir = value;
            } else if (flagValue(argv[i], "--corpus-dir", value)) {
                config.corpusDir = value;
            } else if (flagValue(argv[i], "--mutate", value)) {
                config.shadowMutation = machine::mutationFromName(value);
            } else if (flagValue(argv[i], "--max-cycles", value)) {
                config.maxCycles = flagNumber<uint64_t>("--max-cycles", value);
            } else if (std::strcmp(argv[i], "--assert-no-divergence") == 0) {
                assertNoDivergence = true;
            } else if (flagValue(argv[i], "--min-opvl-coverage", value)) {
                minOpVlCoverage =
                    flagNumber<double>("--min-opvl-coverage", value);
            } else if (flagValue(argv[i], "--replay-corpus", value)) {
                replayDir = value;
            } else if (flagValue(argv[i], "--export-specs", value)) {
                exportSpecs = value;
            } else if (std::strcmp(argv[i], "--quiet") == 0) {
                quiet = true;
            } else {
                std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
                return 2;
            }
        }

        if (!replayDir.empty())
            return replayCorpus(replayDir, config, quiet);

        if (!exportSpecs.empty()) {
            std::string lines;
            service::JobSpec spec;
            spec.kind = service::JobKind::Fuzz;
            spec.config.maxCycles = config.maxCycles;
            spec.config.memory.memBytes = config.memBytes;
            for (uint64_t t = 0; t < config.trials; ++t) {
                spec.fuzzSeed = fuzz::trialSeed(config.seed, t);
                spec.name = "fuzz-" + std::to_string(spec.fuzzSeed);
                lines += spec.to_json() + "\n";
            }
            writeFileAtomic(exportSpecs, lines);
            std::printf("wrote %llu fuzz specs to %s\n",
                        static_cast<unsigned long long>(config.trials),
                        exportSpecs.c_str());
            return 0;
        }

        // Without --resume a pre-existing journal belongs to some
        // earlier campaign; start it over rather than continuing it.
        if (!config.journalPath.empty() && !resume)
            std::remove(config.journalPath.c_str());

        fuzz::FuzzEngine engine(config);
        const fuzz::FuzzResult result =
            engine.run([&](const fuzz::TrialResult &trial) {
                if (quiet)
                    return;
                if (fuzz::outcomeIsFailure(trial.worst())) {
                    std::printf(
                        "trial %llu: %s (minimized to %u instrs)%s%s\n",
                        static_cast<unsigned long long>(trial.trial),
                        fuzz::trialOutcomeName(trial.worst()),
                        trial.minimizedSize,
                        trial.bundlePath.empty() ? "" : " -> ",
                        trial.bundlePath.c_str());
                }
            });

        std::printf("%s", result.table().c_str());
        int status = 0;
        if (assertNoDivergence && !result.clean()) {
            std::printf("FAIL: unexplained failures found\n");
            status = 1;
        }
        if (minOpVlCoverage >= 0 &&
            result.opVlCoverage < minOpVlCoverage) {
            std::printf("FAIL: op x vl coverage %.3f below %.3f\n",
                        result.opVlCoverage, minOpVlCoverage);
            status = 1;
        }
        return status;
    } catch (const FatalError &err) {
        std::fprintf(stderr, "fuzz: %s\n", err.what());
        return 2;
    }
}
