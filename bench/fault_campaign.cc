/**
 * @file
 * Fault-injection campaign driver: sweeps seeded single-bit faults
 * over a set of Livermore kernels and prints the detection-coverage
 * classification table (detected-hardware / detected-lockstep /
 * masked / sdc — see src/faults/campaign.hh for the scheme).
 *
 * Usage:
 *   fault_campaign [--kernels=lfk01,lfk03,lfk12] [--faults=N]
 *                  [--seed=S] [--no-lockstep] [--threads=N]
 *                  [--report-dir=DIR] [--journal=FILE] [--resume]
 *                  [--fork] [--assert-no-sdc] [--export-specs=FILE]
 *
 * --kernels takes kernel references as JobSpecs write them
 * (kernels::findKernel: "lfk07", "lfk07:scalar", "linpack").
 *
 * --export-specs=FILE runs only the campaign's golden runs, then
 * writes the campaign's trials as service JobSpecs — one JSON object
 * per line, kernel reference plus fault-plan text, the exact plans the
 * campaign derives from --seed — and exits. The file feeds
 * `mtfpu-cli sweep`, so a fault campaign can run through the
 * simulation daemon.
 *
 * --assert-no-sdc exits nonzero if any trial classifies as silent
 * data corruption; with the lockstep checker attached (the default)
 * SDC is structurally impossible, which is what the CI smoke job
 * asserts.
 *
 * --journal=FILE appends each finished trial to FILE as one JSON line.
 * By default an existing journal is truncated (fresh campaign); with
 * --resume its recorded trials are kept and skipped, so a SIGKILLed
 * campaign rerun with the same parameters completes the remainder and
 * reports identical classification counts. --fork starts each trial
 * from its kernel's reference run at the trial's injection cycle
 * instead of at cycle 0, so no trial re-simulates the shared golden
 * prefix (bit-identical classification, see src/faults/campaign.hh).
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "common/file_io.hh"
#include "faults/campaign.hh"
#include "kernels/runner.hh"
#include "service/job_spec.hh"

using namespace mtfpu;
using bench::flagNumber;
using bench::flagValue;

namespace
{

std::vector<std::string>
splitCsv(const std::string &csv)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= csv.size()) {
        size_t comma = csv.find(',', start);
        if (comma == std::string::npos)
            comma = csv.size();
        if (comma > start)
            out.push_back(csv.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> names = {"lfk01", "lfk03", "lfk12"};
    faults::CampaignConfig cfg;
    cfg.faultsPerKernel = 34;
    cfg.machine = bench::idealMemoryConfig();
    bool assert_no_sdc = false;
    bool resume = false;
    std::string export_specs;

    try {
        for (int i = 1; i < argc; ++i) {
            std::string value;
            if (flagValue(argv[i], "--kernels", value)) {
                names = splitCsv(value);
            } else if (flagValue(argv[i], "--faults", value)) {
                cfg.faultsPerKernel =
                    flagNumber<unsigned>("--faults", value);
            } else if (flagValue(argv[i], "--seed", value)) {
                cfg.seed = flagNumber<uint64_t>("--seed", value);
            } else if (flagValue(argv[i], "--threads", value)) {
                cfg.threads = flagNumber<unsigned>("--threads", value);
            } else if (flagValue(argv[i], "--report-dir", value)) {
                cfg.reportDir = value;
            } else if (flagValue(argv[i], "--journal", value)) {
                cfg.journalPath = value;
            } else if (flagValue(argv[i], "--export-specs", value)) {
                export_specs = value;
            } else if (std::strcmp(argv[i], "--resume") == 0) {
                resume = true;
            } else if (std::strcmp(argv[i], "--fork") == 0) {
                cfg.fork = true;
            } else if (std::strcmp(argv[i], "--no-lockstep") == 0) {
                cfg.lockstep = false;
            } else if (std::strcmp(argv[i], "--assert-no-sdc") == 0) {
                assert_no_sdc = true;
            } else {
                std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
                return 2;
            }
        }
    } catch (const bench::UsageError &err) {
        std::fprintf(stderr, "fault_campaign: %s\n", err.what());
        return 2;
    }

    // Records and table rows name a kernel without its variant, so
    // one name twice ("lfk01,lfk01:scalar") would merge two kernels.
    std::vector<kernels::Kernel> selected;
    for (const std::string &name : names) {
        try {
            selected.push_back(kernels::findKernel(name));
        } catch (const SimError &err) {
            std::fprintf(stderr, "fault_campaign: %s\n", err.what());
            return 2;
        }
        for (size_t k = 0; k + 1 < selected.size(); ++k) {
            if (selected[k].name == selected.back().name) {
                std::fprintf(stderr, "fault_campaign: --kernels names %s "
                             "twice\n", selected[k].name.c_str());
                return 2;
            }
        }
    }

    if (!export_specs.empty()) {
        // Golden runs only: each trial's fault plan is drawn against
        // its kernel's fault-free cycle count, so run the campaign
        // with no trials, then emit the derived plans as JobSpec
        // lines.
        faults::CampaignConfig goldenOnly;
        goldenOnly.faultsPerKernel = 0;
        goldenOnly.lockstep = false;
        goldenOnly.threads = cfg.threads;
        goldenOnly.machine = cfg.machine;
        std::string lines;
        try {
            const faults::CampaignResult golden =
                faults::runCampaign(selected, goldenOnly);
            for (size_t k = 0; k < selected.size(); ++k) {
                const kernels::Kernel &kernel = selected[k];
                service::JobSpec spec;
                spec.kind = service::JobKind::Kernel;
                spec.kernel = kernel.name + ":" + kernel.variant;
                spec.config = cfg.machine;
                spec.config.maxCycles =
                    faults::trialCycleGuard(golden.goldenCycles[k]);
                spec.lockstep = cfg.lockstep;
                for (unsigned i = 0; i < cfg.faultsPerKernel; ++i) {
                    const uint64_t seed =
                        faults::campaignTrialSeed(cfg.seed, k, i);
                    spec.name = kernel.name + "-fault-" +
                                std::to_string(seed);
                    spec.faultPlan = faults::FaultPlan::randomSingle(
                                         seed, golden.goldenCycles[k])
                                         .describe();
                    lines += spec.to_json() + "\n";
                }
            }
            writeFileAtomic(export_specs, lines);
        } catch (const FatalError &err) {
            std::fprintf(stderr, "%s\n", err.what());
            return 2;
        }
        std::printf("wrote %zu specs (%zu kernels x %u faults) to %s\n",
                    selected.size() * cfg.faultsPerKernel,
                    selected.size(), cfg.faultsPerKernel,
                    export_specs.c_str());
        return 0;
    }

    // Without --resume a pre-existing journal belongs to some earlier
    // campaign; start it over rather than silently skipping trials.
    if (!cfg.journalPath.empty() && !resume)
        std::remove(cfg.journalPath.c_str());

    bench::banner("Fault-injection campaign: " +
                  std::to_string(cfg.faultsPerKernel) +
                  " seeded single-bit faults per kernel, lockstep " +
                  (cfg.lockstep ? "on" : "off"));

    faults::CampaignResult result;
    try {
        result = faults::runCampaign(selected, cfg);
    } catch (const FatalError &err) {
        std::fprintf(stderr, "campaign setup failed: %s\n", err.what());
        return 1;
    }

    std::printf("%s\n", result.table().c_str());
    std::printf("golden runs:\n");
    for (size_t k = 0; k < result.kernels.size(); ++k) {
        std::printf("  %-8s %8llu cycles  checksum %.17g\n",
                    result.kernels[k].c_str(),
                    static_cast<unsigned long long>(result.goldenCycles[k]),
                    result.goldenChecksums[k]);
    }

    if (assert_no_sdc && !result.sdcFree()) {
        std::fprintf(stderr,
                     "ASSERTION FAILED: %u silent-data-corruption escapes\n",
                     result.count(faults::FaultOutcome::Sdc));
        for (const faults::FaultTrial &t : result.trials) {
            if (t.outcome == faults::FaultOutcome::Sdc)
                std::fprintf(stderr, "  %s\n", t.to_json().c_str());
        }
        return 1;
    }
    return 0;
}
