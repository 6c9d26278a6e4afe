/**
 * @file
 * The three workloads and the per-layer probes they share.
 *
 * A workload fills the Report for one run: with tracing off, the
 * end-to-end metrics; with tracing on, every per-layer metric. Layers
 * a workload reaches only inside a library call (fpu, memory, softfp,
 * the daemon's JobSpec/ResultCache/WorkerPool/journal) are measured by
 * replaying their public API with inputs taken from that workload;
 * layers it does not reach at all are measured the same way, so every
 * traced run reports every layer and a workload that bypasses a layer
 * shows it as flat rather than missing.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <string>
#include <utility>
#include <vector>

#include "common.hh"
#include "common/json.hh"
#include "kernels/kernel.hh"
#include "service/job_spec.hh"

namespace perfbench
{

void runFigureSuite(const Options &opt, Report &report);
void runFaultCampaign(const Options &opt, Report &report);
void runServiceMixed(const Options &opt, Report &report);

/** Regenerate the golden anchor (RunStats and campaign digests). */
void writeAnchor(const Options &opt);

/** The figure-suite half of the anchor: every grid job's digest. */
void writeFigureAnchor(mtfpu::json::Writer &w);

/** The Livermore loops (scalar, plus vector where one exists) and
 *  Linpack scalar and vector: the figure suite's kernel list. */
std::vector<mtfpu::kernels::Kernel> suiteKernels();

/** "name/variant" — the kernel part of anchor and spec keys. */
std::string kernelKey(const mtfpu::kernels::Kernel &kernel);

/** The kernels::findKernel() reference of a suite kernel. */
std::string kernelRef(const mtfpu::kernels::Kernel &kernel);

/** Inputs the layer probes replay, drawn from the running workload. */
struct ProbeInputs
{
    /** Kernels (with configs) whose execution is captured and replayed. */
    std::vector<std::pair<const mtfpu::kernels::Kernel *,
                          mtfpu::machine::MachineConfig>>
        runs;
    /** Specs for the JobSpec / ResultCache / WorkerPool probes. */
    std::vector<mtfpu::service::JobSpec> specs;
    /** Kernels for the fault-campaign golden-phase probe. */
    std::vector<mtfpu::kernels::Kernel> campaignKernels;
};

/**
 * Simulator-side probes: softfp harness, fpu and memory replays,
 * Machine load/reset, Interpreter and lockstep cost, snapshots,
 * kernels init/validate, the SimDriver batch overhead, the
 * fault-campaign golden phase, and the exact machine counts of the
 * replayed runs. Metrics the caller already measured from its own
 * spans are left alone.
 */
void probeSimulatorLayers(const ProbeInputs &inputs, Report &report);

/** Service-side probes: JobSpec parse/resolve, ResultCache, one job
 *  through a WorkerPool, worker spawn, and journal appends. */
void probeServiceLayers(const Options &opt, const ProbeInputs &inputs,
                        Report &report);

/**
 * Start a daemon, drive a short closed-loop spec stream plus pings
 * through it, and report the wire/client/latency layer metrics and
 * the service exact counts. Used by the traced runs of workloads that
 * do not talk to a daemon themselves.
 */
void probeDaemon(const Options &opt, Report &report);

/** Cold fuzz spec for program seed @p fuzz_seed. */
mtfpu::service::JobSpec fuzzSpec(uint64_t fuzz_seed);

/** Zero-valued fault-classification counts (workloads without faults). */
void reportNoFaults(Report &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
