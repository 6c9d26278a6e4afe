/**
 * @file
 * Kernel execution harness: runs a kernel cold (empty caches) and
 * warm (the paper's run-the-loops-twice methodology), validates the
 * simulated results against the host-FP reference, and computes
 * MFLOPS at the 40 ns cycle time.
 *
 * Batch entry points sit on the machine::SimDriver thread pool: a
 * figure or ablation suite is a list of independent (kernel, config)
 * jobs, each simulated on its own isolated Machine. Results come back
 * in job order and are identical for any thread count.
 */

#ifndef MTFPU_KERNELS_RUNNER_HH
#define MTFPU_KERNELS_RUNNER_HH

#include <functional>
#include <utility>
#include <vector>

#include "kernels/kernel.hh"
#include "machine/machine.hh"
#include "machine/sim_driver.hh"

namespace mtfpu::kernels
{

/** Results of one cold+warm kernel run. */
struct KernelResult
{
    std::string name;
    std::string variant;
    machine::RunStats cold;
    machine::RunStats warm;
    double mflopsCold = 0;
    double mflopsWarm = 0;
    /** Relative checksum error vs the host reference (warm run). */
    double relError = 0;
    bool valid = false;
    /** fatal() message if the simulation itself failed. */
    std::string error;
};

/** One batch entry: a kernel and the machine that should run it. */
struct KernelJob
{
    Kernel kernel;
    machine::MachineConfig config{};
};

/**
 * Run every job across @p threads workers (0 = hardware concurrency).
 * Results are in job order regardless of scheduling.
 */
std::vector<KernelResult> runKernelBatch(const std::vector<KernelJob> &jobs,
                                         unsigned threads = 0);

/** Convenience: the same configuration for a whole kernel list. */
std::vector<KernelResult> runKernelBatch(const std::vector<Kernel> &kernels,
                                         const machine::MachineConfig &config =
                                             machine::MachineConfig{},
                                         unsigned threads = 0);

/**
 * Run @p kernel on a machine configured by @p config.
 *
 * The cold run starts with every cache invalid; memory is then
 * re-initialized (kernels may update arrays in place) and the same
 * program re-run with the caches left warm.
 */
KernelResult runKernel(const Kernel &kernel,
                       const machine::MachineConfig &config =
                           machine::MachineConfig{});

/**
 * Materialize a memory initializer (a kernel's init, or any other
 * function that lays out data) into the declarative SimJob memInit
 * form: the (address, word) pairs of every nonzero word @p init
 * writes into a fresh @p mem_bytes memory. A job that starts from
 * this image is pure — and therefore result-cacheable — and does not
 * keep @p init or anything it references alive.
 */
std::vector<std::pair<uint64_t, uint64_t>> memImage(
    const std::function<void(memory::MainMemory &)> &init,
    size_t mem_bytes = 4u << 20);

/**
 * Resolve a kernel reference to its descriptor. The grammar is
 * "name[:variant]": "lfk01".."lfk24" and "linpack", with variant
 * "vector" or "scalar" (defaulting to the paper's preferred form —
 * vector where one exists). Examples: "lfk01", "lfk01:scalar",
 * "linpack:vector". This is the name space serializable JobSpecs use
 * to reference a kernel without embedding its program. Throws
 * SimError(ErrCode::BadOperand) on unknown names/variants.
 */
Kernel findKernel(const std::string &ref);

/**
 * The closure-free form of a kernel run: program + materialized
 * memImage under @p config — pure, and therefore result-cacheable.
 * This measures one (cold) run; the cold+warm measurement protocol of
 * runKernelBatch still needs a body closure.
 */
machine::SimJob pureKernelJob(const Kernel &kernel,
                              const machine::MachineConfig &config);

} // namespace mtfpu::kernels

#endif // MTFPU_KERNELS_RUNNER_HH
