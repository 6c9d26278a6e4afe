#include "kernels/runner.hh"

#include "common/log.hh"
#include "common/stats.hh"
#include "kernels/linpack/linpack.hh"
#include "kernels/livermore/livermore.hh"

namespace mtfpu::kernels
{

namespace
{

/**
 * The cold+warm measurement protocol, run on a worker's Machine.
 * Writes everything except the error field into @p result.
 */
machine::RunStats
measureKernel(machine::Machine &m, const Kernel &kernel,
              const machine::MachineConfig &config, KernelResult &result)
{
    // Cold run: caches start invalid (loadProgram flushed them).
    kernel.init(m.mem());
    result.cold = m.run();

    const double cold_check = kernel.checksum(m.mem());

    // Warm run: re-initialize the data, keep the caches.
    m.resetForRun(false);
    kernel.init(m.mem());
    result.warm = m.run();

    const double warm_check = kernel.checksum(m.mem());
    const double want = kernel.reference();

    result.relError = std::max(relativeError(cold_check, want),
                               relativeError(warm_check, want));
    result.valid = result.relError <= kernel.tolerance ||
                   (kernel.tolerance == 0.0 && cold_check == want &&
                    warm_check == want);

    const double ns = config.cycleNs;
    result.mflopsCold = result.cold.mflops(kernel.flops, ns);
    result.mflopsWarm = result.warm.mflops(kernel.flops, ns);
    return result.warm;
}

} // anonymous namespace

std::vector<KernelResult>
runKernelBatch(const std::vector<KernelJob> &jobs, unsigned threads)
{
    std::vector<KernelResult> results(jobs.size());

    std::vector<machine::SimJob> sim_jobs;
    sim_jobs.reserve(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        const KernelJob &job = jobs[i];
        KernelResult &result = results[i];
        result.name = job.kernel.name;
        result.variant = job.kernel.variant;

        machine::SimJob sim;
        sim.name = job.kernel.name + "/" + job.kernel.variant;
        sim.program = job.kernel.program;
        sim.config = job.config;
        // Each body writes only its own result slot, so the batch is
        // data-race-free by construction.
        sim.body = [&job, &result](machine::Machine &m) {
            return measureKernel(m, job.kernel, job.config, result);
        };
        sim_jobs.push_back(std::move(sim));
    }

    const machine::SimDriver driver(threads);
    const std::vector<machine::SimJobResult> outcomes =
        driver.run(sim_jobs);
    for (size_t i = 0; i < outcomes.size(); ++i) {
        if (!outcomes[i].ok) {
            results[i].valid = false;
            results[i].error = outcomes[i].error;
        }
    }
    return results;
}

std::vector<KernelResult>
runKernelBatch(const std::vector<Kernel> &kernels,
               const machine::MachineConfig &config, unsigned threads)
{
    std::vector<KernelJob> jobs;
    jobs.reserve(kernels.size());
    for (const Kernel &kernel : kernels)
        jobs.push_back(KernelJob{kernel, config});
    return runKernelBatch(jobs, threads);
}

KernelResult
runKernel(const Kernel &kernel, const machine::MachineConfig &config)
{
    KernelResult result =
        runKernelBatch({KernelJob{kernel, config}}, 1).at(0);
    if (!result.error.empty())
        fatal(result.error); // preserve the pre-batch failure contract
    return result;
}

std::vector<std::pair<uint64_t, uint64_t>>
memImage(const Kernel &kernel, size_t mem_bytes)
{
    memory::MainMemory scratch(mem_bytes);
    kernel.init(scratch);
    std::vector<std::pair<uint64_t, uint64_t>> image;
    scratch.forEachNonzero([&image](uint64_t addr, uint64_t word) {
        image.emplace_back(addr, word);
    });
    return image;
}

Kernel
findKernel(const std::string &ref)
{
    std::string name = ref;
    std::string variant;
    const size_t colon = ref.find(':');
    if (colon != std::string::npos) {
        name = ref.substr(0, colon);
        variant = ref.substr(colon + 1);
    }
    if (!variant.empty() && variant != "vector" && variant != "scalar") {
        fatal(ErrCode::BadOperand,
              "unknown kernel variant '" + variant + "' in '" + ref +
                  "' (expected 'vector' or 'scalar')");
    }

    if (name.rfind("lfk", 0) == 0 && name.size() == 5) {
        const int id = (name[3] - '0') * 10 + (name[4] - '0');
        if (id >= 1 && id <= livermore::kNumLoops) {
            const bool has_vector = livermore::hasVectorVariant(id);
            const bool vector =
                variant.empty() ? has_vector : variant == "vector";
            if (vector && !has_vector) {
                fatal(ErrCode::BadOperand,
                      "kernel '" + name + "' has no vector variant");
            }
            return livermore::make(id, vector);
        }
    }
    if (name == "linpack") {
        const bool vector = variant.empty() || variant == "vector";
        return linpack::make(vector);
    }
    fatal(ErrCode::BadOperand, "unknown kernel reference '" + ref + "'");
}

machine::SimJob
pureKernelJob(const Kernel &kernel, const machine::MachineConfig &config)
{
    machine::SimJob job;
    job.name = kernel.name + "/" + kernel.variant;
    job.program = kernel.program;
    job.config = config;
    job.memInit = memImage(kernel, config.memory.memBytes);
    return job;
}

double
kernelError(const Kernel &kernel, const machine::MachineConfig &config)
{
    machine::Machine m(config);
    m.loadProgram(kernel.program);
    kernel.init(m.mem());
    m.run();
    return relativeError(kernel.checksum(m.mem()), kernel.reference());
}

} // namespace mtfpu::kernels
